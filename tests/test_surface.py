"""The package's public surface: ``__all__`` resolves, and every name the
demos, the benchmark and the README take from the package stays in it."""

import ast
import re
import types
from pathlib import Path

import phibvp

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_package(source):
    """Names of every ``from phibvp import ...`` in the source."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "phibvp"
            for alias in node.names}


def _attributes_of_package(source):
    """Every ``phibvp.<name>`` in the code of the source, bar submodules
    and dunders."""
    names = {node.attr for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "phibvp"}
    return {name for name in names if not name.startswith("__")
            and not isinstance(getattr(phibvp, name, None), types.ModuleType)}


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_all_has_no_duplicates_and_resolves():
    assert len(phibvp.__all__) == len(set(phibvp.__all__))
    missing = [name for name in phibvp.__all__ if not hasattr(phibvp, name)]
    assert missing == []


def test_demos_import_only_exported_names():
    used = set()
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        used |= _imported_from_package(path.read_text())
    assert used and used <= set(phibvp.__all__)


def test_benchmark_uses_only_exported_names():
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _attributes_of_package(path.read_text())
    assert used and used <= set(phibvp.__all__)


def test_readme_imports_only_exported_names():
    used = set()
    for block in _readme_python_blocks():
        used |= _imported_from_package(block)
    assert used and used <= set(phibvp.__all__)
