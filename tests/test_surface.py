"""The package's public surface: ``__all__`` resolves, every name the
demos, the benchmark and the README take from the package stays in it,
every exported function has a caller outside the tests, the parameters of
every exported function are pinned, and every demo runs."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import phibvp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The parameters of every exported function, in order; "=" marks one with
# a default and "*" a variadic one.  A new option is a one-line change here.
SIGNATURES = {
    "build_subsolution": "spec comparison_constant upper",
    "build_supersolution": "spec",
    "check_cone_membership": "profile n",
    "check_delta2": "phi",
    "check_phi_conditions": "phi estimate=",
    "classify_limit": "phi q end",
    "compute_lambda1": "spec R",
    "cone_lower_bound": "phi h slack=",
    "corpus": "seed count grid_size=",
    "dist_to_boundary": "grid",
    "duality_check": "phi",
    "envelope_bounds": "phi h",
    "estimate_comparison_constant": "phi h M_grid=",
    "estimate_indices": "phi",
    "growth_ratio": "phi t",
    "hypothesis_advisor": "phi q r1 r2",
    "integral": "fn",
    "inverse_homeomorphism": "phi",
    "inverse_saturating": "phi z",
    "lambda_star_bisect": "spec_template lo hi tol= s_max= count=",
    "make_catalog_entry": "descriptor",
    "make_power": "r",
    "make_sub_super_pair": "spec",
    "monotone_check": "phi h1 h2",
    "numeric_inverse": "phi y",
    "parse_linear_problem": "path grid_size=",
    "parse_problem": "path grid_size=",
    "pointwise_leq": "lo hi slack=",
    "random_forcing": "rng grid",
    "rhs": "spec u",
    "scan_shooting": "spec s_max count=",
    "shoot": "spec s",
    "solve_between": "spec v w tol= history=",
    "solve_linear": "phi h tol=",
    "sup_norm": "fn",
    "sup_norm_lower_bound": "phi h",
    "support_data": "h",
    "sweep": "spec_template lambda_grid s_max count=",
    "verify_comparison_constant": "phi h c M_grid",
    "verify_subsolution": "spec v",
    "verify_supersolution": "spec w",
    "with_lambda": "spec lam",
    "write_diagram_csv": "path diagram",
    "write_json_report": "path payload",
    "write_profile_csv": "path profile",
}


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
    assert DEMOS
    for path in DEMOS:
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


def _mentioned_names(source):
    """Every identifier, attribute, imported name and string constant in
    the code of the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_exported_functions_have_callers_outside_the_tests():
    # A caller is a package module other than the defining one (the
    # package's __init__ only re-exports), a demo, the benchmark (its span
    # targets are strings) or a README example.
    paths = DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path.read_text() for path in paths] + _readme_python_blocks()
    outside = set().union(*map(_mentioned_names, sources))
    by_module = {path.stem: _mentioned_names(path.read_text())
                 for path in sorted((ROOT / "src" / "phibvp").glob("*.py"))
                 if path.name != "__init__.py"}
    uncalled = []
    for name in phibvp.__all__:
        fn = getattr(phibvp, name)
        if not inspect.isfunction(fn) or name in outside:
            continue
        home = fn.__module__.rpartition(".")[2]
        if not any(name in names for module, names in by_module.items()
                   if module != home):
            uncalled.append(name)
    assert uncalled == []


def _signature(fn):
    marks = {inspect.Parameter.VAR_POSITIONAL: "*",
             inspect.Parameter.VAR_KEYWORD: "**"}
    return " ".join(
        marks.get(p.kind, "") + p.name
        + ("=" if p.default is not inspect.Parameter.empty else "")
        for p in inspect.signature(fn).parameters.values())


def test_exported_function_parameters_are_pinned():
    found = {name: _signature(getattr(phibvp, name)) for name in phibvp.__all__
             if inspect.isfunction(getattr(phibvp, name))}
    assert found == SIGNATURES


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # A RuntimeWarning (an overflow or invalid value numpy lets through)
    # fails the demo.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _unused_imports(source):
    """Names a module imports but never references, ``__future__`` aside;
    a quoted annotation counts as a reference to the names inside it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and isinstance(node.annotation, ast.Constant):
            used |= {name.id for name in ast.walk(ast.parse(node.annotation.value))
                     if isinstance(name, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_modules_use_every_name_they_import():
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted((ROOT / "src" / "phibvp").glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_benchmark_trace_targets_exist():
    # A traced bench run rebinds these by module and name, so a rename or
    # deletion would end it with an AttributeError.
    path = ROOT / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    targets = [target for pairs in spans.SPANS.values() for target in pairs]
    targets += [("orlicz", "growth_ratio"),
                ("homeomorphisms", "make_catalog_entry"),
                ("homeomorphisms", "make_power"),
                ("homeomorphisms", "inverse_homeomorphism")]
    missing = [(module, name) for module, name in targets
               if not callable(getattr(importlib.import_module("phibvp." + module),
                                       name, None))]
    assert len(targets) > 20 and missing == []
    assert callable(phibvp.homeomorphisms.Homeomorphism.inverse)
