import json
import math

import numpy as np
import pytest

from phibvp import (BranchDiagram, BranchPoint, BranchSolution,
                    ProblemFileError, parse_linear_problem, parse_problem,
                    support_data, write_diagram_csv, write_json_report)
from phibvp.cli import build_parser, main
from phibvp.problem_io import _json_ready


def read_csv(path):
    """The numeric rows of a CSV the package wrote, below its header."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_file(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def linear_payload(**overrides):
    payload = {"interval": [0.0, 1.0], "grid_size": 257, "phi": "power:2",
               "h": "constant:2.0"}
    payload.update(overrides)
    return payload


def problem_payload(**overrides):
    payload = {
        "interval": [0.0, 1.0],
        "grid_size": 257,
        "phi": "power:1",
        "m": "constant:1.0",
        "n": "constant:1.0",
        "lambda": 0.5,
        "mu": 1.0,
        "f": {"expr": "power:0.5", "F": {"c0": 1.0, "t0": 1.0, "q": 0.5}},
        "g": {"expr": "power:2",
              "G1": {"c1": 1.0, "t1": 1.0, "r1": 2.0},
              "G2": {"c2": 1.0, "t2": 1.0, "r2": 2.0}},
    }
    payload.update(overrides)
    return payload


class TestParseProblem:
    def test_reference_file_parses(self, tmp_path):
        spec = parse_problem(write_file(tmp_path / "p.json", problem_payload()))
        assert spec.lam == 0.5 and spec.mu == 1.0
        assert spec.grid.count == 257
        assert np.all(spec.m.values == 1.0)
        assert spec.f_constants.q == 0.5
        assert spec.g2_constants.r2 == 2.0

    def test_grid_size_override(self, tmp_path):
        path = write_file(tmp_path / "p.json", problem_payload())
        spec = parse_problem(path, grid_size=65)
        assert spec.grid.count == 65

    def test_fractional_grid_size_rejected(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(grid_size=257.5))
        with pytest.raises(ProblemFileError, match="must be an integer"):
            parse_problem(path)

    def test_integral_float_grid_size_accepted(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(grid_size=65.0))
        assert parse_problem(path).grid.count == 65

    @pytest.mark.parametrize("field,value,constraint", [
        ("mu", 0.0, "mu > 0"),
        ("mu", -1.0, "mu > 0"),
        ("lambda", 0.0, "lambda > 0"),
        ("grid_size", 2, "grid_size >= 3"),
        ("interval", [1.0, 0.0], "interval a < b"),
    ])
    def test_constraints_reported_by_name(self, tmp_path, field, value,
                                          constraint):
        path = write_file(tmp_path / "p.json",
                          problem_payload(**{field: value}))
        with pytest.raises(ProblemFileError, match=constraint.replace(">", ">")):
            parse_problem(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(comment="hello"))
        with pytest.raises(ProblemFileError, match="unknown key.*comment"):
            parse_problem(path)

    def test_missing_top_level_key_rejected(self, tmp_path):
        payload = problem_payload()
        del payload["g"]
        path = write_file(tmp_path / "p.json", payload)
        with pytest.raises(ProblemFileError, match="missing key.*g"):
            parse_problem(path)

    def test_unknown_key_inside_f_block_rejected(self, tmp_path):
        payload = problem_payload()
        payload["f"]["name"] = "root"
        path = write_file(tmp_path / "p.json", payload)
        with pytest.raises(ProblemFileError, match="f has unknown key"):
            parse_problem(path)

    def test_unknown_key_inside_constants_rejected(self, tmp_path):
        payload = problem_payload()
        payload["g"]["G1"]["extra"] = 1.0
        path = write_file(tmp_path / "p.json", payload)
        with pytest.raises(ProblemFileError, match="g.G1 has unknown key"):
            parse_problem(path)

    def test_unknown_phi_descriptor_rejected(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(phi="spline:3"))
        with pytest.raises(ProblemFileError, match="phi:"):
            parse_problem(path)

    def test_non_finite_phi_exponent_rejected(self, tmp_path):
        path = write_file(tmp_path / "lin.json",
                          linear_payload(phi="ratio:inf,1"))
        with pytest.raises(ProblemFileError,
                           match="phi: descriptor exponents must be finite"):
            parse_linear_problem(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ProblemFileError, match="cannot read problem file"):
            parse_problem(str(tmp_path / "absent.json"))

    def test_invalid_json_reported_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"interval\": [0, 1],}")
        with pytest.raises(ProblemFileError, match="invalid JSON at line"):
            parse_problem(str(path))

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ProblemFileError, match="top level"):
            parse_problem(str(path))


class TestWeights:
    def test_indicator_weight_support(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(m="indicator:0.25,0.5"))
        spec = parse_problem(path)
        sd = support_data(spec.m)
        assert sd.alpha_h == pytest.approx(0.25, abs=5e-3)
        assert sd.beta_h == pytest.approx(0.5, abs=5e-3)

    def test_product_weight(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(n="constant:2.0*power:1"))
        spec = parse_problem(path)
        x = spec.grid.nodes
        assert np.allclose(spec.n.values, 2.0 * x, atol=1e-15)

    def test_negative_constant_factor_rejected(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(m="constant:-1.0"))
        with pytest.raises(ProblemFileError, match="constant factor >= 0"):
            parse_problem(path)

    def test_indicator_endpoints_validated(self, tmp_path):
        path = write_file(tmp_path / "p.json",
                          problem_payload(m="indicator:0.5,0.25"))
        with pytest.raises(ProblemFileError, match="l < r"):
            parse_problem(path)

    def test_table_weight_interpolates(self, tmp_path):
        table = {"nodes": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]}
        path = write_file(tmp_path / "p.json", problem_payload(m=table))
        spec = parse_problem(path)
        mid = spec.grid.count // 2
        assert spec.m.values[mid] == pytest.approx(1.0, abs=1e-12)
        assert spec.m.values[mid // 2] == pytest.approx(0.5, abs=1e-2)

    def test_table_weight_must_cover_interval(self, tmp_path):
        table = {"nodes": [0.1, 1.0], "values": [1.0, 1.0]}
        path = write_file(tmp_path / "p.json", problem_payload(m=table))
        with pytest.raises(ProblemFileError, match="cover"):
            parse_problem(path)

    def test_table_weight_rejects_negative_values(self, tmp_path):
        table = {"nodes": [0.0, 1.0], "values": [-0.5, 1.0]}
        path = write_file(tmp_path / "p.json", problem_payload(m=table))
        with pytest.raises(ProblemFileError, match="m >= 0"):
            parse_problem(path)


class TestNonlinearities:
    def test_table_nonlinearity_interpolates_and_extends(self, tmp_path):
        payload = problem_payload()
        payload["f"] = {"expr": "table", "t": [0.0, 1.0, 2.0],
                        "values": [0.0, 1.0, 4.0]}
        spec = parse_problem(write_file(tmp_path / "p.json", payload))
        assert spec.f(0.5) == pytest.approx(0.5)
        assert spec.f(1.5) == pytest.approx(2.5)
        assert spec.f(3.0) == pytest.approx(7.0)

    def test_table_extension_clamps_at_zero(self, tmp_path):
        payload = problem_payload()
        payload["g"] = {"expr": "table", "t": [0.0, 1.0, 2.0],
                        "values": [0.0, 1.0, 0.5]}
        spec = parse_problem(write_file(tmp_path / "p.json", payload))
        assert spec.g(4.0) == 0.0

    def test_power_form_rejects_stray_arrays(self, tmp_path):
        payload = problem_payload()
        payload["f"] = {"expr": "power:0.5", "t": [0.0, 1.0]}
        with pytest.raises(ProblemFileError, match="takes no t/values"):
            parse_problem(write_file(tmp_path / "p.json", payload))

    def test_table_must_start_at_zero(self, tmp_path):
        payload = problem_payload()
        payload["f"] = {"expr": "table", "t": [0.5, 1.0], "values": [0.0, 1.0]}
        with pytest.raises(ProblemFileError, match="start at 0"):
            parse_problem(write_file(tmp_path / "p.json", payload))

    def test_nonpositive_power_exponent_rejected(self, tmp_path):
        payload = problem_payload()
        payload["f"] = {"expr": "power:0"}
        with pytest.raises(ProblemFileError, match="power exponent > 0"):
            parse_problem(write_file(tmp_path / "p.json", payload))


class TestLinearFiles:
    def test_parse_linear(self, tmp_path):
        phi, h = parse_linear_problem(
            write_file(tmp_path / "lin.json", linear_payload()))
        assert phi.label == "power:2"
        assert np.all(h.values == 2.0)

    def test_linear_rejects_nonlinear_keys(self, tmp_path):
        path = write_file(tmp_path / "lin.json",
                          linear_payload(mu=1.0))
        with pytest.raises(ProblemFileError, match="unknown key"):
            parse_linear_problem(path)


class TestSerialization:
    def test_json_ready_handles_non_finite_and_numpy(self):
        out = _json_ready({
            "a": np.float64(1.5),
            "b": math.nan,
            "c": math.inf,
            "d": -math.inf,
            "e": np.bool_(True),
            "f": np.int64(3),
            "g": (1, [2.0, math.nan]),
        })
        assert out == {"a": 1.5, "b": "nan", "c": "inf", "d": "-inf",
                       "e": True, "f": 3, "g": [1, [2.0, "nan"]]}

    def test_write_json_report_is_stable(self, tmp_path):
        payload = {"z": 1.0, "a": {"k": math.inf}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_json_report(p1, payload)
        write_json_report(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == {"a": {"k": "inf"}, "z": 1.0}

    def test_diagram_csv_round_trip(self, tmp_path):
        diagram = BranchDiagram(
            points=(BranchPoint(lam=0.5, solutions=(
                BranchSolution(sup_norm=1.25, initial_slope=3.0, in_cone=True),
                BranchSolution(sup_norm=0.5, initial_slope=0.25, in_cone=False),
            )),),
            lambda_star_estimate=math.nan, spec_snapshot=None)
        path = tmp_path / "diagram.csv"
        write_diagram_csv(path, diagram)
        assert path.read_text().splitlines()[0] == (
            "lambda,branch_index,sup_norm,initial_slope,in_cone")
        assert read_csv(path).tolist() == [[0.5, 0, 1.25, 3.0, 1],
                                           [0.5, 1, 0.5, 0.25, 0]]


class TestCli:
    def test_solve_linear_end_to_end(self, tmp_path):
        problem = write_file(tmp_path / "lin.json", linear_payload())
        out = tmp_path / "out"
        assert main(["solve-linear", problem, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["c_star"] == pytest.approx(1.0, abs=1e-12)
        assert report["envelope_lower_holds"] is True
        assert report["envelope_upper_holds"] is True
        assert report["cone_bound_holds"] is True
        assert report["half_bracket_below_sup_norm"] is True
        u = read_csv(out / "solution.csv")[:, 1]
        assert u[0] == 0.0 and u[-1] == 0.0

    def test_solve_linear_is_deterministic(self, tmp_path):
        problem = write_file(tmp_path / "lin.json", linear_payload())
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve-linear", problem, "--out-dir", str(d1)]) == 0
        assert main(["solve-linear", problem, "--out-dir", str(d2)]) == 0
        assert ((d1 / "report.json").read_bytes()
                == (d2 / "report.json").read_bytes())
        assert ((d1 / "solution.csv").read_bytes()
                == (d2 / "solution.csv").read_bytes())

    def test_solve_nonlinear_end_to_end(self, tmp_path):
        problem = write_file(tmp_path / "p.json", problem_payload())
        out = tmp_path / "out"
        assert main(["solve-nonlinear", problem, "--grid-size", "129",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda0"] == pytest.approx(1.0, rel=1e-9)
        assert report["kappa_lambda"] == pytest.approx(0.5, rel=1e-9)
        assert report["iterations"] <= 200
        assert report["residual"] < 1e-6
        assert report["in_cone"] is True
        assert report["interior_positive"] is True
        assert report["inward_slopes"] is True
        for name in ("sub.csv", "super.csv", "solution.csv"):
            assert (out / name).exists()
        sub, sol, sup = (read_csv(out / name)[:, 1]
                         for name in ("sub.csv", "solution.csv", "super.csv"))
        assert np.all(sub <= sol + 1e-9)
        assert np.all(sol <= sup + 1e-9)

    def test_sweep_end_to_end(self, tmp_path):
        problem = write_file(tmp_path / "p.json", problem_payload())
        out = tmp_path / "out"
        code = main(["sweep", problem, "--grid-size", "129",
                     "--lambda-min", "0.05", "--lambda-max", "0.5",
                     "--lambda-steps", "2", "--s-count", "40",
                     "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda0"] == pytest.approx(1.0, rel=1e-9)
        assert report["lambda1"] == pytest.approx(0.375, rel=1e-9)
        assert report["rho"] == pytest.approx(0.5, rel=1e-9)
        rows = read_csv(out / "diagram.csv")
        assert len(rows) == 4
        assert np.all(rows[:, 4] == 1)

    def test_indices_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        assert main(["indices", "power:2", "--out-dir", str(out)]) == 0
        report = json.loads((out / "indices.json").read_text())
        assert report["alpha_hat"] == pytest.approx(2.0, abs=0.05)
        assert report["beta_hat"] == pytest.approx(2.0, abs=0.05)
        assert report["delta2"]["holds"] is True
        assert report["delta2"]["k_hat"] == pytest.approx(4.0, rel=1e-2)
        assert report["phi_cond"]["holds"] is True
        assert report["duality"]["passed"] is True

    @pytest.mark.parametrize("entry", ["power:12", "power:20"])
    def test_indices_steep_power_passes(self, entry, tmp_path):
        # M(2^40) = 2^(40 r) is a power ratio, not an escaping one, and the
        # sandwich drops the lanes where t x or x leave the normal range.
        assert main(["indices", entry, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "indices.json").read_text())
        r = float(entry.partition(":")[2])
        assert report["beta_hat"] == pytest.approx(r, rel=1e-9)
        assert report["phi_cond"]["holds"] is True
        assert report["phi_cond"]["constant"] == 1.0
        assert report["duality"]["passed"] is True

    def test_indices_with_subnormal_inverse_roots_passes(self, tmp_path):
        # The inverse map's fit inverts targets whose roots are subnormal;
        # it once stopped with "numeric inverse missed its tolerance".
        assert main(["indices", "sum-powers:0.05,0.02",
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "indices.json").read_text())
        assert report["duality"]["passed"] is True

    def test_parser_built_once_and_reused(self, tmp_path):
        # Commands run in one process share one parser and write the same
        # bytes as a call that builds its own.
        problem = write_file(tmp_path / "lin.json", linear_payload())
        commands = [["indices", "power:2"], ["solve-linear", problem],
                    ["indices", "power:2"]]
        build_parser.cache_clear()
        for k, argv in enumerate(commands):
            assert main(argv + ["--out-dir", str(tmp_path / ("r%d" % k))]) == 0
        assert build_parser.cache_info().misses == 1
        for k, argv in enumerate(commands):
            build_parser.cache_clear()
            assert main(argv + ["--out-dir", str(tmp_path / ("f%d" % k))]) == 0
            reused = sorted((tmp_path / ("r%d" % k)).iterdir())
            fresh = sorted((tmp_path / ("f%d" % k)).iterdir())
            assert [p.name for p in reused] == [p.name for p in fresh]
            for a, b in zip(reused, fresh):
                assert a.read_bytes() == b.read_bytes(), a.name

    def test_verify_bounds_deterministic_and_passing(self, tmp_path):
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        argv = ["verify-bounds", "--seed", "7", "--cases", "3"]
        assert main(argv + ["--out-dir", str(d1)]) == 0
        assert main(argv + ["--out-dir", str(d2)]) == 0
        b1 = (d1 / "bounds_report.json").read_bytes()
        assert b1 == (d2 / "bounds_report.json").read_bytes()
        report = json.loads(b1)
        assert report["all_pass"] is True
        assert len(report["results"]) == 3

    def test_domain_error_exits_one_and_names_constraint(self, tmp_path,
                                                         capsys):
        problem = write_file(tmp_path / "bad.json", problem_payload(mu=0.0))
        assert main(["solve-nonlinear", problem]) == 1
        assert "mu > 0" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve-linear", str(tmp_path / "absent.json")]) == 1
        assert "cannot read problem file" in capsys.readouterr().err

    def test_bad_sweep_range_exits_one(self, tmp_path, capsys):
        problem = write_file(tmp_path / "p.json", problem_payload())
        assert main(["sweep", problem, "--lambda-min", "2.0",
                     "--lambda-max", "1.0"]) == 1
        assert "lambda-min" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("1.0", "inf"), ("inf", "inf"),
                                        ("nan", "2.0"), ("0.5", "nan")])
    def test_non_finite_sweep_range_exits_one(self, bounds, tmp_path,
                                              capsys):
        # --lambda-max inf once ended in an existence gap at lambda = inf.
        problem = write_file(tmp_path / "p.json", problem_payload())
        out = tmp_path / "out"
        assert main(["sweep", problem, "--lambda-min", bounds[0],
                     "--lambda-max", bounds[1], "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: need 0 < --lambda-min < --lambda-max < inf"]
        assert not out.exists()

    @pytest.mark.parametrize("r_max", ["nan", "-1"])
    def test_bad_norm_cap_is_named_in_the_note(self, r_max, tmp_path,
                                               capsys):
        problem = write_file(tmp_path / "p.json", problem_payload())
        assert main(["sweep", problem, "--grid-size", "65",
                     "--lambda-min", "0.05", "--lambda-max", "0.5",
                     "--lambda-steps", "2", "--s-count", "40",
                     "--r-max", r_max, "--out-dir", str(tmp_path)]) == 0
        assert ("lambda1 unavailable: R must be positive and finite, got %s"
                % r_max) in capsys.readouterr().err.splitlines()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda1"] == report["rho"] == "nan"

    @pytest.mark.parametrize("literal", ["1e999", "NaN"])
    def test_non_finite_grid_size_exits_one(self, literal, tmp_path, capsys):
        # json reads both, as floats that int() rejects with an
        # OverflowError and a ValueError.
        text = json.dumps(linear_payload(grid_size=0)).replace(
            '"grid_size": 0', '"grid_size": ' + literal)
        problem = tmp_path / "lin.json"
        problem.write_text(text)
        assert main(["solve-linear", str(problem),
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: grid_size must be an integer"]

    @pytest.mark.parametrize("entry",
                             ["ratio:inf,1", "sum-powers:inf,1", "logpow:inf"])
    def test_non_finite_exponent_exits_one(self, entry, tmp_path, capsys):
        # indices once ended in a ZeroDivisionError traceback, and
        # solve-linear in "numeric inverse missed its tolerance".
        problem = write_file(tmp_path / "lin.json", linear_payload(phi=entry))
        assert main(["indices", entry, "--out-dir", str(tmp_path)]) == 1
        assert main(["solve-linear", problem, "--out-dir", str(tmp_path)]) == 1
        message = ("descriptor exponents must be finite, got %r"
                   % entry.partition(":")[2])
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message, "error: phi: " + message]

    @pytest.mark.parametrize("entry, span", [("power:1000", "[1, 1]"),
                                             ("power:300", "[0.1, 10]")])
    def test_too_narrow_map_exits_one(self, entry, span, tmp_path, capsys):
        assert main(["indices", entry, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: %s is finite and positive only on %s, fewer than the 40 "
            "octaves the growth fit needs" % (entry, span)]
        assert not (tmp_path / "indices.json").exists()

    def test_underflowing_ratio_exits_one(self, tmp_path, capsys):
        # No RuntimeWarning from the log of a zero ratio reaches stderr.
        assert main(["indices", "power:40", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the growth ratio of power:40 underflows to 0 at "
            "t = 2^-29; the growth fit needs it positive down to t = 2^-40"]
        assert not (tmp_path / "indices.json").exists()

    def test_infinite_s_max_exits_one(self, tmp_path, capsys):
        problem = write_file(tmp_path / "p.json", problem_payload())
        out = tmp_path / "out"
        assert main(["sweep", problem, "--grid-size", "65",
                     "--lambda-min", "0.05", "--lambda-max", "0.5",
                     "--s-max", "inf", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need a finite s_max")
        assert not out.exists()

    def test_infinite_tol_exits_one(self, tmp_path, capsys):
        # Every gap falls below inf, so the first solve once came back as
        # the solution with exit 0.
        problem = write_file(tmp_path / "p.json",
                             problem_payload(phi="power:2", **{"lambda": 0.8}))
        assert main(["solve-nonlinear", problem, "--grid-size", "65",
                     "--tol", "inf", "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "tol" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "solution.csv").exists()

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_verify_bounds_without_cases_exits_two(self, cases, tmp_path,
                                                   capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify-bounds", "--cases", cases,
                  "--out-dir", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "need at least 1 case" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_sweep_without_lambda_steps_exits_two(self, steps, tmp_path,
                                                  capsys):
        problem = write_file(tmp_path / "p.json", problem_payload())
        with pytest.raises(SystemExit) as info:
            main(["sweep", problem, "--lambda-min", "0.05",
                  "--lambda-max", "0.5", "--lambda-steps", steps,
                  "--out-dir", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "need at least 1 lambda step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["solve-linear"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
