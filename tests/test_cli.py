import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers import bit_complexity_literal, random_kraus, spectrum
import opscale
from opscale import CPMap, MarginalSpec, cli, scaler
from opscale.cli import (
    ParseError,
    SchemaError,
    _serialize,
    dumps_report,
    main,
    parse_instance,
)

TRIANGULAR_CPMAP = {
    "kind": "cpmap",
    "kraus": [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ],
    "p": [1.0, 1.0],
    "q": [1.0, 1.0],
    "p_blocks": [1, 1],
    "q_blocks": [1, 1],
}

COLLINEAR_FORSTER = {
    "kind": "forster",
    "vectors": [[1, 2, 0, 1], [1, 2, 1, 0], [0, 0, 1, 1]],
    "weights": [1.2, 1.2, 0.5, 0.5],
    "spectrum": [1.1333333333333333, 1.1333333333333333, 1.1333333333333333],
}

RANK_ONE_CPMAP = {
    "kind": "cpmap",
    "kraus": [[[1.0, 0.0], [0.0, 0.0]]],
    "p": [1.0, 1.0],
    "q": [1.0, 1.0],
}


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_report(capsys):
    out = capsys.readouterr()
    return json.loads(out.out), out.err


class TestParsing:
    def test_complex_entries_round_trip_through_serializer(self):
        data = {
            "kind": "cpmap",
            "kraus": [[[[0.5, -1.25], 2.0], [3.0, [0.0, 0.125]]]],
            "p": [1.5, 0.5],
            "q": [1.0, 1.0],
        }
        inst = parse_instance(json.dumps(data))
        K = inst["map"].kraus[0]
        npt.assert_array_equal(K, [[0.5 - 1.25j, 2.0], [3.0, 0.125j]])
        text = _serialize({"kraus": [K], "p": inst["spec"].p,
                           "q": inst["spec"].q})
        again = parse_instance(json.dumps({"kind": "cpmap"})
                               [:-1] + ", " + text[1:])
        npt.assert_array_equal(again["map"].kraus[0], K)
        npt.assert_array_equal(again["spec"].p, inst["spec"].p)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_instance("[1, 2]")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_instance('{"kind": "frobnicate"}')

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing"):
            parse_instance('{"kind": "cpmap", "kraus": [[[1]]], "p": [1]}')

    def test_ragged_matrix(self):
        data = dict(TRIANGULAR_CPMAP, kraus=[[[1.0, 0.0], [0.0]]])
        with pytest.raises(SchemaError, match="ragged"):
            parse_instance(json.dumps(data))

    def test_boolean_is_not_a_number(self):
        data = dict(TRIANGULAR_CPMAP, p=[True, 1.0])
        with pytest.raises(SchemaError):
            parse_instance(json.dumps(data))

    def test_domain_errors_become_schema_errors(self):
        data = dict(TRIANGULAR_CPMAP, p=[-1.0, 3.0])
        with pytest.raises(SchemaError, match="cpmap"):
            parse_instance(json.dumps(data))

    def test_horn_needs_spectra_or_abc(self):
        with pytest.raises(SchemaError, match="spectra"):
            parse_instance('{"kind": "horn"}')


class TestSerialization:
    def test_seventeen_significant_digits(self):
        assert '"x": 0.10000000000000001' in dumps_report({"x": 0.1})

    def test_scalar_forms(self):
        rep = {"i": 3, "b": True, "none": None, "z": 1.0 + 0.5j,
               "nan": float("nan")}
        text = _serialize(rep)
        assert '"i": 3' in text and '"b": true' in text
        assert '"none": null' in text and '"nan": null' in text
        assert '"z": [1, 0.5]' in text

    def test_report_layout_one_field_per_line(self):
        text = dumps_report({"a": 1, "b": [1, 2]})
        assert text.splitlines()[1] == '  "a": 1,'
        assert text.endswith("}\n")


class TestMainScale:
    def test_success_exit_zero_with_factors(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        code = main(["scale", path, "--epsilon", "0.05"])
        report, err = read_report(capsys)
        assert code == 0
        assert report["command"] == "scale"
        assert report["status"] == "SUCCESS"
        assert report["final_ds"] <= report["threshold"]
        assert np.array(report["g"]).shape == (2, 2, 2)
        assert np.array(report["h"]).shape == (2, 2, 2)
        assert list(report)[-1] == "wall_time_ms"
        assert "scale: SUCCESS" in err

    def test_rank_deficient_exit_one(self, tmp_path, capsys):
        path = write_instance(tmp_path, RANK_ONE_CPMAP)
        code = main(["scale", path, "--epsilon", "0.05"])
        report, _ = read_report(capsys)
        assert code == 1
        assert report["status"] == "ERROR_NOT_PD"

    def test_singular_init_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scaler, "_comfortably_invertible", lambda mat: False)
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        assert main(["scale", path]) == 1
        report, err = read_report(capsys)
        assert report["status"] == "ERROR_SINGULAR_INIT"
        assert (report["iterations"], report["final_ds"]) == (0, None)
        for key in ("g", "h"):
            npt.assert_array_equal(np.array(report[key]),
                                   np.stack([np.eye(2), np.zeros((2, 2))], -1))
        assert "scale: ERROR_SINGULAR_INIT" in err

    def test_budget_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        code = main(["scale", path, "--epsilon", "1e-6", "--max-iters", "3"])
        report, _ = read_report(capsys)
        assert code == 2
        assert report["status"] == "ERROR_BUDGET"
        assert report["iterations"] <= 3

    def test_hard_cap_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPSCALE_HARD_CAP", "4")
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        code = main(["scale", path, "--epsilon", "1e-8"])
        report, _ = read_report(capsys)
        assert code == 2
        assert report["status"] == "ERROR_BUDGET"
        assert report["iterations"] <= 4

    def test_seed_determinism_modulo_wall_time(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        outs, reports = [], []
        for _ in range(2):
            assert main(["scale", path, "--epsilon", "0.05",
                         "--seed", "7"]) == 0
            out, _ = capsys.readouterr()
            reports.append(json.loads(out))
            outs.append([l for l in out.splitlines()
                         if "wall_time_ms" not in l])
        assert outs[0] == outs[1]
        assert reports[0]["seed"] == 7

    def test_default_budget_report_is_pinned_and_deterministic(
            self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        kraus = random_kraus(rng, 3, 3, 2)
        p, q = spectrum(rng, 3, floor=0.1), spectrum(rng, 3, floor=0.1)
        path = write_instance(tmp_path, {
            "kind": "cpmap", "p": p.tolist(), "q": q.tolist(),
            "kraus": [[[[z.real, z.imag] for z in row] for row in K]
                      for K in kraus]})
        outs = []
        for _ in range(2):
            assert main(["scale", path, "--seed", "5"]) == 0
            outs.append(capsys.readouterr().out)
        kept = [[l for l in out.splitlines() if "wall_time_ms" not in l]
                for out in outs]
        assert kept[0] == kept[1]
        b = bit_complexity_literal(CPMap(kraus), MarginalSpec(p, q))
        report = json.loads(outs[0])
        assert report["capacity"]["log_lower_bound"] == -10 * b

    def test_tiny_spectrum_entry_exits_two_without_traceback(
            self, tmp_path, capsys, monkeypatch):
        # p_min = 1e-300 overflows the raw general budget to inf; the
        # budget must clamp to the cap instead of raising OverflowError.
        monkeypatch.setenv("OPSCALE_HARD_CAP", "50")
        path = write_instance(tmp_path, {
            "kind": "cpmap", "kraus": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "p": [1.0, 1e-300], "q": [0.6, 0.4]})
        assert main(["scale", path]) == 2
        report, err = read_report(capsys)
        assert report["status"] == "ERROR_BUDGET"
        assert report["iterations"] == 50
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, data, flags", [
        ("scale", {"kind": "cpmap", "kraus": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                   "p": [0.6, 0.4], "q": [0.5, 0.5]}, ["--epsilon", "1e-170"]),
        # the internal accuracy eps / max target squares to 0
        ("matscale", {"kind": "matscale", "matrix": [[1, 2], [3, 4]],
                      "row_sums": [1e307, 1e307], "col_sums": [1e307, 1e307]}, []),
        ("forster", {"kind": "forster", "vectors": [[1, 2, 0], [1, 0, 2]],
                     "weights": [1e307, 1e307, 1e307],
                     "spectrum": [1.5e307, 1.5e307]}, []),
        # the internal accuracy itself underflows to 0
        ("matscale", {"kind": "matscale", "matrix": [[1, 2], [3, 4]],
                      "row_sums": [1e307, 1e307], "col_sums": [1e307, 1e307]},
         ["--epsilon", "1e-20"]),
        ("forster", {"kind": "forster", "vectors": [[1, 2, 0], [1, 0, 2]],
                     "weights": [1e307, 1e307, 1e307],
                     "spectrum": [1.5e307, 1.5e307]}, ["--epsilon", "1e-20"]),
        ("schurhorn", {"kind": "schurhorn", "diagonal": [1e299, 1e299],
                       "spectrum": [1.2e299, 0.8e299]}, ["--epsilon", "1e-170"]),
    ])
    def test_underflowing_accuracy_exits_two_without_traceback(
            self, tmp_path, capsys, monkeypatch, command, data, flags):
        # eps^2 underflows to 0 in the general budget's divisor and in the
        # ds threshold: the budget must be the cap instead of raising
        # ZeroDivisionError, and the run must end in a report.
        monkeypatch.setenv("OPSCALE_HARD_CAP", "50")
        assert main([command, write_instance(tmp_path, data), *flags]) == 2
        report, err = read_report(capsys)
        assert report["status"] == "ERROR_BUDGET"
        assert report["iterations"] <= 50
        assert "Traceback" not in err

    def test_zero_threshold_run_stops_at_the_roundoff_floor(self, tmp_path,
                                                            capsys):
        # at the default cap of 10^6 a zero threshold must not spend the
        # budget: the run ends where a step first fails to decrease ds
        path = write_instance(tmp_path, {
            "kind": "matscale", "matrix": [[1, 2], [3, 4]],
            "row_sums": [1e307, 1e307], "col_sums": [1e307, 1e307]})
        assert main(["matscale", path, "--trace"]) == 2
        report, _ = read_report(capsys)
        ds = report["ds_trace"]
        assert report["status"] == "ERROR_BUDGET" and report["iterations"] < 100
        assert 0.0 < ds[-2] <= ds[-1]

    @pytest.mark.parametrize("epsilon", ["0", "-1", "1", "nan"])
    @pytest.mark.parametrize("command, data", [
        ("matscale", {"kind": "matscale", "matrix": [[1, 2], [3, 4]],
                      "row_sums": [5, 5], "col_sums": [5, 5]}),
        ("horn", {"kind": "horn", "alpha": [1.0, 0.5], "beta": [0.7, 0.2],
                  "gamma": [1.5, 0.9]}),
        ("forster", {"kind": "forster", "vectors": [[1, 2, 0], [1, 0, 2]],
                     "weights": [1, 1, 1], "spectrum": [1.5, 1.5]}),
        ("schurhorn", {"kind": "schurhorn", "diagonal": [1, 1],
                       "spectrum": [1.2, 0.8]}),
    ])
    def test_accuracy_outside_the_unit_interval_exits_three(
            self, tmp_path, capsys, command, data, epsilon):
        # the apps divide the accuracy by at least 2 here before the solver
        # sees it; the caller's value must still be checked as given
        path = write_instance(tmp_path, data)
        assert main([command, path, "--epsilon", epsilon]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "epsilon" in out.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["scale", "check"])
    @pytest.mark.parametrize("kraus, spec", [
        ([[[1e300, 1e300], [1e300, 1e300]]], [0.5, 0.5]),
        ([[[1e300, 1e300, 1.0], [1e300, 1e300, 1.0], [1.0, 1.0, 1.0]]],
         [0.5, 0.5, 0.0]),
        # the Gaussian start's product overflows before the first step
        ([[[1.7e308, 1.7e308], [1.7e308, 1.7e308]]], [0.5, 0.5]),
    ])
    def test_overflowing_marginals_exit_two_without_warnings(
            self, tmp_path, capsys, command, kraus, spec):
        path = write_instance(tmp_path, {"kind": "cpmap", "kraus": kraus,
                                         "p": spec, "q": spec})
        assert main([command, path]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["iterations"] == 0
        assert "Warning" not in out.err

    def test_trace_flag_appends_ds_values(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        assert main(["scale", path, "--epsilon", "0.05", "--trace"]) == 0
        report, _ = read_report(capsys)
        assert len(report["ds_trace"]) == report["iterations"] + 1
        assert report["ds_trace"][-1] == report["final_ds"]

    def test_output_file(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        dest = tmp_path / "report.json"
        assert main(["scale", path, "--epsilon", "0.05",
                     "--output", str(dest)]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(dest.read_text())["status"] == "SUCCESS"
        assert "SUCCESS" in err

    def test_stdin_instance(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(json.dumps(TRIANGULAR_CPMAP)))
        assert main(["scale", "-", "--epsilon", "0.05"]) == 0
        report, _ = read_report(capsys)
        assert report["status"] == "SUCCESS"


class TestMainCheck:
    def test_feasible_exit_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        code = main(["check", path])
        report, err = read_report(capsys)
        assert code == 0
        assert report["verdict"] == "FEASIBLE"
        assert "check: FEASIBLE" in err

    def test_inconclusive_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        code = main(["check", path, "--max-iters", "1"])
        report, _ = read_report(capsys)
        assert code == 2
        assert report["verdict"] == "INCONCLUSIVE"

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e-22])
    def test_hall_infeasible_instance_is_never_feasible(self, tmp_path, capsys,
                                                        scale):
        # The matrix [[1, 1], [0, 1]] cannot reach row sums (0.4, 0.6) with
        # column sums (0.45, 0.55); scaling both spectra by one factor must
        # change neither the accuracy nor the verdict.
        path = write_instance(tmp_path, {
            "kind": "cpmap",
            "kraus": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]],
            "p": [45 * scale / 100, 55 * scale / 100],
            "q": [40 * scale / 100, 60 * scale / 100],
            "p_blocks": [1, 1], "q_blocks": [1, 1]})
        assert main(["check", path, "--max-iters", "50"]) == 2
        report, _ = read_report(capsys)
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["epsilon"] == pytest.approx(0.00884, rel=1e-3)


class TestMainApplications:
    def test_matscale_report(self, tmp_path, capsys):
        data = {"kind": "matscale", "matrix": [[1.0, 1.0], [1.0, 1.0]],
                "row_sums": [1.0, 1.0], "col_sums": [1.0, 1.0]}
        path = write_instance(tmp_path, data)
        assert main(["matscale", path, "--epsilon", "1e-4"]) == 0
        report, _ = read_report(capsys)
        npt.assert_allclose(np.array(report["scaled_matrix"]),
                            np.full((2, 2), 0.5), atol=1e-4)
        assert report["sum_errors"]["row"] <= 1e-4

    def test_horn_infeasible_trace_exit_one(self, tmp_path, capsys):
        data = {"kind": "horn", "alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                "gamma": [3.0, 0.0]}
        path = write_instance(tmp_path, data)
        code = main(["horn", path])
        report, err = read_report(capsys)
        assert code == 1
        assert report["status"] == "INFEASIBLE"
        assert "trace identity" in report["reason"]
        assert "INFEASIBLE" in err

    def test_horn_abc_reports_recovered_matrices(self, tmp_path, capsys):
        data = {"kind": "horn", "alpha": [2.0, -1.0], "beta": [1.5, 0.5],
                "gamma": [2.8, 0.2]}
        path = write_instance(tmp_path, data)
        assert main(["horn", path, "--epsilon", "1e-3"]) == 0
        report, _ = read_report(capsys)
        assert set(report["recovered"]) == {"A", "B", "C"}
        assert report["sum_error"] <= 1e-3

    def test_horn_abc_past_1e16_keeps_positive_spectra(self, tmp_path, capsys):
        # w - gamma_1 rounds to 0 at the first shifts; normalizing must
        # double them instead of passing a zero entry to the solver
        data = {"kind": "horn", "alpha": [6e19, 4e19], "beta": [6e19, 4e19],
                "gamma": [1.2e20, 8e19]}
        path = write_instance(tmp_path, data)
        assert main(["horn", path, "--max-iters", "2000"]) == 0
        report, _ = read_report(capsys)
        assert report["status"] == "SUCCESS"

    def test_schurhorn_infeasible_exit_one(self, tmp_path, capsys):
        data = {"kind": "schurhorn", "diagonal": [1.5, 0.5],
                "spectrum": [1.2, 0.8]}
        path = write_instance(tmp_path, data)
        code = main(["schurhorn", path])
        report, _ = read_report(capsys)
        assert code == 1
        assert report["status"] == "INFEASIBLE"

    def test_schurhorn_all_zero_exit_three(self, tmp_path, capsys):
        data = {"kind": "schurhorn", "diagonal": [0.0, 0.0],
                "spectrum": [0.0, 0.0]}
        assert main(["schurhorn", write_instance(tmp_path, data)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "diagonal" in out.err and "spectrum" in out.err
        assert "vectors" not in out.err

    def test_forster_isotropy_error_in_report(self, tmp_path, capsys):
        data = {"kind": "forster",
                "vectors": [[1.0, 0.5, [0.0, 1.0]], [0.25, 1.0, 1.0]],
                "weights": [0.6, 0.8, 0.6],
                "spectrum": [1.0, 1.0]}
        path = write_instance(tmp_path, data)
        assert main(["forster", path, "--epsilon", "1e-3"]) == 0
        report, _ = read_report(capsys)
        assert report["isotropy_error"] <= 1e-3

    def test_forster_singular_factors_exit_two(self, tmp_path, capsys):
        # The first two points are collinear and weigh 2.4 > q_1: infeasible;
        # the factors end too ill-conditioned to form a pair.
        path = write_instance(tmp_path, COLLINEAR_FORSTER)
        assert main(["forster", path, "--seed", "1", "--max-iters", "3000"]) == 2
        report, err = read_report(capsys)
        assert report["status"] == "ERROR_BUDGET"
        assert report["iterations"] == 3000
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_forster_huge_vector_entry_does_not_warn(self, tmp_path, capsys):
        data = {"kind": "forster", "vectors": [[1e308, 1, 0.5], [0, 1, 2]],
                "weights": [1, 1, 1], "spectrum": [1.5, 1.5]}
        path = write_instance(tmp_path, data)
        assert main(["forster", path, "--max-iters", "200"]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["status"] == "ERROR_BUDGET"
        assert "Warning" not in out.err


class TestMainErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["scale", str(tmp_path / "absent.json")]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["scale", str(path)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "nope"})
        assert main(["scale", path]) == 3

    def test_kind_command_mismatch(self, tmp_path, capsys):
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        assert main(["matscale", path]) == 3
        assert "needs kind" in capsys.readouterr().err

    def test_negative_matrix_entry(self, tmp_path, capsys):
        data = {"kind": "matscale", "matrix": [[1.0, -2.0]],
                "row_sums": [1.0], "col_sums": [0.5, 0.5]}
        path = write_instance(tmp_path, data)
        assert main(["matscale", path]) == 3
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("p, q", [
        ("[NaN, 0.5]", "[1.0, 0.5]"),
        ("[1e400, 0.5]", "[1.0, 0.5]"),
        ("[1e308, 1e308]", "[1e308, 1e308]"),
    ])
    def test_non_finite_spectra_exit_three(self, tmp_path, capsys, p, q):
        kraus = json.dumps(TRIANGULAR_CPMAP["kraus"])
        path = tmp_path / "bad.json"
        path.write_text(f'{{"kind": "cpmap", "kraus": {kraus}, '
                        f'"p": {p}, "q": {q}}}')
        assert main(["scale", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "finite" in out.err and "Traceback" not in out.err

    @pytest.mark.filterwarnings("error")
    def test_schurhorn_overflowing_total_exits_three(self, tmp_path, capsys):
        data = {"kind": "schurhorn", "diagonal": [1e308, 1e308],
                "spectrum": [1.0]}
        assert main(["schurhorn", write_instance(tmp_path, data)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("opscale: error:")
        assert "finite" in lines[0]

    @pytest.mark.parametrize("alpha", [[1e308, -1e308], [8e307, -8e307]])
    def test_horn_overflow_exits_three(self, tmp_path, alpha):
        # A separate process with a timeout: a regression that loops
        # forever fails here instead of hanging the suite.
        path = write_instance(tmp_path, {"kind": "horn", "alpha": alpha,
                                         "beta": [0, 0], "gamma": [0, 0]})
        src = str(Path(opscale.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "opscale.cli", "horn", path],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("opscale: error:")

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_bad_hard_cap_exit_three(self, tmp_path, capsys, monkeypatch,
                                     value):
        monkeypatch.setenv("OPSCALE_HARD_CAP", value)
        path = write_instance(tmp_path, TRIANGULAR_CPMAP)
        assert main(["scale", path, "--epsilon", "0.05"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "OPSCALE_HARD_CAP" in out.err

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 3
        assert "error" in capsys.readouterr().err


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; runs through it must print
    # what runs through a freshly built parser print.
    cpmap_path = write_instance(tmp_path, TRIANGULAR_CPMAP, "cpmap.json")
    calls = [
        ["scale", cpmap_path, "--epsilon", "0.05", "--trace"],
        ["check", cpmap_path, "--max-iters", "1"],
        ["matscale", write_instance(tmp_path, {
            "kind": "matscale", "matrix": [[1.0, 2.0], [3.0, 1.0]],
            "row_sums": [1.0, 1.0], "col_sums": [1.0, 1.0]}, "mat.json")],
        ["horn", write_instance(tmp_path, {
            "kind": "horn", "alpha": [2.0, -1.0], "beta": [1.5, 0.5],
            "gamma": [2.8, 0.2]}, "horn.json"), "--epsilon", "1e-3"],
        ["schurhorn", write_instance(tmp_path, {
            "kind": "schurhorn", "diagonal": [0.6, 0.4],
            "spectrum": [0.7, 0.3]}, "sh.json"), "--seed", "2"],
        ["frobnicate"],
        ["scale", cpmap_path, "--epsilon", "0.05", "--seed", "3"],
    ]

    def run_all():
        runs = []
        for argv in calls:
            code = main(argv)
            out = capsys.readouterr()
            runs.append((code, [l for l in out.out.splitlines()
                                if "wall_time_ms" not in l], out.err))
        return runs

    cached = run_all()
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0, 3, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == cached


_HEAD = ["command", "kind", "seed", "status", "epsilon", "iterations",
         "final_ds", "threshold"]
_OPERATOR = ["marginal_errors", "instance"]
_ABC = {"kind": "horn", "alpha": [2.0, -1.0], "beta": [1.5, 0.5],
        "gamma": [2.8, 0.2]}
_EMPTY_ROW = {"kind": "matscale", "matrix": [[1.0, 1.0], [0.0, 0.0]],
              "row_sums": [1.0, 1.0], "col_sums": [1.0, 1.0]}
_FORSTER = {"kind": "forster",
            "vectors": [[1.0, 0.5, [0.0, 1.0]], [0.25, 1.0, 1.0]],
            "weights": [0.6, 0.8, 0.6], "spectrum": [1.0, 1.0]}
_SCHURHORN = {"kind": "schurhorn", "diagonal": [0.6, 0.4],
              "spectrum": [0.7, 0.3]}


@pytest.mark.parametrize("command, data, flags, code, keys", [
    pytest.param("scale", TRIANGULAR_CPMAP, ["--epsilon", "0.05"], 0,
                 _HEAD + _OPERATOR + ["capacity", "g", "h"], id="scale"),
    pytest.param("scale", TRIANGULAR_CPMAP,
                 ["--epsilon", "1e-6", "--max-iters", "3"], 2,
                 _HEAD + _OPERATOR + ["capacity", "g", "h"],
                 id="scale-budget"),
    pytest.param("check", TRIANGULAR_CPMAP, [], 0,
                 ["command", "kind", "verdict"] + _HEAD[2:] + _OPERATOR
                 + ["capacity"], id="check"),
    pytest.param("matscale", {"kind": "matscale",
                              "matrix": [[1.0, 2.0], [3.0, 1.0]],
                              "row_sums": [1.0, 1.0],
                              "col_sums": [1.0, 1.0]}, [], 0,
                 _HEAD + _OPERATOR + ["capacity", "row_scale", "col_scale",
                                      "scaled_matrix", "sum_errors"],
                 id="matscale"),
    pytest.param("matscale", _EMPTY_ROW, [], 1,
                 _HEAD + _OPERATOR + ["capacity"], id="matscale-not-pd"),
    pytest.param("horn", _ABC, ["--epsilon", "1e-3"], 0,
                 _HEAD + _OPERATOR + ["capacity", "matrices", "sum_error",
                                      "normalization", "recovered"],
                 id="horn-abc"),
    pytest.param("horn", _ABC, ["--epsilon", "1e-3", "--max-iters", "1"], 2,
                 _HEAD + _OPERATOR + ["capacity"], id="horn-abc-budget"),
    pytest.param("forster", _FORSTER, ["--epsilon", "1e-3"], 0,
                 _HEAD + _OPERATOR + ["capacity", "transform", "vectors",
                                      "isotropy_error"], id="forster"),
    pytest.param("schurhorn", _SCHURHORN, ["--seed", "2"], 0,
                 _HEAD + ["capacity", "matrix", "errors"], id="schurhorn"),
    pytest.param("schurhorn", _SCHURHORN,
                 ["--epsilon", "1e-6", "--max-iters", "1"], 2,
                 _HEAD + ["capacity"], id="schurhorn-budget"),
    pytest.param("horn", dict(_ABC, gamma=[3.0, 0.5]), [], 1,
                 ["command", "kind", "seed", "status", "reason"],
                 id="infeasible"),
    pytest.param("scale", TRIANGULAR_CPMAP, ["--epsilon", "0.05", "--trace"],
                 0, _HEAD + _OPERATOR + ["capacity", "g", "h", "ds_trace"],
                 id="trace"),
])
def test_report_key_order_per_path(tmp_path, capsys, command, data, flags,
                                   code, keys):
    assert main([command, write_instance(tmp_path, data), *flags]) == code
    report, _ = read_report(capsys)
    assert list(report) == keys + ["wall_time_ms"]
