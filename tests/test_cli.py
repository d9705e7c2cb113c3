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
from opscale import CPMap, MarginalSpec, cli
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
    @pytest.mark.parametrize("command", ["scale", "check"])
    @pytest.mark.parametrize("kraus, spec", [
        ([[[1e300, 1e300], [1e300, 1e300]]], [0.5, 0.5]),
        ([[[1e300, 1e300, 1.0], [1e300, 1e300, 1.0], [1.0, 1.0, 1.0]]],
         [0.5, 0.5, 0.0]),
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

    def test_schurhorn_infeasible_exit_one(self, tmp_path, capsys):
        data = {"kind": "schurhorn", "diagonal": [1.5, 0.5],
                "spectrum": [1.2, 0.8]}
        path = write_instance(tmp_path, data)
        code = main(["schurhorn", path])
        report, _ = read_report(capsys)
        assert code == 1
        assert report["status"] == "INFEASIBLE"

    def test_forster_isotropy_error_in_report(self, tmp_path, capsys):
        data = {"kind": "forster",
                "vectors": [[1.0, 0.5, [0.0, 1.0]], [0.25, 1.0, 1.0]],
                "weights": [0.6, 0.8, 0.6],
                "spectrum": [1.0, 1.0]}
        path = write_instance(tmp_path, data)
        assert main(["forster", path, "--epsilon", "1e-3"]) == 0
        report, _ = read_report(capsys)
        assert report["isotropy_error"] <= 1e-3


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
