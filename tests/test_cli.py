"""Driver behavior: JSON I/O, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

from schurpos import serialization as ser, verify
from schurpos.cli import main
from schurpos.forms import chern_forms, max_coeff_diff, schur_form, wedge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def gen_with_entry(tmp_path, entry, *gen_args):
    """Generate a fixture file, then set the real part of its first entry to ``entry``."""
    path = tmp_path / "bad.json"
    assert main(["gen", *gen_args, "--output", str(path)]) == 0
    obj = json.loads(path.read_text())
    row = obj["blocks"] if "blocks" in obj else obj["R"]
    while not isinstance(row[0], float):
        row = row[0]
    row[0] = entry
    path.write_text(json.dumps(obj))
    return path


def gen_with_nan(tmp_path, *gen_args):
    """Generate a fixture file, then set the real part of its first entry to NaN."""
    return gen_with_entry(tmp_path, float("nan"), *gen_args)


def assert_rejected_without_nan(code, out, err):
    assert code == 2
    assert "NaN" not in out + err


class TestGen:
    def test_trace_map(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "gen", "trace", "--rank", "3",
                           "--output", str(path))
        assert code == 0
        h = ser.block_map_from_json(json.loads(path.read_text()))
        assert np.array_equal(h.block(0, 0), np.eye(3))
        assert np.max(np.abs(h.block(0, 1))) == 0.0

    def test_curvature_symmetry(self, capsys):
        code, obj, _ = run_json(capsys, "gen", "curvature", "--rank", "3",
                                "--dim", "3", "--terms", "4", "--eps", "0.1",
                                "--seed", "7")
        assert code == 0
        ser.curvature_from_json(obj)  # validates Hermitian pair symmetry

    def test_choi_generates(self, capsys):
        code, obj, _ = run_json(capsys, "gen", "choi")
        assert code == 0
        h = ser.block_map_from_json(obj)
        assert np.array_equal(sum(h.block(i, i) for i in range(3)),
                              2.0 * np.eye(3))

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert main(["gen", "kraus", "--rank", "3", "--seed", "11",
                         "--output", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_eps_is_precondition_error(self, capsys):
        assert_rejected_without_nan(*run(capsys, "gen", "kraus", "--eps", "nan"))

    def test_negative_eps_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        code, _, err = run(capsys, "gen", "kraus", "--eps", "-5",
                           "--output", str(path))
        assert code == 2
        assert "eps" in err
        assert not path.exists()


    @pytest.mark.parametrize("kind, size", [("trace", "--rank"), ("kraus", "--rank"),
                                            ("curvature", "--rank"),
                                            ("curvature", "--dim")])
    def test_zero_size_is_precondition_error(self, capsys, tmp_path, kind, size):
        path = tmp_path / "h.json"
        code, _, err = run(capsys, "gen", kind, size, "0", "--output", str(path))
        assert code == 2
        assert "at least 1" in err or ">= 1" in err
        assert not path.exists()


class TestScale:
    def test_trace_map_fixed_point(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        main(["gen", "trace", "--rank", "3", "--output", str(path)])
        code, obj, _ = run_json(capsys, "scale", "--input", str(path))
        assert code == 0
        assert obj["converged"] is True
        assert obj["iterations"] <= 1
        assert obj["residual"] < 1e-14

    def test_random_kraus(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        main(["gen", "kraus", "--rank", "3", "--eps", "0.2", "--seed", "3",
              "--output", str(path)])
        code, obj, _ = run_json(capsys, "scale", "--input", str(path))
        assert code == 0
        assert obj["residual"] < 1e-10

    def test_identity_map_certificate_failure(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                blocks[i, j, i, j] = 1.0
        obj = {"r": 2, "w": 2,
               "blocks": [[ser.matrix_to_json(blocks[i, j]) for j in range(2)]
                          for i in range(2)]}
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "scale", "--input", str(path))
        assert code == 2
        assert "positivity" in err

    @pytest.mark.parametrize("c", [1e-13, 1e-16])
    def test_tiny_multiple_of_positive_map(self, capsys, tmp_path, c):
        path = tmp_path / "k.json"
        main(["gen", "kraus", "--rank", "3", "--eps", "0.2", "--seed", "1",
              "--output", str(path)])
        _, want, _ = run_json(capsys, "scale", "--input", str(path))
        h = ser.block_map_from_json(json.loads(path.read_text()))
        h.blocks *= c
        ser.dump(ser.block_map_to_json(h), str(path))
        code, got, _ = run_json(capsys, "scale", "--input", str(path))
        assert code == 0
        assert got["iterations"] == want["iterations"]

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "scale", "--input", "/nonexistent.json")
        assert code == 2

    def test_non_convergence_exit_code(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        main(["gen", "kraus", "--rank", "3", "--eps", "0.2", "--seed", "4",
              "--output", str(path)])
        code, obj, _ = run_json(capsys, "scale", "--input", str(path),
                                "--max-iter", "1")
        assert code == 3
        assert obj["converged"] is False  # report still emitted
        assert obj["residual"] > 1e-10

    def test_report_deterministic_modulo_timestamp(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        main(["gen", "kraus", "--rank", "2", "--eps", "0.2", "--seed", "8",
              "--output", str(path)])
        _, obj1, _ = run_json(capsys, "scale", "--input", str(path))
        _, obj2, _ = run_json(capsys, "scale", "--input", str(path))
        obj1.pop("timestamp")
        obj2.pop("timestamp")
        assert obj1 == obj2

    def test_nan_entry_is_precondition_error(self, capsys, tmp_path):
        path = gen_with_nan(tmp_path, "kraus", "--rank", "2")
        assert_rejected_without_nan(*run(capsys, "scale", "--input", str(path)))

    def test_nan_tol_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        assert main(["gen", "kraus", "--rank", "2", "--output", str(path)]) == 0
        assert_rejected_without_nan(*run(capsys, "scale", "--input", str(path),
                                         "--tol", "nan"))

    def test_infinite_tol_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        assert main(["gen", "kraus", "--rank", "3", "--output", str(path)]) == 0
        code, out, err = run(capsys, "scale", "--input", str(path), "--tol", "inf")
        assert code == 2
        assert "tol" in err and not out

    def test_negative_max_iter_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        assert main(["gen", "kraus", "--rank", "2", "--output", str(path)]) == 0
        code, _, err = run(capsys, "scale", "--input", str(path), "--max-iter", "-1")
        assert code == 2
        assert "max_iter" in err


class TestPhi:
    def test_trace_map_all_methods(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        main(["gen", "trace", "--rank", "3", "--output", str(path)])
        code, obj, _ = run_json(capsys, "phi", "--input", str(path),
                                "--method", "all")
        assert code == 0
        assert {r["method"] for r in obj["reports"]} == {"direct", "dual",
                                                         "integral_r3"}
        for rep in obj["reports"]:
            assert abs(rep["value"] - 1.0) < 1e-12
        assert obj["max_spread"] < 1e-12

    def test_normalized_random_agreement(self, capsys, tmp_path):
        raw, scaled = tmp_path / "raw.json", tmp_path / "scaled.json"
        main(["gen", "kraus", "--rank", "3", "--eps", "0.2", "--seed", "5",
              "--output", str(raw)])
        main(["scale", "--input", str(raw), "--output", str(scaled)])
        report = json.loads(scaled.read_text())
        hpath = tmp_path / "normalized.json"
        hpath.write_text(json.dumps(report["scaled"]))
        code, obj, _ = run_json(capsys, "phi", "--input", str(hpath),
                                "--method", "all")
        assert code == 0
        assert obj["max_spread"] < 1e-9
        values = [r["value"] for r in obj["reports"]]
        assert min(values) > 0.0

    def test_unnormalized_integral_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        main(["gen", "kraus", "--rank", "3", "--eps", "0.2", "--seed", "6",
              "--output", str(path)])
        code, _, err = run(capsys, "phi", "--input", str(path),
                           "--method", "integral")
        assert code == 2
        assert "sinkhorn" in err or "stochastic" in err

    @pytest.mark.parametrize("entry", ["1.0", True, None, {"re": 1.0}])
    def test_non_number_entry_is_precondition_error(self, capsys, tmp_path, entry):
        path = gen_with_entry(tmp_path, entry, "kraus", "--rank", "2")
        code, out, err = run(capsys, "phi", "--input", str(path))
        assert (code, out) == (2, "")
        assert "JSON numbers" in err

    @pytest.mark.parametrize("method", ["direct", "all"])
    def test_nan_entry_is_precondition_error(self, capsys, tmp_path, method):
        path = gen_with_nan(tmp_path, "kraus", "--rank", "2")
        assert_rejected_without_nan(
            *run(capsys, "phi", "--input", str(path), "--method", method))


    def test_declared_rank_beyond_blocks_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        assert main(["gen", "kraus", "--rank", "2", "--output", str(path)]) == 0
        obj = json.loads(path.read_text())
        obj["r"] = 3
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "phi", "--input", str(path))
        assert code == 2
        assert "shape" in err

    @pytest.mark.parametrize("bad", [None, [2], 2.5, 0, True, "2"])
    def test_declared_rank_not_an_integer_is_precondition_error(self, capsys, tmp_path,
                                                                bad):
        path = tmp_path / "k.json"
        assert main(["gen", "kraus", "--rank", "2", "--output", str(path)]) == 0
        obj = json.loads(path.read_text())
        obj["r"] = bad
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "phi", "--input", str(path))
        assert code == 2
        assert "'r' must be an integer >= 1" in err

    def test_directory_input_is_precondition_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "phi", "--input", str(tmp_path))
        assert code == 2
        assert "precondition" in err

    def test_top_level_list_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "phi", "--input", str(path))
        assert code == 2
        assert "JSON object" in err


class TestSchur:
    def test_partition_210_matches_expansion(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--terms", "3",
              "--eps", "0.2", "--seed", "9", "--output", str(path)])
        code, obj, _ = run_json(capsys, "schur", "--input", str(path),
                                "--partition", "2,1,0", "--samples", "400")
        assert code == 0
        tensor = ser.curvature_from_json(json.loads(path.read_text()))
        cs = chern_forms(tensor)
        want = wedge(cs[1], cs[2]) - cs[3]
        got = ser.form_from_json(obj["schur_form"])
        assert max_coeff_diff(got, want) < 1e-12
        assert obj["weak_positivity"]["min_coeff"] > 0.0

    def test_partition_100_is_c1(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--terms", "2",
              "--eps", "0.3", "--seed", "10", "--output", str(path)])
        code, obj, _ = run_json(capsys, "schur", "--input", str(path),
                                "--partition", "1,0,0", "--samples", "400")
        assert code == 0
        tensor = ser.curvature_from_json(json.loads(path.read_text()))
        got = ser.form_from_json(obj["schur_form"])
        assert max_coeff_diff(got, chern_forms(tensor)[1]) < 1e-13
        assert obj["weak_positivity"]["min_coeff"] > 0.0

    def test_top_partition_positive(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--terms", "3",
              "--eps", "0.2", "--seed", "11", "--output", str(path)])
        code, obj, _ = run_json(capsys, "schur", "--input", str(path),
                                "--partition", "3,0,0", "--samples", "10")
        assert code == 0
        assert obj["weak_positivity"]["min_coeff"] > 0.0

    @pytest.mark.parametrize("dim,partition,exact", [(3, "2,1,0", True), (3, "2,0,0", True),
                                                     (4, "2,1,0", True), (4, "1,1,0", False)])
    def test_reports_whether_minimum_is_exact(self, capsys, tmp_path, dim, partition, exact):
        # q = dim - |partition|: exact for q <= 1 or q = dim - 1, sampled at (4, 2)
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", str(dim), "--terms", "3",
              "--eps", "0.2", "--seed", "13", "--output", str(path)])
        code, obj, _ = run_json(capsys, "schur", "--input", str(path),
                                "--partition", partition, "--samples", "300")
        assert code == 0
        assert obj["weak_positivity"]["exact"] is exact
        assert obj["weak_positivity"]["min_coeff"] > 0.0

    def test_invalid_partition(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--terms", "1",
              "--eps", "0.2", "--seed", "12", "--output", str(path)])
        code, _, err = run(capsys, "schur", "--input", str(path),
                           "--partition", "1,2,0")
        assert code == 2

    @pytest.mark.parametrize("entry", ["1.0", True, None, {"re": 1.0}])
    def test_non_number_entry_is_precondition_error(self, capsys, tmp_path, entry):
        path = gen_with_entry(tmp_path, entry, "curvature")
        code, out, err = run(capsys, "schur", "--input", str(path), "--partition", "1,0,0")
        assert (code, out) == (2, "")
        assert "JSON numbers" in err

    def test_nan_entry_is_precondition_error(self, capsys, tmp_path):
        path = gen_with_nan(tmp_path, "curvature")
        assert_rejected_without_nan(*run(
            capsys, "schur", "--input", str(path), "--partition", "1,0,0"))


    def test_short_curvature_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--output", str(path)])
        obj = json.loads(path.read_text())
        obj["R"] = obj["R"][:2]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "schur", "--input", str(path), "--partition", "1,0,0")
        assert code == 2
        assert "shape" in err


class TestVerify:
    def test_smoke_run(self, capsys):
        start = time.monotonic()
        code, obj, err = run_json(capsys, "verify", "--trials", "1")
        elapsed = time.monotonic() - start
        assert code == 0
        assert obj["all_passed"] is True
        assert len(obj["criteria"]) == 11
        assert elapsed < 10.0
        assert err.count("[PASS]") == 11

    def test_report_file_has_json_booleans(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", "--trials", "1", "--output", str(path))
        assert (code, out) == (0, "")
        obj = json.loads(path.read_text())
        assert obj["all_passed"] is True
        assert [c["passed"] for c in obj["criteria"]] == [True] * 11

    def test_weak_positivity_criterion_counts_exact_targets(self):
        # one tensor per (rank, dim): c3 at four shapes plus six Schur forms at
        # (3, 3), every one with q <= 1 or q = n - 1
        res = verify.criterion_9_weak_positivity(verify.DEFAULT_SEED, limit=1)
        assert res.passed
        assert (res.details["exact_targets"], res.details["sampled_targets"]) == (10, 0)
        assert "exact_targets=10, sampled_targets=0" in res.line()

    def test_negative_trials_is_precondition_error(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "-1")
        assert code == 2
        assert out == ""
        assert "--trials" in err

    def test_corrupted_fixture_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"r": 2, "w": 2, "blocks": "nonsense"}')
        code, _, err = run(capsys, "phi", "--input", str(path))
        assert code == 2
