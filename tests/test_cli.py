"""Driver behavior: JSON I/O, exit codes, determinism."""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import written_coeffs

from schurpos import phi, serialization as ser, verify
from schurpos.cli import EXIT_VERIFY_FAILED, main
from schurpos.forms import chern_forms, random_griffiths_curvature, wedge
from schurpos.posmap import ScalingResult, trace_map


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


def gen_scaled(tmp_path, factor, *gen_args):
    """Generate a fixture file, then multiply every number in its entries by ``factor``."""
    path = tmp_path / "scaled.json"
    assert main(["gen", *gen_args, "--output", str(path)]) == 0
    obj = json.loads(path.read_text())
    key = "blocks" if "blocks" in obj else "R"
    obj[key] = (factor * np.array(obj[key])).tolist()
    path.write_text(json.dumps(obj))
    return path


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
        assert np.array_equal(h.blocks[0, 0], np.eye(3))
        assert np.max(np.abs(h.blocks[0, 1])) == 0.0

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
        assert np.array_equal(sum(h.blocks[i, i] for i in range(3)),
                              2.0 * np.eye(3))

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert main(["gen", "kraus", "--rank", "3", "--seed", "11",
                         "--output", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_eps_is_precondition_error(self, capsys):
        assert_rejected_without_nan(*run(capsys, "gen", "kraus", "--eps", "nan"))

    @pytest.mark.parametrize("eps", ["-5", "inf"])
    def test_negative_eps_is_precondition_error(self, capsys, tmp_path, eps):
        # inf would reach inf * 0 off the diagonal of the trace map, and the
        # float-range error that follows does not name eps
        path = tmp_path / "k.json"
        code, _, err = run(capsys, "gen", "kraus", "--eps", eps,
                           "--output", str(path))
        assert code == 2
        assert "eps" in err
        assert not path.exists()

    def test_negative_rank_names_r(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, out, err = run(capsys, "gen", "trace", "--rank", "-1", "--output", str(path))
        assert (code, out) == (2, "")
        assert "r must be an integer >= 1, got -1" in err
        assert not path.exists()

    @pytest.mark.parametrize("rank", ["2", "4"])
    def test_choi_rejects_another_rank(self, capsys, tmp_path, rank):
        path = tmp_path / "choi.json"
        code, out, err = run(capsys, "gen", "choi", "--rank", rank, "--output", str(path))
        assert (code, out) == (2, "")
        assert "--rank" in err and "rank 3" in err
        assert not path.exists()

    @pytest.mark.parametrize("args, foreign", [
        (["trace", "--rank", "2", "--dim", "5", "--eps", "7"], ["--dim", "--eps"]),
        (["kraus", "--dim", "5"], ["--dim"]),
        (["choi", "--seed", "1"], ["--seed"]),
    ], ids=["trace", "kraus", "choi"])
    def test_option_the_kind_does_not_read_is_precondition_error(self, capsys, tmp_path,
                                                                 args, foreign):
        path = tmp_path / "h.json"
        code, out, err = run(capsys, "gen", *args, "--output", str(path))
        assert (code, out) == (2, "")
        assert f"gen {args[0]}" in err and all(name in err for name in foreign)
        assert not path.exists()

    @pytest.mark.parametrize("kind, defaults", [
        ("kraus", ["--rank", "3", "--terms", "3", "--eps", "0.1", "--seed", "0"]),
        ("trace", ["--rank", "3"]),
        ("curvature", ["--rank", "3", "--dim", "3", "--terms", "3", "--eps", "0.1",
                       "--seed", "0"]),
    ])
    def test_defaults_per_kind(self, capsys, kind, defaults):
        assert run(capsys, "gen", kind) == run(capsys, "gen", kind, *defaults)

    @pytest.mark.parametrize("kind", ["kraus", "curvature"])
    def test_negative_seed_is_precondition_error(self, capsys, tmp_path, kind):
        path = tmp_path / "h.json"
        code, _, err = run(capsys, "gen", kind, "--seed", "-1", "--output", str(path))
        assert code == 2
        assert "seed must be an integer >= 0" in err
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

    def test_choi_map_refused_by_the_certificate(self, capsys, tmp_path):
        # the Choi map lies on the boundary of the positive cone: the grid
        # and the seesaw refine its certificate to zero within roundoff
        path = tmp_path / "choi.json"
        assert main(["gen", "choi", "--output", str(path)]) == 0
        code, out, err = run(capsys, "scale", "--input", str(path))
        assert code == 2
        assert not out
        assert "positivity precondition failed: certificate min_eig" in err

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

    def test_report_byte_identical_across_reruns(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        main(["gen", "kraus", "--rank", "2", "--eps", "0.2", "--seed", "8",
              "--output", str(path)])
        code1, out1, _ = run(capsys, "scale", "--input", str(path))
        code2, out2, _ = run(capsys, "scale", "--input", str(path))
        assert code1 == code2 == 0
        assert out1 and out1 == out2

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

    ROUTES_AT_RANK = {1: ["direct", "dual"],
                      2: ["direct", "dual", "integral_r2"],
                      3: ["direct", "dual", "integral_r3"],
                      4: ["direct", "dual", "r4_decomposition"],
                      5: ["direct"]}

    @pytest.mark.parametrize("rank", sorted(ROUTES_AT_RANK))
    def test_all_runs_the_routes_of_its_rank(self, capsys, tmp_path, rank):
        path = tmp_path / "trace.json"
        assert main(["gen", "trace", "--rank", str(rank), "--output", str(path)]) == 0
        code, obj, _ = run_json(capsys, "phi", "--input", str(path), "--method", "all")
        assert code == 0
        assert [r["method"] for r in obj["reports"]] == self.ROUTES_AT_RANK[rank]

    def test_all_fails_on_a_spread_beyond_the_rank_tolerance(self, capsys, tmp_path,
                                                             monkeypatch):
        # 5e-9 is within rank 4's 1e-8 but not within rank 3's 1e-9
        report, ranks = phi.ROUTES["dual"]
        monkeypatch.setitem(phi.ROUTES, "dual", (
            lambda h: replace(report(h), value=report(h).value + 5e-9), ranks))
        path = tmp_path / "trace.json"
        assert main(["gen", "trace", "--rank", "3", "--output", str(path)]) == 0
        code, obj, err = run_json(capsys, "phi", "--input", str(path), "--method", "all")
        assert code == EXIT_VERIFY_FAILED
        assert abs(obj["max_spread"] - 5e-9) < 1e-12
        assert "method disagreement" in err

    def test_all_beyond_direct_cap_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["gen", "trace", "--rank", "6", "--output", str(path)]) == 0
        code, out, err = run(capsys, "phi", "--input", str(path), "--method", "all")
        assert (code, out) == (2, "")
        assert "phi_direct supports rank <= 5" in err

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

    def test_overflow_is_precondition_error(self, capsys, tmp_path):
        # Phi of the rank-3 trace map times 1e150 is 1e450, beyond the float range
        path = gen_scaled(tmp_path, 1e150, "trace", "--rank", "3")
        code, out, err = run(capsys, "phi", "--input", str(path), "--method", "direct")
        assert (code, out) == (2, "")
        assert "float range" in err

    @pytest.mark.parametrize("method", ["direct", "all"])
    def test_underflow_is_precondition_error(self, capsys, tmp_path, method):
        # Phi of the rank-3 trace map times 1e-150 is 1e-450: it would print 0.0,
        # the boundary of the cone
        path = gen_scaled(tmp_path, 1e-150, "trace", "--rank", "3")
        code, out, err = run(capsys, "phi", "--input", str(path), "--method", method)
        assert (code, out) == (2, "")
        assert "float range" in err


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

    def test_missing_key_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"w": 2, "blocks": []}))
        code, out, err = run(capsys, "phi", "--input", str(path))
        assert (code, out) == (2, "")
        assert "input JSON has no key 'r'" in err


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
        assert abs(written_coeffs(obj["schur_form"]) - want.coeffs).max() < 1e-12
        assert obj["weak_positivity"]["min_coeff"] > 0.0

    def test_partition_100_is_c1(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--terms", "2",
              "--eps", "0.3", "--seed", "10", "--output", str(path)])
        code, obj, _ = run_json(capsys, "schur", "--input", str(path),
                                "--partition", "1,0,0", "--samples", "400")
        assert code == 0
        tensor = ser.curvature_from_json(json.loads(path.read_text()))
        assert abs(written_coeffs(obj["schur_form"]) - chern_forms(tensor)[1].coeffs).max() < 1e-13
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

    @pytest.mark.parametrize("dim,partition,samples", [(3, "2,1,0", 0), (4, "1,1,0", 300)])
    def test_reports_samples_drawn(self, capsys, tmp_path, dim, partition, samples):
        # the exact path draws no sample; the sampled path draws --samples
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", str(dim), "--terms", "3",
              "--eps", "0.2", "--seed", "13", "--output", str(path)])
        code, obj, _ = run_json(capsys, "schur", "--input", str(path),
                                "--partition", partition, "--samples", "300")
        assert code == 0
        assert obj["weak_positivity"]["samples"] == samples

    @pytest.mark.parametrize("dim,partition,code", [(3, "2,1,0", 0), (4, "1,1,0", 2)])
    def test_zero_samples_only_on_the_exact_path(self, capsys, tmp_path, dim, partition,
                                                 code):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", str(dim), "--terms", "3",
              "--eps", "0.2", "--seed", "13", "--output", str(path)])
        got, obj, err = run_json(capsys, "schur", "--input", str(path),
                                 "--partition", partition, "--samples", "0")
        assert got == code
        if code == 0:
            assert obj["weak_positivity"]["samples"] == 0
            assert obj["weak_positivity"]["exact"] is True
        else:
            assert obj is None and "samples must be an integer >= 1" in err

    def test_invalid_partition(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--terms", "1",
              "--eps", "0.2", "--seed", "12", "--output", str(path)])
        code, _, err = run(capsys, "schur", "--input", str(path),
                           "--partition", "1,2,0")
        assert code == 2
        # parts that are not integers: the error names the option, not int()
        for partition in ("1.5,0,0", "a,b", ""):
            code, out, err = run(capsys, "schur", "--input", str(path),
                                 "--partition", partition)
            assert (code, out) == (2, ""), partition
            assert "--partition" in err, err

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

    def test_overflow_is_precondition_error(self, capsys, tmp_path):
        # c_3 is cubic in R: R times 1e120 puts it near 1e360
        path = gen_scaled(tmp_path, 1e120, "curvature")
        code, out, err = run(capsys, "schur", "--input", str(path), "--partition", "2,1,0")
        assert (code, out) == (2, "")
        assert "float range" in err


    def test_short_curvature_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        main(["gen", "curvature", "--rank", "3", "--dim", "3", "--output", str(path)])
        obj = json.loads(path.read_text())
        obj["R"] = obj["R"][:2]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "schur", "--input", str(path), "--partition", "1,0,0")
        assert code == 2
        assert "shape" in err

    def test_missing_key_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "curv.json"
        path.write_text(json.dumps({"rank": 3, "dim": 3}))
        code, out, err = run(capsys, "schur", "--input", str(path), "--partition", "1,0,0")
        assert (code, out) == (2, "")
        assert "input JSON has no key 'R'" in err


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

    def test_method_agreement_holds_the_route_spread_to_the_tolerance(self, monkeypatch):
        # routes 6e-10 above and below the direct sum: each is within 1e-9 of
        # it, but their spread of 1.2e-9 is beyond rank 2 and 3's 1e-9
        for name, shift in (("dual", 6e-10), ("integral", -6e-10)):
            report, ranks = phi.ROUTES[name]
            monkeypatch.setitem(phi.ROUTES, name, (
                lambda h, report=report, shift=shift:
                replace(report(h), value=report(h).value + shift), ranks))
        res = verify.criterion_2_method_agreement(verify.DEFAULT_SEED, limit=1)
        assert not res.passed
        assert float(res.details["max_diff_r23"]) == pytest.approx(1.2e-9, rel=1e-3)

    @pytest.mark.parametrize("limit, want", [(None, 1_000_000), (2_000_000, 1_000_000),
                                             (50_000, 50_000), (1, 10_000)])
    def test_moment_criterion_samples_stay_within_the_full_count(self, monkeypatch,
                                                                 limit, want):
        counts = set()

        def record(mats, samples, seed):
            counts.add(samples)
            words = np.shape(mats)[:-3]
            return np.zeros(words, dtype=complex), np.zeros(words)

        monkeypatch.setattr(verify, "moment_mc", record)
        verify.criterion_6_moment_identities(verify.DEFAULT_SEED, limit=limit)
        assert counts == {want}

    def test_unconverged_scaling_is_an_error(self, monkeypatch):
        def unconverged(h, **kwargs):
            return ScalingResult(h, np.eye(h.r), np.eye(h.w), 1000, 0.5, False)

        monkeypatch.setattr(verify, "sinkhorn_normalize", unconverged)
        with pytest.raises(RuntimeError, match=r"scaling failed to converge \(residual 5\.000e-01\)"):
            verify._normalized(trace_map(3))

    def test_explicit_schur_expansion_names_a_missing_partition(self):
        cs = chern_forms(random_griffiths_curvature(3, 3, 3, 0.2, 0))
        with pytest.raises(ValueError, match=r"no explicit expansion for \(2, 0, 0\)"):
            verify._explicit_weight3_schur(cs, (2, 0, 0))

    def test_negative_seed_is_precondition_error(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-5")
        assert (code, out) == (2, "")
        assert "seed must be an integer >= 0" in err
        assert "[PASS]" not in err

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
