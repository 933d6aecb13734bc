"""JSON round-trips, what the writers emit and load-time validation."""

import numpy as np
import pytest
from oracles import written_coeffs

from schurpos import serialization as ser
from schurpos.forms import Form, chern_forms, random_griffiths_curvature
from schurpos.phi import PhiReport
from schurpos.posmap import random_kraus_map


def test_complex_convention():
    assert ser.complex_to_json(1.5 - 2.0j) == [1.5, -2.0]
    assert ser.complex_to_json(3) == [3.0, 0.0]


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(ser._from_pairs(ser.matrix_to_json(m), m.shape), m)


def test_block_map_roundtrip():
    h = random_kraus_map(3, 2, 0.1, seed=1)
    obj = ser.block_map_to_json(h)
    assert obj["r"] == 3 and obj["w"] == 3
    back = ser.block_map_from_json(obj)
    assert np.array_equal(back.blocks, h.blocks)


def test_block_map_load_validates_symmetry():
    h = random_kraus_map(2, 2, 0.1, seed=2)
    obj = ser.block_map_to_json(h)
    obj["blocks"][0][1][0][0] = [99.0, 0.0]  # break B_01 = B_10*
    with pytest.raises(ValueError):
        ser.block_map_from_json(obj)


def test_curvature_roundtrip():
    t = random_griffiths_curvature(3, 2, 2, 0.1, seed=3)
    back = ser.curvature_from_json(ser.curvature_to_json(t))
    assert np.array_equal(back.entries, t.entries)
    assert back.rank == 3 and back.dim == 2


def test_form_roundtrip_uses_one_based_indices():
    t = random_griffiths_curvature(2, 2, 1, 0.1, seed=4)
    c1 = chern_forms(t)[1]
    obj = ser.form_to_json(c1)
    assert (obj["n"], obj["p"]) == (2, 1)
    assert [e["I"] for e in obj["entries"]] == [[1], [1], [2], [2]]
    assert np.array_equal(written_coeffs(obj), c1.coeffs)


@pytest.mark.parametrize("bad", [None, [3], 3.0, 0, -1, False])
def test_loaders_require_integer_sizes(bad):
    bm = ser.block_map_to_json(random_kraus_map(2, 2, 0.1, seed=6))
    curv = ser.curvature_to_json(random_griffiths_curvature(2, 2, 1, 0.1, seed=6))
    for load, obj, key in ((ser.block_map_from_json, bm, "w"),
                           (ser.curvature_from_json, curv, "dim")):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            load({**obj, key: bad})


@pytest.mark.parametrize("degs", [(1, 0), (0, 2), (2, 1)])
def test_form_save_refuses_non_pure_bidegree(degs):
    with pytest.raises(ValueError, match=r"only \(p, p\) forms"):
        ser.form_to_json(Form.zero(2, *degs))


def test_form_save_refuses_a_stack():
    with pytest.raises(ValueError, match=r"coefficients of shape \(2, 3, 3\)"):
        ser.form_to_json(Form(3, 2, 2, np.ones((2, 3, 3))))


def test_form_roundtrip_every_degree():
    t = random_griffiths_curvature(3, 3, 2, 0.1, seed=5)
    for c in [*chern_forms(t), Form.zero(3, 2, 2)]:
        obj = ser.form_to_json(c)
        assert (obj["n"], obj["p"]) == (3, c.p)
        assert np.array_equal(written_coeffs(obj), c.coeffs)


def test_phi_report_schema():
    rep = PhiReport(value=1.0, imaginary_residue=0.0, method="direct")
    obj = ser.phi_report_to_json(rep)
    assert obj == {"value": 1.0, "imag_residue": 0.0, "method": "direct",
                   "lower_bound": None}


def test_dump_is_deterministic(tmp_path):
    h = random_kraus_map(2, 2, 0.1, seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ser.dump(ser.block_map_to_json(h), str(p1))
    ser.dump(ser.block_map_to_json(h), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("val", [["1", "2"], [True, 0.0], [1.0, None], [[1.0], 0.0]])
def test_loaders_require_number_values(val):
    # a whole [re, im] pair replaced; test_array_loaders_require_numbers replaces one part
    bm = ser.block_map_to_json(random_kraus_map(2, 2, 0.1, seed=6))
    curv = ser.curvature_to_json(random_griffiths_curvature(2, 2, 1, 0.1, seed=6))
    for load, obj, key in ((ser.block_map_from_json, bm, "blocks"),
                           (ser.curvature_from_json, curv, "R")):
        obj[key][1][0][1][0] = val
        with pytest.raises(ValueError, match="JSON numbers"):
            load(obj)


@pytest.mark.parametrize("bad", ["1.0", True, None, {"re": 1.0}])
def test_array_loaders_require_numbers(bad):
    bm = ser.block_map_to_json(random_kraus_map(2, 2, 0.1, seed=6))
    curv = ser.curvature_to_json(random_griffiths_curvature(2, 2, 1, 0.1, seed=6))
    for load, obj, key in ((ser.block_map_from_json, bm, "blocks"),
                           (ser.curvature_from_json, curv, "R")):
        obj[key][1][0][1][0][1] = bad
        with pytest.raises(ValueError, match="JSON numbers"):
            load(obj)
