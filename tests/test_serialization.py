"""JSON round-trips and load-time validation."""

import numpy as np
import pytest

from schurpos import serialization as ser
from schurpos.forms import chern_forms, random_griffiths_curvature
from schurpos.phi import PhiReport
from schurpos.posmap import random_kraus_map


def test_complex_convention():
    assert ser.complex_to_json(1.5 - 2.0j) == [1.5, -2.0]
    assert ser.complex_from_json([1.5, -2.0]) == 1.5 - 2.0j
    with pytest.raises(ValueError):
        ser.complex_from_json([1.0])


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(ser.matrix_from_json(ser.matrix_to_json(m)), m)


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
    assert obj["p"] == 1
    assert all(min(e["I"]) >= 1 for e in obj["entries"])
    back = ser.form_from_json(obj)
    keys = set(back.coeffs) | set(c1.coeffs)
    assert all(abs(back.coeffs.get(k, 0j) - c1.coeffs.get(k, 0j)) == 0.0
               for k in keys)


@pytest.mark.parametrize("bad", [None, [3], 3.0, 0, -1, False])
def test_loaders_require_integer_sizes(bad):
    bm = ser.block_map_to_json(random_kraus_map(2, 2, 0.1, seed=6))
    curv = ser.curvature_to_json(random_griffiths_curvature(2, 2, 1, 0.1, seed=6))
    form = {"n": 2, "p": 1, "entries": [{"I": [1], "J": [1], "val": [1.0, 0.0]}]}
    for load, obj, key in ((ser.block_map_from_json, bm, "w"),
                           (ser.curvature_from_json, curv, "dim"),
                           (ser.form_from_json, form, "n")):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            load({**obj, key: bad})


def test_form_load_rejects_out_of_range():
    with pytest.raises(ValueError):
        ser.form_from_json({"n": 2, "p": 1,
                            "entries": [{"I": [3], "J": [1], "val": [1.0, 0.0]}]})


def test_form_load_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ser.form_from_json({"n": 2, "p": 1,
                            "entries": [{"I": [1], "J": [1], "val": [float("nan"), 0.0]}]})


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
