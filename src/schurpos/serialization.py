"""JSON encoding shared by every module and the CLI.

One convention everywhere: a complex scalar is a two-element array
[re, im]; matrices are row-major nested arrays of those.  Multi-indices in
form files are 1-based (the library uses 0-based tuples internally).
"""

from __future__ import annotations

import json

import numpy as np

from .forms import CurvatureTensor, Form
from .phi import PhiReport
from .posmap import BlockMap


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"expected [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def matrix_to_json(m) -> list:
    """A complex array of any shape as nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _from_pairs(v, shape: tuple) -> np.ndarray:
    """Nested [re, im] pairs as one complex array, which must have ``shape``."""
    a = np.ascontiguousarray(v, dtype=float)
    if a.shape != (*shape, 2):
        raise ValueError(f"expected [re, im] pairs of shape {tuple(shape)}, "
                         f"got an array of shape {a.shape}")
    return a.view(complex)[..., 0]


def _declared_size(obj: dict, key: str) -> int:
    """A declared array size, which must be a JSON integer >= 1."""
    v = obj[key]
    if type(v) is not int or v < 1:
        raise ValueError(f"{key!r} must be an integer >= 1, got {v!r}")
    return v


def matrix_from_json(rows) -> np.ndarray:
    return _from_pairs(rows, np.shape(rows)[:2])


def block_map_to_json(h: BlockMap) -> dict:
    return {"r": h.r, "w": h.w, "blocks": matrix_to_json(h.blocks)}


def block_map_from_json(obj: dict) -> BlockMap:
    r, w = _declared_size(obj, "r"), _declared_size(obj, "w")
    return BlockMap(_from_pairs(obj["blocks"], (r, r, w, w))).require_symmetry()


def curvature_to_json(t: CurvatureTensor) -> dict:
    return {"rank": t.rank, "dim": t.dim, "R": matrix_to_json(t.entries)}


def curvature_from_json(obj: dict) -> CurvatureTensor:
    r, n = _declared_size(obj, "rank"), _declared_size(obj, "dim")
    return CurvatureTensor(rank=r, dim=n, entries=_from_pairs(obj["R"], (r, r, n, n)))


def form_to_json(u: Form) -> dict:
    degs = u.bidegrees()
    if len(degs) > 1:
        raise ValueError(f"only homogeneous forms serialize; got degrees {sorted(degs)}")
    p = next(iter(degs))[0] if degs else 0
    entries = []
    for (i, j) in sorted(u.coeffs):
        entries.append({
            "I": [x + 1 for x in i],
            "J": [x + 1 for x in j],
            "val": complex_to_json(u.coeffs[(i, j)]),
        })
    return {"n": u.n, "p": p, "entries": entries}


def form_from_json(obj: dict) -> Form:
    n = _declared_size(obj, "n")
    coeffs = {}
    for e in obj["entries"]:
        i = tuple(int(x) - 1 for x in e["I"])
        j = tuple(int(x) - 1 for x in e["J"])
        if any(x < 0 or x >= n for x in i + j):
            raise ValueError(f"multi-index out of range in {e!r}")
        coeffs[(i, j)] = coeffs.get((i, j), 0.0j) + complex_from_json(e["val"])
    return Form(n, coeffs)


def phi_report_to_json(rep: PhiReport) -> dict:
    return {
        "value": rep.value,
        "imag_residue": rep.imaginary_residue,
        "method": rep.method,
        "lower_bound": rep.lower_bound,
    }


def dump(obj: dict, path: str | None) -> str:
    """Serialize deterministically as strict JSON (non-finite floats raise
    ValueError); write to path when given, else return text."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def load(path: str) -> dict:
    """Read a JSON file whose top level must be an object."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object at the top level, got {type(obj).__name__}")
    return obj
