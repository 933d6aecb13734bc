"""JSON encoding shared by every module and the CLI.

One convention everywhere: a complex scalar is a two-element array
[re, im]; matrices are row-major nested arrays of those.  Multi-indices in
form files are 1-based (the library uses 0-based tuples internally).  The
loaders read the command inputs, block maps and curvature tensors; they take
sizes only as integers >= 1, checked by ``require_int``, and values only as
JSON numbers: never a bool or a string.
"""

from __future__ import annotations

import json
from itertools import combinations, product

import numpy as np

from .discriminants import require_int
from .forms import CurvatureTensor, Form
from .phi import PhiReport
from .posmap import BlockMap


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> list:
    """A complex array of any shape as nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _from_pairs(v, shape: tuple) -> np.ndarray:
    """Nested [re, im] pairs as one complex array, which must have ``shape``."""
    a = np.array(v, dtype=object)
    if a.shape != (*shape, 2):
        raise ValueError(f"expected [re, im] pairs of shape {tuple(shape)}, "
                         f"got an array of shape {a.shape}")
    if not set(map(type, a.flat)) <= {int, float}:  # JSON numbers, not bool or str
        raise ValueError("array entries must be JSON numbers")
    return a.astype(float).view(complex)[..., 0]


def block_map_to_json(h: BlockMap) -> dict:
    return {"r": h.r, "w": h.w, "blocks": matrix_to_json(h.blocks)}


def block_map_from_json(obj: dict) -> BlockMap:
    r, w = obj["r"], obj["w"]
    require_int(r, "'r'", 1)
    require_int(w, "'w'", 1)
    return BlockMap(_from_pairs(obj["blocks"], (r, r, w, w))).require_symmetry()


def curvature_to_json(t: CurvatureTensor) -> dict:
    return {"rank": t.rank, "dim": t.dim, "R": matrix_to_json(t.entries)}


def curvature_from_json(obj: dict) -> CurvatureTensor:
    r, n = obj["rank"], obj["dim"]
    require_int(r, "'rank'", 1)
    require_int(n, "'dim'", 1)
    return CurvatureTensor(rank=r, dim=n, entries=_from_pairs(obj["R"], (r, r, n, n)))


def form_to_json(u: Form) -> dict:
    u.require_single()
    if u.p != u.q:
        raise ValueError(f"only (p, p) forms serialize; got bidegree ({u.p},{u.q})")
    ks = list(combinations(range(u.n), u.p))
    entries = [{"I": [x + 1 for x in i], "J": [x + 1 for x in j], "val": complex_to_json(v)}
               for (i, j), v in zip(product(ks, ks), u.coeffs.ravel())]
    return {"n": u.n, "p": u.p, "entries": entries}


def phi_report_to_json(rep: PhiReport) -> dict:
    return {"value": rep.value, "imag_residue": rep.imaginary_residue,
            "method": rep.method, "lower_bound": rep.lower_bound}


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
