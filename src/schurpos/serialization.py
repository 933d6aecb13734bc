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
    arr = np.asarray(m, dtype=complex)
    return [[complex_to_json(arr[i, j]) for j in range(arr.shape[1])]
            for i in range(arr.shape[0])]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(v) for v in row] for row in rows],
                    dtype=complex)


def block_map_to_json(h: BlockMap) -> dict:
    return {
        "r": h.r,
        "w": h.w,
        "blocks": [[matrix_to_json(h.block(i, j)) for j in range(h.r)]
                   for i in range(h.r)],
    }


def block_map_from_json(obj: dict) -> BlockMap:
    r, w = int(obj["r"]), int(obj["w"])
    blocks = np.zeros((r, r, w, w), dtype=complex)
    for i in range(r):
        for j in range(r):
            blocks[i, j] = matrix_from_json(obj["blocks"][i][j])
    return BlockMap(blocks).require_symmetry()


def curvature_to_json(t: CurvatureTensor) -> dict:
    r, n = t.rank, t.dim
    return {
        "rank": r,
        "dim": n,
        "R": [[[[complex_to_json(t.entries[i, j, a, b]) for b in range(n)]
                for a in range(n)] for j in range(r)] for i in range(r)],
    }


def curvature_from_json(obj: dict) -> CurvatureTensor:
    r, n = int(obj["rank"]), int(obj["dim"])
    entries = np.zeros((r, r, n, n), dtype=complex)
    for i in range(r):
        for j in range(r):
            for a in range(n):
                for b in range(n):
                    entries[i, j, a, b] = complex_from_json(obj["R"][i][j][a][b])
    return CurvatureTensor(rank=r, dim=n, entries=entries)


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
    n = int(obj["n"])
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
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
