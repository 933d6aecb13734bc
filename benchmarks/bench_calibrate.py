"""Reference kernels that read how fast the machine runs.

On the small shared machine the benchmark was built on, other tenants slow
every call by up to ~1.7x, for spells from under a second to a whole run.
So the benchmark times a fixed reference kernel every REF_INTERVAL_S while
it measures, and scales all its times by ``nominal / mean reference time``.
Items run back to back and the kernel runs at a fixed interval, so both
sample the run's slow and fast spells in the same proportion, and the
ratio of their means cancels the mix.  A kernel and the code it calibrates
slow down together only when they spend their time the same way, so there
are two: ``interp`` for code whose time goes to the interpreter and small
numpy calls, and ``array`` for code whose time goes to numpy on large
arrays.

The kernels are frozen: they import nothing from schurpos, so a change to
the library never moves them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_INTERVAL_S = 0.2

#: About each kernel's fastest time on the 2-core build machine; the scale
#: factor is 1 when the machine runs that fast.
NOMINAL_S = {"interp": 7.0e-3, "array": 17.5e-3}


def _interp_kernel(m: np.ndarray) -> complex:
    total = 0.0j
    for _ in range(200):
        a = m.copy()
        sign = 1.0
        for k in range(4):
            piv = k + int(np.argmax(np.abs(a[k:, k])))
            if piv != k:
                a[[k, piv]] = a[[piv, k]]
                sign = -sign
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
        total += sign * np.prod(np.diagonal(a))
    return total


def _array_kernel(u: np.ndarray) -> float:
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1 << 16, 3)) + 1j * rng.standard_normal((1 << 16, 3))
    xi = z / np.linalg.norm(z, axis=1)[:, None]
    w = np.einsum("si,ij,sj->s", xi.conj(), u, xi)
    return float(np.sum(np.abs(w) ** 2))


class Calibrator:
    """Times one reference kernel at most every REF_INTERVAL_S."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        arg = a if kind == "interp" else a[:3, :3] + a[:3, :3].conj().T
        kernel = _interp_kernel if kind == "interp" else _array_kernel
        self._run = lambda: kernel(arg)
        self.kind = kind
        self.times: list[float] = []
        self._last = -np.inf

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last < REF_INTERVAL_S:
            return
        self._run()
        self._last = time.perf_counter()
        self.times.append(self._last - now)

    def factor(self) -> float:
        """nominal / mean reference time: below 1 when the machine ran slow."""
        return NOMINAL_S[self.kind] / statistics.fmean(self.times)
