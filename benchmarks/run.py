"""schurpos benchmark: one client, closed loop, one instance after another.

Run from the repository root:

    python3 benchmarks/run.py --workload certify_r23 --seed 1 --seconds 25 --trace 0

Set-up (library import from ``src/``, instance generation, pre-normalization)
repeats and reports the median.  Then full passes over the
batch repeat until the next pass would end after ``--seconds``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate, spans go
to ``benchmarks/results/`` and the JSON carries the per-layer metrics.
Lines before it print every metric by name with its unit, the machine, and
the extreme of every checked output against its tolerance.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from bench_trace import NullTracer, Tracer, layer_metrics

# Modules that import numpy (bench_calibrate, bench_workloads) are imported
# inside functions, after main() has capped the BLAS thread pools.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: Default seed, and the held-out seed that is reported but never used for tuning.
DEFAULT_SEED = 20240808
HELDOUT_SEED = 917_351

#: Set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S has passed.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
LAYERS = ("hermitian", "discriminants", "posmap", "phi", "forms", "serialization")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_P90_ITEMS = 100


def cap_blas_threads(nproc: int) -> None:
    """Cap BLAS thread pools at nproc; must run before numpy is imported."""
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def import_library() -> SimpleNamespace:
    """Import schurpos afresh from ``src/`` of this checkout, never from elsewhere."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "schurpos" or m.startswith("schurpos.")]:
        del sys.modules[name]
    pkg = importlib.import_module("schurpos")
    if Path(pkg.__file__).resolve().parent != (SRC / "schurpos").resolve():
        raise ImportError(f"schurpos resolved to {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"schurpos.{m}") for m in LAYERS})


def setup(wl, seed: int, size: str, tracer=None):
    """Import and generate repeatedly; trace the first repetition if asked."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        tr = tracer if tracer is not None and not times else NullTracer()
        t0 = time.perf_counter()
        tr.begin("bench.setup", item="setup")
        lib = import_library()
        items = wl.generate(lib, seed, size, tr)
        tr.end()
        times.append(time.perf_counter() - t0)
    return lib, items, times


def measure(wl, lib, items, seconds: float, tracer=None) -> dict:
    """Repeat full passes over ``items`` while the next pass fits in ``seconds``.

    With a tracer, untraced and traced passes alternate (at least one of
    each); end-to-end figures come from the untraced passes only.  A failed
    check or an exception fails its item and the run goes on.  The
    workload's reference kernel runs between items (see bench_calibrate).

    Returns per-item latencies: ``item_s[traced][i]`` lists item i's time in
    every pass of that kind.
    """
    from bench_calibrate import Calibrator
    from bench_workloads import Checks
    null = NullTracer()
    checks = Checks()
    calibrator = Calibrator(wl.reference)
    item_s = {False: [[] for _ in items], True: [[] for _ in items]}
    passes = {False: 0, True: 0}
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        tr = tracer if traced else null
        t_pass = time.perf_counter()
        tr.begin("bench.pass", tag="traced", item=f"pass{k}")
        for idx, item in enumerate(items):
            t_item = time.perf_counter()
            tr.begin("bench.item", tag=item.kind, item=f"{k}.{idx}")
            try:
                wl.run_item(lib, item, tr, checks)
            except Exception:  # a failing item is counted, never fatal
                failed += 1
                if failed <= 3:
                    print(f"item {idx} ({item.kind}) failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            finally:
                tr.end()
            attempted += 1
            item_s[traced][idx].append(time.perf_counter() - t_item)
            calibrator.tick()
        tr.end()
        now = time.perf_counter()
        passes[traced] += 1
        k += 1
        if tracer is not None and not passes[True]:
            continue
        if now - start + (now - t_pass) > seconds:
            break
    return {"item_s": item_s, "passes": passes, "attempted": attempted,
            "failed": failed, "checks": checks.extremes, "calibrator": calibrator}


def mean_times(per_item: list[list[float]]) -> list[float]:
    """Each item's mean time over the passes of one kind."""
    return [statistics.fmean(times) for times in per_item]


def end_to_end(setup_s: list[float], result: dict) -> dict[str, tuple[float, str]]:
    """End-to-end metrics as measured, before scaling by machine speed."""
    per_item = mean_times(result["item_s"][False])
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(per_item), "s"),
        "item_p50_ms": (1e3 * statistics.median(per_item), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


TIME_UNITS = {"s", "ms", "us"}


def scaled(metrics: dict[str, tuple[float, str]], factor: float) -> dict:
    return {name: (value * factor if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in metrics.items()}


def machine_line(nproc: int) -> str:
    import numpy as np
    blas = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_VARS)
    return (f"machine nproc={nproc} python={platform.python_version()} "
            f"numpy={np.__version__} {blas}")


def report_lines(metrics: dict[str, tuple[float, str]]) -> list[str]:
    return [f"{name:<48} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]


def check_lines(extremes: dict[str, float]) -> list[str]:
    from bench_workloads import LIMITS
    lines = []
    for name, value in extremes.items():
        op, limit = LIMITS[name]
        lines.append(f"{name:<48} {value:.6e}   (tolerance {op} {limit:g})")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[list[str], dict]:
    """One benchmark run: human-readable lines and the final JSON object."""
    from bench_calibrate import NOMINAL_S
    from bench_workloads import WORKLOADS
    wl = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    lib, items, setup_s = setup(wl, seed, size, tracer)
    result = measure(wl, lib, items, seconds, tracer)

    role = {DEFAULT_SEED: "default", HELDOUT_SEED: "held-out"}.get(seed, "other")
    nproc = len(os.sched_getaffinity(0))
    passes = result["passes"]
    lines = [
        machine_line(nproc),
        f"workload {workload} seed {seed} ({role}) size {size}: {wl.describe(size)}",
        f"closed loop, 1 client; {len(items)} items per pass, "
        f"{passes[False]} untraced + {passes[True]} traced passes, "
        f"{result['attempted']} items attempted",
    ]
    cal = result["calibrator"]
    factor = cal.factor()
    lines.append(f"machine speed: {cal.kind} reference kernel mean "
                 f"{1e3 * statistics.fmean(cal.times):.3f} ms, fastest "
                 f"{1e3 * min(cal.times):.3f} ms over {len(cal.times)} runs; "
                 f"times below are scaled by {factor:.4f} to its nominal "
                 f"{1e3 * NOMINAL_S[cal.kind]:.1f} ms")
    if trace:
        metrics = scaled(layer_metrics(tracer.spans), factor)
        metrics["trace.overhead_ratio"] = (
            sum(mean_times(result["item_s"][True])) / sum(mean_times(result["item_s"][False])),
            "ratio")
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace_{workload}_{seed}.json"
        tracer.write(path)
        lines.append(f"{len(tracer.spans)} spans written to {path}")
    else:
        raw = end_to_end(setup_s, result)
        lines += [f"{'raw.' + name:<48} {value:.6g} {unit}"
                  for name, (value, unit) in raw.items() if unit in TIME_UNITS]
        metrics = scaled(raw, factor)
    lines += report_lines(metrics)
    if len(items) >= MIN_P90_ITEMS:
        p90 = 1e3 * factor * statistics.quantiles(mean_times(result["item_s"][False]), n=10)[-1]
        lines.append(f"{'item_p90_ms':<48} {p90:.6g} ms (n={len(items)} items)")
    else:
        lines.append(f"{'item_p90_ms':<48} not reported: {len(items)} < "
                     f"{MIN_P90_ITEMS} items per pass")
    lines.append(f"{'failed_ratio':<48} {result['failed'] / result['attempted']:.6g} "
                 f"ratio ({result['failed']}/{result['attempted']})")
    lines += check_lines(result["checks"])
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return lines, final


def main(argv=None) -> int:
    cap_blas_threads(len(os.sched_getaffinity(0)))
    from bench_workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schurpos" / "__init__.py").is_file():
        print(f"error: schurpos sources not found under {SRC}", file=sys.stderr)
        return 2
    lines, final = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
