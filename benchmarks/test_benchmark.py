"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from bench_trace import self_times  # noqa: E402
from bench_workloads import WORKLOADS, Item  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    lines, final = run.run(workload, seed=3, seconds=0.0, trace=bool(trace), size="tiny")
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    text = "\n".join(lines)
    for name in final["metrics"]:
        assert name in text
    if trace:
        assert list(tmp_path.glob("trace_*.json"))
    json.dumps(final, allow_nan=False)


def test_failing_item_is_counted_not_fatal():
    wl = WORKLOADS["certify_r23"]
    lib, items, _ = run.setup(wl, seed=3, size="tiny")
    bad = Item("r3", lib.posmap.identity_map(3), 1)
    result = run.measure(wl, lib, [bad] + items, seconds=0.0)
    assert result["attempted"] == len(items) + 1
    assert result["failed"] == 1
    # the good items after the failing one still ran their checks
    assert "check.max_pointwise_gap" in result["checks"]


def test_same_seed_same_extremes():
    wl = WORKLOADS["forms_positivity"]
    first = run.measure(wl, *run.setup(wl, 5, "tiny")[:2], seconds=0.0)["checks"]
    again = run.measure(wl, *run.setup(wl, 5, "tiny")[:2], seconds=0.0)["checks"]
    assert first == again


def test_self_time_subtracts_children():
    spans = [
        {"name": "bench.item", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "phi.phi_direct", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "hermitian.det", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    assert self_times(spans) == [6.0, 3.0, 1.0]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run(SPEC["command"] + ["--workload", "certify_r23", "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
