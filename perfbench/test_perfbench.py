"""Work-counter gate for the benchmark's traced run.

Two traced runs of one seed must report the same deterministic work
counters, every layer a workload exercises must see calls (zero calls
means a wrapper missed an import-site binding), a bypass workload must
leave the layers it skips idle, and the layer self times plus the
unattributed remainder must add up to the traced wall time.  Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py

Each traced run executes the workload's set-up and one pass, so the
module takes a minute or two.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from layertrace import attribute  # noqa: E402

#: counted (never timed) work, which must repeat exactly for one seed
WORK_COUNTERS = (
    "sqlparser.parse_calls",
    "swan.db_builds",
    "sqlengine.statements",
    "llm.model.prompts",
    "llm.dispatch.pool_submits",
    "llm.cache.lookups",
)

#: per-layer metrics that must be non-zero where the layer does work
ACTIVE = {
    "udf-s10": (
        "sqlparser.parse_calls", "sqlparser.render_calls", "llm.tokenizer.calls",
        "llm.model.prompts", "llm.cache.lookups", "llm.dispatch.calls",
        "sqlengine.statements", "sqlengine.rows_read", "swan.db_builds",
        "swan.scale_ms", "udf.self_ms", "udf.keys_generated", "eval.ms",
        "harness.self_ms",
    ),
    "hqdl-s10": (
        "llm.tokenizer.calls", "llm.model.prompts", "llm.dispatch.calls",
        "sqlengine.statements", "sqlengine.rows_written", "swan.db_builds",
        "swan.scale_ms", "core.generate_ms", "core.materialize_ms",
        "core.answer_ms", "eval.ms", "harness.self_ms",
    ),
    "serve-4db": (
        "sqlparser.parse_calls", "sqlparser.render_calls", "llm.tokenizer.calls",
        "llm.model.prompts", "llm.cache.lookups", "llm.dispatch.calls",
        "llm.dispatch.pool_submits", "sqlengine.statements", "swan.db_builds",
        "udf.self_ms", "udf.keys_generated", "core.generate_ms",
        "serve.self_ms", "serve.traffic_ms", "obs.calls", "obs.ms",
    ),
}

#: per-layer metrics that must stay zero on a workload that bypasses them
BYPASSED = {
    "udf-s10": ("core.generate_ms", "serve.self_ms", "obs.calls"),
    "hqdl-s10": ("sqlparser.parse_calls", "llm.cache.lookups", "udf.self_ms", "obs.calls"),
    "serve-4db": ("eval.ms",),
}


def _run(workload: str, seed: int, trace: int) -> dict[str, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result["metrics"]


def _values(metrics: dict[str, dict]) -> dict[str, float]:
    return {name: metric["value"] for name, metric in metrics.items()}


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.fixture(scope="module", params=sorted(ACTIVE))
def traced_pair(request):
    return request.param, _run(request.param, 7, 1), _run(request.param, 7, 1)


def test_traced_run_reports_the_declared_per_layer_metrics(traced_pair):
    _, first, _ = traced_pair
    assert {name: m["unit"] for name, m in first.items()} == _declared("per_layer")


def test_layer_self_times_sum_to_the_traced_wall(traced_pair):
    _, first, _ = traced_pair
    parts = sum(
        m["value"] for name, m in first.items()
        if m["unit"] == "ms"
        and name not in ("bench.traced_wall_ms", "serve.self_ms_per_req")
    )
    assert parts == pytest.approx(first["bench.traced_wall_ms"]["value"], rel=1e-6)


def test_untraced_run_reports_the_declared_end_to_end_metrics():
    metrics = _run("hqdl-s10", 7, 0)
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_work_counters_repeat_exactly(traced_pair):
    workload, first, second = traced_pair
    first, second = _values(first), _values(second)
    differ = {
        name: (first[name], second[name])
        for name in WORK_COUNTERS if first[name] != second[name]
    }
    assert not differ, f"{workload}: counters changed between runs: {differ}"


def test_every_working_layer_sees_calls(traced_pair):
    workload, first, _ = traced_pair
    first = _values(first)
    missed = [name for name in ACTIVE[workload] if first[name] <= 0]
    assert not missed, f"{workload}: wrappers saw no work for {missed}"


def test_bypassed_layers_stay_idle(traced_pair):
    workload, first, _ = traced_pair
    first = _values(first)
    touched = [name for name in BYPASSED[workload] if first[name] != 0]
    assert not touched, f"{workload}: bypassed layers did work: {touched}"


def test_self_times_tile_the_window():
    # main thread: a(0-10) > b(2-8); worker thread under b: c(3-7)
    # alongside b's own d(4-6): c and d share 4-6 half each
    spans = [
        (1, 0, "a", "t", 1, 0.0, 10.0),
        (2, 1, "b", "t", 1, 2.0, 8.0),
        (3, 2, "c", "t", 2, 3.0, 7.0),
        (4, 2, "d", "t", 1, 4.0, 6.0),
    ]
    self_time, rest = attribute(spans, -1.0, 11.0)
    assert self_time == pytest.approx({"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0})
    assert rest == pytest.approx(2.0)
    assert sum(self_time.values()) + rest == pytest.approx(12.0)
