"""Benchmark for the hybrid-query reproduction: three workloads, two clocks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload udf-s10 --seed 1 --seconds 20 --trace 0

Workloads (parameters in ``perfbench/workloads.json``):

- ``udf-s10``: ``run_udf`` over all 120 SWAN questions at scale 10;
- ``hqdl-s10``: ``run_hqdl`` over the same questions at scale 10;
- ``serve-4db``: one ``QueryServer.run`` over all four databases at a
  fixed offered rate.

With ``--trace 0`` the run measures end-to-end metrics with tracing off:
passes repeat until ``--seconds`` of passes have gone by, and the
virtual-clock metrics pool every pass.  ``throughput_qps`` is the median
over passes and ``setup_s`` the median over several fresh processes, each
timed from spawn until its inputs are ready.  The set-up probes run
between passes, so that they sample the host over the whole run; their
time is not counted in ``--seconds``.  Each pass and each probe is scaled
to a host of the reference speed with calibration bursts run right
before and after it, and for a pass also inside it (see
``hostspeed.py``); the raw figures and the median host factor are
printed as info lines.  With ``--trace 1`` the run traces the set-up and
pass 0 with per-layer wrappers (see ``layertrace.py``), prints the
per-layer metrics and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a correctness check fails (the result is still printed) and 2,
with no result, when the benchmark cannot run or measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from layertrace import KINDS, BenchmarkError, LayerTracer, attribute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not {src}")


def _setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its inputs are ready."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed),
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"set-up probe failed with exit code {code}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(passes, pass_factors: list[float],
                probes: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """Metric values and their sample counts, pooled over passes.

    Each pass and each set-up probe comes with the host factor measured
    around it; both wall-clock metrics are medians of samples scaled to
    the reference host speed.
    """
    from repro.obs.timeseries import percentile

    def total(attr):
        return sum(getattr(p, attr) for p in passes)

    ops = total("ops")
    base = total("per_q_base")
    latencies = sorted(x for p in passes for x in p.latencies)
    raw_qps = [p.ops / p.wall for p in passes]
    values = {
        "setup_s": (statistics.median(t / f for t, f in probes), "s"),
        "throughput_qps": (
            statistics.median(q * f for q, f in zip(raw_qps, pass_factors)), "ops/s",
        ),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "llm_tokens_per_q": (total("tokens") / base, "tokens"),
        "llm_calls_per_q": (total("calls") / base, "calls"),
        "ex": (total("correct") / total("graded"), "fraction"),
        "factuality_f1": (total("f1_sum") / total("f1_n"), "fraction"),
        "virtual_latency_mean": (statistics.mean(latencies), "virtual_s"),
        "virtual_latency_p99": (percentile(latencies, 0.99), "virtual_s"),
        "goodput_frac": (total("goodput") / ops, "fraction"),
        "success_frac": (total("full") / ops, "fraction"),
    }
    samples = {
        "setup_s": SETUP_PROBES,
        "throughput_qps": len(passes),
        "virtual_latency_mean": len(latencies),
        "virtual_latency_p99": len(latencies),
    }
    info = {
        "virtual_latency_p50": round(percentile(latencies, 0.50), 6),
        "host_factor_median": round(statistics.median(pass_factors + [f for _, f in probes]), 4),
        "raw_setup_s": round(statistics.median(t for t, _ in probes), 4),
        "raw_setup_probes_s": [round(t, 4) for t, _ in probes],
        "raw_throughput_qps": round(statistics.median(raw_qps), 3),
        "raw_throughput_per_pass": [round(q, 3) for q in raw_qps],
        "host_factor_per_pass": [round(f, 4) for f in pass_factors],
    }
    return values, samples, info


def _per_layer(tracer, attribution: dict, unattributed: float, wall: float,
               overhead: float, serve_layer: dict) -> dict:
    """The per-layer metrics of the traced window; ``*_ms`` are self times."""

    def ms(*kinds):
        return 1000.0 * sum(attribution.get(k, 0.0) for k in kinds)

    counters = tracer.counters
    generated = sum(len(t.rows) for g in tracer.generations for t in g.tables.values())
    malformed = sum(g.total_malformed() for g in tracer.generations)
    offered = serve_layer.get("offered", 0)
    values = {
        "sqlparser.parse_calls": (tracer.calls("sqlparser.parse"), "count"),
        "sqlparser.parse_distinct": (len(tracer.parse_texts), "count"),
        "sqlparser.parse_ms": (ms("sqlparser.parse"), "ms"),
        "sqlparser.render_calls": (tracer.calls("sqlparser.render"), "count"),
        "sqlparser.render_ms": (ms("sqlparser.render"), "ms"),
        "llm.tokenizer.calls": (tracer.calls("llm.tokenizer"), "count"),
        "llm.tokenizer.ms": (ms("llm.tokenizer"), "ms"),
        "llm.model.prompts": (int(counters["model_prompts"]), "count"),
        "llm.model.ms": (ms("llm.model"), "ms"),
        "llm.cache.lookups": (int(counters["cache_lookups"]), "count"),
        "llm.cache.hit_rate": (tracer.cache_hit_rate(), "fraction"),
        "llm.cache.ms": (ms("llm.cache"), "ms"),
        "llm.dispatch.calls": (tracer.calls("llm.dispatch"), "count"),
        "llm.dispatch.pool_submits": (int(counters["pool_submits"]), "count"),
        "llm.dispatch.ms": (ms("llm.dispatch"), "ms"),
        "sqlengine.statements": (tracer.calls("sqlengine"), "count"),
        "sqlengine.rows_read": (int(counters["rows_read"]), "rows"),
        "sqlengine.rows_written": (int(counters["rows_written"]), "rows"),
        "sqlengine.ms": (ms("sqlengine"), "ms"),
        "swan.load_ms": (ms("swan.load"), "ms"),
        "swan.scale_ms": (ms("swan.scale"), "ms"),
        "swan.db_builds": (tracer.calls("swan.build"), "count"),
        "swan.build_ms": (ms("swan.build"), "ms"),
        "udf.self_ms": (ms("udf.execute", "udf.plan"), "ms"),
        "udf.keys_generated": (int(counters["keys_generated"]), "count"),
        "udf.keys_per_result_row": (
            counters["keys_generated"] / counters["result_rows"]
            if counters["result_rows"] else 0.0, "ratio",
        ),
        "core.generate_ms": (ms("core.generate"), "ms"),
        "core.materialize_ms": (ms("core.materialize"), "ms"),
        "core.answer_ms": (ms("core.answer"), "ms"),
        "core.malformed_frac": (malformed / generated if generated else 0.0, "fraction"),
        "eval.ms": (ms("eval"), "ms"),
        "harness.self_ms": (ms("harness"), "ms"),
        "serve.self_ms": (ms("serve.run"), "ms"),
        "serve.self_ms_per_req": (ms("serve.run") / offered if offered else 0.0, "ms"),
        "serve.traffic_ms": (ms("serve.traffic"), "ms"),
        "serve.queue_wait_p99_s": (serve_layer.get("queue_wait_p99_s", 0.0), "virtual_s"),
        "serve.service_p50_s": (serve_layer.get("service_p50_s", 0.0), "virtual_s"),
        "serve.service_p99_s": (serve_layer.get("service_p99_s", 0.0), "virtual_s"),
        "serve.max_queue_depth": (serve_layer.get("max_queue_depth", 0), "count"),
        "serve.batch_occupancy": (serve_layer.get("batch_occupancy", 0.0), "fraction"),
        "serve.coalesced_calls": (serve_layer.get("coalesced_calls", 0), "count"),
        "obs.calls": (tracer.calls("obs"), "count"),
        "obs.ms": (ms("obs"), "ms"),
        "bench.trace_overhead_frac": (overhead, "fraction"),
        "bench.traced_wall_ms": (1000.0 * wall, "ms"),
        "bench.unattributed_ms": (1000.0 * unattributed, "ms"),
    }
    tiled = sum(attribution.get(k, 0.0) for k in KINDS) + unattributed
    if abs(tiled - wall) > 1e-6 * max(wall, 1.0) or set(attribution) - set(KINDS):
        raise BenchmarkError(f"self times tile {tiled:.6f} s of a {wall:.6f} s traced wall")
    return values


def _write_spans(path: Path, windows: list[tuple[str, float, list]]) -> None:
    with path.open("w") as handle:
        for label, origin, spans in windows:
            for sid, parent, kind, trace, thread, start, end in spans:
                handle.write(json.dumps({
                    "window": label, "id": sid, "parent": parent, "kind": kind,
                    "trace": trace, "thread": thread,
                    "start_ms": round(1000.0 * (start - origin), 6),
                    "end_ms": round(1000.0 * (end - origin), 6),
                }) + "\n")


def _run_untraced(workload, args) -> tuple[list, dict, dict, dict]:
    state = workload.setup(args.seed)
    host = HostSpeed()
    passes: list = []
    pass_factors: list[float] = []
    probes: list[tuple[float, float]] = []
    started = time.perf_counter()
    probing = 0.0
    while True:
        before = host.calibrate()
        raw = workload.execute(state, len(passes), host)
        after = host.calibrate()
        pass_factors.append(host.factor(before, raw.calibration.bursts, after))
        elapsed = time.perf_counter() - started - probing
        if len(probes) < SETUP_PROBES:
            mark = time.perf_counter()
            probe = _setup_probe(args.workload, args.seed)
            probes.append((probe, host.factor(after, host.calibrate())))
            probing += time.perf_counter() - mark
        passes.append(workload.evaluate(state, raw))
        # start another pass only if it is expected to end in the budget
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while len(probes) < SETUP_PROBES:
        before = host.calibrate()
        probe = _setup_probe(args.workload, args.seed)
        probes.append((probe, host.factor(before, host.calibrate())))
    values, samples, info = _end_to_end(passes, pass_factors, probes)
    info["calibration_bursts"] = len(host.bursts)
    return passes, values, samples, info


def _run_traced(workload, args) -> tuple[list, dict, dict, dict]:
    tracer = LayerTracer()
    tracer.install()
    setup_start = time.perf_counter()
    state = workload.setup(args.seed)
    setup_end = time.perf_counter()
    tracer.uninstall()
    setup_spans, tracer.spans = tracer.spans, []
    tracer.sql_to_qid = state.sql_to_qid

    budget_start = time.perf_counter()
    untraced = workload.execute(state, 0)
    tracer.trace = "pass-0"
    tracer.install()
    try:
        traced = workload.execute(state, 0)
    finally:
        tracer.uninstall()
    passes = [workload.evaluate(state, untraced), workload.evaluate(state, traced)]
    overheads = [(traced.end - traced.start) / (untraced.end - untraced.start) - 1.0]
    pair_seconds = time.perf_counter() - budget_start
    index = 1
    while time.perf_counter() - budget_start + pair_seconds <= args.seconds:
        plain = workload.execute(state, index)
        extra = LayerTracer(state.sql_to_qid)
        extra.install()
        try:
            timed = workload.execute(state, index)
        finally:
            extra.uninstall()
        overheads.append((timed.end - timed.start) / (plain.end - plain.start) - 1.0)
        index += 1

    pass_spans = [s for s in tracer.spans if traced.start <= s[5] and s[6] <= traced.end]
    windows = [
        ("setup", setup_start, setup_end, setup_spans),
        ("pass-0", traced.start, traced.end, pass_spans),
    ]
    attribution: dict[str, float] = {}
    unattributed = wall = 0.0
    for _, start, end, spans in windows:
        self_time, rest = attribute(spans, start, end)
        for kind, seconds in self_time.items():
            attribution[kind] = attribution.get(kind, 0.0) + seconds
        unattributed += rest
        wall += end - start
    values = _per_layer(
        tracer, attribution, unattributed, wall, statistics.median(overheads),
        passes[1].layer,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    _write_spans(OUT / f"{stem}.spans.jsonl", [(w[0], w[1], w[3]) for w in windows])
    info = {
        "self_ms_by_kind": {k: round(1000.0 * v, 3) for k, v in sorted(attribution.items())},
        "overhead_per_pair": [round(x, 4) for x in overheads],
        "spans": f"{len(setup_spans) + len(pass_spans)} in {OUT.name}/{stem}.spans.jsonl",
    }
    return passes, values, {}, info


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((HERE / "workloads.json").read_text())
    try:
        workload = workloads.make(args.workload, spec)
        if args.setup_probe:
            workload.setup(args.seed)
            print("ready", flush=True)
            return 0
        runner = _run_traced if args.trace else _run_untraced
        passes, values, samples, info = runner(workload, args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = [problem for p in passes for problem in p.problems]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {_environment()}")
    for name, (value, unit) in values.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:28s} {value:>16.6f} {unit}{suffix}")
    for name, value in info.items():
        print(f"# {name}: {value}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
