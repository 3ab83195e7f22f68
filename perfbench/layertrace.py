"""Outside-in per-layer tracing for the benchmark.

The tracer installs wrappers around each layer's public functions at the
names where callers bind them: a module-level function is replaced in
every loaded ``repro`` module whose global refers to it (so
``repro.udf.executor.parse`` is wrapped as well as
``repro.sqlparser.parser.parse``), and a method is replaced on its class.
Nothing under ``src/`` changes; :meth:`LayerTracer.uninstall` restores
every original.

Each wrapped call records one span ``(id, parent, kind, trace, thread,
start, end)`` in memory.  A call that re-enters the same kind on the same
thread (``Database.query_scalar`` calling ``Database.query``) is folded
into the outer span, so span counts are outermost-call counts.  Work
submitted to a ``ThreadPoolExecutor`` is parented to the submitting span,
so a dispatcher waiting on its workers is not charged for their time.

:func:`attribute` turns spans into self times that tile the traced wall
time exactly: every instant is split equally among the spans that are
active and have no active child, and instants with no active span are
the unattributed remainder.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional

#: module-level functions: (module, name, kind)
FUNCTIONS = (
    ("repro.sqlparser.parser", "parse", "sqlparser.parse"),
    ("repro.sqlparser.render", "render", "sqlparser.render"),
    ("repro.llm.tokenizer", "count_tokens", "llm.tokenizer"),
    ("repro.llm.tokenizer", "count_tokens_fast", "llm.tokenizer"),
    ("repro.swan.benchmark", "load_benchmark", "swan.load"),
    ("repro.swan.scale", "scale_world", "swan.scale"),
    ("repro.swan.build", "build_curated_database", "swan.build"),
    ("repro.swan.build", "build_original_database", "swan.build"),
    ("repro.eval.execution", "evaluate_question", "eval"),
    ("repro.eval.factuality", "database_factuality", "eval"),
    ("repro.harness.runner", "run_udf", "harness"),
    ("repro.harness.runner", "run_hqdl", "harness"),
    ("repro.serve.traffic", "generate_traffic", "serve.traffic"),
)

#: methods: (module, class, name, kind)
METHODS = (
    ("repro.harness.runner", "GoldResults", "__init__", "harness"),
    ("repro.llm.chat", "MockChatModel", "complete", "llm.model"),
    ("repro.llm.chat", "MockChatModel", "complete_many", "llm.model"),
    ("repro.llm.cache", "CachingClient", "complete", "llm.cache"),
    ("repro.llm.cache", "CachingClient", "complete_many", "llm.cache"),
    ("repro.llm.parallel", "ParallelDispatcher", "dispatch", "llm.dispatch"),
    ("repro.sqlengine.database", "Database", "execute", "sqlengine"),
    ("repro.sqlengine.database", "Database", "executescript", "sqlengine"),
    ("repro.sqlengine.database", "Database", "query", "sqlengine"),
    ("repro.sqlengine.database", "Database", "query_rows", "sqlengine"),
    ("repro.sqlengine.database", "Database", "query_column", "sqlengine"),
    ("repro.sqlengine.database", "Database", "query_scalar", "sqlengine"),
    ("repro.sqlengine.database", "Database", "insert_rows", "sqlengine"),
    ("repro.sqlengine.database", "Database", "create_temp_table", "sqlengine"),
    ("repro.udf.executor", "HybridQueryExecutor", "execute_with_report", "udf.execute"),
    ("repro.udf.executor", "HybridQueryExecutor", "plan_key_requests", "udf.plan"),
    ("repro.core.hqdl", "HQDL", "generate_all", "core.generate"),
    ("repro.core.hqdl", "HQDL", "build_expanded_database", "core.materialize"),
    ("repro.core.hqdl", "HQDL", "answer", "core.answer"),
    ("repro.serve.server", "QueryServer", "run", "serve.run"),
    ("repro.obs.slo", "SLOTracker", "record", "obs"),
    ("repro.obs.timeseries", "WindowedAggregator", "record", "obs"),
    ("repro.obs.timeseries", "WindowedAggregator", "observe", "obs"),
    ("repro.obs.flightrec", "FlightRecorder", "record", "obs"),
    ("repro.serve.trace", "ServeTraceLog", "add", "obs"),
    ("repro.serve.trace", "ServeTraceLog", "add_wave", "obs"),
)

#: every kind a span can have, in report order
KINDS = tuple(dict.fromkeys(k for *_, k in FUNCTIONS + METHODS))


class BenchmarkError(RuntimeError):
    """The benchmark itself could not measure (not a program defect)."""


class _CountingRows:
    """An iterable that counts the rows a bulk insert consumes."""

    def __init__(self, rows: Iterable, sink: Callable[[int], None]) -> None:
        self._rows = rows
        self._sink = sink

    def __iter__(self):
        count = 0
        try:
            for row in self._rows:
                count += 1
                yield row
        finally:
            self._sink(count)


class LayerTracer:
    """Wraps the layer boundaries and records spans and work counters."""

    def __init__(self, sql_to_qid: Optional[dict[str, str]] = None) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.parse_texts: set[str] = set()
        self.caches: dict[int, object] = {}
        self.generations: list = []
        self.trace = "setup"
        self.sql_to_qid = sql_to_qid or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._server_runs = itertools.count()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _wrap(self, kind: str, fn: Callable, before=None, after=None, trace_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == kind:
                return fn(*args, **kwargs)
            if stack:
                parent, trace = stack[-1][0], stack[-1][2]
            else:
                parent, trace = 0, tracer.trace
            if trace_of is not None:
                trace = trace_of(args) or trace
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = next(tracer._ids)
            stack.append((sid, kind, trace))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, kind, trace, threading.get_ident(), start, end)
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _submit(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            base = (stack[-1][0], None, stack[-1][2]) if stack else (0, None, tracer.trace)
            tracer.count("pool_submits")

            def task(*task_args, **task_kwargs):
                saved = getattr(tracer._local, "stack", None)
                tracer._local.stack = [base]
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    tracer._local.stack = saved

            return original(pool, task, *args, **kwargs)

        return submit

    # -- per-boundary hooks ----------------------------------------------------

    def _hooks(self, module: str, owner: str, name: str) -> dict:
        """Counters a boundary feeds, beyond its span count."""
        count = self.count
        if name == "parse":
            def before(args, kwargs):
                with self._lock:
                    self.parse_texts.add(args[0])
                return args, kwargs
            return {"before": before}
        if owner == "MockChatModel":
            many = name == "complete_many"
            return {"after": lambda a, r: count("model_prompts", len(a[1]) if many else 1)}
        if owner == "CachingClient":
            many = name == "complete_many"

            def after(args, result):
                count("cache_lookups", len(args[1]) if many else 1)
                with self._lock:
                    self.caches[id(args[0].cache)] = args[0].cache
            return {"after": after}
        if owner == "Database":
            if name.startswith("query"):
                def after(args, result):
                    if name != "query_scalar":
                        count("rows_read", len(result))
                return {"after": after}
            if name == "insert_rows":
                return {"after": lambda a, r: count("rows_written", r)}
            if name == "create_temp_table":
                def before(args, kwargs):
                    sink = functools.partial(count, "rows_written")
                    if len(args) > 3:
                        args = args[:3] + (_CountingRows(args[3], sink),) + args[4:]
                    elif "rows" in kwargs:
                        kwargs = dict(kwargs, rows=_CountingRows(kwargs["rows"], sink))
                    return args, kwargs
                return {"before": before}
        if name == "execute_with_report":
            def after(args, result):
                _, report = result
                count("keys_generated", report.keys_generated)
                count("result_rows", len(result[0].rows))
            return {
                "after": after,
                "trace_of": lambda a: self.sql_to_qid.get(a[1]),
            }
        if name == "generate_all":
            def after(args, result):
                with self._lock:
                    self.generations.append(result)
            return {"after": after}
        if owner == "HQDL" and name == "answer":
            return {"trace_of": lambda a: a[2].qid}
        if owner == "QueryServer":
            return {"trace_of": lambda a: f"serve-run-{next(self._server_runs)}"}
        return {}

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` must run before the next call."""
        if self._restore:
            raise BenchmarkError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for module_name, name, kind in FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(kind, original, **self._hooks(module_name, "", name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for module_name, owner, name, kind in METHODS:
            cls = getattr(sys.modules[module_name], owner)
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(
                cls, name,
                self._wrap(kind, original, **self._hooks(module_name, owner, name)),
            )
        original_submit = ThreadPoolExecutor.__dict__["submit"]
        self._restore.append((ThreadPoolExecutor, "submit", original_submit))
        ThreadPoolExecutor.submit = self._submit(original_submit)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    # -- derived numbers -----------------------------------------------------------

    def calls(self, *kinds: str) -> int:
        return sum(1 for span in self.spans if span[2] in kinds)

    def cache_hit_rate(self) -> float:
        hits = sum(cache.hits for cache in self.caches.values())
        misses = sum(cache.misses for cache in self.caches.values())
        return hits / (hits + misses) if hits + misses else 0.0


def attribute(spans: list[tuple], start: float, end: float) -> tuple[dict[str, float], float]:
    """Self seconds per kind over ``[start, end]`` plus the unattributed rest.

    The returned values sum to ``end - start``: each elementary interval
    between span boundaries is split equally among the active spans
    that have no active child span (on any thread).
    """
    parent_of = {span[0]: span[1] for span in spans}
    kind_of = {span[0]: span[2] for span in spans}
    events = []
    for span in spans:
        events.append((max(span[5], start), 1, span[0]))
        events.append((min(span[6], end), 0, span[0]))
    events.sort()
    self_time: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    active_children: dict[int, int] = {}
    leaves: set[int] = set()
    previous = start
    for when, is_start, sid in events:
        gap = when - previous
        if gap > 0:
            if leaves:
                share = gap / len(leaves)
                for leaf in leaves:
                    self_time[kind_of[leaf]] += share
            else:
                unattributed += gap
            previous = when
        parent = parent_of[sid]
        if is_start:
            active_children[sid] = 0
            leaves.add(sid)
            if parent in active_children:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            del active_children[sid]
            leaves.discard(sid)
            if parent in active_children:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    unattributed += max(0.0, end - previous)
    return dict(self_time), unattributed
