"""The benchmark's workloads: generated inputs, one timed pass, checks.

Each workload has three steps.  :meth:`setup` loads the benchmark, the
gold results and, for serving, the traffic trace (what ``setup_s`` times).
:meth:`execute` runs one pass and times only the call into the program.
:meth:`evaluate` turns the pass's raw output into a :class:`PassResult`
and runs the correctness checks; it runs after the timer stopped.

The program receives only generated inputs: a :class:`Swan` whose
question order is shuffled per pass, or a fixed list of ``QueryRequest``
handed over in a shuffled order.
Light capture hooks record what a pass returns at public boundaries
(per-question call sizes, served results) so that end-to-end metrics can
be computed; they add a few hundred Python calls per pass.  Given a
:class:`~hostspeed.HostSpeed`, some of the same hooks also run host-speed
calibration bursts inside the pass (:class:`~hostspeed.InPass`), whose
time is left out of the pass's wall time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import accumulate

import repro.harness.runner as runner
import repro.serve.traffic as traffic
import repro.swan.benchmark as benchmark
from repro.core.hqdl import HQDL
from repro.eval.factuality import cell_f1, database_factuality
from repro.harness.benchserve import build_observability
from repro.llm.batching import parallel_makespan
from repro.llm.cache import CachingClient
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.serve.batcher import BatchingConfig
from repro.obs.timeseries import percentile
from repro.serve.request import SERVED
from repro.serve.server import QueryServer, ServerConfig, _SizeRecorder
from repro.serve.trace import ServeTraceLog
from repro.sqlengine.results import results_match
from repro.swan.benchmark import Swan
from repro.udf.executor import HybridQueryExecutor

from hostspeed import InPass
from layertrace import BenchmarkError

#: the label the executor gives its LLMQA calls
QA_LABEL = "udf:qa"


@dataclass
class PassResult:
    """One pass, reduced to the counts the end-to-end metrics pool."""

    ops: int
    wall: float
    #: questions (batch) or answered requests (serve): the per-q base
    per_q_base: int = 0
    #: batch: questions without a typed error; serve: served in full
    full: int = 0
    goodput: int = 0
    failed: int = 0
    correct: int = 0
    graded: int = 0
    f1_sum: float = 0.0
    f1_n: int = 0
    tokens: int = 0
    calls: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: serve-only virtual numbers for the per-layer table
    layer: dict = field(default_factory=dict)


@dataclass
class _Raw:
    """What :meth:`execute` hands to :meth:`evaluate`."""

    start: float
    end: float
    data: dict
    calibration: InPass

    @property
    def wall(self) -> float:
        """Seconds the program ran: the pass less its calibration bursts."""
        return self.end - self.start - self.calibration.paused


class _Patch:
    """Replace class attributes for the length of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def set(self, owner: type, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "_Patch":
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)


# -- batch workloads ------------------------------------------------------------


class _BatchState:
    def __init__(self, swan: Swan, gold, seed: int) -> None:
        self.swan = swan
        self.gold = gold
        self.seed = seed
        self.sql_to_qid = {q.blend_sql: q.qid for q in swan.questions}
        self.oracles: dict[str, KnowledgeOracle] = {}
        self.key_index: dict[tuple[str, str], dict[tuple, tuple]] = {}

    def permuted(self, index: int) -> Swan:
        """The benchmark with each database's questions shuffled for pass ``index``."""
        rng = random.Random(f"{self.seed}/{index}")
        questions = []
        for name in self.swan.database_names():
            group = self.swan.questions_for(name)
            rng.shuffle(group)
            questions.extend(group)
        return Swan(worlds=self.swan.worlds, questions=questions)


class BatchWorkload:
    """A closed loop with one caller over all 120 SWAN questions."""

    def __init__(self, name: str, spec: dict) -> None:
        self.name = name
        self.params = spec["generator"]

    def setup(self, seed: int) -> _BatchState:
        swan = benchmark.load_benchmark(self.params["scale"])
        return _BatchState(swan, runner.GoldResults(swan), seed)

    def _common_checks(self, state: _BatchState, swan: Swan, run, result: PassResult) -> None:
        expected = sorted(q.qid for q in swan.questions)
        got = sorted(o.qid for o in run.outcomes)
        if got != expected:
            result.problems.append(
                f"{self.name}: {len(got)} outcomes for {len(expected)} questions"
            )

    def _check_usage(self, usage, sizes: list, result: PassResult, parts: str) -> None:
        """The run's Usage must be the sum of the paid calls it is made of."""
        total = (len(sizes), sum(s[0] for s in sizes), sum(s[1] for s in sizes))
        if total != (usage.calls, usage.input_tokens, usage.output_tokens):
            result.problems.append(
                f"{self.name}: Usage {usage} is not the sum of its {len(sizes)} "
                f"paid calls ({parts})"
            )

    def _fill(self, run, result: PassResult) -> None:
        result.ops = len(run.outcomes)
        result.per_q_base = result.ops
        result.failed = sum(1 for o in run.outcomes if o.error)
        result.full = result.ops - result.failed
        result.goodput = result.full
        result.correct = sum(1 for o in run.outcomes if o.correct)
        result.graded = result.ops
        result.tokens = run.usage.input_tokens + run.usage.output_tokens
        result.calls = run.usage.calls


class UdfWorkload(BatchWorkload):
    """``run_udf`` over the whole benchmark (the paper's Table 3 setting)."""

    #: questions between in-pass calibration bursts
    CALIBRATE_EVERY = 8

    def execute(self, state: _BatchState, index: int, host=None) -> _Raw:
        params = self.params
        calibration = InPass(host, self.CALIBRATE_EVERY)
        swan = state.permuted(index)
        workers = params["workers"]
        makespans: list[float] = []
        mappings: list[tuple] = []
        qa_sizes: list[tuple[int, int]] = []
        execute_original = HybridQueryExecutor.__dict__["execute_with_report"]
        mapping_original = HybridQueryExecutor.__dict__["_generate_mapping"]
        complete_original = CachingClient.__dict__["complete"]

        def execute_with_report(executor, *args, **kwargs):
            mark = len(qa_sizes)
            result = execute_original(executor, *args, **kwargs)
            sizes = result[1].call_sizes + qa_sizes[mark:]
            makespans.append(parallel_makespan(sizes, workers))
            calibration.tick()
            return result

        def generate_mapping(executor, call, *args, **kwargs):
            mapping = mapping_original(executor, call, *args, **kwargs)
            mappings.append((executor.world, call, mapping))
            return mapping

        def complete(client, prompt, *args, **kwargs):
            # LLMQA calls are paid but absent from the executor's call_sizes
            response = complete_original(client, prompt, *args, **kwargs)
            if kwargs.get("label") == QA_LABEL and response.usage.calls:
                usage = response.usage
                qa_sizes.append((usage.input_tokens, usage.output_tokens))
            return response

        with _Patch() as patch:
            patch.set(HybridQueryExecutor, "execute_with_report", execute_with_report)
            patch.set(HybridQueryExecutor, "_generate_mapping", generate_mapping)
            patch.set(CachingClient, "complete", complete)
            start = time.perf_counter()
            run = runner.run_udf(
                swan, params["model"], params["shots"],
                batch_size=params["batch_size"], pushdown=params["pushdown"],
                workers=workers, gold=state.gold,
            )
            end = time.perf_counter()
        return _Raw(start, end, {
            "swan": swan, "run": run, "makespans": makespans, "mappings": mappings,
            "qa_sizes": qa_sizes,
        }, calibration)

    def _cell_scores(self, state: _BatchState, mappings: list[tuple]) -> dict:
        """Cell F1 of every distinct LLMMap cell the executor generated."""
        cells: dict[tuple, float] = {}
        for world, call, mapping in mappings:
            if call.kind != "LLMMap":
                continue
            oracle = state.oracles.setdefault(world.name, KnowledgeOracle(world))
            expansion, column = oracle.resolve_attribute(call.question)
            index_key = (world.name, expansion.name)
            if index_key not in state.key_index:
                state.key_index[index_key] = {
                    tuple(str(v) for v in key): key
                    for key in world.keys_for(expansion.name)
                }
            index = state.key_index[index_key]
            for key, value in mapping.items():
                truth_key = index.get(key)
                if truth_key is None:
                    raise BenchmarkError(
                        f"generated key {key} has no ground truth in {expansion.name}"
                    )
                truth = world.truth_value(expansion.name, truth_key, column.name)
                cells[(world.name, expansion.name, column.name, truth_key)] = (
                    cell_f1(value, truth, column)
                )
        return cells

    def evaluate(self, state: _BatchState, raw: _Raw) -> PassResult:
        run = raw.data["run"]
        result = PassResult(ops=0, wall=raw.wall)
        self._fill(run, result)
        self._common_checks(state, raw.data["swan"], run, result)
        makespans = raw.data["makespans"]
        if len(makespans) != result.full:
            result.problems.append(
                f"{self.name}: {len(makespans)} executions for {result.full} answered questions"
            )
        # all questions are submitted at t=0; each completes when the
        # single caller's sequence of question makespans reaches it
        result.latencies = list(accumulate(makespans))
        cells = self._cell_scores(state, raw.data["mappings"])
        result.f1_sum = sum(cells.values())
        result.f1_n = len(cells)
        qa_calls = len(raw.data["qa_sizes"])
        self._check_usage(
            run.usage, run.call_sizes + raw.data["qa_sizes"], result,
            f"executor-reported calls plus {qa_calls} QA calls",
        )
        return result


class HqdlWorkload(BatchWorkload):
    """``run_hqdl`` over the whole benchmark (the paper's 40% EX setting)."""

    #: model completions (about 6,900 a pass, all on the calling thread)
    #: between in-pass calibration bursts
    CALIBRATE_EVERY = 1200

    def execute(self, state: _BatchState, index: int, host=None) -> _Raw:
        params = self.params
        swan = state.permuted(index)
        recorders: list[_SizeRecorder] = []
        calibration = InPass(host, self.CALIBRATE_EVERY)
        complete_original = MockChatModel.__dict__["complete"]

        def complete(model, *args, **kwargs):
            result = complete_original(model, *args, **kwargs)
            calibration.tick()
            return result

        def wrap(model):
            recorder = _SizeRecorder(model)
            recorders.append(recorder)
            return recorder

        with _Patch() as patch:
            patch.set(MockChatModel, "complete", complete)
            start = time.perf_counter()
            run = runner.run_hqdl(
                swan, params["model"], params["shots"],
                workers=params["workers"], gold=state.gold, wrap_client=wrap,
            )
            end = time.perf_counter()
        return _Raw(
            start, end, {"swan": swan, "run": run, "recorders": recorders}, calibration,
        )

    def evaluate(self, state: _BatchState, raw: _Raw) -> PassResult:
        run = raw.data["run"]
        swan = raw.data["swan"]
        recorders = raw.data["recorders"]
        result = PassResult(ops=0, wall=raw.wall)
        self._fill(run, result)
        self._common_checks(state, swan, run, result)
        result.f1_sum = sum(run.f1_by_db.values())
        result.f1_n = len(run.f1_by_db)
        names = swan.database_names()
        if len(recorders) != len(names):
            raise BenchmarkError(f"{len(recorders)} model stacks for {len(names)} databases")
        # every question of a database waits for its generation; the
        # databases run one after another from t=0
        ready = list(accumulate(
            parallel_makespan(r.sizes, self.params["workers"]) for r in recorders
        ))
        by_db = dict(zip(names, ready))
        result.latencies = [by_db[o.database] for o in run.outcomes if not o.error]
        sizes = [s for r in recorders for s in r.sizes]
        self._check_usage(run.usage, sizes, result, "calls the model stacks saw")
        generated_calls = sum(g.total_calls() for g in run.generations.values())
        if generated_calls != run.usage.calls:
            result.problems.append(
                f"{self.name}: the generations count {generated_calls} calls, "
                f"Usage {run.usage.calls}"
            )
        return result


# -- serving workload ---------------------------------------------------------------


class _ServeState:
    def __init__(self, swan: Swan, gold, seed: int, tenants, requests) -> None:
        self.swan = swan
        self.gold = gold
        self.seed = seed
        self.tenants = tenants
        self.requests = requests
        self.questions = {q.qid: q for q in swan.questions}
        self.sql_to_qid = {q.blend_sql: q.qid for q in swan.questions}

    def shuffled(self, index: int) -> list:
        """The fixed request trace, handed over in a per-pass shuffled order."""
        requests = list(self.requests)
        random.Random(f"{self.seed}/{index}").shuffle(requests)
        return requests


class ServeWorkload:
    """One ``QueryServer.run`` over a fixed-rate open-loop traffic trace."""

    #: trace records (one per request) between in-pass calibration bursts
    CALIBRATE_EVERY = 60

    def __init__(self, name: str, spec: dict) -> None:
        self.name = name
        self.params = spec["generator"]

    def setup(self, seed: int) -> _ServeState:
        params = self.params
        swan = benchmark.load_benchmark(params["scale"])
        gold = runner.GoldResults(swan)
        tenants = [
            traffic.TenantSpec(**dict(t, databases=tuple(t["databases"])))
            for t in params["tenants"]
        ]
        offered = sum(
            t.rate + (t.burst_size / t.burst_every if t.burst_every else 0.0)
            for t in tenants
        )
        if abs(offered - params["offered_rps"]) > 1e-9:
            raise BenchmarkError(
                f"tenant mix offers {offered} req/s, spec says {params['offered_rps']}"
            )
        requests = traffic.generate_traffic(
            swan, tenants, horizon=params["horizon_s"], seed=params["traffic_seed"],
        )
        return _ServeState(swan, gold, seed, tenants, requests)

    def execute(self, state: _ServeState, index: int, host=None) -> _Raw:
        requests = state.shuffled(index)
        calibration = InPass(host, self.CALIBRATE_EVERY)
        by_id = {r.request_id: r for r in requests}
        config = ServerConfig(
            **self.params["server"], batching=BatchingConfig(**self.params["batching"])
        )
        policies = {t.name: t.policy() for t in state.tenants}
        telemetry, tracker = build_observability()
        trace_log = ServeTraceLog()
        last: list = [None]
        served: list[tuple] = []
        generations: list[tuple] = []
        execute_original = HybridQueryExecutor.__dict__["execute_with_report"]
        answer_original = HQDL.__dict__["answer"]
        generate_original = HQDL.__dict__["generate_all"]
        add_original = ServeTraceLog.__dict__["add"]

        def execute_with_report(executor, sql, *args, **kwargs):
            result = execute_original(executor, sql, *args, **kwargs)
            last[0] = ("udf", sql, result[0])
            return result

        def answer(pipeline, db, question, *args, **kwargs):
            result = answer_original(pipeline, db, question, *args, **kwargs)
            last[0] = ("hqdl", question.qid, result)
            return result

        def generate_all(pipeline, *args, **kwargs):
            generation = generate_original(pipeline, *args, **kwargs)
            generations.append((pipeline.world, generation))
            return generation

        def add(log, record, *args, **kwargs):
            add_original(log, record, *args, **kwargs)
            # the server records an outcome right after executing it, so
            # the last result seen belongs to this record's request
            if record.status == SERVED:
                served.append((by_id[record.request_id], last[0]))
                last[0] = None
            calibration.tick()

        with _Patch() as patch:
            patch.set(HybridQueryExecutor, "execute_with_report", execute_with_report)
            patch.set(HQDL, "answer", answer)
            patch.set(HQDL, "generate_all", generate_all)
            patch.set(ServeTraceLog, "add", add)
            start = time.perf_counter()
            with QueryServer(
                state.swan, config, policies=policies, telemetry=telemetry,
                slo_tracker=tracker, trace=trace_log,
            ) as server:
                report = server.run(requests)
            end = time.perf_counter()
        return _Raw(start, end, {
            "requests": requests, "report": report, "served": served,
            "generations": generations,
        }, calibration)

    def evaluate(self, state: _ServeState, raw: _Raw) -> PassResult:
        report = raw.data["report"]
        outcomes = report.outcomes
        result = PassResult(ops=report.offered, wall=raw.wall)
        answered = [o for o in outcomes if o.answered]
        limit = self.params["goodput_deadline_s"]
        result.per_q_base = len(answered)
        result.full = report.served
        result.goodput = sum(
            1 for o in outcomes if o.status == SERVED and o.latency <= limit
        )
        result.failed = sum(1 for o in outcomes if o.reason == "error")
        result.tokens = report.usage.input_tokens + report.usage.output_tokens
        result.calls = report.usage.calls
        result.latencies = [o.latency for o in answered]
        for request, captured in raw.data["served"]:
            expected_key = request.sql if request.pipeline == "udf" else request.qid
            if captured is None or captured[:2] != (request.pipeline, expected_key):
                raise BenchmarkError(
                    f"served request {request.request_id} has no matching result"
                )
            question = state.questions[request.qid]
            result.correct += results_match(
                state.gold.expected(request.qid), captured[2], ordered=question.ordered
            )
            result.graded += 1
        for world, generation in raw.data["generations"]:
            result.f1_sum += database_factuality(world, generation)
            result.f1_n += 1
        self._check(report, answered, result)
        dispatched = [o for o in answered if o.reason != "breaker_open"]
        services = sorted(o.service_seconds for o in dispatched)
        batching = report.batching or {}
        result.layer = {
            "offered": report.offered,
            "queue_wait_p99_s": percentile(sorted(o.queue_wait for o in dispatched), 0.99),
            "service_p50_s": percentile(services, 0.50),
            "service_p99_s": percentile(services, 0.99),
            "max_queue_depth": report.max_queue_depth,
            "batch_occupancy": batching.get("batch_occupancy", 0.0),
            "coalesced_calls": batching.get("coalesced_calls", 0),
        }
        return result

    def _check(self, report, answered: list, result: PassResult) -> None:
        problems = result.problems
        if report.offered != report.served + report.degraded + report.rejected:
            problems.append(
                f"serve-4db: offered {report.offered} != served {report.served} + "
                f"degraded {report.degraded} + rejected {report.rejected}"
            )
        late = [o for o in answered if o.finish_time > o.request.deadline_at]
        if late:
            problems.append(
                f"serve-4db: {len(late)} answers finished after their deadline "
                f"(first: request {late[0].request.request_id})"
            )
        sums = (
            sum(o.input_tokens for o in report.outcomes),
            sum(o.output_tokens for o in report.outcomes),
        )
        usage = report.usage
        if sums != (usage.input_tokens, usage.output_tokens):
            problems.append(
                f"serve-4db: outcome tokens {sums} != report Usage "
                f"{(usage.input_tokens, usage.output_tokens)}"
            )


def make(name: str, spec: dict):
    """The workload object for ``name`` from the ``workloads.json`` spec."""
    try:
        workload_spec = spec["workloads"][name]
    except KeyError:
        raise BenchmarkError(
            f"unknown workload {name!r}; have {', '.join(spec['workloads'])}"
        ) from None
    kinds = {"udf": UdfWorkload, "hqdl": HqdlWorkload, "serve": ServeWorkload}
    return kinds[workload_spec["pipeline"]](name, workload_spec)
