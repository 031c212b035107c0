"""The two executing workloads: execute → observe → tune → re-execute.

One client runs the stream in a closed loop: each statement is
executed on the memory backend and then observed, and a tuning round
fires through the public ``TuningSession.run_round`` path whenever the
round policy says it is due (once per phase), so later statements run
against the indexes it applied.

The stream length comes from ``--seconds`` through a fixed
statements-per-second rate, never from the clock, so one seed gives
one stream and one decision sequence on any machine.
"""

from __future__ import annotations

import contextlib
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from perfbench import measure, oracle

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stands in for :class:`perfbench.trace.Tracer` in untraced runs."""

    def span(self, name):
        return _NULL

    def group(self, group_id):
        return _NULL


@dataclass
class StreamOutcome:
    """What one run of a stream measured and answered."""

    e2e: Dict[str, float]
    info: Dict[str, object]
    layer: Dict[str, float]
    decisions: List[dict]
    answers: List[object]
    attempted: int
    failed: int
    statements: List[tuple] = field(default_factory=list)


class TpcdsOlap:
    """TPC-DS scale 1, read-only: passes over the 111-query analytic
    set with fresh parameters per pass and one round after each pass."""

    name = "tpcds-olap"
    monitored = False

    def generator(self):
        from repro.workloads.tpcds import TpcdsWorkload

        return TpcdsWorkload(scale=1)

    def phases(self, seed: int, seconds: int) -> List[list]:
        # The first pass runs untuned (about 22 s on a 2-core box).
        # At least five tuned passes keep the median well inside the
        # tuned statements, where their latencies lie close together.
        passes = 1 + max(5, seconds // 4)
        generator = self.generator()
        return [
            generator.queries(0, seed=seed * 1000 + p) for p in range(passes)
        ]

    def write_cost(self, db, costs: Sequence[float]) -> float:
        """The stream has no writes: charge a one-row insert into each
        fact table under the final configuration (what loading the
        warehouse pays for the chosen indexes), costed by the engine's
        planner."""
        total = 0.0
        tables = ("store_sales", "catalog_sales", "web_sales")
        for table in tables:
            entry = db.catalog.table(table)
            _rid, row = next(iter(entry.heap.scan()))
            columns = ", ".join(entry.schema.column_names)
            values = ", ".join(_literal(v) for v in row)
            cost, _plan = db.estimate_cost(
                f"INSERT INTO {table} ({columns}) VALUES ({values})"
            )
            total += cost
        return total / len(tables)


class BankingShift:
    """Banking (144 tables, 263 DBA indexes) with a phase-shifting mix:
    hybrid → withdrawal → summarization → hybrid, one round per phase."""

    name = "banking-shift"
    #: Rounds go through the monitored trigger (diagnosis may skip a
    #: due round): this is the workload whose mix shifts.
    monitored = True

    def generator(self):
        from repro.workloads.banking import BankingWorkload

        return BankingWorkload()

    #: Hybrid phases interleave ten withdrawal statements with one
    #: summarization query, the statement mix of the generator's own
    #: hybrid stream.
    HYBRID_PERIOD = 11

    @staticmethod
    def _service_report(template: str) -> bool:
        """Hybrid phases report on 15 of the 19 summary tables (and the
        branch withdrawal count); the summarization phase covers all
        19, so its round has indexes to create again (about 8) and the
        next hybrid phase leaves them unused."""
        match = re.search(r"sum_fact_([0-9]+)", template)
        return match is None or int(match.group(1)) % 4 != 3

    def phases(self, seed: int, seconds: int) -> List[list]:
        per_phase = 30 * seconds
        generator = self.generator()
        base = seed * 10

        def hybrid(phase_seed: int) -> list:
            analytic = -(-per_phase // self.HYBRID_PERIOD)
            withdraw = iter(generator.withdrawal_queries(per_phase, seed=phase_seed))
            summarize = iter(
                _stratified(generator, analytic, phase_seed, self._service_report)
            )
            return [
                next(summarize) if i % self.HYBRID_PERIOD == self.HYBRID_PERIOD - 1
                else next(withdraw)
                for i in range(per_phase)
            ]

        return [
            hybrid(base + 1),
            generator.withdrawal_queries(per_phase, seed=base + 2),
            _stratified(generator, per_phase, base + 3),
            hybrid(base + 4),
        ]

    def write_cost(self, db, costs: Sequence[float]) -> float:
        return sum(costs) / len(costs)


_NUMBER = re.compile(r"(?<![A-Za-z_0-9])[0-9]+(?:\.[0-9]+)?")


def _stratified(generator, count: int, seed: int, keep=None) -> list:
    """``count`` of the generator's summarization queries, cycling over
    their templates (the text with literal numbers masked; only those
    ``keep`` accepts) in sorted order.  Which tables and shapes the
    analytic statements hit then does not depend on the seed, only
    their parameters do, so seeds do not shift how many statements a
    round leaves untuned."""
    pool: dict = {}
    drawn = 0
    while True:
        for query in generator.summarization_queries(4 * count, seed=seed * 97 + drawn):
            key = _NUMBER.sub("#", query.sql)
            if keep is None or keep(key):
                pool.setdefault(key, []).append(query)
        drawn += 1
        keys = sorted(pool)
        need = -(-count // len(keys))
        if all(len(pool[k]) >= need for k in keys):
            break
    return [pool[keys[i % len(keys)]][i // len(keys)] for i in range(count)]


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def build(workload, tracer) -> tuple:
    """Generator build (schema, data, default indexes, ANALYZE) plus
    advisor construction: what ``setup_s`` times."""
    from repro.core.advisor import AutoIndexAdvisor
    from repro.ports import create_backend

    with tracer.span("bench.setup"):
        db = create_backend("memory")
        workload.generator().build(db)
        advisor = AutoIndexAdvisor(db)
    return db, advisor


_TRACKER_FIELDS = (
    "seq_pages", "random_pages", "heap_tuples", "index_tuples", "operator_ops",
)


def run_stream(workload, seed: int, seconds: int, setups: int, tracer=None) -> StreamOutcome:
    """Set up ``setups`` times (timing each), then run the stream on
    the last build.  Answers are kept raw; :func:`oracle_failures`
    compares them."""
    from repro.core.lifecycle import RoundPolicy, TuningSession

    tracer = tracer if tracer is not None else NullTracer()
    setup_times = []
    db = advisor = None
    for _ in range(setups):
        db = advisor = None
        started = time.perf_counter()
        db, advisor = build(workload, tracer)
        setup_times.append(time.perf_counter() - started)

    phases = workload.phases(seed, seconds)
    sizes = {len(p) for p in phases}
    if len(sizes) != 1:
        raise ValueError(f"phases differ in length: {sorted(sizes)}")
    session = TuningSession(
        advisor,
        policy=RoundPolicy(every_statements=sizes.pop(), force=not workload.monitored),
    )
    stream = [q for phase in phases for q in phase]

    latencies: List[float] = []
    answers: List[object] = []
    reports = []
    read_costs: List[float] = []
    write_costs: List[float] = []
    work = dict.fromkeys(_TRACKER_FIELDS, 0.0)
    rows_out = 0
    read_tuples = 0.0
    errors: List[str] = []
    tune_s = 0.0
    clock = time.perf_counter
    started = clock()
    for i, query in enumerate(stream):
        with tracer.group(f"stmt-{i}"), tracer.span("bench.statement"):
            begin = clock()
            try:
                result = db.execute(query.sql)
            except Exception as exc:  # counted, never fatal: error_rate reports it
                result = None
                errors.append(f"{i}: {type(exc).__name__}: {exc}")
            session.ingest(query.sql)
            if result is not None:
                latencies.append(clock() - begin)
        if result is None:
            answers.append(None)
        elif query.is_write:
            answers.append(result.rowcount)
            if reports:
                write_costs.append(result.cost)
        else:
            answers.append(result.rows)
            rows_out += len(result.rows)
            read_tuples += result.tracker.heap_tuples + result.tracker.index_tuples
            if reports:
                read_costs.append(result.cost)
        if result is not None:
            for name in _TRACKER_FIELDS:
                work[name] += getattr(result.tracker, name)
        if session.due():
            with tracer.group(f"round-{len(reports)}"), tracer.span("bench.round"):
                begin = clock()
                reports.append(session.run_round())
                tune_s += clock() - begin
    stream_s = clock() - started

    lat = measure.latency_summary(latencies)
    e2e = {
        "setup_s": measure.median(setup_times),
        "stmt_per_s": (len(stream) - len(errors)) / stream_s,
        "op_p50_ms": lat["p50_ms"],
        "op_p95_ms": lat["p95_ms"],
        "tune_s": tune_s,
        "tuned_read_cost": sum(read_costs) / len(read_costs),
        "tuned_write_cost": workload.write_cost(db, write_costs),
        "index_mib": db.total_index_bytes() / 2**20,
        "peak_rss_mib": measure.own_peak_rss_mib(),
    }
    raw = advisor.store.raw_cache_stats()
    layer = {
        "engine.executor.rows_out": rows_out,
        **{f"engine.executor.{k}": v for k, v in work.items()},
        "engine.executor.tuples_per_row": read_tuples / max(rows_out, 1),
        "core.templates.raw_hit_rate": raw["hits"] / max(raw["hits"] + raw["misses"], 1),
        "core.templates.templates": len(advisor.store),
        "core.templates.observe_failures": advisor.observe_failures,
    }
    info = {
        "statements": len(stream),
        "phases": len(phases),
        "rounds": len(reports),
        "latency": lat,
        "setup_runs": setup_times,
        "stream_s": stream_s,
        "tuned_reads": len(read_costs),
        "tuned_writes": len(write_costs),
        "round_changes": [(len(r.created), len(r.dropped)) for r in reports],
        "errors": errors[:5],
    }
    return StreamOutcome(
        e2e=e2e,
        info=info,
        layer=layer,
        decisions=[r.to_dict() for r in reports],
        answers=answers,
        attempted=len(stream),
        failed=len(errors) + advisor.observe_failures,
        statements=[(q.sql, q.is_write) for q in stream],
    )


def normalized_answers(answers: Sequence[object]) -> List[object]:
    return [
        oracle.result_multiset(a) if isinstance(a, list) else a for a in answers
    ]


def oracle_failures(workload, outcome: StreamOutcome) -> List[int]:
    """Stream positions whose answer differs from SQLite's (statements
    that raised are already counted as failures and skipped here)."""
    expected = oracle.sqlite_replay(workload.generator(), outcome.statements)
    ours = normalized_answers(outcome.answers)
    return [
        i for i, (a, b) in enumerate(zip(ours, expected))
        if a is not None and a != b
    ]


WORKLOADS = {w.name: w for w in (TpcdsOlap(), BankingShift())}
