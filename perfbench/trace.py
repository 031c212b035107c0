"""In-memory span recorder and the patches that place spans at layer boundaries.

A span is ``(id, name, start, end, parent, group)``: ``parent`` is the
span open on the same thread when it started, and ``group`` is the id
shared by every span of one statement or one tuning round (set by the
stream loop with :meth:`Tracer.group`).  Spans stay in memory and are
written out once, when the run ends.

The benchmark places spans from its own files only: :func:`install`
wraps the public entry points of each module (``sql``, ``engine``,
``ports``, ``core``, ``serve``) in place and :meth:`Patches.restore`
puts the originals back, so ``src/`` carries no tracing code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[str]]


class Tracer:
    """Collects spans and boundary counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def group(self, group_id: str) -> Iterator[None]:
        """Tag every span opened on this thread with ``group_id``."""
        previous = getattr(self._local, "group", None)
        self._local.group = group_id
        try:
            yield
        finally:
            self._local.group = previous

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = (
                span_id, name, start, end, parent,
                getattr(self._local, "group", None),
            )
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def write(self, path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, group in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "group": group,
                }) + "\n")


def layer_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total (inclusive) time and self time.

    Self time is a span's duration minus the part of that interval its
    child spans cover.  Children of one span run on the parent's
    thread, one after another, so their durations add up without
    overlap.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _id, _name, start, end, parent, _group in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, _parent, _group in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[span_id]
    return out


def within(spans: List[Span], ancestor: str) -> List[Span]:
    """The spans that ran inside a span named ``ancestor``."""
    by_id = {span[0]: span for span in spans}
    memo: Dict[int, bool] = {}

    def inside(span_id: int) -> bool:
        if span_id not in memo:
            parent = by_id[span_id][4]
            memo[span_id] = parent is not None and (
                by_id[parent][1] == ancestor or inside(parent)
            )
        return memo[span_id]

    return [span for span in spans if inside(span[0])]


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(tracer, args, result)`` records counters at the same
        boundary once the call returns.
        """
        original = owner.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        self.replace(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.core import checkpoint, pipeline, templates
    from repro.core.lifecycle import TuningSession
    from repro.engine import database
    from repro.engine.database import Database
    from repro.engine.executor import Executor
    from repro.engine.planner import Planner
    from repro.ports.memory import MemoryBackend
    from repro.serve.daemon import TuningDaemon
    from repro.serve.registry import TenantRuntime
    from repro.serve.scheduler import RoundScheduler

    patches = Patches(tracer)

    # sql: the real parses behind the statement cache and the
    # template store's audited parity checks.
    parse = database.parse

    @functools.wraps(parse)
    def traced_parse(sql):
        with tracer.span("sql.parse"):
            return parse(sql)

    patches.replace(database, "parse", traced_parse)
    patches.replace(templates, "parse", traced_parse)

    patches.wrap(Planner, "plan", "engine.planner.plan")
    patches.wrap(Executor, "run_select", "engine.executor.select")
    for method in ("run_insert", "run_update", "run_delete"):
        patches.wrap(Executor, method, "engine.executor.write")
    patches.wrap(Database, "create_index", "engine.index.build")
    patches.wrap(Database, "drop_index", "engine.index.drop")
    patches.wrap(Database, "load_rows", "engine.storage.load")
    patches.wrap(Database, "analyze", "engine.stats.analyze")

    def count_batch(t, args, result):
        t.count("ports.whatif.statements", len(args[1]))

    def count_one(t, args, result):
        t.count("ports.whatif.statements")

    patches.wrap(MemoryBackend, "whatif_cost_batch", "ports.whatif", count_batch)
    patches.wrap(MemoryBackend, "whatif_cost", "ports.whatif", count_one)
    patches.wrap(MemoryBackend, "estimate_cost", "ports.whatif", count_one)

    patches.wrap(templates.TemplateStore, "observe", "core.templates.observe")
    for stage, name in (
        (pipeline.ObserveStage, "core.pipeline.observe"),
        (pipeline.DiagnoseStage, "core.diagnosis"),
        (pipeline.CandidateStage, "core.candidates"),
        (pipeline.ShadowStage, "core.safety.shadow"),
        (pipeline.ApplyStage, "core.changeset.apply"),
    ):
        patches.wrap(stage, "run", name)

    def count_search(t, args, result):
        search = args[1].result
        if search is not None:
            t.count("core.mcts.iterations", search.iterations)
            t.count("core.mcts.evaluations", search.evaluations)

    patches.wrap(pipeline.SearchStage, "run", "core.mcts", count_search)
    patches.wrap(TuningSession, "run_round", "core.lifecycle.round")

    patches.wrap(TenantRuntime, "save", "core.checkpoint.save")
    atomic_write = checkpoint.atomic_write

    @functools.wraps(atomic_write)
    def counted_write(path, blob):
        tracer.count("core.checkpoint.bytes", len(blob))
        return atomic_write(path, blob)

    patches.replace(checkpoint, "atomic_write", counted_write)

    patches.wrap(TuningDaemon, "ingest", "serve.ingest")

    offer = RoundScheduler.offer

    @functools.wraps(offer)
    def offer_and_measure(scheduler, tenant_id):
        queued = offer(scheduler, tenant_id)
        tracer.peak("serve.queue_max", len(scheduler.queued()))
        return queued

    patches.replace(RoundScheduler, "offer", offer_and_measure)
    return patches
