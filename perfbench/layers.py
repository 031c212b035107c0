"""The benchmark's metric catalogue.

``END_TO_END`` is what a user of the system sees; ``PER_LAYER`` is
read from the traced run, and each entry names the end-to-end metric
it should move and on which workload, so a later change can cite the
pair by name.  ``BENCHMARK.json`` lists the same names (a test keeps
the two in step).
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "stmt_per_s": ("stmt/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p95_ms": ("ms", "lower"),
    "tune_s": ("s", "lower"),
    "tuned_read_cost": ("cost/stmt", "lower"),
    "tuned_write_cost": ("cost/stmt", "lower"),
    "index_mib": ("MiB", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: Span names the traced run records, one per layer boundary.  Each
#: one's self time is reported as ``self_s.<span>``.
SPANS = (
    "bench.setup",
    "bench.statement",
    "bench.round",
    "sql.parse",
    "engine.planner.plan",
    "engine.executor.select",
    "engine.executor.write",
    "engine.index.build",
    "engine.index.drop",
    "engine.storage.load",
    "engine.stats.analyze",
    "ports.whatif",
    "core.templates.observe",
    "core.pipeline.observe",
    "core.diagnosis",
    "core.candidates",
    "core.mcts",
    "core.safety.shadow",
    "core.changeset.apply",
    "core.lifecycle.round",
    "core.checkpoint.save",
    "serve.request",
    "serve.ingest",
)

#: name -> (unit, "end-to-end metric it moves @ workload")
PER_LAYER = {
    "sql.parse_calls": ("count", "op_p50_ms@banking-shift; near 0 on serve-ingest"),
    "sql.parse_s": ("s", "op_p50_ms@banking-shift"),
    "engine.planner.plan_calls": ("count", "op_p50_ms@banking-shift"),
    "engine.planner.plan_s": ("s", "op_p50_ms@banking-shift"),
    "engine.executor.select_s": ("s", "stmt_per_s,op_p95_ms@tpcds-olap"),
    "engine.executor.write_s": ("s", "op_p50_ms@banking-shift"),
    "engine.executor.rows_out": ("count", "tuned_read_cost@tpcds-olap"),
    "engine.executor.seq_pages": ("count", "tuned_read_cost@tpcds-olap"),
    "engine.executor.random_pages": ("count", "tuned_read_cost@tpcds-olap"),
    "engine.executor.heap_tuples": ("count", "tuned_read_cost@tpcds-olap"),
    "engine.executor.index_tuples": ("count", "tuned_read_cost@tpcds-olap"),
    "engine.executor.operator_ops": ("count", "tuned_read_cost@tpcds-olap"),
    "engine.executor.tuples_per_row": ("ratio", "tuned_read_cost@tpcds-olap"),
    "engine.index.build_calls": ("count", "tune_s@banking-shift"),
    "engine.index.build_s": ("s", "tune_s@banking-shift"),
    "engine.index.drop_calls": ("count", "tune_s@banking-shift"),
    "engine.index.drop_s": ("s", "tune_s@banking-shift"),
    "engine.storage.load_s": ("s", "setup_s@banking-shift"),
    "engine.stats.analyze_s": ("s", "setup_s@banking-shift"),
    "ports.whatif.calls": ("count", "tune_s@tpcds-olap"),
    "ports.whatif.statements": ("count", "tune_s@tpcds-olap"),
    "ports.whatif.s": ("s", "tune_s@tpcds-olap"),
    "core.templates.observe_calls": ("count", "stmt_per_s@serve-ingest"),
    "core.templates.observe_s": ("s", "stmt_per_s@serve-ingest"),
    "core.templates.raw_hit_rate": ("fraction", "stmt_per_s@serve-ingest"),
    "core.templates.templates": ("count", "stmt_per_s@serve-ingest"),
    "core.templates.observe_failures": ("count", "stmt_per_s@serve-ingest"),
    "core.pipeline.observe_s": ("s", "tune_s"),
    "core.diagnosis.s": ("s", "tune_s@banking-shift"),
    "core.candidates.s": ("s", "tune_s"),
    "core.candidates.considered": ("count", "tune_s"),
    "core.candidates.adopted_ratio": ("fraction", "tune_s"),
    "core.mcts.s": ("s", "tune_s@tpcds-olap"),
    "core.mcts.iterations": ("count", "tune_s@tpcds-olap"),
    "core.mcts.evaluations": ("count", "tune_s@tpcds-olap"),
    "core.mcts.deadline_hits": ("count", "tune_s@tpcds-olap"),
    "core.estimator.calls": ("count", "tune_s@tpcds-olap"),
    "core.estimator.plans_computed": ("count", "tune_s@tpcds-olap"),
    "core.estimator.cache_hit_rate": ("fraction", "tune_s@tpcds-olap"),
    "core.estimator.retries": ("count", "tune_s@tpcds-olap"),
    "core.estimator.fallbacks": ("count", "tune_s@tpcds-olap"),
    "core.safety.shadow_s": ("s", "tune_s"),
    "core.safety.gated": ("count", "tune_s"),
    "core.changeset.apply_s": ("s", "tune_s@banking-shift"),
    "core.changeset.created": ("count", "tune_s@banking-shift"),
    "core.changeset.dropped": ("count", "tune_s@banking-shift"),
    "core.changeset.rolled_back": ("count", "tune_s@banking-shift"),
    "core.lifecycle.rounds": ("count", "tune_s"),
    "core.lifecycle.round_s": ("s", "tune_s"),
    "core.checkpoint.save_calls": ("count", "op_p95_ms@serve-ingest"),
    "core.checkpoint.save_s": ("s", "op_p95_ms@serve-ingest"),
    "core.checkpoint.bytes": ("bytes", "op_p95_ms@serve-ingest"),
    "serve.requests": ("count", "op_p95_ms,stmt_per_s@serve-ingest"),
    "serve.request_s": ("s", "op_p95_ms,stmt_per_s@serve-ingest"),
    "serve.ingest_s": ("s", "op_p95_ms,stmt_per_s@serve-ingest"),
    "serve.rounds_completed": ("count", "op_p95_ms@serve-ingest"),
    "serve.rounds_skipped": ("count", "op_p95_ms@serve-ingest"),
    "serve.queue_max": ("count", "op_p95_ms@serve-ingest"),
    "trace.stmt_per_s_untraced": ("stmt/s", "tracing overhead"),
    "trace.stmt_per_s_traced": ("stmt/s", "tracing overhead"),
    "trace.overhead": ("fraction", "tracing overhead"),
}
PER_LAYER.update(
    {f"self_s.{span}": ("s", "self time of the span") for span in SPANS}
)
