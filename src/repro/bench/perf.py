"""Performance benchmark: template ingest.

``python -m repro.bench --perf ingest`` streams the same TPC-C query
batch through the observe-side hot path (SQL2Template matching plus a
periodic index-diagnosis pass) in three modes:

* **full** — the pre-fast-path behaviour: no raw-key cache (every
  statement runs lex → parse → parameterize) and the pinned
  full-scan diagnosis;
* **cached** — the zero-reparse fast path: a lex-only raw-key
  normalization resolves repeated statement shapes against a bounded
  LRU cache, diagnosis still full-scan;
* **cached_incremental** — fast path plus incremental diagnosis
  (dirty-shard snapshots, per-fingerprint extraction cache).

``identical_result`` asserts the three modes produced the same
template set, per-template statistics, shard layout, and diagnosis
reports — the fast path must be invisible except in wall time.

Writes ``BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List

from repro.bench.harness import prepare_database
from repro.core.candidates import CandidateGenerator
from repro.core.diagnosis import IndexDiagnosis
from repro.core.templates import TemplateStore
from repro.workloads.tpcc import TpccWorkload


def _serialize_report(problems) -> Dict:
    """Canonical JSON-comparable form of an IndexProblemReport."""
    return {
        "missing_beneficial": [
            str(d) for d in problems.missing_beneficial
        ],
        "rarely_used": [str(d) for d in problems.rarely_used],
        "negative": [str(d) for d in problems.negative],
        "considered": problems.considered,
        "regression": problems.regression,
        "auto_revert": [str(d) for d in problems.auto_revert],
    }


def _run_ingest_mode(
    mode: str,
    batch,
    generator,
    diagnosis_every: int,
) -> Dict:
    """One timed ingest pass in one of three configurations.

    * **full** — the pre-fast-path behaviour: no raw-key cache
      (every statement parses) and the pinned full-scan diagnosis;
    * **cached** — raw-key fast path on, diagnosis still full-scan;
    * **cached_incremental** — fast path plus incremental diagnosis
      (dirty-shard snapshots, per-fingerprint extraction cache).
    """
    db = prepare_database(generator)
    raw_cache = 0 if mode == "full" else 4096
    store = TemplateStore(
        raw_cache_size=raw_cache, parse_fn=db.parse_statement
    )
    diagnosis = IndexDiagnosis(
        db,
        store,
        CandidateGenerator(db),
        incremental=(mode == "cached_incremental"),
    )

    reports = []
    start = time.perf_counter()
    for i, query in enumerate(batch, 1):
        store.observe(query.sql)
        if i % diagnosis_every == 0:
            reports.append(_serialize_report(diagnosis.diagnose()))
    wall_seconds = time.perf_counter() - start

    shard_stats = store.shard_stats()
    return {
        "mode": mode,
        "wall_seconds": wall_seconds,
        "queries_per_second": len(batch) / max(wall_seconds, 1e-12),
        "diagnosis_passes": len(reports),
        "templates": sum(shard_stats.values()),
        "shards": len(shard_stats),
        "largest_shard": max(shard_stats.values(), default=0),
        "shard_stats": shard_stats,
        "raw_cache": store.raw_cache_stats(),
        # Comparison payloads (popped before writing the JSON).
        "_template_state": {
            t.fingerprint: (
                t.frequency,
                t.window_frequency,
                t.last_seen,
                t.sample_sql,
            )
            for t in store.templates()
        },
        "_reports": reports,
    }


def run_ingest_perf(
    queries: int = 4000,
    out_path: str = "BENCH_ingest.json",
    seed: int = 17,
    diagnosis_every: int = 1000,
) -> Dict:
    """Measure observe-side throughput and write ``BENCH_ingest.json``.

    The timed loop is exactly the online ingest path: resolve each
    statement against the sharded template store (SQL2Template), and
    every ``diagnosis_every`` queries run an index-diagnosis pass
    (usage classification + candidate generation) — the cadence at
    which the monitor would evaluate whether to trigger tuning. Three
    modes (full-parse / cached / cached+incremental) run the same
    query batch; ``identical_result`` asserts the template set,
    per-template statistics, shard layout, and every diagnosis report
    are equal across all three.
    """
    generator = TpccWorkload(scale=1, seed=11)
    batch = list(generator.queries(queries, seed=seed))

    from repro.sql.normalize import NORMALIZER_VERSION

    full = _run_ingest_mode("full", batch, generator, diagnosis_every)
    cached = _run_ingest_mode(
        "cached", batch, generator, diagnosis_every
    )
    incremental = _run_ingest_mode(
        "cached_incremental", batch, generator, diagnosis_every
    )

    identical = (
        full["_template_state"]
        == cached["_template_state"]
        == incremental["_template_state"]
        and full["shard_stats"]
        == cached["shard_stats"]
        == incremental["shard_stats"]
        and full["_reports"]
        == cached["_reports"]
        == incremental["_reports"]
    )
    for mode_result in (full, cached, incremental):
        mode_result.pop("_template_state")
        mode_result.pop("_reports")

    report = {
        "benchmark": "ingest-sql2template-diagnosis",
        "workload": "tpcc scale=1",
        "queries": queries,
        "seed": seed,
        "diagnosis_every": diagnosis_every,
        "normalizer_version": NORMALIZER_VERSION,
        # Single-threaded bench, but throughput still depends on the
        # machine: record enough to keep the numbers honest.
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "full": full,
        "cached": cached,
        "cached_incremental": incremental,
        "speedup_cached": _ratio(
            full["wall_seconds"], cached["wall_seconds"]
        ),
        "speedup_incremental": _ratio(
            cached["wall_seconds"], incremental["wall_seconds"]
        ),
        "speedup_total": _ratio(
            full["wall_seconds"], incremental["wall_seconds"]
        ),
        "identical_result": identical,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def _ratio(full: float, delta: float) -> float:
    return float(full) / max(float(delta), 1e-12)


def render_ingest_perf(report: Dict) -> List[str]:
    """Human-readable lines for the CLI."""
    lines = [
        f"workload: {report['workload']}  "
        f"queries: {report['queries']}  "
        f"(diagnosis every {report['diagnosis_every']})",
    ]
    for mode in ("full", "cached", "cached_incremental"):
        m = report[mode]
        cache = m["raw_cache"]
        lines.append(
            f"{mode:18s} {m['queries_per_second']:9.0f} q/s  "
            f"({m['wall_seconds']:.2f}s wall, "
            f"cache {cache['hits']}h/{cache['misses']}m, "
            f"{cache['parity_checks']} parity checks)"
        )
    m = report["cached_incremental"]
    lines.append(
        f"store: {m['templates']} templates across "
        f"{m['shards']} shards (largest {m['largest_shard']})"
    )
    lines.append(
        f"speedup: full/cached {report['speedup_cached']:.2f}x, "
        f"cached/incremental {report['speedup_incremental']:.2f}x, "
        f"full/incremental {report['speedup_total']:.2f}x"
    )
    lines.append(
        "identical result: " + ("yes" if report["identical_result"]
                                else "NO (investigate)")
    )
    return lines
