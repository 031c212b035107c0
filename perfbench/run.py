"""End-to-end, layer-by-layer benchmark of the AutoIndex reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload tpcds-olap --seed 1 --seconds 15 --trace 0

Workloads (one client, closed loop):

* ``tpcds-olap``    execute → observe → tune → re-execute, read-only OLAP
* ``banking-shift`` the same loop on a phase-shifting banking mix
* ``serve-ingest``  one client feeding ``python -m repro.serve start``

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
stream untraced and then traced (spans at every layer boundary),
checks that both made the same decisions, and prints the per-layer
metrics, each span's self time and the tracing overhead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The command exits 1 on any
oracle mismatch or decision-parity break.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("tpcds-olap", "banking-shift", "serve-ingest")
#: Builds timed per untraced run; ``setup_s`` is their median.
SETUPS = 3
OUT = ".perfbench_out"


def code_digest() -> str:
    """Digest of the program and benchmark sources: decisions recorded
    under one digest must repeat under it."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(workdir: pathlib.Path, key: str, digest: str) -> list:
    """Compare this run's decision digest with an earlier run of the
    same seed and sources, recording it when there is none."""
    path = workdir / f"decisions-{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())["digest"]
        if earlier != digest:
            return [f"decisions differ from an earlier run of {key}"]
        return []
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps({"digest": digest}))
    partial.replace(path)
    return []


def round_reports(workload: str, decisions: list) -> list:
    if workload == "serve-ingest":
        return [r["report"] for r in decisions if not r["skipped"]]
    return decisions


def report_counters(reports: list) -> dict:
    """Per-layer counts read off the rounds' ``to_dict()`` payloads."""
    considered = sum(r["candidates_considered"] for r in reports)
    created = sum(len(r["created"]) for r in reports)
    searched = [r for r in reports if not r["skipped"] and not r["degraded"]]
    return {
        "core.candidates.considered": considered,
        "core.candidates.adopted_ratio": created / max(considered, 1),
        "core.mcts.deadline_hits": sum(1 for r in reports if r["deadline_hit"]),
        "core.estimator.calls": sum(r["estimator_calls"] for r in reports),
        "core.estimator.plans_computed": sum(r["plans_computed"] for r in reports),
        "core.estimator.cache_hit_rate": (
            sum(r["cache_hit_rate"] for r in searched) / max(len(searched), 1)
        ),
        "core.estimator.retries": sum(r["retries"] for r in reports),
        "core.estimator.fallbacks": sum(r["fallbacks"] for r in reports),
        "core.safety.gated": sum(1 for r in reports if r["gated"]),
        "core.changeset.created": created,
        "core.changeset.dropped": sum(len(r["dropped"]) for r in reports),
        "core.changeset.rolled_back": sum(r["rolled_back"] for r in reports),
    }


def layer_metrics(workload: str, tracer, base, traced) -> dict:
    from perfbench.layers import PER_LAYER, SPANS
    from perfbench.trace import layer_times, within

    times = layer_times(tracer.spans)
    # Index DDL inside tuning rounds; set-up builds count in setup_s.
    tuning = layer_times(within(tracer.spans, "core.lifecycle.round"))

    def calls(span):
        return times.get(span, {}).get("calls", 0)

    def total(span):
        return times.get(span, {}).get("total_s", 0.0)

    metrics = {
        "sql.parse_calls": calls("sql.parse"),
        "sql.parse_s": total("sql.parse"),
        "engine.planner.plan_calls": calls("engine.planner.plan"),
        "engine.planner.plan_s": total("engine.planner.plan"),
        "engine.executor.select_s": total("engine.executor.select"),
        "engine.executor.write_s": total("engine.executor.write"),
        "engine.index.build_calls": tuning.get("engine.index.build", {}).get("calls", 0),
        "engine.index.build_s": tuning.get("engine.index.build", {}).get("total_s", 0.0),
        "engine.index.drop_calls": tuning.get("engine.index.drop", {}).get("calls", 0),
        "engine.index.drop_s": tuning.get("engine.index.drop", {}).get("total_s", 0.0),
        "engine.storage.load_s": total("engine.storage.load"),
        "engine.stats.analyze_s": total("engine.stats.analyze"),
        "ports.whatif.calls": calls("ports.whatif"),
        "ports.whatif.s": total("ports.whatif"),
        "core.templates.observe_calls": calls("core.templates.observe"),
        "core.templates.observe_s": total("core.templates.observe"),
        "core.pipeline.observe_s": total("core.pipeline.observe"),
        "core.diagnosis.s": total("core.diagnosis"),
        "core.candidates.s": total("core.candidates"),
        "core.mcts.s": total("core.mcts"),
        "core.safety.shadow_s": total("core.safety.shadow"),
        "core.changeset.apply_s": total("core.changeset.apply"),
        "core.lifecycle.rounds": calls("core.lifecycle.round"),
        "core.lifecycle.round_s": total("core.lifecycle.round"),
        "core.checkpoint.save_calls": calls("core.checkpoint.save"),
        "core.checkpoint.save_s": total("core.checkpoint.save"),
        "serve.requests": calls("serve.request"),
        "serve.request_s": total("serve.request"),
        "serve.ingest_s": total("serve.ingest"),
        "trace.stmt_per_s_untraced": base.e2e["stmt_per_s"],
        "trace.stmt_per_s_traced": traced.e2e["stmt_per_s"],
        "trace.overhead": 1.0 - traced.e2e["stmt_per_s"] / base.e2e["stmt_per_s"],
    }
    metrics.update(dict(tracer.counters))
    metrics.update(report_counters(round_reports(workload, traced.decisions)))
    metrics.update(traced.layer)
    for span in SPANS:
        metrics[f"self_s.{span}"] = times.get(span, {}).get("self_s", 0.0)
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, (unit, _moves) in PER_LAYER.items()
    }


def run_once(workload: str, seed: int, seconds: int, setups: int, workdir, tracer=None):
    """One stream; returns (outcome, failures beyond the outcome's own,
    problems that make the run incorrect)."""
    from perfbench import executing, serving

    if workload == "serve-ingest":
        outcome, verify = serving.run_stream(ROOT, workdir, seed, seconds, setups, tracer)
        problems = []
        if tracer is None and not (verify.get("parity") and verify.get("exit_code") == 0):
            problems.append(f"serve verify failed on the hot tenant: {verify}")
        return outcome, 0, problems
    spec = executing.WORKLOADS[workload]
    outcome = executing.run_stream(spec, seed, seconds, setups, tracer)
    if tracer is not None:
        return outcome, 0, []
    wrong = executing.oracle_failures(spec, outcome)
    outcome.info["oracle_checked"] = len(outcome.statements)
    outcome.info["oracle_mismatches"] = wrong[:20]
    problems = [f"{len(wrong)} results differ from SQLite"] if wrong else []
    return outcome, len(wrong), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)  # the daemon's socket path is relative to the root

    from perfbench import measure, oracle
    from perfbench.executing import normalized_answers
    from perfbench.layers import END_TO_END, PER_LAYER

    machine = measure.machine()
    workdir = ROOT / OUT
    workdir.mkdir(exist_ok=True)
    key = f"{args.workload}-seed{args.seed}-s{args.seconds}-{code_digest()}"

    base, extra_failed, problems = run_once(
        args.workload, args.seed, args.seconds,
        1 if args.trace else SETUPS, workdir,
    )
    digest = oracle.decisions_digest(base.decisions)
    problems += check_repeat(workdir, key, digest)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "decisions_sha256": digest,
        "info": base.info,
    }
    if args.trace:
        from perfbench.trace import Tracer, install

        tracer = Tracer()
        patches = install(tracer)
        try:
            traced, _extra, _problems = run_once(
                args.workload, args.seed, args.seconds, 1, workdir, tracer
            )
        finally:
            patches.restore()
        problems += [
            f"traced run: {b}"
            for b in oracle.parity_breaks(base.decisions, traced.decisions)
        ]
        if normalized_answers(base.answers) != normalized_answers(traced.answers):
            problems.append("traced run returned different results")
        spans_path = workdir / f"spans-{key}.jsonl"
        tracer.write(spans_path)
        metrics = layer_metrics(args.workload, tracer, base, traced)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["layer_map"] = {name: moves for name, (_u, moves) in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": base.e2e[name], "unit": unit}
            for name, (unit, _better) in END_TO_END.items()
        }

    failed = base.failed + extra_failed
    attempted = base.attempted
    correct = not problems and failed == 0
    report["error_rate"] = failed / attempted
    report["problems"] = problems

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")
    lat = base.info["latency"]
    print(f"  op latency over {lat['samples']} ops; highest supported tail "
          f"p{lat['tail_percentile']:g} = {lat['tail_ms']:.3f} ms")
    print(f"  error_rate {failed}/{attempted}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
