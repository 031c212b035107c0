"""The ``serve-ingest`` workload: one client feeding a tuning daemon.

``python -m repro.serve start`` runs as its own process with a
checkpoint directory and four tenants, half TPC-C and half epidemic.
One client connection sends ingest batches in a closed loop; 90% of
batches go to the hot tenant ``t0``.  The daemon only observes, so
SQL2Template, the round lifecycle, per-round checkpoints and the
socket/JSON path are the whole cost.

The daemon runs rounds inline (``--workers 0``), at the stream offset
that made them due.  With a background worker the offset depends on
thread timing, and ``python -m repro.serve verify`` (run on the hot
tenant after shutdown) could not hold.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from perfbench import measure
from perfbench.executing import NullTracer, StreamOutcome

HOT = "t0"
BATCH = 25
HOT_SHARE = 0.9
#: (tenant, workload, round every N statements)
TENANTS = (
    (HOT, "tpcc", 400),
    ("t1", "epidemic", 120),
    ("t2", "tpcc", 120),
    ("t3", "epidemic", 120),
)
#: Statements per second of ``--seconds`` (fixed, so the stream is a
#: function of the seed alone).
RATE = 6000
#: Hot-tenant statements re-executed to price the final configuration.
COST_TAIL = 400
PING_TIMEOUT_S = 60.0


def tenant_specs(seed: int) -> List[str]:
    return [
        f"{tid},workload={wl},workload-seed={seed * 10 + i},round-every={every}"
        for i, (tid, wl, every) in enumerate(TENANTS)
    ]


def schedule(seed: int, seconds: int) -> Tuple[List[Tuple[str, int, int]], Dict[str, List[str]]]:
    """The request sequence ``(tenant, start, end)`` and each tenant's
    statement stream, all drawn from the seed."""
    from repro.serve.config import make_generator, parse_tenant_spec

    rng = random.Random(seed)
    cold = [tid for tid, _wl, _every in TENANTS if tid != HOT]
    picks = [
        HOT if rng.random() < HOT_SHARE else rng.choice(cold)
        for _ in range(max(1, RATE * seconds // BATCH))
    ]
    requests = []
    sent: Dict[str, int] = {tid: 0 for tid, _wl, _every in TENANTS}
    for tid in picks:
        requests.append((tid, sent[tid], sent[tid] + BATCH))
        sent[tid] += BATCH
    streams = {}
    for text in tenant_specs(seed):
        spec = parse_tenant_spec(text)
        generator = make_generator(spec.workload, seed=spec.workload_seed)
        streams[spec.tenant_id] = [
            q.sql for q in generator.queries(sent[spec.tenant_id], seed=spec.workload_seed)
        ]
    return requests, streams


class Daemon:
    """A ``python -m repro.serve start`` child process."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path, seed: int, tag: str):
        tag = f"serve-{os.getpid()}-{tag}"
        self.socket = str((workdir / f"{tag}.sock").relative_to(root))
        self.checkpoints = workdir / f"{tag}-ckpt"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = [
            sys.executable, "-m", "repro.serve", "start",
            "--socket", self.socket,
            "--checkpoint-dir", str(self.checkpoints),
            "--workers", "0",
        ]
        for spec in tenant_specs(seed):
            argv += ["--tenant", spec]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_ready(self) -> float:
        """Seconds from spawn to the first successful ``ping``."""
        from repro.serve.server import DaemonClient

        client = DaemonClient(self.socket, timeout=5.0)
        while True:
            if client.ping():
                return time.perf_counter() - self.started
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() - self.started > PING_TIMEOUT_S:
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.005)

    def stop(self, client, drain: bool) -> None:
        try:
            client.shutdown(drain=drain)
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


class InProcessDaemon:
    """The traced run hosts the daemon on a thread of this process, so
    spans inside ``TuningDaemon.ingest`` are recorded too."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path, seed: int, tag: str):
        from repro.serve.config import parse_tenant_spec
        from repro.serve.daemon import TuningDaemon
        from repro.serve.server import DaemonServer

        tag = f"serve-{os.getpid()}-{tag}"
        self.socket = str((workdir / f"{tag}.sock").relative_to(root))
        self.checkpoints = workdir / f"{tag}-ckpt"
        self.checkpoints.mkdir(parents=True)
        self.started = time.perf_counter()
        daemon = TuningDaemon(checkpoint_root=self.checkpoints, workers=0)
        for spec in tenant_specs(seed):
            daemon.add_tenant(parse_tenant_spec(spec))
        self.server = DaemonServer(daemon, self.socket)
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()

    def wait_ready(self) -> float:
        from repro.serve.server import DaemonClient

        client = DaemonClient(self.socket, timeout=5.0)
        while not client.ping():
            time.sleep(0.005)
        return time.perf_counter() - self.started

    def stop(self, client, drain: bool) -> None:
        client.shutdown(drain=drain)
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("in-process daemon did not stop")
        pathlib.Path(self.socket).unlink(missing_ok=True)


def verify_hot(root: pathlib.Path, checkpoints: pathlib.Path) -> dict:
    """``python -m repro.serve verify`` on the hot tenant."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.serve", "verify",
         "--checkpoint-dir", str(checkpoints), "--tenant", HOT],
        cwd=root, env=env, capture_output=True, text=True, timeout=170,
    )
    try:
        payload = json.loads(done.stdout)
    except json.JSONDecodeError:
        payload = {"parity": False, "mismatches": [done.stderr.strip()[-300:]]}
    payload["exit_code"] = done.returncode
    return payload


def priced_costs(
    seed: int, rounds: List[dict], hot_stream: List[str]
) -> Tuple[float, float, int]:
    """Mean engine-charged read and write cost of the hot tenant's last
    statements, executed on its database under the index set the
    daemon's rounds left (the daemon itself never executes), and the
    B+Tree bytes of that index set."""
    from repro.engine.index import IndexDef
    from repro.ports import create_backend
    from repro.serve.config import make_generator, parse_tenant_spec
    from repro.sql import ast

    spec = parse_tenant_spec(tenant_specs(seed)[0])
    db = create_backend("memory")
    make_generator(spec.workload, seed=spec.workload_seed).build(db)
    for record in rounds:
        if record["tenant_id"] != HOT or record["skipped"]:
            continue
        for item in record["report"]["dropped"]:
            definition = IndexDef.from_dict(item)
            if db.has_index(definition):
                db.drop_index(definition)
        for item in record["report"]["created"]:
            definition = IndexDef.from_dict(item)
            if not db.has_index(definition):
                db.create_index(definition)
    index_bytes = db.total_index_bytes()
    reads: List[float] = []
    writes: List[float] = []
    for sql in hot_stream[-COST_TAIL:]:
        result = db.execute(sql)
        statement = db.parse_statement(sql)
        (writes if ast.is_write(statement) else reads).append(result.cost)
    return sum(reads) / len(reads), sum(writes) / len(writes), index_bytes


def run_stream(
    root: pathlib.Path,
    workdir: pathlib.Path,
    seed: int,
    seconds: int,
    setups: int,
    tracer=None,
) -> Tuple[StreamOutcome, dict]:
    """Spawn the daemon ``setups`` times (timing spawn to first ping),
    then stream into the last one.  Returns the outcome and the hot
    tenant's ``verify`` result (empty for the traced, in-process run)."""
    from repro.serve.server import DaemonClient

    traced = tracer is not None
    tracer = tracer if traced else NullTracer()
    requests, streams = schedule(seed, seconds)
    host = InProcessDaemon if traced else Daemon
    setup_times = []
    for i in range(setups - 1):
        daemon = host(root, workdir, seed, f"setup{i}")
        client = DaemonClient(daemon.socket, timeout=120.0)
        try:
            setup_times.append(daemon.wait_ready())
        finally:
            daemon.stop(client, drain=False)
        shutil.rmtree(daemon.checkpoints, ignore_errors=True)
    with tracer.span("bench.setup"):
        daemon = host(root, workdir, seed, "main")
    client = DaemonClient(daemon.socket, timeout=120.0)
    try:
        setup_times.append(daemon.wait_ready())
        latencies: List[float] = []
        with_round: List[bool] = []
        acknowledged = 0
        errors = 0
        clock = time.perf_counter
        started = clock()
        for i, (tid, lo, hi) in enumerate(requests):
            with tracer.group(f"req-{i}"), tracer.span("serve.request"):
                begin = clock()
                try:
                    response = client.ingest(tid, streams[tid][lo:hi])
                except (OSError, RuntimeError):  # a failed request counts, never stops the stream
                    errors += 1
                    continue
                elapsed = clock() - begin
            if response["ingested"] != hi:  # the tenant's running total
                errors += 1
                continue
            acknowledged += hi - lo
            latencies.append(elapsed)
            with_round.append(bool(response["rounds_run"]))
        stream_s = clock() - started
        status = client.status()
        rounds = client.rounds()["rounds"]
        if traced:
            peak_rss = 0.0
            hits = misses = 0
            for runtime in daemon.server.daemon.registry.runtimes():
                raw = runtime.advisor.store.raw_cache_stats()
                hits += raw["hits"]
                misses += raw["misses"]
            raw_hit_rate = hits / max(hits + misses, 1)
        else:
            peak_rss = measure.pid_peak_rss_mib(daemon.proc.pid)
            raw_hit_rate = 0.0
    finally:
        daemon.stop(client, drain=True)

    round_latency = [x for x, r in zip(latencies, with_round) if r]
    plain = [x for x, r in zip(latencies, with_round) if not r]
    typical = measure.median(plain) if plain else 0.0
    verify = {} if traced else verify_hot(root, daemon.checkpoints)
    # The traced run reports layers only; pricing would add executor
    # and load spans the daemon never ran.
    read_cost, write_cost, index_bytes = (
        (0.0, 0.0, 0) if traced else priced_costs(seed, rounds, streams[HOT])
    )
    shutil.rmtree(daemon.checkpoints, ignore_errors=True)

    lat = measure.latency_summary(latencies)
    tenants = status["tenants"]
    e2e = {
        "setup_s": measure.median(setup_times),
        "stmt_per_s": acknowledged / stream_s,
        "op_p50_ms": lat["p50_ms"],
        "op_p95_ms": lat["p95_ms"],
        # Rounds run inside the ingest request that made them due: a
        # round's cost is the extra latency of that request.
        "tune_s": sum(max(x - typical, 0.0) for x in round_latency),
        "tuned_read_cost": read_cost,
        "tuned_write_cost": write_cost,
        "index_mib": index_bytes / 2**20,
        "peak_rss_mib": peak_rss,
    }
    observe_failures = sum(t["observe_failures"] for t in tenants.values())
    layer = {
        "core.templates.raw_hit_rate": raw_hit_rate,
        "core.templates.templates": sum(t["templates"] for t in tenants.values()),
        "core.templates.observe_failures": observe_failures,
        "serve.rounds_completed": status["rounds_completed"],
        "serve.rounds_skipped": status["rounds_skipped"],
    }
    info = {
        "requests": len(requests),
        "statements": sum(hi - lo for _t, lo, hi in requests),
        "acknowledged": acknowledged,
        "round_requests": len(round_latency),
        "latency": lat,
        "setup_runs": setup_times,
        "stream_s": stream_s,
        "verify": verify,
    }
    outcome = StreamOutcome(
        e2e=e2e,
        info=info,
        layer=layer,
        decisions=rounds,
        answers=[],
        attempted=len(requests),
        failed=errors + observe_failures,
    )
    return outcome, verify
