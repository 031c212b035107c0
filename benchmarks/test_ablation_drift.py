"""Ablation: incremental template update under workload drift.

Section IV-C: when the workload shifts, template frequencies must be
decayed and recent templates must dominate, otherwise tuning keeps
optimising for a workload that no longer exists. This benchmark runs
an abrupt phase change (epidemic W1 reads → W2 insert flood) and
compares AutoIndex's windowed/decayed store against a frozen-history
variant (recent window disabled).
"""

import pytest

from repro.bench.reporting import format_table
from repro.core.advisor import AutoIndexAdvisor
from repro.ports.memory import MemoryBackend
from repro.workloads import EpidemicWorkload

from benchmarks.conftest import cached


class _FrozenHistoryAdvisor(AutoIndexAdvisor):
    """AutoIndex with recency weighting disabled (the ablated variant).

    Lifetime frequencies only: the store never starts a new window, so
    W1's read templates keep their full weight through the insert
    flood.
    """

    def tune(self, *args, **kwargs):
        original = self.store.begin_tuning_window
        self.store.begin_tuning_window = lambda: None
        try:
            return super().tune(*args, **kwargs)
        finally:
            self.store.begin_tuning_window = original


def run_drift():
    outcome = {}
    for label, advisor_cls in (
        ("windowed (AutoIndex)", AutoIndexAdvisor),
        ("frozen history", _FrozenHistoryAdvisor),
    ):
        generator = EpidemicWorkload(people=8000)
        db = MemoryBackend()
        generator.build(db)
        advisor = advisor_cls(db, mcts_iterations=50)

        for query in generator.phase_w1(250, seed=1):
            db.execute(query.sql)
            advisor.observe(query.sql)
        advisor.tune()

        flood = generator.phase_w2(2600, seed=2)
        for query in flood:
            db.execute(query.sql)
            advisor.observe(query.sql)
        report = advisor.tune()

        # Cost of continuing the insert-dominated workload.
        after = sum(
            db.execute(q.sql).cost
            for q in generator.phase_w2(800, seed=7)
        )
        outcome[label] = {
            "dropped_after_drift": len(report.dropped),
            "post_drift_cost": after,
            "indexes": len(db.index_defs()),
        }
    return outcome


@pytest.mark.benchmark(group="ablation")
def test_ablation_drift_handling(benchmark, session_cache, write_result):
    outcome = benchmark.pedantic(
        lambda: cached(session_cache, "ablation_drift", run_drift),
        rounds=1,
        iterations=1,
    )
    rows = [
        [label, data["dropped_after_drift"], data["indexes"],
         f"{data['post_drift_cost']:.0f}"]
        for label, data in outcome.items()
    ]
    text = format_table(
        ["variant", "indexes dropped after drift", "final index count",
         "post-drift workload cost"],
        rows,
    )
    write_result("ablation_drift", text)

    windowed = outcome["windowed (AutoIndex)"]
    frozen = outcome["frozen history"]
    # The windowed store reacts to the insert flood by shedding
    # now-penalised read indexes and ends with the cheaper workload.
    assert windowed["dropped_after_drift"] >= 1
    assert windowed["post_drift_cost"] <= frozen["post_drift_cost"] * 1.02
