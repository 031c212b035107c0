"""Batch costing parity: vectorized costing equals scalar costing.

The estimator costs cache misses in one batch (one what-if overlay
window, one ``model.predict`` call) and promises exact float equality
with costing each template on its own through
:meth:`BenefitEstimator.query_cost`. These tests pin that contract on
real workloads for full and delta costing, and check that a whole
delta-costing search matches the full-costing reference search.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bench.harness import prepare_database
from repro.core.candidates import CandidateGenerator
from repro.core.estimator import BenefitEstimator
from repro.core.mcts import MctsIndexSelector
from repro.core.templates import TemplateStore
from repro.workloads.banking import BankingWorkload
from repro.workloads.tpcc import TpccWorkload
from tests.core.reference import FullCostingSelector


def _observed(generator, observe: int, top: int):
    db = prepare_database(generator)
    store = TemplateStore()
    for query in generator.queries(observe, seed=3):
        store.observe(query.sql, db.parse_statement(query.sql))
    templates = store.templates(top=top)
    candidates = [
        c.definition for c in CandidateGenerator(db).generate(templates)
    ]
    return db, templates, candidates


@pytest.fixture(scope="module")
def banking_setup():
    return _observed(
        BankingWorkload(accounts=800, txn_rows=2000, product_rows=100),
        observe=120,
        top=60,
    )


@pytest.fixture(scope="module")
def tpcc_setup():
    return _observed(TpccWorkload(scale=1, seed=11), observe=200, top=80)


def _search(db, templates, candidates, selector_cls, seed):
    selector = selector_cls(
        BenefitEstimator(db),
        iterations=24,
        rollouts=2,
        patience=10**9,
        rng=random.Random(seed),
    )
    existing = db.index_defs()
    return selector.search(
        existing=existing,
        candidates=candidates,
        templates=templates,
        protected=[d for d in existing if d.unique],
    )


def _scalar_costs(db, templates, config):
    """Per-template weighted costs, one ``query_cost`` call each, on a
    fresh estimator so no batch-planned entry can leak in."""
    scalar = BenefitEstimator(db)
    return np.array(
        [
            max(t.weight, 0.1) * scalar.query_cost(t, config)
            for t in templates
        ]
    )


class TestBatchScalarParity:
    """Vectorized batch costing == per-template scalar costing, exactly."""

    @pytest.mark.parametrize("workload", ["banking", "tpcc"])
    def test_workload_costs_exact(
        self, workload, banking_setup, tpcc_setup
    ):
        db, templates, candidates = (
            banking_setup if workload == "banking" else tpcc_setup
        )
        batched = BenefitEstimator(db)
        rng = random.Random(5)
        for _ in range(12):
            config = rng.sample(
                candidates, k=rng.randrange(0, min(len(candidates), 8))
            )
            got = batched.workload_costs(templates, config)
            want = _scalar_costs(db, templates, config)
            assert got.tolist() == want.tolist()

    def test_delta_matches_scalar_recompute(self, tpcc_setup):
        db, templates, candidates = tpcc_setup
        batched = BenefitEstimator(db)
        rng = random.Random(9)
        parent = rng.sample(candidates, k=min(len(candidates), 5))
        parent_costs = batched.workload_costs(templates, parent)
        for _ in range(6):
            child = list(parent)
            child.remove(rng.choice(child))
            child.append(
                rng.choice([c for c in candidates if c not in child])
            )
            total, costs = batched.workload_cost_delta(
                parent_costs, templates, parent, child
            )
            want = _scalar_costs(db, templates, child)
            assert costs.tolist() == want.tolist()
            assert total == float(want.sum())

    def test_search_identical_across_estimator_modes(self, tpcc_setup):
        db, templates, candidates = tpcc_setup
        delta = _search(
            db, templates, candidates, MctsIndexSelector, seed=17
        )
        full = _search(
            db, templates, candidates, FullCostingSelector, seed=17
        )
        assert delta.best_benefit == full.best_benefit
        assert frozenset(delta.best_config) == frozenset(full.best_config)
        assert delta.evaluations == full.evaluations
