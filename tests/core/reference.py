"""Test-side reference implementations the production paths must match."""

from __future__ import annotations

from repro.core.mcts import MctsIndexSelector


class FullCostingSelector(MctsIndexSelector):
    """MCTS that re-costs the whole workload for every configuration.

    Ignores the delta reference and goes through
    :meth:`BenefitEstimator.workload_costs` each time, so a search run
    with it must follow the same trajectory as the delta-costing
    selector: delta totals are bitwise identical to full recomputation.
    """

    def _cost_of(self, config, ref=None):
        costs = self.estimator.workload_costs(
            self._templates, self._defs_of(config)
        )
        return float(costs.sum()), costs
