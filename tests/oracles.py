"""Reference oracles for the runtime fast paths, kept on the test side.

The library ships one path per mechanism: optimisers score broods through
``evaluate_batch`` and the objective evaluator routes through its own
:class:`~repro.noc.routing_engine.RoutingEngine`.  The slower references
those paths must reproduce exactly live here:

* the scalar optimisers (:class:`ScalarNSGA2`, :class:`ScalarMOOS`,
  :class:`ScalarMOOStage`, :class:`ScalarMOELA`) score one design per
  ``evaluate`` call — the pre-batch loops, kept verbatim;
* :class:`FreshRoutingEvaluator` builds fresh
  :class:`~repro.noc.routing.RoutingTables` for every computed design,
  bypassing the engine's cache and incremental repair.
"""

from __future__ import annotations

import numpy as np

from repro.core.moela import MOELA
from repro.core.problem import NocDesignProblem
from repro.moo.base import PopulationOptimizer
from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from repro.moo.moo_stage import MOOStage
from repro.moo.moos import MOOS
from repro.moo.nsga2 import NSGA2
from repro.moo.scalarization import tchebycheff
from repro.moo.termination import Budget
from repro.noc.routing import RoutingTables
from repro.objectives.evaluator import ObjectiveEvaluator


class ScalarInitialization(PopulationOptimizer):
    """Scores the initial population with one ``evaluate`` call per design.

    Listed *after* the optimiser in a subclass's bases, so the optimiser's own
    ``initialize`` reaches this one through ``super()``.
    """

    def initialize(self) -> None:
        self.designs = self.repair_brood(
            [self.problem.random_design(self.rng) for _ in range(self.population_size)]
        )
        self.objectives = np.array(
            [self.evaluate(design) for design in self.designs], dtype=np.float64
        )


class ScalarNSGA2(NSGA2, ScalarInitialization):
    """NSGA-II scoring each child as it is mated."""

    def step(self, iteration: int, budget: Budget) -> None:
        offspring_designs = []
        offspring_objectives = []
        while len(offspring_designs) < self.population_size:
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            child = self.repair_brood([self._mate_one()])[0]
            offspring_designs.append(child)
            offspring_objectives.append(self.evaluate(child))
        if not offspring_designs:
            return
        combined_designs = self.designs + offspring_designs
        combined_objectives = np.vstack([self.objectives, np.asarray(offspring_objectives)])
        self._survival(combined_designs, combined_objectives)


class ScalarMOOS(MOOS, ScalarInitialization):
    """MOOS whose directed local search interleaves evaluation and acceptance."""

    def _directed_local_search(
        self, start_design, start_objectives, direction: np.ndarray, iteration: int, budget: Budget
    ) -> None:
        current = start_design
        current_obj = np.asarray(start_objectives, dtype=np.float64)
        ideal = self.archive.objectives.min(axis=0) if len(self.archive) else current_obj
        start_features = np.concatenate([self.problem.features(start_design), direction])
        phv_before = hypervolume(self.archive.objectives, self.reference)
        current_scalar = tchebycheff(current_obj, direction, ideal)
        for _ in range(self.local_search_steps):
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            best_candidate = None
            best_candidate_obj = None
            best_score = 0.0
            best_scalar = current_scalar
            front = self.archive.objectives
            for _ in range(self.neighbors_per_step):
                candidate = self.problem.neighbor(current, self.rng)
                candidate_obj = self.evaluate(candidate)
                gain = hypervolume_contribution(candidate_obj, front, self.reference)
                scalar = tchebycheff(candidate_obj, direction, ideal)
                if gain > 0.0 and (gain > best_score or scalar < best_scalar):
                    best_score = gain
                    best_scalar = scalar
                    best_candidate = candidate
                    best_candidate_obj = candidate_obj
            if best_candidate is None:
                break
            current = best_candidate
            current_obj = best_candidate_obj
            current_scalar = best_scalar
            self.archive.add(current, current_obj)
        phv_after = hypervolume(self.archive.objectives, self.reference)
        self._record_training_sample(start_features, phv_after - phv_before)


class ScalarMOOStage(MOOStage, ScalarInitialization):
    """MOO-STAGE whose PHV local search scores one neighbour at a time."""

    def _phv_local_search(
        self, start_design, start_objectives, iteration: int, budget: Budget
    ) -> None:
        current = start_design
        current_obj = np.asarray(start_objectives, dtype=np.float64)
        start_features = self.problem.features(start_design)
        for _ in range(self.local_search_steps):
            if budget.exhausted(iteration, self.evaluations, self.elapsed()):
                break
            best_candidate = None
            best_candidate_obj = None
            best_gain = 0.0
            front = self.archive.objectives
            for _ in range(self.neighbors_per_step):
                candidate = self.problem.neighbor(current, self.rng)
                candidate_obj = self.evaluate(candidate)
                gain = hypervolume_contribution(candidate_obj, front, self.reference)
                if gain > best_gain:
                    best_gain = gain
                    best_candidate = candidate
                    best_candidate_obj = candidate_obj
            if best_candidate is None:
                break
            current = best_candidate
            current_obj = best_candidate_obj
            self.archive.add(current, current_obj)
        final_phv = hypervolume(self.archive.objectives, self.reference)
        self._record_training_sample(start_features, final_phv)


class ScalarMOELA(MOELA, ScalarInitialization):
    """MOELA driving its local search and EA through the per-design ``evaluate``."""

    def step(self, iteration: int, budget: Budget) -> None:
        stop = lambda: budget.exhausted(iteration, self.evaluations, self.elapsed())  # noqa: E731
        for index in self._select_start_indices(iteration):
            if stop():
                return
            self._run_local_search(int(index))
        self.eval_model.train(self.training_set)
        if stop():
            return
        self.reference = self.ea.evolve(
            self.designs,
            self.objectives,
            self.reference,
            scale=self.objective_scale(),
            rng=self.rng,
            evaluate=self.evaluate,
            evaluate_many=None,
            should_stop=stop,
            max_children=budget.remaining_evaluations(self.evaluations),
            repair=self.brood_repairer(),
        )

    def _run_local_search(self, index: int) -> None:
        outcome = self.local_search.search(
            self.designs[index],
            self.objectives[index],
            self.weights[index],
            self.reference,
            scale=self.objective_scale(),
            rng=self.rng,
            evaluate=self.evaluate,
            evaluate_many=None,
            repair=self.brood_repairer(),
        )
        self.reference = np.minimum(self.reference, outcome.objectives)
        self._update_population(outcome.design, outcome.objectives, index)
        self._extend_training_set(outcome.samples)


class FreshRoutingEvaluator(ObjectiveEvaluator):
    """Objective evaluator that builds fresh routing tables for every design."""

    def _routing(self, design):
        return RoutingTables(design, self.config.grid)


def fresh_routing_problem(workload, scenario: int = 3) -> NocDesignProblem:
    """A :class:`NocDesignProblem` scored by :class:`FreshRoutingEvaluator`."""
    problem = NocDesignProblem(workload, scenario=scenario)
    problem.evaluator = FreshRoutingEvaluator(workload, problem.scenario)
    return problem
