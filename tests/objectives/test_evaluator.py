"""Tests for the composite objective evaluator and scenarios."""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.moves import MoveGenerator
from repro.objectives.evaluator import (
    OBJECTIVE_NAMES,
    ObjectiveEvaluator,
    ObjectiveScenario,
    SCENARIO_3OBJ,
    SCENARIO_4OBJ,
    SCENARIO_5OBJ,
    scenario_for,
)
from repro.scenarios.registry import parse_scenario


class TestScenarios:
    def test_paper_scenarios(self):
        assert scenario_for(3) is SCENARIO_3OBJ
        assert scenario_for(4) is SCENARIO_4OBJ
        assert scenario_for(5) is SCENARIO_5OBJ
        assert SCENARIO_3OBJ.objectives == OBJECTIVE_NAMES[:3]
        assert SCENARIO_5OBJ.num_objectives == 5

    def test_invalid_scenario_count(self):
        with pytest.raises(ValueError):
            scenario_for(2)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveScenario("bad", ("traffic_mean", "bogus"))

    def test_duplicate_objective_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveScenario("bad", ("traffic_mean", "traffic_mean"))

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveScenario("bad", ("traffic_mean",))


class TestEvaluator:
    def test_vector_length_matches_scenario(self, tiny_workload, tiny_designs):
        for count in (3, 4, 5):
            evaluator = ObjectiveEvaluator(tiny_workload, scenario_for(count))
            assert evaluator.evaluate(tiny_designs[0]).shape == (count,)

    def test_prefix_consistency_across_scenarios(self, tiny_workload, tiny_designs):
        design = tiny_designs[0]
        three = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ).evaluate(design)
        five = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ).evaluate(design)
        assert np.allclose(three, five[:3])

    def test_all_objectives_nonnegative(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ)
        for design in tiny_designs:
            assert np.all(evaluator.evaluate(design) >= 0)

    def test_cache_hits_counted(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        first = evaluator.evaluate(tiny_designs[0])
        second = evaluator.evaluate(tiny_designs[0])
        assert np.allclose(first, second)
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1

    def test_cache_can_be_disabled(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=0)
        evaluator.evaluate(tiny_designs[0])
        evaluator.evaluate(tiny_designs[0])
        assert evaluator.evaluations == 2

    def test_results_are_readonly_views_protecting_the_cache(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        first = evaluator.evaluate(tiny_designs[0])
        with pytest.raises(ValueError):
            first[0] = -1.0
        assert evaluator.evaluate(tiny_designs[0])[0] >= 0
        # Callers that need a mutable vector copy explicitly.
        mutable = first.copy()
        mutable[0] = -1.0
        assert evaluator.evaluate(tiny_designs[0])[0] >= 0

    def test_evaluate_many_shape(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_4OBJ)
        matrix = evaluator.evaluate_many(list(tiny_designs))
        assert matrix.shape == (len(tiny_designs), 4)

    def test_evaluate_many_partitions_hits_and_misses(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        warm = evaluator.evaluate(tiny_designs[0])
        batch = evaluator.evaluate_many([tiny_designs[0], tiny_designs[1], tiny_designs[1]])
        # One pre-warmed hit, one computed miss reused for its duplicate.
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 2
        assert np.array_equal(batch[0], warm)
        assert np.array_equal(batch[1], batch[2])

    def test_evaluate_many_returns_writable_matrix(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        matrix = evaluator.evaluate_many(list(tiny_designs[:2]))
        matrix[0, 0] = -1.0  # callers own the batch matrix
        assert evaluator.evaluate(tiny_designs[0])[0] >= 0

    def test_evaluate_many_empty_batch(self, tiny_workload):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ)
        assert evaluator.evaluate_many([]).shape == (0, 5)

    def test_evaluate_many_uncached_counts_match_scalar_loop(self, tiny_workload, tiny_designs):
        # With caching disabled the scalar loop recomputes duplicates, so the
        # batch path must report the same evaluation count (even though it
        # computes the duplicate only once).
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, cache_size=0)
        evaluator.evaluate_many([tiny_designs[0], tiny_designs[0], tiny_designs[1]])
        assert evaluator.evaluations == 3
        assert evaluator.cache_hits == 0

    def test_reference_path_bypasses_cache(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ)
        fast = evaluator.evaluate(tiny_designs[0])
        reference = evaluator.evaluate_reference(tiny_designs[0])
        assert evaluator.evaluations == 1
        np.testing.assert_allclose(fast, reference, rtol=1e-12)

    def test_full_report_contains_all_objectives(self, tiny_workload, tiny_designs):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        report = evaluator.full_report(tiny_designs[0])
        for name in OBJECTIVE_NAMES:
            assert name in report
        assert "peak_temperature" in report

    def test_objective_names_property(self, tiny_workload):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_4OBJ)
        assert evaluator.objective_names == SCENARIO_4OBJ.objectives
        assert evaluator.num_objectives == 4


def _brood(workload, parent, size=6, seed=3):
    moves = MoveGenerator(workload.config, workload)
    rng = np.random.default_rng(seed)
    return [moves.random_neighbor(parent, rng) for _ in range(size)]


class TestBatchPath:
    """evaluate_many is the single batch path: no process pool behind it."""

    def test_duplicates_and_annotated_moves_bitwise(self, tiny_workload):
        """Duplicates collapse to one computation and move-annotated children
        take the engine's repair path; the batch must stay bit-identical to
        fresh per-design builds."""
        parent = random_design(tiny_workload.config, 7)
        brood = _brood(tiny_workload, parent)
        batch = [parent] + brood + [brood[0], parent]
        fresh = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ, cache_size=0, routing_cache=False)
        expected = np.stack([fresh.evaluate(design) for design in batch])
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ, cache_size=0)
        np.testing.assert_array_equal(evaluator.evaluate_many(batch), expected)

    def test_routing_cache_stats_are_the_private_engine_counters(self, tiny_workload):
        """Each evaluator owns its engine, so its stats are the engine's raw
        counters: a second evaluator starts from zero however much the first
        one has routed."""
        parent = random_design(tiny_workload.config, 8)
        batch = [parent] + _brood(tiny_workload, parent, size=8)
        first = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ, cache_size=0)
        first.evaluate_many(batch)
        stats = first.routing_cache_stats()
        assert stats == {"enabled": True, **first.routing_engine.stats()}
        assert stats["requests"] > 0
        assert stats["cached_topologies"] == len(first.routing_engine)

        second = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ, cache_size=0)
        assert second.routing_engine is not first.routing_engine
        assert second.routing_cache_stats()["requests"] == 0
        second.evaluate_many(batch)
        assert second.routing_cache_stats() == stats

    def test_routing_cache_stats_without_engine_are_zero(self, tiny_workload):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ, routing_cache=False)
        evaluator.evaluate(random_design(tiny_workload.config, 10))
        assert evaluator.routing_engine is None
        assert evaluator.routing_cache_stats() == {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "incremental_repairs": 0,
            "requests": 0,
            "hit_rate": 0.0,
            "cached_topologies": 0,
        }

    def test_second_pass_over_the_same_designs_only_hits(self, tiny_workload, tiny_designs):
        """With the objective cache off every evaluation routes; the engine
        built each topology on the first pass and serves the second from
        its cache."""
        designs = list(tiny_designs)
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_5OBJ, cache_size=0)
        for design in designs:
            evaluator.evaluate(design)
        first = evaluator.routing_cache_stats()
        assert first["requests"] == len(designs)
        evaluator.evaluate_many(designs)
        second = evaluator.routing_cache_stats()
        assert second["requests"] == 2 * len(designs)
        assert second["hits"] == first["hits"] + len(designs)
        assert second["misses"] == first["misses"]
        assert second["incremental_repairs"] == first["incremental_repairs"]

    def test_routing_cache_size_bounds_the_engine(self, tiny_workload):
        evaluator = ObjectiveEvaluator(
            tiny_workload, SCENARIO_3OBJ, cache_size=0, routing_cache_size=2
        )
        designs = [random_design(tiny_workload.config, seed) for seed in range(4)]
        assert len({design.links for design in designs}) == 4
        evaluator.evaluate_many(designs)
        assert evaluator.routing_engine.cache_size == 2
        assert evaluator.routing_cache_stats()["cached_topologies"] == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "link_failure",
            "link_failure(k=2,mode=derate,derate_factor=0.25)",
            "thermal_derating(factor=2.0,region=upper)",
        ],
    )
    def test_faulted_batch_matches_looped_evaluate(self, tiny_workload, tiny_designs, spec):
        """Scenario transforms run per design inside the batch exactly as in
        evaluate, and agree with the scalar reference path."""
        designs = list(tiny_designs) + [tiny_designs[0]]
        model = parse_scenario(spec)
        batch = ObjectiveEvaluator(
            tiny_workload, SCENARIO_5OBJ, scenario_model=model, scenario_seed=3
        ).evaluate_many(designs)
        looped = ObjectiveEvaluator(
            tiny_workload, SCENARIO_5OBJ, scenario_model=model, scenario_seed=3
        )
        np.testing.assert_array_equal(batch, np.stack([looped.evaluate(d) for d in designs]))
        np.testing.assert_allclose(
            batch, np.stack([looped.evaluate_reference(d) for d in designs]), rtol=1e-12
        )

    @pytest.mark.parametrize("option", [{"parallel": True}, {"max_workers": 2}])
    def test_removed_pool_options_rejected(self, tiny_workload, tiny_designs, option):
        evaluator = ObjectiveEvaluator(tiny_workload, SCENARIO_3OBJ)
        with pytest.raises(TypeError):
            evaluator.evaluate_many(list(tiny_designs[:2]), **option)
