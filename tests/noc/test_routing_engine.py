"""Tests for the cross-design route cache (RoutingEngine) and move deltas."""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.design import MoveDelta, NocDesign, annotate_move, move_delta_of
from repro.noc.moves import MoveGenerator, mutate
from repro.noc.crossover import crossover
from repro.noc.routing import RoutingTables
from repro.noc.routing_engine import RoutingEngine


def assert_tables_identical(left: RoutingTables, right: RoutingTables) -> None:
    """Full structural equality: distances, routes, incidence matrices."""
    np.testing.assert_array_equal(left._predecessors, right._predecessors)
    assert np.allclose(left._distance, right._distance, rtol=0, atol=1e-9)
    assert (left.pair_link_incidence() != right.pair_link_incidence()).nnz == 0
    assert (left.pair_tile_incidence() != right.pair_tile_incidence()).nnz == 0
    np.testing.assert_array_equal(left.pair_hops(), right.pair_hops())
    np.testing.assert_array_equal(left.pair_lengths(), right.pair_lengths())
    np.testing.assert_array_equal(left.reachable_pairs(), right.reachable_pairs())


class TestMoveDeltas:
    def test_placement_moves_annotate_placement_only_deltas(self, small_config, rng):
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        swapped = moves.swap_pe(design, rng)
        delta = move_delta_of(swapped)
        assert delta is not None
        assert delta.kind == "swap_pe"
        assert delta.placement_only
        assert delta.tiles_swapped is not None
        assert delta.parent_links == design.links

    def test_rewire_annotates_link_delta(self, small_config, rng):
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        delta = move_delta_of(rewired)
        assert delta.kind == "rewire_link"
        assert not delta.placement_only
        assert delta.num_link_changes == 2
        assert set(delta.links_removed) == set(design.links) - set(rewired.links)
        assert set(delta.links_added) == set(rewired.links) - set(design.links)

    def test_crossover_annotates_against_closest_parent(self, small_config, rng):
        parent_a = random_design(small_config, rng)
        parent_b = random_design(small_config, rng)
        child = crossover(parent_a, parent_b, small_config, rng)
        delta = move_delta_of(child)
        assert delta is not None and delta.kind == "crossover"
        assert delta.parent_links in (parent_a.links, parent_b.links)
        parent_set = set(delta.parent_links)
        assert set(delta.links_added) == set(child.links) - parent_set
        assert set(delta.links_removed) == parent_set - set(child.links)

    def test_multi_move_mutation_composes_delta_against_original(self, small_config, rng):
        design = random_design(small_config, rng)
        mutated = mutate(design, small_config, rng, strength=3)
        delta = move_delta_of(mutated)
        assert delta is not None
        assert delta.parent_links == design.links

    def test_annotation_does_not_change_identity(self, small_config, rng):
        design = random_design(small_config, rng)
        twin = NocDesign(placement=design.placement, links=design.links)
        annotated = annotate_move(twin, MoveDelta(kind="test", parent_links=design.links))
        assert annotated == design
        assert hash(annotated) == hash(design)
        assert annotated.key() == design.key()


class TestRoutingEngine:
    def test_same_link_set_is_a_hit_across_placements(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        first = engine.tables(design)
        swapped = moves.swap_pe(design, rng)
        second = engine.tables(swapped)
        assert second is first  # shared read-only instance, no rebuild
        assert engine.stats() == {
            "hits": 1,
            "misses": 1,
            "incremental_repairs": 0,
            "requests": 2,
            "hit_rate": 0.5,
            "cached_topologies": 1,
        }

    def test_link_move_repairs_incrementally_and_matches_fresh(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        repaired = engine.tables(rewired)
        assert engine.incremental_repairs == 1
        assert_tables_identical(repaired, RoutingTables(rewired, small_config.grid))

    def test_unknown_parent_falls_back_to_fresh_build(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        tables = engine.tables(rewired)  # parent never seen by this engine
        assert engine.misses == 1 and engine.incremental_repairs == 0
        assert_tables_identical(tables, RoutingTables(rewired, small_config.grid))

    def test_stale_delta_hint_is_harmless(self, small_config, rng):
        """A wrong annotation may cost a rebuild but never a wrong route."""
        engine = RoutingEngine(small_config.grid)
        design_a = random_design(small_config, rng)
        design_b = random_design(small_config, rng)
        engine.tables(design_a)
        # Lie: claim design_b is one move away from design_a.
        forged = annotate_move(
            NocDesign(placement=design_b.placement, links=design_b.links),
            MoveDelta(kind="forged", parent_links=design_a.links),
        )
        tables = engine.tables(forged)
        assert_tables_identical(tables, RoutingTables(design_b, small_config.grid))

    def test_lru_eviction_bounds_cache(self, small_config):
        engine = RoutingEngine(small_config.grid, cache_size=2)
        designs = [random_design(small_config, seed) for seed in range(4)]
        for design in designs:
            engine.tables(design)
        assert len(engine) == 2
        assert engine.tables_for_links(designs[0].links) is None
        assert engine.tables_for_links(designs[-1].links) is not None

    def test_incremental_false_disables_repairs(self, small_config, rng):
        engine = RoutingEngine(small_config.grid, incremental=False)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        engine.tables(rewired)
        assert engine.incremental_repairs == 0
        assert engine.misses == 2

    def test_zero_repair_fraction_disables_repairs(self, small_config, rng):
        engine = RoutingEngine(small_config.grid, max_repair_fraction=0.0)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        engine.tables(rewired)
        assert engine.incremental_repairs == 0
        assert engine.misses == 2

    def test_invalid_parameters_rejected(self, small_config):
        with pytest.raises(ValueError):
            RoutingEngine(small_config.grid, cache_size=0)
        with pytest.raises(ValueError):
            RoutingEngine(small_config.grid, max_repair_fraction=1.5)

    def test_fresh_engine_reports_zero_counters(self, small_config):
        engine = RoutingEngine(small_config.grid)
        assert len(engine) == 0
        assert engine.stats() == {
            "hits": 0,
            "misses": 0,
            "incremental_repairs": 0,
            "requests": 0,
            "hit_rate": 0.0,
            "cached_topologies": 0,
        }

    def test_hit_refreshes_lru_recency(self, small_config):
        engine = RoutingEngine(small_config.grid, cache_size=2)
        first, second, third = (random_design(small_config, seed) for seed in range(3))
        engine.tables(first)
        engine.tables(second)
        engine.tables(first)  # hit: `first` becomes the most recent entry
        engine.tables(third)  # evicts the least recently used, `second`
        assert engine.tables_for_links(first.links) is not None
        assert engine.tables_for_links(second.links) is None
        assert engine.tables_for_links(third.links) is not None

    def test_tables_for_links_neither_builds_nor_counts(self, small_config):
        engine = RoutingEngine(small_config.grid)
        design = random_design(small_config, 4)
        assert engine.tables_for_links(design.links) is None
        built = engine.tables(design)
        assert engine.tables_for_links(design.links) is built
        assert engine.requests == 1 and len(engine) == 1

    def test_clear_drops_topologies_but_keeps_counters(self, small_config):
        engine = RoutingEngine(small_config.grid)
        design = random_design(small_config, 5)
        before = engine.tables(design)
        engine.tables(design)
        engine.clear()
        assert len(engine) == 0
        assert (engine.hits, engine.misses) == (1, 1)
        after = engine.tables(design)  # rebuilt from scratch after the clear
        assert after is not before
        assert engine.misses == 2
        assert_tables_identical(after, before)

    def test_repaired_tables_are_cached_for_later_hits(self, small_config, rng):
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        repaired = engine.tables(rewired)
        assert engine.tables(rewired) is repaired
        assert (engine.misses, engine.incremental_repairs, engine.hits) == (1, 1, 1)
        assert len(engine) == 2

    def test_tiny_repair_fraction_still_admits_two_link_rewire(self, small_config, rng):
        """The repair budget never drops below the two links of an
        elementary rewire, however small the fraction."""
        engine = RoutingEngine(small_config.grid, max_repair_fraction=1e-6)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        engine.tables(design)
        rewired = moves.rewire_link(design, rng)
        assert rewired is not None
        repaired = engine.tables(rewired)
        assert engine.incremental_repairs == 1
        assert_tables_identical(repaired, RoutingTables(rewired, small_config.grid))

    def test_delta_over_budget_falls_back_to_fresh_build(self, small_config):
        engine = RoutingEngine(small_config.grid, max_repair_fraction=0.05)
        parent = random_design(small_config, 6)
        other = random_design(small_config, 7)
        changed = len(frozenset(parent.links).symmetric_difference(other.links))
        assert changed > max(2, int(0.05 * other.num_links))
        child = annotate_move(
            NocDesign(placement=other.placement, links=other.links),
            MoveDelta(kind="crossover", parent_links=parent.links),
        )
        engine.tables(parent)
        tables = engine.tables(child)
        assert (engine.misses, engine.incremental_repairs) == (2, 0)
        assert_tables_identical(tables, RoutingTables(other, small_config.grid))

    def test_placement_only_child_of_unseen_parent_is_a_miss(self, small_config, rng):
        """A swap child shares its parent's link set, so with nothing cached
        there is no parent to repair from; the parent then hits."""
        engine = RoutingEngine(small_config.grid)
        moves = MoveGenerator(small_config)
        design = random_design(small_config, rng)
        swapped = moves.swap_pe(design, rng)
        engine.tables(swapped)
        assert (engine.misses, engine.incremental_repairs) == (1, 0)
        engine.tables(design)
        assert engine.hits == 1

    def test_engines_share_no_state(self, small_config):
        """Two engines on one grid each build their own tables: nothing one
        engine caches is visible to the other."""
        design = random_design(small_config, 8)
        first = RoutingEngine(small_config.grid)
        second = RoutingEngine(small_config.grid)
        built = first.tables(design)
        assert second.tables_for_links(design.links) is None
        rebuilt = second.tables(design)
        assert rebuilt is not built
        assert first.stats() == second.stats()
        assert_tables_identical(rebuilt, built)


class TestFromLinks:
    def test_from_links_matches_design_constructor(self, small_config, rng):
        design = random_design(small_config, rng)
        direct = RoutingTables(design, small_config.grid)
        indirect = RoutingTables.from_links(design.links, design.num_tiles, small_config.grid)
        assert_tables_identical(direct, indirect)

    def test_from_links_sorts_into_canonical_order(self, small_config, rng):
        design = random_design(small_config, rng)
        shuffled = list(design.links)[::-1]
        tables = RoutingTables.from_links(shuffled, design.num_tiles, small_config.grid)
        assert tables.links == design.links
