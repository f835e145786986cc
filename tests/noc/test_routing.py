"""Tests for deterministic shortest-path routing."""

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.design import NocDesign
from repro.noc.links import Link
from repro.noc.mesh import mesh_design
from repro.noc.routing import RoutingTables


@pytest.fixture(scope="module")
def tiny_routing(tiny_config):
    design = mesh_design(tiny_config)
    return design, RoutingTables(design, tiny_config.grid)


class TestBasicRouting:
    def test_self_route_is_empty(self, tiny_routing):
        _, routing = tiny_routing
        assert routing.path_links(0, 0) == []
        assert routing.path_tiles(0, 0) == [0]
        assert routing.hops(0, 0) == 0

    def test_all_pairs_reachable_on_mesh(self, tiny_routing):
        design, routing = tiny_routing
        for src in range(design.num_tiles):
            for dst in range(design.num_tiles):
                assert routing.is_reachable(src, dst)

    def test_path_tiles_form_a_walk_over_links(self, tiny_routing):
        design, routing = tiny_routing
        link_set = design.link_set()
        for src in range(design.num_tiles):
            for dst in range(design.num_tiles):
                tiles = routing.path_tiles(src, dst)
                assert tiles[0] == src and tiles[-1] == dst
                for a, b in zip(tiles[:-1], tiles[1:]):
                    assert Link.make(a, b) in link_set

    def test_hops_equals_number_of_links(self, tiny_routing):
        design, routing = tiny_routing
        for src in range(design.num_tiles):
            for dst in range(design.num_tiles):
                assert routing.hops(src, dst) == len(routing.path_links(src, dst))

    def test_adjacent_tiles_route_directly(self, tiny_routing):
        design, routing = tiny_routing
        link = design.links[0]
        assert routing.hops(link.a, link.b) == 1

    def test_routes_are_minimal_on_mesh(self, tiny_config, tiny_routing):
        design, routing = tiny_routing
        grid = tiny_config.grid
        # On a full mesh the minimum hop count equals the Manhattan distance.
        for src in range(design.num_tiles):
            for dst in range(design.num_tiles):
                assert routing.hops(src, dst) == grid.manhattan_distance(src, dst)

    def test_path_length_accumulates_link_lengths(self, tiny_config, tiny_routing):
        design, routing = tiny_routing
        for src in range(design.num_tiles):
            for dst in range(design.num_tiles):
                links = routing.path_links(src, dst)
                expected = float(routing.link_lengths[links].sum()) if links else 0.0
                assert routing.path_length(src, dst) == pytest.approx(expected)


class TestDeterminism:
    def test_same_design_same_routes(self, small_config):
        design = random_design(small_config, np.random.default_rng(0))
        first = RoutingTables(design, small_config.grid)
        second = RoutingTables(design, small_config.grid)
        for src in range(0, design.num_tiles, 5):
            for dst in range(0, design.num_tiles, 3):
                assert first.path_links(src, dst) == second.path_links(src, dst)

    def test_fresh_builds_are_byte_identical(self, small_config):
        """Two builds of one design agree byte for byte on every table, so a
        cell that rebuilds a topology reproduces another cell's routes."""
        design = random_design(small_config, np.random.default_rng(1))
        first = RoutingTables(design, small_config.grid)
        second = RoutingTables(design, small_config.grid)
        assert first._distance.tobytes() == second._distance.tobytes()
        assert first._predecessors.tobytes() == second._predecessors.tobytes()
        for name in ("pair_link_incidence", "pair_tile_incidence"):
            left, right = getattr(first, name)(), getattr(second, name)()
            for attr in ("indptr", "indices", "data"):
                assert getattr(left, attr).tobytes() == getattr(right, attr).tobytes()
        assert first.pair_hops().tobytes() == second.pair_hops().tobytes()
        assert first.pair_lengths().tobytes() == second.pair_lengths().tobytes()


class TestDisconnected:
    def test_unreachable_raises(self, tiny_config):
        design = mesh_design(tiny_config)
        # Remove every link attached to tile 7 to isolate it.
        links = tuple(l for l in design.links if 7 not in l.endpoints())
        broken = NocDesign(placement=design.placement, links=links)
        routing = RoutingTables(broken, tiny_config.grid)
        assert not routing.is_reachable(0, 7)
        with pytest.raises(ValueError, match="no route"):
            routing.path_links(0, 7)
