"""Tests for link modelling and candidate enumeration."""

import dataclasses

import pytest

from repro.noc.geometry import Grid3D
from repro.noc.links import (
    Link,
    LinkKind,
    candidate_links,
    candidate_links_by_endpoint,
    candidate_planar_links,
    candidate_vertical_links,
    is_feasible_link,
    link_kind,
    link_length,
)
from repro.noc.platform import PlatformConfig


class TestLink:
    def test_make_normalises_order(self):
        assert Link.make(5, 2) == Link(2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(3, 3)

    def test_unordered_construction_rejected(self):
        with pytest.raises(ValueError):
            Link(5, 2)

    def test_other_endpoint(self):
        link = Link(1, 4)
        assert link.other(1) == 4
        assert link.other(4) == 1
        with pytest.raises(ValueError):
            link.other(2)

    def test_links_sort_lexicographically(self):
        links = [Link(2, 5), Link(0, 3), Link(0, 1)]
        assert sorted(links) == [Link(0, 1), Link(0, 3), Link(2, 5)]


class TestClassification:
    def test_planar_and_vertical_kinds(self, tiny_config):
        grid = tiny_config.grid
        planar = Link(0, 1)  # same layer neighbours
        vertical = Link(0, 4)  # same column, adjacent layer in a 2x2x2 grid
        assert link_kind(planar, grid) is LinkKind.PLANAR
        assert link_kind(vertical, grid) is LinkKind.VERTICAL

    def test_diagonal_link_rejected(self, tiny_config):
        grid = tiny_config.grid
        with pytest.raises(ValueError):
            link_kind(Link(0, 5), grid)  # different layer, different column

    def test_link_length_is_manhattan(self):
        grid = Grid3D(4, 1)
        assert link_length(Link(0, 3), grid) == 3
        assert link_length(Link(0, 1), grid) == 1


class TestFeasibility:
    def test_planar_length_limit(self):
        config = PlatformConfig.paper_4x4x4()
        grid = config.grid
        # Opposite corners of one 4x4 layer are 6 units apart (> 5).
        far = Link(0, 15)
        assert grid.coord(0).same_layer(grid.coord(15))
        assert not is_feasible_link(far, config)

    def test_vertical_must_be_adjacent_layers(self):
        config = PlatformConfig.paper_4x4x4()
        two_layers_apart = Link(0, 32)
        assert not is_feasible_link(two_layers_apart, config)
        adjacent = Link(0, 16)
        assert is_feasible_link(adjacent, config)


class TestCandidateEnumeration:
    def test_vertical_candidates_count(self):
        config = PlatformConfig.paper_4x4x4()
        assert len(candidate_vertical_links(config)) == config.max_vertical_candidates

    def test_planar_candidates_respect_length(self):
        config = PlatformConfig.small_3x3x3()
        grid = config.grid
        for link in candidate_planar_links(config):
            assert 1 <= grid.planar_distance(link.a, link.b) <= config.max_planar_length
            assert grid.coord(link.a).same_layer(grid.coord(link.b))

    def test_candidates_are_unique_and_combined(self):
        config = PlatformConfig.tiny_2x2x2()
        all_links = candidate_links(config)
        assert len(all_links) == len(set(all_links))
        assert len(all_links) == len(candidate_planar_links(config)) + len(candidate_vertical_links(config))

    def test_tiny_planar_candidates(self):
        # In a 2x2 layer every pair of tiles is within distance 2, so each
        # layer contributes C(4,2) = 6 planar candidates.
        config = PlatformConfig.tiny_2x2x2()
        assert len(candidate_planar_links(config)) == 12


# ---------------------------------------------------------------------- #
# The cached pools and the coordinate-free link checks against the
# coordinate-based reference scans they replaced.
# ---------------------------------------------------------------------- #
PLATFORM_FACTORIES = [
    PlatformConfig.tiny_2x2x2,
    PlatformConfig.small_3x3x3,
    PlatformConfig.paper_4x4x4,
    PlatformConfig.big_8x8x4,
    PlatformConfig.flat_4x4x1,
    lambda: dataclasses.replace(PlatformConfig.paper_4x4x4(), max_planar_length=2),
]
PLATFORM_IDS = ["tiny", "small", "paper", "big", "flat", "paper-max-length-2"]


@pytest.fixture(params=PLATFORM_FACTORIES, ids=PLATFORM_IDS)
def platform(request) -> PlatformConfig:
    return request.param()


def reference_planar_links(config: PlatformConfig) -> list[Link]:
    """The O(N^2) TileCoord scan the cached planar pool replaced."""
    grid = config.grid
    candidates = []
    for a in range(config.num_tiles):
        coord_a = grid.coord(a)
        for b in range(a + 1, config.num_tiles):
            coord_b = grid.coord(b)
            if not coord_a.same_layer(coord_b):
                continue
            if 1 <= coord_a.planar_distance(coord_b) <= config.max_planar_length:
                candidates.append(Link(a, b))
    return candidates


def reference_vertical_links(config: PlatformConfig) -> list[Link]:
    grid = config.grid
    return [
        Link(a, b)
        for a in range(config.num_tiles)
        for b in grid.vertical_neighbors(a)
        if b > a
    ]


def reference_link_kind(link: Link, grid: Grid3D) -> LinkKind:
    ca, cb = grid.coord(link.a), grid.coord(link.b)
    if ca.same_layer(cb):
        return LinkKind.PLANAR
    if ca.same_column(cb):
        return LinkKind.VERTICAL
    raise ValueError("diagonal")


def reference_is_feasible_link(link: Link, config: PlatformConfig) -> bool:
    ca, cb = config.grid.coord(link.a), config.grid.coord(link.b)
    if ca.same_layer(cb):
        return 1 <= ca.planar_distance(cb) <= config.max_planar_length
    if ca.same_column(cb):
        return abs(ca.z - cb.z) == 1
    return False


class TestCachedPools:
    def test_pools_equal_the_reference_scan_in_order(self, platform):
        assert list(candidate_planar_links(platform)) == reference_planar_links(platform)
        assert list(candidate_vertical_links(platform)) == reference_vertical_links(platform)
        assert candidate_links(platform) == (
            reference_planar_links(platform) + reference_vertical_links(platform)
        )

    def test_pools_are_tuples_built_once(self, platform):
        for pool in (candidate_planar_links, candidate_vertical_links, candidate_links_by_endpoint):
            first = pool(platform)
            assert isinstance(first, tuple)
            assert pool(platform) is first
            assert pool(dataclasses.replace(platform, name="renamed")) is first

    def test_candidate_links_stays_a_fresh_list(self, platform):
        first = candidate_links(platform)
        assert isinstance(first, list)
        assert candidate_links(platform) is not first

    def test_by_endpoint_lists_incident_candidates_in_pool_order(self, platform):
        by_endpoint = candidate_links_by_endpoint(platform)
        assert len(by_endpoint) == platform.num_tiles
        pool = reference_planar_links(platform) + reference_vertical_links(platform)
        for tile, incident in enumerate(by_endpoint):
            assert list(incident) == [link for link in pool if tile in (link.a, link.b)]

    def test_max_planar_length_keys_the_cache(self):
        paper = PlatformConfig.paper_4x4x4()
        shorter = dataclasses.replace(paper, max_planar_length=2)
        assert len(candidate_planar_links(shorter)) < len(candidate_planar_links(paper))


class TestCoordinateFreeChecks:
    def test_kind_and_feasibility_match_the_coordinate_reference(self, platform):
        grid = platform.grid
        for a in range(platform.num_tiles):
            for b in range(a + 1, platform.num_tiles):
                link = Link(a, b)
                assert is_feasible_link(link, platform) == reference_is_feasible_link(link, platform)
                try:
                    expected = reference_link_kind(link, grid)
                except ValueError:
                    with pytest.raises(ValueError):
                        link_kind(link, grid)
                else:
                    assert link_kind(link, grid) is expected

    def test_out_of_range_tiles_raise(self, platform):
        grid = platform.grid
        num_tiles = platform.num_tiles
        for link in (Link(0, num_tiles), Link(-1, 0), Link(num_tiles, num_tiles + 1)):
            with pytest.raises(ValueError, match="out of range"):
                link_kind(link, grid)
            with pytest.raises(ValueError, match="out of range"):
                is_feasible_link(link, platform)
