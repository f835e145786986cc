"""Communication links of the 3D NoC.

Two kinds of links exist (Section III):

* **planar links** connect two routers on the same layer; their Manhattan
  length is limited to ``max_planar_length`` tile units;
* **vertical links** (TSVs) connect two routers in the same single-tile stack
  on adjacent layers; at most one TSV may exist between any vertical pair.

A link is stored as an ordered pair of tile ids ``(a, b)`` with ``a < b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.noc.geometry import Grid3D, tile_xyz
from repro.noc.platform import PlatformConfig


class LinkKind(str, Enum):
    """Classification of a link."""

    PLANAR = "planar"
    VERTICAL = "vertical"


@dataclass(frozen=True, order=True)
class Link:
    """An undirected link between two tiles (stored with ``a < b``)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        # Canonicalise to Python ints: numpy endpoints leak in from array
        # code, and anything keyed on a link's textual form (e.g. the
        # scenario RNG streams hashing str(design.key())) must not depend
        # on whether a caller passed np.int64(4) or 4.
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        if self.a == self.b:
            raise ValueError("a link cannot connect a tile to itself")
        if self.a > self.b:
            raise ValueError("links must be stored with a < b; use Link.make()")

    @classmethod
    def make(cls, a: int, b: int) -> "Link":
        """Create a link with endpoints normalised to ``a < b``."""
        return cls(min(a, b), max(a, b))

    def endpoints(self) -> tuple[int, int]:
        """Return the two tile ids connected by this link."""
        return (self.a, self.b)

    def other(self, tile_id: int) -> int:
        """Return the opposite endpoint from ``tile_id``."""
        if tile_id == self.a:
            return self.b
        if tile_id == self.b:
            return self.a
        raise ValueError(f"tile {tile_id} is not an endpoint of {self}")


def _check_range(link: Link, num_tiles: int) -> None:
    """Raise ``ValueError`` when an endpoint lies outside a grid of ``num_tiles`` tiles."""
    if link.a < 0 or link.b >= num_tiles:
        raise ValueError(f"{link} has a tile_id out of range [0, {num_tiles})")


def link_kind(link: Link, grid: Grid3D) -> LinkKind:
    """Classify a link as planar (same layer) or vertical (same column)."""
    n = grid.n
    _check_range(link, n * n * grid.layers)
    x_a, y_a, z_a = tile_xyz(link.a, n)
    x_b, y_b, z_b = tile_xyz(link.b, n)
    if z_a == z_b:
        return LinkKind.PLANAR
    if x_a == x_b and y_a == y_b:
        return LinkKind.VERTICAL
    raise ValueError(f"{link} is neither planar nor vertical (diagonal links are not allowed)")


def link_length(link: Link, grid: Grid3D) -> int:
    """Physical length of a link in tile units (``d_k`` of the energy model)."""
    return grid.manhattan_distance(link.a, link.b)


def link_lengths_array(links: Sequence[Link] | Iterable[Link], grid: Grid3D) -> np.ndarray:
    """Vectorized :func:`link_length` for a sequence of links (``d_k`` vector).

    The single vectorized twin of the scalar metric — batch consumers
    (routing tables, design statistics) call this so the length formula lives
    in one module.
    """
    links = list(links)
    num = len(links)
    ends_a = np.fromiter((link.a for link in links), dtype=np.int64, count=num)
    ends_b = np.fromiter((link.b for link in links), dtype=np.int64, count=num)
    xa, ya, za = grid.coords_arrays(ends_a)
    xb, yb, zb = grid.coords_arrays(ends_b)
    return (np.abs(xa - xb) + np.abs(ya - yb) + np.abs(za - zb)).astype(np.float64)


def is_feasible_link(link: Link, config: PlatformConfig) -> bool:
    """True when the link respects planar-length / vertical-adjacency rules."""
    n = config.n
    _check_range(link, n * n * config.layers)
    x_a, y_a, z_a = tile_xyz(link.a, n)
    x_b, y_b, z_b = tile_xyz(link.b, n)
    if z_a == z_b:
        return 1 <= abs(x_a - x_b) + abs(y_a - y_b) <= config.max_planar_length
    if x_a == x_b and y_a == y_b:
        return abs(z_a - z_b) == 1
    return False


@lru_cache(maxsize=16)
def _candidate_pools(n: int, layers: int, max_planar_length: int) -> tuple[tuple, tuple, tuple]:
    """Planar pool, vertical pool and per-tile incident candidates, built once per geometry.

    Every pool is in the ``(a, b)`` row-major order the seeded operators index into.
    """
    grid = Grid3D(n, layers)
    num_tiles, per_layer = grid.num_tiles, grid.tiles_per_layer
    x, y, z = grid.coords_arrays(np.arange(num_tiles))
    ends_a, ends_b = np.triu_indices(num_tiles, k=1)
    distance = np.abs(x[ends_a] - x[ends_b]) + np.abs(y[ends_a] - y[ends_b])
    keep = (z[ends_a] == z[ends_b]) & (distance <= max_planar_length)
    planar = tuple(map(Link, ends_a[keep].tolist(), ends_b[keep].tolist()))
    vertical = tuple(Link(a, a + per_layer) for a in range(num_tiles - per_layer))
    incident: list[list[Link]] = [[] for _ in range(num_tiles)]
    for link in planar + vertical:
        incident[link.a].append(link)
        incident[link.b].append(link)
    return planar, vertical, tuple(map(tuple, incident))


def candidate_planar_links(config: PlatformConfig) -> tuple[Link, ...]:
    """All feasible planar links for the platform, in deterministic order (cached)."""
    return _candidate_pools(config.n, config.layers, config.max_planar_length)[0]


def candidate_vertical_links(config: PlatformConfig) -> tuple[Link, ...]:
    """All feasible vertical (TSV) links, i.e. every vertically adjacent tile pair (cached)."""
    return _candidate_pools(config.n, config.layers, config.max_planar_length)[1]


def candidate_links_by_endpoint(config: PlatformConfig) -> tuple[tuple[Link, ...], ...]:
    """Candidate links incident to each tile, planar pool first, then vertical (cached)."""
    return _candidate_pools(config.n, config.layers, config.max_planar_length)[2]


def pools_by_kind(config: PlatformConfig) -> dict[LinkKind, tuple[Link, ...]]:
    """The cached planar and vertical candidate pools, keyed by kind (planar first)."""
    return {
        LinkKind.PLANAR: candidate_planar_links(config),
        LinkKind.VERTICAL: candidate_vertical_links(config),
    }


def budgets_by_kind(config: PlatformConfig) -> dict[LinkKind, int]:
    """The platform's link budget of each kind (planar first)."""
    return {LinkKind.PLANAR: config.num_planar_links, LinkKind.VERTICAL: config.num_vertical_links}


def candidate_links(config: PlatformConfig) -> list[Link]:
    """All feasible links (planar then vertical), in deterministic order."""
    return [*candidate_planar_links(config), *candidate_vertical_links(config)]
