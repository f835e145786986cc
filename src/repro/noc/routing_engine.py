"""Cross-design route cache with incremental updates (the RoutingEngine).

Routing takes 10-14% of traced wall time on the three end-to-end workloads
(``routing.busy_share`` in ``perfbench/workloads.json`` ``measured_mix``), and
most designs an optimiser scores are one *move* away from a design it already
scored: EA children produced by ``swap_pe`` / ``swap_llc`` keep the parent's
link set unchanged, and ``rewire_link``-style moves touch only a couple of
links.  The
:class:`RoutingEngine` exploits this by owning a route cache keyed on the
*link set alone* (routing never depends on the PE placement):

* **hit** — the design's link tuple is already cached; the full
  :class:`~repro.noc.routing.RoutingTables` (incidence matrices included) is
  shared read-only.  Every placement-only move lands here for free.
* **incremental repair** — the design carries a
  :class:`~repro.noc.design.MoveDelta` whose parent topology is cached and
  whose link delta is small; the parent's tables are repaired via
  :meth:`~repro.noc.routing.RoutingTables.incremental_update`, re-running
  Dijkstra only for sources whose route tree crosses a changed link.
* **miss** — anything else gets a fresh build.

Move deltas are *hints*, never trusted for correctness: the repair path
recomputes the actual link diff between the cached parent tables and the
design, so a stale or missing annotation can only cost a fresh build.  All
three outcomes produce bit-identical tables (see the routing-engine property
suite), which is what lets the evaluator's ``routing_cache`` flag toggle the
engine without perturbing any objective value.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.noc.design import NocDesign, move_delta_of
from repro.noc.geometry import Grid3D
from repro.noc.links import Link
from repro.noc.routing import RoutingTables


class RoutingEngine:
    """Link-set-keyed LRU cache of :class:`RoutingTables` with delta repair.

    Parameters
    ----------
    grid:
        The tile grid shared by every design the engine serves.
    cache_size:
        Maximum number of cached topologies (LRU eviction; must be >= 1).
    incremental:
        When False, cache misses always rebuild from scratch even when a
        usable parent delta is available (hits still apply).
    max_repair_fraction:
        A delta changing more than this fraction of the design's links falls
        back to a fresh build — with that many changed links most sources are
        affected anyway, so the repair bookkeeping would only add overhead.
        ``0.0`` disables incremental repairs entirely (every non-hit is a
        fresh build); any positive fraction always admits elementary
        two-link rewires.
    """

    def __init__(
        self,
        grid: Grid3D,
        cache_size: int = 256,
        incremental: bool = True,
        max_repair_fraction: float = 0.5,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if not (0.0 <= max_repair_fraction <= 1.0):
            raise ValueError("max_repair_fraction must lie in [0, 1]")
        self.grid = grid
        self.cache_size = int(cache_size)
        self.incremental = incremental
        self.max_repair_fraction = max_repair_fraction
        self._cache: OrderedDict[tuple[Link, ...], RoutingTables] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.incremental_repairs = 0

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def tables(self, design: NocDesign) -> RoutingTables:
        """Routing tables for ``design``, cached across designs by link set.

        The returned tables are shared: they must be treated as read-only
        (all public accessors already return read-only views).
        """
        key = design.links
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached
        tables = self._build(design)
        self._cache[key] = tables
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return tables

    def tables_for_links(self, links: tuple[Link, ...]) -> "RoutingTables | None":
        """The cached tables for a link tuple, or None (no build, no counting)."""
        return self._cache.get(links)

    def _build(self, design: NocDesign) -> RoutingTables:
        delta = move_delta_of(design)
        if (
            self.incremental
            and self.max_repair_fraction > 0.0
            and delta is not None
            and delta.parent_links != design.links
        ):
            parent = self._cache.get(delta.parent_links)
            if parent is not None:
                changed = len(frozenset(parent.links).symmetric_difference(design.links))
                # Elementary rewires change 2 links; never price them out on
                # small designs where the fraction alone would round to < 2.
                budget = max(2, int(self.max_repair_fraction * max(1, design.num_links)))
                if changed <= budget:
                    self.incremental_repairs += 1
                    return parent.incremental_update(design.links)
        self.misses += 1
        return RoutingTables(design, self.grid)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        """Total number of :meth:`tables` calls served."""
        return self.hits + self.misses + self.incremental_repairs

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache without any Dijkstra."""
        requests = self.requests
        return self.hits / requests if requests else 0.0

    def stats(self) -> dict[str, "int | float"]:
        """Counters snapshot (used by evaluator reports and campaign shards)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "incremental_repairs": self.incremental_repairs,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
            "cached_topologies": len(self._cache),
        }

    def clear(self) -> None:
        """Drop every cached topology (counters are kept)."""
        self._cache.clear()

