"""Deterministic shortest-path routing over a design's link placement.

All objectives of Section III need, for every communicating tile pair
``(i, j)``, the set of links (``p_ijk``) and routers (``r_ijk``) used by the
route.  We use deterministic minimal routing: paths minimise hop count, with
ties broken by physical path length and then lexicographically (the
smallest-id predecessor wins at every step), so a design always maps to the
same routes (and therefore the same objective vector).

Construction vs queries
-----------------------
Table construction is split from path queries so tables can be shared
read-only across designs and repaired incrementally:

* ``scipy.sparse.csgraph`` computes only the all-pairs *distance* matrix;
* predecessors are then derived canonically from the distances
  (:meth:`RoutingTables._canonical_predecessors`): the predecessor of ``v`` on
  the route from ``i`` is the smallest-id neighbour ``u`` with
  ``dist(i, u) + w(u, v) == dist(i, v)``.  Link weights are
  ``1 + epsilon * length`` with integer lengths, so distinct
  ``(hops, length)`` combinations differ by at least ``epsilon`` and the tie
  test is a pure function of the distance matrix — immune to heap-order
  artefacts of the Dijkstra implementation.  That property is what makes
  :meth:`RoutingTables.incremental_update` exact: sources whose route tree
  does not cross a changed link provably keep identical routes, so only the
  affected sources re-run Dijkstra.

Tables depend only on the *link set* (plus the grid), never on the PE
placement, which is why :class:`repro.noc.routing_engine.RoutingEngine` can
key a cross-design route cache on the link tuple alone.
:meth:`RoutingTables.from_links` builds tables without a design object.

Batch path tables
-----------------
Besides the per-pair query API, :class:`RoutingTables` exposes sparse batch
structures used by the vectorized objective engine in :mod:`repro.objectives`.
They are reconstructed lazily, in a single vectorized sweep over the
predecessor matrix (one iteration per path-length step, all pairs at once),
instead of walking predecessors pair-by-pair:

* :meth:`pair_link_incidence` — CSR matrix ``P`` of shape
  ``(num_tiles**2, num_links)``; ``P[p, k] = 1`` iff the route of the ordered
  tile pair ``p = src * num_tiles + dst`` traverses link ``k``.  Link
  utilisation for a pair-frequency vector ``f`` is then ``P.T @ f``.
* :meth:`pair_tile_incidence` — CSR matrix ``R`` of shape
  ``(num_tiles**2, num_tiles)``; ``R[p, t] = 1`` iff tile (router) ``t`` lies
  on the route of pair ``p``, endpoints included (a self pair visits only its
  own tile).  Router-energy sums are ``R @ ports``.
* :meth:`pair_hops` / :meth:`pair_lengths` — dense per-pair hop counts
  ``h_ij`` and physical route lengths ``d_ij``.
* :meth:`reachable_pairs` — boolean per-pair reachability in the same flat
  ``src * num_tiles + dst`` order.

Minimal routes are simple paths, so every incidence entry is 0/1 and
``pair_hops`` equals the per-row sums of ``P``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.noc.design import NocDesign
from repro.noc.geometry import Grid3D
from repro.noc.links import Link, link_lengths_array

#: scipy's "no predecessor" sentinel (source itself or unreachable pair).
NO_PREDECESSOR = -9999


class RoutingTables:
    """All-pairs deterministic shortest-path routes for one link placement.

    Parameters
    ----------
    design:
        The design whose link placement defines the network graph.
    grid:
        The tile grid (used for physical link lengths).

    Notes
    -----
    The edge weight used for the search is ``1 + epsilon * length`` so that
    hop count dominates and physical length breaks ties; ``epsilon`` is small
    enough that no sum of length terms can outweigh a single hop.  Tables are
    a function of ``(links, num_tiles, grid)`` only — the placement never
    enters — so one instance can serve every design sharing a link set.
    """

    _LENGTH_EPSILON = 1e-3
    #: Distances are ``hops + epsilon * length`` with integer hops/lengths, so
    #: genuinely different values are at least ``epsilon`` apart (up to ~1e-13
    #: of float accumulation noise); anything closer than this tolerance is
    #: the same value computed along a different equal-cost path.
    _TIE_TOLERANCE = 1e-6

    def __init__(self, design: NocDesign, grid: Grid3D):
        self._build(design.links, design.num_tiles, grid)

    @classmethod
    def from_links(
        cls, links: "Sequence[Link] | Iterable[Link]", num_tiles: int, grid: Grid3D
    ) -> "RoutingTables":
        """Build tables directly from a link set (no design object needed)."""
        tables = object.__new__(cls)
        tables._build(tuple(sorted(links)), int(num_tiles), grid)
        return tables

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self, links: tuple[Link, ...], num_tiles: int, grid: Grid3D) -> None:
        """Full fresh build: graph setup, all-pairs Dijkstra, canonical routes."""
        self._setup_static(links, num_tiles, grid)
        self._distance = shortest_path(self._graph, method="D", directed=False)
        self._predecessors = self._canonical_predecessors(self._distance)
        self._reset_lazy()

    def _setup_static(self, links: tuple[Link, ...], num_tiles: int, grid: Grid3D) -> None:
        """Set up everything that derives directly from the link set."""
        self.links = links
        self.grid = grid
        self.num_tiles = num_tiles
        self.num_links = len(links)
        ends_a = np.fromiter((link.a for link in links), dtype=np.int64, count=self.num_links)
        ends_b = np.fromiter((link.b for link in links), dtype=np.int64, count=self.num_links)
        self._ends_a = ends_a
        self._ends_b = ends_b
        # Links are lexicographically sorted and a*num_tiles+b is monotone in
        # (a, b), so these keys are ascending — searchsorted-friendly.
        self._link_keys = ends_a * np.int64(num_tiles) + ends_b
        self._link_index: dict[tuple[int, int], int] | None = None
        self.link_lengths = link_lengths_array(links, grid)
        self._weights = 1.0 + self._LENGTH_EPSILON * self.link_lengths
        # Directed edge lists (both orientations) shared by the graph and the
        # canonical predecessor derivation.
        self._edge_u = np.concatenate((ends_a, ends_b))
        self._edge_v = np.concatenate((ends_b, ends_a))
        self._edge_w = np.concatenate((self._weights, self._weights))
        self._graph = csr_matrix(
            (self._edge_w, (self._edge_u, self._edge_v)),
            shape=(num_tiles, num_tiles),
        )

    @property
    def link_index(self) -> dict[tuple[int, int], int]:
        """Endpoint pair -> link index lookup (built lazily, query path only)."""
        if self._link_index is None:
            index: dict[tuple[int, int], int] = {}
            for idx, (a, b) in enumerate(zip(self._ends_a.tolist(), self._ends_b.tolist())):
                index[(a, b)] = idx
                index[(b, a)] = idx
            self._link_index = index
        return self._link_index

    def _reset_lazy(self) -> None:
        self._path_cache: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        # Lazily built batch structures (see _build_pair_tables).
        self._pair_links: csr_matrix | None = None
        self._pair_tiles: csr_matrix | None = None
        self._pair_hops: np.ndarray | None = None
        self._pair_lengths: np.ndarray | None = None
        self._reachable: np.ndarray | None = None
        self._edge_link: np.ndarray | None = None

    def _canonical_predecessors(self, distance_rows: np.ndarray) -> np.ndarray:
        """Derive lexicographic-minimal predecessors from a distance block.

        For every (source row, node ``v``) the predecessor is the smallest-id
        neighbour ``u`` of ``v`` with ``dist(u) + w(u, v) == dist(v)`` (within
        the tie tolerance).  Because edge weights strictly decrease along the
        chain, the walk always terminates at the source.  The result depends
        only on the distances and the graph — not on how Dijkstra happened to
        visit equal-cost alternatives — which makes routes reproducible across
        fresh builds and incremental repairs.
        """
        num_sources = distance_rows.shape[0]
        num_tiles = self.num_tiles
        predecessors = np.full((num_sources, num_tiles), num_tiles, dtype=np.int64)
        if self.num_links:
            # Sort directed edges by head node so a single reduceat computes,
            # per (source, head), the minimum tail satisfying the tie test.
            order = np.argsort(self._edge_v, kind="stable")
            tails = self._edge_u[order]
            heads = self._edge_v[order]
            weights = self._edge_w[order]
            # inf - inf (both endpoints unreachable) yields nan, which the
            # comparison correctly rejects — suppress the noise warning.
            with np.errstate(invalid="ignore"):
                candidate = distance_rows[:, tails] + weights[None, :]
                on_route = np.abs(candidate - distance_rows[:, heads]) <= self._TIE_TOLERANCE
            tail_ids = np.where(on_route, tails[None, :], num_tiles)
            starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
            minima = np.minimum.reduceat(tail_ids, starts, axis=1)
            predecessors[:, heads[starts]] = minima
        predecessors[predecessors == num_tiles] = NO_PREDECESSOR
        return predecessors

    def incremental_update(self, new_links: "Sequence[Link] | Iterable[Link]") -> "RoutingTables":
        """New tables for a changed link set, re-routing only affected sources.

        A source must be re-run when its canonical route tree crosses a
        removed link, or when an added link strictly improves — or ties —
        the distance to one of its endpoints (a tie can change the canonical
        predecessor choice).  Every other source provably keeps identical
        distances and canonical routes, so its rows are copied.  Cached
        tables stay untouched ("repair" returns a new instance), because the
        parent's entry remains live under its own topology key.

        The result is bit-identical (routes, hops, incidence matrices) to a
        fresh :class:`RoutingTables` build for ``new_links``.
        """
        updated = object.__new__(RoutingTables)
        updated._setup_static(tuple(sorted(new_links)), self.num_tiles, self.grid)

        removed = np.isin(self._link_keys, updated._link_keys, invert=True)
        added = np.isin(updated._link_keys, self._link_keys, invert=True)
        affected = np.zeros(self.num_tiles, dtype=bool)
        for idx in np.flatnonzero(removed):  # removed: sources whose tree used it
            a, b = int(self._ends_a[idx]), int(self._ends_b[idx])
            affected |= self._predecessors[:, b] == a
            affected |= self._predecessors[:, a] == b
        for idx in np.flatnonzero(added):  # added: sources it improves or ties
            a, b = int(updated._ends_a[idx]), int(updated._ends_b[idx])
            weight = float(updated._weights[idx])
            dist_a = self._distance[:, a]
            dist_b = self._distance[:, b]
            relevant = (dist_a + weight <= dist_b + self._TIE_TOLERANCE) | (
                dist_b + weight <= dist_a + self._TIE_TOLERANCE
            )
            # inf <= inf is a numpy truth but a no-op for routing: the new
            # link cannot connect tiles that are both unreachable.
            relevant &= ~(np.isinf(dist_a) & np.isinf(dist_b))
            affected |= relevant

        distance = self._distance.copy()
        predecessors = self._predecessors.copy()
        rows = np.flatnonzero(affected)
        if rows.size:
            distance[rows] = shortest_path(
                updated._graph, method="D", directed=False, indices=rows
            )
            predecessors[rows] = updated._canonical_predecessors(distance[rows])
        updated._distance = distance
        updated._predecessors = predecessors
        updated._reset_lazy()
        # Adoption splices surviving parent rows block-wise (no global sort),
        # so it wins whenever any source keeps its routes; with every source
        # re-routed there is nothing to splice and the lazy sweep is exact.
        if rows.size < self.num_tiles:
            updated._adopt_pair_tables(self, affected)
        return updated

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_reachable(self, src: int, dst: int) -> bool:
        """True when a route exists from ``src`` to ``dst``."""
        return np.isfinite(self._distance[src, dst])

    def hops(self, src: int, dst: int) -> int:
        """Number of links traversed on the route (``h_ij``).

        Answers from the batch tables when they are already built; a single
        query on a fresh instance uses the cheap cached predecessor walk
        instead of triggering the whole-network sweep.
        """
        if src == dst:
            return 0
        if self._pair_hops is not None:
            if not self.is_reachable(src, dst):
                raise ValueError(
                    f"no route from tile {src} to tile {dst}: network is disconnected"
                )
            return int(self._pair_hops[src * self.num_tiles + dst])
        return len(self.path_links(src, dst))

    def path_length(self, src: int, dst: int) -> float:
        """Total physical length of the route (``d_ij``), in tile units."""
        if src == dst:
            return 0.0
        if self._pair_lengths is not None:
            if not self.is_reachable(src, dst):
                raise ValueError(
                    f"no route from tile {src} to tile {dst}: network is disconnected"
                )
            return float(self._pair_lengths[src * self.num_tiles + dst])
        links = self.path_links(src, dst)
        return float(self.link_lengths[links].sum()) if links else 0.0

    def path_tiles(self, src: int, dst: int) -> list[int]:
        """The ordered tiles (routers) visited by the route, endpoints included."""
        return self._path(src, dst)[0]

    def path_links(self, src: int, dst: int) -> list[int]:
        """The ordered link indices traversed by the route."""
        return self._path(src, dst)[1]

    # ------------------------------------------------------------------ #
    # Batch structures (vectorized objective engine)
    # ------------------------------------------------------------------ #
    def pair_index(self, src: int, dst: int) -> int:
        """Flat index of the ordered tile pair ``(src, dst)`` in the batch tables."""
        return src * self.num_tiles + dst

    def pair_link_incidence(self) -> csr_matrix:
        """Sparse 0/1 path-link incidence ``P`` of shape ``(num_tiles**2, num_links)``."""
        if self._pair_links is None:
            self._build_pair_tables()
        return self._pair_links

    def pair_tile_incidence(self) -> csr_matrix:
        """Sparse 0/1 path-router incidence ``R`` of shape ``(num_tiles**2, num_tiles)``."""
        if self._pair_tiles is None:
            self._build_pair_tables()
        return self._pair_tiles

    def pair_hops(self) -> np.ndarray:
        """Per-pair hop counts ``h_ij`` (0 for self pairs and unreachable pairs)."""
        if self._pair_hops is None:
            self._build_pair_tables()
        return self._pair_hops

    def pair_lengths(self) -> np.ndarray:
        """Per-pair physical route lengths ``d_ij`` (0 where no route exists)."""
        if self._pair_lengths is None:
            self._build_pair_tables()
        return self._pair_lengths

    def reachable_pairs(self) -> np.ndarray:
        """Boolean per-pair reachability, flattened in ``src * num_tiles + dst`` order."""
        if self._reachable is None:
            self._reachable = np.isfinite(self._distance).ravel()
            self._reachable.setflags(write=False)
        return self._reachable

    def reachable_matrix(self) -> np.ndarray:
        """Boolean tile-to-tile reachability matrix."""
        return self.reachable_pairs().reshape(self.num_tiles, self.num_tiles)

    def _build_pair_tables(self) -> None:
        """Reconstruct every route at once from the predecessor matrix."""
        entries = self._pair_table_entries(np.arange(self.num_tiles))
        self._assemble_pair_tables(*entries)

    def _edge_link_lookup(self) -> np.ndarray:
        """Dense edge -> link-index lookup (num_tiles is at most a few dozen)."""
        if self._edge_link is None:
            edge_link = np.full((self.num_tiles, self.num_tiles), -1, dtype=np.int64)
            indices = np.arange(self.num_links, dtype=np.int64)
            edge_link[self._ends_a, self._ends_b] = indices
            edge_link[self._ends_b, self._ends_a] = indices
            self._edge_link = edge_link
        return self._edge_link

    def _pair_table_entries(
        self, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route reconstruction sweep for every pair whose source is in ``sources``.

        Walks all destination-to-source chains simultaneously: iteration ``s``
        advances every still-active pair one predecessor step, emitting the
        traversed ``(prev, cur)`` edge and the visited router.  The loop runs
        ``max_ij h_ij`` times (the network diameter), with all per-pair work
        vectorized.  Returns ``(link_row, link_col, tile_row, tile_col)``
        with *global* flat pair rows (``src * num_tiles + dst``), so callers
        can mix swept entries with rows adopted from a parent table.
        """
        num_tiles = self.num_tiles
        sources = np.asarray(sources, dtype=np.int64)
        src = np.repeat(sources, num_tiles)
        dst = np.tile(np.arange(num_tiles), len(sources))
        rows = src * num_tiles + dst
        reachable = np.isfinite(self._distance[src, dst])
        edge_link = self._edge_link_lookup()

        tile_rows = [rows[reachable]]
        tile_cols = [dst[reachable]]
        link_rows: list[np.ndarray] = []
        link_cols: list[np.ndarray] = []
        cur = dst.copy()
        active = np.nonzero(reachable & (src != dst))[0]
        while active.size:
            prev = self._predecessors[src[active], cur[active]]
            link_rows.append(rows[active])
            link_cols.append(edge_link[prev, cur[active]])
            tile_rows.append(rows[active])
            tile_cols.append(prev)
            cur[active] = prev
            active = active[prev != src[active]]

        empty = np.empty(0, dtype=np.int64)
        link_row = np.concatenate(link_rows) if link_rows else empty
        link_col = np.concatenate(link_cols) if link_cols else empty
        return link_row, link_col, np.concatenate(tile_rows), np.concatenate(tile_cols)

    @staticmethod
    def _canonical_csr(
        rows: np.ndarray, cols: np.ndarray, num_rows: int, num_cols: int
    ) -> csr_matrix:
        """Canonical (row-major, sorted-indices) CSR straight from entry lists.

        Bypasses the COO round trip: one lexsort puts the entries into
        canonical order, the index pointer comes from a bincount.  Canonical
        form matters beyond speed — a repaired table and a fresh build hold
        bit-identical arrays, so sparse products over them sum in the same
        order and produce bit-identical objective values.
        """
        # One combined scalar key sorts rows and columns together (cheaper
        # than a lexsort plus two gathers at this entry count).
        key = np.sort(rows * np.int64(num_cols) + cols)
        sorted_rows = key // num_cols
        sorted_cols = key % num_cols
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(sorted_rows, minlength=num_rows), out=indptr[1:])
        return csr_matrix(
            (np.ones(sorted_cols.size, dtype=np.float64), sorted_cols, indptr),
            shape=(num_rows, num_cols),
        )

    def _assemble_pair_tables(
        self,
        link_row: np.ndarray,
        link_col: np.ndarray,
        tile_row: np.ndarray,
        tile_col: np.ndarray,
    ) -> None:
        """Assemble the batch structures from (pair row, column) entry lists."""
        num_pairs = self.num_tiles * self.num_tiles
        self._pair_links = self._canonical_csr(link_row, link_col, num_pairs, self.num_links)
        self._pair_tiles = self._canonical_csr(tile_row, tile_col, num_pairs, self.num_tiles)
        # Minimal routes are simple paths, so h_ij is exactly the number of
        # incidence entries in the pair's row.
        self._pair_hops = np.diff(self._pair_links.indptr)
        self._pair_lengths = self._pair_links @ self.link_lengths
        self._pair_hops.setflags(write=False)
        self._pair_lengths.setflags(write=False)

    @staticmethod
    def _spliced_csr(
        parent: csr_matrix,
        affected: np.ndarray,
        num_tiles: int,
        col_remap: "np.ndarray | None",
        new_rows: np.ndarray,
        new_cols: np.ndarray,
        num_cols: int,
    ) -> csr_matrix:
        """Canonical CSR from kept parent rows plus re-swept replacement rows.

        All ``num_tiles`` pair rows of an unaffected source are consecutive in
        the source-major row order, so each run of unaffected sources is one
        contiguous block of the parent's index array — kept entries move with
        a handful of slice copies instead of per-entry gathers.  In-row order
        survives the move because the column remap is monotone over surviving
        columns (both link-key arrays are ascending).  Replacement rows arrive
        as unsorted entry lists and are the only part that pays a sort.  The
        result is bit-identical to :meth:`_canonical_csr` over the union of
        the entries.
        """
        num_rows = parent.shape[0]
        parent_counts = np.diff(parent.indptr)
        new_counts = np.bincount(new_rows, minlength=num_rows)
        keep_row = np.repeat(~affected, num_tiles)
        counts = np.where(keep_row, parent_counts, new_counts)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        unaffected = np.flatnonzero(~affected)
        if unaffected.size:
            breaks = np.flatnonzero(np.diff(unaffected) > 1)
            run_starts = np.r_[unaffected[0], unaffected[breaks + 1]]
            run_ends = np.r_[unaffected[breaks], unaffected[-1]] + 1
            parent_indptr = parent.indptr
            for start, end in zip(run_starts.tolist(), run_ends.tolist()):
                block = parent.indices[
                    parent_indptr[start * num_tiles] : parent_indptr[end * num_tiles]
                ]
                if col_remap is not None:
                    block = col_remap[block]
                indices[indptr[start * num_tiles] : indptr[end * num_tiles]] = block
        if new_rows.size:
            # One combined scalar key sorts the replacement entries into
            # canonical order; their within-row rank then places them.
            key = np.sort(new_rows * np.int64(num_cols) + new_cols)
            sorted_rows = key // num_cols
            starts = np.zeros(num_rows + 1, dtype=np.int64)
            np.cumsum(new_counts, out=starts[1:])
            rank = np.arange(sorted_rows.size, dtype=np.int64) - starts[sorted_rows]
            indices[indptr[sorted_rows] + rank] = key % num_cols
        if col_remap is not None:
            assert indices.size == 0 or indices.min() >= 0, (
                "route of an unaffected source crossed a removed link"
            )
        return csr_matrix(
            (np.ones(indices.size, dtype=np.float64), indices, indptr),
            shape=(num_rows, num_cols),
        )

    def _adopt_pair_tables(self, parent: "RoutingTables", affected: np.ndarray) -> None:
        """Repair the batch structures from a parent's, re-sweeping only affected rows.

        An unaffected source keeps its canonical routes, and those routes
        never traverse a removed link, so its incidence rows survive verbatim
        with the link columns remapped to the new link indexing; they are
        spliced row-block-wise around the re-swept rows of affected sources
        (:meth:`_spliced_csr`) instead of re-sorting every entry.  No-op
        (tables stay lazy) when the parent never built its batch structures.
        """
        if parent._pair_links is None:
            return
        num_tiles = self.num_tiles
        # Both key arrays are ascending, so surviving parent links map to new
        # indices with one searchsorted (no per-link Python lookups).
        if self.num_links:
            positions = np.searchsorted(self._link_keys, parent._link_keys)
            positions = np.minimum(positions, self.num_links - 1)
            old_to_new = np.where(self._link_keys[positions] == parent._link_keys, positions, -1)
        else:
            old_to_new = np.full(parent.num_links, -1, dtype=np.int64)
        link_row, link_col, tile_row, tile_col = self._pair_table_entries(
            np.flatnonzero(affected)
        )
        self._pair_links = self._spliced_csr(
            parent._pair_links, affected, num_tiles, old_to_new, link_row, link_col, self.num_links
        )
        self._pair_tiles = self._spliced_csr(
            parent._pair_tiles, affected, num_tiles, None, tile_row, tile_col, num_tiles
        )
        # Finalisation mirrors _assemble_pair_tables: hops from the row
        # pointer, lengths via the same sparse product (bit-identical because
        # per-row summation order equals the canonical column order).
        self._pair_hops = np.diff(self._pair_links.indptr)
        self._pair_lengths = self._pair_links @ self.link_lengths
        self._pair_hops.setflags(write=False)
        self._pair_lengths.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _path(self, src: int, dst: int) -> tuple[list[int], list[int]]:
        key = (src, dst)
        if key in self._path_cache:
            return self._path_cache[key]
        if src == dst:
            result = ([src], [])
            self._path_cache[key] = result
            return result
        if not self.is_reachable(src, dst):
            raise ValueError(f"no route from tile {src} to tile {dst}: network is disconnected")
        tiles = [dst]
        node = dst
        while node != src:
            node = int(self._predecessors[src, node])
            if node < 0:
                raise ValueError(f"no route from tile {src} to tile {dst}")
            tiles.append(node)
        tiles.reverse()
        links = [self.link_index[(a, b)] for a, b in zip(tiles[:-1], tiles[1:])]
        result = (tiles, links)
        self._path_cache[key] = result
        return result
