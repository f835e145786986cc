"""Composite objective evaluator with 3/4/5-objective scenarios.

The paper evaluates three scenarios (Section V.D): ``3-obj`` uses objectives
1-3 (traffic mean, traffic variance, CPU-LLC latency), ``4-obj`` adds energy,
and ``5-obj`` adds the thermal objective.  All objectives are minimised.

Routing tables are shared by all objectives and owned by a single
:class:`~repro.noc.routing_engine.RoutingEngine` instance per evaluator: the
engine caches tables across *designs*, keyed on the link set alone, so
placement-only children reuse their parent's tables wholesale and
link-mutating children trigger an incremental all-pairs repair.  The
``routing_cache=False`` escape hatch restores the pre-engine behaviour (one
fresh table build per computed design).  On top of that topology tier, the
evaluator memoises complete objective vectors per design key (LRU-bounded)
and counts evaluations so experiments can report search effort; the engine's
hit/miss/repair counters are exposed via :meth:`ObjectiveEvaluator.routing_cache_stats`.

Batch evaluation
----------------
:meth:`ObjectiveEvaluator.evaluate_many` is the population-scale hot path of
the optimisers.  It keys every design exactly once, partitions the batch into
cache hits, in-batch duplicates and genuine misses, and computes only the
unique misses, in order, in the calling process.  Each per-design computation
runs on the vectorized objective implementations (sparse incidence-matrix
products, see :mod:`repro.noc.routing`), so a batch evaluation performs no
per-pair Python loops at all.  Parallelism lives one level up: campaign cells
run on a process pool (see :mod:`repro.experiments.runner`).

Cached vectors are returned as read-only views (``ndarray.setflags(write=False)``)
instead of per-hit copies; callers that need to mutate a result must copy it
explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.routing import RoutingTables
from repro.noc.routing_engine import RoutingEngine
from repro.objectives.energy import communication_energy, communication_energy_reference
from repro.objectives.latency import cpu_llc_latency, cpu_llc_latency_reference
from repro.objectives.thermal import ThermalModel
from repro.objectives.traffic import (
    link_utilizations,
    link_utilizations_reference,
    traffic_mean,
    traffic_variance,
)
from repro.scenarios.models import ScenarioModel
from repro.workloads.workload import Workload

#: Canonical objective order used by every scenario.
OBJECTIVE_NAMES: tuple[str, ...] = (
    "traffic_mean",
    "traffic_variance",
    "cpu_llc_latency",
    "energy",
    "thermal",
)


@dataclass(frozen=True)
class ObjectiveScenario:
    """A subset of the five objectives, in canonical order."""

    name: str
    objectives: tuple[str, ...]

    def __post_init__(self) -> None:
        unknown = [o for o in self.objectives if o not in OBJECTIVE_NAMES]
        if unknown:
            raise ValueError(f"unknown objectives {unknown}; valid: {OBJECTIVE_NAMES}")
        if len(self.objectives) != len(set(self.objectives)):
            raise ValueError("objectives must be unique")
        if len(self.objectives) < 2:
            raise ValueError("a multi-objective scenario needs at least two objectives")

    @property
    def num_objectives(self) -> int:
        """Number of objectives in the scenario."""
        return len(self.objectives)


#: The three scenarios evaluated in the paper.
SCENARIO_3OBJ = ObjectiveScenario("3-obj", OBJECTIVE_NAMES[:3])
SCENARIO_4OBJ = ObjectiveScenario("4-obj", OBJECTIVE_NAMES[:4])
SCENARIO_5OBJ = ObjectiveScenario("5-obj", OBJECTIVE_NAMES[:5])

_SCENARIOS = {3: SCENARIO_3OBJ, 4: SCENARIO_4OBJ, 5: SCENARIO_5OBJ}


def scenario_for(num_objectives: int) -> ObjectiveScenario:
    """Return the paper scenario with ``num_objectives`` objectives (3, 4 or 5)."""
    if num_objectives not in _SCENARIOS:
        raise ValueError(f"the paper defines 3/4/5-objective scenarios, got {num_objectives}")
    return _SCENARIOS[num_objectives]


class ObjectiveEvaluator:
    """Evaluates designs against a scenario's objectives with caching.

    Parameters
    ----------
    workload:
        The application workload (traffic + power) defining the landscape.
    scenario:
        Which objectives to report (defaults to the 5-objective scenario).
    cache_size:
        Maximum number of memoised designs (0 disables caching).
    routing_cache:
        When True (the default) routing tables come from the evaluator's own
        :class:`~repro.noc.routing_engine.RoutingEngine`, which caches them
        across designs by link set and repairs them incrementally for small
        link deltas.  ``False`` is the escape hatch selecting the historical
        fresh-build-per-design path; both settings produce bit-identical
        objective vectors.
    routing_cache_size:
        Maximum number of cached topologies in the routing engine.
    scenario_model:
        Optional fault/scenario model (see :mod:`repro.scenarios`) applied
        pre-evaluation: workload and thermal transforms run once here,
        per-design transforms run inside :meth:`evaluate`/:meth:`evaluate_many`.
        The identity model is normalised to ``None`` so the nominal path is
        literally unchanged.  Both cache tiers stay correct: the vector cache
        keys on the *nominal* design (the transform is deterministic per
        design), and faulted topologies key the routing engine by their own
        link sets.
    scenario_seed:
        Seed mixed into the scenario model's sha256-derived streams.
    """

    def __init__(
        self,
        workload: Workload,
        scenario: ObjectiveScenario = SCENARIO_5OBJ,
        cache_size: int = 50_000,
        routing_cache: bool = True,
        routing_cache_size: int = 256,
        scenario_model: "ScenarioModel | None" = None,
        scenario_seed: int = 0,
    ):
        if scenario_model is not None and scenario_model.is_identity:
            scenario_model = None
        self.scenario_model = scenario_model
        self.scenario_seed = int(scenario_seed)
        if scenario_model is not None:
            workload = scenario_model.transform_workload(workload, self.scenario_seed)
        self.workload = workload
        self.config = workload.config
        self.scenario = scenario
        self.thermal_model = ThermalModel(self.config)
        if scenario_model is not None:
            self.thermal_model = scenario_model.transform_thermal(self.thermal_model)
        self.cache_size = int(cache_size)
        self._cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.routing_engine: RoutingEngine | None = (
            RoutingEngine(self.config.grid, cache_size=routing_cache_size)
            if routing_cache
            else None
        )
        self.evaluations = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    @property
    def num_objectives(self) -> int:
        """Number of objectives reported per design."""
        return self.scenario.num_objectives

    @property
    def objective_names(self) -> tuple[str, ...]:
        """Names of the reported objectives, in order."""
        return self.scenario.objectives

    def evaluate(self, design: NocDesign) -> np.ndarray:
        """Return the objective vector of a design (all objectives minimised).

        With caching enabled the returned array is a read-only view of the
        cached vector; copy it before mutating.  With ``cache_size=0`` the
        array is caller-owned and writable.
        """
        key = design.key()
        if self.cache_size > 0 and key in self._cache:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return self._cache[key]
        values = self._compute(design)
        self.evaluations += 1
        if self.cache_size > 0:
            values.setflags(write=False)
            self._cache[key] = values
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return values

    def evaluate_many(self, designs: list[NocDesign]) -> np.ndarray:
        """Evaluate several designs, returning a ``len(designs) x M`` matrix.

        Designs are keyed exactly once; the batch is partitioned into cache
        hits, in-batch duplicates and unique misses, and only the misses are
        computed, in batch order.
        """
        num = len(designs)
        out = np.empty((num, self.num_objectives), dtype=np.float64)
        pending_rows: OrderedDict[tuple, list[int]] = OrderedDict()
        pending_designs: dict[tuple, NocDesign] = {}
        for row, design in enumerate(designs):
            key = design.key()
            if self.cache_size > 0 and key in self._cache:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                out[row] = self._cache[key]
            elif key in pending_rows:
                # In-batch duplicate: re-uses the single computation below.
                pending_rows[key].append(row)
            else:
                pending_rows[key] = [row]
                pending_designs[key] = design
        for key, rows in pending_rows.items():
            values = self._compute(pending_designs[key])
            out[rows] = values
            # Counters mirror the scalar loop: with caching on, a
            # duplicate would have hit the cache (1 evaluation + hits);
            # with caching off, the scalar loop recomputes every copy.
            if self.cache_size > 0:
                self.evaluations += 1
                self.cache_hits += len(rows) - 1
                values.setflags(write=False)
                self._cache[key] = values
                if len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            else:
                self.evaluations += len(rows)
        return out

    def evaluate_reference(self, design: NocDesign) -> np.ndarray:
        """Objective vector computed by the scalar per-pair reference path.

        Bypasses the cache and the vectorized engine; used by equivalence
        tests and as the baseline of the batch-evaluation benchmark.  Mirrors
        the scenario transforms of :meth:`_compute` so faulted evaluation is
        pinned by the same scalar/vectorized equivalence contract.
        """
        design = self._scenario_design(design)
        routing = RoutingTables(design, self.config.grid)
        needed = set(self.scenario.objectives)
        values: dict[str, float] = {}
        if needed & {"traffic_mean", "traffic_variance"}:
            utilization = link_utilizations_reference(design, self.workload, routing)
            utilization = self._scenario_utilization(design, utilization)
            values["traffic_mean"] = traffic_mean(utilization)
            values["traffic_variance"] = traffic_variance(utilization)
        if "cpu_llc_latency" in needed:
            values["cpu_llc_latency"] = cpu_llc_latency_reference(design, self.workload, routing)
        if "energy" in needed:
            values["energy"] = communication_energy_reference(design, self.workload, routing)
        if "thermal" in needed:
            values["thermal"] = self.thermal_model.objective_reference(design, self.workload)
        return np.array([values[name] for name in self.scenario.objectives], dtype=np.float64)

    def routing_cache_stats(self) -> dict[str, "int | float | bool"]:
        """The routing engine's counters (all zero with ``routing_cache=False``)."""
        if self.routing_engine is None:
            return {
                "enabled": False,
                "hits": 0,
                "misses": 0,
                "incremental_repairs": 0,
                "requests": 0,
                "hit_rate": 0.0,
                "cached_topologies": 0,
            }
        return {"enabled": True, **self.routing_engine.stats()}

    def full_report(self, design: NocDesign) -> dict[str, float]:
        """All five objective values for a design, regardless of scenario."""
        design = self._scenario_design(design)
        routing = self._routing(design)
        frequencies = self.workload.pair_frequencies(design.placement_array())
        utilization = link_utilizations(design, self.workload, routing, frequencies)
        utilization = self._scenario_utilization(design, utilization)
        return {
            "traffic_mean": traffic_mean(utilization),
            "traffic_variance": traffic_variance(utilization),
            "cpu_llc_latency": cpu_llc_latency(design, self.workload, routing),
            "energy": communication_energy(design, self.workload, routing, frequencies),
            "thermal": self.thermal_model.objective(design, self.workload),
            "peak_temperature": self.thermal_model.peak_temperature(design, self.workload),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _routing(self, design: NocDesign) -> RoutingTables:
        """Routing tables for a design: engine-cached, or fresh when disabled."""
        if self.routing_engine is not None:
            return self.routing_engine.tables(design)
        return RoutingTables(design, self.config.grid)

    def _scenario_design(self, design: NocDesign) -> NocDesign:
        """The design actually evaluated: scenario-faulted, or the nominal one."""
        if self.scenario_model is None:
            return design
        return self.scenario_model.transform_design(design, self.scenario_seed)

    def _scenario_utilization(self, design: NocDesign, utilization: np.ndarray) -> np.ndarray:
        """Apply the scenario's per-link load factors (derated capacity)."""
        if self.scenario_model is None:
            return utilization
        factors = self.scenario_model.link_load_factors(design, self.scenario_seed)
        if factors is None:
            return utilization
        return utilization * factors

    def _compute(self, design: NocDesign) -> np.ndarray:
        design = self._scenario_design(design)
        routing = self._routing(design)
        # One pair-frequency gather shared by every objective that needs it.
        frequencies = self.workload.pair_frequencies(design.placement_array())
        needed = set(self.scenario.objectives)
        values: dict[str, float] = {}
        if needed & {"traffic_mean", "traffic_variance"}:
            utilization = link_utilizations(design, self.workload, routing, frequencies)
            utilization = self._scenario_utilization(design, utilization)
            values["traffic_mean"] = traffic_mean(utilization)
            values["traffic_variance"] = traffic_variance(utilization)
        if "cpu_llc_latency" in needed:
            values["cpu_llc_latency"] = cpu_llc_latency(design, self.workload, routing)
        if "energy" in needed:
            values["energy"] = communication_energy(design, self.workload, routing, frequencies)
        if "thermal" in needed:
            values["thermal"] = self.thermal_model.objective(design, self.workload)
        return np.array([values[name] for name in self.scenario.objectives], dtype=np.float64)
