"""Experiment configuration for the reproduction harness.

The paper's evaluation runs every algorithm for up to 48 hours on a 64-tile
platform with 1000 generations.  The reduced defaults here regenerate every
table and figure on a laptop in minutes while exercising exactly the same
code paths; the full-scale settings remain available via
:meth:`ExperimentConfig.paper_scale`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import MOELAConfig
from repro.noc.platform import PlatformConfig
from repro.noc.repair import RepairBudget
from repro.scenarios.registry import canonical_scenario_key
from repro.workloads.rodinia import RODINIA_APPLICATIONS


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the table/figure reproduction runs.

    Parameters
    ----------
    platform:
        Platform configuration all designs are generated for.
    applications:
        Application names evaluated (Tables I/II use six Rodinia apps).
    objective_counts:
        The scenarios to evaluate (3, 4 and/or 5 objectives).
    population_size:
        Population / archive size for every algorithm.
    max_evaluations:
        Evaluation budget per run (the deterministic stand-in for ``T_stop``).
    moela:
        MOELA hyper-parameters.
    searches_per_iteration, local_search_steps, neighbors_per_step:
        Budgets for the MOOS baseline's local searches.
    scenario_models:
        Fault/scenario models evaluated as a grid axis (canonical keys, see
        :mod:`repro.scenarios`); the default single ``"identity"`` axis is
        the nominal, pre-scenario behaviour.  Keys are validated and
        canonicalised at construction, so a typo fails here rather than
        mid-campaign.
    seed:
        Base seed; per-(algorithm, app, scenario) seeds are derived from it.
    """

    platform: PlatformConfig = field(default_factory=PlatformConfig.small_3x3x3)
    applications: tuple[str, ...] = ("BFS", "BP", "GAU", "HOT", "PF", "SRAD")
    objective_counts: tuple[int, ...] = (3, 4, 5)
    population_size: int = 16
    max_evaluations: int = 1_200
    moela: MOELAConfig = field(default_factory=MOELAConfig.reduced)
    searches_per_iteration: int = 3
    local_search_steps: int = 6
    neighbors_per_step: int = 3
    scenario_models: tuple[str, ...] = ("identity",)
    seed: int = 7

    def __post_init__(self) -> None:
        unknown = [a for a in self.applications if a.upper() not in RODINIA_APPLICATIONS]
        if unknown:
            raise ValueError(f"unknown applications {unknown}; known: {RODINIA_APPLICATIONS}")
        if not self.objective_counts:
            raise ValueError("at least one objective count is required")
        if any(m not in (3, 4, 5) for m in self.objective_counts):
            raise ValueError("objective counts must be drawn from {3, 4, 5}")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.max_evaluations < 10:
            raise ValueError("max_evaluations must be >= 10")
        if not self.scenario_models:
            raise ValueError("at least one scenario model is required (use 'identity')")
        canonical = tuple(canonical_scenario_key(s) for s in self.scenario_models)
        if len(set(canonical)) != len(canonical):
            raise ValueError(f"duplicate scenario models in {self.scenario_models}")
        object.__setattr__(self, "scenario_models", canonical)

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Very small settings for tests (single app, tiny platform)."""
        return cls(
            platform=PlatformConfig.tiny_2x2x2(),
            applications=("BFS",),
            objective_counts=(3,),
            population_size=6,
            max_evaluations=120,
            moela=MOELAConfig.smoke(),
            searches_per_iteration=2,
            local_search_steps=3,
            neighbors_per_step=2,
            seed=3,
        )

    @classmethod
    def reduced(cls) -> "ExperimentConfig":
        """Default laptop-scale settings used by the benchmark harness."""
        return cls()

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's full-scale settings (hours to days of compute)."""
        return cls(
            platform=PlatformConfig.paper_4x4x4(),
            applications=("BFS", "BP", "GAU", "HOT", "PF", "SRAD"),
            objective_counts=(3, 4, 5),
            population_size=50,
            max_evaluations=2_000_000,
            moela=MOELAConfig.paper(),
            searches_per_iteration=5,
            local_search_steps=25,
            neighbors_per_step=4,
            seed=0,
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one sharded (algorithm x application x scenario) campaign.

    A campaign runs every cell of the grid defined by ``algorithms`` and the
    experiment's ``applications`` / ``objective_counts``, each with its own
    derived seed, and streams every cell's result to one JSON shard next to a
    manifest (see :func:`repro.experiments.runner.run_campaign`).

    Parameters
    ----------
    experiment:
        The shared experiment settings (platform, applications, scenarios,
        per-run budget, algorithm hyper-parameters).
    algorithms:
        Algorithm names to run; the empty tuple means every registered
        algorithm (:data:`repro.experiments.runner.ALGORITHMS`).
    max_workers:
        Size of the process pool the grid cells are fanned out over; ``1``
        runs cells inline in submission order.
    resume:
        When True, cells whose shard already exists and parses are skipped —
        re-running a killed campaign only executes the missing cells.
    routing_cache:
        Routes every cell's evaluation through the cross-design
        :class:`~repro.noc.routing_engine.RoutingEngine` route cache (the
        default); ``False`` is the escape hatch selecting the historical
        fresh-build-per-design path.  Each cell's hit/miss/repair counters are
        recorded in its shard and summarised in the campaign manifest.
    event_log:
        Appends every campaign event (shard starts/completions and, from
        every cell — pooled or inline — the per-iteration optimiser events)
        to a durable ``events.jsonl`` next to the manifest, and replays it
        into the caller's subscribers, so pooled campaigns stream the same
        events inline ones do (callbacks cannot cross the process-pool
        boundary; the log can).  Observation-only: seeded campaign results
        are bit-identical with the log on or off.  ``False`` falls back to
        direct in-process callbacks (pool workers then only report shard
        completions).
    repair_infeasible:
        Enables the opt-in directed feasibility repair path inside every
        cell's optimiser (see :mod:`repro.noc.repair`): infeasible brood
        members are run through a seeded repair walk before scoring instead
        of being discarded.  Off by default — seeded campaigns are
        bit-identical to pre-repair behaviour when off.  Each cell's repair
        counters (attempted / repaired / evaluations spent) are recorded in
        its shard and summarised in the campaign manifest.
    repair_max_rounds, repair_candidates_per_round, repair_max_evaluations:
        Budget of each repair walk (see
        :class:`~repro.noc.repair.RepairBudget`); only consulted when
        ``repair_infeasible`` is on.
    max_evaluations:
        Per-cell evaluation budget override; ``None`` uses the experiment's
        ``max_evaluations``.
    """

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig.reduced)
    algorithms: tuple[str, ...] = ()
    max_workers: int = 1
    resume: bool = True
    routing_cache: bool = True
    event_log: bool = True
    repair_infeasible: bool = False
    repair_max_rounds: int = 4
    repair_candidates_per_round: int = 8
    repair_max_evaluations: int = 32
    max_evaluations: int | None = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        # RepairBudget owns the bounds validation; building one here makes a
        # bad repair configuration fail at construction, not mid-campaign.
        self.repair_budget()

    def repair_budget(self) -> RepairBudget:
        """The per-walk repair budget the cells run with (see ``repair_infeasible``)."""
        return RepairBudget(
            max_rounds=self.repair_max_rounds,
            candidates_per_round=self.repair_candidates_per_round,
            max_evaluations=self.repair_max_evaluations,
        )

    @property
    def cell_budget(self) -> int:
        """Evaluation budget applied to every cell."""
        return self.max_evaluations if self.max_evaluations is not None else self.experiment.max_evaluations

    @classmethod
    def smoke(cls) -> "CampaignConfig":
        """Tiny 2-algorithm x 2-application campaign (4 cells, seconds to run).

        This is the grid ``python -m repro campaign --smoke`` and the CI
        campaign smoke job execute end to end.
        """
        return cls(
            experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
            algorithms=("MOEA/D", "NSGA-II"),
            max_workers=1,
            max_evaluations=60,
        )
