"""Tests for the Study façade: equivalence, round-trips, campaigns, plug-ins."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import CampaignConfig
from repro.experiments.runner import make_problem, run_algorithm, run_campaign
from repro.moo.base import PopulationOptimizer
from repro.moo.termination import Budget
from repro.study.registry import OptimizerSpec, default_registry, register_optimizer
from repro.study.study import PLATFORM_FACTORIES, Study, resolve_platform

#: Study used by most tests: tiny platform, one app, 60 evaluations per run.
def smoke_study(*algorithms: str) -> Study:
    study = Study(platform="tiny", objectives=3, preset="smoke").apps("BFS").evaluations(60)
    if algorithms:
        study.algorithms(*algorithms)
    return study


def assert_results_identical(a, b):
    """Bit-identical OptimizationResults (objectives, history, counters)."""
    assert a.algorithm == b.algorithm
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.objectives, b.objectives)
    assert len(a.history) == len(b.history)
    for snap_a, snap_b in zip(a.history, b.history):
        assert snap_a.iteration == snap_b.iteration
        assert snap_a.evaluations == snap_b.evaluations
        assert np.array_equal(snap_a.front, snap_b.front)


class TestResolvePlatform:
    @pytest.mark.parametrize("name", ["tiny", "TINY_2x2x2", "tiny-2x2x2"])
    def test_names_resolve(self, name):
        assert resolve_platform(name) == PLATFORM_FACTORIES["tiny"]()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown platform"):
            resolve_platform("mega")


class TestStudyValidation:
    def test_unknown_algorithm_raises_with_available_names(self):
        with pytest.raises(ValueError, match="available: MOELA, MOEA/D"):
            smoke_study().algorithm("SIMULATED-ANNEALING")

    def test_unknown_hyperparameter_raises(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            smoke_study().algorithm("nsga2", warp_factor=9)

    def test_duplicate_algorithm_rejected(self):
        with pytest.raises(ValueError, match="already part of the study"):
            smoke_study().algorithm("moead").algorithm("MOEA/D")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            Study(preset="warp")

    def test_from_dict_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown study keys"):
            Study.from_dict({"preset": "smoke", "colour": "blue"})

    def test_from_dict_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="available: MOELA"):
            Study.from_dict({"algorithms": ["NOPE"]})

    @pytest.mark.parametrize(
        "key", ["turbo", "parallel_evaluation", "shared_routing_cache", "routing_warm_start"]
    )
    def test_from_dict_unknown_campaign_key_raises(self, key):
        with pytest.raises(ValueError, match=rf"unknown campaign keys \['{key}'\]"):
            Study.from_dict({"campaign": {"output_dir": "x", key: True}})

    @pytest.mark.parametrize("key", ["shared_routing_cache", "routing_warm_start"])
    def test_campaign_rejects_removed_routing_parameters(self, key, tmp_path):
        with pytest.raises(TypeError, match=key):
            smoke_study().campaign(tmp_path, **{key: True})

    @pytest.mark.parametrize(
        "payload, key, value",
        [
            ({"routing_cache": "false"}, "routing_cache", "'false'"),
            ({"seed": 1.5}, "seed", "1.5"),
            ({"evaluations": True}, "evaluations", "True"),
            ({"campaign": {"output_dir": "x", "resume": "false"}}, "resume", "'false'"),
            ({"campaign": {"output_dir": "x", "event_log": "no"}}, "event_log", "'no'"),
            ({"campaign": {"output_dir": "x", "repair_infeasible": 1}}, "repair_infeasible", "1"),
            ({"campaign": {"output_dir": "x", "max_workers": 2.9}}, "max_workers", "2.9"),
            ({"campaign": {"output_dir": "x", "max_workers": True}}, "max_workers", "True"),
            (
                {"campaign": {"output_dir": "x", "repair_max_rounds": "4"}},
                "repair_max_rounds",
                "'4'",
            ),
        ],
    )
    def test_from_dict_rejects_mistyped_values(self, payload, key, value):
        """Study files are not coerced: a wrong type fails, naming key and value."""
        pattern = re.escape(f"{key!r} must be") + ".*" + re.escape(value)
        with pytest.raises(ValueError, match=pattern):
            Study.from_dict(payload)

    def test_campaign_requires_output_dir(self):
        with pytest.raises(ValueError, match="output_dir"):
            Study.from_dict({"campaign": {"max_workers": 2}})


class TestSeededEquivalence:
    """Acceptance criterion: Study runs are bit-identical to run_algorithm."""

    @pytest.mark.parametrize("algorithm", ["MOELA", "MOEA/D", "MOOS", "MOO-STAGE", "NSGA-II"])
    def test_study_matches_legacy_run_algorithm(self, algorithm):
        study = smoke_study(algorithm)
        via_study = study.run().result(algorithm)

        experiment = study.experiment()
        problem = make_problem(experiment, "BFS", 3)
        legacy = run_algorithm(
            algorithm, problem, experiment, budget=Budget.evaluations(60)
        )
        assert_results_identical(via_study, legacy)

    def test_experiment_reflects_overrides(self):
        experiment = smoke_study().experiment()
        assert experiment.platform.name == "tiny-2x2x2"
        assert experiment.applications == ("BFS",)
        assert experiment.objective_counts == (3,)
        assert experiment.max_evaluations == 60


class TestRoundTrip:
    """Acceptance criterion: from_dict(to_dict()) reproduces seeded results."""

    def test_round_trip_identical_results_for_every_registered_optimizer(self):
        for algorithm in default_registry().names():
            study = smoke_study(algorithm)
            clone = Study.from_dict(study.to_dict())
            assert clone.to_dict() == study.to_dict()
            assert_results_identical(
                study.run().result(algorithm), clone.run().result(algorithm)
            )

    def test_round_trip_preserves_options(self):
        study = smoke_study().algorithm("nsga2", population_size=4, mutation_probability=0.5)
        payload = study.to_dict()
        assert payload["algorithms"] == [
            {"name": "NSGA-II", "options": {"population_size": 4, "mutation_probability": 0.5}}
        ]
        clone = Study.from_dict(payload)
        a = study.run().result("NSGA-II")
        b = clone.run().result("NSGA-II")
        assert_results_identical(a, b)
        assert a.objectives.shape[0] == 4

    def test_round_trip_through_json_and_toml_files(self, tmp_path):
        study = smoke_study("MOEA/D")
        json_path = tmp_path / "study.json"
        json_path.write_text(json.dumps(study.to_dict()))
        assert Study.from_file(json_path).to_dict() == study.to_dict()

        toml_path = tmp_path / "study.toml"
        toml_path.write_text(
            'preset = "smoke"\nplatform = "tiny"\nobjectives = [3]\n'
            'applications = ["BFS"]\nalgorithms = ["MOEA/D"]\nevaluations = 60\n'
        )
        assert Study.from_file(toml_path).to_dict() == study.to_dict()

    def test_custom_platform_round_trips_as_dict(self):
        """Custom platforms serialise field-by-field — including the
        energy/thermal/frequency constants, which must survive the trip."""
        platform = replace(
            PLATFORM_FACTORIES["tiny"](), router_stages=3, link_energy_per_flit=2.25
        )
        study = Study(platform=platform, preset="smoke")
        payload = study.to_dict()
        assert isinstance(payload["platform"], dict)
        rebuilt = Study.from_dict(payload).experiment().platform
        assert rebuilt == platform
        assert rebuilt.link_energy_per_flit == 2.25

    def test_custom_platform_reusing_a_factory_name_still_serialises_fields(self):
        platform = replace(PLATFORM_FACTORIES["tiny"](), link_energy_per_flit=2.25)
        assert platform.name == "tiny-2x2x2"
        payload = Study(platform=platform, preset="smoke").to_dict()
        assert isinstance(payload["platform"], dict)

    def test_unset_fields_stay_absent(self):
        assert smoke_study().to_dict() == {
            "preset": "smoke",
            "platform": "tiny-2x2x2",
            "objectives": [3],
            "applications": ["BFS"],
            "evaluations": 60,
        }

    def test_campaign_to_dict_omits_removed_routing_keys(self, tmp_path):
        campaign = smoke_study().campaign(tmp_path).to_dict()["campaign"]
        assert campaign == {"output_dir": str(tmp_path)}
        assert "shared_routing_cache" not in campaign and "routing_warm_start" not in campaign


class TestStudyResult:
    def test_result_accessor_disambiguation(self):
        result = smoke_study("MOEA/D", "NSGA-II").run()
        assert result.result("moead").algorithm == "MOEA/D"
        with pytest.raises(KeyError):
            result.result("MOELA")

    def test_iteration_yields_every_run(self):
        result = smoke_study("MOEA/D", "NSGA-II").run()
        rows = list(result)
        assert {(app, m, name) for app, m, name, _ in rows} == {
            ("BFS", 3, "MOEA/D"),
            ("BFS", 3, "NSGA-II"),
        }

    def test_tables_and_cache_summary(self):
        result = smoke_study("MOEA/D", "NSGA-II").run()
        assert result.target == "MOEA/D"
        text = result.format_tables()
        assert "Table I" in text and "Table II" in text
        stats = result.routing_cache_summary()
        assert stats["requests"] > 0 and 0.0 <= stats["hit_rate"] <= 1.0

    def test_cache_summary_does_not_double_count_shared_engines(self):
        """Inline runs share one engine per (app, m) group and each result's
        snapshot is cumulative, so the fold must use the group's last
        snapshot — not the sum of every algorithm's snapshot."""
        result = smoke_study("MOEA/D", "NSGA-II").run()
        group = result.runs[("BFS", 3)]
        last = list(group.values())[-1].metadata["routing_cache"]
        expected = sum(int(last[k]) for k in ("hits", "misses", "incremental_repairs"))
        assert result.routing_cache_summary()["requests"] == expected

    def test_summary_rows(self):
        rows = smoke_study("MOEA/D").run().summary_rows()
        assert len(rows) == 1 and rows[0]["algorithm"] == "MOEA/D"


class TestStudyCampaign:
    def test_campaign_mode_produces_unified_result(self, tmp_path):
        study = (
            Study(preset="smoke")
            .apps("BFS", "BP")
            .algorithms("MOEA/D", "NSGA-II")
            .evaluations(40)
            .campaign(tmp_path / "campaign")
        )
        result = study.run()
        assert result.campaign is not None
        assert len(result.campaign.executed) == 4
        assert sorted(result.runs) == [("BFS", 3), ("BP", 3)]
        assert result.routing_cache_summary()["hit_rate"] > 0

        resumed = Study.from_dict(study.to_dict()).run()
        assert resumed.campaign.executed == []
        assert len(resumed.campaign.skipped) == 4

    def test_campaign_cells_match_direct_config(self, tmp_path):
        """Study campaigns resume directories written by CampaignConfig.smoke()."""
        direct = CampaignConfig.smoke()
        run_campaign(direct, tmp_path)
        study = (
            Study(preset="smoke")
            .apps("BFS", "BP")
            .algorithms("MOEA/D", "NSGA-II")
            .evaluations(60)
            .campaign(tmp_path)
        )
        result = study.run()
        assert result.campaign.executed == []
        assert len(result.campaign.skipped) == 4

    def test_campaign_rejects_per_algorithm_options(self, tmp_path):
        study = smoke_study().algorithm("nsga2", population_size=4).campaign(tmp_path)
        with pytest.raises(ValueError, match="does not support per-algorithm"):
            study.run()


class RandomRestart(PopulationOptimizer):
    """Minimal custom optimizer used by the end-to-end plug-in test."""

    name = "RANDOM-RESTART"

    def step(self, iteration, budget):
        brood = [
            self.problem.random_design(self.rng)
            for _ in range(self.brood_limit(budget, self.population_size))
        ]
        if brood:
            self.evaluate_batch(brood)


class TestThirdPartyOptimizer:
    """Acceptance criterion: a custom optimizer runs through Study AND a
    campaign shard without modifying repro/experiments."""

    @pytest.fixture()
    def registered(self):
        spec = OptimizerSpec(
            name="RANDOM-RESTART",
            factory=lambda problem, experiment, seed, **options: RandomRestart(
                problem, population_size=experiment.population_size, rng=seed
            ),
        )
        register_optimizer(spec)
        yield spec
        default_registry().unregister("RANDOM-RESTART")

    def test_spec_default_budget_honored_by_study(self, tmp_path):
        """The façade defers to the spec's default budget wiring (it must not
        silently re-derive a budget the registration overrode)."""
        spec = OptimizerSpec(
            name="SHORT-WALK",
            factory=lambda problem, experiment, seed, **options: RandomRestart(
                problem, population_size=experiment.population_size, rng=seed
            ),
            default_budget=lambda experiment: Budget.evaluations(18),
        )
        register_optimizer(spec)
        try:
            result = smoke_study("short-walk").run().result("SHORT-WALK")
            assert result.evaluations == 18
        finally:
            default_registry().unregister("SHORT-WALK")

    def test_runs_through_study_and_campaign_shard(self, registered, tmp_path):
        result = smoke_study("random-restart").run().result("RANDOM-RESTART")
        assert result.evaluations == 60

        study = (
            Study(preset="smoke")
            .apps("BFS")
            .algorithms("RANDOM-RESTART", "NSGA-II")
            .evaluations(40)
            .campaign(tmp_path)
        )
        outcome = study.run()
        assert len(outcome.campaign.executed) == 2
        shard = outcome.runs[("BFS", 3)]["RANDOM-RESTART"]
        assert shard.algorithm == "RANDOM-RESTART"
        assert shard.evaluations == 40


class TestScenarios:
    FAULT = "link_failure(k=1,mode=remove,derate_factor=0.5)"

    def test_scenarios_round_trip_canonicalised(self):
        study = smoke_study("nsga2").scenarios("identity", "link_failure(k=1)")
        payload = study.to_dict()
        assert payload["scenarios"] == ["identity", self.FAULT]
        assert Study.from_dict(payload).to_dict()["scenarios"] == payload["scenarios"]

    def test_unset_scenarios_stay_absent(self):
        assert "scenarios" not in smoke_study("nsga2").to_dict()

    def test_unknown_scenario_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario model"):
            Study.from_dict({"scenarios": ["meteor_strike"]})

    def test_invalid_scenario_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            smoke_study("nsga2").scenarios("link_failure(k=0)")

    def test_duplicate_scenarios_rejected_at_experiment_build(self):
        study = smoke_study("nsga2").scenarios("identity", "link_failure(k=1)", "link_failure(k=1)")
        with pytest.raises(ValueError, match="duplicate scenario models"):
            study.experiment()

    def test_inline_run_refuses_fault_scenarios(self):
        study = smoke_study("nsga2").scenarios("identity", self.FAULT)
        with pytest.raises(ValueError, match="campaign mode"):
            study.run()

    def test_campaign_with_scenario_axis_and_rollup_analytics(self, tmp_path):
        study = (
            smoke_study("nsga2")
            .evaluations(40)
            .scenarios("identity", self.FAULT)
            .campaign(tmp_path)
        )
        result = study.run()
        assert len(result.campaign.executed) == 2  # identity + faulted cell
        certificate = result.robustness()
        assert len(certificate.records) == 1
        assert certificate.records[0].scenario == self.FAULT
        sensitivity = result.sensitivity()
        assert {e.scenario for e in sensitivity.entries} == {self.FAULT}

    def test_robustness_requires_campaign_mode(self):
        result = smoke_study("nsga2").run()
        with pytest.raises(ValueError, match="campaign"):
            result.robustness()
        with pytest.raises(ValueError, match="campaign"):
            result.sensitivity()

    def test_scenarios_key_accepted_in_study_files(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "preset": "smoke",
            "applications": ["BFS"],
            "algorithms": ["NSGA-II"],
            "evaluations": 40,
            "scenarios": ["identity", "link_failure(k=1)"],
        }))
        study = Study.from_file(config)
        assert study.experiment().scenario_models == ("identity", self.FAULT)
