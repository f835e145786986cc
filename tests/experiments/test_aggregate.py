"""Tests for campaign routing-cache stats and the shard -> tables aggregation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import (
    MANIFEST_NAME,
    aggregate_routing_cache_stats,
    campaign_cells,
    load_manifest,
    make_problem,
    run_algorithm,
    run_campaign,
)
from repro.experiments.tables import CampaignAggregate, aggregate_campaign
from repro.moo.termination import Budget

#: The routing-engine counters every shard and the manifest record.
COUNTERS = ("hits", "misses", "incremental_repairs", "requests", "hit_rate")


@pytest.fixture()
def campaign():
    """2 algorithms x 2 applications x 1 scenario, tiny budget."""
    return CampaignConfig(
        experiment=replace(ExperimentConfig.smoke(), applications=("BFS", "BP")),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
    )


@pytest.fixture()
def finished_campaign(campaign, tmp_path):
    summary = run_campaign(campaign, tmp_path)
    return campaign, summary


class TestRoutingCacheStats:
    def test_every_shard_records_engine_counters(self, finished_campaign):
        campaign, summary = finished_campaign
        for cell in summary.cells:
            payload = json.loads((summary.output_dir / cell.shard_name).read_text())
            stats = payload["routing_cache"]
            assert set(stats) == {"enabled", *COUNTERS, "cached_topologies"}
            assert stats["enabled"]
            assert stats["requests"] == stats["hits"] + stats["misses"] + stats["incremental_repairs"]
            assert stats["requests"] > 0

    def test_manifest_summarises_the_whole_grid(self, finished_campaign):
        campaign, summary = finished_campaign
        manifest = load_manifest(summary.output_dir)
        stats = manifest["routing_cache"]
        assert set(stats) == {"cells_counted", "cells_missing_stats", *COUNTERS}
        assert stats["cells_counted"] == len(summary.cells)
        assert stats["cells_missing_stats"] == 0
        assert stats["hits"] > 0  # placement-only moves must have hit the cache
        assert stats["requests"] == stats["hits"] + stats["misses"] + stats["incremental_repairs"]
        assert 0.0 < stats["hit_rate"] <= 1.0
        assert summary.routing_cache == stats

    def test_resume_preserves_manifest_stats(self, finished_campaign):
        campaign, summary = finished_campaign
        resumed = run_campaign(campaign, summary.output_dir)
        assert not resumed.executed
        manifest = load_manifest(summary.output_dir)
        assert manifest["routing_cache"] == summary.routing_cache

    def test_escape_hatch_disables_engine_in_cells(self, campaign, tmp_path):
        disabled = replace(campaign, routing_cache=False)
        summary = run_campaign(disabled, tmp_path)
        manifest = load_manifest(summary.output_dir)
        stats = manifest["routing_cache"]
        assert stats["requests"] == 0 and stats["hit_rate"] == 0.0

    def test_each_cell_owns_its_routing_engine(self, finished_campaign):
        """A shard's counters equal those of the same cell run on its own:
        no routing state crosses from one cell to the next."""
        campaign, summary = finished_campaign
        experiment = campaign.experiment
        for cell in summary.cells:
            problem = make_problem(
                experiment,
                cell.application,
                cell.num_objectives,
                scenario_model=cell.scenario,
                scenario_seed=cell.seed,
            )
            run_algorithm(
                cell.algorithm,
                problem,
                experiment,
                budget=Budget.evaluations(campaign.cell_budget),
                seed=cell.seed,
            )
            payload = json.loads((summary.output_dir / cell.shard_name).read_text())
            assert payload["routing_cache"] == problem.routing_cache_stats()

    def test_pooled_cells_record_the_inline_counters(self, campaign, tmp_path):
        inline = run_campaign(campaign, tmp_path / "inline")
        pooled = run_campaign(replace(campaign, max_workers=2), tmp_path / "pooled")
        for cell in inline.cells:
            shards = [
                json.loads((summary.output_dir / cell.shard_name).read_text())
                for summary in (inline, pooled)
            ]
            assert shards[0]["routing_cache"] == shards[1]["routing_cache"]
        assert pooled.routing_cache == inline.routing_cache

    def test_shard_topologies_come_from_the_cells_own_builds(self, finished_campaign):
        """Every topology a shard reports cached was built (or repaired) by
        that cell's engine; none is left over from an earlier cell."""
        campaign, summary = finished_campaign
        for cell in summary.cells:
            stats = json.loads((summary.output_dir / cell.shard_name).read_text())["routing_cache"]
            assert 0 < stats["cached_topologies"] <= stats["misses"] + stats["incremental_repairs"]

    def test_manifest_counters_are_the_sum_of_the_shards(self, finished_campaign):
        campaign, summary = finished_campaign
        shards = [
            json.loads((summary.output_dir / cell.shard_name).read_text())["routing_cache"]
            for cell in summary.cells
        ]
        stats = load_manifest(summary.output_dir)["routing_cache"]
        for name in ("hits", "misses", "incremental_repairs", "requests"):
            assert stats[name] == sum(shard[name] for shard in shards)
        assert stats["hit_rate"] == stats["hits"] / stats["requests"]

    def test_cell_counters_do_not_depend_on_grid_order(self, campaign, tmp_path):
        forward = run_campaign(campaign, tmp_path / "forward")
        reordered = replace(
            campaign,
            algorithms=tuple(reversed(campaign.algorithms)),
            experiment=replace(
                campaign.experiment,
                applications=tuple(reversed(campaign.experiment.applications)),
            ),
        )
        backward = run_campaign(reordered, tmp_path / "backward")
        assert [cell.shard_name for cell in backward.cells] != [
            cell.shard_name for cell in forward.cells
        ]
        for cell in forward.cells:
            shards = [
                json.loads((summary.output_dir / cell.shard_name).read_text())
                for summary in (forward, backward)
            ]
            assert shards[0]["routing_cache"] == shards[1]["routing_cache"]
            assert shards[0]["objectives"] == shards[1]["objectives"]

    def test_rerun_after_deleting_shards_reproduces_them(self, finished_campaign):
        """Re-running a campaign whose shards were deleted (the manifest
        kept) writes the same shards, routing counters included; only
        wall-clock timings differ."""
        campaign, summary = finished_campaign

        def strip_timings(payload):
            if isinstance(payload, dict):
                return {
                    key: strip_timings(value)
                    for key, value in payload.items()
                    if key != "elapsed_seconds"
                }
            if isinstance(payload, list):
                return [strip_timings(item) for item in payload]
            return payload

        def bodies():
            return {
                cell.shard_name: strip_timings(
                    json.loads((summary.output_dir / cell.shard_name).read_text())
                )
                for cell in summary.cells
            }

        before = bodies()
        for cell in summary.cells:
            (summary.output_dir / cell.shard_name).unlink()
        rerun = run_campaign(campaign, summary.output_dir)
        assert len(rerun.executed) == len(summary.cells)
        assert bodies() == before
        assert rerun.routing_cache == summary.routing_cache

    def test_aggregation_tolerates_legacy_shards(self, finished_campaign):
        campaign, summary = finished_campaign
        cells = campaign_cells(campaign)
        legacy = summary.output_dir / cells[0].shard_name
        payload = json.loads(legacy.read_text())
        del payload["routing_cache"]
        legacy.write_text(json.dumps(payload))
        stats = aggregate_routing_cache_stats(summary.output_dir, cells)
        assert stats["cells_counted"] == len(cells) - 1
        assert stats["cells_missing_stats"] == 1

    def test_routing_cache_flag_does_not_change_results(self, campaign, tmp_path):
        on = run_campaign(campaign, tmp_path / "on")
        off = run_campaign(replace(campaign, routing_cache=False), tmp_path / "off")
        for cell in on.cells:
            payload_on = json.loads((on.output_dir / cell.shard_name).read_text())
            payload_off = json.loads((off.output_dir / cell.shard_name).read_text())
            np.testing.assert_allclose(
                np.asarray(payload_on["objectives"]),
                np.asarray(payload_off["objectives"]),
                rtol=1e-12,
            )
            assert payload_on["designs"] == payload_off["designs"]


class TestAggregateCampaign:
    def test_runs_grouped_by_application_and_scenario(self, finished_campaign):
        campaign, summary = finished_campaign
        aggregate = aggregate_campaign(summary.output_dir)
        assert isinstance(aggregate, CampaignAggregate)
        assert set(aggregate.runs) == {("BFS", 3), ("BP", 3)}
        for results in aggregate.runs.values():
            assert set(results) == {"MOEA/D", "NSGA-II"}
        assert aggregate.algorithms == ("MOEA/D", "NSGA-II")
        assert aggregate.objective_counts == (3,)
        assert aggregate.routing_cache["hits"] > 0

    def test_target_prefers_moela_else_first(self, finished_campaign):
        campaign, summary = finished_campaign
        aggregate = aggregate_campaign(summary.output_dir)
        assert aggregate.target == "MOEA/D"  # no MOELA in this grid
        assert aggregate.baselines == ("NSGA-II",)

    def test_tables_render_without_rerunning(self, finished_campaign):
        campaign, summary = finished_campaign
        aggregate = aggregate_campaign(summary.output_dir)
        table1 = aggregate.table1()
        table2 = aggregate.table2()
        assert {cell.application for cell in table1.cells} == {"BFS", "BP"}
        assert all(cell.baseline == "NSGA-II" for cell in table1.cells)
        assert all(np.isfinite(cell.value) and cell.value > 0 for cell in table1.cells)
        assert {cell.application for cell in table2.cells} == {"BFS", "BP"}

    def test_partial_campaign_renders_comparable_cells_only(self, finished_campaign):
        campaign, summary = finished_campaign
        # Drop one algorithm's shard for BP: the BP comparison disappears,
        # the BFS one stays.
        for cell in summary.cells:
            if cell.application == "BP" and cell.algorithm == "NSGA-II":
                (summary.output_dir / cell.shard_name).unlink()
        aggregate = aggregate_campaign(summary.output_dir)
        table1 = aggregate.table1()
        assert {cell.application for cell in table1.cells} == {"BFS"}

    def test_strict_builders_still_raise_on_missing_algorithms(self, finished_campaign):
        """build_table1's experiment-driven path keeps its KeyError contract."""
        campaign, summary = finished_campaign
        from repro.experiments.tables import build_table1

        aggregate = aggregate_campaign(summary.output_dir)
        with pytest.raises(KeyError, match="MOELA"):
            build_table1(campaign.experiment, runs=aggregate.runs)

    def test_empty_campaign_raises_on_target(self, campaign, tmp_path):
        cells = campaign_cells(campaign)
        from repro.experiments.runner import _manifest_payload
        from repro.utils.serialization import write_json_atomic

        write_json_atomic(_manifest_payload(campaign, cells), tmp_path / MANIFEST_NAME)
        aggregate = aggregate_campaign(tmp_path)
        with pytest.raises(ValueError, match="no completed shards"):
            _ = aggregate.target
