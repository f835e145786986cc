"""The docs tree must exist, stay linked, and keep its links unbroken."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


class TestDocsTree:
    def test_required_pages_exist(self):
        for page in ("index.md", "architecture.md", "cli.md", "configuration.md",
                     "performance.md"):
            assert (DOCS / page).exists(), f"docs/{page} is missing"

    def test_readme_links_the_docs(self):
        readme = (REPO / "README.md").read_text()
        for page in ("docs/architecture.md", "docs/cli.md", "docs/configuration.md",
                     "docs/performance.md"):
            assert page in readme, f"README.md does not link {page}"

    def test_link_checker_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_docs_links.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, f"broken docs links:\n{result.stdout}{result.stderr}"

    def test_architecture_page_covers_the_pipeline(self):
        content = (DOCS / "architecture.md").read_text()
        for topic in ("RoutingEngine", "MoveDelta", "events.jsonl", "rollup",
                      "submit_campaign", "incremental repair"):
            assert topic in content, f"architecture.md lost its {topic!r} coverage"

    def test_cli_page_documents_every_subcommand(self):
        content = (DOCS / "cli.md").read_text()
        for command in ("repro run", "repro campaign", "repro tables",
                        "repro compact", "repro list", "repro lint", "--follow"):
            assert command in content, f"cli.md does not document {command!r}"

    def test_linting_page_covers_rules_and_workflow(self):
        content = (DOCS / "linting.md").read_text()
        for topic in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
                      "repro: allow[", "lint-baseline.json", "--write-baseline"):
            assert topic in content, f"linting.md lost its {topic!r} coverage"

    def test_configuration_page_covers_the_declarative_schema(self):
        from repro.study.registry import default_registry
        from repro.study.study import _CAMPAIGN_KEYS, _STUDY_KEYS

        content = (DOCS / "configuration.md").read_text()
        for key in _STUDY_KEYS + _CAMPAIGN_KEYS:
            assert f"`{key}`" in content, f"configuration.md does not document key {key!r}"
        # Every built-in optimizer's declared hyperparameters appear.
        registry = default_registry()
        for name in registry.names():
            for option in registry.spec(name).hyperparameters:
                assert f"`{option}`" in content, (
                    f"configuration.md does not document {name}'s option {option!r}"
                )

    @pytest.mark.parametrize(
        "heading, evidence",
        [
            ("Removed: the evaluation pool", "BENCH_routing.json"),
            ("Removed: cross-cell routing sharing", "228 hits / 64 misses / 107 repairs"),
        ],
    )
    def test_performance_page_records_the_removal_decisions(self, heading, evidence):
        """Each removed mechanism keeps a note on the performance page that
        cites the measurements behind the decision."""
        content = (DOCS / "performance.md").read_text()
        assert f"## {heading}" in content
        assert evidence in content
