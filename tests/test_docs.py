"""The documentation's python code blocks must stay runnable.

``tools/check_docs.py`` is what CI's docs job runs; executing it per
document here keeps a stale snippet from surviving the tier-1 gate.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import (  # noqa: E402
    API_PACKAGES,
    DOCUMENTS,
    api_coverage_failures,
    check_file,
    extract_blocks,
    public_api,
)
from check_links import (  # noqa: E402
    check_documents,
    check_link,
    github_slug,
    heading_anchors,
)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_document_code_blocks_execute(name):
    path = REPO_ROOT / name
    assert path.exists(), f"{name} is missing"
    check_file(path)


def test_readme_and_api_have_executable_examples():
    """The quickstarts must actually be code, not prose."""
    for name in ("README.md", "docs/api.md"):
        blocks = extract_blocks((REPO_ROOT / name).read_text(encoding="utf-8"))
        assert len(blocks) >= 2, f"{name} lost its python examples"


def test_paper_mapping_covers_every_benchmark():
    """Acceptance: docs/paper_mapping.md names every benchmark module."""
    mapping = (REPO_ROOT / "docs/paper_mapping.md").read_text(encoding="utf-8")
    benchmarks = sorted((REPO_ROOT / "benchmarks").glob("test_bench_*.py"))
    assert benchmarks, "no benchmarks found"
    missing = [b.name for b in benchmarks if b.name not in mapping]
    assert not missing, f"benchmarks absent from docs/paper_mapping.md: {missing}"


class TestApiCoverage:
    """Every repro.* export must be documented in docs/api.md."""

    def test_every_public_symbol_is_documented(self):
        failures = api_coverage_failures()
        assert not failures, f"exports missing from docs/api.md: {failures}"

    def test_coverage_spans_every_subpackage(self):
        exports = public_api()
        assert set(exports) == set(API_PACKAGES)
        # The serving layer's surface is part of the contract.
        assert "EstimationService" in exports["repro.serving"]
        assert "PermutationBatch" in exports["repro.core"]
        for package, symbols in exports.items():
            assert symbols, f"{package} exports nothing (missing __all__?)"

    def test_missing_symbol_is_detected(self, monkeypatch, tmp_path):
        """The checker actually fails when a symbol leaves the reference."""
        import check_docs

        text = (REPO_ROOT / "docs/api.md").read_text(encoding="utf-8")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text(
            text.replace("PermutationBatch", "Permutation_Redacted")
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        failures = api_coverage_failures()
        assert "repro.core.PermutationBatch" in failures

    def test_listed_but_unexported_name_is_detected(self, monkeypatch, tmp_path):
        """A table entry its section's packages do not export fails the check."""
        import check_docs

        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text(
            "`RetiredState` in prose is not an entry.\n\n"
            "## Full export reference\n\n"
            "### `repro.core` — estimators\n\n"
            "| symbol | what it is |\n"
            "| --- | --- |\n"
            "| `PermutationBatch`, `RetiredState` | a `NotAnEntry` in the second cell |\n\n"
            "### `repro.streaming` / `repro.serving` — sessions\n\n"
            "| `StreamingSession` / `ShardRouter` | one export of each package |\n\n"
            "## Next section\n\n"
            "| `OutsideTheSection` | not an entry |\n"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        stale = [f for f in api_coverage_failures() if f.endswith("not exported")]
        assert stale == ["repro.core.RetiredState is listed but not exported"]


class TestMarkdownLinks:
    """README + docs internal links (paths and anchors) must stay alive."""

    def test_no_dead_links_in_the_repo(self):
        failures = check_documents()
        assert not failures, f"dead markdown links: {failures}"

    def test_github_slugs(self):
        seen = {}
        assert github_slug("Serving layer — durable sessions", seen) == (
            "serving-layer--durable-sessions"
        )
        assert github_slug("`EstimationService` (`repro.serving`)", {}) == (
            "estimationservice-reproserving"
        )
        # Repeated headings get numbered suffixes.
        assert github_slug("Repeat", seen := {}) == "repeat"
        assert github_slug("Repeat", seen) == "repeat-1"

    def test_dead_paths_and_anchors_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# Only Heading\n\nsee [x](gone.md) and [y](#nope)\n")
        assert check_link(page, "gone.md") == "file does not exist"
        assert "nope" in check_link(page, "#nope")
        assert check_link(page, "#only-heading") == ""
        assert check_link(page, "https://example.com/anything") == ""

    def test_anchors_inside_code_fences_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# Real\n\n```text\n# not a heading\n```\n")
        assert heading_anchors(page) == ["real"]
