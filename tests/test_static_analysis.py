"""End-to-end tests for the dataflow rules (AEM201-AEM204), the
fixture violation corpus, counting-safety inference against the real
tree, and the baseline/report pipeline."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from repro.sanitize.analysis import (
    RULES,
    Finding,
    analyze_project,
    infer_counting_safe,
    infer_payload_sites,
)
from repro.sanitize.lint import lint_paths
from repro.sanitize.report import (
    apply_baseline,
    as_findings,
    load_baseline,
    render,
    render_sarif,
    write_baseline,
)
from repro.sanitize.runner import (
    default_baseline_path,
    default_lint_root,
    run_analysis_checks,
)
from repro.sanitize.semantic import ProjectModel

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "flow" / "repro"

_EXPECT = re.compile(r"#\s*aem-expect:\s*([A-Z0-9,\s]+)")
_EXPECT_LINT = re.compile(r"#\s*aem-expect-lint:\s*([A-Z0-9,\s]+)")


def _annotations(pattern: re.Pattern) -> Counter:
    """Multiset of (rule, path-relative-to-package-parent, line) the
    corpus declares via ``# aem-expect`` / ``# aem-expect-lint``."""
    expected: Counter = Counter()
    for path in sorted(FIXTURE_ROOT.rglob("*.py")):
        rel = str(Path("repro") / path.relative_to(FIXTURE_ROOT))
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            m = pattern.search(text)
            if not m:
                continue
            for rule in m.group(1).replace(",", " ").split():
                expected[(rule, rel, lineno)] += 1
    return expected


# ----------------------------------------------------------------------
# The injected-violation corpus: every annotation caught, nothing extra.
# ----------------------------------------------------------------------
def test_fixture_corpus_matches_annotations_exactly() -> None:
    """The missed-by-design list is empty: the analyzer reports exactly
    the multiset of injected AEM201-AEM204 violations, no more, no
    less."""
    expected = _annotations(_EXPECT)
    assert expected, "fixture corpus lost its annotations"
    found = Counter(
        (f.rule, f.path, f.line) for f in analyze_project(FIXTURE_ROOT)
    )
    assert found == expected


def test_fixture_corpus_covers_every_dataflow_rule() -> None:
    rules = {rule for rule, _, _ in _annotations(_EXPECT)}
    assert {"AEM201", "AEM202", "AEM203", "AEM204"} <= rules


def test_fixture_lint_catches_aliased_machine_construction() -> None:
    """AEM108 through import aliases, attribute rebinding, and deferred
    imports — the laundering forms a textual grep misses."""
    expected = Counter(
        (rule, rel.split("repro/", 1)[1], line)
        for (rule, rel, line) in _annotations(_EXPECT_LINT)
    )
    assert expected, "lint corpus lost its annotations"
    found = Counter(
        (v.rule, str(Path(v.path).resolve().relative_to(FIXTURE_ROOT)), v.line)
        for v in lint_paths([FIXTURE_ROOT])
    )
    assert found == expected


def test_disable_comment_suppresses_analysis_findings() -> None:
    """``# lint: disable=AEM201``/``AEM203`` are honoured by the dataflow
    rules; with ``respect_disables=False`` the suppressed findings
    surface."""
    respected = analyze_project(FIXTURE_ROOT)
    raw = analyze_project(FIXTURE_ROOT, respect_disables=False)
    assert len(raw) == len(respected) + 2
    extra = set(
        (f.rule, f.path, f.line) for f in raw
    ) - set((f.rule, f.path, f.line) for f in respected)
    assert sorted((rule, Path(path).name) for rule, path, _line in extra) == [
        ("AEM201", "phased.py"),
        ("AEM203", "retention.py"),
    ]


def test_aem202_flags_dirty_sort_only() -> None:
    """Among the fixture sorters only ``dirty_sort`` reaches a payload
    read in counting mode; the finding points at the registry line."""
    findings = [f for f in analyze_project(FIXTURE_ROOT) if f.rule == "AEM202"]
    sorter = [f for f in findings if "sorting/base.py" in f.path]
    assert [f.symbol for f in sorter] == ["dirty_sort"]
    assert "sorter 'dirty_sort' must run on counting machines" in sorter[0].message
    assert "dirty_sort.py" in sorter[0].message  # the witness payload site
    permuter = [f for f in findings if "permute/base.py" in f.path]
    assert [f.symbol for f in permuter] == ["leaky"]


def test_aem202_guarded_payload_reads_are_safe() -> None:
    """A payload read only reachable on ``not counting`` edges — even
    through a helper call — does not disqualify a sorter."""
    inferred = infer_counting_safe(ProjectModel(FIXTURE_ROOT))
    assert inferred["guarded_sort"] is True
    assert inferred["clean_sort"] is True
    assert inferred["dirty_sort"] is False
    assert inferred["leaky"] is False


# ----------------------------------------------------------------------
# The real tree: clean, and every registered entry is counting-safe.
# ----------------------------------------------------------------------
def test_all_registered_sorters_are_counting_safe() -> None:
    from repro.sorting.base import SORTERS

    sites = infer_payload_sites(ProjectModel(default_lint_root()))
    for name in SORTERS:
        assert name in sites
        assert not sites[name], (
            f"sorter {name!r} reaches payload ops in counting mode: "
            f"{[f'{s.path}:{s.line}' for s in sites[name]]}"
        )


def test_all_registered_permuters_are_counting_safe() -> None:
    from repro.permute.base import PERMUTERS

    sites = infer_payload_sites(ProjectModel(default_lint_root()))
    for name in PERMUTERS:
        assert name in sites
        assert not sites[name], (
            f"permuter {name!r} reaches payload ops in counting mode: "
            f"{[f'{s.path}:{s.line}' for s in sites[name]]}"
        )


def test_real_tree_is_analysis_clean_modulo_baseline() -> None:
    new, _suppressed = run_analysis_checks()
    assert new == [], "\n".join(f.render() for f in new)


def test_default_baseline_path_is_repo_root() -> None:
    assert default_baseline_path().name == ".aem-baseline.json"
    assert (default_baseline_path().parent / "pyproject.toml").exists()


# ----------------------------------------------------------------------
# Fingerprints, baseline, rendering.
# ----------------------------------------------------------------------
def _finding(line: int = 10, message: str = "enter_phase('x') at line 10") -> Finding:
    return Finding("AEM201", "repro/machine/cost.py", line, "f", message)


def test_fingerprint_ignores_line_numbers() -> None:
    a = _finding(line=10, message="unbalanced at line 10")
    b = _finding(line=99, message="unbalanced at line 99")
    assert a.fingerprint == b.fingerprint
    c = Finding("AEM202", a.path, a.line, a.symbol, a.message)
    assert c.fingerprint != a.fingerprint


def test_baseline_roundtrip_suppresses_known_findings(tmp_path) -> None:
    f1, f2 = _finding(), Finding("AEM204", "repro/serve/app.py", 5, "h", "m")
    path = tmp_path / ".aem-baseline.json"
    write_baseline(path, [f1])
    baseline = load_baseline(path)
    assert set(baseline) == {f1.fingerprint}
    new, suppressed = apply_baseline([f1, f2], baseline)
    assert new == [f2]
    assert suppressed == [f1]


def test_write_baseline_keeps_existing_reasons(tmp_path) -> None:
    f1 = _finding()
    path = tmp_path / ".aem-baseline.json"
    write_baseline(path, [f1])
    doc = json.loads(path.read_text())
    doc["suppressions"][0]["reason"] = "legacy phase pairing, tracked in #42"
    path.write_text(json.dumps(doc))
    write_baseline(path, [f1], previous=load_baseline(path))
    doc = json.loads(path.read_text())
    assert doc["suppressions"][0]["reason"] == "legacy phase pairing, tracked in #42"


def test_missing_baseline_is_empty() -> None:
    assert load_baseline(Path("/nonexistent/.aem-baseline.json")) == {}


def test_render_json_shape() -> None:
    doc = json.loads(render([_finding()], "json", suppressed=2))
    assert doc["tool"] == "repro-aem"
    assert doc["summary"] == {
        "total": 1,
        "suppressed_by_baseline": 2,
        "by_rule": {"AEM201": 1},
    }
    (row,) = doc["findings"]
    assert row["rule"] == "AEM201"
    assert row["fingerprint"] == _finding().fingerprint


def test_render_sarif_shape() -> None:
    doc = json.loads(render_sarif(as_findings([_finding()])))
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(RULES)
    assert "AEM201" in rule_ids and "AEM108" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "AEM201"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/machine/cost.py"
    assert loc["region"]["startLine"] == 10
    assert result["partialFingerprints"]["aemFingerprint/v1"] == _finding().fingerprint
    assert result["ruleIndex"] == rule_ids.index("AEM201")


def test_committed_baseline_is_valid_and_current() -> None:
    """The committed baseline parses, and every suppression in it still
    matches a real finding (no stale entries)."""
    path = default_baseline_path()
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    current = {f.fingerprint for f in analyze_project(default_lint_root())}
    stale = [
        s["fingerprint"]
        for s in doc["suppressions"]
        if s["fingerprint"] not in current
    ]
    assert not stale, f"baseline entries no longer needed: {stale}"
