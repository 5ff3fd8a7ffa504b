"""Model sanitizers and the repo lint pass: the AEM axioms, executable.

Two halves (see ``docs/sanitizers.md``):

* **trace sanitizers** — observers and program checkers that verify model
  axioms on real runs: capacity (``occupancy <= M``), cost
  (``Q = Qr + omega*Qw`` recomputed from raw events), provenance (no
  teleported data), round form (Lemma 4.1), flash-reduction volume
  (Lemma 4.3);
* **source lint** — per-file, alias-aware AST rules AEM101-AEM106 and
  AEM108-AEM109
  enforcing the layering that keeps the model honest
  (:mod:`repro.sanitize.lint`);
* **dataflow analysis** — whole-program rules AEM201-AEM204 (phase
  balance, counting-safety inference, batch escape, async safety) built
  on the CFG/fixpoint engine in :mod:`repro.sanitize.flow` and the
  import/alias-resolving semantic model in
  :mod:`repro.sanitize.semantic`, with a committed fingerprint baseline
  and SARIF output (:mod:`repro.sanitize.analysis`,
  :mod:`repro.sanitize.report`).

Entry points: ``repro-aem check [--traces|--lint|--analysis|--all]
[--format text|json|sarif]``, the ``sanitized_machine`` pytest fixture,
``REPRO_SANITIZE=1`` global test mode, and :func:`attach_sanitizers`
for ad-hoc use.
"""

from .analysis import RULES, Finding, analyze_project, infer_counting_safe
from .base import (
    MAX_VIOLATIONS,
    Sanitizer,
    SanitizerError,
    TraceSanitizer,
    Violation,
)
from .capacity import CapacitySanitizer
from .cost import CostSanitizer
from .lint import LintViolation, lint_paths, lint_source
from .provenance import ProgramProvenanceSanitizer, ProvenanceSanitizer
from .reduction import ReductionSanitizer
from .rounds import RoundFormProgramSanitizer, RoundFormSanitizer, check_round_form
from .report import (
    apply_baseline,
    as_findings,
    load_baseline,
    render,
    render_sarif,
    write_baseline,
)
from .runner import run_analysis_checks, run_lint_checks, run_trace_checks
from .suite import SanitizerSuite, attach_sanitizers

__all__ = [
    "RULES",
    "Finding",
    "analyze_project",
    "infer_counting_safe",
    "apply_baseline",
    "as_findings",
    "load_baseline",
    "render",
    "render_sarif",
    "write_baseline",
    "run_analysis_checks",
    "MAX_VIOLATIONS",
    "Sanitizer",
    "SanitizerError",
    "TraceSanitizer",
    "Violation",
    "CapacitySanitizer",
    "CostSanitizer",
    "LintViolation",
    "lint_paths",
    "lint_source",
    "ProgramProvenanceSanitizer",
    "ProvenanceSanitizer",
    "ReductionSanitizer",
    "RoundFormProgramSanitizer",
    "RoundFormSanitizer",
    "check_round_form",
    "run_lint_checks",
    "run_trace_checks",
    "SanitizerSuite",
    "attach_sanitizers",
]
