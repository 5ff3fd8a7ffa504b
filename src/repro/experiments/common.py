"""Shared infrastructure for the experiment suite (E1–E14).

The paper has no tables or figures — its claims are theorems. Each
experiment here is the empirical shadow of one claim, as indexed in
DESIGN.md: it sweeps instances, measures exact I/O costs on the simulator,
prints a table, and evaluates named *checks* (the shape assertions: who
wins, what grows how fast, which inequalities hold). Benchmarks and the
CLI both call :func:`run_experiment`; EXPERIMENTS.md embeds the rendered
output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..engine import ExperimentConfig, active_engine, use_engine


@dataclass
class ExperimentResult:
    """One experiment's rendered tables plus its named checks."""

    eid: str
    title: str
    claim: str
    tables: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def render(self) -> str:
        lines = [f"## {self.eid}: {self.title}", "", f"Claim: {self.claim}", ""]
        for t in self.tables:
            lines.append(t)
            lines.append("")
        if self.notes:
            lines.extend(f"note: {n}" for n in self.notes)
            lines.append("")
        lines.append("Checks:")
        for name, ok in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Registry (populated by repro.experiments.__init__).
# ----------------------------------------------------------------------
Runner = Callable[[ExperimentConfig], ExperimentResult]
REGISTRY: Dict[str, Runner] = {}

_EID_RE = re.compile(r"([a-z]+)(\d+)")


def register(eid: str) -> Callable[[Runner], Runner]:
    def deco(fn: Runner) -> Runner:
        REGISTRY[eid.lower()] = fn
        return fn

    return deco


def natural_key(eid: str) -> tuple:
    """Sort key putting ``e2`` before ``e10`` (plain sort puts it after)."""
    m = _EID_RE.fullmatch(eid.lower())
    if m:
        return (m.group(1), int(m.group(2)))
    return (eid.lower(), -1)


def experiment_order() -> list[str]:
    """Registered experiment ids in natural order (a1..a3, e1..e19)."""
    return sorted(REGISTRY, key=natural_key)


def _run_under_engine(runner: Runner, config: ExperimentConfig) -> ExperimentResult:
    if active_engine() is not None:
        # A caller (the CLI, run_all, a test) already installed an engine;
        # share it so cache/pool state and stats aggregate across runs.
        return runner(config)
    with use_engine(config.make_engine()):
        return runner(config)


def run_experiment(
    eid: str, config: Optional[ExperimentConfig] = None
) -> ExperimentResult:
    """Run one experiment by id (``"e1"``..``"e19"``, ``"a1"``..``"a3"``).

    ``config`` carries the execution policy (budget, jobs, cache, seed,
    observers).
    """
    key = eid.lower()
    if key not in REGISTRY:
        raise KeyError(f"unknown experiment {eid!r}; available: {sorted(REGISTRY)}")
    cfg = config if config is not None else ExperimentConfig()
    return _run_under_engine(REGISTRY[key], cfg)


def run_all(config: Optional[ExperimentConfig] = None) -> list[ExperimentResult]:
    """Run every registered experiment, in natural id order."""
    cfg = config if config is not None else ExperimentConfig()
    ids = experiment_order()
    if active_engine() is not None:
        return [REGISTRY[k](cfg) for k in ids]
    with use_engine(cfg.make_engine()):
        return [REGISTRY[k](cfg) for k in ids]
