"""ExperimentConfig: one object for how an experiment run should execute.

The old API threaded a bare ``quick: bool`` through ``run_experiment`` /
``run_all`` / every registered runner. That flag is now one field of a
frozen :class:`ExperimentConfig` carrying everything execution-related —
budget, sweep seed, parallelism, cache policy, extra observers — passed
once and visible to every layer (runner, sweep helpers, engine, CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .cache import ResultCache, default_cache_dir
from .core import SweepEngine

BUDGETS = ("quick", "full")


@dataclass(frozen=True)
class ExperimentConfig:
    """Execution policy for experiment runs.

    Attributes
    ----------
    budget:
        ``"quick"`` (CI-sized sweeps) or ``"full"`` (paper-sized sweeps);
        the successor of the old ``quick`` flag.
    seed:
        Optional sweep-level seed, folded into every cache key so sweeps
        replayed under a different seed never alias (per-measurement seeds
        stay inside each config dict).
    jobs:
        Worker processes for sweep fan-out (``1`` = serial).
    cache:
        Whether measurements are memoized on disk. Off by default for
        library callers (byte-identical, side-effect-free runs); the CLI
        turns it on.
    cache_dir:
        Cache root; defaults to ``.repro-cache/`` or the
        ``REPRO_CACHE_DIR`` environment override.
    observers:
        Extra machine observers attached to every engine-routed
        measurement (forces serial, cache-less execution — events cannot
        be replayed from a cache or another process).
    counting:
        Run measurements on counting (payload-free) machines where the
        measure function supports it; costs are bit-identical to full
        runs, and outputs are verified from their ``(key, uid)`` tokens,
        except SpMxV's, whose values are payload. See
        :mod:`repro.machine.phantom`.
    profile:
        Attach a :class:`~repro.telemetry.profile.CostProfiler` to every
        measurement, collected per-config on the engine's ``profiles``
        list (forces serial, cache-less execution like ``observers``).
    """

    budget: str = "quick"
    seed: Optional[int] = None
    jobs: int = 1
    cache: bool = False
    cache_dir: str = field(default_factory=default_cache_dir)
    observers: Tuple = ()
    counting: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        if self.budget not in BUDGETS:
            raise ValueError(
                f"budget must be one of {BUDGETS}, got {self.budget!r}"
            )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {self.jobs!r}")
        object.__setattr__(self, "observers", tuple(self.observers))

    @property
    def quick(self) -> bool:
        """Back-compat view of the budget (``budget == "quick"``)."""
        return self.budget == "quick"

    def with_budget(self, budget: str) -> "ExperimentConfig":
        return replace(self, budget=budget)

    def make_cache(self) -> Optional[ResultCache]:
        return ResultCache(self.cache_dir) if self.cache else None

    def make_engine(self) -> SweepEngine:
        """A fresh engine implementing this config's execution policy."""
        return SweepEngine(
            jobs=self.jobs,
            cache=self.make_cache(),
            seed=self.seed,
            observers=self.observers,
            counting=self.counting,
            profile=self.profile,
        )
