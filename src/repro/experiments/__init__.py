"""The experiment suite (E1–E14): one experiment per quantitative claim.

The paper has no evaluation tables or figures; DESIGN.md's experiment
index maps each theorem/lemma/section claim to an experiment here. Every
experiment returns an :class:`~repro.experiments.common.ExperimentResult`
with rendered tables and named pass/fail checks; the benchmarks, the CLI
and EXPERIMENTS.md all consume the same functions.
"""

from . import (  # noqa: F401 — importing registers each experiment
    a1_fanout_ablation,
    a2_pointer_ablation,
    a3_layout_ablation,
    e01_mergesort_scaling,
    e02_omega_exceeds_b,
    e03_read_write_split,
    e04_merge_primitive,
    e05_fanout_advantage,
    e06_permute_crossover,
    e07_permute_lower_bound,
    e08_round_conversion,
    e09_flash_reduction,
    e10_spmxv_crossover,
    e11_spmxv_lower_bound,
    e12_small_sort,
    e13_sorter_comparison,
    e14_regime_boundary,
    e15_memory_scaling,
    e16_write_endurance,
    e17_transpose_structure,
    e18_index_build,
    e19_query_serving,
)
from .common import (
    REGISTRY,
    ExperimentConfig,
    ExperimentResult,
    experiment_order,
    natural_key,
    run_all,
    run_experiment,
)

__all__ = [
    "REGISTRY",
    "ExperimentConfig",
    "ExperimentResult",
    "experiment_order",
    "natural_key",
    "run_all",
    "run_experiment",
]
