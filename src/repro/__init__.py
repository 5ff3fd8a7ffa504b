"""repro — reproduction of *Lower Bounds in the Asymmetric External Memory
Model* (Jacob & Sitchinava, SPAA 2017).

The package provides:

* :mod:`repro.machine` — an exact (M, B, omega)-AEM cost simulator, plus
  the symmetric EM model, the ARAM, and the unit-cost flash model, all
  built on one instrumented :class:`~repro.machine.core.MachineCore`;
* :mod:`repro.observe` — the machine-event bus observers: cost accounting,
  trace recording, wear maps, progress readout;
* :mod:`repro.atoms` — indivisible atoms and permutations;
* :mod:`repro.trace` — straight-line programs, recording, replay, and the
  liveness/usefulness analyses behind the Section 4 machinery;
* :mod:`repro.sorting` — the paper's Section 3 AEM mergesort and the
  comparator algorithms (sample sort, heapsort, EM mergesort, the
  pointer-in-memory mergesort that needs omega < B);
* :mod:`repro.permute` — permuting algorithms realizing the upper bound
  ``min{N + omega*n, omega*n*log_{omega m} n}``;
* :mod:`repro.rounds` — the Lemma 4.1 round-based conversion;
* :mod:`repro.flashred` — the Lemma 4.3 reduction to the unit-cost flash
  model and Corollary 4.4;
* :mod:`repro.core` — closed-form bounds, the exact Section 4.2 counting
  lower bound, and regime analysis;
* :mod:`repro.spmxv` — sparse-matrix dense-vector multiplication: layouts,
  the direct and sorting-based algorithms, and the Theorem 5.1 bound;
* :mod:`repro.workloads`, :mod:`repro.analysis` — generators, curve
  fitting, sweeps and tables for the experiment suite;
* :mod:`repro.engine` — the sweep-execution engine: process-pool fan-out
  with deterministic record ordering, a content-addressed on-disk
  measurement cache (resumable sweeps), and :class:`ExperimentConfig`,
  the one object describing how an experiment run executes;
* :mod:`repro.telemetry` — durable observability artifacts: a labeled
  metrics registry fed by :class:`MetricsObserver`, Chrome-trace/Perfetto
  export (:class:`PerfettoObserver`), JSONL run manifests and engine task
  spans.

Quickstart::

    from repro import AEMParams, AEMMachine, make_atoms, aem_mergesort

    p = AEMParams(M=64, B=8, omega=8)
    machine = AEMMachine.for_algorithm(p)
    addrs = machine.load_input(make_atoms(keys))
    out = aem_mergesort(machine, addrs, p)
    print(machine.cost, machine.reads, machine.writes)
"""

from .atoms import Atom, Permutation, make_atoms
from .engine import ExperimentConfig, ResultCache, SweepEngine, use_engine
from .core import (
    AEMParams,
    counting_lower_bound,
    counting_lower_bound_general,
    permute_lower_shape,
    permute_upper_shape,
    sort_upper_shape,
)
from .machine import (
    AEMMachine,
    CapacityError,
    FlashMachine,
    MachineCore,
    aram_machine,
    em_machine,
)
from .machine.cost import CostRecord
from .observe import (
    CostObserver,
    MachineObserver,
    ProgressObserver,
    TraceRecorder,
    WearMap,
)
from .structures import ExternalPQ
from .telemetry import (
    ChromeTraceBuilder,
    EngineTelemetry,
    MetricsObserver,
    MetricsRegistry,
    PerfettoObserver,
)
from .trace import Program, Recorder, capture

__version__ = "1.1.0"

__all__ = [
    "AEMMachine",
    "AEMParams",
    "Atom",
    "CapacityError",
    "ChromeTraceBuilder",
    "CostObserver",
    "CostRecord",
    "EngineTelemetry",
    "ExperimentConfig",
    "ExternalPQ",
    "FlashMachine",
    "MachineCore",
    "MachineObserver",
    "MetricsObserver",
    "MetricsRegistry",
    "Permutation",
    "PerfettoObserver",
    "Program",
    "ProgressObserver",
    "Recorder",
    "ResultCache",
    "SweepEngine",
    "TraceRecorder",
    "WearMap",
    "__version__",
    "aram_machine",
    "capture",
    "use_engine",
    "counting_lower_bound",
    "counting_lower_bound_general",
    "em_machine",
    "make_atoms",
    "permute_lower_shape",
    "permute_upper_shape",
    "sort_upper_shape",
]
