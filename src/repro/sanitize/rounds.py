"""RoundFormSanitizer: Lemma 4.1's round-based normal form, checked live.

Lemma 4.1 converts any AEM program into a *round-based* one on doubled
internal memory: I/Os split into rounds, every round costs at most
``2*omega*m + m``, and internal memory is empty at every round boundary.
The conversion itself lives in :mod:`repro.rounds`; this module makes the
normal form falsifiable in two ways:

* :class:`RoundFormSanitizer` watches a machine that *claims* to run
  round-based (it declares boundaries via ``machine.round_boundary()``)
  and flags boundaries where the ledger was not empty — the
  ``drain()``-returned slot count is exposed by the core as
  ``last_drained`` — and rounds whose accumulated event cost exceeds the
  budget;
* :func:`check_round_form` wraps :func:`repro.rounds.verify.verify_round_based`
  (budget, boundary liveness, replay, reference equivalence) into the
  sanitizer violation vocabulary for recorded programs, which is how
  ``repro-aem check --traces`` validates a real Lemma 4.1 conversion
  end-to-end.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..machine.errors import TraceError
from ..trace.program import Program
from .base import Sanitizer, TraceSanitizer, Violation


class RoundFormSanitizer(Sanitizer):
    """Empty memory at declared round boundaries; bounded per-round cost.

    Parameters
    ----------
    budget:
        Maximum allowed cost per round. Default ``None`` computes the
        Lemma 4.1 guarantee ``2*omega*m + m`` from the attached machine at
        the first boundary (``m = ceil(M/B)`` from the core's ledger
        capacity and block size, ``omega`` from its cost ledger).
    """

    rule = "ROUNDFORM"

    def __init__(self, *, budget: Optional[float] = None):
        super().__init__()
        self.budget = budget
        self.rounds = 0
        self.round_cost = 0.0
        self.max_round_cost = 0.0

    def on_attach(self, core) -> None:
        super().on_attach(core)
        if self.budget is None:
            omega = core.counter.omega
            m = max(1, -(-core.mem.capacity // core.disk.B))  # ceil(M/B)
            self.budget = 2 * omega * m + m

    def _charge(self, cost: float) -> None:
        self.round_cost += cost
        if self.round_cost > self.max_round_cost:
            self.max_round_cost = self.round_cost

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self._charge(cost)

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self._charge(cost)

    def on_round_boundary(self, index: int) -> None:
        self.events += 1
        self.rounds += 1
        drained = getattr(self.core, "last_drained", 0)
        if drained:
            self.flag(
                f"round {self.rounds} ended with {drained} atoms still in "
                "internal memory; round-based programs drain to empty",
                where=f"boundary at I/O {index}",
            )
        if self.round_cost > self.budget + 1e-9:
            self.flag(
                f"round {self.rounds} cost {self.round_cost:g} exceeds the "
                f"Lemma 4.1 budget {self.budget:g}",
                where=f"boundary at I/O {index}",
            )
        self.round_cost = 0.0

    def _finalize(self) -> None:
        # The trailing partial round (after the last declared boundary)
        # must respect the budget too.
        if self.round_cost > (self.budget or 0) + 1e-9:
            self.flag(
                f"final round cost {self.round_cost:g} exceeds the "
                f"Lemma 4.1 budget {self.budget:g}"
            )
            self.round_cost = 0.0


class RoundFormProgramSanitizer(TraceSanitizer):
    """Trace-level round-form checks via the Lemma 4.1 verifier."""

    rule = "ROUNDFORM"

    def check_program(
        self,
        program: Program,
        *,
        budget: Optional[float] = None,
        memory_limit: Optional[int] = None,
        reference: Optional[Program] = None,
    ) -> list[Violation]:
        """Run :func:`verify_round_based`; any failure becomes a violation."""
        from ..rounds.verify import verify_round_based

        try:
            verify_round_based(
                program,
                budget=budget,
                memory_limit=memory_limit,
                reference=reference,
            )
        except TraceError as exc:
            self.flag(str(exc))
        return list(self.violations)


def check_round_form(
    program: Program,
    *,
    budget: Optional[float] = None,
    memory_limit: Optional[int] = None,
    reference: Optional[Program] = None,
) -> list[Violation]:
    """Convenience wrapper: round-form violations of a recorded program."""
    return RoundFormProgramSanitizer().check_program(
        program, budget=budget, memory_limit=memory_limit, reference=reference
    )
