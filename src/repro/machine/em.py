"""The symmetric External Memory model of Aggarwal & Vitter.

The (M, B)-EM model is exactly the (M, B, 1)-AEM: reads and writes both
cost one I/O. :func:`em_machine` is a thin constructor so that baseline
algorithms (e.g. the classic m-way mergesort) can be expressed and costed
in the model they were designed for, while still running on the same
simulator — and the same :class:`~repro.machine.core.MachineCore` event
bus, so observers (``observers=[...]``) work identically — and being
comparable I/O-for-I/O with the AEM algorithms.
"""

from __future__ import annotations

from ..core.params import AEMParams
from .aem import AEMMachine


def em_params(M: int, B: int) -> AEMParams:
    """Parameters of the symmetric (M, B)-EM model (``omega = 1``)."""
    return AEMParams.em(M, B)


def em_machine(M: int, B: int, **kwargs) -> AEMMachine:
    """A symmetric EM machine: an AEM machine with ``omega = 1``.

    Keyword arguments (``enforce_capacity``, ``observers``,
    ``counting``) pass through to :class:`~repro.machine.aem.AEMMachine`
    — in particular the counting fast path is available here too, and
    the core's cost ledger prices writes at ``omega = 1``.
    """
    return AEMMachine(em_params(M, B), **kwargs)
