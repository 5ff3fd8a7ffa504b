"""Sorter registry and verification helpers.

Every sorter in this package has the same signature::

    sorter(machine, addrs, params) -> output block addresses

Every sorter runs on full and counting machines alike: it reads stored
items through :func:`~repro.machine.phantom.token_of`, so on a counting
machine it steers on the stashed ``(key, uid)`` tokens and makes the
decisions a full run makes.

Verification is cost-free (the referee reading the output through
:meth:`~repro.machine.aem.AEMMachine.collect_output`, not the program)
and runs in both modes: the output must be sorted by the strict
``(key, uid)`` order and consist of *exactly* the input atoms (the
indivisibility contract of Section 4). A token is that identity, so a
counting run — whose input and output are both tokens — is checked as
fully as a full one.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..atoms.atom import Atom
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from .em_mergesort import em_mergesort
from .heapsort import aem_heapsort
from .mergesort import aem_mergesort, pointer_mergesort
from .samplesort import aem_samplesort

Sorter = Callable[[AEMMachine, Sequence[int], AEMParams], list[int]]


def _pq_sort(machine, addrs, params):
    """Deferred import: repro.structures.pq itself uses the merge, so a
    top-level import here would close a package cycle."""
    from ..structures.pq import pq_sort

    return pq_sort(machine, addrs, params)


#: All sorters, keyed by the names the experiments and tables use.
SORTERS: Dict[str, Sorter] = {
    "aem_mergesort": aem_mergesort,
    "aem_samplesort": aem_samplesort,
    "aem_heapsort": aem_heapsort,
    "aem_pqsort": _pq_sort,
    "em_mergesort": em_mergesort,
    "pointer_mergesort": pointer_mergesort,
}


class SortVerificationError(AssertionError):
    """The output of a sorter violates its contract."""


def verify_sorted_output(
    machine: AEMMachine,
    input_atoms: Sequence,
    output_addrs: Sequence[int],
) -> list:
    """Check sortedness and atom-multiset preservation; returns the output.

    One comparison decides both: the output's ``(key, uid)`` tokens must
    equal the sorted input tokens. ``input_atoms`` is the input in the
    form the machine holds it: atoms on a full machine, their tokens on
    a counting one, whose output already is tokens (and is what this
    returns there). Raises :class:`SortVerificationError` with a
    pinpointed message on any violation. Inspection is cost-free by
    design.
    """
    out = machine.collect_output(output_addrs)
    if len(out) != len(input_atoms):
        raise SortVerificationError(
            f"output holds {len(out)} atoms, input had {len(input_atoms)}"
        )
    if machine.counting:
        got, want = out, sorted(input_atoms)
    else:
        got = list(map(Atom.sort_token, out))
        want = sorted(map(Atom.sort_token, input_atoms))
    if got != want:
        bad = next((i for i in range(len(got) - 1) if got[i] > got[i + 1]), None)
        if bad is not None:
            raise SortVerificationError(
                f"output not sorted at position {bad}: {out[bad]!r} > {out[bad + 1]!r}"
            )
        raise SortVerificationError(
            "output atoms are not exactly the input atoms "
            "(indivisibility violated: atoms lost, duplicated, or fabricated)"
        )
    return out


def run_sorter(
    name: str,
    machine: AEMMachine,
    addrs: Sequence[int],
    params: AEMParams,
) -> list[int]:
    """Run a registered sorter by name."""
    try:
        sorter = SORTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown sorter {name!r}; available: {sorted(SORTERS)}"
        ) from None
    return sorter(machine, addrs, params)
