"""Permuter registry and verification."""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Dict, Sequence

from ..atoms.atom import same_atom_multiset
from ..atoms.permutation import Permutation, verify_permuted
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from .adaptive import permute_adaptive
from .naive import permute_naive
from .sort_based import permute_sort_based

Permuter = Callable[[AEMMachine, Sequence[int], Permutation, AEMParams], list[int]]

PERMUTERS: Dict[str, Permuter] = {
    "naive": permute_naive,
    "sort_based": permute_sort_based,
    "adaptive": permute_adaptive,
}


class PermuteVerificationError(AssertionError):
    """The output of a permuter violates its contract."""


def verify_permutation_output(
    machine: AEMMachine,
    input_atoms: Sequence,
    output_addrs: Sequence[int],
    perm: Permutation,
) -> list:
    """Check ``output[perm[i]].uid == input[i].uid`` and atom preservation.

    ``input_atoms`` is the input in the form the machine holds it: atoms
    on a full machine, ``(key, uid)`` tokens on a counting one, whose
    output is tokens too. The uid placement is checked on both machine
    modes. The key check is full-only:
    :func:`~repro.permute.sort_based.permute_sort_based` leaves a counting
    token keyed by its destination, as it has no original key to restore.
    """
    out = machine.collect_output(output_addrs)
    if len(out) != len(input_atoms):
        raise PermuteVerificationError(
            f"output holds {len(out)} atoms, input had {len(input_atoms)}"
        )
    uid = itemgetter(1) if machine.counting else attrgetter("uid")
    if not verify_permuted(
        perm, list(map(uid, input_atoms)), list(map(uid, out))
    ):
        raise PermuteVerificationError("output does not realize the permutation")
    if not machine.counting and not same_atom_multiset(input_atoms, out):
        raise PermuteVerificationError(
            "output atoms are not exactly the input atoms (indivisibility violated)"
        )
    return out
