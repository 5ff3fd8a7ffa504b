"""Permuting by sorting on destination index.

The second branch of the permutation upper bound: relabel each atom with
its destination position as the sort key, sort with the Section 3
mergesort, and strip the relabeling — cost ``O(omega*n*log_{omega m} n)``
(the two relabeling scans add ``O((1+omega)n)``).

Atom identities (uids) are preserved through the relabeling, so the
trace-level machinery (usefulness analysis, flash reduction) sees one
unbroken chain of copies per atom, and the output consists of exactly the
input atoms.
"""

from __future__ import annotations

from typing import Sequence

from ..atoms.atom import Atom
from ..atoms.permutation import Permutation
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.streams import BlockReader, BlockWriter
from ..sorting.mergesort import aem_mergesort


def permute_sort_based(
    machine: AEMMachine,
    addrs: Sequence[int],
    perm: Permutation,
    params: AEMParams,
) -> list[int]:
    """Permute by sorting; returns the output block addresses.

    Cost ``O(omega * n * log_{omega m} n)``.
    """
    counting = machine.counting
    # Relabel: key becomes the destination position; the original key
    # travels in the value slot. In counting mode atoms are their
    # ``(key, uid)`` tokens, so relabeling is token surgery — the sort
    # downstream steers on the same destination keys either way.
    with machine.phase("permute_sort/relabel"):
        writer = BlockWriter(machine)
        reader = BlockReader(machine, addrs)
        pos = 0
        for atom in reader:
            if counting:
                writer.push((int(perm[pos]), atom[1]))
            else:
                writer.push(Atom(int(perm[pos]), atom.uid, (atom.key, atom.value)))
            pos += 1
        tagged = writer.close()

    sorted_addrs = aem_mergesort(machine, tagged, params)

    # Strip: restore the original key, now in destination order. A token
    # carries no original key to restore; the pass's costs are content-free
    # and counting-mode verification checks uid placement only, so the
    # tokens pass through keyed by their destination.
    with machine.phase("permute_sort/strip"):
        writer = BlockWriter(machine)
        reader = BlockReader(machine, sorted_addrs)
        for atom in reader:
            if counting:
                writer.push(atom)
            else:
                key, value = atom.value
                writer.push(Atom(key, atom.uid, value))
        return writer.close()
