"""Indivisible atoms.

The permutation and sorting lower bounds (Section 4) assume *indivisibility*:
elements are opaque atoms that can only be moved, never combined, split, or
re-created. :class:`Atom` realizes this: each atom carries

* a ``key`` — what comparison-based algorithms order by (for permuting, the
  destination index),
* a ``uid`` — a unique identity that verification uses to check that a
  program's output consists of *exactly* the input atoms (no duplication,
  no creation), and
* an optional ``value`` payload that never participates in comparisons.

Atoms order by ``(key, uid)``; since uids are unique this is a strict total
order even with duplicate keys, which keeps the sorting algorithms' "next
element strictly larger than p_i" logic (Section 3.1) unambiguous and makes
every sort stable-checkable.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterable, Optional, Sequence


class Atom:
    """An indivisible element with a sort key and a unique identity."""

    __slots__ = ("key", "uid", "value")

    def __init__(self, key: Any, uid: int, value: Any = None):
        self.key = key
        self.uid = uid
        self.value = value

    # Total order on (key, uid).
    def __lt__(self, other: "Atom") -> bool:
        return (self.key, self.uid) < (other.key, other.uid)

    def __le__(self, other: "Atom") -> bool:
        return (self.key, self.uid) <= (other.key, other.uid)

    def __gt__(self, other: "Atom") -> bool:
        return (self.key, self.uid) > (other.key, other.uid)

    def __ge__(self, other: "Atom") -> bool:
        return (self.key, self.uid) >= (other.key, other.uid)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.uid == other.uid
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.key, self.uid))

    def sort_token(self):
        """The pair the total order compares, ``(key, uid)``."""
        return (self.key, self.uid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.value is None:
            return f"Atom({self.key!r}#{self.uid})"
        return f"Atom({self.key!r}#{self.uid}={self.value!r})"


def make_atoms(keys: Iterable[Any], values: Optional[Sequence[Any]] = None) -> list[Atom]:
    """Atoms for ``keys`` with uids 0, 1, 2, ... in input order."""
    keys = list(keys)
    if values is None:
        return [Atom(k, i) for i, k in enumerate(keys)]
    if len(values) != len(keys):
        raise ValueError("values must match keys in length")
    return [Atom(k, i, v) for i, (k, v) in enumerate(zip(keys, values))]


def make_tokens(keys: Iterable[Any]) -> list:
    """The ``(key, uid)`` tokens of :func:`make_atoms`'s atoms, built
    without them: the form a counting machine holds its input in."""
    return list(zip(keys, count()))


def keys_of(atoms: Iterable[Atom]) -> list:
    return [a.key for a in atoms]


def uids_of(atoms: Iterable[Atom]) -> list[int]:
    return [a.uid for a in atoms]


def is_sorted(atoms: Sequence[Atom]) -> bool:
    """True iff the sequence is non-decreasing in the (key, uid) order."""
    return all(atoms[i] <= atoms[i + 1] for i in range(len(atoms) - 1))


def same_atom_multiset(a: Iterable[Atom], b: Iterable[Atom]) -> bool:
    """True iff ``a`` and ``b`` contain exactly the same atoms (by uid+key).

    This is the indivisibility check: a correct program neither loses,
    duplicates, nor fabricates atoms.
    """
    sa = sorted(a, key=Atom.sort_token)
    sb = sorted(b, key=Atom.sort_token)
    return len(sa) == len(sb) and all(
        x.uid == y.uid and x.key == y.key for x, y in zip(sa, sb)
    )
