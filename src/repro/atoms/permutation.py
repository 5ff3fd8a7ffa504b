"""Permutations of {0, ..., N-1}.

A :class:`Permutation` ``pi`` maps *source position* ``i`` to *destination
position* ``pi[i]``: a permuting program must transform an input array
``x`` into the output array ``y`` with ``y[pi[i]] = x[i]``. This is the
object the Section 4 lower bounds count: a correct permuting algorithm must
realize all ``N!`` of them.

Backed by a numpy int64 array for O(N) composition/inversion and cheap
hashing of large instances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Permutation:
    """An immutable permutation of ``{0, ..., N-1}`` in one-line notation."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Sequence[int] | np.ndarray, *, _trusted: bool = False):
        arr = np.asarray(mapping, dtype=np.int64)
        if not _trusted:
            if arr.ndim != 1:
                raise ValueError("a permutation is a 1-D sequence")
            n = arr.shape[0]
            seen = np.zeros(n, dtype=bool)
            if n and (arr.min() < 0 or arr.max() >= n):
                raise ValueError("permutation values must lie in [0, N)")
            seen[arr] = True
            if not seen.all():
                raise ValueError("mapping is not a bijection on [0, N)")
        self._map = arr
        self._map.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(np.arange(n, dtype=np.int64), _trusted=True)

    @staticmethod
    def random(n: int, rng: np.random.Generator | int | None = None) -> "Permutation":
        rng = np.random.default_rng(rng)
        return Permutation(rng.permutation(n).astype(np.int64), _trusted=True)

    @staticmethod
    def reversal(n: int) -> "Permutation":
        return Permutation(np.arange(n - 1, -1, -1, dtype=np.int64), _trusted=True)

    @staticmethod
    def cyclic_shift(n: int, k: int = 1) -> "Permutation":
        """Send position ``i`` to ``(i + k) mod n``."""
        return Permutation((np.arange(n, dtype=np.int64) + k) % max(n, 1), _trusted=True)

    @staticmethod
    def transpose(rows: int, cols: int) -> "Permutation":
        """The matrix-transposition permutation of an r x c row-major array.

        Element at row-major position ``i = r*cols + c`` moves to position
        ``c*rows + r`` — the classic hard instance for external-memory
        permuting.
        """
        n = rows * cols
        i = np.arange(n, dtype=np.int64)
        r, c = divmod(i, cols)
        return Permutation(c * rows + r, _trusted=True)

    @staticmethod
    def bit_reversal(log_n: int) -> "Permutation":
        """Bit-reversal permutation on ``2**log_n`` positions (FFT order)."""
        n = 1 << log_n
        idx = np.arange(n, dtype=np.int64)
        rev = np.zeros(n, dtype=np.int64)
        for b in range(log_n):
            rev |= ((idx >> b) & 1) << (log_n - 1 - b)
        return Permutation(rev, _trusted=True)

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._map.shape[0])

    def __getitem__(self, i: int) -> int:
        return int(self._map[i])

    def __iter__(self):
        return iter(int(v) for v in self._map)

    def as_array(self) -> np.ndarray:
        return self._map

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self._map, other._map)

    def __hash__(self) -> int:
        return hash(self._map.tobytes())

    # ------------------------------------------------------------------
    # Algebra.
    # ------------------------------------------------------------------
    def inverse(self) -> "Permutation":
        inv = np.empty_like(self._map)
        inv[self._map] = np.arange(len(self), dtype=np.int64)
        return Permutation(inv, _trusted=True)

    def compose(self, other: "Permutation") -> "Permutation":
        """``(self ∘ other)[i] = self[other[i]]`` (apply ``other`` first)."""
        if len(self) != len(other):
            raise ValueError("can only compose permutations of equal size")
        return Permutation(self._map[other._map], _trusted=True)

    def apply(self, items: Sequence) -> list:
        """Return ``y`` with ``y[self[i]] = items[i]``."""
        if len(items) != len(self):
            raise ValueError(
                f"permutation of size {len(self)} applied to {len(items)} items"
            )
        out: list = [None] * len(items)
        for i, item in enumerate(items):
            out[self._map[i]] = item
        return out

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------
    def is_identity(self) -> bool:
        return bool(np.array_equal(self._map, np.arange(len(self))))

    def fixed_points(self) -> int:
        return int(np.count_nonzero(self._map == np.arange(len(self))))

    def cycle_type(self) -> list[int]:
        """Sorted list of cycle lengths (descending)."""
        n = len(self)
        seen = np.zeros(n, dtype=bool)
        cycles: list[int] = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = int(self._map[j])
                length += 1
            cycles.append(length)
        return sorted(cycles, reverse=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) <= 16:
            return f"Permutation({self._map.tolist()})"
        return f"Permutation(N={len(self)})"


def verify_permuted(
    perm: Permutation,
    input_uids: Sequence[int],
    output_uids: Sequence[int],
) -> bool:
    """Check that ``output_uids[perm[i]] == input_uids[i]`` for all i."""
    if len(input_uids) != len(perm) or len(output_uids) != len(perm):
        return False
    arr_in = np.asarray(input_uids)
    arr_out = np.asarray(output_uids)
    return bool(np.array_equal(arr_out[perm.as_array()], arr_in))
