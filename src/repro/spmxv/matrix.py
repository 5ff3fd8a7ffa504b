"""Sparse matrix conformations and the column-major external layout.

Section 5 fixes the setting: an N x N matrix A with exactly ``delta``
non-zero entries per column (H = delta * N in total), stored in external
memory in *column-major* order as a list of triples ``(i, j, a_ij)`` — the
non-zeros of column 0 by increasing row, then column 1, and so on.

A :class:`Conformation` is the structure (the positions of the non-zeros);
a *program* in the paper's sense is specific to one conformation, and the
generators below produce the instances the experiments sweep over.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from ..atoms.atom import Atom, make_tokens
from ..machine.aem import AEMMachine
from .semiring import REAL, Semiring


#: ``Generator.choice(N, size, replace=False)`` runs Floyd's algorithm
#: unless ``N > 10000`` and ``size > N // 50``, where it tail-shuffles a
#: length-N index array instead (numpy's ``_generator.pyx``).
_CHOICE_FLOYD_MAX_N = 10000
_CHOICE_FLOYD_CUTOFF = 50


def _floyd_rows(N: int, delta: int, rng: np.random.Generator) -> np.ndarray:
    """``(N, delta)`` sorted rows: N ``rng.choice(N, delta, replace=False)``
    calls below the tail-shuffle threshold, drawn in one ``integers`` call.

    Each such ``choice`` call is Floyd's algorithm: ``delta`` bounded
    draws with inclusive bounds ``N - delta ... N - 1``, where a draw
    already picked is replaced by its bound, then ``delta - 1`` draws
    (bounds ``delta - 1 ... 1``) that shuffle the picks. One ``integers``
    call drawing a row of those bounds per column, in row-major order,
    consumes the stream draw for draw the same way. The collision rule
    is replayed for every column at once, one step per pick; the shuffle
    draws are consumed but unused, since the rows are sorted.
    """
    bounds = np.concatenate([np.arange(N - delta, N), np.arange(delta - 1, 0, -1)])
    rows = rng.integers(0, bounds, size=(N, bounds.size), endpoint=True)[:, :delta]
    for k in range(1, delta):
        taken = (rows[:, :k] == rows[:, k : k + 1]).any(axis=1)
        rows[taken, k] = N - delta + k
    # Stable: the sort kind the corpus generator's lexsort already loaded;
    # a first quicksort call maps about 0.25 MB more of numpy's code.
    rows.sort(axis=1, kind="stable")
    return rows


def _columns_valid(
    cols: Sequence[Sequence[int]],
    N: int,
    delta: int,
    rows: Optional[np.ndarray] = None,
) -> bool:
    """Whether every column is ``delta`` strictly increasing int rows in
    ``[0, N)``, checked on one array.

    ``rows`` is the array ``cols`` was built from, when there is one (its
    shape then vouches for every column's length); otherwise the array is
    built from ``cols``. False means only that this check cannot vouch
    for ``cols``: a column fails, or the rows are not all ints of one
    array dtype (the per-column checks decide those).
    """
    if rows is None:
        if any(len(r) != delta for r in cols):
            return False
        rows = np.array(cols)
    if rows.dtype.kind != "i" or rows.shape != (N, delta):
        return False
    return bool(
        (rows[:, :1] >= 0).all()
        and (rows[:, -1:] < N).all()
        and (rows[:, 1:] > rows[:, :-1]).all()
    )


@dataclass(frozen=True)
class Conformation:
    """Positions of the non-zeros: exactly ``delta`` sorted rows per column."""

    N: int
    delta: int
    cols: tuple[tuple[int, ...], ...]  # cols[j] = sorted row indices
    #: The ``(N, delta)`` array ``cols`` was built from, handed over by
    #: :meth:`random` so the check need not rebuild it. An init-only
    #: argument: not stored, so not compared, hashed or shown.
    _rows: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, _rows: Optional[np.ndarray]) -> None:
        if len(self.cols) != self.N:
            raise ValueError(f"expected {self.N} columns, got {len(self.cols)}")
        if _columns_valid(self.cols, self.N, self.delta, _rows):
            return
        # Some column fails a check (or holds non-int rows the array
        # check cannot vouch for): the per-column checks find it.
        for j, rows in enumerate(self.cols):
            if len(rows) != self.delta:
                raise ValueError(
                    f"column {j} has {len(rows)} non-zeros, expected delta={self.delta}"
                )
            if any(not (0 <= r < self.N) for r in rows):
                raise ValueError(f"column {j} has row indices outside [0, N)")
            if any(rows[t] >= rows[t + 1] for t in range(len(rows) - 1)):
                raise ValueError(f"column {j} rows not strictly increasing")

    @property
    def H(self) -> int:
        """Total non-zeros, ``H = delta * N``."""
        return self.delta * self.N

    # ------------------------------------------------------------------
    # Generators.
    # ------------------------------------------------------------------
    @staticmethod
    def random(
        N: int, delta: int, rng: np.random.Generator | int | None = None
    ) -> "Conformation":
        """Each column's rows drawn uniformly without replacement.

        Column j holds the sorted rows of the j-th of N successive
        ``rng.choice(N, delta, replace=False)`` calls, and the generator
        is left where those calls leave it. Where numpy's ``choice`` runs
        Floyd's algorithm, all columns are drawn at once
        (:func:`_floyd_rows`); past its tail-shuffle threshold the columns
        are drawn one ``choice`` call at a time, the only exact replay.
        """
        if delta > N:
            raise ValueError("delta cannot exceed N")
        rng = np.random.default_rng(rng)
        if N > _CHOICE_FLOYD_MAX_N and delta > N // _CHOICE_FLOYD_CUTOFF:
            cols = tuple(
                tuple(sorted(rng.choice(N, size=delta, replace=False).tolist()))
                for _ in range(N)
            )
        else:
            rows = _floyd_rows(N, delta, rng)
            cols = tuple(map(tuple, rows.tolist()))
            return Conformation(N=N, delta=delta, cols=cols, _rows=rows)
        return Conformation(N=N, delta=delta, cols=cols)

    @staticmethod
    def banded(N: int, delta: int) -> "Conformation":
        """Rows ``j, j+1, ..., j+delta-1`` (mod N): a cyclic band —
        high-locality, the easy case for the direct algorithm."""
        if delta > N:
            raise ValueError("delta cannot exceed N")
        cols = tuple(
            tuple(sorted((j + t) % N for t in range(delta))) for j in range(N)
        )
        return Conformation(N=N, delta=delta, cols=cols)

    @staticmethod
    def transpose_like(N: int, delta: int, stride: Optional[int] = None) -> "Conformation":
        """Rows spread with a large stride: a worst-case-style conformation
        that defeats row locality (akin to the transposition permutation)."""
        if delta > N:
            raise ValueError("delta cannot exceed N")
        stride = stride or max(1, N // delta)
        cols = tuple(
            tuple(sorted((j + t * stride) % N for t in range(delta)))
            if len({(j + t * stride) % N for t in range(delta)}) == delta
            else tuple(sorted((j + t) % N for t in range(delta)))
            for j in range(N)
        )
        return Conformation(N=N, delta=delta, cols=cols)

    # ------------------------------------------------------------------
    # Layout & dense reference.
    # ------------------------------------------------------------------
    def column_major_entries(self, values: Sequence[float]) -> list[Atom]:
        """The triples as atoms in column-major order.

        ``values[p]`` is the numeric value of the p-th non-zero in
        column-major order. Each entry atom's key is ``(j, i)`` (its
        column-major rank is its position) and its value is ``(i, j, a)``.
        """
        if len(values) != self.H:
            raise ValueError(f"need {self.H} values, got {len(values)}")
        out: list[Atom] = []
        p = 0
        for j, rows in enumerate(self.cols):
            for i in rows:
                out.append(Atom((j, i), p, (i, j, values[p])))
                p += 1
        return out

    def column_major_tokens(self) -> list[tuple]:
        """The entries' ``((j, i), p)`` tokens in column-major order.

        Exactly the ``sort_token()`` of each :meth:`column_major_entries`
        atom, built without the atoms or the values: the input a counting
        machine holds.
        """
        return make_tokens((j, i) for j, rows in enumerate(self.cols) for i in rows)

    def positions_by_row(self) -> list[list[tuple[int, int]]]:
        """For each row i, the ``(column-major position, column)`` of its
        entries — derived from the conformation (problem metadata), which
        is exactly what the paper's per-conformation *program* knows."""
        by_row: list[list[tuple[int, int]]] = [[] for _ in range(self.N)]
        p = 0
        for j, rows in enumerate(self.cols):
            for i in rows:
                by_row[i].append((p, j))
                p += 1
        return by_row

    def to_dense(self, values: Sequence[float]) -> np.ndarray:
        """Dense numpy matrix (reference for verification only)."""
        A = np.zeros((self.N, self.N))
        p = 0
        for j, rows in enumerate(self.cols):
            for i in rows:
                A[i, j] = values[p]
                p += 1
        return A


def load_matrix(
    machine: AEMMachine, conf: Conformation, values: Sequence[float]
) -> list[int]:
    """Place the column-major triples into external memory (cost-free).

    A counting machine gets the entries' tokens, never their atoms.
    """
    if machine.counting:
        return machine.load_input(conf.column_major_tokens())
    return machine.load_input(conf.column_major_entries(values))


def load_vector(machine: AEMMachine, x: Sequence[float]) -> list[int]:
    """Place the dense vector into external memory (cost-free)."""
    return machine.load_input(list(x))


def reference_product(
    conf: Conformation,
    values: Sequence[float],
    x: Sequence[float],
    semiring: Semiring = REAL,
) -> list:
    """y = A x over the semiring, computed densely (verification only)."""
    y = [semiring.zero] * conf.N
    p = 0
    for j, rows in enumerate(conf.cols):
        for i in rows:
            y[i] = semiring.add(y[i], semiring.mul(values[p], x[j]))
            p += 1
    return y


class SpmxvVerificationError(AssertionError):
    """An SpMxV run produced a wrong output vector."""


def verify_spmxv_output(
    machine: AEMMachine,
    conf: Conformation,
    values: Sequence[float],
    x: Sequence[float],
    output_addrs: Sequence[int],
) -> list[float]:
    """Check the output vector against the dense reference; returns it.

    The counterpart of :func:`~repro.sorting.base.verify_sorted_output` /
    :func:`~repro.permute.base.verify_permutation_output` for SpMxV runs.
    Raises :class:`SpmxvVerificationError` on a length or value mismatch.
    Inspection is cost-free by design.
    """
    y = machine.collect_output(output_addrs)
    if len(y) != conf.N:
        raise SpmxvVerificationError(
            f"spmxv output mismatch: len={len(y)} vs {conf.N}"
        )
    ref = reference_product(conf, values, x)
    err = max((abs(a - b) for a, b in zip(y, ref)), default=0.0)
    if err > 1e-9 * max(1.0, conf.H):
        raise SpmxvVerificationError(
            f"spmxv output mismatch: len={len(y)} vs {conf.N}, err={err}"
        )
    return y
