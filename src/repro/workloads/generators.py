"""Seeded workload generators for the experiment suite.

Everything is driven by a :class:`numpy.random.Generator` (or a seed), so
every experiment row is exactly reproducible. Registries map the family
names used in tables to generator functions.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..atoms.atom import make_atoms, make_tokens
from ..atoms.permutation import Permutation
from ..spmxv.matrix import Conformation


#: Seed used when a generator is called without one. A fixed value — not
#: ``default_rng(None)``'s entropy — so the module keeps its "every
#: experiment row is exactly reproducible" promise even on the lazy path.
DEFAULT_SEED = 0


def _rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(DEFAULT_SEED if rng is None else rng)


# ----------------------------------------------------------------------
# Key distributions (sorting inputs).
# ----------------------------------------------------------------------
def uniform_keys(N: int, rng=None) -> list[int]:
    """Independent uniform keys over a range that makes duplicates rare."""
    return _rng(rng).integers(0, max(4, 8 * N), size=N).tolist()


def sorted_keys(N: int, rng=None) -> list[int]:
    """Already sorted — the best case for run formation."""
    return sorted(uniform_keys(N, rng))


def reversed_keys(N: int, rng=None) -> list[int]:
    """Reverse-sorted — worst case for replacement selection run length."""
    return sorted(uniform_keys(N, rng), reverse=True)


def few_distinct_keys(N: int, rng=None, distinct: int = 8) -> list[int]:
    """Heavily duplicated keys — exercises the (key, uid) tie-breaking."""
    return _rng(rng).integers(0, distinct, size=N).tolist()


def zipf_keys(N: int, rng=None, a: float = 1.8) -> list[int]:
    """Zipf-skewed keys — a realistic frequency-skewed workload."""
    return _rng(rng).zipf(a, size=N).tolist()


def organ_pipe_keys(N: int, rng=None) -> list[int]:
    """Ascending then descending — long natural runs in both directions."""
    half = N // 2
    up = list(range(half))
    down = list(range(N - half, 0, -1))
    return up + down


def ksorted_keys(N: int, rng=None, k: int = 16) -> list[int]:
    """Nearly sorted: every key at most ~k positions from its sorted spot.

    Generated by adding bounded noise to a sorted ramp — the classic
    'almost sorted log' workload where adaptive run formation shines.
    """
    r = _rng(rng)
    base = np.arange(N, dtype=np.int64) * 4
    noise = r.integers(-4 * k, 4 * k + 1, size=N)
    return (base + noise).tolist()


def natural_runs_keys(N: int, rng=None, runs: int = 8) -> list[int]:
    """A concatenation of ``runs`` pre-sorted ascending segments.

    Replacement selection detects these and emits long runs; memoryload
    run formation cannot, so the two heapsort-ish strategies diverge.
    """
    r = _rng(rng)
    out: list[int] = []
    seg = max(1, N // max(1, runs))
    for _ in range(runs):
        take = min(seg, N - len(out))
        if take <= 0:
            break
        out.extend(sorted(r.integers(0, 8 * N, take).tolist()))
    while len(out) < N:
        out.append(int(r.integers(0, 8 * N)))
    return out


KEY_DISTRIBUTIONS: Dict[str, Callable[..., list]] = {
    "uniform": uniform_keys,
    "sorted": sorted_keys,
    "reversed": reversed_keys,
    "few_distinct": few_distinct_keys,
    "zipf": zipf_keys,
    "organ_pipe": organ_pipe_keys,
    "ksorted": ksorted_keys,
    "natural_runs": natural_runs_keys,
}


def sort_input(
    N: int, distribution: str = "uniform", rng=None, *, counting: bool = False
) -> list:
    """Atoms with keys drawn from the named distribution.

    ``counting=True`` returns the same atoms' ``(key, uid)`` tokens
    instead, the form a counting machine holds them in, without building
    an :class:`~repro.atoms.atom.Atom` per element. The keys and the RNG
    draws are the same either way.
    """
    try:
        gen = KEY_DISTRIBUTIONS[distribution]
    except KeyError:
        raise KeyError(
            f"unknown distribution {distribution!r}; "
            f"available: {sorted(KEY_DISTRIBUTIONS)}"
        ) from None
    keys = gen(N, _rng(rng))
    return make_tokens(keys) if counting else make_atoms(keys)


# ----------------------------------------------------------------------
# Permutation families.
# ----------------------------------------------------------------------
def _transpose_perm(N: int, rng=None) -> Permutation:
    rows = max(2, int(np.sqrt(N)))
    while N % rows != 0:
        rows -= 1
    return Permutation.transpose(rows, N // rows)


PERMUTATION_FAMILIES: Dict[str, Callable[..., Permutation]] = {
    "random": lambda N, rng=None: Permutation.random(N, _rng(rng)),
    "identity": lambda N, rng=None: Permutation.identity(N),
    "reversal": lambda N, rng=None: Permutation.reversal(N),
    "cyclic": lambda N, rng=None: Permutation.cyclic_shift(N, max(1, N // 3)),
    "transpose": _transpose_perm,
}


def permutation(N: int, family: str = "random", rng=None) -> Permutation:
    try:
        gen = PERMUTATION_FAMILIES[family]
    except KeyError:
        raise KeyError(
            f"unknown permutation family {family!r}; "
            f"available: {sorted(PERMUTATION_FAMILIES)}"
        ) from None
    return gen(N, rng)


# ----------------------------------------------------------------------
# Matrix conformation families.
# ----------------------------------------------------------------------
CONFORMATION_FAMILIES: Dict[str, Callable[..., Conformation]] = {
    "random": lambda N, delta, rng=None: Conformation.random(N, delta, _rng(rng)),
    "banded": lambda N, delta, rng=None: Conformation.banded(N, delta),
    "strided": lambda N, delta, rng=None: Conformation.transpose_like(N, delta),
}


def conformation(
    N: int, delta: int, family: str = "random", rng=None
) -> Conformation:
    try:
        gen = CONFORMATION_FAMILIES[family]
    except KeyError:
        raise KeyError(
            f"unknown conformation family {family!r}; "
            f"available: {sorted(CONFORMATION_FAMILIES)}"
        ) from None
    return gen(N, delta, rng)


def spmxv_instance(
    N: int, delta: int, family: str = "random", rng=None
) -> tuple[Conformation, list[float], list[float]]:
    """A full SpMxV instance: conformation, entry values, vector x."""
    r = _rng(rng)
    conf = conformation(N, delta, family, r)
    values = r.standard_normal(conf.H).tolist()
    x = r.standard_normal(N).tolist()
    return conf, values, x
