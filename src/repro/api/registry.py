"""The workload registry: one schema for CLI, experiments, server.

Every entry point that answers "what does workload X cost at
(M, B, omega, N)?" resolves through the :class:`WorkloadSpec` records
here, keyed by workload name: the ``repro-aem`` runner subcommands (one
per registered workload, their flags generated from the spec's
:class:`QueryField` s), the experiment sweeps, and the cost-oracle
server's ``/workloads`` and ``/evaluate``. Each field carries its type,
default, choices and help text, so the command line and the server
describe a workload the same way. :func:`normalize` turns a flat,
JSON-friendly *query* dict into the exact keyword config the
measurement function takes.

A query is flat and serializable::

    {"workload": "sort", "n": 8000, "M": 128, "B": 16, "omega": 8,
     "sorter": "aem_mergesort", "seed": 0}

``normalize`` validates it against the spec (unknown fields, missing
required fields, bad choices all raise :class:`QueryError`), fills
defaults, folds the machine parameters into one
:class:`~repro.core.params.AEMParams`, and returns ``(spec, config)``
where ``measure(**config)`` is the measurement call. Because every
consumer normalizes the same way, a query means the same thing — and
hashes to the same :func:`query_key` — whether it arrives from the
command line, an experiment grid, or an HTTP request body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..core.params import AEMParams
from ..engine.cache import cache_key
from ..permute.base import PERMUTERS
from ..sorting.base import SORTERS
from ..workloads.generators import (
    CONFORMATION_FAMILIES,
    KEY_DISTRIBUTIONS,
    PERMUTATION_FAMILIES,
)
from ..workloads.search import measures as search_measures
from . import measures


class QueryError(ValueError):
    """A workload query that cannot be normalized (the 400 of the API)."""


#: Sentinel default marking a query field the caller must supply.
REQUIRED = object()


@dataclass(frozen=True)
class QueryField:
    """One accepted field of a workload query.

    ``name`` is both the query key and the measurement-function keyword.
    ``coerce`` turns the JSON-decoded value (or a command-line string)
    into the right Python type, raising ``ValueError``/``TypeError`` on
    garbage; ``choices``, when set, restricts the coerced value to a
    known set. ``help`` describes the field wherever it is shown — the
    ``/workloads`` schema and the CLI's ``--help`` — and changes nothing
    about a query.
    """

    name: str
    coerce: Callable[[Any], Any]
    default: Any = REQUIRED
    choices: Optional[Tuple[str, ...]] = None
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


# The coercers are named for the type they accept: argparse uses them as
# ``type=`` and reports a bad flag value as "invalid integer value: 'x'".
def integer(value: Any) -> int:
    if isinstance(value, bool):
        raise QueryError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise QueryError(f"expected an integer, got {value!r}")
    return int(value)


def number(value: Any) -> float:
    if isinstance(value, bool):
        raise QueryError(f"expected a number, got {value!r}")
    return float(value)


def boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise QueryError(f"expected true/false, got {value!r}")
    return value


def string(value: Any) -> str:
    if not isinstance(value, str):
        raise QueryError(f"expected a string, got {value!r}")
    return value


#: Machine-parameter fields shared by every workload; folded into one
#: ``params=AEMParams(M, B, omega)`` keyword by :func:`normalize`.
MACHINE_FIELDS: Tuple[QueryField, ...] = (
    QueryField("M", integer, default=128, help="internal memory M (atoms)"),
    QueryField("B", integer, default=16, help="block size B (atoms)"),
    QueryField("omega", number, default=8.0, help="write/read cost ratio"),
)

#: Execution-mode fields present on every workload. ``counting`` has no
#: default on purpose: when a query leaves it out, the field stays out of
#: the config, letting the serving/engine layer inject its own policy
#: (and keeping cache keys distinct between the two cases).
COMMON_FIELDS: Tuple[QueryField, ...] = (
    QueryField("seed", integer, default=0, help="seed of the generated input"),
    QueryField(
        "counting",
        boolean,
        default=None,
        help="payload-free counting machine: identical costs, much faster "
        "simulation, output verified from its (key, uid) tokens (SpMxV: "
        "not verified)",
    ),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload family: its measure function and its query schema."""

    name: str
    measure: Callable[..., Any]
    fields: Tuple[QueryField, ...]
    help: str = ""

    def describe(self) -> dict:
        """JSON-able schema (the ``/workloads`` endpoint's payload)."""
        out: Dict[str, Any] = {"workload": self.name, "help": self.help, "fields": {}}
        for f in self.all_fields:
            entry: Dict[str, Any] = {"required": f.required, "help": f.help}
            if not f.required and f.default is not None:
                entry["default"] = f.default
            if f.choices is not None:
                entry["choices"] = list(f.choices)
            out["fields"][f.name] = entry
        return out

    @property
    def all_fields(self) -> Tuple[QueryField, ...]:
        return self.fields + MACHINE_FIELDS + COMMON_FIELDS


#: The routing table. Keyed by workload name; every consumer — CLI,
#: experiments, server, tests — resolves through this one dict.
WORKLOADS: Dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in WORKLOADS:
        raise ValueError(f"workload {spec.name!r} already registered")
    WORKLOADS[spec.name] = spec
    return spec


def workload_names() -> list[str]:
    return sorted(WORKLOADS)


register_workload(
    WorkloadSpec(
        name="sort",
        measure=measures.measure_sort,
        fields=(
            QueryField("n", integer, help="keys to sort"),
            QueryField(
                "sorter",
                string,
                default="aem_mergesort",
                choices=tuple(sorted(SORTERS)),
                help="registered sorter",
            ),
            QueryField(
                "distribution",
                string,
                default="uniform",
                choices=tuple(sorted(KEY_DISTRIBUTIONS)),
                help="key distribution",
            ),
        ),
        help="sort N keys with a registered sorter",
    )
)

register_workload(
    WorkloadSpec(
        name="permute",
        measure=measures.measure_permute,
        fields=(
            QueryField("n", integer, help="atoms to permute"),
            QueryField(
                "permuter",
                string,
                default="adaptive",
                choices=tuple(sorted(PERMUTERS)),
                help="registered permuter",
            ),
            QueryField(
                "family",
                string,
                default="random",
                choices=tuple(sorted(PERMUTATION_FAMILIES)),
                help="permutation family",
            ),
        ),
        help="apply a permutation from a named family to N atoms",
    )
)

register_workload(
    WorkloadSpec(
        name="spmxv",
        measure=measures.measure_spmxv,
        fields=(
            QueryField("n", integer, help="matrix dimension N"),
            QueryField("delta", integer, default=4, help="nonzeros per column"),
            QueryField(
                "algorithm",
                string,
                default="sort_based",
                choices=("naive", "sort_based"),
                help="SpMxV algorithm",
            ),
            QueryField(
                "family",
                string,
                default="random",
                choices=tuple(sorted(CONFORMATION_FAMILIES)),
                help="conformation family (where the nonzeros sit)",
            ),
        ),
        help="sparse-matrix dense-vector multiply (N x N, delta nnz/column)",
    )
)

#: Corpus-shape fields shared by the two search workloads. The ``None``
#: defaults stay *out* of the config when a query omits them, so the
#: measure functions' own derived defaults apply (and cache keys stay
#: identical between "omitted" and "explicitly derived" spellings only
#: when the caller spells them the same way).
_CORPUS_FIELDS: Tuple[QueryField, ...] = (
    QueryField("n_docs", integer, default=None, help="documents (default n/8)"),
    QueryField("n_terms", integer, default=None, help="terms (default n/16)"),
    QueryField("zipf_a", number, default=1.4, help="zipf exponent for terms"),
    QueryField(
        "fanin",
        integer,
        default=None,
        help="merge fan-in per layer (default and cap: omega*m)",
    ),
    QueryField(
        "sorter",
        string,
        default="aem_mergesort",
        choices=tuple(sorted(SORTERS)),
        help="run-generation sorter",
    ),
)

register_workload(
    WorkloadSpec(
        name="index_build",
        measure=search_measures.measure_index_build,
        fields=(QueryField("n", integer, help="corpus postings"),)
        + _CORPUS_FIELDS,
        help="build a blocked inverted index over an N-posting corpus",
    )
)

register_workload(
    WorkloadSpec(
        name="search_query",
        measure=search_measures.measure_search_query,
        fields=(
            QueryField("n", integer, help="corpus postings"),
            QueryField("n_queries", integer, default=64, help="queries to serve"),
            QueryField("k", integer, default=8, help="results per query"),
            QueryField(
                "mode",
                string,
                default="and",
                choices=("and", "or"),
                help="match every query term (and) or any (or)",
            ),
            QueryField(
                "terms_per_query", integer, default=2, help="terms per query"
            ),
        )
        + _CORPUS_FIELDS,
        help="serve DAAT top-k queries over a freshly built index "
        "(cost of the query phase only)",
    )
)

#: Query keys the measurement functions spell differently from the query
#: surface (the query says ``n``; the functions take positional ``N``).
_CONFIG_NAMES = {"n": "N"}


def normalize(query: Mapping[str, Any]) -> tuple[WorkloadSpec, dict]:
    """Validate a flat query dict; return ``(spec, measure_config)``.

    The returned config is canonical: defaults filled, machine parameters
    folded into ``params=AEMParams(...)``, keys renamed to the measure
    function's keywords. Two queries that mean the same measurement
    normalize to equal configs (and so share one :func:`query_key`).
    """
    if not isinstance(query, Mapping):
        raise QueryError(f"query must be a JSON object, got {type(query).__name__}")
    q = dict(query)
    name = q.pop("workload", None)
    if name is None:
        raise QueryError("query is missing the 'workload' field")
    if name not in WORKLOADS:
        raise QueryError(
            f"unknown workload {name!r}; available: {workload_names()}"
        )
    spec = WORKLOADS[name]
    values: Dict[str, Any] = {}
    for f in spec.all_fields:
        if f.name in q:
            raw = q.pop(f.name)
            try:
                value = f.coerce(raw)
            except QueryError:
                raise
            except (TypeError, ValueError) as exc:
                raise QueryError(
                    f"bad value for {f.name!r} in workload {name!r}: {exc}"
                ) from None
            if f.choices is not None and value not in f.choices:
                raise QueryError(
                    f"{f.name!r} must be one of {sorted(f.choices)}, got {value!r}"
                )
            values[f.name] = value
        elif f.required:
            raise QueryError(f"workload {name!r} requires the {f.name!r} field")
        elif f.default is not None:
            values[f.name] = f.default
    if q:
        raise QueryError(
            f"unknown field(s) for workload {name!r}: {sorted(q)}; "
            f"accepted: {sorted(f.name for f in spec.all_fields)}"
        )
    try:
        params = AEMParams(
            M=values.pop("M"), B=values.pop("B"), omega=values.pop("omega")
        )
    except ValueError as exc:
        raise QueryError(f"bad machine parameters: {exc}") from None
    config = {_CONFIG_NAMES.get(k, k): v for k, v in values.items()}
    config["params"] = params
    return spec, config


def query_key(query: Mapping[str, Any]) -> str:
    """Content hash identifying a normalized query.

    Equal for any two queries that normalize to the same measurement —
    the identity the server's deduplication and the engine's result
    cache both key on (it is the engine cache key of the normalized
    config, so a server front-end and a direct sweep share entries).
    """
    spec, config = normalize(query)
    return cache_key(spec.measure, config)
