"""The ``repro.api`` facade: one entry surface for CLI, experiments, server.

Covers the registry (normalization, defaults, validation, query keys),
the ``evaluate``/``sweep`` verbs (equivalence with the underlying measure
functions, engine routing, ordering), and the deprecation shims the old
``repro.experiments.common.measure_*`` paths turned into.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.api import measures
from repro.api.registry import normalize
from repro.core.params import AEMParams
from repro.engine import ResultCache, SweepEngine
from repro.machine.cost import CostRecord

P = AEMParams(M=64, B=8, omega=4)
P_QUERY = {"M": 64, "B": 8, "omega": 4}


# ----------------------------------------------------------------------
# Normalization.
# ----------------------------------------------------------------------
class TestNormalize:
    def test_defaults_filled_and_params_folded(self):
        spec, config = normalize({"workload": "sort", "n": 500})
        assert spec.name == "sort"
        assert config == {
            "N": 500,
            "sorter": "aem_mergesort",
            "distribution": "uniform",
            "seed": 0,
            "params": AEMParams(M=128, B=16, omega=8.0),
        }

    def test_counting_omitted_stays_out_of_config(self):
        # No default on purpose: the serving layer injects its policy by
        # adding the field to the *query*, keeping cache keys honest.
        _, config = normalize({"workload": "sort", "n": 500})
        assert "counting" not in config
        _, config = normalize({"workload": "sort", "n": 500, "counting": True})
        assert config["counting"] is True

    def test_unknown_workload_rejected(self):
        with pytest.raises(api.QueryError, match="unknown workload"):
            normalize({"workload": "qsort", "n": 10})

    def test_unknown_workload_message_lists_registered_names(self):
        # The 400 must tell the caller what IS available — including the
        # search workloads, so typos are self-correcting at the client.
        with pytest.raises(api.QueryError) as exc:
            normalize({"workload": "qsort", "n": 10})
        msg = str(exc.value)
        assert api.workload_names(), "registry unexpectedly empty"
        for name in api.workload_names():
            assert name in msg
        assert "index_build" in msg and "search_query" in msg

    def test_missing_workload_rejected(self):
        with pytest.raises(api.QueryError, match="missing the 'workload'"):
            normalize({"n": 10})

    def test_missing_required_field_rejected(self):
        with pytest.raises(api.QueryError, match="requires the 'n'"):
            normalize({"workload": "sort"})

    def test_unknown_field_rejected(self):
        with pytest.raises(api.QueryError, match="unknown field"):
            normalize({"workload": "sort", "n": 10, "frobnicate": 1})

    def test_bad_choice_rejected(self):
        with pytest.raises(api.QueryError, match="'sorter' must be one of"):
            normalize({"workload": "sort", "n": 10, "sorter": "quicksort"})

    @pytest.mark.parametrize(
        "workload,field",
        [("sort", "distribution"), ("permute", "family"), ("spmxv", "family")],
    )
    def test_unknown_generator_name_rejected(self, workload, field):
        # Admission-time, so a served batch never runs (and fails on) it.
        with pytest.raises(api.QueryError, match=f"'{field}' must be one of"):
            normalize({"workload": workload, "n": 64, field: "bogus"})

    @pytest.mark.parametrize(
        "field,value",
        [("n", True), ("n", 10.5), ("n", "ten"), ("counting", 1), ("omega", "x")],
    )
    def test_bad_types_rejected(self, field, value):
        with pytest.raises(api.QueryError):
            normalize({"workload": "sort", "n": 10, field: value})

    def test_non_mapping_rejected(self):
        with pytest.raises(api.QueryError, match="JSON object"):
            normalize(["workload", "sort"])

    def test_describe_workloads_is_json_able(self):
        desc = api.describe_workloads()
        assert set(desc) == {
            "index_build",
            "permute",
            "search_query",
            "sort",
            "spmxv",
        }
        assert desc["search_query"]["fields"]["mode"]["choices"] == ["and", "or"]
        assert desc["sort"]["fields"]["n"]["required"] is True
        assert desc["sort"]["fields"]["sorter"]["default"] == "aem_mergesort"
        json.dumps(desc)  # must not raise

    def test_every_field_carries_help(self):
        for schema in api.describe_workloads().values():
            for name, entry in schema["fields"].items():
                assert entry["help"], f"{schema['workload']}.{name} has no help"


# ----------------------------------------------------------------------
# Query keys — the shared dedup/cache identity.
# ----------------------------------------------------------------------
class TestQueryKey:
    def test_spelled_defaults_share_the_key(self):
        implicit = api.query_key({"workload": "sort", "n": 800})
        explicit = api.query_key(
            {
                "workload": "sort",
                "n": 800,
                "sorter": "aem_mergesort",
                "distribution": "uniform",
                "seed": 0,
                "M": 128,
                "B": 16,
                "omega": 8.0,
            }
        )
        assert implicit == explicit

    @pytest.mark.parametrize(
        "query,key",
        [
            ({"workload": "sort", "n": 8000},
             "c3743a8147c6355ba9b32204b8d1e25d2d07b64e8ed27f64e959f7c4788a863b"),
            ({"workload": "permute", "n": 4096, "family": "random"},
             "de8e61be9e494403b7aea9ad73b6008034baec0c625ebcd748c382714b9e8a89"),
            ({"workload": "spmxv", "n": 1024, "delta": 3, "algorithm": "naive"},
             "371795ffeabd831d8fa7f02878142e076c4c3486da8632305df13a3055893377"),
            ({"workload": "index_build", "n": 2000, "fanin": 4},
             "0cfd36c190fb16d00b326c012f9ab85c6276cd7ca3f72114a11a4fb209c01f12"),
            ({"workload": "search_query", "n": 1500, "n_queries": 20,
              "mode": "or", "n_docs": 100},
             "bc1dee1dace1e21fc003aa7f32c5d41c56980c8404306eb225df85bc776bf8d9"),
        ],
    )
    def test_keys_are_pinned(self, query, key):
        """Cache and dedup identity: a schema refactor must not move a
        valid query's key. The key hashes the package version too, so a
        version bump re-pins these."""
        assert api.query_key(query) == key

    def test_field_order_is_irrelevant(self):
        a = api.query_key({"workload": "sort", "n": 800, "seed": 3})
        b = api.query_key({"seed": 3, "n": 800, "workload": "sort"})
        assert a == b

    def test_different_configs_get_different_keys(self):
        base = {"workload": "sort", "n": 800}
        assert api.query_key(base) != api.query_key({**base, "n": 801})
        assert api.query_key(base) != api.query_key({**base, "omega": 2})
        assert api.query_key(base) != api.query_key({**base, "counting": True})

    def test_workloads_never_alias(self):
        assert api.query_key({"workload": "sort", "n": 128}) != api.query_key(
            {"workload": "permute", "n": 128}
        )


# ----------------------------------------------------------------------
# evaluate / sweep.
# ----------------------------------------------------------------------
class TestEvaluate:
    def test_matches_direct_measure_call(self):
        via_api = api.evaluate("sort", n=400, **P_QUERY, seed=2)
        direct = measures.measure_sort("aem_mergesort", 400, P, seed=2)
        assert isinstance(via_api, CostRecord)
        assert via_api == direct

    def test_query_dict_and_kwargs_merge(self):
        a = api.evaluate("permute", {"n": 256, **P_QUERY})
        b = api.evaluate("permute", {"n": 9999, **P_QUERY}, n=256)  # kwargs win
        assert a == b

    def test_bad_query_raises_query_error(self):
        with pytest.raises(api.QueryError):
            api.evaluate("sort", n=100, sorter="nope")

    def test_explicit_engine_is_used(self):
        engine = SweepEngine()
        api.evaluate("sort", n=200, **P_QUERY, engine=engine)
        assert engine.stats.executed == 1

    def test_observed_run_sees_machine_events(self):
        events = []

        class Probe:
            def on_attach(self, core):
                events.append("attach")

        observed = api.evaluate("sort", n=200, **P_QUERY, observers=[Probe()])
        plain = api.evaluate("sort", n=200, **P_QUERY)
        assert events and observed == plain


class TestSweep:
    def test_order_preserved_across_workload_groups(self):
        queries = [
            {"workload": "sort", "n": 200, **P_QUERY},
            {"workload": "permute", "n": 128, **P_QUERY},
            {"workload": "sort", "n": 300, **P_QUERY},
            {"workload": "spmxv", "n": 64, "delta": 2, **P_QUERY},
        ]
        results = api.sweep(queries)
        singles = [api.evaluate(q["workload"], q) for q in queries]
        assert results == singles

    def test_one_engine_sweep_per_workload_group(self):
        engine = SweepEngine()
        api.sweep(
            [
                {"workload": "sort", "n": 200, **P_QUERY},
                {"workload": "sort", "n": 300, **P_QUERY},
                {"workload": "permute", "n": 128, **P_QUERY},
            ],
            engine=engine,
        )
        assert engine.stats.sweeps == 2
        assert engine.stats.executed == 3

    def test_bad_query_fails_before_anything_runs(self):
        engine = SweepEngine()
        with pytest.raises(api.QueryError):
            api.sweep(
                [
                    {"workload": "sort", "n": 200, **P_QUERY},
                    {"workload": "sort"},  # missing n
                ],
                engine=engine,
            )
        assert engine.stats.executed == 0

    def test_cached_engine_shares_entries_with_query_key(self, tmp_path):
        # The server's dedup identity IS the engine cache identity: a
        # sweep stores under exactly query_key(q).
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        query = {"workload": "sort", "n": 200, **P_QUERY}
        api.sweep([query], engine=engine)
        assert cache.path(api.query_key(query)).exists()
        api.sweep([query], engine=engine)
        assert engine.stats.cache_hits == 1


# ----------------------------------------------------------------------
# The measurement entry points.
# ----------------------------------------------------------------------
class TestDeprecatedShims:
    """The old ``repro.experiments.common.measure_*`` shims are gone; the
    paths that replaced them stay warning-free."""

    def test_new_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            measures.measure_sort("aem_mergesort", 200, P)
            api.evaluate("sort", n=200, **P_QUERY)
