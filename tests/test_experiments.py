"""The experiment suite: every registered experiment runs and passes.

These are the repository's headline reproduction claims; a failing check
here means a paper claim stopped reproducing. Each experiment's quick run
comes from the session's ``quick_experiment`` fixture, which
``tests/test_counting_mode.py`` shares for its counting-parity test.
"""

import pytest

from repro.api.measures import measure_permute, measure_sort, measure_spmxv
from repro.experiments import REGISTRY, experiment_order, natural_key, run_experiment
from repro.experiments.common import ExperimentResult
from repro.core.params import AEMParams
from repro.machine.cost import CostRecord

ALL_IDS = sorted(REGISTRY)


def test_registry_has_all_experiments_and_ablations():
    expected = {f"e{i}" for i in range(1, 20)} | {"a1", "a2", "a3"}
    assert set(ALL_IDS) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("e99")


def test_experiment_order_is_natural():
    assert experiment_order() == (
        ["a1", "a2", "a3"] + [f"e{i}" for i in range(1, 20)]
    )


def test_natural_key_orders_numerically():
    ids = ["e10", "e2", "e1", "a1", "e11", "a3"]
    assert sorted(ids, key=natural_key) == ["a1", "a3", "e1", "e2", "e10", "e11"]


@pytest.mark.parametrize("eid", ALL_IDS)
def test_experiment_passes(eid, quick_experiment):
    result = quick_experiment(eid)
    assert isinstance(result, ExperimentResult)
    failing = [name for name, ok in result.checks.items() if not ok]
    assert not failing, f"{eid} failing checks: {failing}\n\n{result.render()}"
    assert result.tables, f"{eid} produced no tables"
    assert result.records, f"{eid} recorded no measurements"


def test_render_contains_checks(quick_experiment):
    r = quick_experiment("e12")
    text = r.render()
    assert "PASS" in text and r.title in text and r.claim in text


class TestMeasureHelpers:
    def test_measure_sort_fields(self):
        p = AEMParams(M=64, B=8, omega=4)
        rec = measure_sort("aem_mergesort", 200, p)
        assert isinstance(rec, CostRecord)
        assert set(rec) >= {"Q", "Qr", "Qw", "T", "peak_mem"}
        assert rec["Q"] == rec["Qr"] + p.omega * rec["Qw"]

    def test_measure_permute_fields(self):
        p = AEMParams(M=64, B=8, omega=4)
        rec = measure_permute("naive", 128, p)
        assert rec["Qw"] == p.n(128)

    def test_measure_spmxv_verifies(self):
        p = AEMParams(M=64, B=8, omega=4)
        rec = measure_spmxv("sort_based", 64, 2, p)
        assert rec["Q"] > 0

    def test_measure_sort_deterministic(self):
        p = AEMParams(M=64, B=8, omega=4)
        a = measure_sort("aem_mergesort", 300, p, seed=5)
        b = measure_sort("aem_mergesort", 300, p, seed=5)
        assert a == b

    def test_cost_record_mapping_surface(self):
        p = AEMParams(M=64, B=8, omega=4)
        rec = measure_sort("aem_mergesort", 200, p)
        assert {**rec} == rec.as_dict()
        assert rec.as_dict() == {
            "Q": rec.Q,
            "Qr": rec.Qr,
            "Qw": rec.Qw,
            "T": rec.T,
            "peak_mem": rec.peak_mem,
        }
        assert "Q" in rec and "bogus" not in rec
        assert len(rec) == 5
        with pytest.raises(KeyError):
            rec["bogus"]
