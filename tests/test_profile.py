"""The I/O cost-attribution profiler (`repro.telemetry.profile`).

The cardinal property pinned here is **conservation**: for every
registered sorter, permuter, and SpMxV algorithm, the profiler's
per-path attribution sums exactly to the machine's own cost ledger, on
full *and* counting machines, across hypothesis-drawn (M, B, omega, N)
points; and the ledger's path table equals an independent per-event
recount (the cost sanitizer's) in the same run. On top of that: windows of
observers attached mid-run, the export formats (folded stacks,
speedscope JSON, the top-N table), sweep-level merging, the engine's
``profile=True`` collection path, and the ``repro-aem profile`` CLI
surface.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api.measures import measure_sort
from repro.core.params import AEMParams
from repro.engine import ExperimentConfig, SweepEngine
from repro.machine.aem import AEMMachine
from repro.observe import MachineObserver
from repro.permute.base import PERMUTERS
from repro.sanitize.cost import CostSanitizer
from repro.sorting.base import SORTERS
from repro.telemetry import MetricsObserver
from repro.telemetry.profile import (
    WEIGHTS,
    CostProfiler,
    PathStats,
    folded,
    merge_paths,
    render_table,
    speedscope,
)

P = AEMParams(M=64, B=8, omega=4)

SPMXV_ALGORITHMS = ("naive", "sort_based")


def _profiled(workload: str, query: dict):
    """(profiler, cost record) for one profiled evaluation."""
    prof = CostProfiler(root=workload)
    rec = api.evaluate(workload, query, observers=[prof])
    return prof, rec


def _query(workload: str, impl: str, *, counting: bool = False) -> dict:
    base = {"n": 384, "M": P.M, "B": P.B, "omega": P.omega, "counting": counting}
    if workload == "sort":
        return {**base, "sorter": impl}
    if workload == "permute":
        return {**base, "permuter": impl}
    return {**base, "n": 128, "delta": 3, "algorithm": impl}


class _LedgerTwin(CostSanitizer):
    """An independent per-event recount of every path, beside its
    machine's ledger."""

    on_batch = MachineObserver.on_batch  # the base hook: per-event delivery

    def on_attach(self, core):
        super().on_attach(core)
        self.machine_ledger = core.counter


ALL_CASES = (
    [("sort", s) for s in sorted(SORTERS)]
    + [("permute", p) for p in sorted(PERMUTERS)]
    + [("spmxv", a) for a in SPMXV_ALGORITHMS]
)


class TestConservation:
    @pytest.mark.parametrize("workload,impl", ALL_CASES)
    def test_every_algorithm_conserves(self, workload, impl):
        prof, rec = _profiled(workload, _query(workload, impl))
        assert prof.conservation_errors(rec) == []
        assert prof.totals().reads == rec["Qr"]
        assert prof.totals().writes == rec["Qw"]
        assert prof.totals().q == pytest.approx(rec["Q"], abs=1e-9)

    @pytest.mark.parametrize("sorter", sorted(SORTERS))
    def test_counting_full_parity(self, sorter):
        """Counting machines attribute identically to full machines."""
        full, frec = _profiled("sort", _query("sort", sorter))
        cnt, crec = _profiled("sort", _query("sort", sorter, counting=True))
        assert cnt.conservation_errors(crec) == []
        assert {p: s.as_dict() for p, s in cnt.paths().items()} == {
            p: s.as_dict() for p, s in full.paths().items()
        }
        assert dict(frec) == dict(crec)

    @pytest.mark.parametrize("workload,impl",
                             [("sort", "aem_mergesort"),
                              ("permute", "adaptive"),
                              ("spmxv", "sort_based")])
    def test_batched_events_parity(self, workload, impl):
        """A per-event recount on the same run attributes identically."""
        twin = _LedgerTwin()
        rec = api.evaluate(workload, _query(workload, impl), observers=[twin])
        paths = twin.machine_ledger.paths()
        assert {
            path: [s.reads, s.writes, s.read_cost, s.write_cost, s.touches]
            for path, s in paths.items()
        } == twin.phases
        assert twin.ok
        assert sum(s.reads for s in paths.values()) == rec["Qr"]
        assert sum(s.writes for s in paths.values()) == rec["Qw"]

    @settings(max_examples=12, deadline=None)
    @given(
        mb=st.sampled_from([(32, 4), (64, 8), (128, 16), (96, 8)]),
        omega=st.sampled_from([1, 2, 4, 8]),
        n=st.integers(min_value=16, max_value=700),
    )
    def test_conservation_over_parameter_space(self, mb, omega, n):
        M, B = mb
        prof = CostProfiler(root="sort")
        rec = api.evaluate(
            "sort", sorter="aem_mergesort", n=n, M=M, B=B, omega=omega,
            observers=[prof],
        )
        assert prof.conservation_errors(rec) == []

    def test_default_ledger_is_the_machine_ledger(self):
        """Without an argument, conservation reconciles against the
        ledgers of the machines the profiler watched."""
        prof, rec = _profiled("sort", _query("sort", "aem_mergesort"))
        assert prof.ledger() == rec
        assert prof.conservation_errors() == []
        # search_query's record prices the query phase only; the machine
        # also ran the index build the profiler attributed.
        prof, rec = _profiled("search_query", {"n": 600, "n_queries": 8})
        assert prof.conservation_errors() == []
        assert prof.ledger()["Qr"] > rec["Qr"] and prof.ledger()["Qw"] > 0
        assert prof.conservation_errors(rec) != []

    def test_conservation_mismatch_is_reported(self):
        prof, rec = _profiled("sort", _query("sort", "aem_mergesort"))
        doctored = {**rec, "Qr": rec["Qr"] + 1}
        errors = prof.conservation_errors(doctored)
        assert len(errors) == 2  # Qr itself + the derived io_count
        assert any(e.startswith("Qr:") for e in errors)


class TestLedgerWindows:
    def test_mid_run_attach_reads_only_its_window(self):
        """Observers attached mid-run and detached before the end report
        what happened while they were attached, and nothing else."""
        machine = AEMMachine(P)
        addrs = machine.load_input(range(4 * P.B))

        def work(tag):
            with machine.phase(tag):
                for a in addrs:
                    machine.release(machine.read(a))
                machine.acquire(P.B)
                machine.write(addrs[0], list(range(P.B)))
                machine.touch(3)

        work("before")
        prof, metrics = CostProfiler(root="w"), MetricsObserver()
        machine.attach(prof)
        machine.attach(metrics)
        work("during")
        machine.detach(prof)
        machine.detach(metrics)
        work("after")
        work("during")
        assert prof.paths() == {
            ("during",): PathStats(reads=4, writes=1, read_cost=4.0,
                                   write_cost=P.omega, touches=3)
        }
        assert metrics.per_phase() == {
            "during": {"reads": 4, "read_cost": 4.0, "writes": 1,
                       "write_cost": P.omega, "touches": 3}
        }


class TestPathStats:
    def test_weight_accessors(self):
        s = PathStats(reads=3, writes=2, read_cost=3.0, write_cost=8.0,
                      touches=5)
        assert s.q == 11.0
        assert s.io == 5
        assert s.weight("q") == 11.0
        assert s.weight("qr") == 3
        assert s.weight("qw") == 2
        assert s.weight("io") == 5
        with pytest.raises(ValueError):
            s.weight("wall")

    def test_merged_sums(self):
        a = PathStats(reads=1, writes=2, read_cost=1.0, write_cost=8.0,
                      touches=3)
        b = PathStats(reads=10, writes=1, read_cost=10.0, write_cost=4.0,
                      touches=1)
        m = a.merged(b)
        assert (m.reads, m.writes, m.touches) == (11, 3, 4)
        assert (m.read_cost, m.write_cost) == (11.0, 12.0)
        assert m - b == a


class TestExports:
    @pytest.fixture(scope="class")
    def prof(self):
        prof, _ = _profiled("sort", _query("sort", "aem_mergesort"))
        return prof

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_folded_lines_sum_to_total(self, prof, weight):
        text = prof.folded(weight)
        assert text.endswith("\n")
        total = 0.0
        for line in text.splitlines():
            path, value = line.rsplit(" ", 1)
            assert path.startswith("sort")
            total += float(value)
        assert total == pytest.approx(prof.totals().weight(weight))

    def test_folded_drops_zero_weight_paths(self):
        paths = {
            ("hot",): PathStats(reads=4, writes=2, read_cost=4.0, write_cost=8.0),
            ("cold",): PathStats(reads=3, read_cost=3.0),  # zero writes
        }
        text = folded(paths, weight="qw", root="run")
        assert text == "run;hot 2\n"

    def test_speedscope_shape_and_weights(self, prof):
        doc = prof.speedscope("q")
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["endValue"] == pytest.approx(prof.totals().q)
        frames = doc["shared"]["frames"]
        for stack in profile["samples"]:
            assert all(0 <= idx < len(frames) for idx in stack)
            assert frames[stack[0]]["name"] == "sort"
        json.dumps(doc)  # must be serializable as-is

    def test_table_top_n_and_percentages(self, prof):
        table = prof.table(weight="q", top=2)
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["path", "Qr"]
        n_paths = sum(1 for s in prof.paths().values() if s.q)
        if n_paths > 2:
            assert f"... {n_paths - 2} more path(s)" in lines[-1]
        assert "%" in table

    def test_merge_paths_roots_by_label(self, prof):
        merged = merge_paths([("a[0]", prof.paths()), ("a[1]", prof.paths())])
        for key, stats in merged.items():
            assert key[0] in ("a[0]", "a[1]")
        doubled = merge_paths([("x", prof.paths()), ("x", prof.paths())])
        assert sum(s.reads for s in doubled.values()) == 2 * prof.totals().reads

    def test_module_functions_accept_plain_dicts(self):
        paths = {("outer", "inner"): PathStats(reads=2, read_cost=2.0)}
        assert folded(paths, weight="qr") == "outer;inner 2\n"
        assert "outer;inner" in render_table(paths, weight="qr")
        doc = speedscope(paths, weight="qr", name="x")
        assert doc["profiles"][0]["weights"] == [2]


class TestEngineProfileMode:
    def test_engine_collects_one_entry_per_config(self):
        engine = SweepEngine(profile=True)
        configs = [
            {"sorter": "aem_mergesort", "N": 256, "params": P},
            {"sorter": "em_mergesort", "N": 256, "params": P},
        ]
        results = engine.map(measure_sort, configs)
        assert len(engine.profiles) == 2
        for entry, result in zip(engine.profiles, results):
            assert entry.result is result
            assert entry.profiler.conservation_errors(result) == []
        labels = [e.label for e in engine.profiles]
        assert labels == ["measure_sort[0]", "measure_sort[1]"]

    def test_profiled_runs_are_not_memoized(self, tmp_path):
        from repro.engine import ResultCache

        engine = SweepEngine(profile=True, cache=ResultCache(str(tmp_path)))
        config = {"sorter": "aem_mergesort", "N": 128, "params": P}
        engine.map(measure_sort, [config])
        engine.map(measure_sort, [config])
        assert len(engine.profiles) == 2  # executed twice, never replayed
        assert engine.stats.cache_hits == 0

    def test_experiment_config_carries_profile(self):
        config = ExperimentConfig(profile=True)
        engine = config.make_engine()
        assert engine.profile is True
        assert ExperimentConfig().make_engine().profile is False


class TestProfileCli:
    def test_workload_target_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "profile", "sort", "--n", "512", "--m", "64", "--b", "8",
            "--omega", "4", "--top", "5", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "path" in out and "%q" in out
        folded_text = (tmp_path / "profile.folded").read_text()
        assert folded_text.startswith("sort")
        doc = json.loads((tmp_path / "profile.speedscope.json").read_text())
        assert doc["profiles"][0]["samples"]

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_weight_flag(self, weight, capsys):
        from repro.cli import main

        rc = main(["profile", "permute", "--n", "256", "--m", "64", "--b", "8",
                   "--omega", "4", "--weight", weight, "--counting"])
        assert rc == 0
        assert f"%{weight}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["search_query", "--n", "1500", "--k", "4", "--mode", "or"],
            ["e19"],
        ],
    )
    def test_search_targets_conserve(self, argv, capsys):
        from repro.cli import main

        assert main(["profile", *argv, "--top", "3"]) == 0
        assert "FAILED" not in capsys.readouterr().err

    def test_workload_flags_reach_the_query(self, capsys):
        from repro.cli import main

        machine = {"n": 2000, "M": 64, "B": 8, "omega": 4}
        assert main(["profile", "index_build", "--n", "2000", "--m", "64",
                     "--b", "8", "--omega", "4", "--sorter", "aem_heapsort"]) == 0
        out = capsys.readouterr().out
        heap, _ = _profiled("index_build", {**machine, "sorter": "aem_heapsort"})
        merge, _ = _profiled("index_build", machine)
        assert heap.totals().q != merge.totals().q
        assert f"total q = {heap.totals().q:g} " in out

    def test_flag_the_target_does_not_take_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["profile", "sort", "--delta", "3"])
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err

    def test_unknown_target_fails(self, capsys):
        from repro.cli import main

        assert main(["profile", "nonesuch"]) == 2
        assert "unknown target" in capsys.readouterr().err


class TestSpanObserverHookNeutrality:
    def test_no_ambient_trace_means_no_extra_observers(self):
        """Without an active span+collector the machine hook is inert."""
        from repro.telemetry.spans import SpanPhaseRecorder, current_span

        assert current_span() is None
        m = AEMMachine(P)
        assert not any(isinstance(o, SpanPhaseRecorder) for o in m.observers)
