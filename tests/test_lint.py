"""The AEM source lint: every rule fires on a synthetic breach, the
escape hatches work, and the shipped tree is clean."""

from __future__ import annotations

import textwrap

from repro.sanitize import lint_source
from repro.sanitize.lint import ALGORITHM_PACKAGES
from repro.sanitize.runner import run_lint_checks


def lint(source: str, module: str = "repro/analysis/tools"):
    parts = tuple(module.split("/"))
    return lint_source(
        textwrap.dedent(source), rel=f"{module}.py", module_parts=parts
    )


def rules(found) -> set[str]:
    return {v.rule for v in found}


# ----------------------------------------------------------------------
# AEM101: BlockStore internals stay inside repro.machine.
# ----------------------------------------------------------------------
class TestAEM101:
    def test_fires_outside_machine_pkg(self):
        found = lint("n = store._blocks[3]")
        assert rules(found) == {"AEM101"}
        assert found[0].line == 1

    def test_next_addr_also_covered(self):
        assert rules(lint("store._next_addr += 1")) == {"AEM101"}

    def test_self_private_attr_is_fine(self):
        assert lint("x = self._blocks") == []

    def test_inside_machine_pkg_is_fine(self):
        assert lint("n = store._blocks", module="repro/machine/tools") == []


# ----------------------------------------------------------------------
# AEM102: algorithms move data only through machine APIs.
# ----------------------------------------------------------------------
class TestAEM102:
    def test_fires_in_every_algorithm_package(self):
        for pkg in ALGORITHM_PACKAGES:
            found = lint(
                "n = len(machine.disk.get(a))", module=f"repro/{pkg}/algo"
            )
            assert rules(found) == {"AEM102"}, pkg

    def test_set_restore_load_dump_covered(self):
        for call in ("set(a, x)", "restore(s)", "load_items(x)", "dump_items(a)"):
            found = lint(f"machine.disk.{call}", module="repro/sorting/algo")
            assert rules(found) == {"AEM102"}, call

    def test_block_len_is_the_sanctioned_api(self):
        assert lint("n = machine.block_len(a)", module="repro/sorting/algo") == []

    def test_non_algorithm_module_is_fine(self):
        assert lint("x = machine.disk.get(a)", module="repro/flashred/red") == []


# ----------------------------------------------------------------------
# AEM103: observers never mutate machine state.
# ----------------------------------------------------------------------
class TestAEM103:
    def test_observer_calling_mutator_fires(self):
        found = lint(
            """
            class Sneaky(MachineObserver):
                def on_read(self, addr, items, cost):
                    self.core.release(3)
            """
        )
        assert rules(found) == {"AEM103"}

    def test_observer_assigning_machine_state_fires(self):
        found = lint(
            """
            class Sneaky(MachineObserver):
                def on_write(self, addr, items, cost):
                    core.mem.limit = 10
            """
        )
        assert rules(found) == {"AEM103"}

    def test_observer_own_state_is_fine(self):
        found = lint(
            """
            class Honest(MachineObserver):
                def on_read(self, addr, items, cost):
                    self.reads = self.reads + 1
                    self.history.append(addr)
            """
        )
        assert found == []

    def test_mutator_outside_observer_class_is_fine(self):
        assert lint("core.release(3)") == []


# ----------------------------------------------------------------------
# AEM104: no shadow cost dicts outside the ledger module.
# ----------------------------------------------------------------------
class TestAEM104:
    def test_qr_qw_dict_fires(self):
        found = lint("rec = {'Qr': r, 'Qw': w, 'extra': 1}")
        assert rules(found) == {"AEM104"}

    def test_single_key_is_fine(self):
        assert lint("rec = {'Qr': r}") == []

    def test_ledger_module_is_exempt(self):
        assert lint("rec = {'Qr': r, 'Qw': w}", module="repro/machine/cost") == []


# ----------------------------------------------------------------------
# AEM105: observer handlers stay within the event vocabulary.
# ----------------------------------------------------------------------
class TestAEM105:
    def test_unknown_handler_fires(self):
        found = lint(
            """
            class Typo(MachineObserver):
                def on_reed(self, addr, items, cost):
                    pass
            """
        )
        assert rules(found) == {"AEM105"}

    def test_known_handlers_and_lifecycle_are_fine(self):
        found = lint(
            """
            class Fine(MachineObserver):
                def on_attach(self, core):
                    pass
                def on_read(self, addr, items, cost):
                    pass
                def on_round_boundary(self, index):
                    pass
            """
        )
        assert found == []

    def test_non_observer_class_unconstrained(self):
        assert lint(
            """
            class Whatever:
                def on_anything_goes(self):
                    pass
            """
        ) == []

    def test_on_batch_is_a_known_handler(self):
        # AEM105 must not fire on the vectorized hook.
        found = lint(
            """
            class Vectorized(MachineObserver):
                def on_batch(self, batch):
                    pass
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# AEM106: ledger fields are written only by the machine layer.
# ----------------------------------------------------------------------
class TestAEM106:
    def test_occupancy_assignment_fires(self):
        assert rules(lint("mem.occupancy = 0")) == {"AEM106"}

    def test_augmented_assignment_fires(self):
        assert rules(lint("machine.mem.peak += 5")) == {"AEM106"}

    def test_machine_pkg_is_exempt(self):
        assert lint("mem.occupancy = 0", module="repro/machine/internal") == []

    def test_reading_is_fine(self):
        assert lint("x = mem.occupancy") == []


# ----------------------------------------------------------------------
# AEM108: the serving layer routes through repro.api, never machines.
# ----------------------------------------------------------------------
class TestAEM108:
    def test_direct_construction_fires(self):
        found = lint(
            "machine = AEMMachine(params)", module="repro/serve/server"
        )
        assert rules(found) == {"AEM108"}

    def test_for_algorithm_fires(self):
        found = lint(
            "machine = AEMMachine.for_algorithm(params)",
            module="repro/serve/server",
        )
        assert rules(found) == {"AEM108"}

    def test_qualified_reference_fires(self):
        found = lint(
            "core = aem.MachineCore(params)", module="repro/serve/handlers"
        )
        assert rules(found) == {"AEM108"}

    def test_flash_machine_covered(self):
        found = lint(
            "m = FlashMachine.for_algorithm(params)", module="repro/serve/server"
        )
        assert rules(found) == {"AEM108"}

    def test_routing_through_api_is_fine(self):
        found = lint(
            "rec = api.evaluate('sort', n=512)", module="repro/serve/server"
        )
        assert found == []

    def test_outside_serve_unconstrained(self):
        found = lint(
            "machine = AEMMachine.for_algorithm(params)",
            module="repro/experiments/e01",
        )
        assert found == []

    def test_line_disable_works(self):
        found = lint(
            "machine = AEMMachine(params)  # lint: disable=AEM108",
            module="repro/serve/server",
        )
        assert found == []


# ----------------------------------------------------------------------
# AEM109: observers keep their hands off the ambient span machinery.
# ----------------------------------------------------------------------
class TestAEM109:
    def test_observer_reading_span_in_handler_fires(self):
        src = """
        class MyObserver(MachineObserver):
            def on_read(self, addr, items, cost):
                self.span = current_span()
        """
        found = lint(src)
        assert rules(found) == {"AEM109"}
        assert "current_span" in found[0].message

    def test_observer_reading_collector_in_handler_fires(self):
        src = """
        class MyObserver(MachineObserver):
            def on_batch(self, batch):
                current_collector().extend([])
        """
        assert rules(lint(src)) == {"AEM109"}

    def test_observer_mutating_span_stack_fires(self):
        src = """
        class MyObserver(MachineObserver):
            def on_phase_enter(self, name):
                with use_span(self.ctx):
                    pass
        """
        assert rules(lint(src)) == {"AEM109"}

    def test_observer_installing_collector_fires(self):
        src = """
        class MyObserver(MachineObserver):
            def on_detach(self, core):
                set_collector(None)
        """
        assert rules(lint(src)) == {"AEM109"}

    def test_read_in_init_is_sanctioned(self):
        src = """
        class MyObserver(MachineObserver):
            def __init__(self):
                self.span = current_span()
        """
        assert lint(src) == []

    def test_read_in_on_attach_is_sanctioned(self):
        src = """
        class MyObserver(MachineObserver):
            def on_attach(self, core):
                self.collector = current_collector()
        """
        assert lint(src) == []

    def test_mutators_banned_even_in_sanctioned_hooks(self):
        src = """
        class MyObserver(MachineObserver):
            def __init__(self):
                install_span_observer_factory(lambda: None)
        """
        assert rules(lint(src)) == {"AEM109"}

    def test_non_observer_class_unconstrained(self):
        src = """
        class Renderer:
            def on_read(self):
                return current_span()
        """
        assert lint(src) == []

    def test_module_level_code_unconstrained(self):
        assert lint("span = current_span()") == []

    def test_line_disable_works(self):
        src = """
        class MyObserver(MachineObserver):
            def on_write(self, addr, items, cost):
                self.span = current_span()  # lint: disable=AEM109
        """
        assert lint(src) == []


# ----------------------------------------------------------------------
# Escape hatches and the shipped tree.
# ----------------------------------------------------------------------
class TestDisables:
    def test_line_disable(self):
        assert lint("n = store._blocks[3]  # lint: disable=AEM101") == []

    def test_line_disable_multiple_rules(self):
        src = "rec = {'Qr': store._blocks, 'Qw': w}  # lint: disable=AEM101,AEM104"
        assert lint(src) == []

    def test_line_disable_wrong_rule_does_not_suppress(self):
        found = lint("n = store._blocks[3]  # lint: disable=AEM104")
        assert rules(found) == {"AEM101"}

    def test_file_disable(self):
        src = """
        # lint: disable-file=AEM104
        a = {'Qr': 1, 'Qw': 2}
        b = {'Qr': 3, 'Qw': 4}
        """
        assert lint(src) == []

    # Regression: the original regex only accepted a single bare rule id
    # glued to the ``=`` — comma lists and extra whitespace silently
    # failed to suppress.
    def test_line_disable_comma_list_with_spaces(self):
        src = "rec = {'Qr': store._blocks, 'Qw': w}  # lint: disable=AEM101, AEM104"
        assert lint(src) == []

    def test_line_disable_arbitrary_spacing(self):
        assert lint("n = store._blocks[3]  #lint:disable = AEM101") == []
        assert lint("n = store._blocks[3]  #  lint:  disable=  AEM101  ") == []

    def test_file_disable_comma_list_with_spaces(self):
        src = """
        # lint: disable-file = AEM101 , AEM104
        a = {'Qr': 1, 'Qw': 2}
        n = store._blocks[3]
        """
        assert lint(src) == []

    def test_parse_disables_directly(self):
        from repro.sanitize.lint import _parse_disables

        per_line, per_file = _parse_disables(
            "x = 1  # lint: disable=AEM101 ,AEM104,  AEM203\n"
            "# lint: disable-file=AEM108,AEM109\n"
        )
        assert per_line == {1: {"AEM101", "AEM104", "AEM203"}}
        assert per_file == {"AEM108", "AEM109"}

    def test_disable_anywhere_in_multiline_statement_span(self):
        """A violation reports the statement's first line, but the
        suppression comment may sit on any line the statement spans."""
        src = """
        rec = {
            'Qr': qr,
            'Qw': qw,  # lint: disable=AEM104
        }
        """
        assert lint(src) == []

    def test_multiline_span_wrong_rule_still_fires(self):
        src = """
        rec = {
            'Qr': qr,
            'Qw': qw,  # lint: disable=AEM101
        }
        """
        assert rules(lint(src)) == {"AEM104"}


def test_shipped_tree_is_clean():
    assert run_lint_checks() == []
