"""Property-based tests across all sorters (hypothesis).

The contract every sorter must satisfy on *any* input:

* output sorted in the strict (key, uid) order,
* output atoms exactly the input atoms (indivisibility),
* machine memory fully released at the end,
* cost no better than the scan lower bound (you must at least look at
  and write the data) and within a generous constant of the shape.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms.atom import make_atoms
from repro.core.bounds import sort_upper_shape
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.sorting.base import SORTERS, verify_sorted_output

AEM_SORTER_NAMES = [
    "aem_mergesort",
    "aem_samplesort",
    "aem_heapsort",
    "aem_pqsort",
    "em_mergesort",
]

params_strategy = st.sampled_from(
    [
        AEMParams(M=16, B=4, omega=1),
        AEMParams(M=16, B=4, omega=4),
        AEMParams(M=32, B=8, omega=2),
        AEMParams(M=32, B=4, omega=16),
    ]
)

keys_strategy = st.lists(st.integers(-1000, 1000), max_size=300)


@pytest.mark.parametrize("name", AEM_SORTER_NAMES)
@settings(max_examples=25, deadline=None)
@given(keys=keys_strategy, p=params_strategy)
def test_sorter_contract(name, keys, p):
    atoms = make_atoms(keys)
    machine = AEMMachine.for_algorithm(p)
    addrs = machine.load_input(atoms)
    out = SORTERS[name](machine, addrs, p)
    verify_sorted_output(machine, atoms, out)
    assert machine.mem.occupancy == 0


@settings(max_examples=20, deadline=None)
@given(keys=st.lists(st.integers(-100, 100), min_size=50, max_size=300), p=params_strategy)
def test_mergesort_cost_bracket(keys, p):
    atoms = make_atoms(keys)
    machine = AEMMachine.for_algorithm(p)
    addrs = machine.load_input(atoms)
    SORTERS["aem_mergesort"](machine, addrs, p)
    N = len(keys)
    # Must at least read every block once and write the output once.
    assert machine.reads >= p.n(N)
    assert machine.writes >= p.n(N)
    # And stay within a generous constant of the upper-bound shape.
    assert machine.cost <= 12 * sort_upper_shape(N, p)


@settings(max_examples=15, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10**6), min_size=10, max_size=200),
    p=params_strategy,
    seed=st.integers(0, 2**31 - 1),
)
def test_all_sorters_agree(keys, p, seed):
    """Every sorter produces the identical atom sequence."""
    outputs = []
    for name in AEM_SORTER_NAMES:
        atoms = make_atoms(keys)
        machine = AEMMachine.for_algorithm(p)
        addrs = machine.load_input(atoms)
        out = SORTERS[name](machine, addrs, p)
        outputs.append([a.uid for a in machine.collect_output(out)])
    assert all(o == outputs[0] for o in outputs[1:])


@settings(max_examples=15, deadline=None)
@given(keys=st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_stability_equivalent_order(keys):
    """With the (key, uid) order, equal keys appear in input (uid) order —
    i.e. every sorter here is effectively stable."""
    p = AEMParams(M=16, B=4, omega=4)
    atoms = make_atoms(keys)
    machine = AEMMachine.for_algorithm(p)
    addrs = machine.load_input(atoms)
    out = SORTERS["aem_mergesort"](machine, addrs, p)
    result = machine.collect_output(out)
    for a, b in zip(result, result[1:]):
        if a.key == b.key:
            assert a.uid < b.uid
