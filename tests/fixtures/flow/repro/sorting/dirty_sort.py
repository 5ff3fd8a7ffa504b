"""A sorter that reads atom payloads unconditionally, yet is registered
in the fixture ``SORTERS``, so AEM202 flags it: every registered sorter
must run on counting machines."""


def dirty_sort(machine, addrs, params):
    atoms = []
    for addr in addrs:
        for atom in machine.read(addr):
            atoms.append((atom.sort_token(), atom))
    atoms.sort()
    return [pair[1] for pair in atoms]
