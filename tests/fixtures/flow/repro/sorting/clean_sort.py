"""A sorter that never touches atom payloads: counting-safe, so AEM202
must not flag it."""


def clean_sort(machine, addrs, params):
    out = []
    for addr in addrs:
        out.extend(machine.read(addr))
    out.sort()
    return out
