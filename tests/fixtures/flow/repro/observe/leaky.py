"""Injected AEM203 batch-escape violations that need the taint
fixpoint, not a single-assignment match: tuple unpacking, container
smuggling, aliasing, closure capture, and returns."""

from .base import MachineObserver


class LeakyObserver(MachineObserver):
    def __init__(self):
        self._kinds = None
        self.history = []
        self.last = None
        self.replay = None

    def on_batch(self, batch):
        kinds, addrs = batch.kinds, batch.addrs
        self._kinds = kinds  # aem-expect: AEM203
        buf = []
        buf.append(batch.costs)
        self.history.append(buf)  # aem-expect: AEM203
        alias = batch
        self.last = alias.whats  # aem-expect: AEM203
        del addrs

        def replay():
            return batch.lengths

        self.replay = replay  # aem-expect: AEM203


class ReturningObserver(MachineObserver):
    def on_batch(self, batch):
        return batch.occs  # aem-expect: AEM203


class SnapshotObserver(MachineObserver):
    """Clean: snapshots (calls) and scalars may escape freely."""

    def __init__(self):
        self.addrs = None
        self.total_cost = 0.0
        self.events = 0

    def on_batch(self, batch):
        self.addrs = list(batch.addrs)
        self.total_cost += float(batch.costs.sum())
        self.events += len(batch)
