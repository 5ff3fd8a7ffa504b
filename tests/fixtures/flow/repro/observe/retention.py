"""Direct retention of the reused event batch: the single-assignment
cases, caught by AEM203's taint analysis, next to the copies and
scalar reads that must stay clean."""

from .base import MachineObserver


class StoresTheBatch(MachineObserver):
    def on_batch(self, batch):
        self.last = batch  # aem-expect: AEM203


class StoresAColumn(MachineObserver):
    def on_batch(self, batch):
        self.addrs = batch.addrs  # aem-expect: AEM203


class AppendsAColumn(MachineObserver):
    def on_batch(self, batch):
        self.history.append(batch.kinds)  # aem-expect: AEM203


class TupleAssignment(MachineObserver):
    """Only ``self.a`` receives the column; ``self.b`` gets a scalar."""

    def on_batch(self, batch):
        self.a, self.b = batch.costs, 0  # aem-expect: AEM203


class OtherParameterName(MachineObserver):
    def on_batch(self, events):
        self.stash = events.lengths  # aem-expect: AEM203


class StoresTheAcquireLabels(MachineObserver):
    """The ``whats`` side list is reused like the columns."""

    def on_batch(self, batch):
        self.labels = batch.whats  # aem-expect: AEM203


class CopiesTheAcquireLabels(MachineObserver):
    def on_batch(self, batch):
        self.labels = list(batch.whats)


class CopiesColumns(MachineObserver):
    def on_batch(self, batch):
        self.addrs = list(batch.addrs)
        self.kinds = tuple(batch.kinds)


class ReadsTheEventCount(MachineObserver):
    def on_batch(self, batch):
        self.seen = self.seen + batch.n


class ExtendsWithColumnElements(MachineObserver):
    """``extend`` copies a column's ints; wrapping the column in a list
    stores the list itself."""

    def on_batch(self, batch):
        self.history.extend(batch.addrs)
        self.lengths.update(batch.lengths)
        self.nested.extend([batch.addrs])  # aem-expect: AEM203


class LocalAlias(MachineObserver):
    def on_batch(self, batch):
        addrs = batch.addrs
        for a in addrs:
            self.count = self.count + 1


class PerEventHandler(MachineObserver):
    """Per-event handlers get no batch: storing their arguments is the
    normal pattern for payload observers."""

    def on_read(self, addr, items, cost):
        self.items = items


class SuppressedRetention(MachineObserver):
    def on_batch(self, batch):
        self.last = batch  # lint: disable=AEM203
