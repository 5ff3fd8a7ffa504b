"""Fixture sorter registry: every registered sorter must run on counting
machines. ``dirty_sort`` reads payloads, so the registry line draws an
AEM202 finding; ``clean_sort`` and ``guarded_sort`` must not be
flagged."""

from .clean_sort import clean_sort
from .dirty_sort import dirty_sort
from .guarded import guarded_sort

SORTERS = {  # aem-expect: AEM202
    "clean_sort": clean_sort,
    "dirty_sort": dirty_sort,
    "guarded_sort": guarded_sort,
}
