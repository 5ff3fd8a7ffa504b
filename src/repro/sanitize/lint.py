"""Repo-specific source lint: the model's layering rules, mechanically.

The trace sanitizers check *runs*; this module checks *source*. Each rule
encodes a structural invariant of this repository that, when broken,
lets code cheat the model silently — an algorithm poking the block store
moves data without I/O cost, an observer mutating machine state makes
observation non-free, a hand-rolled cost dict bypasses the audited
ledger. Rules are AST-based (no third-party dependency) and every rule
has an ID, a docstring, and an escape hatch::

    some_code()  # lint: disable=AEM102
    # lint: disable-file=AEM104     (anywhere in the file, disables for it)

Run via ``repro-aem check --lint`` or :func:`lint_paths`.

The lint is the *syntactic* tier of the static-analysis stack: each file
is checked in isolation, against a :class:`~repro.sanitize.semantic
.ModuleModel` of its own imports so aliased references (``from
repro.machine.aem import AEMMachine as AM``, ``import repro.machine.aem
as aem``, local ``M = AEMMachine`` rebinds) resolve to the same rule
hits as direct names. Whole-program questions — phase balance on every
path, counting-safety of a sorter's call graph, batch refs escaping
through aliases — live in :mod:`repro.sanitize.analysis` (rules
AEM201-AEM204) on the CFG/dataflow engine in
:mod:`repro.sanitize.flow`.

Rules
-----
AEM101
    No module outside ``repro.machine`` touches ``BlockStore`` internals
    (``_blocks``, ``_next_addr``) on another object. (Unrelated private
    attributes on ``self`` are fine.)
AEM102
    Algorithm packages (sorting, permute, spmxv, structures, primitives,
    flashmodel) move data only through machine APIs: no
    ``*.disk.get/set/restore/load_items/dump_items`` access. Block sizes
    come from ``machine.block_len``; data moves via ``read``/``write``.
AEM103
    Observer classes (subclasses of ``MachineObserver``) never mutate
    machine state: no calls to mutating core/ledger/store methods and no
    attribute assignment on the observed core from inside a handler.
AEM104
    No bare dict cost accounting: a dict literal with both ``"Qr"`` and
    ``"Qw"`` keys outside the ledger module (``repro.machine.cost``) is a
    shadow cost record; use :class:`~repro.machine.cost.CostRecord`.
AEM105
    Observer classes define no ``on_*`` methods outside the machine-event
    vocabulary (the static mirror of the attach-time runtime check).
AEM106
    Nothing outside ``repro.machine`` assigns to a ledger's
    ``occupancy``/``peak``/``capacity`` — tampering with the capacity
    accounting from outside the machine layer.
AEM108
    The serving layer (``repro.serve``) never constructs machines
    directly — no ``AEMMachine``/``FlashMachine``/``MachineCore`` calls
    (including ``.for_algorithm``). Server handlers route every
    measurement through :mod:`repro.api`, so served answers share the
    engine's caching/dedup identity and stay bit-identical to direct
    ``api.evaluate`` calls; a machine built inside a handler bypasses
    all of that.
AEM109
    Observers keep their hands off the ambient span machinery: inside an
    observer class, the span stack and collector mutators (``use_span``,
    ``use_collector``, ``set_collector``,
    ``install_span_observer_factory``) are never called, and the ambient
    readers (``current_span``, ``current_collector``) appear only in the
    sanctioned hooks — ``__init__``, ``on_attach``, ``on_detach``. A
    dispatched handler grabbing ``current_span()`` retains whatever
    request context happens to be live at flush time, which is not
    necessarily the run it is observing (batched dispatch defers handler
    execution); take the span as a constructor argument like
    :class:`~repro.telemetry.spans.SpanPhaseRecorder` does.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from ..observe.base import EVENTS
from .semantic import ModuleModel, is_machine_class, local_rebinds

#: Packages holding *algorithms* — code that runs on a machine and must
#: move data exclusively through the machine API (rule AEM102).
ALGORITHM_PACKAGES = (
    "sorting",
    "permute",
    "spmxv",
    "structures",
    "primitives",
    "flashmodel",
)

#: BlockStore internals nothing outside repro.machine may touch (AEM101).
_STORE_INTERNALS = {"_blocks", "_next_addr"}

#: ``.disk.<attr>`` accesses forbidden in algorithm packages (AEM102).
_DISK_FORBIDDEN = {"get", "set", "restore", "load_items", "dump_items"}

#: Mutating methods an observer must not call on the observed machine
#: core / ledger / store (AEM103).
_MUTATORS = {
    "acquire",
    "release",
    "drain",
    "read_block",
    "write_block",
    "emit_read",
    "emit_write",
    "round_boundary",
    "set",
    "restore",
    "free",
    "allocate",
    "allocate_one",
    "load_items",
    "reset",
}

#: Names an observer handler may reach machine state through (AEM103).
_CORE_ROOTS = {"core", "machine"}

#: Event vocabulary for AEM105 (lifecycle hooks and the vectorized
#: batch hook included).
_ALLOWED_HANDLERS = set(EVENTS) | {"on_attach", "on_detach", "on_batch"}

#: Column arrays of :class:`repro.observe.batch.EventBatch` — the mutable
#: buffers the bus reuses across flushes (AEM203 in analysis.py).
_BATCH_COLUMNS = {"kinds", "addrs", "lengths", "costs", "occs", "whats"}

#: Machine classes the serving layer must never construct (AEM108);
#: cost queries route through repro.api instead.
_MACHINE_CLASSES = {"AEMMachine", "FlashMachine", "MachineCore"}

#: Span-stack/collector mutators no observer may call at all (AEM109).
_SPAN_MUTATORS = {
    "use_span",
    "use_collector",
    "set_collector",
    "install_span_observer_factory",
}

#: Ambient span readers observers may call only in sanctioned hooks
#: (AEM109): construction and attach/detach, never dispatched handlers.
_SPAN_READERS = {"current_span", "current_collector"}

_SANCTIONED_SPAN_HOOKS = {"__init__", "on_attach", "on_detach"}

_DISABLE_LINE = re.compile(r"#\s*lint:\s*disable\s*=\s*([A-Z0-9,\s]+)")
_DISABLE_FILE = re.compile(r"#\s*lint:\s*disable-file\s*=\s*([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class LintViolation:
    """One rule breach at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _parse_disables(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """``(line -> rules disabled on it, rules disabled file-wide)``."""
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _DISABLE_LINE.search(text)
        if m:
            per_line.setdefault(lineno, set()).update(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
        m = _DISABLE_FILE.search(text)
        if m:
            per_file.update(r.strip() for r in m.group(1).split(",") if r.strip())
    return per_line, per_file


def _attr_root(node: ast.expr) -> Optional[str]:
    """The leftmost name of an attribute chain (``a.b.c`` -> ``"a"``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_observer_class(node: ast.ClassDef) -> bool:
    """Textual check: does any base mention ``MachineObserver``/``Sanitizer``?

    Lint is per-file static analysis, so this is heuristic by design: it
    catches direct subclasses and the conventional naming; exotic indirect
    subclasses are covered by the runtime attach-time validation instead.
    """
    for base in node.bases:
        text = ast.unparse(base)
        tail = text.rsplit(".", 1)[-1]
        if tail in ("MachineObserver", "Sanitizer") or tail.endswith("Observer"):
            return True
    return False


class _Checker(ast.NodeVisitor):
    """One file's AST walk, collecting violations for every rule."""

    def __init__(
        self,
        path: Path,
        rel: str,
        module_parts: tuple[str, ...],
        model: Optional[ModuleModel] = None,
    ):
        self.rel = rel
        self.model = model
        self.in_machine_pkg = "machine" in module_parts
        self.in_algorithm_pkg = any(p in module_parts for p in ALGORITHM_PACKAGES)
        self.in_cost_module = module_parts[-2:] == ("machine", "cost")
        self.in_serve_pkg = "serve" in module_parts
        self.found: list[LintViolation] = []
        #: End line of each violation's statement, parallel to ``found`` —
        #: a ``# lint: disable=`` on any line of a multi-line statement
        #: suppresses it.
        self.spans: list[int] = []
        self._observer_depth = 0
        # Function-local names rebound to machine classes (AEM108), one
        # alias map per enclosing function, innermost last.
        self._machine_rebinds: list[dict[str, str]] = []
        # Name of the observer method being visited (AEM109); nested
        # defs inherit it — a closure runs in its handler's context.
        self._observer_method: Optional[str] = None

    def flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.found.append(LintViolation(rule, self.rel, line, message))
        self.spans.append(getattr(node, "end_lineno", None) or line)

    # -- AEM101 / AEM102 / AEM106 ------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.in_machine_pkg and node.attr in _STORE_INTERNALS:
            root = _attr_root(node)
            if root != "self":
                self.flag(
                    "AEM101",
                    node,
                    f"access to BlockStore internal {node.attr!r} outside "
                    "repro.machine; use the machine/store API",
                )
        if (
            self.in_algorithm_pkg
            and node.attr in _DISK_FORBIDDEN
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "disk"
        ):
            self.flag(
                "AEM102",
                node,
                f"algorithm code reaching into the block store "
                f"(.disk.{node.attr}); move data through machine "
                "read/write and size blocks via machine.block_len",
            )
        self.generic_visit(node)

    def _check_ledger_assign(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr in ("occupancy", "peak", "capacity")
            and not self.in_machine_pkg
        ):
            root = _attr_root(target)
            if root != "self":
                self.flag(
                    "AEM106",
                    target,
                    f"assignment to ledger field {target.attr!r} outside "
                    "repro.machine (capacity accounting is the ledger's)",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_ledger_assign(t)
            self._check_observer_assign(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_ledger_assign(node.target)
        self._check_observer_assign(node.target)
        self.generic_visit(node)

    # -- AEM103 / AEM105 ----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        observer = _is_observer_class(node)
        if observer:
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name.startswith("on_")
                    and item.name not in _ALLOWED_HANDLERS
                ):
                    self.flag(
                        "AEM105",
                        item,
                        f"handler {item.name!r} matches no machine event "
                        f"(known: {', '.join(EVENTS)})",
                    )
            self._observer_depth += 1
        self.generic_visit(node)
        if observer:
            self._observer_depth -= 1

    # -- AEM108 / AEM109 scope tracking --------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        prev_method = self._observer_method
        if self.in_serve_pkg and self.model is not None:
            rebinds = {
                name: qual
                for name, qual in local_rebinds(node, self.model).items()
                if is_machine_class(qual)
            }
            self._machine_rebinds.append(rebinds)
        if self._observer_depth > 0 and prev_method is None:
            self._observer_method = node.name
        self.generic_visit(node)
        if self.in_serve_pkg and self.model is not None:
            self._machine_rebinds.pop()
        self._observer_method = prev_method

    def _reaches_machine_state(self, node: ast.expr) -> bool:
        """Does this attribute chain start at the observed core/machine?

        Matches ``core.*`` / ``machine.*`` (handler parameters) and
        ``self.core.*`` / ``self.machine.*`` / ``self._core.*`` (stored at
        attach). ``self.<other>`` is the observer's own state — allowed.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
        parts.reverse()  # root first
        if not parts:
            return False
        if parts[0] in _CORE_ROOTS:
            return True
        return (
            parts[0] == "self"
            and len(parts) > 1
            and parts[1].lstrip("_") in _CORE_ROOTS
        )

    # -- AEM108 --------------------------------------------------------
    def _resolve_machine_ref(self, expr: ast.expr) -> Optional[str]:
        """Resolve an expression to a machine class through the module's
        import aliases and any function-local rebinds (``AM = AEMMachine``),
        returning the class name it denotes."""
        if self.model is None:
            return None
        locals_map: dict[str, str] = {}
        for rebinds in self._machine_rebinds:
            locals_map.update(rebinds)
        qual = self.model.resolve(expr, locals_map or None)
        if qual is not None and is_machine_class(qual):
            return qual.rsplit(".", 1)[-1]
        if isinstance(expr, ast.Name) and expr.id in locals_map:
            return locals_map[expr.id].rsplit(".", 1)[-1]
        return None

    def _machine_construction(self, func: ast.expr) -> Optional[str]:
        """The machine class this call constructs, if any.

        Matches bare names (``AEMMachine(...)``), qualified references
        (``aem.AEMMachine(...)``), the ``for_algorithm`` classmethod
        constructors (``AEMMachine.for_algorithm(...)``), and — through
        the module's semantic model — import aliases (``from
        repro.machine.aem import AEMMachine as AM``) and local rebinds
        (``M = AEMMachine; M(...)``).
        """
        if isinstance(func, ast.Name) and func.id in _MACHINE_CLASSES:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr in _MACHINE_CLASSES:
                return func.attr
            if func.attr == "for_algorithm":
                base = func.value
                tail = (
                    base.attr
                    if isinstance(base, ast.Attribute)
                    else base.id if isinstance(base, ast.Name) else None
                )
                if tail in _MACHINE_CLASSES:
                    return f"{tail}.for_algorithm"
                aliased_base = self._resolve_machine_ref(base)
                if aliased_base is not None:
                    return f"{aliased_base}.for_algorithm"
        aliased = self._resolve_machine_ref(func)
        if aliased is not None:
            return aliased
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self.in_serve_pkg:
            constructed = self._machine_construction(node.func)
            if constructed is not None:
                self.flag(
                    "AEM108",
                    node,
                    f"serving code constructs a machine directly "
                    f"({constructed}); route the query through repro.api "
                    "so it shares the engine's cache/dedup identity",
                )
        if (
            self._observer_depth > 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and self._reaches_machine_state(node.func.value)
        ):
            self.flag(
                "AEM103",
                node,
                f"observer mutates machine state ({node.func.attr}); "
                "observation must be free — observers only read",
            )
        self._check_span_discipline(node)
        self.generic_visit(node)

    # -- AEM109 --------------------------------------------------------
    def _check_span_discipline(self, node: ast.Call) -> None:
        if self._observer_depth == 0:
            return
        func = node.func
        tail = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if tail in _SPAN_MUTATORS:
            self.flag(
                "AEM109",
                node,
                f"observer mutates the ambient span machinery ({tail}); "
                "span propagation belongs to the serving/engine layers — "
                "observers receive their SpanContext at construction",
            )
        elif (
            tail in _SPAN_READERS
            and self._observer_method is not None
            and self._observer_method not in _SANCTIONED_SPAN_HOOKS
        ):
            self.flag(
                "AEM109",
                node,
                f"observer calls {tail}() inside a dispatched handler "
                f"({self._observer_method}); batched dispatch defers "
                "handlers, so the ambient context may belong to another "
                "run — take the span in __init__/on_attach instead",
            )

    def _check_observer_assign(self, target: ast.expr) -> None:
        if (
            self._observer_depth > 0
            and isinstance(target, ast.Attribute)
            and self._reaches_machine_state(target.value)
        ):
            self.flag(
                "AEM103",
                target,
                f"observer assigns to machine state (.{target.attr}); "
                "observation must be free — observers only read",
            )

    # -- AEM104 --------------------------------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        if not self.in_cost_module:
            keys = {
                k.value
                for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
            if {"Qr", "Qw"} <= keys:
                self.flag(
                    "AEM104",
                    node,
                    "bare dict cost accounting (both 'Qr' and 'Qw' keys); "
                    "build a repro.machine.cost.CostRecord instead",
                )
        self.generic_visit(node)


def lint_source(source: str, *, rel: str, module_parts: tuple[str, ...]) -> list[LintViolation]:
    """Lint one file's source text; returns surviving violations."""
    tree = ast.parse(source, filename=rel)
    model = ModuleModel(".".join(module_parts) or rel, tree, path=rel)
    checker = _Checker(Path(rel), rel, module_parts, model)
    checker.visit(tree)
    per_line, per_file = _parse_disables(source)
    out = []
    for v, end_line in zip(checker.found, checker.spans):
        if v.rule in per_file:
            continue
        # A disable comment anywhere on the flagged statement counts —
        # multi-line calls often carry the comment on their closing line.
        span = range(v.line, max(v.line, end_line) + 1)
        if any(v.rule in per_line.get(line, ()) for line in span):
            continue
        out.append(v)
    return out


def _module_parts(path: Path, root: Path) -> tuple[str, ...]:
    try:
        rel = path.relative_to(root)
    except ValueError:
        rel = path
    return tuple(rel.with_suffix("").parts)


def iter_python_files(root: Path) -> Iterator[Path]:
    yield from sorted(root.rglob("*.py"))


def lint_paths(paths: Sequence[Path | str]) -> list[LintViolation]:
    """Lint every ``.py`` file under the given files/directories."""
    violations: list[LintViolation] = []
    for entry in paths:
        entry = Path(entry)
        files: Iterable[Path] = (
            iter_python_files(entry) if entry.is_dir() else [entry]
        )
        root = entry if entry.is_dir() else entry.parent
        for f in files:
            source = f.read_text(encoding="utf-8")
            violations.extend(
                lint_source(
                    source,
                    rel=str(f),
                    module_parts=_module_parts(f, root),
                )
            )
    return violations
