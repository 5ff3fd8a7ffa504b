"""Dataflow-powered analysis rules: AEM201-AEM204.

These are the rules the single-pass lint (:mod:`repro.sanitize.lint`)
structurally cannot express — each needs either "on every path" (a CFG
property), "can this value reach that sink" (taint), or "who calls whom
with what known" (an interprocedural mode analysis):

AEM201 — phase balance
    Every raw ``enter_phase(name)`` reaches a matching ``exit_phase`` on
    *all* control-flow paths out of the function, including the
    exceptional ones through ``finally``. Code using ``with
    machine.phase(...)`` never trips this (the context manager is the
    audited implementation and is itself verified balanced). The
    ``enter_phase``/``exit_phase`` definitions and the observer event
    mirrors (``on_phase_enter``/``on_phase_exit``) are exempt by name:
    they are the two halves of the protocol, balanced across calls by
    construction.

AEM202 — counting safety of every registered sorter and permuter
    Counting machines carry tokens, not atoms, and every registered
    sorter and permuter runs on them, so none may read payloads
    (``.sort_token()`` on a stored item, ``.key``/``.value``/``.uid``
    field reads, ``dump_items``/``load_items``/``collect_output``)
    except on paths where ``machine.counting`` is known false. A
    branch-sensitive mode analysis (counting may be {true, false,
    either} per CFG edge) runs over each registry entry's call graph —
    following module functions, deferred imports, nested defs, ``self.``
    methods, and methods of locally constructed project classes — and
    collects payload operations reachable while counting may be true.
    Each entry with one is a finding at its registry's line.

AEM203 — batch escape analysis
    The vectorized event bus refills one :class:`EventBatch` in place,
    so any reference to the batch or its column lists that survives
    ``on_batch`` goes stale silently. This rule runs a taint fixpoint:
    the batch parameter and ``batch.<column>`` expressions seed the
    taint, plain assignments/tuple unpacking/container mutation
    propagate it, and the sinks are stores into ``self``, returns/yields,
    and closures that capture tainted names and themselves escape.
    Snapshot calls (``list(...)``, ``.copy()``) clear taint, as does
    indexing (the columns hold scalars); so does passing a column itself
    to ``extend``/``update``, which copy its scalar elements.

AEM204 — async safety in the serving layer
    ``repro.serve`` runs on one event loop; a blocking call inside an
    ``async def`` stalls every in-flight request. Flagged: ``time.sleep``,
    sync socket construction, ``subprocess``/``os.system``, synchronous
    HTTP helpers, and ``SweepEngine.map`` (the engine's blocking entry —
    serve code routes it through ``run_in_executor``). Call arguments of
    ``run_in_executor``/``asyncio.to_thread`` are exempt: shipping the
    blocking call to a worker thread is exactly the sanctioned fix.

Every finding honours the ``# lint: disable=AEMxxx`` escape hatches, and
:func:`analyze_project` is the one entry point the runner/CLI use.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .flow import (
    FALSE,
    TRUE,
    CFGNode,
    ForwardAnalysis,
    FunctionNode,
    build_cfg,
    fixpoint,
    iter_functions,
)
from .lint import _BATCH_COLUMNS, _is_observer_class, _parse_disables
from .semantic import (
    ModuleModel,
    ProjectModel,
    attr_chain,
    local_import_aliases,
)

#: Rule catalog (legacy lint + dataflow analysis) — SARIF metadata and docs.
RULES: Dict[str, str] = {
    "AEM101": "BlockStore internals touched outside repro.machine",
    "AEM102": "algorithm code bypasses the machine I/O API",
    "AEM103": "observer mutates machine state",
    "AEM104": "bare dict cost accounting outside the ledger",
    "AEM105": "observer handler outside the machine event vocabulary",
    "AEM106": "ledger capacity fields assigned outside repro.machine",
    "AEM108": "serving layer constructs a machine directly",
    "AEM109": "observer touches the ambient span machinery",
    "AEM201": "enter_phase without matching exit_phase on some path",
    "AEM202": "registered sorter/permuter reads payloads in counting mode",
    "AEM203": "batch/column reference escapes on_batch",
    "AEM204": "blocking call inside async serving code",
}

_DIGITS = re.compile(r"\d+")


@dataclass(frozen=True)
class Finding:
    """One analysis finding at a source location.

    ``fingerprint`` identifies the finding across line churn: it hashes
    the rule, the project-relative path, the enclosing symbol and the
    digit-stripped message — never line numbers — so a baseline survives
    unrelated edits to the same file.
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.rule}:{where} {self.message}"

    @property
    def fingerprint(self) -> str:
        key = "|".join(
            (self.rule, self.path, self.symbol, _DIGITS.sub("", self.message))
        )
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Shared AST plumbing.
# ----------------------------------------------------------------------
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` in source order, without descending into nested
    function/class scopes below ``root`` (the def node itself is still
    yielded — it is a statement of this scope)."""
    yield root
    for child in ast.iter_child_nodes(root):
        if isinstance(child, _SCOPE_NODES):
            yield child
        else:
            yield from scope_walk(child)


def _stmt_exprs(node: CFGNode) -> List[ast.AST]:
    """The AST a CFG node *executes itself* — for compound statements
    that is the header expression only (their bodies are separate
    nodes), for simple statements the whole statement."""
    stmt = node.stmt
    if stmt is None:
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):  # type: ignore[unreachable]
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Try):  # the synthetic ``finally`` marker
        return []
    if isinstance(stmt, _SCOPE_NODES):
        return []
    return [stmt]


def _call_tail(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _rel_path(path: str, root: Path) -> str:
    try:
        return os.path.relpath(path, root.parent)
    except ValueError:
        return path


# ----------------------------------------------------------------------
# AEM201 — phase balance.
# ----------------------------------------------------------------------
#: Functions allowed to call enter/exit unpaired: the protocol halves.
_PHASE_EXEMPT = {"enter_phase", "exit_phase", "on_phase_enter", "on_phase_exit"}

_PHASE_CALLS = {"enter_phase", "exit_phase"}

# Lattice: a tuple of (phase name or "?", enter line) frames, or None
# for "paths disagree" (the conflict top).
_PhaseFrames = Optional[Tuple[Tuple[str, int], ...]]


def _phase_ops(node: CFGNode) -> List[Tuple[str, str, int]]:
    """``("enter"|"exit", name-or-"?", line)`` per phase call the node makes."""
    ops: List[Tuple[str, str, int]] = []
    for root in _stmt_exprs(node):
        for sub in scope_walk(root):
            if not isinstance(sub, ast.Call):
                continue
            tail = _call_tail(sub.func)
            if tail not in _PHASE_CALLS:
                continue
            name = "?"
            if sub.args and isinstance(sub.args[0], ast.Constant):
                value = sub.args[0].value
                if isinstance(value, str):
                    name = value
            kind = "enter" if tail == "enter_phase" else "exit"
            ops.append((kind, name, sub.lineno))
    return ops


class _PhaseAnalysis(ForwardAnalysis[_PhaseFrames]):
    def __init__(self) -> None:
        self.problems: Set[Tuple[str, int, str]] = set()

    def initial_state(self) -> _PhaseFrames:
        return ()

    def transfer(self, node: CFGNode, state: _PhaseFrames) -> _PhaseFrames:
        if state is None:
            return None
        stack = state
        for kind, name, line in _phase_ops(node):
            if kind == "enter":
                stack = stack + ((name, line),)
            else:
                if not stack:
                    self.problems.add(("unmatched-exit", line, name))
                    continue
                top_name = stack[-1][0]
                if name != "?" and top_name != "?" and name != top_name:
                    self.problems.add(("mismatch", line, f"{name}|{top_name}"))
                stack = stack[:-1]
        return stack

    def join(self, a: _PhaseFrames, b: _PhaseFrames) -> _PhaseFrames:
        return a if a == b else None


def _check_phase_balance(
    model: ModuleModel, rel: str
) -> List[Finding]:
    out: List[Finding] = []
    for qual, func in iter_functions(model.tree):
        bare = qual.rsplit(".", 1)[-1]
        if bare in _PHASE_EXEMPT:
            continue
        has_raw = any(
            isinstance(n, ast.Call) and _call_tail(n.func) in _PHASE_CALLS
            for n in ast.walk(func)
        )
        if not has_raw:
            continue
        cfg = build_cfg(func)
        analysis = _PhaseAnalysis()
        in_states = fixpoint(cfg, analysis)
        conflict = False
        for idx, label in cfg.exit.preds:
            if idx not in in_states:
                continue
            node = cfg.nodes[idx]
            state = analysis.transfer(node, in_states[idx])
            if state is None:
                conflict = True
            elif state:
                for name, line in state:
                    analysis.problems.add(("unclosed", line, name))
        if conflict:
            analysis.problems.add(("conflict", func.lineno, qual))
        for kind, line, detail in sorted(analysis.problems):
            if kind == "unclosed":
                msg = (
                    f"enter_phase({detail!r}) is not matched by exit_phase "
                    "on every path out of the function; use 'with "
                    "machine.phase(...)' or close it in a finally block"
                )
            elif kind == "unmatched-exit":
                msg = (
                    f"exit_phase({detail!r}) reachable with no phase "
                    "open on some path"
                )
            elif kind == "mismatch":
                want, got = detail.split("|", 1)
                msg = (
                    f"exit_phase({want!r}) but the innermost enter on this "
                    f"path is {got!r}; phase enter/exit must nest"
                )
            else:  # conflict
                msg = (
                    "phase depth differs between merging control-flow "
                    "paths; enter/exit must balance identically on every "
                    "path"
                )
            out.append(Finding("AEM201", rel, line, qual, msg))
    return out


# ----------------------------------------------------------------------
# AEM202 — counting-safety inference.
# ----------------------------------------------------------------------
BOTH, FULL, COUNT = "both", "full", "count"

#: Atom field reads that require real payloads.
_PAYLOAD_ATTRS = {"key", "value", "uid"}

#: Calls that move or materialize real payloads.
_PAYLOAD_CALLS = {"dump_items", "load_items", "collect_output"}


def _counting_test(expr: ast.expr) -> Optional[bool]:
    """``True`` if the expression is truthy exactly when counting is on,
    ``False`` if negated, ``None`` when unrelated to counting."""
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        inner = _counting_test(expr.operand)
        return None if inner is None else not inner
    if isinstance(expr, ast.Name) and expr.id == "counting":
        return True
    if isinstance(expr, ast.Attribute) and expr.attr == "counting":
        return True
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
        # ``counting and X``: the true edge implies counting.
        if any(_counting_test(v) is True for v in expr.values):
            return True
    return None


def _intersect_mode(state: str, implied: str) -> Optional[str]:
    if state == BOTH:
        return implied
    if state == implied:
        return state
    return None  # statically impossible edge under this state


class _ModeAnalysis(ForwardAnalysis[str]):
    """Which values ``machine.counting`` may take at each node."""

    def initial_state(self) -> str:
        return BOTH

    def transfer(self, node: CFGNode, state: str) -> str:
        return state

    def transfer_edge(self, node: CFGNode, label: str, state: str) -> Optional[str]:
        stmt = node.stmt
        if label in (TRUE, FALSE) and isinstance(stmt, (ast.If, ast.While)):
            truthy = _counting_test(stmt.test)
            if truthy is not None:
                implied = COUNT if truthy == (label == TRUE) else FULL
                return _intersect_mode(state, implied)
        return state

    def join(self, a: str, b: str) -> str:
        return a if a == b else BOTH


@dataclass(frozen=True)
class PayloadSite:
    """One payload operation reachable while counting may be true."""

    path: str
    line: int
    what: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.what}"


_FuncKey = Tuple[str, int, str]
_Callee = Tuple[ModuleModel, FunctionNode, Optional[ast.ClassDef]]


def _class_method(cls: ast.ClassDef, name: str) -> Optional[FunctionNode]:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name == name:
                return item
    return None


class CountingInference:
    """Interprocedural payload-reachability over a project's call graphs."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self._memo: Dict[_FuncKey, Tuple[PayloadSite, ...]] = {}
        self._active: Set[_FuncKey] = set()

    def payload_sites(
        self,
        model: ModuleModel,
        func: FunctionNode,
        owner: Optional[ast.ClassDef] = None,
    ) -> Tuple[PayloadSite, ...]:
        """Payload ops reachable from ``func`` while counting may be on."""
        key: _FuncKey = (model.name, func.lineno, func.name)
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            return ()  # recursion: the cycle's ops surface on other paths
        self._active.add(key)
        try:
            sites = self._analyze(model, func, owner)
        finally:
            self._active.discard(key)
        self._memo[key] = sites
        return sites

    # -- one function --------------------------------------------------
    def _analyze(
        self,
        model: ModuleModel,
        func: FunctionNode,
        owner: Optional[ast.ClassDef],
    ) -> Tuple[PayloadSite, ...]:
        local_imports = local_import_aliases(func, model)
        nested: Dict[str, FunctionNode] = {}
        instances: Dict[str, Tuple[ModuleModel, ast.ClassDef]] = {}
        for sub in scope_walk(func):
            if sub is not func and isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                nested[sub.name] = sub
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name) and isinstance(sub.value, ast.Call):
                    qual = model.resolve(sub.value.func, local_imports)
                    if qual is not None:
                        hit = self.project.split_symbol(qual)
                        if hit is not None and hit[1] in hit[0].classes:
                            instances[target.id] = (hit[0], hit[0].classes[hit[1]])

        cfg = build_cfg(func)
        in_states = fixpoint(cfg, _ModeAnalysis())
        found: List[PayloadSite] = []
        seen: Set[PayloadSite] = set()

        def add(line: int, what: str) -> None:
            site = PayloadSite(model.path, line, what)
            if site not in seen:
                seen.add(site)
                found.append(site)

        for idx, mode in sorted(in_states.items()):
            if mode == FULL:
                continue
            node = cfg.nodes[idx]
            for root in _stmt_exprs(node):
                for sub in scope_walk(root):
                    if isinstance(sub, ast.Call):
                        f = sub.func
                        if isinstance(f, ast.Attribute) and f.attr == "sort_token":
                            add(sub.lineno, "atom payload read (.sort_token())")
                            continue
                        tail = _call_tail(f)
                        if tail in _PAYLOAD_CALLS:
                            add(sub.lineno, f"payload transfer ({tail})")
                            continue
                        callee = self._resolve_callee(
                            f, model, local_imports, nested, instances, owner
                        )
                        if callee is not None:
                            for site in self.payload_sites(*callee):
                                if site not in seen:
                                    seen.add(site)
                                    found.append(site)
                    elif (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.attr in _PAYLOAD_ATTRS
                    ):
                        chain = attr_chain(sub)
                        if chain is not None and chain[0] == "self":
                            continue  # an object's own fields, not an atom's
                        add(sub.lineno, f"atom field read (.{sub.attr})")
        return tuple(found)

    def _resolve_callee(
        self,
        f: ast.expr,
        model: ModuleModel,
        local_imports: Dict[str, str],
        nested: Dict[str, FunctionNode],
        instances: Dict[str, Tuple[ModuleModel, ast.ClassDef]],
        owner: Optional[ast.ClassDef],
    ) -> Optional[_Callee]:
        if isinstance(f, ast.Name) and f.id in nested:
            return model, nested[f.id], owner
        if isinstance(f, ast.Attribute):
            chain = attr_chain(f)
            if chain is not None and len(chain) == 2:
                base, meth = chain
                if base == "self" and owner is not None:
                    method = _class_method(owner, meth)
                    if method is not None:
                        return model, method, owner
                if base in instances:
                    inst_model, cls = instances[base]
                    method = _class_method(cls, meth)
                    if method is not None:
                        return inst_model, method, cls
        qual = model.resolve(f, local_imports)
        if qual is None:
            return None
        hit = self.project.split_symbol(qual)
        if hit is None:
            return None
        sym_model, sym = hit
        if sym in sym_model.functions:
            return sym_model, sym_model.functions[sym], None
        if sym in sym_model.classes:
            cls = sym_model.classes[sym]
            init = _class_method(cls, "__init__")
            if init is not None:
                return sym_model, init, cls
        return None


#: The registries every entry of which runs on counting machines:
#: (kind, module under the package, registry variable).
_COUNTING_REGISTRIES = (
    ("sorter", "sorting.base", "SORTERS"),
    ("permuter", "permute.base", "PERMUTERS"),
)


def infer_payload_sites(
    project: ProjectModel,
) -> Dict[str, Tuple[PayloadSite, ...]]:
    """Registry entry name -> payload ops reachable in counting mode.

    Covers both the sorter and permuter registries; an empty tuple means
    the entry is inferred counting-safe.
    """
    inference = CountingInference(project)
    out: Dict[str, Tuple[PayloadSite, ...]] = {}
    for _kind, module, var in _COUNTING_REGISTRIES:
        registry = project.registry(f"{project.package}.{module}", var)
        if registry is None:
            continue
        for name, qual in registry.entries.items():
            hit = project.function(qual)
            if hit is None:
                continue
            out[name] = inference.payload_sites(hit[0], hit[1])
    return out


def infer_counting_safe(project: ProjectModel) -> Dict[str, bool]:
    """Registry entry name -> inferred counting-safety (no payload ops)."""
    return {name: not sites for name, sites in infer_payload_sites(project).items()}


def _check_counting_safety(project: ProjectModel, root: Path) -> List[Finding]:
    sites_by_name = infer_payload_sites(project)
    out: List[Finding] = []
    for kind, module, var in _COUNTING_REGISTRIES:
        module_name = f"{project.package}.{module}"
        registry = project.registry(module_name, var)
        model = project.module(module_name)
        if registry is None or model is None:
            continue
        rel = _rel_path(model.path, root)
        for name in sorted(registry.entries):
            sites = sites_by_name.get(name, ())
            if not sites:
                continue
            witness = "; ".join(
                f"{_rel_path(s.path, root)}:{s.line}: {s.what}" for s in sites[:3]
            )
            out.append(
                Finding(
                    "AEM202",
                    rel,
                    registry.line,
                    name,
                    f"{kind} {name!r} must run on counting machines (every "
                    f"registered {kind} does) but payload operations are "
                    f"reachable while machine.counting may be true: {witness}",
                )
            )
    return out


# ----------------------------------------------------------------------
# AEM203 — batch escape analysis.
# ----------------------------------------------------------------------
#: Container methods that store their arguments into the receiver.
_CONTAINER_MUTATORS = {
    "append",
    "add",
    "extend",
    "insert",
    "appendleft",
    "setdefault",
    "update",
}

#: Mutators that store the *elements* of their argument: a column passed
#: directly hands over its scalars, not the reused list.
_ELEMENT_COPIERS = {"extend", "update"}


class _BatchTaint:
    """Flow-insensitive taint over one ``on_batch`` body."""

    def __init__(self, func: FunctionNode, batch: str) -> None:
        self.func = func
        self.batch = batch
        self.tainted: Set[str] = set()

    def expr_tainted(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id == self.batch or expr.id in self.tainted
        if isinstance(expr, ast.Attribute):
            return expr.attr in _BATCH_COLUMNS and self.expr_tainted(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self.expr_tainted(e) for e in expr.elts)
        if isinstance(expr, ast.Starred):
            return self.expr_tainted(expr.value)
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(expr.body) or self.expr_tainted(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            return any(self.expr_tainted(v) for v in expr.values)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_tainted(expr.value)
        if isinstance(expr, ast.Lambda):
            return bool(self._captured(expr))
        # Calls (list(...), .copy(), zip(...)) snapshot; subscripts pull
        # scalars out of the column lists — both clear taint.
        return False

    def _captured(self, node: ast.AST) -> Set[str]:
        """Tainted names (incl. the batch) referenced anywhere below."""
        live = self.tainted | {self.batch}
        return {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in live
        }

    def tainted_targets(
        self, target: ast.expr, value: ast.expr
    ) -> Iterator[ast.expr]:
        """The targets of ``target = value`` that receive a tainted value.

        Tuple targets pair element-wise with equally long tuple values
        (``self.a, self.b = batch.costs, 0`` taints only ``self.a``);
        otherwise every element of a tuple target receives the value.
        """
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
        ):
            for t, v in zip(target.elts, value.elts):
                yield from self.tainted_targets(t, v)
        elif self.expr_tainted(value):
            if isinstance(target, (ast.Tuple, ast.List)):
                for t in target.elts:
                    yield from self.tainted_targets(t, value)
            else:
                yield target

    def stored_by(self, method: str, arg: ast.expr) -> bool:
        """Does ``container.<method>(arg)`` store a batch reference?"""
        if (
            method in _ELEMENT_COPIERS
            and isinstance(arg, ast.Attribute)
            and arg.attr in _BATCH_COLUMNS
            and self.expr_tainted(arg.value)
        ):
            return False
        return self.expr_tainted(arg)

    def _bind(self, target: ast.expr, value: ast.expr) -> bool:
        """Propagate one assignment; True if the taint set grew."""
        grew = False
        for t in self.tainted_targets(target, value):
            if isinstance(t, ast.Name) and t.id not in self.tainted:
                self.tainted.add(t.id)
                grew = True
        return grew

    def solve(self) -> None:
        """Iterate assignment/mutation/closure propagation to fixpoint."""
        while True:
            grew = False
            for node in ast.walk(self.func):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        grew = self._bind(t, node.value) or grew
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    grew = self._bind(node.target, node.value) or grew
                elif isinstance(node, ast.AugAssign):
                    if isinstance(node.target, ast.Name) and self.expr_tainted(
                        node.value
                    ):
                        if node.target.id not in self.tainted:
                            self.tainted.add(node.target.id)
                            grew = True
                elif isinstance(node, ast.NamedExpr):
                    grew = self._bind(node.target, node.value) or grew
                elif isinstance(node, ast.Call):
                    # local.append(tainted) makes the container tainted.
                    f = node.func
                    if (
                        isinstance(f, ast.Attribute)
                        and f.attr in _CONTAINER_MUTATORS
                        and isinstance(f.value, ast.Name)
                        and any(self.stored_by(f.attr, a) for a in node.args)
                    ):
                        if f.value.id not in self.tainted:
                            self.tainted.add(f.value.id)
                            grew = True
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not self.func and self._captured(node):
                        if node.name not in self.tainted:
                            self.tainted.add(node.name)
                            grew = True
            if not grew:
                return


def _self_rooted(expr: ast.expr) -> bool:
    chain = attr_chain(expr)
    return chain is not None and chain[0] == "self"


def _check_batch_escape(
    model: ModuleModel, rel: str
) -> List[Finding]:
    out: List[Finding] = []
    for stmt in model.tree.body:
        if not (isinstance(stmt, ast.ClassDef) and _is_observer_class(stmt)):
            continue
        for item in stmt.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name != "on_batch":
                continue
            args = list(item.args.posonlyargs) + list(item.args.args)
            if len(args) < 2:
                continue
            taint = _BatchTaint(item, args[1].arg)
            taint.solve()
            qual = f"{stmt.name}.on_batch"

            def flag(
                node: ast.AST, how: str, *, _rel: str = rel, _qual: str = qual
            ) -> None:
                out.append(
                    Finding(
                        "AEM203",
                        _rel,
                        getattr(node, "lineno", 0),
                        _qual,
                        f"reference to the reused event batch (or a column "
                        f"array) escapes on_batch via {how}; the bus clears "
                        "these buffers in place after every flush — "
                        "snapshot with list(...) instead",
                    )
                )

            # scope_walk, not ast.walk: a `return` inside a nested def is
            # not a return of on_batch — the closure escape itself is what
            # gets flagged (via the captured-name taint).
            for node in scope_walk(item):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        for tgt in taint.tainted_targets(t, node.value):
                            if isinstance(tgt, ast.Attribute) and _self_rooted(tgt):
                                flag(node, f"assignment to self.{tgt.attr}")
                            elif isinstance(tgt, ast.Subscript) and _self_rooted(
                                tgt.value
                            ):
                                flag(node, "a store into a container on self")
                elif isinstance(node, ast.Call):
                    f = node.func
                    if (
                        isinstance(f, ast.Attribute)
                        and f.attr in _CONTAINER_MUTATORS
                        and isinstance(f.value, (ast.Attribute, ast.Name))
                        and _self_rooted(f.value)
                        and any(taint.stored_by(f.attr, a) for a in node.args)
                    ):
                        flag(node, f"{f.attr}() into a container on self")
                elif isinstance(node, ast.Return):
                    if node.value is not None and taint.expr_tainted(node.value):
                        flag(node, "the return value")
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    value = node.value
                    if value is not None and taint.expr_tainted(value):
                        flag(node, "a yielded value")
    return out


# ----------------------------------------------------------------------
# AEM204 — async safety in the serving layer.
# ----------------------------------------------------------------------
#: Fully qualified calls that block the event loop.
_BLOCKING_CALLS = {
    "time.sleep",
    "socket.socket",
    "socket.create_connection",
    "socket.getaddrinfo",
    "os.system",
    "os.popen",
    "urllib.request.urlopen",
}
_BLOCKING_PREFIXES = ("subprocess.", "requests.")

#: Handing work to a worker thread is the sanctioned escape.
_EXECUTOR_CALLS = {"run_in_executor", "to_thread"}


def _is_engine_map(func: ast.expr, engine_names: Set[str]) -> bool:
    if not (isinstance(func, ast.Attribute) and func.attr == "map"):
        return False
    chain = attr_chain(func.value)
    if chain is None:
        return False
    if chain[-1] in engine_names or chain[0] in engine_names:
        return True
    return any("engine" in part.lower() for part in chain)


def _check_async_safety(model: ModuleModel, rel: str) -> List[Finding]:
    if "serve" not in model.name.split("."):
        return []
    out: List[Finding] = []
    for qual, func in iter_functions(model.tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        local_imports = local_import_aliases(func, model)
        engine_names: Set[str] = set()
        for sub in scope_walk(func):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
            ):
                ctor = model.resolve(sub.value.func, local_imports)
                if ctor is not None and ctor.endswith("SweepEngine"):
                    engine_names.add(sub.targets[0].id)

        def visit(
            node: ast.AST,
            *,
            _qual: str = qual,
            _func: FunctionNode = func,
            _imports: Dict[str, str] = local_imports,
            _engines: Set[str] = engine_names,
        ) -> None:
            qual, func = _qual, _func
            local_imports, engine_names = _imports, _engines
            if isinstance(node, _SCOPE_NODES) and node is not func:
                return  # nested defs are their own (possibly sync) scope
            if isinstance(node, ast.Call):
                tail = _call_tail(node.func)
                if tail in _EXECUTOR_CALLS:
                    return  # its arguments run on a worker thread
                qualname = model.resolve(node.func, local_imports)
                if qualname is not None and (
                    qualname in _BLOCKING_CALLS
                    or qualname.startswith(_BLOCKING_PREFIXES)
                ):
                    out.append(
                        Finding(
                            "AEM204",
                            rel,
                            node.lineno,
                            qual,
                            f"blocking call {qualname}() inside 'async def "
                            f"{func.name}' stalls the event loop; await an "
                            "async equivalent or push it through "
                            "loop.run_in_executor",
                        )
                    )
                elif _is_engine_map(node.func, engine_names):
                    out.append(
                        Finding(
                            "AEM204",
                            rel,
                            node.lineno,
                            qual,
                            f"SweepEngine.map is a blocking engine entry "
                            f"point; inside 'async def {func.name}' wrap it "
                            "in loop.run_in_executor like repro.serve.server "
                            "does",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in func.body:
            visit(stmt)
    return out


# ----------------------------------------------------------------------
# Project entry point.
# ----------------------------------------------------------------------
def analyze_project(
    root: Union[str, Path],
    *,
    respect_disables: bool = True,
) -> List[Finding]:
    """Run AEM201-AEM204 over the package rooted at ``root``.

    ``root`` is the package directory itself (e.g. ``src/repro``);
    finding paths come back relative to its parent. ``# lint:
    disable=``/``disable-file=`` comments suppress findings exactly as
    they do for the legacy lint rules.
    """
    root_path = Path(root)
    project = ProjectModel(root_path)
    findings: List[Finding] = []
    for model in project.iter_modules():
        rel = _rel_path(model.path, root_path)
        findings.extend(_check_phase_balance(model, rel))
        findings.extend(_check_batch_escape(model, rel))
        findings.extend(_check_async_safety(model, rel))
    findings.extend(_check_counting_safety(project, root_path))

    if not respect_disables:
        return sorted(findings, key=lambda f: (f.path, f.line, f.rule))

    kept: List[Finding] = []
    disables: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]] = {}
    for f in findings:
        abs_path = root_path.parent / f.path
        if f.path not in disables:
            try:
                source = abs_path.read_text(encoding="utf-8")
            except OSError:
                source = ""
            disables[f.path] = _parse_disables(source)
        per_line, per_file = disables[f.path]
        if f.rule in per_file or f.rule in per_line.get(f.line, set()):
            continue
        kept.append(f)
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule))
