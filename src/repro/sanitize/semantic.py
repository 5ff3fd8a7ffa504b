"""Module-level semantic model: imports, aliases, symbols, registries.

The per-file AST rules in :mod:`repro.sanitize.lint` historically matched
names textually — ``AEMMachine(...)`` fired, ``from repro.machine.aem
import AEMMachine as AM; AM(...)`` did not. This module supplies the
minimum name resolution a source lint needs to close that hole without
importing (executing!) the code under analysis:

* :class:`ModuleModel` — one parsed file: its dotted module name, an
  alias map from every import form (``import a.b``, ``import a.b as c``,
  ``from ..machine import aem as m``, function-local imports), and the
  top-level binding of simple ``NAME = <expr>`` aliases. ``resolve``
  turns an attribute chain like ``m.AEMMachine`` into the fully
  qualified ``repro.machine.aem.AEMMachine``.
* :class:`ProjectModel` — every module of a package directory, plus
  cross-module symbol lookup (used by the counting-safety inference to
  chase a sorter's call graph across files) and literal *registry
  extraction*: evaluating ``SORTERS = {"name": fn, ...}`` from the AST
  so the analysis can check every registered entry.

Resolution is static and deliberately modest: it follows imports and
single assignments of plain names, not arbitrary dataflow. That covers
the aliasing that actually occurs in import-heavy Python — and every
miss is a miss towards fewer findings, never a false positive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .flow import FunctionNode


def attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: List[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return parts


def resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve ``from <level dots><target> import ...`` seen in ``module``.

    ``module`` is the importing module's dotted name (e.g.
    ``repro.sorting.base``); level 1 is its package, each further level
    one package up — the runtime's rule, applied to names.
    """
    if level == 0:
        return target or ""
    parts = module.split(".")
    # Level 1 = the containing package: drop the module's own last part.
    base = parts[: len(parts) - level] if len(parts) >= level else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _collect_imports(
    body: Sequence[ast.stmt], module_name: str, aliases: Dict[str, str]
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = resolve_relative(module_name, stmt.level, stmt.module)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name


class ModuleModel:
    """Symbols and aliases of one parsed module."""

    def __init__(self, name: str, tree: ast.Module, path: str = "") -> None:
        self.name = name
        self.tree = tree
        self.path = path
        #: local name -> fully qualified target (module or symbol).
        self.aliases: Dict[str, str] = {}
        #: top-level function and class defs by name.
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        #: top-level ``NAME = <expr>`` assignments (last one wins).
        self.assignments: Dict[str, ast.expr] = {}
        _collect_imports(tree.body, name, self.aliases)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        self.assignments[t.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    self.assignments[stmt.target.id] = stmt.value

    @classmethod
    def from_source(
        cls, source: str, *, name: str, path: str = ""
    ) -> "ModuleModel":
        return cls(name, ast.parse(source, filename=path or name), path)

    # -- resolution ----------------------------------------------------
    def resolve_parts(
        self, parts: Sequence[str], local_aliases: Optional[Dict[str, str]] = None
    ) -> Optional[str]:
        """Fully qualified name of an attribute chain, following the
        module's import aliases (and, optionally, function-local ones).
        Returns ``None`` when the root is not an imported/aliased name."""
        if not parts:
            return None
        root = parts[0]
        target: Optional[str] = None
        if local_aliases and root in local_aliases:
            target = local_aliases[root]
        elif root in self.aliases:
            target = self.aliases[root]
        elif root in self.functions or root in self.classes:
            target = f"{self.name}.{root}"
        if target is None:
            return None
        return ".".join([target, *parts[1:]])

    def resolve(
        self, node: ast.expr, local_aliases: Optional[Dict[str, str]] = None
    ) -> Optional[str]:
        parts = attr_chain(node)
        if parts is None:
            return None
        return self.resolve_parts(parts, local_aliases)


def local_import_aliases(func: FunctionNode, module: ModuleModel) -> Dict[str, str]:
    """Alias map contributed by imports *inside* a function body
    (the deferred-import idiom used to break package cycles)."""
    aliases: Dict[str, str] = {}
    for stmt in ast.walk(func):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            _collect_imports([stmt], module.name, aliases)
    return aliases


def local_rebinds(
    func: FunctionNode,
    module: ModuleModel,
    *,
    resolves_to: Optional[str] = None,
) -> Dict[str, str]:
    """Names bound inside ``func`` by a simple ``NAME = <chain>``
    assignment, resolved through the module's aliases.

    With ``resolves_to`` set, only bindings whose resolution starts with
    that prefix are kept (e.g. machine classes for AEM108). Single-pass:
    re-rebinding a name later in the function wins — the lint trades
    flow-sensitivity for simplicity here, accepting rare false negatives.
    """
    out: Dict[str, str] = {}
    locals_imports = local_import_aliases(func, module)
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            resolved = module.resolve(stmt.value, {**locals_imports, **out})
            if resolved is None:
                continue
            if resolves_to is None or resolved.startswith(resolves_to):
                out[target.id] = resolved
    return out


@dataclass
class Registry:
    """A string-keyed registry dict evaluated from the AST."""

    name: str
    line: int
    entries: Dict[str, str]  # key -> fully qualified callable


class ProjectModel:
    """Every module under one package directory, resolvable by name.

    ``root`` is the directory that *is* the package (its basename is the
    package name) — e.g. ``src/repro`` for the shipped tree, or a fixture
    tree's ``repro`` directory in tests.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.package = self.root.name
        self.modules: Dict[str, ModuleModel] = {}
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root).with_suffix("")
            parts = [self.package, *rel.parts]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            name = ".".join(parts)
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            except SyntaxError:
                continue
            self.modules[name] = ModuleModel(name, tree, path=str(path))

    def __contains__(self, name: str) -> bool:
        return name in self.modules

    def module(self, name: str) -> Optional[ModuleModel]:
        return self.modules.get(name)

    def iter_modules(self) -> Iterator[ModuleModel]:
        yield from self.modules.values()

    def split_symbol(self, qualname: str) -> Optional[Tuple[ModuleModel, str]]:
        """``repro.sorting.mergesort.aem_mergesort`` ->
        ``(module model, "aem_mergesort")``. Follows one level of
        re-export: a symbol imported into the named module resolves to
        its defining module."""
        parts = qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            model = self.modules.get(mod_name)
            if model is None:
                continue
            tail = parts[cut:]
            if len(tail) != 1:
                return None  # attribute on a symbol (method); not a module symbol
            sym = tail[0]
            if sym in model.functions or sym in model.classes:
                return model, sym
            # Re-export: the name is itself an import alias here.
            if sym in model.aliases:
                return self.split_symbol(model.aliases[sym])
            return model, sym
        return None

    def function(self, qualname: str) -> Optional[Tuple[ModuleModel, FunctionNode]]:
        hit = self.split_symbol(qualname)
        if hit is None:
            return None
        model, sym = hit
        func = model.functions.get(sym)
        if func is None:
            return None
        return model, func

    # -- registry extraction -------------------------------------------
    def registry(self, module_name: str, var: str) -> Optional[Registry]:
        """Evaluate a ``VAR = {"key": callable, ...}`` dict literal."""
        model = self.modules.get(module_name)
        if model is None:
            return None
        expr = model.assignments.get(var)
        if not isinstance(expr, ast.Dict):
            return None
        entries: Dict[str, str] = {}
        for key, value in zip(expr.keys, expr.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            resolved = model.resolve(value) if value is not None else None
            if resolved is not None:
                entries[key.value] = resolved
        return Registry(name=var, line=expr.lineno, entries=entries)


#: Fully qualified machine constructors the serving layer must not call
#: (rule AEM108). Matched by suffix so fixture trees with the same shape
#: but a different top-level package name behave identically.
MACHINE_CLASS_SUFFIXES = (
    "machine.aem.AEMMachine",
    "machine.flash.FlashMachine",
    "machine.core.MachineCore",
    "machine.AEMMachine",
    "machine.FlashMachine",
    "machine.MachineCore",
)


def is_machine_class(qualname: str) -> bool:
    """Does this fully qualified name denote one of the machine classes?"""
    return qualname.endswith(MACHINE_CLASS_SUFFIXES)
