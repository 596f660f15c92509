"""Whole-program view of the repo: modules, symbols, functions, classes.

Where :mod:`repro.lint` sees one file at a time, the audit engine loads
*every* module under the analysis roots into a :class:`Project`:

- each file becomes a :class:`ModuleRecord` keyed by its dotted import
  path (derived from ``__init__.py`` markers, so ``src/repro/rng.py``
  is ``repro.rng``);
- each module's top-level functions, methods, and classes become
  :class:`FunctionNode`/:class:`ClassNode` symbols, plus one
  ``<module>`` pseudo-function per module holding its import-time
  statements;
- a project-wide resolver maps canonical dotted names (as produced by
  the lint engine's :class:`~repro.lint.core.ImportMap`, including the
  package-relative imports it now resolves) to those symbols, following
  re-export chains such as ``repro.parallel.TrialEngine`` ->
  ``repro.parallel.trials.TrialEngine``.

Everything downstream (call graph, effect inference, the RPL2xx rules)
works on this structure; nothing below this layer re-parses source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..lint.core import (
    Finding,
    ModuleInfo,
    Suppressions,
    iter_python_files,
    module_dotted_path,
    parse_module,
    parse_suppressions,
)
from ..lint.rules.state import module_mutables

__all__ = [
    "ClassNode",
    "FunctionNode",
    "MODULE_BODY",
    "ModuleRecord",
    "Project",
    "Target",
]

#: Qualname of the per-module pseudo-function holding import-time code.
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class FunctionNode:
    """One function, method, or module body in the project."""

    module: str
    qualname: str  # ``f``, ``Class.method``, or ``<module>``
    params: Tuple[str, ...]
    lineno: int
    end_lineno: int

    @property
    def fq(self) -> str:
        """Fully qualified name, the call-graph node id."""
        return f"{self.module}.{self.qualname}"


@dataclass(frozen=True)
class ClassNode:
    """One class: its methods and constructor surface."""

    module: str
    name: str
    methods: Tuple[str, ...]  # method qualnames (``Class.m``)
    init_params: Tuple[str, ...]  # explicit ``__init__`` params or dataclass fields
    lineno: int
    #: Canonical dotted names of the base-class expressions, as resolved
    #: by the module's import map (project-level resolution happens in
    #: :class:`~repro.audit.callgraph.ClassHierarchy`).
    bases: Tuple[str, ...] = ()

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleRecord:
    """One parsed module plus its symbol table inputs."""

    name: str
    info: ModuleInfo
    suppressions: Suppressions
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    mutables: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    #: qualname -> the ``def`` node of every entry in ``functions``
    #: except ``<module>``, so a body walk never re-searches the tree.
    defs: Dict[str, ast.AST] = field(default_factory=dict)

    def function_at_line(self, line: int) -> FunctionNode:
        """Innermost enclosing function of a source line (else ``<module>``).

        Nested defs are not separate nodes, so a line inside one is
        attributed to its enclosing top-level function or method — the
        unit the call graph reasons about.
        """
        best: Optional[FunctionNode] = None
        for fn in self.functions.values():
            if fn.qualname == MODULE_BODY:
                continue
            if fn.lineno <= line <= fn.end_lineno:
                if best is None or fn.lineno > best.lineno:
                    best = fn
        return best if best is not None else self.functions[MODULE_BODY]


#: Resolution result: ``("function", FunctionNode)``, ``("class",
#: ClassNode)``, or ``("module", ModuleRecord)``.
Target = Tuple[str, object]


def _param_names(fn: ast.AST) -> Tuple[str, ...]:
    args = fn.args
    names = [
        a.arg
        for a in (
            list(getattr(args, "posonlyargs", [])) + list(args.args) + list(args.kwonlyargs)
        )
    ]
    return tuple(names)


def _function_span(fn: ast.AST) -> Tuple[int, int]:
    end = getattr(fn, "end_lineno", None)
    if end is None:  # pragma: no cover - py3.8+ always sets end_lineno
        end = max(getattr(n, "lineno", fn.lineno) for n in ast.walk(fn))
    return fn.lineno, end


def _build_record(
    name: str, info: ModuleInfo, suppressions: Suppressions
) -> ModuleRecord:
    record = ModuleRecord(
        name=name,
        info=info,
        suppressions=suppressions,
        mutables=module_mutables(info),
    )
    tree = info.tree
    module_end = getattr(tree, "end_lineno", None) or max(
        [getattr(n, "lineno", 1) for n in ast.walk(tree)] or [1]
    )
    record.functions[MODULE_BODY] = FunctionNode(
        module=name, qualname=MODULE_BODY, params=(), lineno=1, end_lineno=module_end
    )

    def add_function(qualname: str, node: ast.AST) -> None:
        lineno, end = _function_span(node)
        record.functions[qualname] = FunctionNode(
            module=name,
            qualname=qualname,
            params=_param_names(node),
            lineno=lineno,
            end_lineno=end,
        )
        record.defs[qualname] = node

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            methods: List[str] = []
            fields: List[str] = []
            init_params: Tuple[str, ...] = ()
            bases: List[str] = []
            for base in stmt.bases:
                canonical = info.resolve(base)
                if canonical is not None:
                    bases.append(canonical)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    add_function(qualname, item)
                    methods.append(qualname)
                    if item.name == "__init__":
                        # drop ``self``
                        init_params = _param_names(item)[1:]
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    fields.append(item.target.id)
            if not init_params and fields:
                # dataclass-style: annotated fields are the constructor
                init_params = tuple(fields)
            record.classes[stmt.name] = ClassNode(
                module=name,
                name=stmt.name,
                methods=tuple(methods),
                init_params=init_params,
                lineno=stmt.lineno,
                bases=tuple(bases),
            )
    return record


class Project:
    """Every analyzable module under the audit roots, by dotted name."""

    def __init__(
        self,
        modules: Dict[str, ModuleRecord],
        parse_failures: Optional[List[Finding]] = None,
        skipped: Optional[List[str]] = None,
    ) -> None:
        self.modules = modules
        self.parse_failures = parse_failures or []
        #: Paths discovered but excluded (outside any package, or
        #: ``disable-file``-suppressed under ``suppressions="all"``).
        self.skipped = skipped or []

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Sequence[Union[str, Path]],
        suppressions: str = "all",
    ) -> "Project":
        """Parse every ``*.py`` under ``paths`` into a project.

        ``suppressions="all"`` (production) excludes ``disable-file``
        modules — the lint fixture convention; ``"line"`` keeps them
        (the audit's own fixture trees carry ``disable-file`` headers so
        the repo-wide *per-file* lint skips their deliberate bugs).
        Files outside any package (no ``__init__.py`` chain, e.g. the
        ``examples/`` scripts) have no importable dotted path, cannot
        appear in any worker's import graph, and are skipped.
        """
        if suppressions not in ("all", "line"):
            raise ValueError(f"unknown suppressions mode: {suppressions!r}")
        modules: Dict[str, ModuleRecord] = {}
        failures: List[Finding] = []
        skipped: List[str] = []
        for file_path in iter_python_files(paths):
            posix = file_path.as_posix()
            dotted, is_package = module_dotted_path(file_path)
            if dotted is None:
                skipped.append(posix)
                continue
            source = file_path.read_text(encoding="utf-8")
            info = parse_module(source, posix, module=dotted, is_package=is_package)
            if isinstance(info, Finding):
                failures.append(info)
                continue
            directives = parse_suppressions(source)
            if suppressions == "all" and directives.file_disabled:
                skipped.append(posix)
                continue
            if dotted not in modules:  # first spelling wins (paths are sorted)
                modules[dotted] = _build_record(dotted, info, directives)
        return cls(modules, failures, skipped)

    # ------------------------------------------------------------------
    def function_at(self, path: str, line: int) -> str:
        """Fully qualified function owning ``path:line`` (ledger key)."""
        for record in self.modules.values():
            if record.info.path == path:
                return record.function_at_line(line).fq
        return "<unknown>"

    def module_of(self, canonical: str) -> Optional[Tuple[str, List[str]]]:
        """Longest project-module prefix of a dotted name + remainder."""
        parts = canonical.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None

    def resolve_symbol(
        self, canonical: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Target]:
        """Resolve a canonical dotted name to a project symbol.

        Follows re-export chains (a package ``__init__`` importing a
        symbol from a submodule) with a cycle guard.  Names that leave
        the project (stdlib, third-party) resolve to ``None``.
        """
        seen = _seen if _seen is not None else set()
        if canonical in seen:
            return None
        seen.add(canonical)
        located = self.module_of(canonical)
        if located is None:
            return None
        module_name, rest = located
        record = self.modules[module_name]
        if not rest:
            return ("module", record)
        head = rest[0]
        if len(rest) == 1:
            if head in record.functions:
                return ("function", record.functions[head])
            if head in record.classes:
                return ("class", record.classes[head])
        elif len(rest) == 2:
            qualname = f"{head}.{rest[1]}"
            if qualname in record.functions:
                return ("function", record.functions[qualname])
        # Re-export: the name is an import alias inside ``module_name``.
        alias_target = record.info.imports.aliases.get(head)
        if alias_target is not None:
            tail = rest[1:]
            next_name = ".".join([alias_target] + tail)
            return self.resolve_symbol(next_name, seen)
        return None

    def resolve_local(
        self, record: ModuleRecord, canonical: str
    ) -> Optional[Target]:
        """Resolve a canonical name as seen *from inside* ``record``.

        Names the import map left untouched are module-local: a bare
        ``_band_trial`` resolves to the sibling function, ``Pool.make``
        to the sibling classmethod.  Falls back to project-wide
        resolution for imported names.
        """
        parts = canonical.split(".")
        head = parts[0]
        if len(parts) == 1 and head in record.functions:
            return ("function", record.functions[head])
        if head in record.classes:
            if len(parts) == 1:
                return ("class", record.classes[head])
            if len(parts) == 2:
                qualname = f"{head}.{parts[1]}"
                if qualname in record.functions:
                    return ("function", record.functions[qualname])
        return self.resolve_symbol(canonical)

    def imported_modules(self, record: ModuleRecord) -> List[str]:
        """Project modules whose import executes when ``record`` loads.

        Derived from the import map's alias targets: importing a symbol
        from module N (or N itself, under any alias) runs N's module
        body.  Importing a submodule also runs every ancestor package's
        ``__init__``, so those are included too.
        """
        reached: Set[str] = set()
        for target in record.info.imports.aliases.values():
            located = self.module_of(target)
            if located is None:
                continue
            module_name = located[0]
            parts = module_name.split(".")
            for cut in range(1, len(parts) + 1):
                ancestor = ".".join(parts[:cut])
                if ancestor in self.modules and ancestor != record.name:
                    reached.add(ancestor)
        return sorted(reached)
