"""Linter engine: file discovery, parsing, suppression handling.

The engine is deliberately free of rule knowledge: rules (see
:mod:`repro.lint.rules`) receive a parsed :class:`ModuleInfo` and
return :class:`Finding` lists; this module drives them over files,
applies ``# repro-lint:`` suppression comments, and aggregates
everything into a :class:`RunReport` with deterministically sorted
findings (so CI output and the JSON reporter are stable byte-for-byte
across runs and machines).

Suppression syntax (parsed from real comment tokens, so the same text
inside a string literal is inert):

- ``# repro-lint: disable=RPL104 <reason>`` — suppress the named
  rule(s) on this line; comma-separate several IDs; rule *names*
  (``set-order``) work too; ``disable=all`` suppresses every rule.
  The free-text reason after the rule list is required by convention
  (CONTRIBUTING-level policy, not enforced here).
- ``# repro-lint: disable-file <reason>`` within the first
  :data:`FILE_DIRECTIVE_WINDOW` lines — skip the whole file.  Used by
  the linter's own rule-trigger fixtures under ``tests/lint/fixtures``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "FILE_DIRECTIVE_WINDOW",
    "FileReport",
    "Finding",
    "ImportMap",
    "ModuleInfo",
    "PARSE_ERROR_ID",
    "RunReport",
    "Suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_dotted_path",
    "parse_module",
    "parse_suppressions",
]

#: Pseudo rule ID for files the parser rejects (not selectable/ignorable
#: by name; a file that does not parse can never be certified clean).
PARSE_ERROR_ID = "RPL900"

#: ``disable-file`` must appear within this many leading lines.
FILE_DIRECTIVE_WINDOW = 5

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)(?P<reason>\s.*)?$"
)
_DISABLE_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file(?P<reason>\s.*)?$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def module_dotted_path(path: Union[str, Path]) -> Tuple[Optional[str], bool]:
    """Dotted module path of a file, derived from ``__init__.py`` markers.

    Walks up from the file as long as each parent directory is a
    package (contains ``__init__.py``).  Returns ``(dotted, is_package)``
    where ``is_package`` is True for ``__init__.py`` files (whose dotted
    path is the package itself).  A file outside any package returns
    ``(None, False)`` — relative imports cannot be resolved for it.
    """
    file_path = Path(path)
    parts: List[str] = []
    is_package = file_path.name == "__init__.py"
    if not is_package:
        parts.append(file_path.stem)
    parent = file_path.parent
    found_package = False
    while (parent / "__init__.py").exists():
        found_package = True
        parts.append(parent.name)
        parent = parent.parent
    if not found_package:
        return None, False
    return ".".join(reversed(parts)), is_package


class ImportMap:
    """Maps local names to canonical dotted module paths.

    ``import numpy as np`` makes ``np.random.rand`` resolve to
    ``numpy.random.rand``; ``from random import choice`` makes a bare
    ``choice`` resolve to ``random.choice``.  Rules match on the
    canonical form so aliasing cannot dodge them.

    When the module's own dotted path is known (``module=`` plus
    ``is_package=``), package-relative imports resolve too: inside
    ``repro.experiments.figure6``, ``from .base import ExperimentResult``
    canonicalizes to ``repro.experiments.base.ExperimentResult`` and
    ``from . import table1 as t1`` binds ``t1`` to
    ``repro.experiments.table1`` — so intra-repo aliases participate in
    rule matching instead of silently dropping out.
    """

    def __init__(
        self,
        tree: ast.AST,
        module: Optional[str] = None,
        is_package: bool = False,
    ) -> None:
        self.module = module
        self.is_package = is_package
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; canonical is ``a``.
                        head = alias.name.split(".")[0]
                        self.aliases.setdefault(head, head)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._relative_base(node.level)
                    if base is None:
                        continue  # unknown module path: cannot resolve
                else:
                    if node.module is None:
                        continue
                    base = node.module
                prefix = f"{base}.{node.module}" if node.level and node.module else base
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{prefix}.{alias.name}"

    def _relative_base(self, level: int) -> Optional[str]:
        """Package that ``level`` leading dots refer to, or None.

        One dot is the module's own package (for a package's
        ``__init__.py``, the package itself); each extra dot climbs one
        package higher.  Returns None when the module path is unknown
        or the dots climb past the top-level package.
        """
        if not self.module:
            return None
        parts = self.module.split(".")
        if not self.is_package:
            parts = parts[:-1]  # the containing package
        climb = level - 1
        if climb >= len(parts):
            return None
        if climb:
            parts = parts[:-climb]
        if not parts:
            return None
        return ".".join(parts)

    @staticmethod
    def dotted_parts(expr: ast.AST) -> Optional[List[str]]:
        """``a.b.c`` attribute chain as ``["a","b","c"]`` (None if not one)."""
        parts: List[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Name):
            parts.append(expr.id)
            return list(reversed(parts))
        return None

    def resolve(self, expr: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, or None."""
        parts = self.dotted_parts(expr)
        if not parts:
            return None
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])


@dataclass
class ModuleInfo:
    """Everything a rule needs to inspect one parsed module.

    ``module`` is the dotted import path when known (``None`` for
    sources linted outside any package); with it set, the import map
    resolves package-relative imports to canonical intra-repo names.
    """

    path: str
    source: str
    tree: ast.Module
    imports: ImportMap
    module: Optional[str] = None
    #: rule ID -> that rule's raw findings here (see :meth:`check`).
    checked: Dict[str, List[Finding]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def resolve(self, expr: ast.AST) -> Optional[str]:
        return self.imports.resolve(expr)

    def check(self, rule) -> List[Finding]:
        """``rule.check(self)``, computed once per rule and module.

        The lint tier and the audit's effect inference both ask for the
        RPL101-104 findings of every ``src`` module; the second ask is
        served from here.
        """
        if rule.rule_id not in self.checked:
            self.checked[rule.rule_id] = rule.check(self)
        return list(self.checked[rule.rule_id])


@dataclass
class Suppressions:
    """Per-line and whole-file suppression directives of one module."""

    lines: Dict[int, Set[str]] = field(default_factory=dict)
    file_disabled: bool = False

    def covers(self, finding: Finding) -> bool:
        tokens = self.lines.get(finding.line)
        if not tokens:
            return False
        return (
            "all" in tokens
            or finding.rule_id.lower() in tokens
            or finding.rule_name.lower() in tokens
        )


def parse_suppressions(source: str) -> Suppressions:
    """Extract directives from comment tokens (never from strings)."""
    result = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            match = _DISABLE_FILE_RE.search(tok.string)
            if match and line <= FILE_DIRECTIVE_WINDOW:
                result.file_disabled = True
                continue
            match = _DISABLE_RE.search(tok.string)
            if match:
                names = {
                    part.strip().lower()
                    for part in match.group("rules").split(",")
                    if part.strip()
                }
                result.lines.setdefault(line, set()).update(names)
    except tokenize.TokenError:
        pass  # the ast parse already reports the syntax problem
    return result


@dataclass
class FileReport:
    """Lint outcome for a single file."""

    path: str
    findings: List[Finding]
    suppressed: List[Finding]
    file_suppressed: bool = False


@dataclass
class RunReport:
    """Aggregated outcome of one lint run over many files."""

    files: List[FileReport]

    @property
    def findings(self) -> List[Finding]:
        return sorted(f for report in self.files for f in report.findings)

    @property
    def suppressed(self) -> List[Finding]:
        return sorted(f for report in self.files for f in report.suppressed)

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.findings


def parse_module(
    source: str,
    path: str,
    module: Optional[str] = None,
    is_package: bool = False,
) -> Union[ModuleInfo, Finding]:
    """Parse one module, or the :data:`PARSE_ERROR_ID` finding if it fails.

    The one parse path shared by the lint tier and the whole-program
    project loader.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR_ID,
            rule_name="parse-error",
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleInfo(
        path=path,
        source=source,
        tree=tree,
        imports=ImportMap(tree, module=module, is_package=is_package),
        module=module,
    )


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    suppressions: str = "all",
    module: Optional[str] = None,
    is_package: bool = False,
) -> FileReport:
    """Lint one source string.

    ``suppressions`` controls directive handling: ``"all"`` honours
    line comments and ``disable-file`` (production behaviour),
    ``"line"`` honours only line comments (the fixture self-tests use
    this to look inside intentionally-bad files that carry a
    ``disable-file`` header), ``"none"`` reports everything.

    ``module``/``is_package`` name the source's dotted import path when
    known, enabling relative-import resolution (``lint_file`` derives
    them from ``__init__.py`` markers automatically).
    """
    if suppressions not in ("all", "line", "none"):
        raise ValueError(f"unknown suppressions mode: {suppressions!r}")
    parsed = parse_module(source, path, module=module, is_package=is_package)
    if isinstance(parsed, Finding):
        return FileReport(path=path, findings=[parsed], suppressed=[])
    return _check_module(
        parsed, parse_suppressions(source), select, ignore, suppressions
    )


def _check_module(
    module: ModuleInfo,
    directives: Suppressions,
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
    suppressions: str,
) -> FileReport:
    """Run the selected rules over one parsed module."""
    from .rules import RULES, select_rules

    path = module.path
    if suppressions == "all" and directives.file_disabled:
        return FileReport(path=path, findings=[], suppressed=[], file_suppressed=True)
    raw: List[Finding] = []
    for rule in select_rules(RULES, select, ignore):
        raw.extend(module.check(rule))
    raw.sort()

    if suppressions == "none":
        return FileReport(path=path, findings=raw, suppressed=[])
    kept = [f for f in raw if not directives.covers(f)]
    dropped = [f for f in raw if directives.covers(f)]
    return FileReport(path=path, findings=kept, suppressed=dropped)


def lint_file(
    path: Union[str, Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    suppressions: str = "all",
) -> FileReport:
    """Lint one file from disk (path reported in posix form)."""
    file_path = Path(path)
    source = file_path.read_text(encoding="utf-8")
    dotted, is_package = module_dotted_path(file_path)
    return lint_source(
        source,
        path=file_path.as_posix(),
        select=select,
        ignore=ignore,
        suppressions=suppressions,
        module=dotted,
        is_package=is_package,
    )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Shared by the lint tier and the whole-program project loader.
    Guarantees:

    - deterministic posix-path ordering regardless of input order or
      filesystem enumeration order;
    - duplicate paths (a file named twice, or via its parent directory)
      appear once;
    - symlink loops cannot recurse forever (``**`` globbing does not
      follow directory symlinks);
    - a nonexistent path raises :class:`FileNotFoundError` instead of
      silently linting nothing.
    """
    seen: Set[str] = set()
    collected: List[Tuple[str, Path]] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"), key=lambda p: p.as_posix())
        elif not root.exists():
            raise FileNotFoundError(f"no such lint target: {root}")
        else:
            candidates = [root]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            key = candidate.as_posix()
            if key in seen:
                continue
            seen.add(key)
            collected.append((key, candidate))
    collected.sort(key=lambda pair: pair[0])
    return [path for _, path in collected]


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    suppressions: str = "all",
    parsed: Optional[Mapping[str, Tuple[ModuleInfo, Suppressions]]] = None,
) -> RunReport:
    """Lint every ``*.py`` under ``paths``; the main library entry point.

    ``parsed`` maps posix paths to modules some other pass already
    parsed (``repro-check`` hands over its whole-program project); those
    files are checked from the shared tree instead of being read,
    parsed, and tokenized again.  The report is the same either way.
    """
    if suppressions not in ("all", "line", "none"):
        raise ValueError(f"unknown suppressions mode: {suppressions!r}")
    select = list(select) if select is not None else None
    ignore = list(ignore) if ignore is not None else None
    parsed = parsed or {}
    reports = []
    for path in iter_python_files(paths):
        known = parsed.get(path.as_posix())
        reports.append(
            lint_file(path, select=select, ignore=ignore, suppressions=suppressions)
            if known is None
            else _check_module(*known, select, ignore, suppressions)
        )
    return RunReport(files=reports)
