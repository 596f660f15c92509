"""Per-function abstract interpretation over ndarray expressions.

One :class:`_Inferencer` walk per function produces a
:class:`FunctionFacts`: the final name -> :class:`ArrayFact`
environment plus the event streams the RPL3xx rules consume —

- :class:`EncodeEvent` — a ``A * K + B`` integer encode and its
  promoted dtype (RPL301 raw material);
- :class:`DowncastEvent` — an *implicit* narrowing at a subscript
  assignment or ``out=`` boundary (RPL302; explicit ``.astype`` is by
  definition intentional and never recorded);
- :class:`ScatterEvent` — a ``np.<ufunc>.at(target, idx, value)``
  scatter with both operand dtypes (RPL303);
- :class:`LoopEvent` / :class:`AllocEvent` / :class:`BuildEvent` — the
  loop census pass 2 filters down to hot functions (RPL311-313).

The walk is flow-insensitive in the usual cheap way: statements are
interpreted in source order, both branches of an ``if`` update the same
environment, loop bodies are interpreted once.  Facts are best-effort;
every rule treats "no fact" as "stay silent", so imprecision costs
recall, never false positives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..audit.callgraph import ClassHierarchy
from ..audit.project import MODULE_BODY, FunctionNode, ModuleRecord, Project
from .facts import ArrayFact, BOOL, DType, FLOAT64, INT64, parse_dtype, promote

__all__ = [
    "AllocEvent",
    "BuildEvent",
    "DowncastEvent",
    "EncodeEvent",
    "FunctionFacts",
    "LoopEvent",
    "ScatterEvent",
    "class_attribute_facts",
    "infer_function",
    "module_uses_numpy",
]

#: ``np.<ufunc>.at`` scatter targets RPL303 inspects.
_SCATTER_RE = re.compile(
    r"^numpy\.(maximum|minimum|fmax|fmin|add|subtract|multiply|"
    r"bitwise_or|bitwise_and|logical_or|logical_and)\.at$"
)

#: Callee names that look like whole-structure (re)builds — CSR arrays,
#: neighbour matrices — which belong in ``__init__``, not in hot code.
_BUILD_NAME_RE = re.compile(
    r"(^_?(re)?build_)|(_matrix$)|(^_?csr_)|(_csr$)|(_rebuild$)"
)

_UNWRAP_CALLS = frozenset(
    {"sorted", "list", "tuple", "set", "frozenset", "reversed", "enumerate"}
)

_ITEMS_METHODS = frozenset({"items", "keys", "values"})

#: ndarray methods that preserve the receiver's dtype.
_PRESERVING_METHODS = frozenset(
    {
        "copy",
        "reshape",
        "ravel",
        "flatten",
        "transpose",
        "clip",
        "round",
        "take",
        "compress",
        "squeeze",
        "repeat",
        "tolist",  # keeps the *scale* fact for the loop census
    }
)

#: ndarray reductions that widen small ints to the platform default.
_WIDENING_METHODS = frozenset({"sum", "prod", "cumsum", "cumprod"})

_RNG_INT_METHODS = frozenset({"integers", "permutation"})
_RNG_FLOAT_METHODS = frozenset(
    {"random", "normal", "uniform", "standard_normal", "pareto", "exponential"}
)

#: numpy callables that construct fresh arrays (RPL312's alloc set).
_NP_CONSTRUCTORS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "array",
        "asarray",
        "ascontiguousarray",
        "arange",
        "linspace",
        "concatenate",
        "vstack",
        "hstack",
        "stack",
        "column_stack",
        "tile",
        "repeat",
        "copy",
    }
)

#: numpy callables whose result dtype follows their first array argument.
_NP_PROPAGATE = frozenset(
    {
        "unique",
        "sort",
        "diff",
        "roll",
        "flip",
        "abs",
        "absolute",
        "clip",
        "ravel",
        "reshape",
        "broadcast_to",
        "ediff1d",
        "atleast_1d",
        "ascontiguousarray",
        "copy",
        "tile",
        "repeat",
        "concatenate",
        "vstack",
        "hstack",
        "stack",
        "column_stack",
    }
)

_NP_INT64 = frozenset(
    {"flatnonzero", "argsort", "argmax", "argmin", "searchsorted", "bincount"}
)

_NP_BOOL = frozenset({"isin", "isclose", "logical_and", "logical_or", "logical_not"})

_NP_PAIR_PROMOTE = frozenset({"maximum", "minimum", "fmax", "fmin", "where"})

_NP_WIDENING = frozenset({"sum", "prod", "cumsum", "cumprod"})


def _describe(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        text = type(node).__name__
    text = " ".join(text.split())
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def _widen(dtype: Optional[DType]) -> Optional[DType]:
    """Reduction widening: sub-64-bit ints/bools go to the default int."""
    if dtype is None:
        return None
    if dtype.family == "bool":
        return INT64
    if dtype.family in ("int", "uint") and dtype.bits < 64:
        return DType(dtype.family, 64)
    return dtype


def _narrows(src: DType, dst: DType) -> bool:
    """Would storing ``src`` values into ``dst`` silently lose range?"""
    if dst.family == "bool" and src.family != "bool":
        return True
    if src.family == "float" and dst.family in ("int", "uint"):
        return True
    if src.family == dst.family and dst.bits < src.bits:
        return True
    return False


@dataclass(frozen=True)
class EncodeEvent:
    """An ``A * K + B`` integer-encode expression and its dtype."""

    line: int
    col: int
    dtype: DType
    expr: str


@dataclass(frozen=True)
class DowncastEvent:
    """An implicit narrowing at a setitem or ``out=`` boundary."""

    line: int
    col: int
    src: DType
    dst: DType
    target: str
    boundary: str  # "assignment" | "out="


@dataclass(frozen=True)
class ScatterEvent:
    """One ``np.<ufunc>.at(target, index, value)`` call."""

    line: int
    col: int
    op: str  # e.g. "numpy.maximum.at"
    target: str
    target_dtype: Optional[DType]
    value_dtype: Optional[DType]


@dataclass(frozen=True)
class LoopEvent:
    """One ``for`` statement or comprehension generator."""

    line: int
    col: int
    kind: str  # "for" | "comprehension"
    target: str
    iterable: str
    #: Identifier segments in the (unwrapped) iterable expression.
    names: Tuple[str, ...]
    #: Fact of the iterable when it is ndarray-like.
    fact: Optional[ArrayFact]
    #: Iterable was a ``.items()/.keys()/.values()`` call (dict-scale).
    items_like: bool
    #: Identifier segments inside ``range(...)`` args, when applicable.
    range_names: Tuple[str, ...]


@dataclass(frozen=True)
class AllocEvent:
    """Array construction evaluated inside a loop body."""

    line: int
    col: int
    what: str


@dataclass(frozen=True)
class BuildEvent:
    """Call to a structure-(re)build helper."""

    line: int
    col: int
    callee: str


@dataclass
class FunctionFacts:
    """Everything the rules need to know about one function."""

    fn: FunctionNode
    env: Dict[str, ArrayFact] = field(default_factory=dict)
    encodes: List[EncodeEvent] = field(default_factory=list)
    downcasts: List[DowncastEvent] = field(default_factory=list)
    scatters: List[ScatterEvent] = field(default_factory=list)
    loops: List[LoopEvent] = field(default_factory=list)
    allocs: List[AllocEvent] = field(default_factory=list)
    builds: List[BuildEvent] = field(default_factory=list)


def module_uses_numpy(record: ModuleRecord) -> bool:
    """Whether any import in the module targets numpy."""
    return any(
        target == "numpy" or target.startswith("numpy.")
        for target in record.info.imports.aliases.values()
    )


class _Inferencer:
    """One sequential interpretation of one function body."""

    def __init__(
        self,
        record: ModuleRecord,
        fn: FunctionNode,
        attr_facts: Optional[Dict[str, ArrayFact]] = None,
        collect_events: bool = True,
    ) -> None:
        self.record = record
        self.fn = fn
        self.facts = FunctionFacts(fn=fn)
        if attr_facts:
            for name, fact in attr_facts.items():
                self.facts.env[f"self.{name}"] = fact
        self.collect = collect_events
        self._loop_depth = 0

    # -- entry ---------------------------------------------------------
    def run(self) -> FunctionFacts:
        body = self._function_body()
        if body is not None:
            self._exec_block(body)
        return self.facts

    def _function_body(self) -> Optional[List[ast.stmt]]:
        tree = self.record.info.tree
        if self.fn.qualname == MODULE_BODY:
            return list(tree.body)
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.lineno == self.fn.lineno
            ):
                return list(node.body)
        return None

    # -- statements ----------------------------------------------------
    def _exec_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            fact = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, fact, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                fact = self._eval(stmt.value)
                self._assign(stmt.target, fact, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            fact = self._eval(stmt.value)
            key = self._target_key(stmt.target)
            if key is not None:
                prior = self.facts.env.get(key)
                if prior is not None and prior.dtype is not None:
                    merged = promote(
                        prior.dtype, fact.dtype if fact is not None else None
                    )
                    self.facts.env[key] = prior.with_dtype(merged)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._record_loop(stmt, "for", stmt.target, stmt.iter)
            self._eval(stmt.iter)
            self._loop_depth += 1
            self._exec_block(stmt.body)
            self._loop_depth -= 1
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._loop_depth += 1
            self._exec_block(stmt.body)
            self._loop_depth -= 1
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        elif isinstance(stmt, (ast.Raise, ast.Delete, ast.Pass)):
            pass
        # Nested defs/classes are intentionally not descended into:
        # their bodies run on *their* call, and the loop census must not
        # attribute a helper's loops to its enclosing function twice.

    def _target_key(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None

    def _assign(
        self, target: ast.expr, fact: Optional[ArrayFact], value: ast.expr
    ) -> None:
        if isinstance(target, ast.Subscript):
            base = self._eval(target.value)
            if (
                self.collect
                and base is not None
                and base.dtype is not None
                and fact is not None
                and fact.dtype is not None
                and _narrows(fact.dtype, base.dtype)
            ):
                self.facts.downcasts.append(
                    DowncastEvent(
                        line=target.lineno,
                        col=target.col_offset,
                        src=fact.dtype,
                        dst=base.dtype,
                        target=_describe(target.value),
                        boundary="assignment",
                    )
                )
            return
        key = self._target_key(target)
        if key is None:
            return
        if fact is not None:
            self.facts.env[key] = fact
        else:
            self.facts.env.pop(key, None)

    # -- loops ---------------------------------------------------------
    def _record_loop(
        self, node: ast.AST, kind: str, target: ast.expr, iterable: ast.expr
    ) -> None:
        if not self.collect:
            return
        unwrapped = iterable
        while (
            isinstance(unwrapped, ast.Call)
            and isinstance(unwrapped.func, ast.Name)
            and unwrapped.func.id in _UNWRAP_CALLS
            and unwrapped.args
        ):
            unwrapped = unwrapped.args[0]
        items_like = (
            isinstance(unwrapped, ast.Call)
            and isinstance(unwrapped.func, ast.Attribute)
            and unwrapped.func.attr in _ITEMS_METHODS
        )
        range_names: Tuple[str, ...] = ()
        if (
            isinstance(unwrapped, ast.Call)
            and isinstance(unwrapped.func, ast.Name)
            and unwrapped.func.id == "range"
        ):
            collected: List[str] = []
            for arg in unwrapped.args:
                collected.extend(_identifier_segments(arg))
            range_names = tuple(collected)
        fact = self._eval(unwrapped)
        self.facts.loops.append(
            LoopEvent(
                line=node.lineno,
                col=node.col_offset,
                kind=kind,
                target=_describe(target, limit=32),
                iterable=_describe(iterable),
                names=tuple(_identifier_segments(unwrapped)),
                fact=fact,
                items_like=items_like,
                range_names=range_names,
            )
        )

    # -- expressions ---------------------------------------------------
    def _eval(self, node: Optional[ast.expr]) -> Optional[ArrayFact]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.facts.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.facts.env.get(f"self.{node.attr}")
            if node.attr == "T":
                return self._eval(node.value)
            return None
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            self._eval_index(node.slice)
            if base is not None:
                return ArrayFact(dtype=base.dtype)
            return None
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            facts = [self._eval(node.left)] + [
                self._eval(comp) for comp in node.comparators
            ]
            if any(fact is not None for fact in facts):
                return ArrayFact(dtype=BOOL)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return None
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            body = self._eval(node.body)
            orelse = self._eval(node.orelse)
            if body is None:
                return orelse
            if orelse is None:
                return body
            return ArrayFact(dtype=promote(body.dtype, orelse.dtype))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                self._record_loop(node, "comprehension", gen.target, gen.iter)
            self._loop_depth += 1
            if isinstance(node, ast.DictComp):
                self._eval(node.key)
                self._eval(node.value)
            else:
                self._eval(node.elt)
            self._loop_depth -= 1
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt)
            return None
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        return None

    def _eval_index(self, node: ast.expr) -> None:
        # py3.8 wraps simple indices in ast.Index; 3.9+ does not.
        inner = getattr(node, "value", node) if type(node).__name__ == "Index" else node
        if isinstance(inner, ast.expr):
            self._eval(inner)

    def _eval_binop(self, node: ast.BinOp) -> Optional[ArrayFact]:
        left = self._eval(node.left)
        right = self._eval(node.right)
        if left is None and right is None:
            return None
        dtype = promote(
            left.dtype if left is not None else None,
            right.dtype if right is not None else None,
        )
        if isinstance(node.op, ast.Div):
            dtype = FLOAT64 if dtype is None or dtype.family != "float" else dtype
        result = ArrayFact(dtype=dtype)
        if (
            self.collect
            and isinstance(node.op, ast.Add)
            and (
                (isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult))
                or (
                    isinstance(node.right, ast.BinOp)
                    and isinstance(node.right.op, ast.Mult)
                )
            )
            and dtype is not None
            and dtype.family in ("int", "uint")
            and dtype.bits < 64
        ):
            self.facts.encodes.append(
                EncodeEvent(
                    line=node.lineno,
                    col=node.col_offset,
                    dtype=dtype,
                    expr=_describe(node),
                )
            )
        return result

    # -- calls ---------------------------------------------------------
    def _dtype_argument(self, node: ast.Call) -> Optional[DType]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return self._dtype_of(kw.value)
        return None

    def _dtype_of(self, node: ast.expr) -> Optional[DType]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return parse_dtype(node.value)
        canonical = self.record.info.resolve(node)
        return parse_dtype(canonical)

    def _shape_of(self, node: ast.expr) -> Optional[Tuple[str, ...]]:
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(_describe(elt, limit=32) for elt in node.elts)
        return (_describe(node, limit=32),)

    def _eval_call(self, node: ast.Call) -> Optional[ArrayFact]:
        for kw in node.keywords:
            if kw.arg != "dtype":
                self._eval(kw.value)
        canonical = self.record.info.resolve(node.func)

        if canonical is not None and _SCATTER_RE.match(canonical):
            target_fact = self._eval(node.args[0]) if node.args else None
            value_fact = self._eval(node.args[2]) if len(node.args) > 2 else None
            for extra in node.args[1:2]:
                self._eval(extra)
            if self.collect:
                self.facts.scatters.append(
                    ScatterEvent(
                        line=node.lineno,
                        col=node.col_offset,
                        op=canonical,
                        target=_describe(node.args[0]) if node.args else "?",
                        target_dtype=(
                            target_fact.dtype if target_fact is not None else None
                        ),
                        value_dtype=(
                            value_fact.dtype if value_fact is not None else None
                        ),
                    )
                )
            return None

        arg_facts = [self._eval(arg) for arg in node.args]

        if (
            self.collect
            and self._loop_depth > 0
            and canonical is not None
            and canonical.startswith("numpy.")
            and canonical[len("numpy.") :] in _NP_CONSTRUCTORS
        ):
            self.facts.allocs.append(
                AllocEvent(
                    line=node.lineno,
                    col=node.col_offset,
                    what=_describe(node),
                )
            )

        callee_name = None
        if isinstance(node.func, ast.Attribute):
            callee_name = node.func.attr
        elif isinstance(node.func, ast.Name):
            callee_name = node.func.id
        if (
            self.collect
            and callee_name is not None
            and _BUILD_NAME_RE.search(callee_name)
        ):
            self.facts.builds.append(
                BuildEvent(
                    line=node.lineno,
                    col=node.col_offset,
                    callee=_describe(node.func),
                )
            )

        result = self._call_fact(node, canonical, arg_facts)
        self._check_out_kw(node, result)
        return result

    def _check_out_kw(
        self, node: ast.Call, result: Optional[ArrayFact]
    ) -> None:
        if not self.collect or result is None or result.dtype is None:
            return
        for kw in node.keywords:
            if kw.arg != "out":
                continue
            out_fact = self._eval(kw.value)
            if (
                out_fact is not None
                and out_fact.dtype is not None
                and _narrows(result.dtype, out_fact.dtype)
            ):
                self.facts.downcasts.append(
                    DowncastEvent(
                        line=node.lineno,
                        col=node.col_offset,
                        src=result.dtype,
                        dst=out_fact.dtype,
                        target=_describe(kw.value),
                        boundary="out=",
                    )
                )

    def _call_fact(
        self,
        node: ast.Call,
        canonical: Optional[str],
        arg_facts: List[Optional[ArrayFact]],
    ) -> Optional[ArrayFact]:
        first = arg_facts[0] if arg_facts else None

        # ndarray / rng method calls -----------------------------------
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value)
            attr = node.func.attr
            if receiver is not None:
                if attr == "astype":
                    dtype = self._dtype_argument(node)
                    if dtype is None and node.args:
                        dtype = self._dtype_of(node.args[0])
                    return ArrayFact(dtype=dtype, shape=receiver.shape)
                if attr in _PRESERVING_METHODS:
                    return ArrayFact(dtype=receiver.dtype)
                if attr in _WIDENING_METHODS:
                    return ArrayFact(dtype=_widen(receiver.dtype))
                if attr in ("min", "max"):
                    return ArrayFact(dtype=receiver.dtype)
                if attr in ("mean", "std", "var"):
                    return ArrayFact(dtype=FLOAT64)
                if attr == "view":
                    dtype = self._dtype_argument(node)
                    if dtype is None and node.args:
                        dtype = self._dtype_of(node.args[0])
                    return ArrayFact(dtype=dtype)
            if attr in _RNG_INT_METHODS:
                return ArrayFact(dtype=self._dtype_argument(node) or INT64)
            if attr in _RNG_FLOAT_METHODS:
                # Generator float draws honour an explicit dtype=
                # (e.g. random(out=buf, dtype=np.float32) fills the
                # buffer natively — no float64 intermediate).
                return ArrayFact(dtype=self._dtype_argument(node) or FLOAT64)
            if attr == "choice" and arg_facts:
                return first

        # builtins preserving the underlying collection ----------------
        if isinstance(node.func, ast.Name):
            if node.func.id in _UNWRAP_CALLS and first is not None:
                return first

        if canonical is None or not canonical.startswith("numpy."):
            return None
        tail = canonical[len("numpy.") :]

        if tail in ("zeros", "ones", "empty"):
            dtype = self._dtype_argument(node) or FLOAT64
            shape = self._shape_of(node.args[0]) if node.args else None
            return ArrayFact(dtype=dtype, shape=shape)
        if tail == "full":
            dtype = self._dtype_argument(node)
            if dtype is None and len(node.args) > 1:
                dtype = _literal_dtype(node.args[1])
                if dtype is None and arg_facts[1] is not None:
                    dtype = arg_facts[1].dtype
            shape = self._shape_of(node.args[0]) if node.args else None
            return ArrayFact(dtype=dtype or FLOAT64, shape=shape)
        if tail in ("zeros_like", "ones_like", "empty_like", "full_like"):
            dtype = self._dtype_argument(node)
            if dtype is None and first is not None:
                dtype = first.dtype
            return ArrayFact(dtype=dtype)
        if tail == "arange":
            dtype = self._dtype_argument(node)
            if dtype is None:
                dtype = (
                    FLOAT64
                    if any(
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, float)
                        for arg in node.args
                    )
                    else INT64
                )
            shape = (
                (_describe(node.args[0], limit=32),)
                if len(node.args) == 1
                else None
            )
            return ArrayFact(dtype=dtype, shape=shape)
        if tail in ("array", "asarray"):
            dtype = self._dtype_argument(node)
            if dtype is None and first is not None:
                dtype = first.dtype
            if dtype is None and node.args:
                dtype = _literal_dtype(node.args[0])
            return ArrayFact(dtype=dtype)
        if tail == "linspace":
            return ArrayFact(dtype=self._dtype_argument(node) or FLOAT64)
        if tail == "where" and len(arg_facts) == 3:
            lhs = arg_facts[1].dtype if arg_facts[1] is not None else None
            rhs = arg_facts[2].dtype if arg_facts[2] is not None else None
            return ArrayFact(dtype=promote(lhs, rhs))
        if tail in _NP_PAIR_PROMOTE and len(arg_facts) >= 2:
            lhs = arg_facts[0].dtype if arg_facts[0] is not None else None
            rhs = arg_facts[1].dtype if arg_facts[1] is not None else None
            return ArrayFact(dtype=promote(lhs, rhs))
        if tail in _NP_WIDENING:
            return ArrayFact(dtype=_widen(first.dtype) if first else None)
        if tail in _NP_INT64:
            return ArrayFact(dtype=INT64)
        if tail in _NP_BOOL:
            return ArrayFact(dtype=BOOL)
        if tail in _NP_PROPAGATE:
            if first is not None:
                return ArrayFact(dtype=first.dtype)
            return ArrayFact()
        return None


def _literal_dtype(node: ast.expr) -> Optional[DType]:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return BOOL
        if isinstance(node.value, int):
            return INT64
        if isinstance(node.value, float):
            return FLOAT64
    if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
        facts = [_literal_dtype(elt) for elt in node.elts]
        if all(fact is not None for fact in facts):
            out = facts[0]
            for fact in facts[1:]:
                out = promote(out, fact)
            return out
    if isinstance(node, ast.UnaryOp):
        return _literal_dtype(node.operand)
    return None


def _identifier_segments(node: ast.expr) -> List[str]:
    """Terminal identifier names appearing anywhere in an expression."""
    out: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def class_attribute_facts(
    project: Project, hierarchy: ClassHierarchy
) -> Dict[str, Dict[str, ArrayFact]]:
    """``self.X`` facts per class fq, merged down the inheritance chain.

    Every method body of every class is scanned for ``self.X = expr``
    whose value has an array fact; conflicting dtypes within one class
    collapse to an unknown-dtype fact (still ndarray-like, so the loop
    census keeps seeing scale).  A subclass inherits its ancestors'
    facts, nearest definition winning — this is what lets a subclass
    method know the dtype of a ``self.X`` array its base class
    assigned.
    """
    own: Dict[str, Dict[str, ArrayFact]] = {}
    for record in project.modules.values():
        if not module_uses_numpy(record):
            continue
        for cls in record.classes.values():
            facts: Dict[str, ArrayFact] = {}
            conflicted: Dict[str, bool] = {}
            for method in cls.methods:
                fn = record.functions.get(method)
                if fn is None:
                    continue
                probe = _Inferencer(record, fn, collect_events=False)
                probe.run()
                for key, fact in probe.facts.env.items():
                    if not key.startswith("self."):
                        continue
                    name = key[len("self.") :]
                    if name in facts and facts[name].dtype != fact.dtype:
                        conflicted[name] = True
                    facts.setdefault(name, fact)
            for name in conflicted:
                facts[name] = ArrayFact()
            own[cls.fq] = facts
    merged: Dict[str, Dict[str, ArrayFact]] = {}
    for class_fq in own:
        combined: Dict[str, ArrayFact] = {}
        for ancestor in reversed(hierarchy.ancestors(class_fq)):
            combined.update(own.get(ancestor, {}))
        merged[class_fq] = combined
    return merged


def infer_function(
    record: ModuleRecord,
    fn: FunctionNode,
    attr_facts: Optional[Dict[str, ArrayFact]] = None,
) -> FunctionFacts:
    """Interpret one function and return its facts + event streams."""
    return _Inferencer(record, fn, attr_facts=attr_facts).run()
