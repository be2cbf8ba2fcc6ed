"""Expression AST for the tensor expression language.

This is the small declarative language in which computation definitions are
written (the equivalent of TVM's tensor expression language used by Ansor,
see Figure 1 of the paper).  Expressions are immutable trees built from index
variables, constants, arithmetic operators, comparisons, selections, intrinsic
calls, tensor reads and reductions.

The module also provides the visitors the rest of the system relies on:

* :func:`post_order_visit` -- generic traversal.
* :func:`collect_vars` / :func:`collect_reads` -- analysis helpers.
* :func:`substitute` -- variable substitution (used by inlining and the
  reference executor).
* :func:`count_flop` -- operation counting used by the task scheduler and the
  hardware model.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Expr",
    "Var",
    "IntImm",
    "FloatImm",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "FloorDiv",
    "Mod",
    "Max",
    "Min",
    "Compare",
    "Call",
    "Select",
    "Cast",
    "TensorRead",
    "Reduce",
    "const",
    "post_order_visit",
    "collect_vars",
    "collect_reads",
    "substitute",
    "count_flop",
]


class Expr:
    """Base class of all expression nodes.

    Operator overloads are provided so computation definitions read like
    ordinary arithmetic, e.g. ``A[i, k] * B[k, j]``.
    """

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "ExprLike") -> "Expr":
        return Add(self, _wrap(other))

    def __radd__(self, other: "ExprLike") -> "Expr":
        return Add(_wrap(other), self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return Sub(self, _wrap(other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return Sub(_wrap(other), self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return Mul(self, _wrap(other))

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return Mul(_wrap(other), self)

    def __truediv__(self, other: "ExprLike") -> "Expr":
        return Div(self, _wrap(other))

    def __rtruediv__(self, other: "ExprLike") -> "Expr":
        return Div(_wrap(other), self)

    def __floordiv__(self, other: "ExprLike") -> "Expr":
        return FloorDiv(self, _wrap(other))

    def __mod__(self, other: "ExprLike") -> "Expr":
        return Mod(self, _wrap(other))

    def __neg__(self) -> "Expr":
        return Sub(FloatImm(0.0), self)

    # -- comparisons ------------------------------------------------------
    def __lt__(self, other: "ExprLike") -> "Expr":
        return Compare("<", self, _wrap(other))

    def __le__(self, other: "ExprLike") -> "Expr":
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other: "ExprLike") -> "Expr":
        return Compare(">", self, _wrap(other))

    def __ge__(self, other: "ExprLike") -> "Expr":
        return Compare(">=", self, _wrap(other))

    def equal(self, other: "ExprLike") -> "Expr":
        """Element-wise equality comparison (``==`` is kept for identity)."""
        return Compare("==", self, _wrap(other))

    def not_equal(self, other: "ExprLike") -> "Expr":
        return Compare("!=", self, _wrap(other))

    # -- misc --------------------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        """Return the direct sub-expressions of this node."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({str(self)})"


ExprLike = "Expr | int | float"


def _wrap(value) -> Expr:
    """Coerce a Python number (or an IterVar) into an expression node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return IntImm(int(value))
    if isinstance(value, int):
        return IntImm(value)
    if isinstance(value, float):
        return FloatImm(value)
    # IterVar duck-typing (avoids a circular import with te.tensor).
    var = getattr(value, "var", None)
    if isinstance(var, Var):
        return var
    raise TypeError(f"cannot convert {value!r} to an expression")


def const(value) -> Expr:
    """Public wrapper around :func:`_wrap`."""
    return _wrap(value)


class Var(Expr):
    """A loop index variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return id(self)


class IntImm(Expr):
    """Integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def __str__(self) -> str:
        return str(self.value)


class FloatImm(Expr):
    """Floating point constant."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def __str__(self) -> str:
        return repr(self.value)


class BinaryOp(Expr):
    """Base class for binary arithmetic operators."""

    op_name = "?"
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a = _wrap(a)
        self.b = _wrap(b)

    def children(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"({self.a} {self.op_name} {self.b})"


class Add(BinaryOp):
    op_name = "+"


class Sub(BinaryOp):
    op_name = "-"


class Mul(BinaryOp):
    op_name = "*"


class Div(BinaryOp):
    op_name = "/"


class FloorDiv(BinaryOp):
    op_name = "//"


class Mod(BinaryOp):
    op_name = "%"


class Max(BinaryOp):
    op_name = "max"

    def __str__(self) -> str:
        return f"max({self.a}, {self.b})"


class Min(BinaryOp):
    op_name = "min"

    def __str__(self) -> str:
        return f"min({self.a}, {self.b})"


class Compare(Expr):
    """Comparison expression producing a boolean value."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in ("<", "<=", ">", ">=", "==", "!="):
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.a = _wrap(a)
        self.b = _wrap(b)

    def children(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"({self.a} {self.op} {self.b})"


class Call(Expr):
    """Intrinsic math function call (exp, sqrt, tanh, ...)."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr]):
        self.func = func
        self.args = tuple(_wrap(a) for a in args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


class Select(Expr):
    """``Select(cond, true_value, false_value)`` — a branch-free conditional."""

    __slots__ = ("cond", "true_value", "false_value")

    def __init__(self, cond: Expr, true_value, false_value):
        self.cond = _wrap(cond)
        self.true_value = _wrap(true_value)
        self.false_value = _wrap(false_value)

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.true_value, self.false_value)

    def __str__(self) -> str:
        return f"select({self.cond}, {self.true_value}, {self.false_value})"


class Cast(Expr):
    """Cast an expression to another dtype (kept for completeness)."""

    __slots__ = ("dtype", "value")

    def __init__(self, dtype: str, value: Expr):
        self.dtype = dtype
        self.value = _wrap(value)

    def children(self) -> Tuple[Expr, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"{self.dtype}({self.value})"


class TensorRead(Expr):
    """Read one element from a tensor: ``A[i, k]``."""

    __slots__ = ("tensor", "indices")

    def __init__(self, tensor, indices: Sequence[Expr]):
        self.tensor = tensor
        self.indices = tuple(_wrap(i) for i in indices)

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def __str__(self) -> str:
        idx = ", ".join(str(i) for i in self.indices)
        return f"{self.tensor.name}[{idx}]"


class Reduce(Expr):
    """A commutative reduction over a set of reduction axes.

    ``combiner`` is one of ``"sum"``, ``"max"``, ``"min"``.  ``axis`` is a
    list of :class:`~repro.te.tensor.IterVar` objects with ``kind='reduce'``.
    """

    COMBINERS = ("sum", "max", "min")

    __slots__ = ("combiner", "value", "axis", "init")

    def __init__(self, combiner: str, value: Expr, axis: Sequence, init: Optional[float] = None):
        if combiner not in self.COMBINERS:
            raise ValueError(f"unknown reduction combiner {combiner!r}")
        self.combiner = combiner
        self.value = _wrap(value)
        self.axis = tuple(axis)
        if init is None:
            init = 0.0 if combiner == "sum" else (float("-inf") if combiner == "max" else float("inf"))
        self.init = float(init)

    def children(self) -> Tuple[Expr, ...]:
        return (self.value,)

    def __str__(self) -> str:
        axes = ", ".join(a.var.name for a in self.axis)
        return f"{self.combiner}({self.value}, axis=[{axes}])"


# ---------------------------------------------------------------------------
# Visitors and analysis helpers
# ---------------------------------------------------------------------------


def post_order_visit(expr: Expr, fvisit: Callable[[Expr], None]) -> None:
    """Visit every node of ``expr`` in post order and call ``fvisit`` on it."""
    for child in expr.children():
        post_order_visit(child, fvisit)
    if isinstance(expr, Reduce):
        # The reduction value is already covered by children(); nothing extra.
        pass
    fvisit(expr)


def collect_vars(expr: Expr) -> List[Var]:
    """Return all distinct :class:`Var` nodes appearing in ``expr``."""
    seen: List[Var] = []

    def visit(node: Expr) -> None:
        if isinstance(node, Var) and node not in seen:
            seen.append(node)

    post_order_visit(expr, visit)
    return seen


def collect_reads(expr: Expr) -> List[TensorRead]:
    """Return every :class:`TensorRead` node in ``expr`` (with duplicates)."""
    reads: List[TensorRead] = []

    def visit(node: Expr) -> None:
        if isinstance(node, TensorRead):
            reads.append(node)

    post_order_visit(expr, visit)
    return reads


def substitute(expr: Expr, mapping: Dict[Var, Expr]) -> Expr:
    """Return a copy of ``expr`` with variables replaced according to ``mapping``."""
    if isinstance(expr, Var):
        return mapping.get(expr, expr)
    if isinstance(expr, (IntImm, FloatImm)):
        return expr
    if isinstance(expr, BinaryOp):
        return type(expr)(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Compare):
        return Compare(expr.op, substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, [substitute(a, mapping) for a in expr.args])
    if isinstance(expr, Select):
        return Select(
            substitute(expr.cond, mapping),
            substitute(expr.true_value, mapping),
            substitute(expr.false_value, mapping),
        )
    if isinstance(expr, Cast):
        return Cast(expr.dtype, substitute(expr.value, mapping))
    if isinstance(expr, TensorRead):
        return TensorRead(expr.tensor, [substitute(i, mapping) for i in expr.indices])
    if isinstance(expr, Reduce):
        return Reduce(expr.combiner, substitute(expr.value, mapping), expr.axis, expr.init)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


#: the node types :func:`count_flop` counts, one operation each; a
#: reduction counts its accumulation (+=, max=, min=) per reduction step
FLOP_NODE_TYPES = (Add, Sub, Mul, Div, Max, Min, Call, Select, Compare, Reduce)


def count_flop(expr: Expr) -> int:
    """Count the floating point operations performed by one evaluation of ``expr``.

    Integer index arithmetic inside tensor reads (e.g. ``h * stride + rh``)
    is address computation, not floating point work, and is excluded.
    Reductions are *not* expanded here; the caller multiplies by the loop
    extents (see :meth:`repro.te.dag.ComputeDAG.flop_count`).
    """

    def visit(node: Expr) -> int:
        if isinstance(node, TensorRead):
            # Do not descend into index expressions.
            return 0
        count = sum(visit(child) for child in node.children())
        if isinstance(node, FLOP_NODE_TYPES):
            count += 1
        return count

    return visit(expr)
