"""Lowering: turn a schedule :class:`~repro.ir.state.State` into an explicit
loop-nest program description.

The lowered form is consumed by three clients:

* the program printer (Figure-5 style pseudo code),
* the hardware model (:mod:`repro.hardware.simulator`), and
* the cost-model feature extractor (:mod:`repro.cost_model.features`).

The lowering resolves, for every non-inlined stage:

* the ordered loops (with extents, kinds, annotations),
* where the stage is nested (the chain of outer loops of its ancestors up to
  the attach point), and
* the buffer accesses of its innermost statement, expressed as linear
  coefficients over the *original* iteration axes, so access strides with
  respect to any scheduled loop can be recovered from the loop's
  ``axis_strides``.

Ops never change, so nothing about an op's body is derived twice: each
:class:`~repro.te.operation.ComputeOp` keeps one :class:`AccessTable`
(:func:`access_table`), built on first use from one walk of the body, with
the body's flop count, one shared :class:`BufferAccess` per read site and
for the write, and the body's node counts, from which the cost-model
features take their arithmetic counts.  A state only decides which
producers are inlined, so a nest's statement is composed from tables: an
inlined producer adds its flops and its reads in place of the read of its
output, and every other read contributes the op's own shared access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..ir.loop import ComputeLocation, Iterator, Stage
from ..ir.state import State
from ..te.expr import (
    FLOP_NODE_TYPES,
    Add,
    Expr,
    FloatImm,
    IntImm,
    Mul,
    Sub,
    TensorRead,
    Var,
)
from ..te.operation import ComputeOp
from .footprint import axis_span

__all__ = [
    "AccessTable",
    "BufferAccess",
    "StageNest",
    "LoweredProgram",
    "access_table",
    "lower_state",
    "linear_coefficients",
]

DTYPE_BYTES = {"float32": 4, "float64": 8, "float16": 2, "int32": 4, "int8": 1}


def linear_coefficients(expr: Expr) -> Tuple[Dict[str, int], int]:
    """Extract (approximate) linear coefficients of axis variables from an
    index expression.

    Returns ``(coeffs, constant)`` such that the expression is approximately
    ``sum(coeffs[v] * v) + constant``.  Non-linear constructs (floordiv,
    modulo, select) fall back to coefficient 1 for every variable they
    mention — good enough for stride analysis.
    """
    if isinstance(expr, Var):
        return {expr.name: 1}, 0
    if isinstance(expr, IntImm):
        return {}, expr.value
    if isinstance(expr, FloatImm):
        return {}, int(expr.value)
    if isinstance(expr, Add):
        ca, ka = linear_coefficients(expr.a)
        cb, kb = linear_coefficients(expr.b)
        merged = dict(ca)
        for name, coeff in cb.items():
            merged[name] = merged.get(name, 0) + coeff
        return merged, ka + kb
    if isinstance(expr, Sub):
        ca, ka = linear_coefficients(expr.a)
        cb, kb = linear_coefficients(expr.b)
        merged = dict(ca)
        for name, coeff in cb.items():
            merged[name] = merged.get(name, 0) - coeff
        return merged, ka - kb
    if isinstance(expr, Mul):
        ca, ka = linear_coefficients(expr.a)
        cb, kb = linear_coefficients(expr.b)
        if not ca:  # constant * expr
            return {name: coeff * ka for name, coeff in cb.items()}, ka * kb
        if not cb:
            return {name: coeff * kb for name, coeff in ca.items()}, ka * kb
        # Product of two variable expressions: fall back to unit coefficients.
        merged = {name: 1 for name in list(ca) + list(cb)}
        return merged, 0
    # Fallback: every mentioned variable gets coefficient 1.
    from ..te.expr import collect_vars

    return {v.name: 1 for v in collect_vars(expr)}, 0


@dataclass(frozen=True)
class BufferAccess:
    """One buffer access of an innermost statement.

    A value: every statement that reads through one read site of an op's
    body shares that site's access (see :class:`AccessTable`), so assigning
    to a field raises.  Treat ``dim_coeffs`` and the dict
    :meth:`element_strides` returns as read-only too."""

    buffer: str
    shape: Tuple[int, ...]
    is_write: bool
    dim_coeffs: Sequence[Dict[str, int]]
    dtype_bytes: int = 4
    # the memo of ``element_strides`` (not a field)
    _strides = None

    def size_bytes(self) -> int:
        total = self.dtype_bytes
        for dim in self.shape:
            total *= dim
        return total

    def element_strides(self) -> Dict[str, int]:
        """Stride (in elements of the buffer) of each original axis,
        computed on first use (lowering alone never reads it) and kept."""
        strides = self._strides
        if strides is not None:
            return strides
        strides = {}
        dim_stride = 1
        # innermost dimension has stride 1
        buffer_strides = []
        for dim in reversed(self.shape):
            buffer_strides.append(dim_stride)
            dim_stride *= dim
        buffer_strides.reverse()
        for dim_idx, coeffs in enumerate(self.dim_coeffs):
            for axis, coeff in coeffs.items():
                strides[axis] = strides.get(axis, 0) + coeff * buffer_strides[dim_idx]
        object.__setattr__(self, "_strides", strides)
        return strides


class AccessTable(NamedTuple):
    """What lowering and featurization read of one op's body, built once
    per op by :func:`access_table`."""

    #: floating point operations of one body evaluation, at least 1
    flops: int
    #: the access of every read site, in body order; its buffer names the
    #: producer
    reads: Tuple[BufferAccess, ...]
    #: the write to the op's own output buffer, indexed by its spatial axes
    write: BufferAccess
    #: how many nodes of each expression type the body holds, index
    #: expressions included
    node_counts: Dict[type, int]
    #: how many read indices are compound (neither an axis nor a constant)
    compound_indices: int


@dataclass
class StageNest:
    """The lowered loop nest of one (non-inlined) stage."""

    stage: Stage
    loops: List[Iterator]
    accesses: List[BufferAccess]
    flops_per_iter: float
    outer_context: List[Iterator] = field(default_factory=list)
    children: Dict[int, List["StageNest"]] = field(default_factory=dict)
    parent: Optional["StageNest"] = None
    attach_index: int = -1

    @property
    def name(self) -> str:
        return self.stage.name

    def iteration_count(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.extent
        return total

    def execution_count(self) -> int:
        """How many times this nest runs (product of outer-context extents)."""
        total = 1
        for loop in self.outer_context:
            total *= loop.extent
        return total

    def total_iterations(self) -> int:
        return self.iteration_count() * self.execution_count()

    def total_flops(self) -> float:
        return self.flops_per_iter * self.total_iterations()

    def reads(self) -> List[BufferAccess]:
        return [a for a in self.accesses if not a.is_write]

    def writes(self) -> List[BufferAccess]:
        return [a for a in self.accesses if a.is_write]


@dataclass
class LoweredProgram:
    """A fully lowered program: a forest of stage nests."""

    state: State
    roots: List[StageNest]
    nests: Dict[str, StageNest]

    def all_nests(self) -> List[StageNest]:
        return list(self.nests.values())

    def total_flops(self) -> float:
        return sum(nest.total_flops() for nest in self.nests.values())


def _dtype_bytes(dtype: str) -> int:
    return DTYPE_BYTES.get(dtype, 4)


def _walk_body(body: Expr) -> Tuple[List[TensorRead], int, Dict[type, int]]:
    """One post-order walk of an op's body: its read sites (as
    ``collect_reads`` lists them), its ``count_flop``, and its number of
    nodes of each type."""
    reads: List[TensorRead] = []
    node_counts: Dict[type, int] = {}
    flops = 0

    def visit(node: Expr, in_index: bool) -> None:
        nonlocal flops
        is_read = isinstance(node, TensorRead)
        for child in node.children():
            visit(child, in_index or is_read)
        node_counts[type(node)] = node_counts.get(type(node), 0) + 1
        if is_read:
            reads.append(node)
        elif not in_index and isinstance(node, FLOP_NODE_TYPES):
            # index arithmetic is address computation, not flops
            flops += 1

    visit(body, False)
    return reads, flops, node_counts


def access_table(op: ComputeOp) -> AccessTable:
    """The access table of ``op``, built on first use and kept on the op
    (out of its pickles).  Threads that race to build it build equal
    tables, and the last assignment wins, so it needs no lock."""
    table = op._access_table
    if table is None:
        reads, flops, node_counts = _walk_body(op.body)
        accesses = tuple(
            BufferAccess(
                read.tensor.name,
                read.tensor.shape,
                False,
                tuple(linear_coefficients(index)[0] for index in read.indices),
                _dtype_bytes(read.tensor.dtype),
            )
            for read in reads
        )
        compound = sum(1 for read in reads for index in read.indices if index.children())
        write_coeffs = tuple({ax.name: 1} for ax in op.axes)
        write = BufferAccess(op.name, op.output.shape, True, write_coeffs, _dtype_bytes(op.output.dtype))
        table = op._access_table = AccessTable(max(flops, 1), accesses, write, node_counts, compound)
    return table


def _collect_accesses(stages: Dict[str, Stage], op: ComputeOp) -> Tuple[List[BufferAccess], float]:
    """Buffer accesses and flops of one innermost statement of ``op``, whose
    state's stages are ``stages`` (by name).

    Reads of tensors produced by *inlined* stages are replaced by the inlined
    op's own reads (recursively) and their flops are added, modelling the
    effect of inlining on the innermost statement.
    """
    table = access_table(op)
    accesses: List[BufferAccess] = []
    flops = float(table.flops)

    def expand(table: AccessTable) -> None:
        nonlocal flops
        for access in table.reads:
            stage = stages.get(access.buffer)
            if stage is not None and stage.is_inlined() and isinstance(stage.op, ComputeOp):
                inlined = access_table(stage.op)
                flops += inlined.flops
                expand(inlined)
            else:
                accesses.append(access)

    expand(table)
    accesses.append(table.write)
    return accesses, flops


def _shrink_loops_to_region(
    loops: List[Iterator], needed: Dict[str, int], axis_extents: Optional[Dict[str, int]] = None
) -> None:
    """Shrink (in place) the loops so the span they cover per axis is roughly
    the ``needed`` region.

    Outer loops are shrunk first: an attached stage only iterates over the
    tile its parent exposes, so the traversal of the full axis moves to the
    parent's loops.  A loop fused over several axes is shrunk by the product
    of its axes' remaining factors.
    """
    axis_extents = axis_extents or {}
    remaining: Dict[str, float] = {}
    for axis, want in needed.items():
        full = axis_span(axis, loops)
        cap = axis_extents.get(axis)
        if cap is not None:
            full = min(full, cap)
            want = min(want, cap)
        if full > want:
            remaining[axis] = full / max(want, 1)
    if not remaining:
        return
    for loop in loops:  # outermost first
        axes = [a for a, s in loop.axis_strides.items() if s != 0 and remaining.get(a, 1.0) > 1.0]
        if not axes:
            continue
        factor = 1.0
        for axis in axes:
            factor *= remaining[axis]
        factor = min(factor, loop.extent)
        new_extent = max(1, int(round(loop.extent / factor)))
        actual = loop.extent / new_extent
        loop.extent = new_extent
        if len(axes) == 1:
            remaining[axes[0]] = max(1.0, remaining[axes[0]] / actual)
        else:
            # A fused loop consumes its axes' factors jointly.
            for axis in axes:
                remaining[axis] = 1.0


def _tile_region_of_parent(parent: StageNest, attach_index: int) -> Dict[str, int]:
    """Extent of each of the parent's output dimensions produced per iteration
    of the attach-point loop (i.e. by the loops below the attach point)."""
    inner = parent.loops[attach_index + 1:]
    region: Dict[str, int] = {}
    op = parent.stage.op
    if isinstance(op, ComputeOp):
        for dim, ax in enumerate(op.axes):
            region[ax.name] = min(axis_span(ax.name, inner), ax.extent)
    return region


def _shrink_attached_nest(nest: StageNest, parent: StageNest, attach_index: int) -> None:
    """Shrink the loops of an attached stage to its parent's tile region.

    Two relations are handled:

    * the attached stage *consumes* the parent's output (the typical Ansor
      fusion: relu / bias-add / cache-copy attached into the tiled producer);
    * the attached stage *produces* a tensor the parent reads (a producer
      computed at the consumer's tiles).

    The nest's loops become private copies first: the stage's iterators are
    shared with every state that holds the stage.
    """
    nest.loops = [loop.copy() for loop in nest.loops]
    parent_op = parent.stage.op
    child_op = nest.stage.op
    if not isinstance(parent_op, ComputeOp) or not isinstance(child_op, ComputeOp):
        return
    region = _tile_region_of_parent(parent, attach_index)
    child_axis_extents = {ax.name: ax.extent for ax in child_op.axes + child_op.reduce_axes}

    # Case A: the child reads the parent's output.
    child_reads_parent = [a for a in nest.accesses if not a.is_write and a.buffer == parent.name]
    if child_reads_parent:
        access = child_reads_parent[0]
        needed: Dict[str, int] = {}
        for dim, coeffs in enumerate(access.dim_coeffs):
            if dim >= len(parent_op.axes):
                continue
            tile = region.get(parent_op.axes[dim].name, 1)
            for axis, coeff in coeffs.items():
                want = max(1, tile // max(abs(coeff), 1))
                needed[axis] = min(needed.get(axis, want), want)
        _shrink_loops_to_region(nest.loops, needed, child_axis_extents)
        return

    # Case B: the parent reads the child's output.
    parent_reads_child = [a for a in parent.accesses if not a.is_write and a.buffer == nest.name]
    if parent_reads_child:
        access = parent_reads_child[0]
        inner = parent.loops[attach_index + 1:]
        needed = {}
        for dim, coeffs in enumerate(access.dim_coeffs):
            if dim >= len(child_op.axes):
                continue
            span = 1
            for axis, coeff in coeffs.items():
                span += abs(coeff) * (axis_span(axis, inner) - 1)
            child_axis = child_op.axes[dim].name
            needed[child_axis] = min(span, child_op.axes[dim].extent)
        _shrink_loops_to_region(nest.loops, needed, child_axis_extents)


# Lowering is memoized on the state itself (``State._lowered``), as feature
# extraction is (``State._features``).  The same program is lowered by
# several clients per search step (mutation validation, feature extraction,
# the simulator, the printer, node scoring), and a lowered program lives
# exactly as long as the state that holds it: ``State.apply_step`` drops the
# memo, and pickled states travel without it.  A copy carries no memo, so
# ``lower_state(state.copy())`` lowers afresh.
# Lowering reads a snapshot of the state's stage and step lists.  Stages and
# iterators are values that no step writes (a step puts new versions into
# the state's list), and the nests shrink only their own iterator copies, so
# later steps on the state never leak into a program lowered earlier.  No
# lock is needed: threads that race to lower one state each compute the
# same program, and the last assignment wins.
# What a lowering that misses the memo derives from ops, it reads from
# their access tables (``ComputeOp._access_table``, see
# :func:`access_table`): ops outlive every state, so no lowering walks an
# expression tree once each op has its table.  Ops that a replay builds
# anew (the ``CacheWriteStep`` and ``RfactorStep`` ops) build their own
# tables on their first lowering.
def lower_state(state: State) -> LoweredProgram:
    """Lower a state into its loop-nest program description, memoized on
    the state."""
    program = state._lowered
    if program is None:
        program = state._lowered = _lower_state_uncached(state)
    return program


def _lower_state_uncached(state: State) -> LoweredProgram:
    # The program's ``.state`` is a snapshot of the lists: later steps on the
    # source state replace entries of its lists, never the stages themselves.
    state = State(state.dag, list(state.stages), state.transform_steps)
    by_name = {stage.name: stage for stage in state.stages}
    nests: Dict[str, StageNest] = {}
    for stage in state.stages:
        if stage.is_placeholder() or stage.is_inlined():
            continue
        op = stage.op
        assert isinstance(op, ComputeOp)
        accesses, flops = _collect_accesses(by_name, op)
        nests[stage.name] = StageNest(
            stage=stage,
            loops=list(stage.iters),
            accesses=accesses,
            flops_per_iter=flops,
        )

    roots: List[StageNest] = []
    for stage in state.stages:
        nest = nests.get(stage.name)
        if nest is None:
            continue
        loc = stage.compute_location
        if loc.kind == ComputeLocation.AT and loc.target_stage in nests:
            parent = nests[loc.target_stage]
            attach = min(loc.target_iter, len(parent.loops) - 1)
            nest.parent = parent
            nest.attach_index = attach
            parent.children.setdefault(attach, []).append(nest)
        else:
            roots.append(nest)

    # Shrink attached nests to their parents' tile regions, starting from the
    # outermost parents so nested attachments compound correctly.
    def shrink_recursive(nest: StageNest) -> None:
        for attach_idx, children in sorted(nest.children.items()):
            for child in children:
                _shrink_attached_nest(child, nest, attach_idx)
                shrink_recursive(child)

    for root in roots:
        shrink_recursive(root)

    # Resolve the outer context (ancestor loops above the attach point).
    def resolve_context(nest: StageNest) -> List[Iterator]:
        if nest.parent is None:
            return []
        parent_ctx = resolve_context(nest.parent)
        return parent_ctx + nest.parent.loops[: nest.attach_index + 1]

    for nest in nests.values():
        nest.outer_context = resolve_context(nest)

    return LoweredProgram(state=state, roots=roots, nests=nests)
