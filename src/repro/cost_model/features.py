"""Per-statement program features (Appendix B of the paper).

The learned cost model predicts a score for every *innermost non-loop
statement* of a program and sums the scores.  In this IR every non-inlined
stage nest has exactly one innermost statement, so features are extracted
per :class:`~repro.codegen.lowering.StageNest`, in the context of the full
program (its outer loops, annotations and buffer accesses).

The feature groups follow Appendix B:

* float / integer arithmetic-operation counts,
* vectorization, unrolling and parallelization related features,
* GPU thread-binding related features,
* a 10-point arithmetic-intensity curve,
* buffer access features for (up to) five accessed buffers,
* allocation related features,
* other features (outer loop counts, ``auto_unroll_max_step``).

Magnitude features use a ``log2(1 + x)`` transform, matching the released
Ansor implementation's feature scaling.

Extraction runs a batch of nests at once.  Each nest gets one *raw* row:
counts, extents, bytes and intensities as computed, one-hot columns as 0
or 1.  Every footprint the row needs (the intensity curve's, the buffers'
unique bytes and reuse distances) is read from the nest's
:func:`~repro.codegen.footprint.suffix_footprints` table, each op's
arithmetic counts from the node counts of the access table lowering keeps
on the op (:func:`~repro.codegen.lowering.access_table`), and each
access's strides from the access itself.  A single pass then maps
every value ``x`` of the batch to ``log2(1 + x)``.  One-hot columns are
fixed points of that map (``log2 2 = 1``, ``log2 1 = 0``), so the pass runs
over whole rows.  It calls :func:`math.log2` value by value because
``np.log2`` rounds some inputs differently (100 of the 267,582 values of a
seeded ``matmul_relu`` tuning session's programs on an AVX-512 x86 host),
and seeded searches rank their candidates by these rows.

A program's matrix is memoized on its :class:`~repro.ir.state.State`,
beside the lowered program, as ``State._features``: it lives exactly as
long as the state, a step applied to the state drops it, and pickles
leave it out.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen.footprint import loop_affects_access, loop_stride_elements, suffix_footprints
from ..codegen.lowering import AccessTable, LoweredProgram, StageNest, access_table, lower_state
from ..ir.loop import Iterator
from ..ir.state import State
from ..te.expr import (
    Add,
    Call,
    Compare,
    Div,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Reduce,
    Select,
    Sub,
)
from ..te.operation import ComputeOp

__all__ = [
    "FEATURE_LENGTH",
    "extract_nest_features",
    "extract_program_features",
    "extract_program_features_batch",
    "feature_names",
]

_MAX_BUFFERS = 5
_CURVE_SAMPLES = 10
_CACHE_LINE_BYTES = 64


# ---------------------------------------------------------------------------
# Arithmetic features
# ---------------------------------------------------------------------------


def _arith_counts(table: AccessTable) -> List[int]:
    """Counts of float arithmetic by category, then integer arithmetic, of
    the op whose access table is ``table``."""
    count = table.node_counts.get
    float_counts = [
        count(Add, 0) + count(Reduce, 0),  # a reduction's accumulate is an add
        count(Sub, 0),
        count(Mul, 0),
        count(Div, 0) + count(FloorDiv, 0),
        count(Mod, 0),
        count(Compare, 0),
        count(Call, 0),
        count(Max, 0) + count(Min, 0) + count(Select, 0),
    ]
    # Integer arithmetic: index computation — approximate by the number of
    # non-trivial index expressions in the reads.
    index = table.compound_indices
    int_counts = [index, 0, index, 0, 0, 0, 0, 0]
    return float_counts + int_counts


# ---------------------------------------------------------------------------
# Annotation features
# ---------------------------------------------------------------------------

_POSITION_KINDS = (
    "InnerSpatial",
    "MiddleSpatial",
    "OuterSpatial",
    "InnerReduce",
    "MiddleReduce",
    "OuterReduce",
    "Mixed",
    "None",
)


def _annotation_features(loops: Sequence[Iterator], annotation: str) -> List[float]:
    """Length / position / product / count features for one annotation kind."""
    annotated = [(idx, loop) for idx, loop in enumerate(loops) if loop.annotation == annotation]
    if not annotated:
        one_hot = [0.0] * len(_POSITION_KINDS)
        one_hot[_POSITION_KINDS.index("None")] = 1.0
        return [0.0] + one_hot + [0.0, 0.0]
    innermost_idx, innermost = annotated[-1]
    n = len(loops)
    third = max(n // 3, 1)
    if innermost.is_reduce():
        base = "Reduce"
    elif innermost.is_spatial():
        base = "Spatial"
    else:
        base = None
    if base is None:
        position = "Mixed"
    elif innermost_idx >= n - third:
        position = f"Inner{base}"
    elif innermost_idx < third:
        position = f"Outer{base}"
    else:
        position = f"Middle{base}"
    one_hot = [0.0] * len(_POSITION_KINDS)
    one_hot[_POSITION_KINDS.index(position)] = 1.0
    product = 1
    for _, loop in annotated:
        product *= loop.extent
    return [innermost.extent] + one_hot + [product, len(annotated)]


def _gpu_features(loops: Sequence[Iterator]) -> List[float]:
    """GPU thread-binding lengths.

    This IR expresses GPU mapping through ``parallel`` (block-level) and
    ``vectorize`` (thread/warp-level) annotations rather than explicit
    bindings, so the seven binding lengths are derived from those: the first
    three parallel loops stand in for blockIdx.{x,y,z} and the first
    (outermost) vectorized loop for threadIdx.x; the rest are zero.
    """
    parallel = [loop.extent for loop in loops if loop.annotation == "parallel"][:3]
    while len(parallel) < 3:
        parallel.append(0)
    vectorized = [loop.extent for loop in loops if loop.annotation == "vectorize"][:1]
    thread_x = vectorized[0] if vectorized else 0
    return parallel + [thread_x, 0, 0, 0]


# ---------------------------------------------------------------------------
# Arithmetic intensity curve
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _curve_grid(levels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sample points and level coordinates of a ``levels``-point curve."""
    return np.linspace(0, levels - 1, _CURVE_SAMPLES), np.arange(levels, dtype=np.float64)


def _arithmetic_intensity_curve(
    nest: StageNest, loops: Sequence[Iterator], table: List[List[float]]
) -> List[float]:
    """Sample the arithmetic-intensity-vs-loop-level curve at 10 points."""
    if not loops:
        return [0.0] * _CURVE_SAMPLES
    # Innermost level first, like the paper's per-level curve.  Trip counts
    # are integers far below 2**53, so their products are exact in any order.
    points: List[float] = []
    trip_suffix = 1.0
    for level in range(len(loops) - 1, -1, -1):
        trip_suffix *= loops[level].extent
        flops = nest.flops_per_iter * trip_suffix
        points.append(flops / max(sum(table[level]), 1.0))
    # Linear interpolation onto a fixed number of samples.
    xs, levels = _curve_grid(len(points))
    return np.interp(xs, levels, points).tolist()


# ---------------------------------------------------------------------------
# Buffer access features
# ---------------------------------------------------------------------------

_ACCESS_TYPES = ("read", "write", "read_write")
_REUSE_TYPES = ("LoopMultipleRead", "SerialMultipleRead", "NoReuse")
_ACCESS_ONE_HOT = {t: [float(t == u) for u in _ACCESS_TYPES] for t in _ACCESS_TYPES}
_REUSE_ONE_HOT = {t: [float(t == u) for u in _REUSE_TYPES] for t in _REUSE_TYPES}


def _buffer_features(nest: StageNest, table: List[List[float]]) -> List[float]:
    total_iters = max(nest.total_iterations(), 1)
    inner = nest.loops[-1] if nest.loops else None
    outer = len(nest.outer_context)

    # Merge multiple accesses to the same buffer into one record: the index
    # of its first access (its column of the footprint table), then its
    # read and write counts.
    merged: Dict[str, List[int]] = {}
    for index, access in enumerate(nest.accesses):
        record = merged.get(access.buffer)
        if record is None:
            record = merged[access.buffer] = [index, 0, 0]
        record[2 if access.is_write else 1] += 1

    records = list(merged.values())
    # Keep the largest buffers when there are more than the feature budget.
    records.sort(key=lambda r: nest.accesses[r[0]].size_bytes(), reverse=True)
    records = records[:_MAX_BUFFERS]

    features: List[float] = []
    for index, reads, writes in records:
        access = nest.accesses[index]
        count = reads + writes
        if reads and writes:
            access_type = "read_write"
        elif writes:
            access_type = "write"
        else:
            access_type = "read"

        touched_bytes = total_iters * access.dtype_bytes * count
        unique_bytes = table[0][index]
        lines = touched_bytes / _CACHE_LINE_BYTES
        unique_lines = max(unique_bytes / _CACHE_LINE_BYTES, 1.0)

        # Reuse analysis: find the innermost loop that does not change the
        # accessed elements (a pure reuse loop).
        reuse_type = "NoReuse"
        reuse_distance_iters = 0.0
        reuse_distance_bytes = 0.0
        reuse_count = 1.0
        suffix_trip = 1.0
        for idx in range(len(nest.loops) - 1, -1, -1):
            loop = nest.loops[idx]
            if not loop_affects_access(loop, access):
                reuse_type = "LoopMultipleRead"
                reuse_count = float(loop.extent)
                reuse_distance_iters = suffix_trip
                # bytes touched by the loops inside the reuse loop
                reuse_distance_bytes = table[outer + idx + 1][index]
                break
            suffix_trip *= loop.extent
        else:
            if count > 1:
                reuse_type = "SerialMultipleRead"
                reuse_count = float(count)

        stride = 0
        if inner is not None:
            stride = abs(loop_stride_elements(inner, access.element_strides()))

        per_reuse = max(reuse_count, 1.0)
        features += _ACCESS_ONE_HOT[access_type]
        features += (touched_bytes, unique_bytes, lines, unique_lines)
        features += _REUSE_ONE_HOT[reuse_type]
        features += (reuse_distance_iters, reuse_distance_bytes, reuse_count, stride)
        features += (
            touched_bytes / per_reuse,
            unique_bytes / per_reuse,
            lines / per_reuse,
            unique_lines / per_reuse,
        )

    per_buffer = 3 + 4 + 3 + 4 + 4
    features.extend([0.0] * (per_buffer * (_MAX_BUFFERS - len(records))))
    return features


# ---------------------------------------------------------------------------
# Putting it together
# ---------------------------------------------------------------------------


def _allocation_features(nest: StageNest) -> List[float]:
    writes = nest.writes()
    if writes:
        out_bytes = writes[0].size_bytes()
    else:
        out_bytes = 0
    return [out_bytes, len(writes)]


def _other_features(nest: StageNest) -> List[float]:
    n_outer = len(nest.outer_context)
    prod_outer = 1
    for loop in nest.outer_context:
        prod_outer *= loop.extent
    return [n_outer, prod_outer, nest.stage.auto_unroll_max_step]


def _feature_matrix(nests: Sequence[StageNest]) -> np.ndarray:
    """Feature rows of ``nests``, one per nest: raw rows, then one
    ``log2(1 + x)`` pass over all of them.  The arithmetic counts come from
    each op's access table, which lowering built."""
    raw: List[float] = []
    for nest in nests:
        op = nest.stage.op
        assert isinstance(op, ComputeOp)
        loops = nest.outer_context + nest.loops
        table = suffix_footprints(loops, nest.accesses)
        raw.extend(_arith_counts(access_table(op)))
        raw.extend(_annotation_features(loops, "vectorize"))
        raw.extend(_annotation_features(loops, "unroll"))
        raw.extend(_annotation_features(loops, "parallel"))
        raw.extend(_gpu_features(loops))
        raw.extend(_arithmetic_intensity_curve(nest, loops, table))
        raw.extend(_buffer_features(nest, table))
        raw.extend(_allocation_features(nest))
        raw.extend(_other_features(nest))
    values = np.maximum(np.array(raw, dtype=np.float64), 0.0)
    # 0 and 1 are fixed points of log2(1 + x): most values of a row (padding,
    # one-hot columns, absent annotations) need no call.
    moved = (values != 0.0) & (values != 1.0)
    shifted = values[moved] + 1.0
    values[moved] = np.fromiter(map(math.log2, shifted.tolist()), dtype=np.float64, count=shifted.size)
    return values.reshape(len(nests), FEATURE_LENGTH)


def extract_nest_features(nest: StageNest) -> np.ndarray:
    """Extract the feature vector of one innermost statement."""
    return _feature_matrix([nest])[0]


def feature_names() -> List[str]:
    """Human readable names for each feature dimension (for debugging)."""
    names: List[str] = []
    names += [f"float_{k}" for k in ("add", "sub", "mul", "div", "mod", "cmp", "intrin", "other")]
    names += [f"int_{k}" for k in ("add", "sub", "mul", "div", "mod", "cmp", "intrin", "other")]
    for ann in ("vec", "unroll", "parallel"):
        names += [f"{ann}_len"] + [f"{ann}_pos_{p}" for p in _POSITION_KINDS] + [f"{ann}_prod", f"{ann}_num"]
    names += [f"gpu_bind_{i}" for i in range(7)]
    names += [f"arith_intensity_{i}" for i in range(_CURVE_SAMPLES)]
    per_buffer = [
        "acc_read", "acc_write", "acc_rw", "bytes", "unique_bytes", "lines", "unique_lines",
        "reuse_loop", "reuse_serial", "reuse_none", "reuse_dist_iter", "reuse_dist_bytes",
        "reuse_count", "stride", "bytes_per_reuse", "unique_bytes_per_reuse",
        "lines_per_reuse", "unique_lines_per_reuse",
    ]
    for b in range(_MAX_BUFFERS):
        names += [f"buf{b}_{n}" for n in per_buffer]
    names += ["alloc_size", "alloc_count"]
    names += ["outer_loop_num", "outer_loop_prod", "auto_unroll_max_step"]
    return names


FEATURE_LENGTH = len(feature_names())


def _program_matrices(programs: Sequence[LoweredProgram]) -> List[np.ndarray]:
    """One feature matrix per program, all featurized in one pass."""
    rows = _feature_matrix([nest for program in programs for nest in program.nests.values()])
    out, start = [], 0
    for program in programs:
        out.append(rows[start:start + len(program.nests)].copy())
        start += len(program.nests)
    return out


def extract_program_features(state: State) -> np.ndarray:
    """Feature matrix of a complete program: one row per innermost statement.

    The matrix is read-only and memoized on the state, beside its lowered
    program."""
    features = state._features
    if features is None:
        features = _program_matrices([lower_state(state)])[0]
        features.flags.writeable = False
        state._features = features
    return features


def extract_program_features_batch(states: Sequence[State]) -> List[Optional[np.ndarray]]:
    """Feature matrices for a batch of states, one entry per state.

    A state that holds its matrix (see :func:`extract_program_features`)
    gets it back.  The others are grouped by program (DAG and fingerprint):
    each program is lowered once, all of them are featurized in one pass,
    and every state of a program gets, and keeps, the same read-only
    matrix.  The entry is ``None`` for a state whose lowering raises; an
    error raised while featurizing lowered programs propagates."""
    out: List[Optional[np.ndarray]] = [state._features for state in states]
    pending: Dict[Tuple[int, str], List[int]] = {}  # program -> positions of its unfeaturized states
    for position, state in enumerate(states):
        if out[position] is None:
            pending.setdefault((id(state.dag), state.fingerprint()), []).append(position)
    lowered = []
    for positions in pending.values():
        try:
            program = lower_state(states[positions[0]])
        except Exception:
            continue
        lowered.append((positions, program))
    matrices = _program_matrices([program for _, program in lowered])
    for (positions, _), features in zip(lowered, matrices):
        features.flags.writeable = False
        for position in positions:
            out[position] = states[position]._features = features
    return out
