"""Feature and footprint parity: the batched featurizer and the simulator's
shared suffix-footprint table must reproduce the per-nest code they
replaced, bit for bit.

The reference below is that earlier implementation, unchanged: the per-nest
feature extractor, which recomputes every loop suffix's footprint from
scratch and applies ``log2(1 + x)`` value by value, and the simulator's
per-suffix ``_access_footprint_bytes`` loop.  Rows are compared through
``.view(np.uint64)``, so even a last-bit difference fails.
"""

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import te
from repro.codegen.lowering import BufferAccess, StageNest, lower_state
from repro.cost_model.features import (
    FEATURE_LENGTH,
    extract_nest_features,
    extract_program_features,
    extract_program_features_batch,
)
from repro.hardware import CostSimulator, intel_cpu
from repro.hardware.platform import wide_vector_cpu
from repro.ir.loop import Iterator
from repro.search import (
    generate_sketches,
    random_mutation,
    sample_complete_program,
    sample_initial_population,
)
from repro.task import SearchTask
from repro.te.dag import ComputeDAG
from repro.te.expr import (
    Add,
    Call,
    Compare,
    Div,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Reduce,
    Select,
    Sub,
    post_order_visit,
)
from repro.te.operation import ComputeOp
from repro.variants.registry import expand_variants
from repro.workloads.networks import mobilenet_v2_tasks
from repro.workloads.ops import matmul_relu


# ---------------------------------------------------------------------------
# Reference footprint helpers (formerly private to the simulator)
# ---------------------------------------------------------------------------


def _axis_range(axis: str, loops: Sequence[Iterator]) -> int:
    """Span of one original axis covered by a set of loops."""
    span = 1
    for loop in loops:
        stride = loop.axis_strides.get(axis, 0)
        if stride:
            span += abs(stride) * (loop.extent - 1)
    return span


def _access_footprint_bytes(access: BufferAccess, loops: Sequence[Iterator]) -> float:
    """Approximate distinct bytes of ``access`` touched by the given loops."""
    elements = 1.0
    for dim_idx, coeffs in enumerate(access.dim_coeffs):
        covered = 1
        for axis, coeff in coeffs.items():
            covered += abs(coeff) * (_axis_range(axis, loops) - 1)
        elements *= min(covered, access.shape[dim_idx])
    return elements * access.dtype_bytes


def _loop_affects_access(loop: Iterator, access: BufferAccess) -> bool:
    """True when iterating ``loop`` changes which elements ``access`` touches."""
    for coeffs in access.dim_coeffs:
        for axis in coeffs:
            if loop.axis_strides.get(axis, 0) != 0:
                return True
    return False


def _access_stride_elements(access: BufferAccess, loop: Iterator) -> int:
    """Stride in buffer elements of one step of ``loop`` for ``access``."""
    strides = access.element_strides()
    total = 0
    for axis, factor in loop.axis_strides.items():
        total += factor * strides.get(axis, 0)
    return total



# ---------------------------------------------------------------------------
# Reference per-nest feature extractor
# ---------------------------------------------------------------------------


_MAX_BUFFERS = 5
_CURVE_SAMPLES = 10
_CACHE_LINE_BYTES = 64


def _log(x: float) -> float:
    return math.log2(1.0 + max(x, 0.0))


# ---------------------------------------------------------------------------
# Arithmetic features
# ---------------------------------------------------------------------------


def _arith_counts(op: ComputeOp) -> List[float]:
    """Counts of float arithmetic by category, then integer arithmetic."""
    add = sub = mul = div = mod = cmp = intrinsic = other = 0

    def visit(node: Expr) -> None:
        nonlocal add, sub, mul, div, mod, cmp, intrinsic, other
        if isinstance(node, Add):
            add += 1
        elif isinstance(node, Sub):
            sub += 1
        elif isinstance(node, Mul):
            mul += 1
        elif isinstance(node, (Div, FloorDiv)):
            div += 1
        elif isinstance(node, Mod):
            mod += 1
        elif isinstance(node, Compare):
            cmp += 1
        elif isinstance(node, Call):
            intrinsic += 1
        elif isinstance(node, (Max, Min, Select)):
            other += 1
        elif isinstance(node, Reduce):
            add += 1  # the accumulate

    post_order_visit(op.body, visit)
    float_counts = [add, sub, mul, div, mod, cmp, intrinsic, other]
    # Integer arithmetic: index computation — approximate by the number of
    # non-trivial index expressions in the reads.
    int_add = int_mul = 0
    for read in op.reads():
        for index in read.indices:
            n_nodes = 0

            def count(node: Expr) -> None:
                nonlocal n_nodes
                n_nodes += 1

            post_order_visit(index, count)
            if n_nodes > 1:
                int_add += 1
                int_mul += 1
    int_counts = [int_add, 0, int_mul, 0, 0, 0, 0, 0]
    return [_log(c) for c in float_counts + int_counts]


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
    return [_log(innermost.extent)] + one_hot + [_log(product), _log(len(annotated))]


def _gpu_features(loops: Sequence[Iterator]) -> List[float]:
    """GPU thread-binding lengths.

    This IR expresses GPU mapping through ``parallel`` (block-level) and
    ``vectorize`` (thread/warp-level) annotations rather than explicit
    bindings, so the seven binding lengths are derived from those: the first
    three parallel loops stand in for blockIdx.{x,y,z} and the innermost
    vectorized loop for threadIdx.x; the rest are zero.
    """
    parallel = [loop.extent for loop in loops if loop.annotation == "parallel"][:3]
    while len(parallel) < 3:
        parallel.append(0)
    vectorized = [loop.extent for loop in loops if loop.annotation == "vectorize"][:1]
    thread_x = vectorized[0] if vectorized else 0
    values = parallel + [thread_x, 0, 0, 0]
    return [_log(v) for v in values]


# ---------------------------------------------------------------------------
# Arithmetic intensity curve
# ---------------------------------------------------------------------------


def _arithmetic_intensity_curve(nest: StageNest) -> List[float]:
    """Sample the arithmetic-intensity-vs-loop-level curve at 10 points."""
    loops = list(nest.outer_context) + list(nest.loops)
    if not loops:
        return [0.0] * _CURVE_SAMPLES
    points: List[float] = []
    trip = 1.0
    for level in range(len(loops)):
        suffix = loops[level:]
        trip_suffix = 1.0
        for loop in suffix:
            trip_suffix *= loop.extent
        flops = nest.flops_per_iter * trip_suffix
        bytes_accessed = 0.0
        for access in nest.accesses:
            # distinct bytes touched by the suffix loops
            bytes_accessed += _access_footprint_bytes(access, suffix)
        intensity = flops / max(bytes_accessed, 1.0)
        points.append(intensity)
    points = points[::-1]  # innermost first, like the paper's per-level curve
    # Linear interpolation onto a fixed number of samples.
    xs = np.linspace(0, len(points) - 1, _CURVE_SAMPLES)
    interp = np.interp(xs, np.arange(len(points)), np.array(points))
    return [_log(v) for v in interp]


# ---------------------------------------------------------------------------
# Buffer access features
# ---------------------------------------------------------------------------

_ACCESS_TYPES = ("read", "write", "read_write")
_REUSE_TYPES = ("LoopMultipleRead", "SerialMultipleRead", "NoReuse")


def _buffer_features(nest: StageNest) -> List[float]:
    loops = list(nest.outer_context) + list(nest.loops)
    total_iters = max(nest.total_iterations(), 1)
    inner = nest.loops[-1] if nest.loops else None

    # Merge multiple accesses to the same buffer into one record.
    merged: Dict[str, Dict] = {}
    for access in nest.accesses:
        entry = merged.setdefault(
            access.buffer, {"access": access, "read": False, "write": False, "count": 0}
        )
        entry["read"] |= not access.is_write
        entry["write"] |= access.is_write
        entry["count"] += 1

    records = list(merged.values())
    # Keep the largest buffers when there are more than the feature budget.
    records.sort(key=lambda e: e["access"].size_bytes(), reverse=True)
    records = records[:_MAX_BUFFERS]

    features: List[float] = []
    for entry in records:
        access: BufferAccess = entry["access"]
        if entry["read"] and entry["write"]:
            access_type = "read_write"
        elif entry["write"]:
            access_type = "write"
        else:
            access_type = "read"
        type_one_hot = [1.0 if access_type == t else 0.0 for t in _ACCESS_TYPES]

        touched_bytes = total_iters * access.dtype_bytes * entry["count"]
        unique_bytes = _access_footprint_bytes(access, loops)
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
            if not _loop_affects_access(loop, access):
                reuse_type = "LoopMultipleRead"
                reuse_count = float(loop.extent)
                reuse_distance_iters = suffix_trip
                reuse_distance_bytes = _access_footprint_bytes(access, nest.loops[idx + 1:])
                break
            suffix_trip *= loop.extent
        else:
            if entry["count"] > 1:
                reuse_type = "SerialMultipleRead"
                reuse_count = float(entry["count"])
        reuse_one_hot = [1.0 if reuse_type == t else 0.0 for t in _REUSE_TYPES]

        stride = abs(_access_stride_elements(access, inner)) if inner is not None else 0

        features.extend(type_one_hot)
        features.append(_log(touched_bytes))
        features.append(_log(unique_bytes))
        features.append(_log(lines))
        features.append(_log(unique_lines))
        features.extend(reuse_one_hot)
        features.append(_log(reuse_distance_iters))
        features.append(_log(reuse_distance_bytes))
        features.append(_log(reuse_count))
        features.append(_log(stride))
        features.append(_log(touched_bytes / max(reuse_count, 1.0)))
        features.append(_log(unique_bytes / max(reuse_count, 1.0)))
        features.append(_log(lines / max(reuse_count, 1.0)))
        features.append(_log(unique_lines / max(reuse_count, 1.0)))

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
    return [_log(out_bytes), _log(len(writes))]


def _other_features(nest: StageNest) -> List[float]:
    n_outer = len(nest.outer_context)
    prod_outer = 1
    for loop in nest.outer_context:
        prod_outer *= loop.extent
    return [_log(n_outer), _log(prod_outer), _log(nest.stage.auto_unroll_max_step)]


def reference_nest_features(nest: StageNest) -> np.ndarray:
    """Extract the feature vector of one innermost statement."""
    loops = list(nest.outer_context) + list(nest.loops)
    op = nest.stage.op
    assert isinstance(op, ComputeOp)
    parts: List[float] = []
    parts.extend(_arith_counts(op))
    parts.extend(_annotation_features(loops, "vectorize"))
    parts.extend(_annotation_features(loops, "unroll"))
    parts.extend(_annotation_features(loops, "parallel"))
    parts.extend(_gpu_features(loops))
    parts.extend(_arithmetic_intensity_curve(nest))
    parts.extend(_buffer_features(nest))
    parts.extend(_allocation_features(nest))
    parts.extend(_other_features(nest))
    return np.asarray(parts, dtype=np.float64)



def reference_program_features(program) -> np.ndarray:
    rows = [reference_nest_features(nest) for nest in program.all_nests()]
    return np.vstack(rows) if rows else np.zeros((0, FEATURE_LENGTH))


class ReferenceSimulator(CostSimulator):
    """The simulator with its per-suffix footprint loop."""

    def _vector_speedup(self, nest: StageNest) -> float:
        hw = self.hardware
        if not nest.loops:
            return 1.0
        inner = nest.loops[-1]
        if inner.annotation != "vectorize":
            # GPUs still execute warps, but an uncoalesced / unannotated inner
            # loop wastes most lanes.
            return 1.0 if hw.kind == "cpu" else 2.0
        lanes = min(inner.extent, hw.vector_lanes)
        if lanes <= 1:
            return 1.0
        reads = nest.reads()
        if reads:
            contiguous = 0
            for access in reads:
                stride = abs(_access_stride_elements(access, inner))
                if stride <= 1:
                    contiguous += 1
            contig_fraction = contiguous / len(reads)
        else:
            contig_fraction = 1.0
        fill = 1.0
        if inner.extent % hw.vector_lanes != 0 and inner.extent > hw.vector_lanes:
            fill = 0.85
        speedup = 1.0 + (lanes - 1) * (0.2 + 0.8 * contig_fraction) * fill
        return speedup

    # -- memory hierarchy --------------------------------------------------
    def _memory_time(
        self, nest: StageNest, full_loops: Sequence[Iterator], parallel_factor: float
    ) -> Tuple[float, Dict[str, float]]:
        hw = self.hardware
        accesses = nest.accesses
        if not accesses:
            return 0.0, {}

        # Precompute per-access footprints for every loop suffix.
        n_loops = len(full_loops)
        suffix_footprints: List[List[float]] = []  # [suffix_start][access]
        for start in range(n_loops + 1):
            suffix = full_loops[start:]
            suffix_footprints.append([_access_footprint_bytes(a, suffix) for a in accesses])

        combined = [sum(per_access) for per_access in suffix_footprints]

        time_total = 0.0
        traffic_report: Dict[str, float] = {}
        levels = list(hw.cache_levels)
        for level_idx, level in enumerate(levels):
            # Find the outermost suffix start whose working set fits.
            fit_start = n_loops
            for start in range(n_loops + 1):
                if combined[start] <= level.capacity_bytes:
                    fit_start = start
                    break
            traffic = 0.0
            for acc_idx, access in enumerate(accesses):
                prefix_trips = 1
                for loop in full_loops[:fit_start]:
                    prefix_trips *= loop.extent
                footprint = suffix_footprints[fit_start][acc_idx]
                compulsory = suffix_footprints[0][acc_idx]
                total_bytes = prefix_trips * footprint
                # Never less than touching the data once, never more than one
                # access per iteration.
                max_bytes = nest.total_iterations() * access.dtype_bytes
                traffic += min(max(total_bytes, compulsory), max_bytes + compulsory)
            # Traffic at this boundary is served by the *next* level.
            if level_idx + 1 < len(levels):
                provider_bw = levels[level_idx + 1].bandwidth_bytes_per_sec
                provider_shared = levels[level_idx + 1].shared
            else:
                provider_bw = hw.dram_bandwidth_bytes_per_sec
                provider_shared = True
            if provider_shared:
                scale = min(parallel_factor, hw.dram_parallel_scaling)
            else:
                scale = parallel_factor
            time_total += traffic / (provider_bw * max(scale, 1.0))
            traffic_report[f"beyond_{level.name}"] = traffic
        return time_total, traffic_report


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

CONV2D_PARAMS = dict(
    batch=1, in_channels=16, height=14, width=14,
    out_channels=16, kernel=3, stride=2, padding=1,
)


def _matmul_task():
    return SearchTask(matmul_relu(128, 128, 128), intel_cpu())


def _conv2d_variant_task():
    tasks = expand_variants("conv2d", CONV2D_PARAMS, hardware=wide_vector_cpu())
    return next(task for task in tasks if task.variant == "im2col")


def _depthwise_task():
    layer = next(t for t in mobilenet_v2_tasks() if "depthwise" in t.desc)
    return SearchTask(layer.dag, intel_cpu())


TASKS = {
    "matmul_relu": _matmul_task,
    "conv2d_im2col": _conv2d_variant_task,
    "mobilenet_depthwise": _depthwise_task,
}


def _population(task, seed, count=24, chain=2):
    """Seeded complete programs of ``task``, then a short chain of random
    mutations from each."""
    rng = np.random.default_rng(seed)
    states = sample_initial_population(task, generate_sketches(task), count, rng)
    children = []
    for state in states:
        for _ in range(chain):
            state = random_mutation(state, rng)
            if state is None:
                break
            children.append(state)
    return states + children


def _bits(matrix: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)


def assert_rows_match_reference(states, matrices):
    assert len(matrices) == len(states)
    for state, features in zip(states, matrices):
        expected = reference_program_features(lower_state(state))
        assert features.shape == expected.shape
        assert np.array_equal(_bits(features), _bits(expected))


# ---------------------------------------------------------------------------
# Feature rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(TASKS))
def test_batch_rows_match_reference(name, seed):
    states = _population(TASKS[name](), seed)
    assert len(states) > 24
    assert_rows_match_reference(states, extract_program_features_batch(states))


@pytest.mark.parametrize("name", sorted(TASKS))
def test_single_state_and_nest_paths_match_reference(name):
    states = _population(TASKS[name](), 2, count=8, chain=1)
    for state in states:
        expected = reference_program_features(lower_state(state))
        fresh = extract_program_features(state.copy())
        assert np.array_equal(_bits(fresh), _bits(expected))
        for row, nest in zip(expected, lower_state(state).all_nests()):
            assert np.array_equal(_bits(extract_nest_features(nest)), _bits(row))


def test_attached_nests_match_reference():
    task = _matmul_task()
    state = task.compute_dag.init_state()
    state.split("C", 0, [4, 8])
    state.split("C", 3, [16])
    state.reorder("C", [0, 3, 1, 5, 2, 4])
    state.parallel("C", 0)
    state.vectorize("C", 5)
    state.compute_at("D", "C", 2)
    # The cache stage, computed at a tile of C, reads A under its loop over
    # C's columns: a reuse loop inside a nest with an outer context.
    cached = task.compute_dag.init_state()
    cached.cache_write("C")
    cached.split("C", 0, [8])
    cached.split("C", 2, [16])
    cached.reorder("C", [0, 2, 1, 3])
    cached.compute_at("C.cache", "C", 1)
    states = [state, cached]
    programs = [lower_state(s) for s in states]
    assert all(any(nest.outer_context for nest in p.all_nests()) for p in programs)
    assert_rows_match_reference(states, extract_program_features_batch(states))
    # ... and among the sampled programs, with their annotations
    population = _population(task, 3, count=32, chain=0)
    attached = [
        s for s in population
        if any(nest.outer_context for nest in lower_state(s).all_nests())
    ]
    assert attached
    assert_rows_match_reference(attached, extract_program_features_batch(attached))


def test_nest_without_loops_matches_reference():
    A = te.placeholder((4,), name="A")
    B = te.compute((), lambda: A[0] * te.const(2.0), name="B")
    C = te.compute((4,), lambda i: A[i] + B[()], name="C")
    state = ComputeDAG([C]).init_state()
    nests = lower_state(state).all_nests()
    assert any(not nest.loops and not nest.outer_context for nest in nests)
    assert_rows_match_reference([state], extract_program_features_batch([state]))


def test_same_state_twice_in_one_batch():
    states = _population(_matmul_task(), 4, count=4, chain=0)
    batch = [states[0], states[1], states[0], states[0].copy()]
    matrices = extract_program_features_batch(batch)
    assert matrices[0] is matrices[2] is matrices[3]
    assert_rows_match_reference(batch, matrices)
    # a later batch serves them from the cache
    again = extract_program_features_batch(batch[:2])
    assert again[0] is matrices[0] and again[1] is matrices[1]


@given(seed=st.integers(0, 10_000), chain=st.integers(1, 6))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_mutation_chains_match_reference(seed, chain):
    task = SearchTask(matmul_relu(64, 64, 64), intel_cpu())
    rng = np.random.default_rng(seed)
    state = sample_complete_program(task, generate_sketches(task), rng)
    states = [state]
    for _ in range(chain):
        state = random_mutation(state, rng)
        if state is None:
            break
        states.append(state)
    assert_rows_match_reference(states, extract_program_features_batch(states))


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TASKS))
def test_simulator_matches_per_suffix_reference(name):
    task = TASKS[name]()
    simulator = CostSimulator(task.hardware_params)
    reference = ReferenceSimulator(task.hardware_params)
    for state in _population(task, 5, count=16, chain=2):
        program = lower_state(state)
        got = simulator.estimate_lowered(program)
        expected = reference.estimate_lowered(program)
        assert got.total_seconds.hex() == expected.total_seconds.hex()
        for nest, ref in zip(got.nests, expected.nests):
            assert (nest.compute_time, nest.memory_time, nest.overhead_time) == (
                ref.compute_time, ref.memory_time, ref.overhead_time
            )
            assert nest.traffic_bytes == ref.traffic_bytes
