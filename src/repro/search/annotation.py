"""Random annotation: turning sketches into complete programs (§4.2).

Given a sketch (a program whose tile structure is fixed but whose split
steps carry placeholder tile sizes), the annotation pass:

1. fills out random tile sizes (sampled from the divisors of each loop
   extent, respecting a maximum innermost factor),
2. parallelizes some outer loops (fusing the outermost space levels),
3. vectorizes some inner loops,
4. unrolls a few inner loops (through the ``auto_unroll_max_step`` pragma),
5. randomly changes the computation location of some simple nodes.

Every decision is recorded as a transform step, so the resulting complete
program carries a full rewriting history (the "genes" used by evolution).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.platform import HardwareParams
from ..ir.loop import Stage
from ..ir.state import State
from ..ir.steps import SplitStep
from ..task import SearchTask
from ..te.operation import ComputeOp
from .space import FULL_SPACE, SearchSpaceOptions

__all__ = [
    "random_factor_split",
    "fill_tile_sizes",
    "annotate_state",
    "sample_complete_program",
    "sample_initial_population",
]


def _divisors(n: int) -> List[int]:
    result = [d for d in range(1, n + 1) if n % d == 0]
    return result


def random_factor_split(
    extent: int, n_inner: int, rng: np.random.Generator, max_innermost: int = 64
) -> List[int]:
    """Sample ``n_inner`` inner tile lengths whose product divides ``extent``.

    The innermost length is bounded by ``max_innermost`` so vectorized loops
    stay register-sized.
    """
    lengths: List[int] = []
    remaining = extent
    for part in range(n_inner):
        divisors = _divisors(remaining)
        if part == n_inner - 1:
            divisors = [d for d in divisors if d <= max_innermost] or [1]
        choice = divisors[int(rng.integers(len(divisors)))]  # as rng.choice(divisors)
        lengths.append(choice)
        remaining //= choice
    # Lengths were sampled outermost-inner first; SplitStep expects them in
    # nesting order (first entry is the outermost of the inner parts), which
    # is what we produced.
    return lengths


def fill_tile_sizes(
    sketch: State,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
) -> State:
    """Replace placeholder split lengths with random concrete tile sizes,
    replaying the filled steps in order onto a fresh state.

    Each split's lengths are drawn from its iterator's extent at the time
    of the split, which the partly replayed state holds."""
    state = sketch.dag.init_state()
    for step in sketch.transform_steps:
        step = step.copy()
        if isinstance(step, SplitStep) and step.is_placeholder:
            stage = state.stage(step.stage_name)
            extent = stage.iters[step.iter_id].extent
            step.lengths = random_factor_split(
                extent, len(step.lengths), rng, options.max_innermost_split_factor
            )
        state.apply_step(step)
    return state


# ---------------------------------------------------------------------------
# Annotation of a concrete program
# ---------------------------------------------------------------------------


def _is_multilevel_tiled(stage: Stage) -> bool:
    """Heuristic: a stage whose iterators were split has more loops than axes."""
    op = stage.op
    if not isinstance(op, ComputeOp):
        return False
    return len(stage.iters) > len(op.axes) + len(op.reduce_axes)


def _leading_spatial_run(stage: Stage) -> int:
    """Number of consecutive spatial iterators at the start of the nest."""
    count = 0
    for it in stage.iters:
        if it.is_spatial():
            count += 1
        else:
            break
    return count


def _annotate_parallel(
    state: State, stage: Stage, task: SearchTask, rng: np.random.Generator, options: SearchSpaceOptions
) -> None:
    """Fuse outer space loops and mark the result parallel."""
    if not options.enable_parallel:
        return
    name = stage.name
    run = _leading_spatial_run(stage)
    if run == 0:
        return
    op = stage.op
    n_spatial_axes = len(op.axes) if isinstance(op, ComputeOp) else run
    hardware = task.hardware_params
    if _is_multilevel_tiled(stage):
        # Fuse the first space level; on wide machines (GPU) or when the
        # random draw says so, include the second level too.
        fuse_levels = 1
        if hardware.kind == "gpu" or rng.random() < 0.5:
            fuse_levels = 2
        count = min(n_spatial_axes * fuse_levels, run)
    else:
        # Untiled stage: fuse a random prefix of its spatial loops.
        count = int(rng.integers(1, run + 1))
    if count >= 2:
        state.fuse(name, list(range(count)))
    state.parallel(name, 0)


def _annotate_vectorize(
    state: State, stage: Stage, rng: np.random.Generator, options: SearchSpaceOptions
) -> None:
    if not options.enable_vectorize:
        return
    stage = state.stage(stage.name)
    if not stage.iters:
        return
    inner = stage.iters[-1]
    if not inner.is_spatial():
        return
    if inner.annotation != "none":
        return
    if inner.extent == 1 and rng.random() < 0.5:
        return
    state.vectorize(stage.name, len(stage.iters) - 1)


def _annotate_unroll(
    state: State, stage: Stage, rng: np.random.Generator, options: SearchSpaceOptions
) -> None:
    op = stage.op
    if not isinstance(op, ComputeOp) or not op.reduce_axes:
        return
    candidates = options.auto_unroll_candidates
    value = int(candidates[int(rng.integers(len(candidates)))])  # as rng.choice(candidates)
    if value > 0:
        state.pragma(stage.name, "auto_unroll_max_step", value)


def _maybe_change_compute_location(
    state: State, stage: Stage, rng: np.random.Generator, options: SearchSpaceOptions
) -> None:
    """Randomly tweak the computation location of simple non-tiled stages."""
    if not options.enable_compute_location_change:
        return
    if rng.random() > 0.3:
        return
    name = stage.name
    if state.is_output_stage(name):
        return
    consumers = state.stage_consumers(name)
    if len(consumers) != 1:
        return
    consumer = consumers[0]
    choice = rng.random()
    if choice < 0.4:
        state.compute_inline(name)
    elif choice < 0.8 and consumer.iters:
        spatial_run = _leading_spatial_run(consumer)
        if spatial_run == 0:
            return
        attach = int(rng.integers(0, spatial_run))
        state.compute_at(name, consumer.name, attach)
    # else: leave at root


def annotate_state(
    state: State,
    task: SearchTask,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
) -> State:
    """Randomly annotate a concrete (tile sizes filled) program in place."""
    # Snapshot stage names first: annotation appends stages' steps but never
    # adds or removes stages.
    stage_names = [s.name for s in state.stages]
    for name in stage_names:
        stage = state.stage(name)
        if stage.is_placeholder() or stage.is_inlined():
            continue
        op = stage.op
        if not isinstance(op, ComputeOp):
            continue
        at_root = stage.compute_location.kind == "root"
        tiled = _is_multilevel_tiled(stage)
        if at_root:
            if not tiled and not state.is_output_stage(name) and not op.has_reduction():
                _maybe_change_compute_location(state, stage, rng, options)
                stage = state.stage(name)
                if stage.is_inlined():
                    continue
                if stage.compute_location.kind != "root":
                    _annotate_vectorize(state, stage, rng, options)
                    continue
            _annotate_parallel(state, stage, task, rng, options)
            _annotate_unroll(state, stage, rng, options)
            _annotate_vectorize(state, stage, rng, options)
        else:
            # Attached stages (fused consumers / cache copies): vectorize the
            # innermost loop; occasionally fuse their spatial loops first.
            stage = state.stage(name)
            run = _leading_spatial_run(stage)
            if run >= 2 and rng.random() < 0.5:
                state.fuse(name, list(range(run)))
            _annotate_vectorize(state, state.stage(name), rng, options)
    return state


def sample_complete_program(
    task: SearchTask,
    sketches: Sequence[State],
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
) -> State:
    """Pick a random sketch, fill tile sizes and annotate it (§4.2)."""
    sketch = sketches[int(rng.integers(0, len(sketches)))]
    state = fill_tile_sizes(sketch, rng, options)
    return annotate_state(state, task, rng, options)


def sample_initial_population(
    task: SearchTask,
    sketches: Sequence[State],
    count: int,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
) -> List[State]:
    """Sample a population of complete programs from the sketches."""
    population: List[State] = []
    seen = set()
    attempts = 0
    while len(population) < count and attempts < count * 10:
        attempts += 1
        try:
            state = sample_complete_program(task, sketches, rng, options)
        except Exception:
            continue
        key = state.fingerprint()
        if key in seen:
            continue
        seen.add(key)
        population.append(state)
    return population
