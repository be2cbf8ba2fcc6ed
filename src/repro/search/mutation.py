"""Evolution operators: mutations and node-based crossover (§5.1).

Every program carries its complete rewriting history (the transform steps),
which are its genes.  Mutations rewrite one decision in the step list and
replay; crossover recombines the per-node step groups of two parents.
Offspring that fail to replay into a valid program are rejected (the paper's
"Ansor further verifies the merged programs").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen.lowering import lower_state
from ..ir.state import State
from ..ir.steps import AnnotationStep, ComputeAtStep, FuseStep, PragmaStep, SplitStep, Step
from ..task import SearchTask
from .space import FULL_SPACE, SearchSpaceOptions

__all__ = [
    "mutate_tile_size",
    "mutate_auto_unroll",
    "mutate_parallel_degree",
    "mutate_compute_location",
    "random_mutation",
    "mutate_with_operator",
    "node_based_crossover",
    "MUTATION_OPERATORS",
]


def _try_replay(dag, steps: Sequence[Step]) -> Optional[State]:
    """Replay a step list and validate the result; ``None`` when invalid."""
    try:
        state = State.from_steps(dag, [s.copy() for s in steps])
        lower_state(state)  # validates structural consistency
        return state
    except Exception:
        return None


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def mutate_tile_size(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE
) -> Optional[State]:
    """Tile size mutation (§5.1).

    Pick one concrete split step, divide one of its parts by a random factor
    and multiply another part by the same factor.  The product of the tile
    sizes is preserved, so the mutated program is always valid.
    """
    steps = [s.copy() for s in state.transform_steps]
    split_ids = [
        i
        for i, s in enumerate(steps)
        if isinstance(s, SplitStep) and not s.is_placeholder and len(s.lengths) >= 1
    ]
    if not split_ids:
        return None
    target_idx = int(rng.choice(split_ids))
    target = steps[target_idx]
    assert isinstance(target, SplitStep)
    # Reconstruct the full extent of the original iterator to derive the
    # implicit outer part.
    scratch = state.dag.init_state()
    outer = None
    for i, step in enumerate(state.transform_steps):
        if i == target_idx:
            stage = scratch.stage(target.stage_name)
            extent = stage.iters[target.iter_id].extent
            inner = 1
            for length in target.concrete_lengths():
                inner *= length
            outer = extent // inner
            break
        scratch.apply_step(step.copy())
    if outer is None:
        return None

    parts = [outer] + list(target.concrete_lengths())
    candidates = [i for i, p in enumerate(parts) if p > 1]
    if not candidates:
        return None
    src = int(rng.choice(candidates))
    dst_choices = [i for i in range(len(parts)) if i != src]
    dst = int(rng.choice(dst_choices))
    divisors = [d for d in _divisors(parts[src]) if d > 1]
    if not divisors:
        return None
    factor = int(rng.choice(divisors))
    parts[src] //= factor
    parts[dst] *= factor
    if parts[-1] > options.max_innermost_split_factor:
        return None
    target.lengths = parts[1:]
    return _try_replay(state.dag, steps)


def mutate_auto_unroll(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE
) -> Optional[State]:
    """Change the value of one auto_unroll_max_step pragma."""
    steps = [s.copy() for s in state.transform_steps]
    pragma_ids = [i for i, s in enumerate(steps) if isinstance(s, PragmaStep)]
    if not pragma_ids:
        return None
    target = steps[int(rng.choice(pragma_ids))]
    assert isinstance(target, PragmaStep)
    choices = [c for c in options.auto_unroll_candidates if c != target.value]
    if not choices:
        return None
    target.value = int(rng.choice(choices))
    return _try_replay(state.dag, steps)


def mutate_parallel_degree(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE
) -> Optional[State]:
    """Parallel granularity mutation (§5.1).

    Change the number of loop levels fused into the parallel loop by one,
    either coarsening (fuse one more level) or refining (drop one level).
    """
    steps = [s.copy() for s in state.transform_steps]
    # Find fuse steps whose stage later receives a parallel annotation on
    # iterator 0 — those are the parallel fusions created by annotation.
    candidates = []
    for i, step in enumerate(steps):
        if not isinstance(step, FuseStep) or step.iter_ids[0] != 0:
            continue
        for later in steps[i + 1:]:
            if (
                isinstance(later, AnnotationStep)
                and later.stage_name == step.stage_name
                and later.annotation == "parallel"
                and later.iter_id == 0
            ):
                candidates.append(i)
                break
    if not candidates:
        return None
    idx = int(rng.choice(candidates))
    fuse = steps[idx]
    assert isinstance(fuse, FuseStep)
    if rng.random() < 0.5 and len(fuse.iter_ids) > 2:
        fuse.iter_ids = fuse.iter_ids[:-1]
    else:
        fuse.iter_ids = fuse.iter_ids + [fuse.iter_ids[-1] + 1]
    return _try_replay(state.dag, steps)


def mutate_compute_location(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE
) -> Optional[State]:
    """Move a compute_at attachment one loop up or down in its target stage."""
    if not options.enable_compute_location_change:
        return None
    steps = [s.copy() for s in state.transform_steps]
    at_ids = [i for i, s in enumerate(steps) if isinstance(s, ComputeAtStep)]
    if not at_ids:
        return None
    target = steps[int(rng.choice(at_ids))]
    assert isinstance(target, ComputeAtStep)
    delta = int(rng.choice([-1, 1]))
    if target.target_iter + delta < 0:
        return None
    target.target_iter += delta
    return _try_replay(state.dag, steps)


MUTATION_OPERATORS: List[Tuple[Callable, float]] = [
    (mutate_tile_size, 0.55),
    (mutate_auto_unroll, 0.15),
    (mutate_parallel_degree, 0.15),
    (mutate_compute_location, 0.15),
]


def random_mutation(
    state: State,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
    max_attempts: int = 4,
) -> Optional[State]:
    """Apply one randomly chosen mutation operator; retry a few times."""
    operators = [op for op, _ in MUTATION_OPERATORS]
    weights = np.array([w for _, w in MUTATION_OPERATORS])
    weights = weights / weights.sum()
    for _ in range(max_attempts):
        op = operators[int(rng.choice(len(operators), p=weights))]
        child = op(state, rng, options)
        if child is not None:
            return child
    return None


def mutate_with_operator(
    state: State,
    op_index: int,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
    max_attempts: int = 4,
) -> Optional[State]:
    """Apply the mutation operator at ``op_index`` of
    :data:`MUTATION_OPERATORS`; when it fails to produce a valid program,
    fall back to freshly drawn operators like :func:`random_mutation`."""
    op = MUTATION_OPERATORS[int(op_index)][0]
    child = op(state, rng, options)
    if child is not None or max_attempts <= 1:
        return child
    return random_mutation(state, rng, options, max_attempts=max_attempts - 1)


# ---------------------------------------------------------------------------
# Node-based crossover
# ---------------------------------------------------------------------------


def _node_of_step(step: Step) -> Optional[str]:
    name = getattr(step, "stage_name", None)
    if name is None:
        return None
    return name.split(".")[0]


def node_based_crossover(
    parent_a: State,
    parent_b: State,
    node_scores_a: Dict[str, float],
    node_scores_b: Dict[str, float],
    rng: np.random.Generator,
) -> Optional[State]:
    """Combine the rewriting steps of two parents at node granularity (§5.1).

    For every DAG node, the steps of the parent whose node score is higher
    are kept (ties and unknown scores resolve randomly).  The primary parent
    (higher total score) provides the step ordering; the selected nodes'
    steps of the other parent are substituted in place.  The merged step list
    is replayed and validated; ``None`` is returned when the combination is
    invalid.
    """
    total_a = sum(node_scores_a.values())
    total_b = sum(node_scores_b.values())
    if total_b > total_a:
        parent_a, parent_b = parent_b, parent_a
        node_scores_a, node_scores_b = node_scores_b, node_scores_a

    nodes = {
        node
        for node in (
            [_node_of_step(s) for s in parent_a.transform_steps]
            + [_node_of_step(s) for s in parent_b.transform_steps]
        )
        if node is not None
    }
    take_from_b = set()
    for node in nodes:
        score_a = node_scores_a.get(node)
        score_b = node_scores_b.get(node)
        if score_a is None or score_b is None:
            if rng.random() < 0.25:
                take_from_b.add(node)
        elif score_b > score_a:
            take_from_b.add(node)
        elif score_b == score_a and rng.random() < 0.5:
            take_from_b.add(node)
    if not take_from_b:
        # Nothing to exchange; force a random node swap so crossover explores.
        if nodes:
            take_from_b.add(rng.choice(sorted(nodes)))

    merged: List[Step] = []
    inserted_b_nodes = set()
    for step in parent_a.transform_steps:
        node = _node_of_step(step)
        if node in take_from_b:
            if node not in inserted_b_nodes:
                inserted_b_nodes.add(node)
                for other in parent_b.transform_steps:
                    if _node_of_step(other) == node:
                        merged.append(other.copy())
            continue
        merged.append(step.copy())
    # Nodes present only in parent_b's history.
    for node in take_from_b - inserted_b_nodes:
        for other in parent_b.transform_steps:
            if _node_of_step(other) == node:
                merged.append(other.copy())

    return _try_replay(parent_a.dag, merged)
