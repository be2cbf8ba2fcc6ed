"""Evolution operators: mutations and node-based crossover (§5.1).

Every program carries its complete rewriting history (the transform steps),
which are its genes.  Mutations rewrite one decision in the step list and
replay; crossover recombines the per-node step groups of two parents.
Offspring that fail to replay into a valid program are rejected (the paper's
"Ansor further verifies the merged programs").

A child shares its parent's steps before the first step it changes, and
copies the rest: :meth:`~repro.ir.state.State.from_steps` starts it from the
stages the parent recorded at that step and replays only the copies.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen.lowering import lower_state
from ..ir.state import State, steps_fingerprint
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


#: step-list fingerprint -> replay outcome (the state, or ``None``)
Replays = Dict[str, Optional[State]]


def _try_replay(
    dag, steps: List[Step], *, replays: Optional[Replays] = None,
    parent: Optional[State] = None, start: int = 0,
) -> Optional[State]:
    """Replay a step list and validate the result; ``None`` when invalid.

    Takes ownership of ``steps`` (the new state holds these very objects),
    so callers pass ``parent``'s own first ``start`` steps and private
    copies of the rest (see :meth:`State.from_steps`).  A step list already
    in ``replays`` returns its recorded outcome without replaying or
    lowering again."""
    key = steps_fingerprint(steps)
    if replays is not None and key in replays:
        return replays[key]
    try:
        state = State.from_steps(dag, steps, parent=parent, start=start)
        lower_state(state)  # validates structural consistency
    except Exception:
        state = None
    else:
        state._fingerprint = key
    if replays is not None:
        replays[key] = state
    return state


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _draw(seq: Sequence, rng: np.random.Generator):
    """A uniformly drawn element of ``seq``: the value and generator state
    ``rng.choice(seq)`` gives, in a fraction of the time."""
    return seq[int(rng.integers(len(seq)))]


def _steps_from(state: State, index: int) -> List[Step]:
    """The parent's own steps before ``index``, then copies of the rest."""
    steps = state.transform_steps
    return steps[:index] + [step.copy() for step in steps[index:]]


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def mutate_tile_size(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays: Optional[Replays] = None,
) -> Optional[State]:
    """Tile size mutation (§5.1).

    Pick one concrete split step, divide one of its parts by a random factor
    and multiply another part by the same factor.  The product of the tile
    sizes is preserved, so the mutated program is always valid.

    The implicit outer part comes from the extent the parent's own split
    step recorded when it was applied (``SplitStep.extent``); a parent whose
    chosen split was never applied raises ``ValueError``.
    """
    split_ids = [
        i
        for i, s in enumerate(state.transform_steps)
        if isinstance(s, SplitStep) and not s.is_placeholder and len(s.lengths) >= 1
    ]
    if not split_ids:
        return None
    target_idx = _draw(split_ids, rng)
    split = state.transform_steps[target_idx]
    extent = split.extent
    if extent is None:
        raise ValueError(f"split step {target_idx} of the parent was never applied: no recorded extent")
    lengths = split.concrete_lengths()
    parts = [extent // math.prod(lengths)] + lengths
    candidates = [i for i, p in enumerate(parts) if p > 1]
    if not candidates:
        return None
    src = _draw(candidates, rng)
    dst = _draw([i for i in range(len(parts)) if i != src], rng)
    divisors = [d for d in _divisors(parts[src]) if d > 1]
    if not divisors:
        return None
    factor = _draw(divisors, rng)
    parts[src] //= factor
    parts[dst] *= factor
    if parts[-1] > options.max_innermost_split_factor:
        return None
    steps = _steps_from(state, target_idx)
    steps[target_idx].lengths = parts[1:]
    return _try_replay(state.dag, steps, replays=replays, parent=state, start=target_idx)


def mutate_auto_unroll(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays: Optional[Replays] = None,
) -> Optional[State]:
    """Change the value of one auto_unroll_max_step pragma."""
    pragma_ids = [i for i, s in enumerate(state.transform_steps) if isinstance(s, PragmaStep)]
    if not pragma_ids:
        return None
    target_idx = _draw(pragma_ids, rng)
    value = state.transform_steps[target_idx].value
    choices = [c for c in options.auto_unroll_candidates if c != value]
    if not choices:
        return None
    steps = _steps_from(state, target_idx)
    steps[target_idx].value = int(_draw(choices, rng))
    return _try_replay(state.dag, steps, replays=replays, parent=state, start=target_idx)


def mutate_parallel_degree(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays: Optional[Replays] = None,
) -> Optional[State]:
    """Parallel granularity mutation (§5.1).

    Change the number of loop levels fused into the parallel loop by one,
    either coarsening (fuse one more level) or refining (drop one level).
    """
    own = state.transform_steps
    # Find fuse steps whose stage later receives a parallel annotation on
    # iterator 0 — those are the parallel fusions created by annotation.
    candidates = []
    for i, step in enumerate(own):
        if not isinstance(step, FuseStep) or step.iter_ids[0] != 0:
            continue
        for later in own[i + 1:]:
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
    idx = _draw(candidates, rng)
    steps = _steps_from(state, idx)
    fuse = steps[idx]
    if rng.random() < 0.5 and len(fuse.iter_ids) > 2:
        fuse.iter_ids = fuse.iter_ids[:-1]
    else:
        fuse.iter_ids = fuse.iter_ids + [fuse.iter_ids[-1] + 1]
    return _try_replay(state.dag, steps, replays=replays, parent=state, start=idx)


def mutate_compute_location(
    state: State, rng: np.random.Generator, options: SearchSpaceOptions = FULL_SPACE,
    *, replays: Optional[Replays] = None,
) -> Optional[State]:
    """Move a compute_at attachment one loop up or down in its target stage."""
    if not options.enable_compute_location_change:
        return None
    at_ids = [i for i, s in enumerate(state.transform_steps) if isinstance(s, ComputeAtStep)]
    if not at_ids:
        return None
    target_idx = _draw(at_ids, rng)
    delta = _draw((-1, 1), rng)
    if state.transform_steps[target_idx].target_iter + delta < 0:
        return None
    steps = _steps_from(state, target_idx)
    steps[target_idx].target_iter += delta
    return _try_replay(state.dag, steps, replays=replays, parent=state, start=target_idx)


MUTATION_OPERATORS: List[Tuple[Callable, float]] = [
    (mutate_tile_size, 0.55),
    (mutate_auto_unroll, 0.15),
    (mutate_parallel_degree, 0.15),
    (mutate_compute_location, 0.15),
]


def _weights_cdf(operators: Sequence[Tuple[Callable, float]]) -> np.ndarray:
    """The operators' weights as a normalized CDF: ``cdf.searchsorted(
    rng.random(), side="right")`` is the index ``rng.choice(len(operators),
    p=weights / weights.sum())`` draws."""
    weights = np.array([w for _, w in operators])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


#: the operators as defined here, and their CDF; a replaced or edited
#: ``MUTATION_OPERATORS`` gets its own CDF per call
_OPERATORS = tuple(MUTATION_OPERATORS)
_OPERATOR_CDF = _weights_cdf(_OPERATORS)


def random_mutation(
    state: State,
    rng: np.random.Generator,
    options: SearchSpaceOptions = FULL_SPACE,
    max_attempts: int = 4,
    *,
    replays: Optional[Replays] = None,
) -> Optional[State]:
    """Apply one randomly chosen mutation operator; retry a few times.

    ``replays`` is the calling search's replay table (see ``_try_replay``)."""
    operators = MUTATION_OPERATORS
    cdf = _OPERATOR_CDF if tuple(operators) == _OPERATORS else _weights_cdf(operators)
    for _ in range(max_attempts):
        op = operators[int(cdf.searchsorted(rng.random(), side="right"))][0]
        child = op(state, rng, options, replays=replays)
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
    *,
    replays: Optional[Replays] = None,
) -> Optional[State]:
    """Combine the rewriting steps of two parents at node granularity (§5.1).

    For every DAG node, the steps of the parent whose node score is higher
    are kept (ties and unknown scores resolve randomly).  The primary parent
    (higher total score) provides the step ordering; the selected nodes'
    steps of the other parent are substituted in place.  The merged step list
    is replayed and validated; ``None`` is returned when the combination is
    invalid.  The child shares the primary parent's steps on the longest
    prefix where the merged list serializes as the parent's does.
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
            take_from_b.add(_draw(sorted(nodes), rng))

    merged: List[Step] = []
    inserted_b_nodes = set()
    for step in parent_a.transform_steps:
        node = _node_of_step(step)
        if node in take_from_b:
            if node not in inserted_b_nodes:
                inserted_b_nodes.add(node)
                for other in parent_b.transform_steps:
                    if _node_of_step(other) == node:
                        merged.append(other)
            continue
        merged.append(step)
    # Nodes present only in parent_b's history.
    for node in take_from_b - inserted_b_nodes:
        for other in parent_b.transform_steps:
            if _node_of_step(other) == node:
                merged.append(other)

    own = parent_a.transform_steps
    shared = 0
    for mine, theirs in zip(merged, own):
        if mine is not theirs and mine.to_dict() != theirs.to_dict():
            break
        shared += 1
    steps = own[:shared] + [step.copy() for step in merged[shared:]]
    return _try_replay(parent_a.dag, steps, replays=replays, parent=parent_a, start=shared)
