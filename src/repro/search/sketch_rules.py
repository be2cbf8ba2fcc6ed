"""Sketch derivation rules (Table 1 of the paper).

Sketch generation works on derivation states ``sigma = (S, i)`` where ``S``
is a partially generated sketch (a :class:`~repro.ir.state.State` whose
split steps still carry placeholder tile sizes) and ``i`` is the index of
the current working node.  Nodes are the operations of the computation DAG,
sorted topologically; the derivation starts from the output node (``i =
len(ops)``) and terminates at ``i = 0``.

Each rule has a ``condition`` predicate on ``(S, i)`` and an ``apply``
function returning one or more successor states.  Users can register
additional rules (the paper's "User Defined Rule" row) through
:func:`register_sketch_rule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ir.state import State
from ..te.analysis import has_data_reuse, has_more_reduction_parallel, is_strict_inlinable
from ..te.dag import ComputeDAG
from ..te.expr import Select, post_order_visit
from ..te.operation import ComputeOp, Operation, PlaceholderOp
from .space import FULL_SPACE, SearchSpaceOptions

__all__ = [
    "SketchContext",
    "SketchRule",
    "RuleSkip",
    "RuleAlwaysInline",
    "RuleMultiLevelTiling",
    "RuleMultiLevelTilingWithFusion",
    "RuleAddCacheStage",
    "RuleAddRfactor",
    "default_sketch_rules",
    "register_sketch_rule",
    "registered_sketch_rules",
    "multi_level_tiling",
    "fusion_level_index",
]


@dataclass
class SketchContext:
    """Static context shared by all rules during one sketch derivation."""

    dag: ComputeDAG
    options: SearchSpaceOptions = FULL_SPACE

    def op_at(self, node_index: int) -> Operation:
        return self.dag.ops[node_index - 1]

    def is_output(self, op: Operation) -> bool:
        return self.dag.is_output(op)


# ---------------------------------------------------------------------------
# Predicates evaluated on the current derivation state
# ---------------------------------------------------------------------------


def _contains_select(op: ComputeOp) -> bool:
    found = False

    def visit(node) -> None:
        nonlocal found
        if isinstance(node, Select):
            found = True

    post_order_visit(op.body, visit)
    return found


def working_stage_name(state: State, op_name: str) -> str:
    """The stage currently holding the computation of a DAG node.

    After rule 5 (AddCacheStage) the computation of node ``X`` lives in stage
    ``"X.cache"`` while ``X`` itself became a copy stage.
    """
    cache_name = f"{op_name}.cache"
    if state.has_stage(cache_name):
        return cache_name
    return op_name


def strictly_inlinable(state: State, node_index: int, ctx: SketchContext) -> bool:
    """IsStrictInlinable(S, i) evaluated in context.

    Output nodes are never inlined (they must materialize their buffer), and
    ops containing a ``Select`` (padding-style ops) are kept as separate
    stages so their computation location can be tuned (§4.2, and the T2D /
    padding discussion in §7.1).
    """
    op = ctx.op_at(node_index)
    if not isinstance(op, ComputeOp):
        return False
    if ctx.is_output(op):
        return False
    if _contains_select(op):
        return False
    return is_strict_inlinable(op)


def state_has_fusible_consumer(state: State, stage_name: str) -> Optional[str]:
    """HasFusibleConsumer(S, i): the single consumer that can be fused, if any.

    Inlined consumers are looked through: for conv2d -> bn (inlined) -> relu
    the fusible consumer of conv2d is relu, the first non-inlined stage on
    the consumer chain.
    """
    producer_stage = state.stage(stage_name)
    producer_op = producer_stage.op
    if not isinstance(producer_op, ComputeOp):
        return None

    current = stage_name
    for _ in range(len(state.stages)):
        consumers = state.stage_consumers(current)
        if len(consumers) != 1:
            return None
        consumer = consumers[0]
        op = consumer.op
        if not isinstance(op, ComputeOp):
            return None
        if op.has_reduction():
            return None
        if op.output.shape != producer_op.output.shape:
            return None
        if consumer.is_inlined():
            current = consumer.name
            continue
        return consumer.name
    return None


# ---------------------------------------------------------------------------
# The multi-level tiling structure (§4.1, "SSRSRS")
# ---------------------------------------------------------------------------


def multi_level_tiling(
    state: State,
    stage_name: str,
    spatial_levels: int = 4,
    reduction_levels: int = 2,
) -> State:
    """Apply the multi-level tile structure to a stage, in place.

    Each spatial axis is split into ``spatial_levels`` parts and each
    reduction axis into ``reduction_levels`` parts (tile sizes are left as
    placeholders).  The parts are then reordered into the "SSRSRS" pattern
    for the default 4/2 levels: all first-level space parts, all second
    level space parts, first-level reduction parts, third-level space parts,
    second-level reduction parts, innermost space parts.
    """
    stage = state.stage(stage_name)
    spatial_names = [it.name for it in stage.iters if it.is_spatial()]
    reduce_names = [it.name for it in stage.iters if it.is_reduce()]

    # Split every axis (placeholder lengths).  Each split puts a new version
    # of the stage into the state, so iterator indices come from the state.
    spatial_parts: List[List[str]] = []
    for name in spatial_names:
        idx = state.stage(stage_name).iter_index(name)
        state.split(stage_name, idx, [None] * (spatial_levels - 1))
        spatial_parts.append([f"{name}.{p}" for p in range(spatial_levels)])
    reduce_parts: List[List[str]] = []
    for name in reduce_names:
        idx = state.stage(stage_name).iter_index(name)
        state.split(stage_name, idx, [None] * (reduction_levels - 1))
        reduce_parts.append([f"{name}.{p}" for p in range(reduction_levels)])

    # Interleave space and reduction levels: S S R S R S ... generalized for
    # arbitrary level counts by alternating the remaining levels.
    order_names: List[str] = []
    space_level = 0
    reduce_level = 0
    # First two space levels come first (the "SS" prefix).
    for _ in range(min(2, spatial_levels)):
        order_names.extend(parts[space_level] for parts in spatial_parts)
        space_level += 1
    while space_level < spatial_levels or reduce_level < reduction_levels:
        if reduce_level < reduction_levels:
            order_names.extend(parts[reduce_level] for parts in reduce_parts)
            reduce_level += 1
        if space_level < spatial_levels:
            order_names.extend(parts[space_level] for parts in spatial_parts)
            space_level += 1

    stage = state.stage(stage_name)
    order = [stage.iter_index(name) for name in order_names]
    state.reorder(stage_name, order)
    return state


def fusion_level_index(n_spatial: int, spatial_levels: int = 4) -> int:
    """The loop index at which a fused consumer is attached: the last
    iterator of the second space level (per Figure 5, generated sketch 1)."""
    levels = min(2, spatial_levels)
    return levels * n_spatial - 1


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class SketchRule:
    """Base class of derivation rules."""

    name = "rule"

    def condition(self, state: State, node_index: int, ctx: SketchContext) -> bool:
        raise NotImplementedError

    def apply(self, state: State, node_index: int, ctx: SketchContext) -> List[Tuple[State, int]]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RuleSkip(SketchRule):
    """Rule 1: skip a node that is not strictly inlinable."""

    name = "skip"

    def condition(self, state, node_index, ctx) -> bool:
        return not strictly_inlinable(state, node_index, ctx)

    def apply(self, state, node_index, ctx):
        return [(state.copy(), node_index - 1)]


class RuleAlwaysInline(SketchRule):
    """Rule 2: always inline a strictly inlinable node."""

    name = "always_inline"

    def condition(self, state, node_index, ctx) -> bool:
        return strictly_inlinable(state, node_index, ctx)

    def apply(self, state, node_index, ctx):
        op = ctx.op_at(node_index)
        new_state = state.copy()
        new_state.compute_inline(op.name)
        return [(new_state, node_index - 1)]


class RuleMultiLevelTiling(SketchRule):
    """Rule 3: multi-level tiling for nodes with data reuse."""

    name = "multi_level_tiling"

    def condition(self, state, node_index, ctx) -> bool:
        if not ctx.options.enable_plain_tiling:
            return False
        op = ctx.op_at(node_index)
        return has_data_reuse(op)

    def apply(self, state, node_index, ctx):
        op = ctx.op_at(node_index)
        new_state = state.copy()
        stage_name = working_stage_name(new_state, op.name)
        multi_level_tiling(
            new_state,
            stage_name,
            spatial_levels=ctx.options.spatial_tile_levels,
            reduction_levels=ctx.options.reduction_tile_levels,
        )
        return [(new_state, node_index - 1)]


class RuleMultiLevelTilingWithFusion(SketchRule):
    """Rule 4: multi-level tiling plus fusion of the fusible consumer."""

    name = "multi_level_tiling_with_fusion"

    def condition(self, state, node_index, ctx) -> bool:
        if not ctx.options.enable_fusion:
            return False
        op = ctx.op_at(node_index)
        if not has_data_reuse(op):
            return False
        stage_name = working_stage_name(state, op.name)
        return state_has_fusible_consumer(state, stage_name) is not None

    def apply(self, state, node_index, ctx):
        op = ctx.op_at(node_index)
        new_state = state.copy()
        stage_name = working_stage_name(new_state, op.name)
        consumer = state_has_fusible_consumer(new_state, stage_name)
        multi_level_tiling(
            new_state,
            stage_name,
            spatial_levels=ctx.options.spatial_tile_levels,
            reduction_levels=ctx.options.reduction_tile_levels,
        )
        n_spatial = len([it for it in new_state.stage(stage_name).iters if it.is_spatial()])
        n_spatial //= ctx.options.spatial_tile_levels
        attach = fusion_level_index(n_spatial, ctx.options.spatial_tile_levels)
        new_state.compute_at(consumer, stage_name, attach)
        return [(new_state, node_index - 1)]


class RuleAddCacheStage(SketchRule):
    """Rule 5: add a cache-write stage when a data-reuse node has no fusible
    consumer (typically: it is the DAG output)."""

    name = "add_cache_stage"

    def condition(self, state, node_index, ctx) -> bool:
        if not ctx.options.enable_cache_write:
            return False
        op = ctx.op_at(node_index)
        if not has_data_reuse(op):
            return False
        stage_name = working_stage_name(state, op.name)
        if stage_name.endswith(".cache"):
            return False
        return state_has_fusible_consumer(state, stage_name) is None

    def apply(self, state, node_index, ctx):
        op = ctx.op_at(node_index)
        new_state = state.copy()
        new_state.cache_write(op.name)
        # The working node index stays the same: rule 4 will now fire because
        # the newly added copy stage is a fusible consumer of the cache stage.
        return [(new_state, node_index)]


class RuleAddRfactor(SketchRule):
    """Rule 6: factorize a reduction loop to expose reduction parallelism."""

    name = "add_rfactor"

    def condition(self, state, node_index, ctx) -> bool:
        if not ctx.options.enable_rfactor:
            return False
        op = ctx.op_at(node_index)
        if not has_more_reduction_parallel(op):
            return False
        stage_name = working_stage_name(state, op.name)
        return not state.has_stage(f"{op.name}.rf")

    def apply(self, state, node_index, ctx):
        op = ctx.op_at(node_index)
        new_state = state.copy()
        stage_name = working_stage_name(new_state, op.name)
        stage = new_state.stage(stage_name)
        reduce_ids = [idx for idx, it in enumerate(stage.iters) if it.is_reduce()]
        if not reduce_ids:
            return [(new_state, node_index - 1)]
        # Split the (first) reduction loop into two placeholder parts and
        # factor the inner part out into a new spatial stage.
        target = reduce_ids[0]
        new_state.split(stage_name, target, [None])
        new_state.rfactor(stage_name, target + 1)
        return [(new_state, node_index - 1)]


_DEFAULT_RULES: List[SketchRule] = [
    RuleAlwaysInline(),
    RuleMultiLevelTilingWithFusion(),
    RuleMultiLevelTiling(),
    RuleAddCacheStage(),
    RuleAddRfactor(),
    RuleSkip(),
]

_USER_RULES: List[SketchRule] = []


def register_sketch_rule(rule: SketchRule) -> SketchRule:
    """Register a user-defined derivation rule (Table 1, last row).

    Registered rules are appended to the default rule set used by
    :func:`~repro.search.sketch.generate_sketches`.
    """
    _USER_RULES.append(rule)
    return rule


def registered_sketch_rules() -> List[SketchRule]:
    return list(_USER_RULES)


def default_sketch_rules(include_user_rules: bool = True) -> List[SketchRule]:
    """The default rule set (Table 1), optionally with user-defined rules."""
    rules = list(_DEFAULT_RULES)
    if include_user_rules:
        rules.extend(_USER_RULES)
    return rules
