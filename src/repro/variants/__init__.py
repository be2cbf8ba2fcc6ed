"""Algorithm-variant search: competing DAG implementations per logical op.

The search of the base system explores schedules of *one fixed* compute
definition per subgraph.  This package adds the missing outer loop: one
logical operator (e.g. ``conv2d``) expands into several algorithmically
different :class:`~repro.te.dag.ComputeDAG` formulations — direct loop
nest, im2col-GEMM, tiled/spatially-packed GEMM — and the tuner arbitrates
between them, because which formulation wins depends on the shape *and* the
hardware target (the MG3MConv observation).

**Registry.**  Implementations register under ``(logical op, variant name)``
with the :func:`~repro.variants.registry.register_variant` decorator, each a
builder ``(**params) -> ComputeDAG`` plus an optional applicability
predicate (a formulation only valid for, say, 3x3 stride-1 simply opts out
of other shapes).  :func:`~repro.variants.registry.expand_variants` — or a
:class:`~repro.variants.registry.LogicalOp` handed straight to
:class:`~repro.tuner.Tuner` — turns one logical instance into the competing
:class:`~repro.task.SearchTask` group: every task carries the group's shared
``logical_key`` (the deterministic, target-free identity of the instance)
and its own ``variant`` name.  Variants of one logical op deliberately have
*distinct* :meth:`~repro.te.dag.ComputeDAG.structure_key` classes, so the
schedule store's similarity warm-start never replays one variant's history
onto another's DAG.

**Arbitration and pruning.**  A :class:`~repro.tuner.Tuner` session tunes
each LogicalOp of its workload as a group of weighted tasks (weight 1.0 per
variant) of its :class:`~repro.scheduler.task_scheduler.TaskScheduler`,
sharing the trial budget with the workload's other tasks and groups, with a
successive-halving-style :class:`~repro.variants.arbiter.VariantPruner` per
group on top: after every allocation round, any variant with at least
``variant_min_trials`` measurements whose best cost trails the qualified
leader's by more than ``variant_prune_margin`` is pruned — the scheduler
stops allocating to it and its budget share flows to the survivors.  Both
sides of the comparison need ``variant_min_trials`` samples, so one lucky
early round never decides the group.  Within the group, every variant
searches with the *session* seed and its own variant-scoped cost model
(training one model on a mixture of variant structures measurably misleads
the search), so each trajectory is a truncation of what a single-task
session would explore — arbitration redistributes budget, it does not
reshuffle the search.  Each group's
:class:`~repro.variants.arbiter.VariantResult` names the winner and keeps
every variant's trajectory (best cost, trials, prune point);
``VariantArbiter(op, **session).tune()`` is a shorthand for the
``variant_result`` of a one-op session.

Store integration: :class:`~repro.store.ScheduleStore` keys variant entries
by ``(logical_key, variant, target)``, so a logical-key lookup answers
"which algorithm *and* which schedule" in O(1) and a store-bound
:class:`~repro.tuner.Tuner` serves a whole group without spending a trial
once any session has arbitrated it.
"""

from .arbiter import VariantArbiter, VariantPruner, VariantResult, VariantTrajectory
from .registry import (
    LogicalOp,
    VariantSpec,
    expand_variants,
    logical_key_of,
    register_variant,
    registered_variant_ops,
    resolve_variant,
    variants_for,
)

# Importing the builder modules registers the built-in variant groups.
from . import conv2d  # noqa: F401  (registration side effect)

__all__ = [
    "LogicalOp",
    "VariantSpec",
    "VariantArbiter",
    "VariantPruner",
    "VariantResult",
    "VariantTrajectory",
    "expand_variants",
    "logical_key_of",
    "register_variant",
    "registered_variant_ops",
    "resolve_variant",
    "variants_for",
]
