"""Variant arbitration: early pruning and the outcome of one group.

A variant group is a set of :class:`~repro.task.SearchTask`\\ s sharing one
``logical_key`` (see :mod:`repro.variants.registry`).  A
:class:`~repro.tuner.Tuner` session tunes each group of its workload as
weighted tasks of its :class:`~repro.scheduler.task_scheduler.TaskScheduler`
— the gradient objective naturally spends rounds where they buy the most
improvement — with one successive-halving-style :class:`VariantPruner` per
group on top: once a variant has ``min_trials`` measurements and its best
cost trails the group leader's by more than ``margin``, it is pruned
(marked exhausted) and its share of the remaining budget flows to the
survivors.  The outcome is a :class:`VariantResult` naming the winning
implementation plus the full per-variant trajectories, so "which algorithm
won, by how much, and when were the losers cut" is one object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..callbacks import MeasureCallback
from ..ir.state import State
from ..scheduler.task_scheduler import TaskScheduler
from ..task import SearchTask
from .registry import LogicalOp

__all__ = ["VariantPruner", "VariantTrajectory", "VariantResult", "VariantArbiter"]


class VariantPruner(MeasureCallback):
    """Successive-halving-style early pruning of trailing variants.

    Rides the scheduler's ``on_scheduler_round`` hook.  After every
    allocation round it looks at the *qualified* members of its group —
    those with at least ``min_trials`` measurements and a finite best cost —
    and prunes every qualified variant whose best cost exceeds the qualified
    leader's by more than ``margin`` (``best > leader * margin``), by
    marking the task exhausted so the scheduler stops allocating to it.
    Measurements already taken stay in the trajectories and the cost model;
    only *future* budget is redirected.

    ``group_indices`` restricts the pruner to a subset of the scheduler's
    tasks (a :class:`~repro.tuner.Tuner` session adds one pruner per variant
    group, since groups and plain tasks share its scheduler); ``None`` means
    every task of the scheduler forms one group.
    """

    def __init__(
        self,
        margin: float,
        min_trials: int,
        group_indices: Optional[Sequence[int]] = None,
    ):
        if margin <= 1.0:
            raise ValueError("VariantPruner margin must be > 1")
        if min_trials < 1:
            raise ValueError("VariantPruner min_trials must be >= 1")
        self.margin = margin
        self.min_trials = min_trials
        self.group_indices = list(group_indices) if group_indices is not None else None
        #: task index -> scheduler.total_trials at the moment it was pruned
        self.pruned_at: Dict[int, int] = {}

    def on_scheduler_round(self, scheduler, record) -> None:
        indices = (
            self.group_indices
            if self.group_indices is not None
            else range(len(scheduler.tasks))
        )
        qualified = [
            i
            for i in indices
            if not scheduler.exhausted[i]
            and scheduler.task_trials[i] >= self.min_trials
            and math.isfinite(scheduler.best_costs[i])
        ]
        if len(qualified) < 2:
            # Nobody to compare against: pruning needs a qualified leader
            # AND a qualified trailer (the "enough samples" guard applies
            # to both sides of the comparison).
            return
        leader = min(qualified, key=lambda i: scheduler.best_costs[i])
        threshold = scheduler.best_costs[leader] * self.margin
        for i in qualified:
            if i != leader and scheduler.best_costs[i] > threshold:
                scheduler.exhausted[i] = True
                self.pruned_at[i] = scheduler.total_trials


@dataclass
class VariantTrajectory:
    """One variant's tuning trajectory within an arbitrated group session."""

    #: the variant name (``"direct"``, ``"im2col"``, ...); ``None`` for a
    #: task outside any variant group
    variant: Optional[str]
    #: the variant's task
    task: SearchTask
    #: best measured cost (seconds); ``inf`` when nothing valid landed
    best_cost: float = float("inf")
    #: best program; ``None`` when nothing valid landed
    best_state: Optional[State] = None
    #: measurement trials this variant consumed
    num_trials: int = 0
    #: best cost after each allocated round
    history: List[float] = field(default_factory=list)
    #: group-level ``total_trials`` at which this variant was pruned;
    #: ``None`` for survivors
    pruned_at: Optional[int] = None

    @property
    def pruned(self) -> bool:
        return self.pruned_at is not None


@dataclass
class VariantResult:
    """The outcome of one arbitrated variant-group session."""

    #: the group's shared logical identity
    logical_key: str
    #: hardware target name the group was tuned for
    target: str
    #: name of the winning variant; ``None`` when nothing valid was measured
    winner: Optional[str]
    #: the winner's best cost (seconds)
    best_cost: float
    #: the winner's best program
    best_state: Optional[State]
    #: per-variant trajectories, in group order
    trajectories: List[VariantTrajectory] = field(default_factory=list)
    #: total measurement trials the group consumed
    total_trials: int = 0
    #: the driving scheduler, for introspection (``None`` on a store hit)
    scheduler: Optional[TaskScheduler] = None
    #: True when the winner was served from a :class:`~repro.store.ScheduleStore`
    #: logical-key hit without searching
    from_store: bool = False

    def trajectory(self, variant: str) -> VariantTrajectory:
        """The trajectory of one variant; unknown names raise ``KeyError``
        listing the group's variants."""
        for traj in self.trajectories:
            if traj.variant == variant:
                return traj
        raise KeyError(
            f"no variant {variant!r} in this group; variants: "
            f"{', '.join(t.variant for t in self.trajectories) or '(none)'}"
        )

    @property
    def pruned(self) -> List[str]:
        """Names of the variants the pruner cut, in group order."""
        return [t.variant for t in self.trajectories if t.pruned]

    @property
    def winner_task(self) -> Optional[SearchTask]:
        for traj in self.trajectories:
            if traj.variant == self.winner:
                return traj.task
        return None



    @classmethod
    def assemble(
        cls,
        trajectories: Sequence[VariantTrajectory],
        scheduler: Optional[TaskScheduler] = None,
    ) -> "VariantResult":
        """A group's result from its per-variant trajectories (in group
        order): the winner is the variant with the lowest finite best cost.
        ``scheduler=None`` marks a group served from a store hit."""
        finite = [t for t in trajectories if math.isfinite(t.best_cost)]
        winner = min(finite, key=lambda t: t.best_cost) if finite else None
        first = trajectories[0].task
        return cls(
            logical_key=first.logical_key,
            target=first.target_name,
            winner=winner.variant if winner else None,
            best_cost=winner.best_cost if winner else float("inf"),
            best_state=winner.best_state if winner else None,
            trajectories=list(trajectories),
            total_trials=sum(t.num_trials for t in trajectories),
            scheduler=scheduler,
            from_store=scheduler is None,
        )


class VariantArbiter:
    """Tune one logical op's variant group and return its
    :class:`VariantResult`.

    ``VariantArbiter(op, **session).tune()`` is
    ``Tuner(op, **session).tune().variant_result``: the session — policy
    factory, cost-model service, store, callbacks, pruning — is
    :class:`~repro.tuner.Tuner`'s, and ``session`` takes any of its keyword
    arguments.
    """

    def __init__(self, op: LogicalOp, **session):
        if not isinstance(op, LogicalOp):
            raise TypeError(
                "VariantArbiter tunes one LogicalOp; for an expanded variant "
                "task pass LogicalOp(task.logical_op, task.variant_params, "
                f"hardware=...); got {op!r}"
            )
        self.op = op
        self.session = session

    def tune(self) -> VariantResult:
        """Run the group's session and return its :class:`VariantResult`."""
        from ..tuner import Tuner  # local: the tuner imports this package

        return Tuner(self.op, **self.session).tune().variant_result
