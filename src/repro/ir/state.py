"""The program state: a loop-nest schedule plus its rewriting history.

A :class:`State` corresponds to one tensor program (complete) or one sketch
(incomplete — some split lengths are still placeholders).  It is always the
result of applying its ``transform_steps`` to the initial naive program of
its :class:`~repro.te.dag.ComputeDAG`, so a state can be reconstructed from
``(dag, transform_steps)`` alone; that is what the tuning-log records store
and what node-based crossover recombines.

Stages and iterators are values (see :mod:`repro.ir.loop`): a step replaces
the stages it changes in its own state's list.  So :meth:`State.copy` and
:meth:`State.from_dag` copy lists of pointers, and a state shares every
stage with the states it was copied or bred from.  A state that
:meth:`State.from_dag` starts also records its stages after each step, and
:meth:`State.from_steps` rebuilds a child from its parent's record at the
first step the child changed, replaying only the steps from there on.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..te.dag import ComputeDAG
from ..te.operation import ComputeOp, PlaceholderOp
from .loop import ComputeLocation, Iterator, Stage
from .steps import (
    AnnotationStep,
    CacheWriteStep,
    ComputeAtStep,
    ComputeInlineStep,
    ComputeRootStep,
    FuseStep,
    PragmaStep,
    ReorderStep,
    RfactorStep,
    SplitStep,
    Step,
)

__all__ = ["State", "steps_fingerprint"]


def steps_fingerprint(steps: Sequence[Step]) -> str:
    """The :meth:`State.fingerprint` of the state that replaying ``steps`` gives."""
    return hashlib.sha1(repr([step.to_dict() for step in steps]).encode()).hexdigest()


class State:
    """A (possibly partial) tensor program for a computation DAG."""

    def __init__(self, dag: ComputeDAG, stages: List[Stage], transform_steps: Optional[List[Step]] = None):
        self.dag = dag
        self.stages = stages
        self.transform_steps: List[Step] = list(transform_steps or [])
        self._fingerprint: Optional[str] = None
        self._lowered = None  # memo of repro.codegen.lowering.lower_state
        self._features = None  # memo of repro.cost_model.features.extract_program_features
        #: ``(model, booster version, rows)``: the per-statement booster rows
        #: of the last trained ``LearnedCostModel.predict`` that scored it
        self._stage_rows = None
        #: memo: ``_trail[k]`` is the stage tuple after the first ``k``
        #: steps (``None`` unless :meth:`from_dag` started this state)
        self._trail: Optional[List[Tuple[Stage, ...]]] = None

    def __getstate__(self) -> dict:
        # The lowered program, the feature matrix, the kept booster rows (and
        # the model they name) and the stage record are memos: pickles (e.g.
        # the RpcBuilder's payloads) never carry them, the receiver lowers
        # and featurizes on demand, and its children replay from the DAG.
        memos = dict.fromkeys(("_lowered", "_features", "_stage_rows", "_trail"))
        return {**self.__dict__, **memos}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dag(cls, dag: ComputeDAG) -> "State":
        """The initial naive program: one stage per op, one loop per axis.

        The stages come from a template the DAG builds once and keeps (out
        of its pickles).  Threads that race to build it build equal ones,
        and the last assignment wins, so it needs no lock."""
        template = dag._stage_template
        if template is None:
            template = dag._stage_template = tuple(Stage.from_op(op) for op in dag.ops)
        state = cls(dag, list(template))
        state._trail = [template]
        return state

    def copy(self) -> "State":
        """A state with the same stages and steps, free to take new steps:
        it copies the two lists, and shares every stage and step in them."""
        new = State(self.dag, list(self.stages), self.transform_steps)
        new._fingerprint = self._fingerprint
        return new

    @classmethod
    def from_steps(
        cls, dag: ComputeDAG, steps: Sequence[Step], *, parent: Optional["State"] = None, start: int = 0
    ) -> "State":
        """Replay a step list onto the initial state of ``dag``.

        A child bred from ``parent`` passes ``start``, the index of the
        first step it changed: ``steps[:start]`` must be the parent's own
        first ``start`` step objects (``ValueError`` otherwise).  The child
        then starts from the stages the parent recorded after those steps,
        which keep their recorded ``SplitStep.extent``, and applies only
        ``steps[start:]``.  A parent without a record (unpickled, or not
        started by :meth:`from_dag`) replays copies of the prefix instead,
        so the parent's steps are never applied twice."""
        steps = list(steps)
        if start:
            own = [] if parent is None or parent.dag is not dag else parent.transform_steps
            if start > min(len(own), len(steps)) or any(
                mine is not theirs for mine, theirs in zip(steps[:start], own)
            ):
                raise ValueError(f"the first {start} steps are not the parent's own step objects")
            if parent._trail is None:
                steps[:start] = [step.copy() for step in steps[:start]]
                start = 0
        if start:
            state = cls(dag, list(parent._trail[start]), steps[:start])
            state._trail = parent._trail[:start + 1]
        else:
            state = cls.from_dag(dag)
        for step in steps[start:]:
            state.apply_step(step)
        return state

    # ------------------------------------------------------------------
    # Stage lookup and relations
    # ------------------------------------------------------------------
    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def has_stage(self, name: str) -> bool:
        return any(stage.name == name for stage in self.stages)

    def stage_index(self, name: str) -> int:
        for idx, stage in enumerate(self.stages):
            if stage.name == name:
                return idx
        raise KeyError(f"no stage named {name!r}")

    def compute_stages(self) -> List[Stage]:
        return [s for s in self.stages if not s.is_placeholder()]

    def stage_producers(self, name: str) -> List[Stage]:
        """Stages whose output the given stage reads."""
        stage = self.stage(name)
        if not isinstance(stage.op, ComputeOp):
            return []
        producers = []
        for tensor in stage.op.input_tensors:
            if self.has_stage(tensor.name):
                producers.append(self.stage(tensor.name))
        return producers

    def stage_consumers(self, name: str) -> List[Stage]:
        """Stages that read the output of the given stage."""
        consumers = []
        for stage in self.stages:
            if stage.name == name or not isinstance(stage.op, ComputeOp):
                continue
            if any(t.name == name for t in stage.op.input_tensors):
                consumers.append(stage)
        return consumers

    def is_output_stage(self, name: str) -> bool:
        """True when the stage writes a DAG output buffer."""
        return any(out.name == name for out in self.dag.outputs)

    # ------------------------------------------------------------------
    # Step application
    # ------------------------------------------------------------------
    def apply_step(self, step: Step) -> "State":
        step.apply_to(self)
        self.transform_steps.append(step)
        self._fingerprint = None
        self._lowered = self._features = self._stage_rows = None
        if self._trail is not None:
            self._trail.append(tuple(self.stages))
        return self

    # Internal helpers used by steps --------------------------------------
    def shift_attached_iters(self, stage_name: str, first_index: int, delta: int) -> None:
        """Adjust compute_at anchors of other stages after iterators of
        ``stage_name`` were inserted (positive delta) or removed (negative)."""
        if delta == 0:
            return
        removed = -delta

        def shifted(target_iter: int) -> int:
            if delta > 0:
                return target_iter + delta if target_iter > first_index else target_iter
            if first_index < target_iter <= first_index + removed:
                return first_index
            return target_iter + delta if target_iter > first_index + removed else target_iter

        self.remap_attached_iters(stage_name, shifted)

    def remap_attached_iters(self, stage_name: str, mapping: Callable[[int], int]) -> None:
        """Remap compute_at anchors of other stages through ``mapping``,
        replacing each stage whose anchor moves."""
        for index, stage in enumerate(self.stages):
            loc = stage.compute_location
            if loc.kind == ComputeLocation.AT and loc.target_stage == stage_name:
                target_iter = mapping(loc.target_iter)
                if target_iter != loc.target_iter:
                    self.stages[index] = stage.replace(
                        compute_location=ComputeLocation.at(stage_name, target_iter)
                    )

    # ------------------------------------------------------------------
    # Schedule primitives (each records and applies one step)
    # ------------------------------------------------------------------
    def split(self, stage_name: str, iter_id: int, lengths: Sequence[Optional[int]]) -> "State":
        return self.apply_step(SplitStep(stage_name, iter_id, lengths))

    def fuse(self, stage_name: str, iter_ids: Sequence[int]) -> "State":
        return self.apply_step(FuseStep(stage_name, iter_ids))

    def reorder(self, stage_name: str, order: Sequence[int]) -> "State":
        return self.apply_step(ReorderStep(stage_name, order))

    def parallel(self, stage_name: str, iter_id: int) -> "State":
        return self.apply_step(AnnotationStep(stage_name, iter_id, "parallel"))

    def vectorize(self, stage_name: str, iter_id: int) -> "State":
        return self.apply_step(AnnotationStep(stage_name, iter_id, "vectorize"))

    def unroll(self, stage_name: str, iter_id: int) -> "State":
        return self.apply_step(AnnotationStep(stage_name, iter_id, "unroll"))

    def pragma(self, stage_name: str, pragma: str, value: int) -> "State":
        return self.apply_step(PragmaStep(stage_name, pragma, value))

    def compute_at(self, stage_name: str, target_stage: str, target_iter: int) -> "State":
        return self.apply_step(ComputeAtStep(stage_name, target_stage, target_iter))

    def compute_inline(self, stage_name: str) -> "State":
        return self.apply_step(ComputeInlineStep(stage_name))

    def compute_root(self, stage_name: str) -> "State":
        return self.apply_step(ComputeRootStep(stage_name))

    def cache_write(self, stage_name: str) -> "State":
        return self.apply_step(CacheWriteStep(stage_name))

    def rfactor(self, stage_name: str, iter_id: int) -> "State":
        return self.apply_step(RfactorStep(stage_name, iter_id))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    def is_concrete(self) -> bool:
        """True when no split step still carries a placeholder length."""
        for step in self.transform_steps:
            if isinstance(step, SplitStep) and step.is_placeholder:
                return False
        return True

    def placeholder_splits(self) -> List[SplitStep]:
        return [s for s in self.transform_steps if isinstance(s, SplitStep) and s.is_placeholder]

    def steps_for_stage(self, stage_name: str) -> List[Step]:
        """Steps whose primary target stage derives from ``stage_name``.

        Cache / rfactor stages derived from an op (``"X.cache"``, ``"X.rf"``)
        are grouped with the op itself; this is the node granularity used by
        crossover (§5.1).
        """
        result = []
        for step in self.transform_steps:
            target = getattr(step, "stage_name", None)
            if target is None:
                continue
            base = target.split(".")[0]
            if base == stage_name.split(".")[0]:
                result.append(step)
        return result

    def serialize_steps(self) -> List[dict]:
        return [step.to_dict() for step in self.transform_steps]

    def fingerprint(self) -> str:
        """A stable identity of the program: a digest of its step history.

        States reached through the same step sequence on the same DAG lower
        to the same program, so this string keys the search's replay table
        and dedup sets, and groups a scoring batch's states by program.  It
        is a fixed-width hex digest (not the raw serialized steps) so those
        keys stay small.
        It is computed once and invalidated whenever a step is appended;
        steps themselves must never be mutated in place on a live state.
        The evolution operators share the parent's steps before the first
        one they change, and copy (then edit and replay) the steps from
        there on.  The one write :meth:`apply_step` makes to a step is a
        split's recorded ``SplitStep.extent``, which follows from the steps
        before it and is not part of the digest.
        """
        if self._fingerprint is None:
            self._fingerprint = steps_fingerprint(self.transform_steps)
        return self._fingerprint

    # ------------------------------------------------------------------
    def print_program(self) -> str:
        from .printer import print_state

        return print_state(self)

    def __repr__(self) -> str:
        return f"State(stages={[s.name for s in self.stages]}, steps={len(self.transform_steps)})"
