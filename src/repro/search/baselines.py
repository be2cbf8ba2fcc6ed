"""Baseline strategies the paper compares against (§7).

* :func:`random_search_policy` — "No fine-tuning": random sampling from the
  full hierarchical space, no evolutionary search, no cost model.
* :func:`limited_space_policy` — "Limited space" / AutoTVM- and
  FlexTensor-style template search: the same tuner but restricted to a
  template-like space (no cache stage, no rfactor, fixed unroll policy, no
  compute-location changes).
* :class:`BeamSearchPolicy` — Halide-auto-scheduler-style sequential
  construction with aggressive early pruning of incomplete programs using
  the learned cost model.
* :class:`LibraryBaseline` — vendor kernel libraries (MKL-DNN / CuDNN /
  Eigen behind PyTorch, TensorFlow, TensorRT, TFLite): a fixed expert
  schedule per operator, no search.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cost_model.model import CostModel, LearnedCostModel, RandomCostModel
from ..hardware.measure import MeasureInput, MeasurePipeline, MeasureResult
from ..hardware.platform import HardwareParams
from ..ir.state import State
from ..ir.steps import SplitStep
from ..task import SearchTask
from .annotation import annotate_state, fill_tile_sizes
from .policy import SearchPolicy, register_policy
from .sketch import generate_sketches
from .sketch_policy import SketchPolicy
from .space import FULL_SPACE, LIMITED_SPACE, SearchSpaceOptions

__all__ = [
    "random_search_policy",
    "limited_space_policy",
    "no_task_scheduler_note",
    "BeamSearchPolicy",
    "LibraryBaseline",
    "expert_schedule",
]


# ---------------------------------------------------------------------------
# Policy variants built on SketchPolicy
# ---------------------------------------------------------------------------


def random_search_policy(task: SearchTask, seed: int = 0, **kwargs) -> SketchPolicy:
    """The "No fine-tuning" ablation: random sampling only (§7.1, Figure 7)."""
    kwargs.pop("cost_model", None)  # random search never uses a learned model
    return SketchPolicy(
        task,
        cost_model=RandomCostModel(seed=seed),
        use_evolutionary_search=False,
        seed=seed,
        **kwargs,
    )


def limited_space_policy(task: SearchTask, seed: int = 0, **kwargs) -> SketchPolicy:
    """The "Limited space" ablation / template-guided baselines (AutoTVM,
    FlexTensor): full tuner, template-like restricted space."""
    return SketchPolicy(task, space=LIMITED_SPACE, seed=seed, **kwargs)


register_policy("random", random_search_policy)
register_policy("limited-space", limited_space_policy)


def no_task_scheduler_note() -> str:
    """The "No task scheduler" ablation is a property of the task scheduler
    (round-robin allocation); see :class:`repro.scheduler.TaskScheduler`."""
    return "use TaskScheduler(strategy='round_robin')"


# ---------------------------------------------------------------------------
# Sequential construction with beam search (Halide auto-scheduler style)
# ---------------------------------------------------------------------------


@register_policy("beam")
class BeamSearchPolicy(SearchPolicy):
    """Sequential construction based search with early pruning (§2, Figure 2b).

    The program is built through a fixed sequence of decisions: first the
    sketch structure, then each tile size, then the annotations.  After every
    decision the candidate set is pruned to ``beam_width`` using the learned
    cost model — evaluated on *incomplete* programs, which is exactly the
    weakness the paper demonstrates (Figure 3, Figure 7 "Beam search").
    """

    def __init__(
        self,
        task: SearchTask,
        cost_model: Optional[CostModel] = None,
        space: SearchSpaceOptions = FULL_SPACE,
        beam_width: int = 8,
        expansions_per_decision: int = 4,
        seed: int = 0,
        verbose: int = 0,
    ):
        super().__init__(task, seed=seed, verbose=verbose)
        self.cost_model = cost_model if cost_model is not None else LearnedCostModel(seed=seed)
        self.space = space
        self.beam_width = beam_width
        self.expansions_per_decision = expansions_per_decision
        self._sketches: Optional[List[State]] = None
        self._measured_keys: set = set()

    @property
    def sketches(self) -> List[State]:
        if self._sketches is None:
            self._sketches = generate_sketches(self.task, options=self.space)
        return self._sketches

    # -- sequential construction -------------------------------------------
    def _prune(self, candidates: List[State]) -> List[State]:
        if len(candidates) <= self.beam_width:
            return candidates
        scores = self.cost_model.predict(self.task, candidates)
        order = np.argsort(-np.asarray(scores))
        return [candidates[i] for i in order[: self.beam_width]]

    def _construct_candidates(self) -> List[State]:
        from .annotation import random_factor_split

        # Decision 1: the sketch (structure).
        beam: List[State] = [sketch.copy() for sketch in self.sketches]
        beam = self._prune(beam)

        # Decision 2..N: each placeholder tile size, one at a time.  The
        # remaining placeholders stay at their trivial value, so the program
        # being scored is incomplete.
        max_placeholders = max((len(s.placeholder_splits()) for s in beam), default=0)
        for decision in range(max_placeholders):
            expanded: List[State] = []
            for state in beam:
                placeholders = state.placeholder_splits()
                if decision >= len(placeholders):
                    expanded.append(state)
                    continue
                target_index = state.transform_steps.index(placeholders[decision])
                for _ in range(self.expansions_per_decision):
                    lengths = random_factor_split(
                        placeholders[decision].extent,
                        len(placeholders[decision].lengths),
                        self.rng,
                        self.space.max_innermost_split_factor,
                    )
                    new_steps = [s.copy() for s in state.transform_steps]
                    new_steps[target_index].lengths = lengths
                    try:
                        expanded.append(State.from_steps(state.dag, new_steps))
                    except Exception:
                        continue
            beam = self._prune(expanded) if expanded else beam

        # Final decision: annotations (parallel / vectorize / unroll).
        completed: List[State] = []
        for state in beam:
            concrete = state if state.is_concrete() else fill_tile_sizes(state, self.rng, self.space)
            for _ in range(self.expansions_per_decision):
                try:
                    candidate = annotate_state(concrete.copy(), self.task, self.rng, self.space)
                except Exception:
                    continue
                completed.append(candidate)
        return self._prune(completed) if completed else completed

    # ------------------------------------------------------------------
    def propose_candidates(self, num_measures: int) -> List[State]:
        """Sequentially construct and prune a batch of complete programs.

        Picked programs are marked measured at propose time so a pipelined
        driver breeding the next round mid-measurement never proposes an
        in-flight program twice.
        """
        candidates = self._construct_candidates()
        picked: List[State] = []
        seen = set()
        for state in candidates:
            key = repr(state.serialize_steps())
            if key in self._measured_keys or key in seen:
                continue
            seen.add(key)
            picked.append(state)
            if len(picked) >= num_measures:
                break
        for state in picked:
            self._measured_keys.add(repr(state.serialize_steps()))
        return picked

    def ingest_results(
        self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]
    ) -> None:
        for inp in inputs:
            self._measured_keys.add(repr(inp.state.serialize_steps()))
        self.cost_model.update(inputs, results)
        super().ingest_results(inputs, results)


# ---------------------------------------------------------------------------
# Vendor library baseline: one fixed expert schedule, no search
# ---------------------------------------------------------------------------


def _pick_divisor(extent: int, target: int) -> int:
    """The largest divisor of ``extent`` that does not exceed ``target``."""
    best = 1
    for d in range(1, extent + 1):
        if extent % d == 0 and d <= target:
            best = d
    return best


def _expert_fill(sketch: State, task: SearchTask) -> State:
    """Fill a sketch's tile sizes with library-style heuristics."""
    hardware = task.hardware_params
    vec = hardware.vector_lanes
    state = sketch.dag.init_state()
    for step in sketch.transform_steps:
        step = step.copy()
        if isinstance(step, SplitStep) and step.is_placeholder:
            stage = state.stage(step.stage_name)
            iterator = stage.iters[step.iter_id]
            extent = iterator.extent
            n_inner = len(step.lengths)
            lengths: List[int] = []
            remaining = extent
            if iterator.is_reduce():
                targets = [4] * n_inner
            else:
                targets = [2] * (n_inner - 2) + [4, vec] if n_inner >= 2 else [vec]
            for target in targets[:n_inner]:
                factor = _pick_divisor(remaining, target)
                lengths.append(factor)
                remaining //= factor
            step.lengths = lengths
        state.apply_step(step)
    return state


def expert_schedule(task: SearchTask, num_variants: int = 6) -> State:
    """A deterministic, hand-tuned-style schedule for a task.

    This models what a vendor kernel library delivers: multi-level tiling
    with register-blocking-sized tiles, fused elementwise epilogue, outer
    loop parallelism, vectorized innermost loop and aggressive unrolling.
    Like a real library (which ships several kernels and dispatches on
    shape), a handful of annotation variants are evaluated with the machine
    model and the best one is kept; the result is deterministic.
    """
    from ..hardware.simulator import CostSimulator

    sketches = generate_sketches(task)
    # Prefer the richest structure (most transform steps): tiling + fusion.
    sketch = max(sketches, key=lambda s: len(s.transform_steps))
    filled = _expert_fill(sketch, task)
    options = SearchSpaceOptions(
        auto_unroll_candidates=(512,),
        max_innermost_split_factor=max(task.hardware_params.vector_lanes, 16),
        enable_compute_location_change=False,
    )
    simulator = CostSimulator(task.hardware_params)
    best_state: Optional[State] = None
    best_cost = float("inf")
    for variant in range(num_variants):
        rng = np.random.default_rng(variant)
        try:
            candidate = annotate_state(filled.copy(), task, rng, options)
            cost = simulator.estimate(candidate)
        except Exception:
            continue
        if cost < best_cost:
            best_cost = cost
            best_state = candidate
    if best_state is None:
        raise RuntimeError(f"could not build an expert schedule for task {task.desc!r}")
    return best_state


class LibraryBaseline:
    """A vendor-library stand-in: one expert schedule, measured once."""

    def __init__(self, task: SearchTask, hardware: Optional[HardwareParams] = None, name: str = "library"):
        self.name = name
        if hardware is not None and hardware is not task.hardware_params:
            task = SearchTask(task.compute_dag, hardware, desc=task.desc)
        self.task = task
        self.best_state: Optional[State] = None
        self.best_cost: float = float("inf")

    def run(self, measurer: Optional[MeasurePipeline] = None) -> float:
        measurer = measurer or MeasurePipeline(self.task.hardware_params, noise=0.0)
        state = expert_schedule(self.task)
        result = measurer.measure_one(MeasureInput(self.task, state))
        self.best_state = state
        self.best_cost = result.min_cost
        return self.best_cost

    def best_throughput(self) -> float:
        if not np.isfinite(self.best_cost) or self.best_cost <= 0:
            return 0.0
        return self.task.flop_count() / self.best_cost
