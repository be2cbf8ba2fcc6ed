"""Search tasks: the unit of work the auto-scheduler optimizes.

A :class:`SearchTask` bundles a computation DAG (one subgraph extracted from
a DNN) with the hardware it should be optimized for.  The task scheduler
(§6) distributes measurement trials across many tasks; each search policy
(§4, §5) optimizes one task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from .hardware.platform import HardwareParams, intel_cpu
from .te.dag import ComputeDAG

if TYPE_CHECKING:  # pragma: no cover - types only (avoid an import cycle)
    from .hardware.fleet import CircuitBreakerConfig, DeviceLike

__all__ = ["SearchTask", "TuningOptions", "split_workload_key"]


def split_workload_key(key: str) -> tuple:
    """Split a combined ``"<fingerprint>@<target>"`` workload key into its
    ``(workload_fingerprint, target_name)`` halves.

    The fingerprint half is a hex digest and never contains ``@``; a key
    without a separator (foreign or pre-split data) comes back with an empty
    target.  This is the one sanctioned parser of the combined form — store
    keys, record ingestion and anything else needing the halves should use
    it instead of re-splitting the string ad hoc.
    """
    fingerprint, sep, target = key.partition("@")
    return (fingerprint, target if sep else "")


class SearchTask:
    """One tuning task: a computation DAG on a hardware target.

    A task may additionally belong to an *algorithm-variant group* (see
    :mod:`repro.variants`): ``logical_key`` names the logical op instance
    the group implements, ``variant`` this task's implementation, and
    ``variant_params`` the parameters the group re-expands from.  Plain
    tasks leave all three ``None``.
    """

    def __init__(
        self,
        compute_dag: ComputeDAG,
        hardware_params: Optional[HardwareParams] = None,
        desc: str = "",
        *,
        logical_op: Optional[str] = None,
        logical_key: Optional[str] = None,
        variant: Optional[str] = None,
        variant_params: Optional[dict] = None,
    ):
        self.compute_dag = compute_dag
        self.hardware_params = hardware_params or intel_cpu()
        self.desc = desc or compute_dag.pretty_print().splitlines()[-1][:60]
        #: the logical operator name this task implements (variant groups)
        self.logical_op = logical_op
        #: shared identity of the variant group (None for plain tasks)
        self.logical_key = logical_key
        #: this task's implementation name within its group
        self.variant = variant
        #: the parameters the variant group expands from (enough to rebuild
        #: the full competing group from any one member)
        self.variant_params = dict(variant_params) if variant_params else None

    @property
    def workload_fingerprint(self) -> str:
        """Target-free identity of the computation (the DAG's workload key).

        This is one half of the schedule-store key: the same computation
        tuned for two machines shares a fingerprint but not a store entry.
        """
        return self.compute_dag.workload_key()

    @property
    def target_name(self) -> str:
        """The hardware half of the store key (the target's name)."""
        return self.hardware_params.name

    @property
    def workload_key(self) -> str:
        """Stable identifier combining the computation and the target.

        Kept for compatibility (tuning-log records key on it); consumers
        needing the halves separately should read
        :attr:`workload_fingerprint` / :attr:`target_name` or split a
        combined key with :func:`split_workload_key` instead of re-parsing
        the ``@``-joined string.
        """
        return f"{self.workload_fingerprint}@{self.target_name}"

    @property
    def structure_key(self) -> str:
        """The DAG's shape-class hash (sizes erased) — the schedule store's
        similarity class for cross-workload warm-starts."""
        return self.compute_dag.structure_key()

    def flop_count(self) -> int:
        return self.compute_dag.flop_count()

    def __repr__(self) -> str:
        return f"SearchTask({self.desc!r}, target={self.hardware_params.name})"


@dataclass
class TuningOptions:
    """Options controlling one tuning run (mirrors the paper's setup in §7).

    The measurement knobs mirror the paper's builder/runner split: the
    ``builder`` / ``runner`` name ``"local"`` (or ``"rpc"``, another name
    for the same stage) selects :class:`~repro.hardware.measure.LocalBuilder`
    / :class:`~repro.hardware.measure.LocalRunner`, and ``n_parallel``, the
    timeouts and the device-pool knobs configure the resulting
    :class:`~repro.hardware.measure.MeasurePipeline`.  The options only name
    stages: ready stages go in as
    ``Tuner(measurer=MeasurePipeline(hw, builder=..., runner=...))``.
    """

    #: total number of measurement trials
    num_measure_trials: int = 64
    #: how many programs are measured per search round
    num_measures_per_round: int = 16
    #: early stop if the best program has not improved for this many rounds
    early_stopping: Optional[int] = None
    #: verbosity (0 = silent)
    verbose: int = 0
    #: random seed for the search
    seed: int = 0
    #: builder stage: ``"local"`` (``"rpc"`` names the same builder)
    builder: str = "local"
    #: runner stage: ``"local"`` (``"rpc"`` names the same runner)
    runner: str = "local"
    #: builder worker threads (compilation parallelism)
    n_parallel: int = 1
    #: per-candidate build timeout (seconds of the candidate's own build
    #: cost — thread CPU time + emulated compile latency; None = unbounded)
    build_timeout: Optional[float] = None
    #: per-candidate run timeout (simulated seconds; None = unbounded)
    run_timeout: Optional[float] = None
    #: how many times a transient RUN_ERROR is re-run before the trial is
    #: given up (the paper's flaky-device retry; 0 = fail fast)
    n_retry: int = 0
    #: extend the retry policy to RUN_TIMEOUT results too: off by default
    #: (a deterministic timeout — the program really exceeds the budget —
    #: would burn every retry), on for pools whose timeouts are transient
    #: device behaviour (thermal stalls, hung boards); the retry
    #: re-dispatches, so it can recover on a healthier or faster device
    retry_timeouts: bool = False
    #: device pool of the runner: a sequence of
    #: :class:`~repro.hardware.fleet.DeviceProfile` / names / dicts, or an
    #: int (that many default devices); None = the single default device
    #: ``"dev0"``
    devices: "Optional[Union[int, Sequence[DeviceLike]]]" = None
    #: device-pool dispatch policy of the runner: ``"round-robin"``,
    #: ``"least-loaded"`` (busy-seconds plus the estimated fault-rate
    #: waste) or ``"affinity"`` (sticky workload→device rendezvous
    #: hashing); None = round-robin
    dispatch: Optional[str] = None
    #: circuit breaker of the runner's device pool: ``True`` enables the
    #: default :class:`~repro.hardware.fleet.CircuitBreakerConfig`, a dict
    #: or config instance overrides it, None leaves the breaker off
    circuit_breaker: "Optional[Union[bool, dict, CircuitBreakerConfig]]" = None
    #: overlap candidate generation with hardware measurement: the round
    #: driver (:meth:`~repro.scheduler.task_scheduler.TaskScheduler.tune`)
    #: runs each round through an asynchronous
    #: :class:`~repro.hardware.measure.MeasureSession` and breeds round
    #: *k+1* while round *k* occupies the devices (one-round-stale cost
    #: model).  This is the one switch for the mode, honoured also with a
    #: ready measurer.  False measures each round as one batch through
    #: :meth:`~repro.hardware.measure.MeasurePipeline.measure`.
    async_measure: bool = False
    #: ignore the hits of the session's schedule store
    #: (``Tuner(workload, store=...)``) and tune every task and variant
    #: group (still warm-started, and new bests still refresh the store)
    store_refresh: bool = False
    #: persistence path of the session's
    #: :class:`~repro.cost_model.service.CostModelService`: an existing file
    #: warm-starts every per-target cost model from it (bit-identical
    #: predictions after reload), and the session saves back at the end —
    #: the cost-model analogue of the schedule store.  None keeps the
    #: service in-memory for the session.
    cost_model_path: Optional[str] = None
    #: retrain the cost model once per this many ingested measurement
    #: batches (1 = retrain every round, the historical behaviour)
    cost_model_retrain_interval: int = 1
    #: samples each cost-model retrain fits on: the most recent ones plus
    #: an evenly-strided sweep of the older history, keeping update cost
    #: flat as records accumulate.  None uses the model default (1024),
    #: which covers the whole default training-set cap, so every retrain
    #: then fits on the whole retained history.
    cost_model_window: Optional[int] = None
    #: early-pruning margin of every variant group (a
    #: :class:`~repro.variants.LogicalOp` in the workload, see
    #: :mod:`repro.variants`): once a variant has
    #: ``variant_min_trials`` measurements and its best cost trails the
    #: group leader's by more than this factor, it is pruned and its share
    #: of the remaining budget flows to the survivors (successive-halving
    #: style: each scheduler round cuts the trailing tail).  Must be > 1.
    variant_prune_margin: float = 1.35
    #: measurements a variant (and the leader it is compared against) must
    #: have before it can be pruned — the "enough samples" guard that keeps
    #: one lucky early round from deciding the group
    variant_min_trials: int = 16

    def __post_init__(self) -> None:
        if self.num_measure_trials <= 0:
            raise ValueError("num_measure_trials must be positive")
        if self.num_measures_per_round <= 0:
            raise ValueError("num_measures_per_round must be positive")
        if self.early_stopping is not None and self.early_stopping <= 0:
            raise ValueError("early_stopping must be positive (or None to disable)")
        for stage in ("builder", "runner"):
            name = getattr(self, stage)
            if not isinstance(name, str):
                raise ValueError(
                    f"TuningOptions.{stage} takes a stage name, not a ready "
                    f"{type(name).__name__}; pass ready stages as "
                    "Tuner(measurer=MeasurePipeline(hw, builder=..., runner=...))"
                )
            if name not in ("local", "rpc"):
                raise ValueError(
                    f"unknown {stage} {name!r}; use 'local' ('rpc' names the "
                    f"same {stage})"
                )
        if self.n_parallel < 1:
            raise ValueError("n_parallel must be >= 1")
        if self.build_timeout is not None and self.build_timeout <= 0:
            raise ValueError("build_timeout must be positive (or None to disable)")
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ValueError("run_timeout must be positive (or None to disable)")
        if self.n_retry < 0:
            raise ValueError("n_retry must be >= 0")
        if self.dispatch is not None and self.dispatch not in (
            "round-robin",
            "least-loaded",
            "affinity",
        ):
            raise ValueError(
                f"unknown dispatch {self.dispatch!r}; use 'round-robin', "
                "'least-loaded' or 'affinity' (or None for the runner default)"
            )
        if self.cost_model_retrain_interval < 1:
            raise ValueError("cost_model_retrain_interval must be >= 1")
        if self.cost_model_window is not None and self.cost_model_window < 2:
            raise ValueError("cost_model_window must be >= 2 (or None for the default)")
        if self.variant_prune_margin <= 1.0:
            raise ValueError(
                "variant_prune_margin must be > 1 (a variant is pruned once "
                "its best cost exceeds leader * margin)"
            )
        if self.variant_min_trials < 1:
            raise ValueError("variant_min_trials must be >= 1")
