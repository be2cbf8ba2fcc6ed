"""repro — a Python reproduction of Ansor (OSDI 2020).

Ansor: Generating High-Performance Tensor Programs for Deep Learning,
Zheng et al., OSDI 2020.

The package implements the full system described in the paper — the
hierarchical search space (sketches + annotations), the evolutionary
fine-tuner with a learned cost model, and the gradient-descent task
scheduler — together with every substrate it needs: a tensor expression
language, a loop-nest IR with a complete rewriting history, an analytical
hardware model acting as the measurement target, a from-scratch gradient
boosted tree cost model, baseline search strategies, and the workload zoo
used by the paper's evaluation.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-reproduction results.

Performance
-----------
The search hot path — scoring candidate programs with the cost model —
runs through a batched, memoized inference pipeline: ``lower_state`` is
memoized on the state itself (one lowering per state, shared by mutation
validation, featurization, the simulator and the printer, and freed with
the state); a lowering composes each nest's statement from access tables
that every op builds once from one walk of its body (its flop count, one
shared, frozen access per read site and for the write, each keeping its
strides once computed, and its node counts, from which the features take
their arithmetic counts), so no expression tree is walked again;
each evolutionary search replays a distinct offspring step list
once, so a duplicate child reuses the first replay's state and lowering;
feature matrices are memoized on the state in the same way, so a surviving
program is featurized once per search, not once per generation; a scoring
batch's unfeaturized programs are featurized in one pass, each nest reading
its footprints from one suffix-footprint table (:mod:`repro.codegen.footprint`,
shared with the simulator); the GBDT routes whole feature matrices through
flattened node arrays instead of per-row Python traversals; and the
evolutionary loop carries elite scores across generations so each distinct
program is predicted exactly once.  A bred child costs one replay of the
steps it changed and no second booster call: stages and iterators are
values that no step edits, so a copied state shares them, and a child
starts from the stages its parent recorded at the first step the child
changed and replays only the steps from there on; tile-size mutation reads
the extent its parent's split step recorded when it was applied; and
crossover's per-node scores read back the per-statement rows that one
prediction computed and left on the state the search scored for that
program, also when the parent is an equal state bred again.  A retrain
bins its matrix once, sorting it once and taking the quantiles of every
group of columns that share a bin count in one call.  The tracked
baseline is ``benchmarks/test_search_throughput.py`` (predicted states/sec,
written to ``BENCH_search_throughput.json``); profile the loop with
``make profile``.
Every fast path is bit-compatible with its reference: the booster with the
per-row ``predict_rowwise``, enforced by
``tests/cost_model/test_predict_parity.py``, and the featurizer and the
simulator with the per-nest extractor and per-suffix footprint loop they
replaced, which now live only in ``tests/cost_model/test_feature_parity.py``,
lowering with the expression-tree walk kept in
``tests/codegen/test_access_tables.py``, the trainer with the per-column
binning kept in ``tests/cost_model/test_gbdt_train_parity.py``, and
breeding with the full-replay operators and the ``Generator.choice``
draws kept in ``tests/search/test_breeding_parity.py``.

Measurement is a two-stage builder/runner pipeline
(:class:`repro.hardware.measure.MeasurePipeline`) with one builder and one
runner: :class:`repro.hardware.measure.LocalBuilder` lowers candidates in
the calling thread, or in a thread pool (``TuningOptions.n_parallel``),
with per-candidate timeouts, and :class:`repro.hardware.measure.LocalRunner`
times them on the machine model with injectable fault models.  Every
outcome carries a :class:`repro.hardware.measure.MeasureErrorNo` error
kind that round-trips through the tuning log, and transient ``RUN_ERROR``
faults are retried up to ``TuningOptions.n_retry`` times instead of
discarding the trial.  ``MeasurePipeline.measure`` is the batch path:
build all, then run, retry and account.  The tracked baseline is
``benchmarks/test_measure_throughput.py`` (measured trials/sec, merged
into the same JSON); the no-fault path is bit-identical to the serial
reference measurer kept in ``tests/hardware/test_measure_pipeline.py``.

Measurement can also be *asynchronous* — the overlap model the paper uses
to hide device latency.  ``TuningOptions(async_measure=True)`` drives every
round through a :class:`repro.hardware.measure.MeasureSession`
(``submit()`` returning :class:`repro.hardware.measure.MeasureFuture`
handles, ``as_completed()`` streaming outcomes in completion order): search
policies expose their round as a ``propose_candidates(num)`` /
``ingest_results(inputs, results)`` split, and the one round driver
(:meth:`repro.scheduler.task_scheduler.TaskScheduler.tune`, which every
:class:`Tuner` session runs on — a single task is a one-task scheduler)
breeds round *k+1* while round *k* occupies the devices — at the price of a
one-round-stale cost model.  Callbacks observe results as they land through
the streaming ``on_result`` hook (``RecordToFile`` appends records the
moment they complete; ``EarlyStopper(target_cost=...)`` can stop a session
mid-round, cancelling the queued remainder).  The synchronous default is
the same driver with no lookahead, whose sessions measure each round
through ``MeasurePipeline.measure``.  Both modes run, retry and account
through one step; only the build differs (the whole batch at once, or
one candidate per worker).  ``async_measure`` is the one switch for the
mode.  The async overlap is gated (>= 1.3x measured trials/sec when
device latency dominates) by the same measurement benchmark.

The runner times every run on a pool of boards
(``TuningOptions(devices=...)``; one board, ``"dev0"``, by default), each
with its own fault profile, and the pool is *elastic and self-healing*
(:class:`repro.hardware.fleet.DeviceFleet`): every result is attributed to
the device that ran it (``MeasureResult.device`` / per-attempt
``MeasureResult.attempts``, persisted via ``TuningRecord.device``) and
feeds an online :class:`repro.hardware.fleet.EstimatedProfile`; runs go
to the healthy boards round-robin, and each board charges the busy time of
its own attempts; a circuit breaker
(``TuningOptions(circuit_breaker=...)``) quarantines boards whose
estimated fault rate spikes, re-admits them after canary probes, and
ejects dead ones; devices join and leave mid-session
(``runner.fleet.add_device`` / ``remove_device(drain=True)``) without losing or
double-counting results; and ``TuningOptions(retry_timeouts=True)``
extends transparent retry to per-device ``RUN_TIMEOUT`` faults.  The fleet
benchmark (``benchmarks/test_fleet_resilience.py``) gates >= 2x measured
trials/sec over a breaker-off pool under a 50%-fault storm (best cost
within 5% of a healthy pool), fault-rate-estimate convergence, and
bit-parity with the plain pool when nothing is failing.

The learned cost model is a first-class subsystem
(:class:`repro.cost_model.CostModelService`): every ``Tuner`` session —
whatever its workload, one ``TaskScheduler`` drives it — trains and
predicts through one service owning one
:class:`repro.cost_model.LearnedCostModel` per hardware target (§5.2's
single shared model, without mixing machines).  Retraining is *windowed*:
instead of refitting the booster on the full accumulated history every
round, each retrain fits on a bounded sample window
(``TuningOptions(cost_model_window=...)``: the most recent records plus
an evenly-strided sweep of the older history, labels still normalized
over everything), so the cost per update stays flat as measurements
accumulate.  The default window (1024) equals the training-set cap, so by
default every retrain fits the whole retained history.
``TuningOptions(cost_model_path=...)`` persists booster + training set
across sessions (bit-identical predictions after reload; truncated or
corrupt files raise ``CostModelLoadError`` instead of silently
cold-starting).  The tracked baseline is the ``train_throughput`` stage of
``benchmarks/test_search_throughput.py`` (``make model-bench``), gating
windowed retraining >= 3x faster per update than the full refit at 5k
accumulated records with the final best cost within 5%.

Each retrain is itself vectorized (:mod:`repro.cost_model.gbdt`): a fit
computes the quantile bin edges and the binned feature matrix once and
shares them across all boosting rounds, and every tree node scores all its
candidate features from one offset ``np.bincount`` histogram instead of a
Python loop over features.  The trees are bit-identical to the per-feature
scan (same RNG draws, summation order and tie-breaking), so seeded
trajectories, stores and saved models are unchanged; fitted trees no longer
keep their bin edges, which shrinks saved models.
``tests/cost_model/test_gbdt_train_parity.py`` enforces the parity against
the per-feature reference trainer.  Retrain time per session is
``cost_model.update_s`` in ``python3 perfbench/run.py --trace 1``.

Tuning results persist across sessions through a
:class:`repro.store.ScheduleStore` — an indexed, compactable store of best
schedules keyed by ``(workload fingerprint, hardware target)``, layered
over the :class:`TuningRecord` log format (legacy logs ``ingest()``
losslessly).  ``Tuner(workload, store=...)`` consults the store before
spending a trial: every task and variant group that hits is served without
searching, the rest share the session's trial budget
(``TuningOptions.store_refresh`` is the escape hatch), :class:`SketchPolicy`
warm-starts its first evolutionary population from stored bests of the same
and structurally similar workloads, and new bests stream back through
:class:`StoreWriter`.  The store benchmark
(``benchmarks/test_store_lookup.py``) gates indexed lookup against full-log
rescans and warm-start trial counts against cold searches.

Search extends *above* the schedule space through algorithm variants
(:mod:`repro.variants`): one logical operator expands into several
competing ``ComputeDAG`` formulations (``conv2d`` ships ``direct``,
``im2col`` and ``tiled-gemm``) registered under a decorator-based
``register_variant`` registry, and ``Tuner(LogicalOp("conv2d", params))``
— alone or in a list with other tasks and LogicalOps — arbitrates the
trial budget across the group through the session's task scheduler.  A
successive-halving-style pruner cuts any variant whose best cost trails
the group leader's by more than ``TuningOptions(variant_prune_margin=...)``
once both sides have ``variant_min_trials`` measurements, so losing
formulations stop draining budget early; the resulting ``VariantResult``
names the winner and keeps every trajectory.  Winners are per
``(shape, target)`` by design — the widened hardware zoo
(``wide_vector_cpu`` / ``manycore_numa_cpu`` / ``edge_cpu``) demonstrably
flips them — and the schedule store indexes entries by
``(logical_key, variant, target)``, so a store hit answers "which
algorithm *and* which schedule" and serves a whole group without a trial.
The variant benchmark
(``benchmarks/test_variant_search.py``, ``make variant-bench``) gates
arbitrated search against exhaustively tuning every variant and the
cross-target winner flip.
"""

from . import te
from .callbacks import (
    EarlyStopper,
    MeasureCallback,
    MeasureEvent,
    MeasureResultEvent,
    ProgressLogger,
    RecordToFile,
    StopTuning,
)
from .cost_model import CostModelLoadError, CostModelService, LearnedCostModel, RandomCostModel
from .hardware.platform import (
    HardwareParams,
    arm_cpu,
    edge_cpu,
    intel_cpu,
    manycore_numa_cpu,
    nvidia_gpu,
    target_from_name,
    wide_vector_cpu,
)
from .hardware.measure import (
    FaultModel,
    LocalBuilder,
    LocalRunner,
    MeasureErrorNo,
    MeasureFuture,
    MeasureInput,
    MeasurePipeline,
    MeasureResult,
    MeasureSession,
    NoFaults,
    RandomFaults,
)
from .hardware.fleet import CircuitBreakerConfig, DeviceFleet, DeviceProfile, EstimatedProfile
from .hardware.simulator import CostSimulator
from .ir.state import State
from .records import TuningRecord, apply_history_best, load_records, records_to_curve, save_records
from .scheduler.task_scheduler import TaskScheduler
from .search import baselines as _baselines  # ensure baseline policies register
from .search.policy import SearchPolicy, register_policy, registered_policies, resolve_policy
from .search.sketch_policy import SketchPolicy
from .search.space import FULL_SPACE, LIMITED_SPACE, SearchSpaceOptions
from .store import ScheduleStore, StoreEntry, StoreWriter
from .task import SearchTask, TuningOptions, split_workload_key
from .te.dag import ComputeDAG
from .tuner import Tuner, TuningResult
from .variants import (
    LogicalOp,
    VariantArbiter,
    VariantPruner,
    VariantResult,
    VariantSpec,
    VariantTrajectory,
    expand_variants,
    logical_key_of,
    register_variant,
    registered_variant_ops,
    resolve_variant,
    variants_for,
)

__version__ = "0.2.0"

__all__ = [
    "te",
    "ComputeDAG",
    "State",
    "SearchTask",
    "TuningOptions",
    "Tuner",
    "TuningResult",
    "MeasureCallback",
    "MeasureEvent",
    "MeasureResultEvent",
    "RecordToFile",
    "ProgressLogger",
    "EarlyStopper",
    "StopTuning",
    "SearchPolicy",
    "register_policy",
    "registered_policies",
    "resolve_policy",
    "SketchPolicy",
    "TaskScheduler",
    "SearchSpaceOptions",
    "FULL_SPACE",
    "LIMITED_SPACE",
    "HardwareParams",
    "intel_cpu",
    "arm_cpu",
    "nvidia_gpu",
    "wide_vector_cpu",
    "manycore_numa_cpu",
    "edge_cpu",
    "target_from_name",
    "CostSimulator",
    "MeasurePipeline",
    "MeasureSession",
    "MeasureFuture",
    "MeasureErrorNo",
    "MeasureInput",
    "MeasureResult",
    "LocalBuilder",
    "LocalRunner",
    "FaultModel",
    "NoFaults",
    "RandomFaults",
    "DeviceProfile",
    "DeviceFleet",
    "EstimatedProfile",
    "CircuitBreakerConfig",
    "TuningRecord",
    "save_records",
    "load_records",
    "apply_history_best",
    "records_to_curve",
    "ScheduleStore",
    "StoreEntry",
    "StoreWriter",
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
    "CostModelService",
    "CostModelLoadError",
    "LearnedCostModel",
    "RandomCostModel",
    "split_workload_key",
    "__version__",
]
