"""The four benchmark workloads, each one whole ``repro.Tuner`` session.

A workload is built in :meth:`Workload.setup` (imports are already done;
this builds the tasks and opens the store, and is timed as set-up) and
driven in :meth:`Workload.run`, which returns a :class:`SessionOutcome`:
the session's final objective, its time and trials to the target, and the
correctness failures found.  Besides ``matmul_relu`` and
``step_from_dict``, only names ``repro`` exports are used.

Objective and target: every workload has a fixed target cost.  The
session's objective after each measured trial is compared against it; the
first time it is at or below the target gives ``time_to_target_s`` and
``trials_to_target``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro import (
    CostSimulator,
    DeviceProfile,
    LogicalOp,
    MeasureCallback,
    MeasureInput,
    MeasurePipeline,
    ScheduleStore,
    SearchTask,
    State,
    Tuner,
    TuningOptions,
    edge_cpu,
    intel_cpu,
    wide_vector_cpu,
)
from repro.ir.steps import step_from_dict
from repro.workloads.ops import matmul_relu

#: measured cost over simulated cost for a correct best program: runner
#: noise (3% per repeat, best of 3) and, on the fleet, a 1.3x slow board
COST_BAND = (0.85, 1.15 * 1.3)

#: seconds :func:`calibration_kernel` takes on the reference host (2-core
#: x86 VM, Python 3.11, NumPy 2.4); session times are scaled by the kernel's
#: measured time over this
REFERENCE_KERNEL_S = 5.0e-3
#: kernel runs before and after each session, besides one per round of a
#: synchronous session
CALIBRATION_RUNS = 5


def calibration_kernel() -> None:
    """A fixed mix of interpreter and NumPy work, a few milliseconds long.

    Shared hosts drift in speed by 10-30% over seconds to minutes, which
    swamps the differences a benchmark exists to find.  Timing this kernel
    around a session and between its rounds samples the host's speed where
    the session ran."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    matrix = np.random.default_rng(0).random((96, 96))
    for _ in range(8):
        matrix = np.tanh(matrix @ matrix.T / 96)


@dataclass
class SessionOutcome:
    """What one session produced, as the benchmark needs it."""

    #: measured trials (all targets, for a two-target workload)
    trials: int = 0
    #: trials whose measurement failed after all retries
    failed: int = 0
    #: run-stage retries
    retries: int = 0
    #: seconds of ``Tuner.tune`` (summed over targets)
    wall_s: float = 0.0
    #: final objective in seconds as the session reported it, and with every
    #: best program measured again on a fresh runner (summed over targets)
    reported_cost: float = 0.0
    final_cost: float = 0.0
    #: seconds / trials from session start until the objective reached the
    #: target (summed over targets); the session total when it never did
    time_to_target_s: float = 0.0
    trials_to_target: int = 0
    reached_target: bool = True
    #: sha1 of the per-round candidate fingerprints, one per target
    digests: List[str] = field(default_factory=list)
    #: correctness checks that failed, as messages
    failures: List[str] = field(default_factory=list)
    #: (name, value) facts the per-layer report reads
    facts: Dict[str, float] = field(default_factory=dict)
    #: zero-trial store-hit latencies in seconds (mobilenet read phase)
    hit_latencies: List[float] = field(default_factory=list)
    #: calibration-kernel times, seconds
    kernel_s: List[float] = field(default_factory=list)
    #: (start, end, "session" | "read") perf_counter windows of the work
    #: the trace reports on
    windows: List[Tuple[float, float, str]] = field(default_factory=list)


class Probe(MeasureCallback):
    """Observes one session: the objective after every measured trial
    against the target, the trajectory digest, and the pipelines used.

    The objective is the best valid cost so far; for a network session
    (``weighted=True``) it is the scheduler's weighted network latency over
    every task's best so far, defined once each task has one."""

    def __init__(self, target_cost: float, weighted: bool = False, async_session: bool = False):
        self.target_cost = target_cost
        self.weighted = weighted
        #: an async session's rounds end while its measurement threads run,
        #: and a kernel run there would time their contention for the
        #: interpreter lock: such a session is calibrated around it only
        self.async_session = async_session
        self.digest = hashlib.sha1()
        self.measurers: Dict[int, object] = {}
        self.trials = 0
        self.bests: Dict[int, float] = {}
        self.start = time.perf_counter()
        self.hit: Optional[Tuple[float, int]] = None
        self.scheduler = None
        self.scheduler_rounds = 0
        #: (start, seconds) of every calibration-kernel run
        self.calibration: List[Tuple[float, float]] = []

    def calibrate(self) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.calibration.append((start, time.perf_counter() - start))

    def paused_before(self, at: float) -> float:
        """Calibration seconds spent inside the session before ``at``."""
        return sum(s for t, s in self.calibration if self.start <= t < at)

    def on_tuning_start(self, subject) -> None:
        if self.weighted and self.scheduler is None:
            self.scheduler = subject

    def _objective(self) -> float:
        if not self.weighted:
            return min(self.bests.values(), default=float("inf"))
        tasks = self.scheduler.tasks
        if len(self.bests) < len(tasks):
            return float("inf")
        return self.scheduler.objective.value([self.bests[id(t)] for t in tasks])

    def on_result(self, event) -> None:
        self.trials += 1
        if event.measurer is not None:
            self.measurers[id(event.measurer)] = event.measurer
        if event.result.valid:
            key = id(event.task) if self.weighted else 0
            self.bests[key] = min(self.bests.get(key, float("inf")), event.result.min_cost)
        if self.hit is None and self._objective() <= self.target_cost:
            now = time.perf_counter()
            self.hit = (now - self.start - self.paused_before(now), self.trials)

    def on_round(self, event) -> None:
        for inp in event.inputs:
            self.digest.update(inp.state.fingerprint().encode())
        if not self.async_session:
            self.calibrate()

    def on_scheduler_round(self, scheduler, record) -> None:
        self.scheduler_rounds += 1


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _check_accounting(out: SessionOutcome, result, budget: int, measurers) -> None:
    """Exactly-once trial accounting: trials equal the budget and the
    pipelines' ``measure_count`` equals the trials."""
    measured = sum(m.measure_count for m in {id(m): m for m in measurers}.values())
    if result.num_trials != budget:
        out.failures.append(f"trials {result.num_trials} != budget {budget}")
    if measured != result.num_trials:
        out.failures.append(f"pipeline measure_count {measured} != trials {result.num_trials}")


def _check_best(out: SessionOutcome, task: SearchTask, state: Optional[State], cost: float) -> None:
    """The best state replays from its serialized steps to the same
    fingerprint, and an independent simulator estimate agrees with the
    reported cost within the runner's noise band."""
    if state is None:
        out.failures.append(f"{task.desc}: no best state")
        return
    replayed = State.from_steps(
        task.compute_dag, [step_from_dict(d) for d in state.serialize_steps()]
    )
    if replayed.fingerprint() != state.fingerprint():
        out.failures.append(f"{task.desc}: best state does not replay to its fingerprint")
    estimate = CostSimulator(task.hardware_params).estimate(replayed)
    ratio = cost / estimate
    if not COST_BAND[0] <= ratio <= COST_BAND[1]:
        out.failures.append(f"{task.desc}: reported best / simulated = {ratio:.3f}")


def remeasure(task: SearchTask, state: State, noise_seed: int) -> float:
    """The best-of-repeats latency of ``state`` on a fresh local runner
    whose noise is seeded by ``noise_seed`` — the program as deployed."""
    pipeline = MeasurePipeline(task.hardware_params, seed=noise_seed)
    return pipeline.measure([MeasureInput(task, state)])[0].min_cost


def _add_session(
    out: SessionOutcome, probe: Probe, result, wall: float, reported: float, final: float
) -> None:
    measurers = list(probe.measurers.values())
    if result.scheduler is not None:
        measurers = list({id(m): m for m in result.scheduler.measurers}.values())
    out.trials += result.num_trials
    out.failed += result.num_errors
    out.retries += sum(m.retry_count for m in measurers)
    out.wall_s += wall
    out.reported_cost += reported
    out.final_cost += final
    if probe.hit is None:
        out.reached_target = False
        out.time_to_target_s += wall
        out.trials_to_target += result.num_trials
    else:
        out.time_to_target_s += probe.hit[0]
        out.trials_to_target += probe.hit[1]
    out.digests.append(probe.digest.hexdigest())
    out.facts["scheduler_rounds"] = out.facts.get("scheduler_rounds", 0) + probe.scheduler_rounds
    for measurer in measurers:
        stats = getattr(measurer.runner, "device_stats", lambda: {})()
        for entry in stats.values():
            out.facts["breaker_trips"] = out.facts.get("breaker_trips", 0) + entry.get("trips", 0)
            out.facts["ejected_devices"] = out.facts.get("ejected_devices", 0) + (
                entry.get("state") == "ejected"
            )


def _tune(out: SessionOutcome, tuner: Tuner, probe: Probe):
    """Run a session between calibration-kernel runs; its wall time
    excludes the kernel runs made between rounds."""
    for _ in range(CALIBRATION_RUNS):
        probe.calibrate()
    probe.start = time.perf_counter()
    result = tuner.tune()
    end = time.perf_counter()
    for _ in range(CALIBRATION_RUNS):
        probe.calibrate()
    out.windows.append((probe.start, end, "session"))
    out.kernel_s.extend(s for _, s in probe.calibration)
    return result, end - probe.start - probe.paused_before(end)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: the fixed target cost of the objective, seconds
    target_cost = 0.0
    #: search seeds of the fixed session panel (see README.md)
    panel: Tuple[int, ...] = ()

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, seed: int, noise_seed: int) -> SessionOutcome:
        raise NotImplementedError


class MatmulSearch(Workload):
    """Sketch policy on a 128^3 matmul+relu, synchronous local measurement:
    search and cost model do nearly all the work."""

    name = "matmul-search"
    target_cost = 8.0e-6
    trials = 64
    panel = (0, 1, 2, 3)

    def setup(self, workdir: Path) -> None:
        self.task = SearchTask(matmul_relu(128, 128, 128), intel_cpu())

    def run(self, seed: int, noise_seed: int) -> SessionOutcome:
        out = SessionOutcome()
        probe = Probe(self.target_cost)
        options = TuningOptions(num_measure_trials=self.trials, seed=seed)
        result, wall = _tune(out, Tuner(self.task, options=options, callbacks=[probe]), probe)
        final = remeasure(self.task, result.best_state, noise_seed)
        _add_session(out, probe, result, wall, result.best_cost, final)
        _check_accounting(out, result, self.trials, probe.measurers.values())
        _check_best(out, self.task, result.best_state, result.best_cost)
        return out


class FleetRandom(Workload):
    """Random policy over an rpc process-pool builder and a two-board fleet,
    one board flaky and slow: the measurement stack does most of the work."""

    name = "fleet-random"
    target_cost = 8.0e-6
    trials = 512
    panel = (0, 1, 2, 3, 4)

    def setup(self, workdir: Path) -> None:
        self.task = SearchTask(matmul_relu(128, 128, 128), intel_cpu())

    def run(self, seed: int, noise_seed: int) -> SessionOutcome:
        out = SessionOutcome()
        probe = Probe(self.target_cost, async_session=True)
        options = TuningOptions(
            num_measure_trials=self.trials,
            seed=seed,
            builder="rpc",
            runner="rpc",
            n_parallel=2,
            devices=[
                DeviceProfile("healthy"),
                DeviceProfile("flaky", run_error_prob=0.5, slowdown=1.3),
            ],
            circuit_breaker=True,
            n_retry=2,
            async_measure=True,
        )
        tuner = Tuner(self.task, policy="random", options=options, callbacks=[probe])
        result, wall = _tune(out, tuner, probe)
        final = remeasure(self.task, result.best_state, noise_seed)
        _add_session(out, probe, result, wall, result.best_cost, final)
        _check_accounting(out, result, self.trials, probe.measurers.values())
        _check_best(out, self.task, result.best_state, result.best_cost)
        return out


class MobilenetStore(Workload):
    """Six mobilenet-v2 tasks under the task scheduler with one shared cost
    model, writing into a fresh on-disk store; then a read phase serving
    every task from the reopened store.  Measurement is synchronous: on the
    pipelined driver the trajectory varies run to run even with the hash
    seed pinned, so its quality figures would not repeat."""

    name = "mobilenet-store"
    target_cost = 5.0e-4
    trials = 192
    per_round = 16
    panel = (0,)
    hit_reps = 20

    def setup(self, workdir: Path) -> None:
        self.store_path = workdir / "store.jsonl"
        # Sessions of one run share the work directory; each starts empty.
        for stale in workdir.glob("store.jsonl*"):
            stale.unlink()
        self.store = ScheduleStore(self.store_path)

    def run(self, seed: int, noise_seed: int) -> SessionOutcome:
        out = SessionOutcome()
        probe = Probe(self.target_cost, weighted=True)
        options = TuningOptions(
            num_measure_trials=self.trials,
            num_measures_per_round=self.per_round,
            seed=seed,
        )
        tuner = Tuner(
            ["mobilenet-v2"],
            options=options,
            store=self.store,
            max_tasks_per_network=6,
            callbacks=[probe],
        )
        result, wall = _tune(out, tuner, probe)
        tuned = [i for i, s in enumerate(result.best_states) if s is not None]
        if len(tuned) < len(result.tasks):
            out.failures.append(f"only {len(tuned)} of {len(result.tasks)} tasks measured")
        final = result.scheduler.objective.value([
            remeasure(result.tasks[i], result.best_states[i], noise_seed + i) for i in tuned
        ])
        _add_session(out, probe, result, wall, result.history[-1][1], final)
        _check_accounting(out, result, self.trials, result.scheduler.measurers)
        out.facts["tasks_tuned"] = len(tuned)
        for i in tuned:
            _check_best(out, result.tasks[i], result.best_states[i], result.best_costs[i])
        self._read_phase(out, result, tuned)
        return out

    def _read_phase(self, out: SessionOutcome, result, tuned: List[int]) -> None:
        """Reopen the store and serve every tuned task as a zero-trial hit,
        checking each returns the cost and steps that were written."""
        begin = time.perf_counter()
        store = ScheduleStore(self.store_path)
        for _ in range(self.hit_reps):
            for i in tuned:
                task = result.tasks[i]
                start = time.perf_counter()
                hit = Tuner(task, store=store).tune()
                out.hit_latencies.append(time.perf_counter() - start)
                if not hit.from_store or hit.num_trials != 0:
                    out.failures.append(f"{task.desc}: store miss after write-back")
                elif hit.best_cost != result.best_costs[i] or (
                    hit.best_state.serialize_steps() != result.best_states[i].serialize_steps()
                ):
                    out.failures.append(f"{task.desc}: store hit differs from the written best")
        out.windows.append((begin, time.perf_counter(), "read"))


class Conv2dVariants(Workload):
    """One conv2d variant group (direct / im2col / tiled-gemm) arbitrated
    on two targets whose winners differ; metrics sum over both targets."""

    name = "conv2d-variants"
    params = dict(
        batch=1, in_channels=16, height=14, width=14,
        out_channels=16, kernel=3, stride=2, padding=1,
    )
    #: per-target target costs; the workload's target is their sum
    targets = {"wide_vector_cpu": 6.0e-6, "edge_cpu": 4.0e-5}
    target_cost = sum(targets.values())
    trials = 48
    per_round = 8
    panel = (0, 1)

    def setup(self, workdir: Path) -> None:
        self.ops = [
            (LogicalOp("conv2d", self.params, hardware=hardware()), self.targets[hardware.__name__])
            for hardware in (wide_vector_cpu, edge_cpu)
        ]

    def run(self, seed: int, noise_seed: int) -> SessionOutcome:
        out = SessionOutcome()
        pruned = winner_trials = 0
        for op, target in self.ops:
            probe = Probe(target)
            options = TuningOptions(
                num_measure_trials=self.trials,
                num_measures_per_round=self.per_round,
                seed=seed,
            )
            result, wall = _tune(out, Tuner(op, options=options, callbacks=[probe]), probe)
            variants = result.variant_result
            winner = variants.trajectory(variants.winner)
            final = remeasure(winner.task, variants.best_state, noise_seed)
            _add_session(out, probe, result, wall, variants.best_cost, final)
            _check_accounting(out, result, self.trials, result.scheduler.measurers)
            _check_best(out, winner.task, variants.best_state, variants.best_cost)
            lowest = min(t.best_cost for t in variants.trajectories)
            if variants.best_cost != lowest:
                out.failures.append(f"{op}: winner {variants.winner} is not the lowest best cost")
            pruned += sum(t.pruned_at is not None for t in variants.trajectories)
            winner_trials += winner.num_trials
            out.facts["tasks_tuned"] = out.facts.get("tasks_tuned", 0) + sum(
                t.num_trials > 0 for t in variants.trajectories
            )
        out.facts["variants_pruned"] = pruned
        out.facts["winner_trial_share"] = winner_trials / out.trials
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (MatmulSearch(), MobilenetStore(), Conv2dVariants(), FleetRandom())
}
