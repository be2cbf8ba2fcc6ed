"""The two-stage measurement pipeline: parallel builders + fault-aware runners.

The paper's measurer (§3) is explicitly a pipeline: *builders* compile
candidate programs in parallel on the host, then *runners* execute them on
the target device with a timeout and fault isolation, because real
measurement fails in many distinct ways — compilation errors, device
timeouts, flaky boards.  This module reproduces that structure:

* :class:`LocalBuilder` lowers candidate states to
  :class:`~repro.codegen.lowering.LoweredProgram` objects in the calling
  thread, or in a thread pool for batches when ``n_parallel > 1``, with a
  per-candidate timeout.  Real builds are dominated by compiler subprocess
  / I/O time, which threads genuinely overlap; ``build_latency_sec``
  emulates that compile cost on top of the (microsecond-scale) analytical
  lowering.
* :class:`LocalRunner` "executes" built programs on the analytical
  machine model, on a pool of named boards (one, ``"dev0"``,
  unless ``devices`` names more), adding the seeded run-to-run noise of a
  real device, honoring a run timeout (a candidate whose simulated runtime
  exceeds the budget times out instead of reporting a cost, like a real
  runner killing a slow kernel), and consulting an injectable
  :class:`FaultModel` for device-level failures.
* :class:`MeasurePipeline` is the facade every consumer drives: it feeds
  inputs through builder then runner, keeps the per-workload best program,
  and aggregates trial / retry / error counters.

Failure modes — the :class:`MeasureErrorNo` taxonomy
----------------------------------------------------
Every :class:`MeasureResult` carries a machine-readable error kind instead
of a bare string, mirroring the reference implementation's ``MeasureErrorNo``:

==========================  ====================================================
kind                        meaning
==========================  ====================================================
``NO_ERROR``                the program built and ran; ``costs`` is populated
``INSTANTIATION_ERROR``     the state is incomplete (placeholder tile sizes) —
                            the search produced something that is not yet a
                            program
``BUILD_ERROR``             lowering / "compilation" failed (invalid schedule)
``BUILD_TIMEOUT``           the builder exceeded its per-candidate timeout
``RUN_ERROR``               a transient device fault while running (the
                            flaky-board case: retrying the same program can
                            succeed)
``RUN_TIMEOUT``             the program ran longer than the runner's budget;
                            slow candidates are killed, not timed
``UNKNOWN_ERROR``           anything else (also the legacy-record default when
                            an old log line has an error string but no kind)
==========================  ====================================================

Invalid results never enter the cost model's training set and never update
best-state tracking, but they *do* consume measurement trials, and a failed
run is charged to the busy time of the board that ran it — error-heavy
searches pay for the device time they waste, as on a real machine.

Retry policy — transient faults are retried, not discarded
----------------------------------------------------------
``RUN_ERROR`` is the documented "retrying the same program can succeed"
case: the paper's runners re-run a candidate on a flaky device instead of
throwing the trial away.  :class:`MeasurePipeline` reproduces that with
``n_retry`` (threaded from :attr:`~repro.task.TuningOptions.n_retry`): a
result whose ``error_no`` is ``RUN_ERROR`` is re-run up to ``n_retry``
times through the runner stage (the build is reused — only the run stage
failed).  The attempts merge into one :class:`MeasureResult` whose
``retry_count`` records how many re-runs happened; wall-clock of every
attempt accumulates into ``elapsed_sec`` and each attempt is charged to the
busy time of its board, so recovered trials still pay for the device time
they burned.  A retried program is still *one* trial: it trains the
cost model once, appears in the tuning log once (``retry_count``
round-trips through :mod:`repro.records`), and consumes one unit of the
trial budget.

Device pools — one runner for one board or many
-----------------------------------------------
The paper's runners time programs on a pool of devices that are flaky,
queue-limited and not necessarily identical.  :class:`LocalRunner` sends
every run through a :class:`~repro.hardware.fleet.DeviceFleet` of boards,
each with its own :class:`~repro.hardware.fleet.DeviceProfile` (noise,
transient-fault and timeout rates, queue latency, relative slowdown)
instead of averaging the fleet's behaviour away.  The fleet dispatches each
run (``"round-robin"``, ``"least-loaded"`` or ``"affinity"``), learns every
board's fault profile from its results and, when asked, trips a circuit
breaker on a misbehaving board.  A board asks the session's
:class:`FaultModel` first and its own profile's faults second.  The default
pool is one clean board, ``"dev0"``, whose costs equal a plain run on the
machine model bit for bit::

    from repro import DeviceProfile, Tuner, TuningOptions

    options = TuningOptions(
        n_parallel=8, n_retry=2,
        devices=[DeviceProfile("board0"),
                 DeviceProfile("board1", run_error_prob=0.05, slowdown=1.5)])
    result = Tuner(task, options=options).tune()

:class:`~repro.task.TuningOptions` only names the stages: ``"local"``
(``"rpc"`` is another name for the same stages).  Ready stages go in as a
ready measurer::

    Tuner(task, measurer=MeasurePipeline(hw, builder=..., runner=...))

Asynchronous sessions — overlapping search with measurement
-----------------------------------------------------------
The paper's auto-scheduler hides device latency by overlapping candidate
generation with hardware measurement; :class:`MeasureSession` is the API
that makes the same overlap possible here.  A session is opened over a
pipeline (``pipeline.session(async_=True)``), accepts work through
:meth:`MeasureSession.submit` (returning one :class:`MeasureFuture` per
candidate), streams outcomes in completion order through
:meth:`MeasureSession.as_completed`, and is swept with
:meth:`MeasureSession.drain` / closed with :meth:`MeasureSession.close`
(context-manager semantics do the latter automatically)::

    with pipeline.session(async_=True) as session:
        futures = session.submit(inputs)          # devices start immediately
        next_batch = policy.propose_candidates(n)  # breeds while they run
        for fut in session.as_completed(futures):
            observe(fut.input, fut.result())

A synchronous session (``async_=False``, the default) measures each
submitted batch through :meth:`MeasurePipeline.measure` before ``submit``
returns, so its futures are already done.  In async mode a small worker
pool takes candidates one at a time, each worker building its own through
:meth:`LocalBuilder.build_one_dispatch`.  Only the build differs: both
modes then run, retry and account through the same step under the
pipeline's measurement lock, so every executed candidate is accounted
exactly once.  Cancelled futures never run and are never counted, and
per-program determinism (hash-seeded noise, per-program fault draws) makes
single-device async results identical to sync results regardless of
interleaving.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..codegen.lowering import LoweredProgram, lower_state
from ..ir.state import State
from .platform import HardwareParams
from .simulator import CostSimulator

if TYPE_CHECKING:  # pragma: no cover - types only (fleet.py imports this module)
    from .fleet import CircuitBreakerConfig, DeviceLike, DeviceProfile

__all__ = [
    "MeasureErrorNo",
    "classify_error_no",
    "error_kind_of",
    "MeasureInput",
    "MeasureResult",
    "BuildResult",
    "FaultModel",
    "NoFaults",
    "RandomFaults",
    "LocalBuilder",
    "LocalRunner",
    "MeasurePipeline",
    "MeasureFuture",
    "MeasureSession",
]


class MeasureErrorNo(IntEnum):
    """Machine-readable error taxonomy of one measurement (see module docs)."""

    NO_ERROR = 0
    INSTANTIATION_ERROR = 1
    BUILD_ERROR = 2
    BUILD_TIMEOUT = 3
    RUN_ERROR = 4
    RUN_TIMEOUT = 5
    UNKNOWN_ERROR = 6


def classify_error_no(error: Optional[str], error_no: int) -> int:
    """Normalize an ``(error message, error_no)`` pair.

    Legacy constructions (and pre-taxonomy log lines) carry only an error
    string; those classify as ``UNKNOWN_ERROR``.  Shared by
    :class:`MeasureResult` and :class:`~repro.records.TuningRecord` so live
    results and logged records can never disagree on classification.
    """
    if error is not None and error_no == MeasureErrorNo.NO_ERROR:
        return MeasureErrorNo.UNKNOWN_ERROR
    return error_no


def error_kind_of(error_no: int) -> MeasureErrorNo:
    """The taxonomy entry for a code, tolerating out-of-taxonomy values
    (custom runners / fault models) as ``UNKNOWN_ERROR`` instead of raising."""
    try:
        return MeasureErrorNo(error_no)
    except ValueError:
        return MeasureErrorNo.UNKNOWN_ERROR


@dataclass
class MeasureInput:
    """One measurement request: a task and a concrete program state."""

    task: "SearchTask"
    state: State


@dataclass
class MeasureResult:
    """The outcome of measuring one program.

    ``error_no`` is the machine-readable kind (:class:`MeasureErrorNo`);
    ``error`` keeps the human-readable message.  ``elapsed_sec`` is the
    wall-clock the pipeline spent on this candidate (build + run, summed
    over every retry attempt), so failed trials are plottable and chargeable
    too.  ``retry_count`` is how many times the run stage was re-executed
    after a transient fault (see the module's retry-policy section); it
    round-trips through the tuning log.

    :class:`LocalRunner` additionally stamps ``device`` — the name of the
    device that executed the *standing* (final) attempt — and ``attempts``,
    a per-attempt ledger of dicts (``device``, ``error_no``,
    ``occupancy_sec``, ``canary``) accumulated across retries, so every
    attempt's cost is attributable to the board that actually ran it.  A
    failed build never reaches a device and leaves both at their defaults.
    """

    costs: List[float]
    error: Optional[str] = None
    error_no: int = MeasureErrorNo.NO_ERROR
    elapsed_sec: float = 0.0
    retry_count: int = 0
    device: Optional[str] = None
    attempts: List[dict] = field(default_factory=list)
    timestamp: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        self.error_no = classify_error_no(self.error, self.error_no)

    @property
    def valid(self) -> bool:
        return self.error_no == MeasureErrorNo.NO_ERROR and len(self.costs) > 0

    @property
    def error_kind(self) -> MeasureErrorNo:
        return error_kind_of(self.error_no)

    @property
    def mean_cost(self) -> float:
        if not self.valid:
            return float("inf")
        return float(np.mean(self.costs))

    @property
    def min_cost(self) -> float:
        if not self.valid:
            return float("inf")
        return float(np.min(self.costs))


@dataclass
class BuildResult:
    """The builder-stage outcome for one candidate."""

    program: Optional[LoweredProgram]
    error_no: int = MeasureErrorNo.NO_ERROR
    error_msg: Optional[str] = None
    elapsed_sec: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error_no == MeasureErrorNo.NO_ERROR and self.program is not None


# ---------------------------------------------------------------------------
# Fault models: injectable measurement failure scenarios
# ---------------------------------------------------------------------------


def _program_rng(inp: MeasureInput, seed: int, salt: str) -> np.random.Generator:
    """A deterministic RNG derived from the program itself (and a salt), so
    fault injection is reproducible per candidate, independent of ordering."""
    key = repr(inp.state.serialize_steps()).encode()
    digest = hashlib.sha256(key + f"{seed}/{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _device_seed(seed: int, name: str) -> int:
    """A stable per-device fault seed (``hash()`` is salted per process)."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class FaultModel:
    """Injectable measurement faults; the default injects none.

    Builders consult :meth:`build_fault` before compiling, runners consult
    :meth:`run_fault` before executing and :meth:`cost_scale` on the final
    repeats (a flaky device scales timings).  Returning ``None`` means "no
    fault for this candidate".
    """

    def build_fault(self, inp: MeasureInput) -> Optional[Tuple[MeasureErrorNo, str]]:
        return None

    def run_fault(self, inp: MeasureInput) -> Optional[Tuple[MeasureErrorNo, str]]:
        return None

    def cost_scale(self, inp: MeasureInput, repeats: int) -> Optional[np.ndarray]:
        """Extra per-repeat multipliers (``None`` = leave timings alone)."""
        return None

    def reset(self) -> None:
        """Drop any accumulated per-program state (start of a fresh tuning
        session).  The base model is stateless, so this is a no-op."""


class NoFaults(FaultModel):
    """The explicit no-fault model (the default)."""


class RandomFaults(FaultModel):
    """Seeded random faults: build errors, transient run errors, run
    timeouts and extra-noisy repeats, each with an independent probability.

    Faults are deterministic per program (hash-seeded like the measurement
    noise), so a tuning session with fault injection is exactly
    reproducible, and *transient* faults really are transient: the
    transient-error draw is salted with a retry counter, so re-measuring the
    same program can succeed.

    The per-program retry counters are bounded: only the
    ``max_tracked_programs`` most recently drawn programs are tracked
    (least-recently-used eviction), so a fault model living across many long
    tuning sessions holds O(1) state instead of one entry per distinct
    program ever measured.  An evicted program restarts at attempt 0 —
    faults stay deterministic given the same measurement history.  Keep the
    bound larger than a round's batch size: if a single batch faults more
    distinct programs than the bound, a program's counter can be evicted
    between its retry draws, restarting its attempt sequence and making its
    "transient" fault repeat (the default 4096 is far above any realistic
    ``num_measures_per_round``).  :meth:`reset` drops all counters at once
    (a fresh tuning session).
    """

    def __init__(
        self,
        build_error_prob: float = 0.0,
        run_error_prob: float = 0.0,
        run_timeout_prob: float = 0.0,
        extra_noise: float = 0.0,
        seed: int = 0,
        max_tracked_programs: int = 4096,
    ):
        for name, p in (
            ("build_error_prob", build_error_prob),
            ("run_error_prob", run_error_prob),
            ("run_timeout_prob", run_timeout_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if max_tracked_programs < 1:
            raise ValueError("max_tracked_programs must be >= 1")
        self.build_error_prob = build_error_prob
        self.run_error_prob = run_error_prob
        self.run_timeout_prob = run_timeout_prob
        self.extra_noise = extra_noise
        self.seed = seed
        self.max_tracked_programs = max_tracked_programs
        self._transient_draws: "OrderedDict[str, int]" = OrderedDict()
        # Timeout draws keep their own counter: a timeout return must not
        # advance the transient-error sequence (that would shift every
        # subsequent error draw of mixed-fault profiles), but re-measuring a
        # timed-out program still has to draw fresh — per-device timeouts
        # are transient too (a thermal stall clears; the board reboots).
        self._timeout_draws: "OrderedDict[str, int]" = OrderedDict()

    def reset(self) -> None:
        self._transient_draws.clear()
        self._timeout_draws.clear()

    def _next_attempt(self, draws: "OrderedDict[str, int]", key: str) -> int:
        """The retry-counter draw for a program, under the LRU bound."""
        attempt = draws.get(key, 0)
        draws[key] = attempt + 1
        draws.move_to_end(key)
        while len(draws) > self.max_tracked_programs:
            draws.popitem(last=False)
        return attempt

    def build_fault(self, inp: MeasureInput) -> Optional[Tuple[MeasureErrorNo, str]]:
        if self.build_error_prob <= 0:
            return None
        rng = _program_rng(inp, self.seed, "build")
        if rng.random() < self.build_error_prob:
            return (MeasureErrorNo.BUILD_ERROR, "FaultModel: injected build failure")
        return None

    def run_fault(self, inp: MeasureInput) -> Optional[Tuple[MeasureErrorNo, str]]:
        if self.run_timeout_prob > 0:
            # Attempt 0 keeps the historical fixed salt (bit-compatible with
            # every seeded session recorded before timeout retries existed);
            # re-draws are salted with the attempt counter so a retried
            # timeout can genuinely clear, like the transient-error draw.
            attempt = self._next_attempt(self._timeout_draws, self._program_key(inp))
            salt = "timeout" if attempt == 0 else f"timeout/{attempt}"
            rng = _program_rng(inp, self.seed, salt)
            if rng.random() < self.run_timeout_prob:
                return (MeasureErrorNo.RUN_TIMEOUT, "FaultModel: injected run timeout")
        if self.run_error_prob > 0:
            attempt = self._next_attempt(self._transient_draws, self._program_key(inp))
            rng = _program_rng(inp, self.seed, f"run/{attempt}")
            if rng.random() < self.run_error_prob:
                return (
                    MeasureErrorNo.RUN_ERROR,
                    f"FaultModel: transient device error (attempt {attempt})",
                )
        return None

    @staticmethod
    def _program_key(inp: MeasureInput) -> str:
        # Digest key: a long session measures many distinct programs, and
        # full step reprs would retain multi-KB strings per program.
        return hashlib.sha256(repr(inp.state.serialize_steps()).encode()).hexdigest()

    def cost_scale(self, inp: MeasureInput, repeats: int) -> Optional[np.ndarray]:
        if self.extra_noise <= 0:
            return None
        rng = _program_rng(inp, self.seed, "flaky")
        return np.clip(1.0 + rng.normal(0.0, self.extra_noise, size=repeats), 0.25, 4.0)


# ---------------------------------------------------------------------------
# Builder stage
# ---------------------------------------------------------------------------


class LocalBuilder:
    """Lower candidates on the host: in the calling thread, or in a thread
    pool for batches when ``n_parallel > 1``.

    ``n_parallel`` workers compile concurrently; ``timeout`` (seconds)
    bounds each candidate's own build *cost* — its thread CPU time plus the
    emulated compile latency, deliberately excluding GIL contention and
    queueing from concurrent builds — and a build that exceeds it is
    reported as ``BUILD_TIMEOUT`` (flagged after the fact, since a Python
    thread cannot be preempted mid-build).  ``build_latency_sec``
    emulates the compiler-invocation cost of a real build (which is
    subprocess/I/O-bound and therefore genuinely overlapped by threads) on
    top of the analytical lowering.
    """

    def __init__(
        self,
        n_parallel: int = 1,
        timeout: Optional[float] = None,
        build_latency_sec: float = 0.0,
        fault_model: Optional[FaultModel] = None,
    ):
        if n_parallel < 1:
            raise ValueError("n_parallel must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("build timeout must be positive (or None)")
        if build_latency_sec < 0:
            raise ValueError("the emulated build latency must be >= 0")
        self.n_parallel = n_parallel
        self.timeout = timeout
        self.build_latency_sec = build_latency_sec
        self.fault_model = fault_model or NoFaults()

    # ------------------------------------------------------------------
    def build_one(self, inp: MeasureInput) -> BuildResult:
        # Per-candidate build cost = this thread's own CPU time plus the
        # emulated compile latency.  Wall clock would also count GIL
        # contention and scheduler delays from *other* concurrent builds, so
        # raising n_parallel alone could push every candidate past the
        # timeout; thread CPU time keeps the measure contention-free and the
        # timeout semantics identical serial and parallel.
        cpu_start = time.thread_time()
        state = inp.state
        try:
            if not state.is_concrete():
                # Instantiation is checked before fault injection and the
                # compile-latency charge: an incomplete program is rejected
                # up front (it never reaches the compiler), and must classify
                # as INSTANTIATION_ERROR even under an injected-fault model.
                # Same message (and ValueError framing) the serial measurer
                # produced, so log strings stay stable across the refactor.
                return BuildResult(
                    None,
                    MeasureErrorNo.INSTANTIATION_ERROR,
                    "ValueError: cannot measure an incomplete program (placeholder tile sizes)",
                    time.thread_time() - cpu_start,
                )
        except Exception as exc:
            return BuildResult(
                None,
                MeasureErrorNo.BUILD_ERROR,
                f"{type(exc).__name__}: {exc}",
                time.thread_time() - cpu_start,
            )
        # The emulated compile cost is spent before the fault draw: a build
        # that fails still occupied the compiler (failures consume machine
        # time, as documented).
        if self.build_latency_sec > 0:
            time.sleep(self.build_latency_sec)

        def elapsed() -> float:
            return (time.thread_time() - cpu_start) + self.build_latency_sec

        fault = self.fault_model.build_fault(inp)
        if fault is not None:
            error_no, msg = fault
            return BuildResult(None, error_no, msg, elapsed())
        try:
            program = lower_state(state)
        except Exception as exc:  # invalid schedule -> build error
            return BuildResult(None, MeasureErrorNo.BUILD_ERROR, f"{type(exc).__name__}: {exc}", elapsed())
        return BuildResult(program, MeasureErrorNo.NO_ERROR, None, elapsed())

    def build(self, inputs: Sequence[MeasureInput]) -> List[BuildResult]:
        if not inputs:
            return []
        if self.n_parallel <= 1 or len(inputs) == 1:
            results = [self.build_one(inp) for inp in inputs]
        else:
            with ThreadPoolExecutor(max_workers=self.n_parallel) as pool:
                results = list(pool.map(self.build_one, inputs))
        return [self._apply_timeout(result) for result in results]

    def build_one_dispatch(self, inp: MeasureInput) -> BuildResult:
        """Build one candidate in the calling session worker's thread."""
        return self._apply_timeout(self.build_one(inp))

    def _apply_timeout(self, result: BuildResult) -> BuildResult:
        # The timeout is enforced post hoc on each candidate's own build cost
        # (thread CPU time + emulated latency; identical semantics serial and
        # parallel): a thread cannot be preempted mid-build, and waiting on
        # futures with a wall-clock timeout would instead measure queue
        # position — flagging candidates that never started and passing slow
        # builds that finished while earlier futures were being awaited.
        if (
            self.timeout is not None
            and result.error_no == MeasureErrorNo.NO_ERROR
            and result.elapsed_sec > self.timeout
        ):
            return BuildResult(
                None,
                MeasureErrorNo.BUILD_TIMEOUT,
                f"build exceeded {self.timeout}s",
                result.elapsed_sec,
            )
        return result


# ---------------------------------------------------------------------------
# Runner stage
# ---------------------------------------------------------------------------


class _Board:
    """One board of a :class:`LocalRunner`'s pool: the runner's machine
    model under this board's :class:`~repro.hardware.fleet.DeviceProfile`.

    The profile sets the board's noise, slowdown and queue latency, and
    seeds the board's own faults.  The session's fault model is asked
    first: the first fault reported wins, and the cost scales of both
    models are multiplied together before they are applied.
    """

    def __init__(self, runner: "LocalRunner", profile: "DeviceProfile"):
        self.profile = profile
        self.simulator = runner.simulator
        self.noise = runner.noise if profile.noise is None else profile.noise
        self.repeats = runner.repeats
        self.seed = runner.seed
        self.timeout = runner.timeout
        self.faults: Tuple[FaultModel, ...] = (runner.fault_model,)
        if profile.has_faults:
            self.faults += (
                RandomFaults(
                    run_error_prob=profile.run_error_prob,
                    run_timeout_prob=profile.run_timeout_prob,
                    extra_noise=profile.extra_noise,
                    seed=_device_seed(runner.seed, profile.name),
                ),
            )

    def _noise_factors(self, state: State) -> np.ndarray:
        """Deterministic pseudo-random noise derived from the program itself."""
        if self.noise <= 0:
            return np.ones(self.repeats)
        key = repr(state.serialize_steps()).encode()
        digest = hashlib.sha256(key + str(self.seed).encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        return 1.0 + rng.normal(0.0, self.noise, size=self.repeats)

    def run_one(
        self, inp: MeasureInput, build: BuildResult
    ) -> Tuple[MeasureResult, Optional[float]]:
        """Run one successfully built program on this board.  Returns the
        result and the program's slowdown-free runtime, also when a fault
        fired before the program was timed (the fleet charges the board
        with it); ``None`` when the machine model could not estimate it."""
        start = time.perf_counter()

        def failed(error_no: int, msg: str) -> MeasureResult:
            return MeasureResult(
                costs=[], error=msg, error_no=error_no, elapsed_sec=self._elapsed(build, start)
            )

        faulted: Optional[MeasureResult] = None
        for model in self.faults:
            fault = model.run_fault(inp)
            if fault is not None:
                faulted = failed(*fault)
                break
        try:
            clean = self.simulator.estimate_lowered(build.program).total_seconds
        except Exception as exc:  # device-side analysis failure
            if faulted is None:
                faulted = failed(MeasureErrorNo.RUN_ERROR, f"{type(exc).__name__}: {exc}")
            return faulted, None
        if faulted is not None:
            return faulted, clean
        base = clean * self.profile.slowdown
        if self.timeout is not None and base > self.timeout:
            msg = f"simulated runtime {base:.3e}s exceeded the {self.timeout}s budget"
            return failed(MeasureErrorNo.RUN_TIMEOUT, msg), clean
        factors = np.clip(self._noise_factors(inp.state), 0.5, 2.0)
        scale = None
        for model in self.faults:
            extra = model.cost_scale(inp, self.repeats)
            if extra is not None:
                scale = extra if scale is None else scale * extra
        if scale is not None:
            factors = factors * scale
        costs = [float(base * f) for f in factors]
        return MeasureResult(costs=costs, elapsed_sec=self._elapsed(build, start)), clean

    def _elapsed(self, build: BuildResult, start: float) -> float:
        return build.elapsed_sec + (time.perf_counter() - start) + self.profile.queue_latency_sec


class LocalRunner:
    """Time built programs on the analytical machine model, on a pool of
    named, individually profiled boards.

    Adds the same seeded, program-derived run-to-run noise the old measurer
    used (so no-fault measurements are bit-identical to the serial path).
    ``timeout`` bounds the *simulated* runtime: a candidate whose estimated
    execution time exceeds it is reported as ``RUN_TIMEOUT``, the way a real
    runner kills a slow kernel instead of waiting it out.  A
    :class:`FaultModel` injects device-level failures on every board.

    Every run goes through :attr:`fleet`, a
    :class:`~repro.hardware.fleet.DeviceFleet` of the boards ``devices``
    names (profiles, names, dicts or a count; ``None`` is the one board
    ``"dev0"``).  The fleet dispatches each run (``dispatch="round-robin"``,
    ``"least-loaded"`` or ``"affinity"``), learns each board's fault
    profile, runs the optional circuit breaker and changes membership
    mid-session (``fleet.add_device``, ``fleet.remove_device``,
    ``fleet.inject_profile``; :meth:`device_stats` reports it all).  Each
    result is stamped with the board that ran its final attempt
    (``result.device``) and a per-attempt ledger (``result.attempts``).
    Build failures never reach a board: they are reported straight through.
    """

    def __init__(
        self,
        hardware: HardwareParams,
        devices: "Union[None, int, Sequence[DeviceLike]]" = None,
        dispatch: str = "round-robin",
        noise: float = 0.03,
        repeats: int = 3,
        seed: int = 0,
        timeout: Optional[float] = None,
        fault_model: Optional[FaultModel] = None,
        circuit_breaker: "Union[None, bool, dict, CircuitBreakerConfig]" = None,
    ):
        from .fleet import DeviceFleet  # the fleet module imports this one

        if noise < 0:
            raise ValueError("noise must be >= 0")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("run timeout must be positive (or None)")
        self.hardware = hardware
        self.simulator = CostSimulator(hardware)
        self.noise = noise
        self.repeats = repeats
        self.seed = seed
        self.timeout = timeout
        self.fault_model = fault_model or NoFaults()
        self.fleet = DeviceFleet(
            devices,
            lambda profile: _Board(self, profile),
            dispatch=dispatch,
            circuit_breaker=circuit_breaker,
            repeats=repeats,
        )

    # -- the pool --------------------------------------------------------
    def device_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-device counters (classic ``runs`` / ``errors`` / ``busy_sec``
        plus breaker state and the live estimated profile — see
        :meth:`~repro.hardware.fleet.DeviceFleet.device_stats`)."""
        return self.fleet.device_stats()

    # ------------------------------------------------------------------
    def run(
        self, inputs: Sequence[MeasureInput], build_results: Sequence[BuildResult]
    ) -> List[MeasureResult]:
        results: List[MeasureResult] = []
        for inp, build in zip(inputs, build_results):
            if not build.ok:
                results.append(
                    MeasureResult(
                        costs=[],
                        error=build.error_msg,
                        error_no=build.error_no,
                        elapsed_sec=build.elapsed_sec,
                    )
                )
                continue
            ticket = self.fleet.acquire(inp)
            device = ticket.device
            result, clean = device.runner.run_one(inp, build)
            occupancy = self.fleet.record(ticket, inp, build, result, clean)
            result.device = device.name
            result.attempts = [
                {
                    "device": device.name,
                    "error_no": int(result.error_no),
                    "occupancy_sec": occupancy,
                    "canary": ticket.canary,
                }
            ]
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# Asynchronous measurement sessions
# ---------------------------------------------------------------------------


class MeasureFuture:
    """A handle to one in-flight measurement submitted to a :class:`MeasureSession`.

    ``input`` is the submitted :class:`MeasureInput`; :meth:`result` blocks
    until the measurement lands (raising
    :class:`concurrent.futures.CancelledError` if it was cancelled before it
    started).  :meth:`cancel` succeeds only while the work is still queued —
    a running or finished measurement cannot be recalled, matching the
    :mod:`concurrent.futures` contract.
    """

    _PENDING = "pending"
    _RUNNING = "running"
    _DONE = "done"
    _CANCELLED = "cancelled"

    __slots__ = ("input", "_session", "_state", "_result", "_exception", "_seq", "_collected")

    def __init__(self, inp: MeasureInput, session: "MeasureSession"):
        self.input = inp
        self._session = session
        self._state = MeasureFuture._PENDING
        self._result: Optional[MeasureResult] = None
        self._exception: Optional[BaseException] = None
        #: completion sequence number (orders as_completed yields)
        self._seq = -1
        #: whether drain()/as_completed() already handed this future out
        self._collected = False

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """True once the measurement finished or was cancelled."""
        with self._session._lock:
            return self._state in (MeasureFuture._DONE, MeasureFuture._CANCELLED)

    def cancelled(self) -> bool:
        with self._session._lock:
            return self._state == MeasureFuture._CANCELLED

    def cancel(self) -> bool:
        """Cancel the measurement if it has not started; returns whether the
        future is cancelled afterwards (idempotent)."""
        return self._session._cancel_future(self)

    def result(self, timeout: Optional[float] = None) -> MeasureResult:
        """Block until the measurement lands and return its
        :class:`MeasureResult` (re-raising a worker-side crash, or
        :class:`concurrent.futures.CancelledError` for cancelled work)."""
        self._session._wait_future(self, timeout)
        if self._state == MeasureFuture._CANCELLED:
            raise CancelledError(f"measurement of {self.input!r} was cancelled")
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result


class MeasureSession:
    """An open measurement stream over one :class:`MeasurePipeline`.

    ``submit(inputs)`` starts measuring candidates and returns one
    :class:`MeasureFuture` each; ``as_completed()`` yields futures in
    completion order as devices finish; ``drain()`` blocks until everything
    in flight has landed and returns the not-yet-collected results in
    submission order; ``close()`` cancels queued work, waits out running
    work, and shuts the workers down (``with pipeline.session(...) as s:``
    does this automatically).

    Two modes share the API:

    * ``async_=False`` — ``submit`` measures the batch through
      :meth:`MeasurePipeline.measure` and returns futures that are already
      done.
    * ``async_=True`` — ``n_workers`` threads consume the queue
      concurrently: builds overlap (each worker builds through
      :meth:`LocalBuilder.build_one_dispatch`), the run stage and all
      pipeline accounting execute under the pipeline's measurement lock
      (exactly once per executed candidate), and completions stream out as
      they land.

    ``measure_latency_sec`` emulates the *wall-clock* cost of occupying a
    real device for one run attempt (it is actually slept: serially in sync
    mode, overlapped across workers in async mode); the default 0.0 sleeps
    nothing.  This knob is what the async-overlap benchmark
    (``benchmarks/test_measure_throughput.py``) turns to make device
    latency dominate.

    It also accepts a *callable* ``(MeasureResult) -> seconds``, given the
    whole merged result of a trial (all attempts).  That lets a harness
    model non-uniform occupancy — e.g. the fleet-resilience benchmark
    charges a faulted attempt the board's full hang-until-watchdog cost by
    reading the result's per-attempt ledger — where the plain float charges
    every attempt the same flat latency.

    A session is not re-entrant across pipelines, and two sessions over the
    same pipeline must not run concurrently with direct ``measure()`` calls
    from other threads except through the pipeline lock they share.
    """

    def __init__(
        self,
        pipeline: "MeasurePipeline",
        async_: bool = False,
        n_workers: Optional[int] = None,
        measure_latency_sec: Union[float, Callable[["MeasureResult"], float]] = 0.0,
    ):
        if not callable(measure_latency_sec) and measure_latency_sec < 0:
            raise ValueError("measure_latency_sec must be >= 0 (or a callable)")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1 (or None for the default)")
        self.pipeline = pipeline
        self.async_mode = bool(async_)
        self.measure_latency_sec = measure_latency_sec
        self.n_workers = n_workers if n_workers is not None else pipeline._default_session_workers()
        self._lock = threading.Lock()
        self._queue_cond = threading.Condition(self._lock)
        self._done_cond = threading.Condition(self._lock)
        self._queue: "deque[MeasureFuture]" = deque()
        self._futures: List[MeasureFuture] = []
        self._inflight = 0
        self._seq = itertools.count()
        self._closed = False
        self._workers: List[threading.Thread] = []

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "MeasureSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- submission ------------------------------------------------------
    def submit(self, inputs: Sequence[MeasureInput]) -> List[MeasureFuture]:
        """Measure a batch of candidates; returns one future per input, in
        submission order.  A sync session measures the batch through
        :meth:`MeasurePipeline.measure` before returning, so every future is
        already done; an async session's workers start on it at once."""
        inputs = list(inputs)
        with self._lock:
            if self._closed:
                raise RuntimeError("MeasureSession is closed")
            # Compact the collected prefix so a long-lived session (one per
            # tuning run) holds O(in-flight) futures, not O(total trials).
            self._futures = [f for f in self._futures if not f._collected]
            futures = [MeasureFuture(inp, self) for inp in inputs]
            if self.async_mode:
                self._futures.extend(futures)
                self._queue.extend(futures)
                if futures:
                    self._ensure_workers()
                    self._queue_cond.notify_all()
                return futures
        results = self.pipeline.measure(inputs)
        # The emulated device is serial in sync mode: every run attempt
        # occupies it back to back.
        delay = sum(self._latency_for(res) for res in results)
        if delay > 0:
            time.sleep(delay)
        with self._lock:
            # Registered only once measured: a batch whose measurement
            # raised leaves no pending future for drain() to return.
            self._futures.extend(futures)
            for fut, res in zip(futures, results):
                fut._result = res
                fut._state = MeasureFuture._DONE
                fut._seq = next(self._seq)
        return futures

    # -- consumption -----------------------------------------------------
    def as_completed(
        self,
        futures: Optional[Iterable[MeasureFuture]] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[MeasureFuture]:
        """Yield futures as their measurements land, in completion order.

        Restricted to ``futures`` when given, otherwise to every submitted
        future not yet collected by ``as_completed``/``drain``.  Cancelled
        futures are yielded too (check :meth:`MeasureFuture.cancelled`), so
        callers always see every handle back.  ``timeout`` bounds each wait
        for the *next* completion; exceeding it raises :class:`TimeoutError`.
        """
        with self._lock:
            if futures is None:
                remaining = [f for f in self._futures if not f._collected]
            else:
                remaining = list(futures)
        while remaining:
            # The timeout bounds the wait for the *next* yield of this set;
            # completions of unrelated futures wake the condition but must
            # not restart the clock.
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._done_cond:
                while True:
                    ready = [
                        f for f in remaining
                        if f._state in (MeasureFuture._DONE, MeasureFuture._CANCELLED)
                    ]
                    if ready:
                        break
                    wait_for = None if deadline is None else deadline - time.monotonic()
                    if wait_for is not None and wait_for <= 0:
                        raise TimeoutError(
                            f"no measurement completed within {timeout}s "
                            f"({len(remaining)} still in flight)"
                        )
                    self._done_cond.wait(wait_for)
                ready.sort(key=lambda f: f._seq)
                for f in ready:
                    remaining.remove(f)
            for f in ready:  # yield outside the lock
                # Collected only once actually handed out: if the consumer
                # abandons the generator mid-batch (a worker crash re-raised
                # by result(), a callback exception), the not-yet-yielded
                # futures stay sweepable by drain()/a later as_completed().
                with self._lock:
                    f._collected = True
                yield f

    def drain(self) -> List[MeasureResult]:
        """Block until nothing is queued or in flight, then return the
        results of every not-yet-collected future, in submission order
        (cancelled futures are swept but excluded from the results).

        A worker-side crash re-raises here — and marks only *that* future
        collected, so the successfully measured remainder is still
        retrievable by draining again."""
        with self._done_cond:
            while self._queue or self._inflight:
                self._done_cond.wait()
            out = [f for f in self._futures if not f._collected]
            for f in out:
                if f._exception is not None:
                    f._collected = True
                    raise f._exception
            for f in out:
                f._collected = True
        return [
            f._result for f in out if f._state != MeasureFuture._CANCELLED
        ]

    def cancel_pending(self) -> int:
        """Cancel every queued-but-unstarted future; returns how many were
        cancelled.  Running measurements always complete (and are accounted)."""
        with self._lock:
            count = 0
            while self._queue:
                fut = self._queue.pop()
                fut._state = MeasureFuture._CANCELLED
                fut._seq = next(self._seq)
                count += 1
            if count:
                self._done_cond.notify_all()
            return count

    def close(self) -> None:
        """Cancel queued work, wait out running work, stop the workers.

        Idempotent.  After ``close()`` the session rejects new submissions;
        cancelled futures report ``cancelled()`` and were never accounted.
        """
        self.cancel_pending()
        with self._lock:
            self._closed = True
            self._queue_cond.notify_all()
        for worker in self._workers:
            worker.join()
        self._workers = []

    # -- internals -------------------------------------------------------
    def _cancel_future(self, fut: MeasureFuture) -> bool:
        with self._lock:
            if fut._state == MeasureFuture._CANCELLED:
                return True
            if fut._state != MeasureFuture._PENDING:
                return False
            try:
                self._queue.remove(fut)
            except ValueError:
                return False
            fut._state = MeasureFuture._CANCELLED
            fut._seq = next(self._seq)
            self._done_cond.notify_all()
            return True

    def _wait_future(self, fut: MeasureFuture, timeout: Optional[float]) -> None:
        # Monotonic deadline: the condition wakes on EVERY completion and
        # cancellation, and those of other futures must not restart the clock.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._done_cond:
            while fut._state not in (MeasureFuture._DONE, MeasureFuture._CANCELLED):
                wait_for = None if deadline is None else deadline - time.monotonic()
                if wait_for is not None and wait_for <= 0:
                    raise TimeoutError(f"measurement of {fut.input!r} did not complete in {timeout}s")
                self._done_cond.wait(wait_for)

    def _latency_for(self, result: MeasureResult) -> float:
        """Emulated device-occupancy sleep for one trial: the flat latency
        charged per attempt, or whatever a callable knob says about the
        merged result (clamped to >= 0)."""
        if callable(self.measure_latency_sec):
            return max(0.0, float(self.measure_latency_sec(result)))
        return self.measure_latency_sec * (1 + result.retry_count)

    def _ensure_workers(self) -> None:
        # called with the lock held
        while len(self._workers) < self.n_workers:
            worker = threading.Thread(
                target=self._worker,
                name=f"MeasureSession-worker-{len(self._workers)}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._queue_cond.wait()
                if not self._queue:  # closed, queue drained
                    return
                fut = self._queue.popleft()
                fut._state = MeasureFuture._RUNNING
                self._inflight += 1
            result: Optional[MeasureResult] = None
            exception: Optional[BaseException] = None
            try:
                result = self.pipeline._measure_streamed(fut.input)
            except BaseException as exc:  # surfaced through fut.result()
                exception = exc
            if result is not None:
                # Device occupancy: every attempt (initial + retries) held
                # the board for the emulated latency.  Slept outside any
                # lock so workers genuinely overlap device time.
                delay = self._latency_for(result)
                if delay > 0:
                    time.sleep(delay)
            with self._lock:
                self._inflight -= 1
                fut._result = result
                fut._exception = exception
                fut._state = MeasureFuture._DONE
                fut._seq = next(self._seq)
                self._done_cond.notify_all()


# ---------------------------------------------------------------------------
# The pipeline facade
# ---------------------------------------------------------------------------


class MeasurePipeline:
    """Builder → runner measurement pipeline with best-state tracking.

    This is the object every consumer (search policies, the task scheduler,
    :class:`~repro.tuner.Tuner`, callbacks, records) drives.  Construct it
    either from a hardware description (``MeasurePipeline(intel_cpu())``)
    with knobs, or from explicit ``builder=`` / ``runner=`` stages (how
    ready stages reach a session: ``Tuner(measurer=...)``), or from
    :class:`~repro.task.TuningOptions` via :meth:`from_options`.
    """

    def __init__(
        self,
        hardware: Optional[HardwareParams] = None,
        *,
        builder: Optional[LocalBuilder] = None,
        runner: Optional[LocalRunner] = None,
        n_parallel: int = 1,
        build_timeout: Optional[float] = None,
        run_timeout: Optional[float] = None,
        noise: float = 0.03,
        repeats: int = 3,
        seed: int = 0,
        fault_model: Optional[FaultModel] = None,
        n_retry: int = 0,
        retry_timeouts: bool = False,
    ):
        if n_retry < 0:
            raise ValueError("n_retry must be >= 0")
        # Stage knobs configure the auto-built stages only; pairing a ready
        # instance with knobs for that stage is rejected rather than silently
        # ignored.
        if builder is not None and (n_parallel != 1 or build_timeout is not None):
            raise ValueError(
                "builder is a ready instance, so n_parallel / build_timeout "
                "would be silently ignored; configure the builder directly"
            )
        if runner is not None and (
            noise != 0.03 or repeats != 3 or seed != 0 or run_timeout is not None
        ):
            raise ValueError(
                "runner is a ready instance, so noise / repeats / seed / "
                "run_timeout would be silently ignored; configure the runner "
                "directly"
            )
        if fault_model is not None and (builder is not None or runner is not None):
            raise ValueError(
                "a ready stage would silently ignore fault_model; pass the "
                "fault model to the stage constructors"
            )
        if runner is None:
            if hardware is None:
                raise ValueError("MeasurePipeline needs hardware params or an explicit runner")
            runner = LocalRunner(
                hardware,
                noise=noise,
                repeats=repeats,
                seed=seed,
                timeout=run_timeout,
                fault_model=fault_model,
            )
        if builder is None:
            builder = LocalBuilder(
                n_parallel=n_parallel, timeout=build_timeout, fault_model=fault_model
            )
        self.builder = builder
        self.runner = runner
        #: how many times a RUN_ERROR (transient device fault) is re-run
        #: before the trial is given up (0 = the old fail-fast behaviour)
        self.n_retry = n_retry
        #: whether the retry policy also covers RUN_TIMEOUT results: off by
        #: default because a deterministic timeout (the program really is
        #: slower than the budget) would burn every retry; turn it on for
        #: pools whose timeouts are transient device behaviour (thermal
        #: stalls, hung boards) — the retry re-dispatches, so it can land on
        #: a faster or healthier device and genuinely recover
        self.retry_timeouts = retry_timeouts
        #: serializes the run stage and all counter/best-state accounting
        #: across session workers and direct measure() calls
        self._measure_lock = threading.Lock()
        #: total number of measurement trials performed
        self.measure_count = 0
        #: total run-stage retry attempts across all trials
        self.retry_count = 0
        #: measurements that failed to build or run (invalid schedules, faults)
        self.error_count = 0
        #: per-kind error counters (only non-NO_ERROR kinds appear)
        self.error_counts: Dict[MeasureErrorNo, int] = {}
        #: best cost (seconds) seen per workload key
        self.best_cost: Dict[str, float] = {}
        #: best state seen per workload key
        self.best_state: Dict[str, State] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def from_options(cls, hardware: HardwareParams, options: "TuningOptions") -> "MeasurePipeline":
        """Build a pipeline from :class:`~repro.task.TuningOptions` knobs:
        the :class:`LocalBuilder` and :class:`LocalRunner` that the stage
        names select, configured by the stage and device-pool knobs."""
        return cls(
            hardware,
            builder=LocalBuilder(n_parallel=options.n_parallel, timeout=options.build_timeout),
            runner=LocalRunner(
                hardware,
                seed=options.seed,
                timeout=options.run_timeout,
                devices=options.devices,
                dispatch=options.dispatch or "round-robin",
                circuit_breaker=options.circuit_breaker,
            ),
            n_retry=options.n_retry,
            retry_timeouts=options.retry_timeouts,
        )

    @property
    def hardware(self) -> HardwareParams:
        return self.runner.hardware

    # -- sessions --------------------------------------------------------
    def session(
        self,
        async_: bool = False,
        n_workers: Optional[int] = None,
        measure_latency_sec: Union[float, Callable[[MeasureResult], float]] = 0.0,
    ) -> MeasureSession:
        """Open a :class:`MeasureSession` over this pipeline (see
        :class:`MeasureSession` for the knobs)."""
        return MeasureSession(
            self,
            async_=async_,
            n_workers=n_workers,
            measure_latency_sec=measure_latency_sec,
        )

    def _default_session_workers(self) -> int:
        """Worker count for async sessions: enough to keep the builder's
        threads and every board of the runner busy, capped sanely."""
        return min(16, max(2, self.builder.n_parallel, len(self.runner.fleet.devices)))

    # ------------------------------------------------------------------
    def measure(self, inputs: Sequence[MeasureInput]) -> List[MeasureResult]:
        """Measure a batch of programs: build all (in the builder's thread
        pool when ``n_parallel > 1``), then run all, retry transient run
        faults up to ``n_retry`` times, and update counters and
        per-workload bests.  A synchronous :class:`MeasureSession` measures
        each submitted batch through this."""
        if not inputs:
            return []
        return self._run_and_account(inputs, self.builder.build(inputs))

    def _measure_streamed(self, inp: MeasureInput) -> MeasureResult:
        """Measure one candidate on behalf of an async session worker: the
        build runs outside the pipeline lock (overlapping other workers'
        builds, through :meth:`LocalBuilder.build_one_dispatch`)."""
        return self._run_and_account([inp], [self.builder.build_one_dispatch(inp)])[0]

    def _run_and_account(
        self, inputs: Sequence[MeasureInput], builds: Sequence[BuildResult]
    ) -> List[MeasureResult]:
        """Run built candidates, retry transient faults in batch order and
        account every trial.  All of it holds the measurement lock, so
        stateful fault models, device dispatch and counters change exactly
        once per candidate whichever mode measured it."""
        with self._measure_lock:
            results = self.runner.run(inputs, builds)
            self._retry_transient(inputs, builds, results)
            for inp, res in zip(inputs, results):
                self._account(inp, res)
        return results

    def _retry_transient(
        self,
        inputs: Sequence[MeasureInput],
        build_results: Sequence[BuildResult],
        results: List[MeasureResult],
    ) -> None:
        """Re-run transiently failed results in place, up to ``n_retry``
        attempts each.  A ``RUN_ERROR`` is always transient; a
        ``RUN_TIMEOUT`` joins the retry set only with
        :attr:`retry_timeouts` on.

        Only the run stage repeats — the build succeeded (these are
        device-side faults), so the lowered program is reused.  Attempts
        merge into the original result slot: ``retry_count`` counts the
        re-runs, ``elapsed_sec`` accumulates across attempts, and the
        per-attempt device ledger (``attempts``) concatenates, so one
        retried program stays one trial everywhere downstream (cost-model
        training, records, the budget) while every attempt stays
        attributable to the device that ran it."""
        retryable = {MeasureErrorNo.RUN_ERROR}
        if self.retry_timeouts:
            retryable.add(MeasureErrorNo.RUN_TIMEOUT)
        for _ in range(self.n_retry):
            retry_idx = [
                i for i, res in enumerate(results)
                if res.error_kind in retryable
            ]
            if not retry_idx:
                return
            fresh = self.runner.run(
                [inputs[i] for i in retry_idx],
                [build_results[i] for i in retry_idx],
            )
            for i, res in zip(retry_idx, fresh):
                res.retry_count = results[i].retry_count + 1
                # Every attempt's result embeds the build's elapsed time
                # (run_one charges it on every path); the build executed
                # once, so count it once when accumulating across attempts.
                res.elapsed_sec += results[i].elapsed_sec - build_results[i].elapsed_sec
                res.attempts = results[i].attempts + res.attempts
                results[i] = res

    def measure_one(self, inp: MeasureInput) -> MeasureResult:
        """Measure a single program."""
        return self.measure([inp])[0]

    def _account(self, inp: MeasureInput, res: MeasureResult) -> None:
        self.measure_count += 1
        self.retry_count += res.retry_count
        if not res.valid:
            self.error_count += 1
            kind = res.error_kind
            self.error_counts[kind] = self.error_counts.get(kind, 0) + 1
            return
        key = inp.task.workload_key
        best = res.min_cost
        if best < self.best_cost.get(key, float("inf")):
            self.best_cost[key] = best
            self.best_state[key] = inp.state
