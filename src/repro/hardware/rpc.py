"""The remote ("rpc") measurement backend: process-pool builds, device pools.

The paper's measurer (§3) is explicitly distributed: builders compile on the
host in parallel, and runners execute built programs on a *pool* of target
devices reached over RPC — devices that are flaky, queue-limited, and not
necessarily identical.  This module reproduces that topology on top of the
builder/runner registries of :mod:`repro.hardware.measure`:

* :class:`RpcBuilder` (``register_builder("rpc")``) compiles candidates in a
  **process pool**.  The thread-pool :class:`~repro.hardware.measure.LocalBuilder`
  overlaps the I/O-bound part of a build (compiler subprocesses), but the
  CPU-bound part — in-process lowering and IR passes — serializes on the
  GIL; worker processes give it true parallelism.  Timeout semantics are
  inherited unchanged from ``LocalBuilder``: each candidate is bounded by
  its *own* build cost (worker thread CPU time plus emulated compile
  latency), never by its queue position.
* :class:`RpcRunner` (``register_runner("rpc")``) models the device pool:
  every run is dispatched to one of a set of named devices, each described
  by a :class:`DeviceProfile` — its own measurement noise, transient-fault
  and timeout rates, queue latency, and relative slowdown — instead of
  averaging the fleet's behaviour into one synthetic machine.  The pool is
  managed by a :class:`~repro.hardware.fleet.DeviceFleet`: dispatch is
  ``"round-robin"`` (the default), ``"least-loaded"`` (by simulated busy
  seconds plus the estimated fault-rate waste) or ``"affinity"`` (sticky
  workload→device rendezvous hashing); an optional circuit breaker
  (``circuit_breaker=True`` or a
  :class:`~repro.hardware.fleet.CircuitBreakerConfig`) quarantines, probes
  and re-admits or ejects misbehaving boards; and
  :meth:`RpcRunner.add_device` / :meth:`RpcRunner.remove_device` change
  membership mid-session.  :meth:`RpcRunner.device_stats` reports per-device
  runs, errors, busy time, breaker state and the live estimated profile.

With a single default-profile device and no faults, the rpc runner is
bit-identical to the local runner (same hash-seeded noise, same simulator),
so switching ``TuningOptions(runner="rpc")`` on is behaviour-preserving
until device profiles are actually configured — enforced by
``tests/hardware/test_rpc.py``.

Transient faults pair with the retry policy of
:class:`~repro.hardware.measure.MeasurePipeline` (``TuningOptions.n_retry``):
a ``RUN_ERROR`` from a flaky device is re-dispatched — round-robin advances,
so the retry typically lands on a *different* device, like the reference
implementation's runner pool.

Usage::

    from repro import DeviceProfile, Tuner, TuningOptions

    options = TuningOptions(
        builder="rpc", runner="rpc", n_parallel=8, n_retry=2,
        devices=[
            DeviceProfile("board0"),
            DeviceProfile("board1", run_error_prob=0.05, slowdown=1.5),
        ])
    result = Tuner(task, options=options).tune()

``devices`` also accepts plain names (``["a", "b"]``), dicts
(``[{"name": "a", "run_error_prob": 0.1}]``) or an int (``4`` = four
default-profile devices).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..utils.procpool import LazyProcessPool

from .fleet import (
    CircuitBreakerConfig,
    DeviceFleet,
    DeviceLike,
    DeviceProfile,
    _device_seed,
)
from .measure import (
    BuildResult,
    FaultModel,
    LocalBuilder,
    LocalRunner,
    MeasureInput,
    MeasureResult,
    ProgramRunner,
    RandomFaults,
    register_builder,
    register_runner,
)
from .platform import HardwareParams

__all__ = ["DeviceProfile", "RpcBuilder", "RpcRunner"]


class _CompositeFaults(FaultModel):
    """Session-level faults layered with a device's own profile faults: the
    first model to report a fault wins; cost scales multiply."""

    def __init__(self, models: Sequence[FaultModel]):
        self.models = list(models)

    def build_fault(self, inp: MeasureInput):
        for model in self.models:
            fault = model.build_fault(inp)
            if fault is not None:
                return fault
        return None

    def run_fault(self, inp: MeasureInput):
        for model in self.models:
            fault = model.run_fault(inp)
            if fault is not None:
                return fault
        return None

    def cost_scale(self, inp: MeasureInput, repeats: int):
        combined: Optional[np.ndarray] = None
        for model in self.models:
            scale = model.cost_scale(inp, repeats)
            if scale is not None:
                combined = scale if combined is None else combined * scale
        return combined

    def reset(self) -> None:
        for model in self.models:
            model.reset()


class _DeviceRunner(LocalRunner):
    """The local runner specialized to one :class:`DeviceProfile`."""

    def __init__(
        self,
        hardware: HardwareParams,
        profile: DeviceProfile,
        noise: float,
        repeats: int,
        seed: int,
        timeout: Optional[float],
        fault_model: Optional[FaultModel],
    ):
        parts: List[FaultModel] = []
        if fault_model is not None:
            parts.append(fault_model)
        if profile.has_faults:
            parts.append(
                RandomFaults(
                    run_error_prob=profile.run_error_prob,
                    run_timeout_prob=profile.run_timeout_prob,
                    extra_noise=profile.extra_noise,
                    seed=_device_seed(seed, profile.name),
                )
            )
        # A single part is passed through unwrapped so the default profile
        # makes exactly the calls LocalRunner would (bit parity).
        effective = parts[0] if len(parts) == 1 else (_CompositeFaults(parts) if parts else None)
        super().__init__(
            hardware,
            noise=profile.noise if profile.noise is not None else noise,
            repeats=repeats,
            seed=seed,
            timeout=timeout,
            fault_model=effective,
        )
        self.profile = profile

    def _estimate_base(self, inp: MeasureInput, build: BuildResult) -> float:
        base = super()._estimate_base(inp, build)
        if self.profile.slowdown != 1.0:
            base *= self.profile.slowdown
        return base

    def run_one(self, inp: MeasureInput, build: BuildResult) -> MeasureResult:
        result = super().run_one(inp, build)
        if build.ok and self.profile.queue_latency_sec > 0:
            result.elapsed_sec += self.profile.queue_latency_sec
        return result


@register_runner("rpc")
class RpcRunner(ProgramRunner):
    """Run built programs on a pool of named, individually profiled devices.

    Each run is dispatched to one device (``dispatch="round-robin"``,
    ``"least-loaded"`` or ``"affinity"``); the device's
    :class:`DeviceProfile` decides noise, fault injection, queue latency and
    slowdown.  Build failures never reach a device (they are reported
    straight through, as in the local runner).

    The pool itself — dispatch, per-device fault-profile estimation, the
    optional circuit breaker, and elastic membership — lives in
    :attr:`fleet` (a :class:`~repro.hardware.fleet.DeviceFleet`);
    :meth:`add_device`, :meth:`remove_device`, :meth:`inject_profile` and
    :meth:`device_stats` delegate to it.  Every
    :class:`~repro.hardware.measure.MeasureResult` is stamped with the name
    of the device that ran its final attempt (``result.device``) plus a
    per-attempt ledger (``result.attempts``), so downstream consumers —
    records, sessions, the fleet benchmark — can attribute costs exactly.
    """

    def __init__(
        self,
        hardware: HardwareParams,
        devices: Union[None, int, Sequence[DeviceLike]] = None,
        dispatch: str = "round-robin",
        noise: float = 0.03,
        repeats: int = 3,
        seed: int = 0,
        timeout: Optional[float] = None,
        fault_model: Optional[FaultModel] = None,
        circuit_breaker: Union[None, bool, dict, CircuitBreakerConfig] = None,
    ):
        self.hardware = hardware
        self.noise = noise
        self.repeats = repeats
        self.seed = seed
        self.timeout = timeout
        self.fleet = DeviceFleet(
            devices,
            lambda profile: _DeviceRunner(
                hardware, profile, noise, repeats, seed, timeout, fault_model
            ),
            dispatch=dispatch,
            circuit_breaker=circuit_breaker,
            repeats=repeats,
        )
        # The reference device: serves failed builds (profile-independent —
        # no fault draw, no queue charge) and estimates the slowdown-free
        # clean runtime the fleet's estimators compare devices against.
        self._reference = LocalRunner(
            hardware,
            noise=noise,
            repeats=repeats,
            seed=seed,
            timeout=timeout,
            fault_model=fault_model,
        )

    # -- MeasurePipeline compat accessors --------------------------------
    @property
    def simulator(self):
        return self._reference.simulator

    @property
    def dispatch(self) -> str:
        return self.fleet.dispatch

    @property
    def devices(self) -> Tuple[DeviceProfile, ...]:
        return self.fleet.devices

    # -- elastic-pool passthroughs ---------------------------------------
    def add_device(self, device: DeviceLike) -> DeviceProfile:
        """Join a device to the pool mid-session (see
        :meth:`~repro.hardware.fleet.DeviceFleet.add_device`)."""
        return self.fleet.add_device(device)

    def remove_device(
        self, name: str, drain: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, float]:
        """Remove a device, by default draining its in-flight runs (see
        :meth:`~repro.hardware.fleet.DeviceFleet.remove_device`)."""
        return self.fleet.remove_device(name, drain=drain, timeout=timeout)

    def inject_profile(self, name: str, **overrides) -> DeviceProfile:
        """Degrade/repair a device's actual behaviour mid-session (see
        :meth:`~repro.hardware.fleet.DeviceFleet.inject_profile`)."""
        return self.fleet.inject_profile(name, **overrides)

    # ------------------------------------------------------------------
    def run(
        self, inputs: Sequence[MeasureInput], build_results: Sequence[BuildResult]
    ) -> List[MeasureResult]:
        results: List[MeasureResult] = []
        for inp, build in zip(inputs, build_results):
            if not build.ok:
                # A failed build never occupies a device: report it straight
                # through without advancing dispatch or device stats.
                results.append(self._reference.run_one(inp, build))
                continue
            ticket = self.fleet.acquire(inp)
            device = ticket.device
            result = device.runner.run_one(inp, build)
            try:
                clean_base = self._reference._estimate_base(inp, build)
            except Exception:
                clean_base = None
            occupancy = self.fleet.record(ticket, inp, build, result, clean_base)
            result.device = device.name
            result.attempts = list(result.attempts) + [
                {
                    "device": device.name,
                    "error_no": int(result.error_no),
                    "occupancy_sec": occupancy,
                    "canary": ticket.canary,
                }
            ]
            results.append(result)
        return results

    def device_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-device counters (classic ``runs`` / ``errors`` / ``busy_sec``
        plus breaker state and the live estimated profile — see
        :meth:`~repro.hardware.fleet.DeviceFleet.device_stats`)."""
        return self.fleet.device_stats()


def _build_in_worker(builder: "RpcBuilder", inp: MeasureInput) -> BuildResult:
    """Module-level worker entry point (bound methods don't pickle portably)."""
    return builder.build_one(inp)


@register_builder("rpc")
class RpcBuilder(LocalBuilder):
    """Compile candidates in a process pool: true parallelism for CPU-bound
    lowering, which the thread-pool :class:`LocalBuilder` serializes on the
    GIL.

    The pool discipline lives in :class:`~repro.utils.procpool.LazyProcessPool`:
    created lazily on the first parallel batch and reused across batches
    (worker start-up is paid once per session, and each worker keeps its
    own warm lowering cache).  Per-candidate timeout semantics are
    inherited from :class:`LocalBuilder`: the bound applies to the
    candidate's own build cost measured in the worker (thread CPU time plus
    emulated compile latency), never to queue position.  A broken pool
    (killed worker, unpicklable input) does not lose the batch: the builder
    falls back to in-process builds and starts a fresh pool on the next
    batch.
    """

    def __init__(
        self,
        n_parallel: int = 1,
        timeout: Optional[float] = None,
        build_latency_sec: float = 0.0,
        build_cpu_sec: float = 0.0,
        fault_model: Optional[FaultModel] = None,
    ):
        super().__init__(
            n_parallel=n_parallel,
            timeout=timeout,
            build_latency_sec=build_latency_sec,
            build_cpu_sec=build_cpu_sec,
            fault_model=fault_model,
        )
        # Pickle-safe (the builder itself is shipped to its workers): the
        # executor handle never travels, the clone arrives pool-less.
        self._pool = LazyProcessPool(max_workers=n_parallel)

    def build(self, inputs: Sequence[MeasureInput]) -> List[BuildResult]:
        if not inputs:
            return []
        if self.n_parallel <= 1 or len(inputs) == 1:
            results = [self.build_one(inp) for inp in inputs]
        else:
            results = self._pool.map(
                _build_in_worker,
                itertools.repeat(self),
                inputs,
                fallback=lambda: [self.build_one(inp) for inp in inputs],
            )
        return [self._apply_timeout(result) for result in results]

    def build_one_dispatch(self, inp: MeasureInput) -> BuildResult:
        """Build one candidate in the process pool on behalf of an async
        :class:`~repro.hardware.measure.MeasureSession` worker.

        Several session workers call this concurrently, each blocking on its
        own pool future while the worker processes compile in true parallel
        — the pool becomes a genuinely concurrent consumer of the session
        queue instead of a per-batch barrier.  A broken pool falls back to
        an in-process build, like :meth:`build`.
        """
        if self.n_parallel <= 1:
            return self._apply_timeout(self.build_one(inp))
        result = self._pool.run_one(
            _build_in_worker, self, inp, fallback=lambda: self.build_one(inp)
        )
        return self._apply_timeout(result)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later batch restarts it)."""
        self._pool.close()
