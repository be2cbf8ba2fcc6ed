"""Self-healing device-fleet management for the measurement pipeline.

The paper's measurer runs on a real fleet: boards are flaky, slow down under
thermal load, queue behind other users, and drop off mid-session.  Every run
of :class:`~repro.hardware.measure.LocalRunner` goes through a
:class:`DeviceFleet` (one board unless the runner's ``devices`` names more),
which does not trust each device's *declared* :class:`DeviceProfile`
forever, nor assume fixed membership:

* **Online fault-profile estimation** — every run attempt is attributed to
  the device that executed it and folded into an :class:`EstimatedProfile`
  (EWMA fault rate, timeout rate, slowdown, queue latency, busy-seconds per
  run).  Estimates warm-start from the declared profile and drift with
  evidence, so dispatch decisions track how a board *actually* behaves —
  including behaviour the operator never declared (a board degrading
  mid-session).
* **Circuit breaker** — a device whose estimated transient-fault + timeout
  rate crosses :attr:`CircuitBreakerConfig.fault_rate_threshold` is
  *quarantined*: it receives no new work, while results already in flight
  complete and are recorded exactly once (the failed trials that tripped the
  breaker are re-dispatched by the pipeline's retry layer onto the healthy
  remainder — nothing is lost or double-counted).  Every
  :attr:`~CircuitBreakerConfig.probe_interval` dispatches, one *canary* run
  is routed to a quarantined board; :attr:`~CircuitBreakerConfig.n_probe`
  consecutive canary successes re-admit it (with its fault evidence
  forgiven, so one historical storm does not condemn a recovered board),
  while :attr:`~CircuitBreakerConfig.max_probe_failures` consecutive canary
  failures — or too many quarantine trips — *eject* it as permanently dead.
* **Elastic membership** — :meth:`DeviceFleet.add_device` /
  :meth:`DeviceFleet.remove_device` change the pool mid-session.  Removal
  first marks the device draining (no new work), then optionally blocks
  until its in-flight runs land; those runs complete on the ticket they
  already hold, so no result is lost and none is counted twice.
* **Affinity dispatch** — ``dispatch="affinity"`` gives each workload a
  sticky home device via rendezvous (highest-random-weight) hashing over the
  currently healthy pool, with load-aware spill: measurements of one
  workload land on one board whenever possible, so its noise samples stay
  comparable, without letting a popular workload starve the rest of the
  fleet.

Concurrency contract (the rely-guarantee view): all fleet state —
membership, breaker states, load ledgers, estimators — is mutated only under
one internal lock, by the two narrow entry points :meth:`DeviceFleet.acquire`
and :meth:`DeviceFleet.record`.  A dispatch ticket taken while a device was
admissible stays valid across any interleaved quarantine/removal: the run it
covers completes on that device and is recorded against it.  Observers
(:meth:`device_stats`) take the same lock, so they never see torn counters.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .measure import BuildResult, MeasureErrorNo, MeasureInput, MeasureResult

__all__ = [
    "DeviceProfile",
    "DeviceLike",
    "DeviceState",
    "EstimatedProfile",
    "CircuitBreakerConfig",
    "DispatchTicket",
    "DeviceFleet",
]


@dataclass(frozen=True)
class DeviceProfile:
    """One named device of a measurement pool.

    The default profile is a perfectly behaved clone of the local runner's
    device; every field models one way a real board deviates:

    * ``noise`` — per-device run-to-run noise level (``None`` = the runner's
      default).
    * ``run_error_prob`` / ``run_timeout_prob`` — per-run probability of a
      transient ``RUN_ERROR`` (retryable) / an injected ``RUN_TIMEOUT``.
    * ``extra_noise`` — extra multiplicative timing jitter (a flaky board).
    * ``queue_latency_sec`` — simulated per-run dispatch/queue cost, charged
      to the result's elapsed accounting and to the device's busy time (it
      is not slept).
    * ``slowdown`` — relative device speed: measured costs scale by this
      factor (1.5 = 50% slower than the machine model), and a slow device
      hits the run timeout earlier, as it would in reality.

    A profile is what the operator *declares*; the fleet's
    :class:`EstimatedProfile` is what the evidence says.
    """

    name: str
    noise: Optional[float] = None
    run_error_prob: float = 0.0
    run_timeout_prob: float = 0.0
    extra_noise: float = 0.0
    queue_latency_sec: float = 0.0
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("DeviceProfile needs a non-empty name")
        for field_name in ("run_error_prob", "run_timeout_prob"):
            p = getattr(self, field_name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {p}")
        if self.noise is not None and self.noise < 0:
            raise ValueError("noise must be >= 0 (or None for the runner default)")
        if self.extra_noise < 0 or self.queue_latency_sec < 0:
            raise ValueError("extra_noise / queue_latency_sec must be >= 0")
        if self.slowdown <= 0:
            raise ValueError("slowdown must be positive")

    @property
    def has_faults(self) -> bool:
        return (
            self.run_error_prob > 0
            or self.run_timeout_prob > 0
            or self.extra_noise > 0
        )


DeviceLike = Union[DeviceProfile, str, dict]


def _normalize_device(dev: DeviceLike) -> DeviceProfile:
    if isinstance(dev, DeviceProfile):
        return dev
    if isinstance(dev, str):
        return DeviceProfile(dev)
    if isinstance(dev, dict):
        return DeviceProfile(**dev)
    raise TypeError(f"device must be a DeviceProfile, name, or dict; got {dev!r}")


def _normalize_devices(
    devices: Union[None, int, Sequence[DeviceLike]],
) -> Tuple[DeviceProfile, ...]:
    """Accept profiles, names, dicts, a count, or None (one default device)."""
    if devices is None:
        return (DeviceProfile("dev0"),)
    if isinstance(devices, int):
        if devices < 1:
            raise ValueError("device count must be >= 1")
        return tuple(DeviceProfile(f"dev{i}") for i in range(devices))
    profiles = [_normalize_device(dev) for dev in devices]
    if not profiles:
        raise ValueError("a device pool needs at least one device")
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate device names: {names}")
    return tuple(profiles)


class DeviceState:
    """Lifecycle states of a fleet member (plain strings, for stats dicts)."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    EJECTED = "ejected"
    DRAINING = "draining"
    REMOVED = "removed"


#: pseudo-observations anchoring an estimate's warm start at the declared profile
_PRIOR_WEIGHT = 4
#: floor of an estimate's EWMA step size
_ALPHA_MIN = 0.05


@dataclass
class EstimatedProfile:
    """What the measurement evidence says a device is like.

    Each statistic is an adaptive exponentially-weighted moving average: the
    step size is ``max(_ALPHA_MIN, 1 / (samples + 1 + _PRIOR_WEIGHT))``, so the
    estimate behaves like a running mean over the first ``~1/_ALPHA_MIN``
    observations (fast, unbiased convergence from cold) and like a classic
    EWMA afterwards (stays responsive to drift — a board that degrades after
    an hour is re-estimated, not averaged away).  ``_PRIOR_WEIGHT`` pseudo-
    observations anchor the warm start at the *declared* profile, so a pool
    whose operator declared a 5% fault rate is dispatched accordingly before
    the first result lands, while the declaration washes out under real
    evidence.
    """

    fault_rate: float = 0.0
    timeout_rate: float = 0.0
    slowdown: float = 1.0
    queue_latency_sec: float = 0.0
    busy_per_run_sec: float = 0.0
    samples: int = 0

    @classmethod
    def from_declared(cls, profile: DeviceProfile) -> "EstimatedProfile":
        return cls(
            fault_rate=profile.run_error_prob,
            timeout_rate=profile.run_timeout_prob,
            slowdown=profile.slowdown,
            queue_latency_sec=profile.queue_latency_sec,
        )

    @property
    def error_rate(self) -> float:
        """Combined per-attempt probability of losing the run to the device
        (transient fault or timeout) — what the circuit breaker watches."""
        return self.fault_rate + self.timeout_rate

    def _alpha(self) -> float:
        return max(_ALPHA_MIN, 1.0 / (self.samples + 1 + _PRIOR_WEIGHT))

    def observe(
        self,
        *,
        faulted: bool,
        timed_out: bool,
        busy_sec: float,
        cost: Optional[float] = None,
        clean_base: Optional[float] = None,
        queue_latency: Optional[float] = None,
    ) -> None:
        """Fold one run attempt into the estimates."""
        a = self._alpha()
        self.fault_rate += a * ((1.0 if faulted else 0.0) - self.fault_rate)
        self.timeout_rate += a * ((1.0 if timed_out else 0.0) - self.timeout_rate)
        self.busy_per_run_sec += a * (busy_sec - self.busy_per_run_sec)
        if cost is not None and clean_base is not None and clean_base > 0:
            self.slowdown += a * (cost / clean_base - self.slowdown)
        if queue_latency is not None:
            self.queue_latency_sec += a * (queue_latency - self.queue_latency_sec)
        self.samples += 1

    def forgive(self) -> None:
        """Drop the fault evidence (a re-admitted device starts trusted
        again; ``samples`` is kept, so renewed faults move the estimate at
        the steady-state rate, not the cold-start rate)."""
        self.fault_rate = 0.0
        self.timeout_rate = 0.0


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Quarantine / re-admission policy of a :class:`DeviceFleet`.

    * ``fault_rate_threshold`` — estimated combined fault + timeout rate at
      which a healthy device is quarantined.
    * ``min_samples`` — attempts a device must have served before its
      estimate is trusted enough to trip (no tripping on one unlucky run).
    * ``n_probe`` — consecutive successful canary runs that re-admit a
      quarantined device.
    * ``probe_interval`` — fleet dispatches between canary runs to a
      quarantined device (probing costs trials; pace it).
    * ``max_probe_failures`` — consecutive failed canaries after which the
      device is ejected as permanently dead.
    * ``max_trips`` — quarantine trips after which a repeatedly relapsing
      device is ejected instead of quarantined again.
    """

    fault_rate_threshold: float = 0.25
    min_samples: int = 5
    n_probe: int = 3
    probe_interval: int = 8
    max_probe_failures: int = 6
    max_trips: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.fault_rate_threshold <= 1.0:
            raise ValueError("fault_rate_threshold must be in (0, 1]")
        for name in ("min_samples", "n_probe", "probe_interval", "max_probe_failures", "max_trips"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def coerce(
        cls, value: Union[None, bool, dict, "CircuitBreakerConfig"]
    ) -> Optional["CircuitBreakerConfig"]:
        """The ``circuit_breaker=`` knob: None/False = off, True = defaults,
        a dict = overrides, a config = itself."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, dict):
            return cls(**value)
        if isinstance(value, cls):
            return value
        raise TypeError(
            "circuit_breaker must be None, a bool, a dict of "
            f"CircuitBreakerConfig fields, or a CircuitBreakerConfig; got {value!r}"
        )


@dataclass
class _ManagedDevice:
    """One fleet member: declared profile, live runner, evidence, ledgers."""

    profile: DeviceProfile
    runner: object  # the board: run_one(), .timeout, .profile
    estimate: EstimatedProfile
    state: str = DeviceState.HEALTHY
    load: float = 0.0
    inflight: int = 0
    trips: int = 0
    probe_successes: int = 0
    probe_failures: int = 0
    last_probe_dispatch: int = 0
    stats: Dict[str, float] = field(
        default_factory=lambda: {
            "runs": 0,
            "errors": 0,
            "timeouts": 0,
            "canary_runs": 0,
            "busy_sec": 0.0,
        }
    )

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def actual_profile(self) -> DeviceProfile:
        """The profile the live runner embodies (diverges from ``profile``
        after :meth:`DeviceFleet.inject_profile` degrades the board)."""
        return self.runner.profile


@dataclass(frozen=True)
class DispatchTicket:
    """One :meth:`DeviceFleet.acquire` grant: the chosen device, and whether
    this run is a canary probing a quarantined board.  The ticket stays valid
    across concurrent quarantine/drain transitions — the run it covers
    completes on this device and must be handed back via
    :meth:`DeviceFleet.record` exactly once."""

    device: _ManagedDevice
    canary: bool = False


#: load imbalance (in units of the device's typical busy-seconds per run)
#: a sticky workload tolerates before affinity dispatch spills it to the
#: next device in its rendezvous order
_AFFINITY_SPILL_FACTOR = 4.0


def _affinity_score(device_name: str, workload_key: str) -> int:
    """Rendezvous (highest-random-weight) hash: every (device, workload)
    pair gets a stable pseudo-random score; a workload's home is the live
    device with the highest score.  Membership churn only moves workloads
    whose home actually left — no global reshuffle."""
    digest = hashlib.sha256(f"{device_name}::{workload_key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class DeviceFleet:
    """An elastic, self-healing pool of measurement devices.

    The fleet owns membership, dispatch, per-device evidence and the circuit
    breaker; executing a run on a device stays the caller's job (the
    :class:`~repro.hardware.measure.LocalRunner`).  The protocol per run::

        ticket = fleet.acquire(inp)            # pick a device, count it in flight
        result, clean_base = ticket.device.runner.run_one(inp, build)
        occupancy = fleet.record(ticket, inp, build, result, clean_base)

    ``runner_factory(profile)`` builds the per-device board — injected so
    the fleet stays agnostic of how runs are simulated or transported.

    Dispatch policies (over the currently *healthy* members):

    * ``"round-robin"`` — cycle in membership order.
    * ``"least-loaded"`` — minimize accumulated busy-seconds **plus** the
      expected waste of the device's estimated fault rate (a board that
      loses every other run effectively costs double per useful result).
      With no fault evidence the penalty is exactly zero, so a clean static
      pool dispatches bit-identically to plain least-loaded.
    * ``"affinity"`` — rendezvous-hash each workload to a sticky home
      device, spilling to the workload's next-preferred device only when the
      home's load runs ahead of the pool by more than a few typical runs.

    With ``circuit_breaker=None`` (the default) no state transitions ever
    happen and every member stays healthy — the breaker is strictly opt-in.
    """

    def __init__(
        self,
        devices: Union[None, int, Sequence[DeviceLike]],
        runner_factory: Callable[[DeviceProfile], object],
        dispatch: str = "round-robin",
        circuit_breaker: Union[None, bool, dict, CircuitBreakerConfig] = None,
        repeats: int = 3,
    ):
        if dispatch not in ("round-robin", "least-loaded", "affinity"):
            raise ValueError(
                f"unknown dispatch {dispatch!r}; use 'round-robin', "
                "'least-loaded' or 'affinity'"
            )
        self.dispatch = dispatch
        self.breaker = CircuitBreakerConfig.coerce(circuit_breaker)
        self.repeats = repeats
        self._runner_factory = runner_factory
        self._lock = threading.RLock()
        self._drained = threading.Condition(self._lock)
        self._devices: "OrderedDict[str, _ManagedDevice]" = OrderedDict()
        self._cursor = 0
        self._dispatch_count = 0
        for profile in _normalize_devices(devices):
            self._admit(profile)

    # -- membership ------------------------------------------------------
    def _admit(self, profile: DeviceProfile) -> _ManagedDevice:
        device = _ManagedDevice(
            profile=profile,
            runner=self._runner_factory(profile),
            estimate=EstimatedProfile.from_declared(profile),
        )
        # A re-added name joins at the end: the removed or ejected entry it
        # replaces must not keep its first-join slot.
        self._devices.pop(profile.name, None)
        self._devices[profile.name] = device
        return device

    def add_device(self, device: DeviceLike) -> DeviceProfile:
        """Join a device to the pool mid-session (dispatchable immediately).

        A name still present and not removed/ejected is rejected; re-adding
        a removed or ejected name re-admits it as a brand-new board (fresh
        runner, fresh estimates, fresh ledger) — the operator replaced the
        hardware, so the old evidence no longer applies.
        """
        profile = _normalize_device(device)
        with self._lock:
            existing = self._devices.get(profile.name)
            if existing is not None and existing.state not in (
                DeviceState.REMOVED,
                DeviceState.EJECTED,
            ):
                raise ValueError(f"duplicate device names: {profile.name!r} is already in the pool")
            self._admit(profile)
        return profile

    def remove_device(
        self, name: str, drain: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, float]:
        """Leave a device from the pool; returns its final stats snapshot.

        The device stops receiving new work immediately.  With
        ``drain=True`` (the default) the call blocks until every in-flight
        run on it has landed and been recorded — no result is lost, none is
        double-counted, and exactly-once accounting downstream (cost-model
        training, pipeline counters) is untouched because the results flow
        back through their normal tickets.  ``timeout`` bounds the drain
        wait (:class:`TimeoutError` on expiry, with the device left
        draining).  With ``drain=False`` the call returns immediately;
        stragglers still complete and are recorded against the device.
        """
        with self._drained:
            device = self._devices.get(name)
            if device is None or device.state == DeviceState.REMOVED:
                raise KeyError(f"no such device in the pool: {name!r}")
            device.state = DeviceState.DRAINING
            if drain:
                deadline = None if timeout is None else time.monotonic() + timeout
                while device.inflight > 0:
                    wait_for = None if deadline is None else deadline - time.monotonic()
                    if wait_for is not None and wait_for <= 0:
                        raise TimeoutError(
                            f"device {name!r} still has {device.inflight} "
                            f"run(s) in flight after {timeout}s"
                        )
                    self._drained.wait(wait_for)
            device.state = DeviceState.REMOVED
            return dict(device.stats)

    def inject_profile(self, name: str, **overrides) -> DeviceProfile:
        """Degrade (or repair) a device's *actual* behaviour mid-session.

        Replaces the device's runner with one built from its current actual
        profile plus ``overrides``; the declared profile and the accumulated
        evidence are untouched, so the estimator has to *discover* the drift
        — exactly the scenario the fault-storm tests and the fleet benchmark
        exercise.
        """
        with self._lock:
            device = self._devices.get(name)
            if device is None or device.state == DeviceState.REMOVED:
                raise KeyError(f"no such device in the pool: {name!r}")
            profile = replace(device.actual_profile, **overrides)
            device.runner = self._runner_factory(profile)
            return profile

    @property
    def devices(self) -> Tuple[DeviceProfile, ...]:
        """Declared profiles of every non-removed member, in join order."""
        with self._lock:
            return tuple(
                d.profile
                for d in self._devices.values()
                if d.state != DeviceState.REMOVED
            )

    # -- dispatch --------------------------------------------------------
    def acquire(self, inp: MeasureInput) -> DispatchTicket:
        """Pick the device for one run and count it in flight.

        Preference order: a due canary to a quarantined board; a healthy
        device per the dispatch policy; a forced canary when quarantine has
        emptied the healthy pool (probing is then the only way forward).
        Raises :class:`RuntimeError` when every member is ejected/removed.
        """
        with self._lock:
            self._dispatch_count += 1
            if self.breaker is not None:
                probe = self._due_probe()
                if probe is not None:
                    probe.inflight += 1
                    return DispatchTicket(probe, canary=True)
            healthy = [
                d for d in self._devices.values() if d.state == DeviceState.HEALTHY
            ]
            if healthy:
                device = self._select(healthy, inp)
                device.inflight += 1
                return DispatchTicket(device, canary=False)
            quarantined = [
                d for d in self._devices.values() if d.state == DeviceState.QUARANTINED
            ]
            if quarantined:
                device = quarantined[self._cursor % len(quarantined)]
                self._cursor += 1
                device.inflight += 1
                return DispatchTicket(device, canary=True)
            raise RuntimeError(
                "DeviceFleet has no dispatchable devices: every member is "
                "ejected or removed (add_device() to continue measuring)"
            )

    def _due_probe(self) -> Optional[_ManagedDevice]:
        # called with the lock held
        for device in self._devices.values():
            if device.state != DeviceState.QUARANTINED:
                continue
            if self._dispatch_count - device.last_probe_dispatch >= self.breaker.probe_interval:
                device.last_probe_dispatch = self._dispatch_count
                return device
        return None

    def _select(self, healthy: List[_ManagedDevice], inp: MeasureInput) -> _ManagedDevice:
        # called with the lock held; healthy is non-empty, in membership order
        if self.dispatch == "round-robin":
            device = healthy[self._cursor % len(healthy)]
            self._cursor += 1
            return device
        if self.dispatch == "least-loaded":
            return min(healthy, key=self._effective_load)
        return self._select_affinity(healthy, inp)

    def _effective_load(self, device: _ManagedDevice) -> float:
        """Busy-seconds already committed plus the expected waste of the
        device's estimated fault rate: a board losing a fraction ``r`` of
        its attempts needs ``r / (1 - r)`` extra attempts per useful result,
        each costing its typical busy time.  Exactly zero extra when the
        evidence shows no faults, preserving plain least-loaded dispatch
        (and its bit-for-bit behaviour) for clean pools."""
        est = device.estimate
        r = min(0.95, max(0.0, est.error_rate))
        if r <= 0.0:
            return device.load
        return device.load + est.busy_per_run_sec * (r / (1.0 - r))

    def _select_affinity(
        self, healthy: List[_ManagedDevice], inp: MeasureInput
    ) -> _ManagedDevice:
        workload_key = inp.task.workload_key
        ranked = sorted(
            healthy,
            key=lambda d: _affinity_score(d.name, workload_key),
            reverse=True,
        )
        min_load = min(d.load for d in healthy)
        # The spill margin scales with how much work one run represents; with
        # no cost evidence yet every load is ~0 and the home device sticks.
        # The plain busy/runs average is used over the EWMA estimate because
        # the estimator's warm-start prior damps the first few observations,
        # which would shrink the margin and spill straight after run one.
        busy_scale = max(
            (d.stats["busy_sec"] / d.stats["runs"])
            if d.stats["runs"]
            else d.estimate.busy_per_run_sec
            for d in healthy
        )
        if busy_scale <= 0.0:
            return ranked[0]
        margin = _AFFINITY_SPILL_FACTOR * busy_scale
        for device in ranked:
            if device.load - min_load <= margin:
                return device
        return min(healthy, key=lambda d: d.load)  # pragma: no cover - margin>=0 guarantees a hit

    # -- result attribution ---------------------------------------------
    def record(
        self,
        ticket: DispatchTicket,
        inp: MeasureInput,
        build: BuildResult,
        result: MeasureResult,
        clean_base: Optional[float] = None,
    ) -> float:
        """Hand a finished run back: charge the device, update its estimate,
        and advance the circuit breaker.  Returns the busy-seconds charged.

        ``clean_base`` is the slowdown-free estimated runtime of the program
        (the machine model's view), used to observe the device's real
        slowdown and to charge a failed run; ``None`` skips the slowdown
        update.
        """
        device = ticket.device
        kind = result.error_kind
        faulted = kind == MeasureErrorNo.RUN_ERROR
        timed_out = kind == MeasureErrorNo.RUN_TIMEOUT
        with self._lock:
            device.inflight -= 1
            if device.inflight == 0:
                self._drained.notify_all()
            occupancy = self._occupancy(device, result, clean_base)
            device.load += occupancy
            stats = device.stats
            stats["runs"] += 1
            stats["busy_sec"] += occupancy
            if ticket.canary:
                stats["canary_runs"] += 1
            if not result.valid:
                stats["errors"] += 1
            if timed_out:
                stats["timeouts"] += 1
            cost = (
                sum(result.costs) / len(result.costs) if result.valid else None
            )
            queue_obs = None
            if result.valid and build.ok:
                # elapsed = build time + queue latency + (real) run wall; the
                # run wall of a simulated measurement is microseconds, so
                # this observes the device's queue/dispatch overhead.
                queue_obs = max(0.0, result.elapsed_sec - build.elapsed_sec)
            device.estimate.observe(
                faulted=faulted,
                timed_out=timed_out,
                busy_sec=occupancy,
                cost=cost,
                clean_base=clean_base,
                queue_latency=queue_obs,
            )
            if self.breaker is not None:
                self._advance_breaker(device, ok=not (faulted or timed_out))
            return occupancy

    def _occupancy(
        self, device: _ManagedDevice, result: MeasureResult, clean_base: Optional[float]
    ) -> float:
        """Simulated seconds the run occupied its device.  A faulted run
        still held the board for about the program's runtime — charging it
        zero would make least-loaded dispatch treat a permanently failing
        board as 'free' and funnel every run (and every retry) into it.  A
        timed-out run is charged the timeout budget when one is configured:
        the watchdog killed it at the budget, so charging the program's full
        estimated runtime would overstate how long the board was actually
        held (and skew both dispatch and the busy-share log)."""
        profile = device.actual_profile
        queue = profile.queue_latency_sec
        if result.valid:
            return queue + sum(result.costs)
        runner_timeout = device.runner.timeout
        if result.error_kind == MeasureErrorNo.RUN_TIMEOUT and runner_timeout is not None:
            return queue + runner_timeout
        if clean_base is None:
            return queue
        return queue + clean_base * profile.slowdown * self.repeats

    # -- circuit breaker -------------------------------------------------
    def _advance_breaker(self, device: _ManagedDevice, ok: bool) -> None:
        # called with the lock held
        cfg = self.breaker
        if device.state == DeviceState.QUARANTINED:
            if ok:
                device.probe_successes += 1
                device.probe_failures = 0
                if device.probe_successes >= cfg.n_probe:
                    device.state = DeviceState.HEALTHY
                    device.estimate.forgive()
                    device.probe_successes = 0
            else:
                device.probe_failures += 1
                device.probe_successes = 0
                if device.probe_failures >= cfg.max_probe_failures:
                    device.state = DeviceState.EJECTED
            return
        if device.state != DeviceState.HEALTHY:
            return
        est = device.estimate
        if est.samples >= cfg.min_samples and est.error_rate >= cfg.fault_rate_threshold:
            device.trips += 1
            if device.trips > cfg.max_trips:
                device.state = DeviceState.EJECTED
            else:
                device.state = DeviceState.QUARANTINED
                device.probe_successes = 0
                device.probe_failures = 0
                device.last_probe_dispatch = self._dispatch_count

    # -- observability ---------------------------------------------------
    def device_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-device counters plus breaker state and live estimates.

        The classic keys (``runs``, ``errors``, ``busy_sec``) are unchanged;
        new keys: ``timeouts``, ``canary_runs``, ``state``, ``trips``,
        ``inflight``, ``samples`` and the ``est_*`` estimated-profile
        snapshot.  Taken under the fleet lock — never a torn read.
        """
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for name, device in self._devices.items():
                entry = dict(device.stats)
                est = device.estimate
                entry.update(
                    state=device.state,
                    trips=device.trips,
                    inflight=device.inflight,
                    samples=est.samples,
                    est_fault_rate=est.fault_rate,
                    est_timeout_rate=est.timeout_rate,
                    est_slowdown=est.slowdown,
                    est_queue_latency_sec=est.queue_latency_sec,
                )
                out[name] = entry
            return out
