"""Hardware models and the measurement pipeline.

Layout:

* :mod:`~repro.hardware.platform` — machine descriptions
  (:class:`HardwareParams`) for the analytical cost model.
* :mod:`~repro.hardware.simulator` — the analytical machine model standing
  in for real hardware (:class:`CostSimulator`).
* :mod:`~repro.hardware.measure` — the two-stage measurement pipeline:
  :class:`ProgramBuilder` stages lower candidates (in parallel, with
  timeouts), :class:`ProgramRunner` stages time them on the simulator with
  injectable :class:`FaultModel` failures, and every outcome carries a
  :class:`MeasureErrorNo` error kind.  :class:`MeasurePipeline` is the
  facade consumers drive — batch-synchronously through ``measure()`` or as
  a stream through :class:`MeasureSession` (``submit()`` /
  ``as_completed()`` / :class:`MeasureFuture`), which is how the tuning
  loops overlap candidate generation with device time.
* :mod:`~repro.hardware.fleet` — elastic, self-healing device-pool
  management: :class:`DeviceFleet` learns a per-device
  :class:`EstimatedProfile` from every result, quarantines / re-admits /
  ejects misbehaving boards through a circuit breaker
  (:class:`CircuitBreakerConfig`), supports join/leave mid-session with
  clean drain, and dispatches round-robin, least-loaded or by sticky
  workload affinity.
* :mod:`~repro.hardware.rpc` — the remote measurement backend:
  :class:`RpcBuilder` compiles in a process pool (true parallelism for
  CPU-bound lowering) and :class:`RpcRunner` dispatches runs through a
  :class:`DeviceFleet` of named devices, each with its own
  :class:`DeviceProfile` (noise, fault rates, queue latency, slowdown).
  Registered as ``"rpc"`` in both registries.
"""

from .measure import (
    BuildResult,
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
    ProgramBuilder,
    ProgramRunner,
    RandomFaults,
    register_builder,
    register_runner,
    registered_builders,
    registered_runners,
    resolve_builder,
    resolve_runner,
)
from .fleet import (
    CircuitBreakerConfig,
    DeviceFleet,
    DeviceState,
    EstimatedProfile,
)
from .platform import (
    CacheLevel,
    HardwareParams,
    arm_cpu,
    edge_cpu,
    intel_cpu,
    intel_cpu_avx512,
    manycore_numa_cpu,
    nvidia_gpu,
    target_from_name,
    wide_vector_cpu,
)
from .rpc import DeviceProfile, RpcBuilder, RpcRunner
from .simulator import CostSimulator, NestCost, ProgramCost

__all__ = [
    "CacheLevel",
    "HardwareParams",
    "intel_cpu",
    "intel_cpu_avx512",
    "arm_cpu",
    "nvidia_gpu",
    "wide_vector_cpu",
    "manycore_numa_cpu",
    "edge_cpu",
    "target_from_name",
    "CostSimulator",
    "NestCost",
    "ProgramCost",
    "MeasureErrorNo",
    "MeasureInput",
    "MeasureResult",
    "BuildResult",
    "FaultModel",
    "NoFaults",
    "RandomFaults",
    "ProgramBuilder",
    "LocalBuilder",
    "ProgramRunner",
    "LocalRunner",
    "DeviceProfile",
    "DeviceFleet",
    "DeviceState",
    "EstimatedProfile",
    "CircuitBreakerConfig",
    "RpcBuilder",
    "RpcRunner",
    "MeasurePipeline",
    "MeasureSession",
    "MeasureFuture",
    "register_builder",
    "registered_builders",
    "resolve_builder",
    "register_runner",
    "registered_runners",
    "resolve_runner",
]
