"""Hardware models and the measurement pipeline.

Layout:

* :mod:`~repro.hardware.platform` — machine descriptions
  (:class:`HardwareParams`) for the analytical cost model.
* :mod:`~repro.hardware.simulator` — the analytical machine model standing
  in for real hardware (:class:`CostSimulator`).
* :mod:`~repro.hardware.measure` — the two-stage measurement pipeline:
  :class:`LocalBuilder`, the one builder, lowers candidates (in parallel,
  with timeouts), :class:`LocalRunner`, the one runner, times them on the
  simulator with injectable :class:`FaultModel` failures, and every outcome
  carries a :class:`MeasureErrorNo` error kind.  The runner times every run
  on a :class:`DeviceFleet` of boards (``runner.fleet``), each with its own
  :class:`DeviceProfile` (noise, fault rates, queue latency, slowdown).
  :class:`MeasurePipeline` is the facade consumers drive through
  ``measure()`` (build a batch, then run, retry and account) or through a
  :class:`MeasureSession` (``submit()`` / ``as_completed()`` /
  :class:`MeasureFuture`).  A synchronous session measures each batch
  through ``measure()``; an async session's workers build one candidate
  each and share the same run step, which is how the round driver
  overlaps candidate generation with device time.
* :mod:`~repro.hardware.fleet` — elastic, self-healing device-pool
  management: :class:`DeviceFleet` learns a per-device
  :class:`EstimatedProfile` from every result, quarantines / re-admits /
  ejects misbehaving boards through a circuit breaker
  (:class:`CircuitBreakerConfig`), supports join/leave mid-session with
  clean drain, and dispatches round-robin, least-loaded or by sticky
  workload affinity.
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
    RandomFaults,
)
from .fleet import (
    CircuitBreakerConfig,
    DeviceFleet,
    DeviceProfile,
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
    "LocalBuilder",
    "LocalRunner",
    "DeviceProfile",
    "DeviceFleet",
    "DeviceState",
    "EstimatedProfile",
    "CircuitBreakerConfig",
    "MeasurePipeline",
    "MeasureSession",
    "MeasureFuture",
]
