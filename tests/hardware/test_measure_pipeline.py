"""Tests for the builder/runner measurement pipeline and its error taxonomy.

Includes the no-fault parity gate: the pipeline must match a preserved copy
of the pre-pipeline serial measurer bit for bit — costs, error strings,
counters and best-state tracking.
"""

import hashlib

import numpy as np
import pytest

from repro.hardware import (
    CostSimulator,
    DeviceProfile,
    LocalBuilder,
    LocalRunner,
    MeasureErrorNo,
    MeasureInput,
    MeasurePipeline,
    MeasureResult,
    RandomFaults,
    intel_cpu,
)
from repro.hardware.measure import _Board
from repro.search import generate_sketches, sample_initial_population
from repro.task import SearchTask, TuningOptions

from ..conftest import make_matmul_relu_dag


@pytest.fixture
def task():
    return SearchTask(make_matmul_relu_dag(), intel_cpu(), desc="matmul+relu")


@pytest.fixture
def states(task, rng):
    sketches = generate_sketches(task)
    return sample_initial_population(task, sketches, 8, rng)


def _incomplete_state(task):
    state = task.compute_dag.init_state()
    state.split("C", 0, [None])
    return state


# ---------------------------------------------------------------------------
# Reference implementation: the pre-pipeline serial measurer,
# preserved verbatim so the refactor can be checked against it forever.
# ---------------------------------------------------------------------------


class _ReferenceSerialMeasurer:
    def __init__(self, hardware, noise=0.03, repeats=3, seed=0):
        self.simulator = CostSimulator(hardware)
        self.noise = noise
        self.repeats = repeats
        self.seed = seed
        self.measure_count = 0
        self.error_count = 0
        self.best_cost = {}
        self.best_state = {}

    def _noise_factors(self, state, count):
        if self.noise <= 0:
            return np.ones(count)
        key = repr(state.serialize_steps()).encode()
        digest = hashlib.sha256(key + str(self.seed).encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        return 1.0 + rng.normal(0.0, self.noise, size=count)

    def measure_one(self, inp):
        state = inp.state
        try:
            if not state.is_concrete():
                raise ValueError("cannot measure an incomplete program (placeholder tile sizes)")
            base = self.simulator.estimate(state)
        except Exception as exc:
            self.measure_count += 1
            self.error_count += 1
            return MeasureResult(costs=[], error=f"{type(exc).__name__}: {exc}")
        factors = np.clip(self._noise_factors(state, self.repeats), 0.5, 2.0)
        costs = [float(base * f) for f in factors]
        self.measure_count += 1
        result = MeasureResult(costs=costs)
        key = inp.task.workload_key
        if result.min_cost < self.best_cost.get(key, float("inf")):
            self.best_cost[key] = result.min_cost
            self.best_state[key] = state
        return result

    def measure(self, inputs):
        return [self.measure_one(inp) for inp in inputs]


def _assert_result_parity(res_a, res_b):
    assert res_a.costs == res_b.costs  # bit-identical floats
    assert res_a.error == res_b.error


@pytest.mark.parametrize("make_new", [
    lambda hw: MeasurePipeline(hw, seed=7),
    lambda hw: MeasurePipeline(hw, n_parallel=4, seed=7),
])
def test_no_fault_parity_with_serial_reference(task, states, make_new):
    """Serial and parallel pipelines are both bit-identical to the
    preserved pre-refactor measurer on the no-fault path."""
    inputs = [MeasureInput(task, s) for s in states] + [
        MeasureInput(task, _incomplete_state(task))
    ]
    reference = _ReferenceSerialMeasurer(intel_cpu(), seed=7)
    new = make_new(intel_cpu())
    ref_results = reference.measure(inputs)
    new_results = new.measure(inputs)
    for ref, res in zip(ref_results, new_results):
        _assert_result_parity(ref, res)
    assert new.measure_count == reference.measure_count
    assert new.error_count == reference.error_count
    assert new.best_cost == reference.best_cost
    assert {k: id(v) for k, v in new.best_state.items()} == {
        k: id(v) for k, v in reference.best_state.items()
    }


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


def test_incomplete_program_is_instantiation_error(task):
    pipeline = MeasurePipeline(intel_cpu())
    result = pipeline.measure_one(MeasureInput(task, _incomplete_state(task)))
    assert not result.valid
    assert result.error_kind == MeasureErrorNo.INSTANTIATION_ERROR
    assert result.min_cost == float("inf")
    assert pipeline.error_counts == {MeasureErrorNo.INSTANTIATION_ERROR: 1}


def test_valid_result_has_no_error_kind(task):
    pipeline = MeasurePipeline(intel_cpu(), seed=0)
    result = pipeline.measure_one(MeasureInput(task, task.compute_dag.init_state()))
    assert result.valid
    assert result.error_kind == MeasureErrorNo.NO_ERROR
    assert result.elapsed_sec > 0  # wall-clock was tracked


def test_legacy_error_string_classified_unknown():
    result = MeasureResult(costs=[], error="ValueError: bad schedule")
    assert not result.valid
    assert result.error_kind == MeasureErrorNo.UNKNOWN_ERROR


def test_out_of_taxonomy_error_no_does_not_crash(task):
    """A custom runner/fault model may emit codes outside the taxonomy; they
    classify as UNKNOWN_ERROR instead of raising in accounting/logging."""
    result = MeasureResult(costs=[], error="vendor: exotic failure", error_no=42)
    assert result.error_kind == MeasureErrorNo.UNKNOWN_ERROR
    assert not result.valid

    class ExoticRunner(LocalRunner):
        def run(self, inputs, build_results):
            return [
                MeasureResult(costs=[], error="vendor: exotic failure", error_no=42)
                for _ in inputs
            ]

    pipeline = MeasurePipeline(intel_cpu(), runner=ExoticRunner(intel_cpu()))
    pipeline.measure([MeasureInput(task, task.compute_dag.init_state())])
    assert pipeline.error_counts == {MeasureErrorNo.UNKNOWN_ERROR: 1}


def test_incomplete_program_wins_over_injected_fault(task):
    """An incomplete program is rejected before fault injection: it must
    classify as INSTANTIATION_ERROR even under an always-fail fault model."""
    pipeline = MeasurePipeline(
        intel_cpu(), fault_model=RandomFaults(build_error_prob=1.0, seed=0)
    )
    result = pipeline.measure_one(MeasureInput(task, _incomplete_state(task)))
    assert result.error_kind == MeasureErrorNo.INSTANTIATION_ERROR


def test_injected_build_fault_charges_compile_latency(task, states):
    """A build that fails still occupied the compiler: the emulated latency
    counts toward the candidate's elapsed time."""
    builder = LocalBuilder(
        build_latency_sec=0.01, fault_model=RandomFaults(build_error_prob=1.0, seed=0)
    )
    pipeline = MeasurePipeline(intel_cpu(), builder=builder)
    result = pipeline.measure_one(MeasureInput(task, states[0]))
    assert result.error_kind == MeasureErrorNo.BUILD_ERROR
    assert result.elapsed_sec >= 0.01


def test_injected_build_fault(task, states):
    faults = RandomFaults(build_error_prob=1.0, seed=0)
    pipeline = MeasurePipeline(intel_cpu(), fault_model=faults)
    results = pipeline.measure([MeasureInput(task, s) for s in states])
    assert all(r.error_kind == MeasureErrorNo.BUILD_ERROR for r in results)
    assert pipeline.error_count == len(states)
    assert pipeline.best_cost == {}  # faults never become "best" programs


def test_injected_run_timeout(task, states):
    faults = RandomFaults(run_timeout_prob=1.0, seed=0)
    pipeline = MeasurePipeline(intel_cpu(), fault_model=faults)
    results = pipeline.measure([MeasureInput(task, s) for s in states])
    assert all(r.error_kind == MeasureErrorNo.RUN_TIMEOUT for r in results)


def test_transient_run_fault_is_transient(task):
    """A transient device error must not be sticky: re-measuring the same
    program draws a fresh fault, so retries can succeed."""
    faults = RandomFaults(run_error_prob=0.5, seed=3)
    pipeline = MeasurePipeline(intel_cpu(), fault_model=faults, seed=0)
    state = task.compute_dag.init_state()
    kinds = set()
    for _ in range(12):
        res = pipeline.measure_one(MeasureInput(task, state))
        kinds.add(res.error_kind)
    assert MeasureErrorNo.NO_ERROR in kinds
    assert MeasureErrorNo.RUN_ERROR in kinds


def test_fault_injection_is_deterministic(task, states):
    inputs = [MeasureInput(task, s) for s in states]

    def run():
        pipeline = MeasurePipeline(
            intel_cpu(), fault_model=RandomFaults(build_error_prob=0.5, seed=11), seed=0
        )
        return [(r.error_no, tuple(r.costs)) for r in pipeline.measure(inputs)]

    assert run() == run()


def test_flaky_device_extra_noise(task):
    state = task.compute_dag.init_state()
    clean = MeasurePipeline(intel_cpu(), seed=0).measure_one(MeasureInput(task, state))
    flaky = MeasurePipeline(
        intel_cpu(), fault_model=RandomFaults(extra_noise=0.5, seed=5), seed=0
    ).measure_one(MeasureInput(task, state))
    assert flaky.valid
    assert flaky.costs != clean.costs


def test_run_timeout_kills_slow_programs(task):
    """A candidate whose simulated runtime exceeds the budget is reported as
    RUN_TIMEOUT instead of a cost (the naive untiled program is slow)."""
    state = task.compute_dag.init_state()
    base = CostSimulator(intel_cpu()).estimate(state)
    pipeline = MeasurePipeline(intel_cpu(), run_timeout=base / 2)
    result = pipeline.measure_one(MeasureInput(task, state))
    assert result.error_kind == MeasureErrorNo.RUN_TIMEOUT
    generous = MeasurePipeline(intel_cpu(), run_timeout=base * 10)
    assert generous.measure_one(MeasureInput(task, state)).valid


def test_build_timeout_flags_slow_builds(task, states):
    builder = LocalBuilder(n_parallel=2, timeout=0.01, build_latency_sec=0.05)
    pipeline = MeasurePipeline(intel_cpu(), builder=builder)
    results = pipeline.measure([MeasureInput(task, s) for s in states[:3]])
    assert all(r.error_kind == MeasureErrorNo.BUILD_TIMEOUT for r in results)


def test_build_timeout_measures_build_time_not_queue_wait(task, states):
    """The timeout bounds each candidate's own build, not its queue position:
    many fast builds funneled through few workers must not be flagged just
    because the batch takes longer than the per-candidate budget."""
    builder = LocalBuilder(n_parallel=2, timeout=0.04, build_latency_sec=0.01)
    pipeline = MeasurePipeline(intel_cpu(), builder=builder, seed=0)
    results = pipeline.measure([MeasureInput(task, s) for s in states])
    assert all(r.valid for r in results)


# ---------------------------------------------------------------------------
# Parallel builder
# ---------------------------------------------------------------------------


def test_parallel_builder_matches_serial(task, states):
    inputs = [MeasureInput(task, s) for s in states]
    serial = MeasurePipeline(intel_cpu(), n_parallel=1, seed=0)
    parallel = MeasurePipeline(intel_cpu(), n_parallel=8, seed=0)
    for a, b in zip(serial.measure(inputs), parallel.measure(inputs)):
        _assert_result_parity(a, b)
    assert serial.best_cost == parallel.best_cost


def test_parallel_builder_preserves_input_order(task, states):
    """Results come back in input order even when builds finish out of order."""
    builder = LocalBuilder(n_parallel=4, build_latency_sec=0.001)
    pipeline = MeasurePipeline(intel_cpu(), builder=builder, seed=0)
    inputs = [MeasureInput(task, s) for s in states]
    results = pipeline.measure(inputs)
    reference = MeasurePipeline(intel_cpu(), seed=0).measure(inputs)
    assert [r.costs for r in results] == [r.costs for r in reference]


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


def test_error_counts_by_kind(task, states):
    faults = RandomFaults(build_error_prob=0.4, run_timeout_prob=0.3, seed=2)
    pipeline = MeasurePipeline(intel_cpu(), fault_model=faults)
    inputs = [MeasureInput(task, s) for s in states]
    results = pipeline.measure(inputs + [MeasureInput(task, _incomplete_state(task))])
    observed = {}
    for res in results:
        if not res.valid:
            observed[res.error_kind] = observed.get(res.error_kind, 0) + 1
    assert pipeline.error_counts == observed
    assert pipeline.error_count == sum(observed.values())


# ---------------------------------------------------------------------------
# Options plumbing
# ---------------------------------------------------------------------------


def test_options_reject_unknown_stage_names():
    """A stage name other than "local" or "rpc" fails when the options are
    built, not later when a session builds its pipeline; both names select
    the one builder and the one runner.  A ready stage is not a name: it
    goes in through Tuner(measurer=...)."""
    for stage in ("builder", "runner"):
        with pytest.raises(ValueError, match=f"unknown {stage} 'remote-farm'"):
            TuningOptions(**{stage: "remote-farm"})
    for stage, ready in (("builder", LocalBuilder()), ("runner", LocalRunner(intel_cpu()))):
        with pytest.raises(ValueError, match=r"Tuner\(measurer=MeasurePipeline"):
            TuningOptions(**{stage: ready})
    for name in ("local", "rpc"):
        options = TuningOptions(builder=name, runner=name)
        pipeline = MeasurePipeline.from_options(intel_cpu(), options)
        assert type(pipeline.builder) is LocalBuilder
        assert type(pipeline.runner) is LocalRunner


def test_pipeline_from_options(task):
    options = TuningOptions(n_parallel=4, build_timeout=10.0, run_timeout=5.0, seed=9)
    pipeline = MeasurePipeline.from_options(intel_cpu(), options)
    assert isinstance(pipeline.builder, LocalBuilder)
    assert pipeline.builder.n_parallel == 4
    assert pipeline.builder.timeout == 10.0
    assert isinstance(pipeline.runner, LocalRunner)
    assert pipeline.runner.timeout == 5.0
    assert pipeline.runner.seed == 9
    assert pipeline.measure_one(MeasureInput(task, task.compute_dag.init_state())).valid


def test_options_validate_pipeline_knobs():
    with pytest.raises(ValueError):
        TuningOptions(n_parallel=0)
    with pytest.raises(ValueError):
        TuningOptions(build_timeout=0)
    with pytest.raises(ValueError):
        TuningOptions(run_timeout=-1)


def test_pipeline_requires_hardware_or_runner():
    with pytest.raises(ValueError):
        MeasurePipeline()


def test_pipeline_rejects_instance_plus_stage_knobs():
    """Constructor mirrors from_options: knobs for a stage supplied as a
    ready instance are rejected, never silently dropped."""
    with pytest.raises(ValueError, match="n_parallel"):
        MeasurePipeline(intel_cpu(), builder=LocalBuilder(), n_parallel=8)
    with pytest.raises(ValueError, match="run_timeout"):
        MeasurePipeline(intel_cpu(), runner=LocalRunner(intel_cpu()), run_timeout=1.0)
    with pytest.raises(ValueError, match="fault_model"):
        MeasurePipeline(
            intel_cpu(),
            builder=LocalBuilder(),
            runner=LocalRunner(intel_cpu()),
            fault_model=RandomFaults(build_error_prob=1.0),
        )
    # One ready stage is enough: the ready builder would drop build faults.
    with pytest.raises(ValueError, match="fault_model"):
        MeasurePipeline(
            intel_cpu(), builder=LocalBuilder(), fault_model=RandomFaults(build_error_prob=1.0)
        )


# ---------------------------------------------------------------------------
# RandomFaults retry-counter bound
# ---------------------------------------------------------------------------


def test_transient_draw_tracking_is_bounded(task, states):
    """The per-program retry-counter dict must not grow for the life of the
    fault model: only the most recently drawn programs stay tracked."""
    faults = RandomFaults(run_error_prob=0.5, seed=0, max_tracked_programs=3)
    for state in states:  # 8 distinct programs > the bound
        faults.run_fault(MeasureInput(task, state))
    assert len(faults._transient_draws) == 3
    # The survivors are the most recent programs, with their counters intact.
    faults.run_fault(MeasureInput(task, states[-1]))
    key = max(faults._transient_draws, key=faults._transient_draws.get)
    assert faults._transient_draws[key] == 2


def test_fault_model_reset_clears_counters(task, states):
    faults = RandomFaults(run_error_prob=0.5, seed=0)
    for state in states[:4]:
        faults.run_fault(MeasureInput(task, state))
    assert faults._transient_draws
    faults.reset()
    assert not faults._transient_draws


def test_fault_model_validates_tracking_bound():
    with pytest.raises(ValueError, match="max_tracked_programs"):
        RandomFaults(run_error_prob=0.5, max_tracked_programs=0)


# ---------------------------------------------------------------------------
# Program-derived randomness: one helper hashes a program's steps for every
# fault and noise draw.  The per-call hashing it replaced is kept here as the
# reference.
# ---------------------------------------------------------------------------


def _reference_program_rng(inp, seed, salt):
    key = repr(inp.state.serialize_steps()).encode()
    digest = hashlib.sha256(key + f"{seed}/{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class _ReferenceRandomFaults(RandomFaults):
    """The fault draws with their own hashing, and retry counters keyed on a
    SHA-256 of the serialized steps."""

    def build_fault(self, inp):
        if self.build_error_prob <= 0:
            return None
        rng = _reference_program_rng(inp, self.seed, "build")
        if rng.random() < self.build_error_prob:
            return (MeasureErrorNo.BUILD_ERROR, "FaultModel: injected build failure")
        return None

    def run_fault(self, inp):
        if self.run_timeout_prob > 0:
            attempt = self._next_attempt(self._timeout_draws, self._program_key(inp))
            salt = "timeout" if attempt == 0 else f"timeout/{attempt}"
            rng = _reference_program_rng(inp, self.seed, salt)
            if rng.random() < self.run_timeout_prob:
                return (MeasureErrorNo.RUN_TIMEOUT, "FaultModel: injected run timeout")
        if self.run_error_prob > 0:
            attempt = self._next_attempt(self._transient_draws, self._program_key(inp))
            rng = _reference_program_rng(inp, self.seed, f"run/{attempt}")
            if rng.random() < self.run_error_prob:
                return (
                    MeasureErrorNo.RUN_ERROR,
                    f"FaultModel: transient device error (attempt {attempt})",
                )
        return None

    @staticmethod
    def _program_key(inp):
        return hashlib.sha256(repr(inp.state.serialize_steps()).encode()).hexdigest()

    def cost_scale(self, inp, repeats):
        if self.extra_noise <= 0:
            return None
        rng = _reference_program_rng(inp, self.seed, "flaky")
        return np.clip(1.0 + rng.normal(0.0, self.extra_noise, size=repeats), 0.25, 4.0)


def test_program_randomness_matches_the_reference_hashing(task, rng):
    """Every fault draw, cost scale and noise factor of a program equals the
    reference's, for retried draws too and when the retry counters evict a
    program between draws (40 programs, 7 tracked)."""
    states = sample_initial_population(task, generate_sketches(task), 40, rng)
    inputs = [MeasureInput(task, s) for s in states]
    knobs = dict(
        build_error_prob=0.3, run_error_prob=0.4, run_timeout_prob=0.3,
        extra_noise=0.2, seed=5, max_tracked_programs=7,
    )
    faults, reference = RandomFaults(**knobs), _ReferenceRandomFaults(**knobs)
    for inp in inputs:
        assert faults.build_fault(inp) == reference.build_fault(inp)
        assert faults.cost_scale(inp, 3).tolist() == reference.cost_scale(inp, 3).tolist()
    draws = []
    for _ in range(2):  # every program is evicted between the two passes
        for inp in inputs:
            for _ in range(2):  # a first draw and a retry
                draws.append(faults.run_fault(inp))
                assert draws[-1] == reference.run_fault(inp)
    assert len(faults._transient_draws) == 7
    assert any(d is not None and "(attempt 1)" in d[1] for d in draws)

    board = _Board(LocalRunner(intel_cpu(), seed=5), DeviceProfile("b"))
    serial = _ReferenceSerialMeasurer(intel_cpu(), seed=5)
    for state in states:
        assert board._noise_factors(state).tolist() == serial._noise_factors(state, 3).tolist()


# ---------------------------------------------------------------------------
# Retry accounting (the backend-independent part; end-to-end retry semantics
# live in tests/hardware/test_rpc.py)
# ---------------------------------------------------------------------------


def test_retry_attempts_charge_simulated_wall_clock(task):
    """A recovered trial counts every retry attempt in the pipeline's
    retry counter."""
    state = task.compute_dag.init_state()
    pipeline = MeasurePipeline(
        intel_cpu(),
        fault_model=RandomFaults(run_error_prob=0.5, seed=3),
        seed=0,
        n_retry=4,
    )
    results = pipeline.measure([MeasureInput(task, state)])
    retries = results[0].retry_count
    assert retries > 0  # seed 3 faults this program's first attempt
    assert results[0].valid
    assert pipeline.retry_count == retries


def test_pipeline_validates_n_retry():
    with pytest.raises(ValueError, match="n_retry"):
        MeasurePipeline(intel_cpu(), n_retry=-1)


@pytest.mark.parametrize(
    "make, knob",
    [
        (lambda: LocalRunner(intel_cpu(), noise=-0.1), "noise"),
    ],
    ids=["runner-noise"],
)
def test_negative_measurement_knobs_raise(make, knob):
    """A negative noise level would be read as no noise: it is rejected."""
    with pytest.raises(ValueError, match=knob):
        make()


def test_retry_counts_build_time_once(task):
    """The build executed once; a retried trial's elapsed_sec must embed the
    build cost once, not once per attempt."""
    state = task.compute_dag.init_state()
    build_latency = 0.05
    pipeline = MeasurePipeline(
        intel_cpu(),
        builder=LocalBuilder(build_latency_sec=build_latency),
        runner=LocalRunner(intel_cpu(), fault_model=RandomFaults(run_error_prob=0.5, seed=3)),
        n_retry=4,
    )
    result = pipeline.measure_one(MeasureInput(task, state))
    assert result.valid and result.retry_count > 0
    # Double-counting would push elapsed past (1 + retry_count) * latency.
    assert result.elapsed_sec < build_latency * 1.5
    assert result.elapsed_sec >= build_latency
