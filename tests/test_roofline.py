"""Ridge points, bound classification, latency, and throughput behavior."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    HardwareSpec,
    PhaseCost,
    Scenario,
    ValidationError,
    WorkloadSpec,
    arithmetic_intensity,
    classify,
    end_to_end,
    kernel_time,
    phase_latency,
    ridge_point,
)
from lmroofline.kernels import KernelCost
from lmroofline.phases import (
    arm_decode_cost,
    arm_prefill_cost,
    blockwise_dlm_cost,
    naive_dlm_cost,
)
from lmroofline.memory import peak_footprint
from lmroofline.roofline import scenario_phases
from lmroofline.sweep import evaluate_point
from oracles import scenario

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
A6000 = HW_REGISTRY["rtx-a6000"]
A100 = HW_REGISTRY["a100-80g"]


def test_unit_hardware_ridge_is_one():
    hw = HardwareSpec(name="unit", peak_flops=1.0, mem_bandwidth=1.0, mem_capacity=1.0)
    assert ridge_point(hw) == 1.0


def test_a6000_ridge_point():
    # 154.8e12 / 768e9, worked out by hand
    assert ridge_point(A6000) == pytest.approx(201.5625, abs=1e-9)
    assert ridge_point(A6000) == pytest.approx(201.6, abs=0.1)


def test_a100_ridge_point():
    # 312e12 / 2.039e12 by hand is 153.016...
    assert ridge_point(A100) == pytest.approx(312 / 2.039, rel=1e-12)
    assert ridge_point(A100) == pytest.approx(153.0, abs=0.1)


def test_low_intensity_is_memory_bound():
    assert classify(10, A6000) == "memory_bound"


def test_ridge_tie_is_compute_bound():
    assert classify(ridge_point(A6000), A6000) == "compute_bound"


def test_negative_intensity_rejected():
    with pytest.raises(ValidationError, match="arithmetic intensity"):
        classify(-1.0, A6000)


def test_prefill_at_2048_is_compute_bound():
    ai = arithmetic_intensity(arm_prefill_cost(scenario(LLAMA, "arm", 1, 2048, 1)))
    assert classify(ai, A6000) == "compute_bound"


def test_kernel_time_example():
    # max(1e12 / 154.8e12, 1e9 / 768e9): the compute side binds,
    # 1 / 154.8 = 6.4599e-3 seconds.
    cost = KernelCost(flops=10**12, bytes=10**9)
    assert kernel_time(cost, A6000) == pytest.approx(1e12 / 154.8e12, rel=1e-12)
    assert kernel_time(cost, A6000) == pytest.approx(6.46e-3, abs=1e-5)


def test_empty_phase_has_zero_latency():
    phase = PhaseCost(phase="dlm_naive", breakdown=())
    assert phase_latency(phase, A6000) == 0.0


def test_latency_sums_per_kernel_binding_sides():
    # one compute-heavy kernel plus one byte-heavy kernel; the summed time
    # must exceed the roofline time of the merged totals
    compute_heavy = KernelCost(flops=10**12, bytes=10**6)
    memory_heavy = KernelCost(flops=10**6, bytes=10**9)
    phase = PhaseCost(
        phase="dlm_naive",
        breakdown=(("a", compute_heavy), ("b", memory_heavy)),
    )
    split = phase_latency(phase, A6000)
    merged = kernel_time(phase, A6000)
    assert split == kernel_time(compute_heavy, A6000) + kernel_time(memory_heavy, A6000)
    assert split > merged


def test_phase_latency_is_the_correctly_rounded_sum():
    # Times 1.0, 2**-53 and 2**-53: compute binds each kernel, since
    # 1 / 2**60 s of traffic is below its 2**-53 s of work. Added left to
    # right, each 2**-53 is half an ulp of 1.0 and rounds away (ties to
    # even), giving 1.0; the exact sum 1 + 2**-52 is a float.
    hw = HardwareSpec("fsum-hw", 2.0**53, 2.0**60, 0)
    kernels = (KernelCost(2**53, 1), KernelCost(1, 1), KernelCost(1, 1))
    assert [kernel_time(k, hw) for k in kernels] == [1.0, 2.0**-53, 2.0**-53]
    phase = PhaseCost("dlm_naive", tuple(zip("abc", kernels)))
    assert phase_latency(phase, hw) == 1.0000000000000002 == 1.0 + 2.0**-52


def small_arm_scenario(batch=1, prompt_len=64, gen_len=32):
    w = WorkloadSpec(mode="arm", batch=batch, prompt_len=prompt_len, gen_len=gen_len)
    return Scenario(model=LLAMA, hardware=A6000, workload=w)


def test_arm_scenario_has_prefill_and_decode_phases():
    phases = scenario_phases(small_arm_scenario())
    assert [p.phase for p in phases] == ["arm_prefill", "arm_decode"]


def test_arm_scenario_without_prompt_skips_prefill():
    w = WorkloadSpec(mode="arm", batch=1, prompt_len=0, gen_len=8)
    phases = scenario_phases(Scenario(model=LLAMA, hardware=A6000, workload=w))
    assert [p.phase for p in phases] == ["arm_decode"]


def test_end_to_end_latency_is_sum_of_phase_latencies():
    scenario = small_arm_scenario()
    result = end_to_end(scenario)
    expected = math.fsum(phase_latency(p, A6000) for p in scenario_phases(scenario))
    assert result.latency_s == expected
    assert result.throughput_tok_s == pytest.approx(32 / expected, rel=1e-12)
    assert len(result.points) == 2
    assert result.points[0].label.startswith("arm_prefill")


def test_perf_attained_never_exceeds_peak():
    for scenario in [
        small_arm_scenario(),
        small_arm_scenario(batch=64, prompt_len=4096, gen_len=256),
    ]:
        for point in end_to_end(scenario).points:
            assert point.perf_attained <= A6000.peak_flops * (1 + 1e-12)


def test_perf_attained_hits_peak_for_exactly_balanced_kernel():
    # a kernel whose AI equals the ridge runs at peak
    flops = int(154.8e12)
    nbytes = int(flops / ridge_point(A6000))
    k = KernelCost(flops=flops, bytes=nbytes)
    assert flops / kernel_time(k, A6000) == pytest.approx(A6000.peak_flops, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=8),
    prompt_len=st.integers(min_value=1, max_value=256),
    gen_len=st.integers(min_value=1, max_value=64),
)
def test_decode_latency_monotone_in_every_dimension(batch, prompt_len, gen_len):
    def latency(*workload):
        return phase_latency(arm_decode_cost(scenario(LLAMA, "arm", *workload)), A6000)

    base = latency(batch, prompt_len, gen_len)
    more_batch = latency(batch + 1, prompt_len, gen_len)
    more_prompt = latency(batch, prompt_len + 64, gen_len)
    more_tokens = latency(batch, prompt_len, gen_len + 1)
    assert more_batch >= base
    assert more_prompt >= base
    assert more_tokens >= base


@settings(max_examples=25, deadline=None)
@given(
    extra_steps=st.integers(min_value=0, max_value=48),
    gen_len=st.integers(min_value=4, max_value=64),
)
def test_dlm_latency_monotone_in_steps(extra_steps, gen_len):
    num_blocks = -(-gen_len // 4)
    steps = num_blocks + extra_steps
    def latency(phase, mode, steps, block_size=None):
        workload = scenario(LLADA, mode, 1, 64, gen_len, steps, block_size)
        return phase_latency(phase(workload), A6000)

    base = latency(naive_dlm_cost, "dlm_naive", steps)
    more = latency(naive_dlm_cost, "dlm_naive", steps + 1)
    assert more >= base
    blockwise = latency(blockwise_dlm_cost, "dlm_block", steps, 4)
    blockwise_more = latency(blockwise_dlm_cost, "dlm_block", steps + 1, 4)
    assert blockwise_more >= blockwise


def test_memory_bound_decode_batching_nearly_doubles_throughput():
    # weight-dominated decode: tiny prompt so the KV stream is negligible
    w1 = WorkloadSpec(mode="arm", batch=1, prompt_len=8, gen_len=32)
    w2 = WorkloadSpec(mode="arm", batch=2, prompt_len=8, gen_len=32)
    t1 = end_to_end(Scenario(model=LLAMA, hardware=A6000, workload=w1)).throughput_tok_s
    t2 = end_to_end(Scenario(model=LLAMA, hardware=A6000, workload=w2)).throughput_tok_s
    assert t2 / t1 > 1.9


def test_compute_bound_throughput_saturates():
    # naive DLM at L = 4096 is deep into the compute-bound regime; doubling
    # B doubles both work and time, so throughput stays flat
    def tp(batch):
        w = WorkloadSpec(
            mode="dlm_naive", batch=batch, prompt_len=0, gen_len=4096, steps=64
        )
        return end_to_end(Scenario(model=LLADA, hardware=A6000, workload=w)).throughput_tok_s

    assert tp(2) / tp(1) < 1.05
    assert tp(4) / tp(2) < 1.05


def test_halving_steps_in_compute_bound_blockwise_doubles_throughput():
    def tp(steps):
        w = WorkloadSpec(
            mode="dlm_block",
            batch=1,
            prompt_len=1024,
            gen_len=128,
            steps=steps,
            block_size=32,
        )
        return end_to_end(Scenario(model=LLADA, hardware=A6000, workload=w)).throughput_tok_s

    ratio = tp(64) / tp(128)
    assert 1.8 <= ratio <= 2.0


def test_all_kernels_compute_bound_implies_phase_compute_bound():
    # every kernel individually past the ridge forces the phase past it too
    phase = arm_prefill_cost(scenario(LLAMA, "arm", 1, 4096, 1))
    ridge = ridge_point(A6000)
    if all(arithmetic_intensity(k) >= ridge for _label, k in phase.breakdown):
        assert classify(arithmetic_intensity(phase), A6000) == "compute_bound"
    assert any(arithmetic_intensity(k) >= ridge for _label, k in phase.breakdown)


@settings(max_examples=30, deadline=None)
@given(
    flops=st.lists(st.integers(min_value=1, max_value=10**15), min_size=1, max_size=5),
    ratio=st.floats(min_value=1.0, max_value=8.0),
)
def test_kernelwise_compute_bound_is_sufficient_for_phase(flops, ratio):
    # build kernels that all sit at or beyond the ridge by construction
    ridge = ridge_point(A6000)
    kernels = []
    for i, f in enumerate(flops):
        nbytes = max(1, int(f / (ridge * ratio)))
        kernels.append((f"k{i}", KernelCost(flops=f, bytes=nbytes)))
    kernels = [(label, k) for label, k in kernels if arithmetic_intensity(k) >= ridge]
    if not kernels:
        return
    phase = PhaseCost(
        phase="dlm_naive",
        breakdown=tuple(kernels),
    )
    assert classify(arithmetic_intensity(phase), A6000) == "compute_bound"


def test_end_to_end_rejects_bidirectional_model_in_arm_mode():
    w = WorkloadSpec(mode="arm", batch=1, prompt_len=8, gen_len=8)
    with pytest.raises(ValidationError, match="bidirectional_only"):
        end_to_end(Scenario(model=LLADA, hardware=A6000, workload=w))


INVALID_WORKLOADS = {
    "zero-batch": (LLAMA, WorkloadSpec(mode="arm", batch=0, prompt_len=8, gen_len=8)),
    "bool-dtype-bytes": (
        LLAMA, WorkloadSpec(mode="arm", batch=1, prompt_len=8, gen_len=8, dtype_bytes=True)
    ),
    "arm-on-bidirectional": (LLADA, WorkloadSpec(mode="arm", batch=1, prompt_len=8, gen_len=8)),
    "fewer-steps-than-blocks": (
        LLADA,
        WorkloadSpec(mode="dlm_block", batch=1, prompt_len=8, gen_len=64, steps=2, block_size=8),
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_WORKLOADS))
@pytest.mark.parametrize(
    "evaluate",
    [end_to_end, scenario_phases, peak_footprint, evaluate_point],
    ids=lambda f: f.__name__,
)
def test_public_entry_points_validate_the_workload(evaluate, case):
    # No public entry point can be reached with an invalid workload: the
    # Scenario it takes rejects the workload when it is built.
    model, workload = INVALID_WORKLOADS[case]
    with pytest.raises(ValidationError):
        evaluate(Scenario(model=model, hardware=A6000, workload=workload))


@pytest.mark.parametrize("case", sorted(INVALID_WORKLOADS))
def test_scenario_rejects_an_invalid_workload_when_built(case):
    model, workload = INVALID_WORKLOADS[case]
    with pytest.raises(ValidationError):
        Scenario(model=model, hardware=A6000, workload=workload)
