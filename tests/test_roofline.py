"""Ridge points, bound classification, latency, and throughput behavior."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    CountingOptions,
    HardwareSpec,
    ModelConfig,
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
from lmroofline import roofline
from lmroofline.kernels import KernelCost
from lmroofline.phases import (
    arm_decode_cost,
    arm_prefill_cost,
    blockwise_dlm_cost,
    naive_dlm_cost,
)
from lmroofline.memory import peak_footprint
from lmroofline.roofline import scenario_phases
from lmroofline.sweep import SweepGrid, evaluate_point, map_grid
from oracles import patch_everywhere, scenario

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


@st.composite
def any_scenario(draw):
    """A valid scenario of a random model, GPU, mode and options."""
    kv_heads, group = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    heads, head_dim = kv_heads * group, draw(st.integers(16, 128))
    model = ModelConfig(
        "random", draw(st.integers(1, 48)), heads * head_dim, heads, kv_heads, head_dim,
        draw(st.integers(1, 65536)), draw(st.integers(1, 262144)),
        draw(st.sampled_from(["swiglu", "gelu_2mat"])),
    )
    hw = HardwareSpec(
        "random", 10 ** draw(st.floats(11, 16)), 10 ** draw(st.floats(9, 13)), 80e9,
    )
    mode = draw(st.sampled_from(["arm", "dlm_naive", "dlm_block"]))
    gen_len = draw(st.integers(1, 4096))
    steps = block_size = None
    if mode == "dlm_block":
        block_size = draw(st.integers(1, gen_len))
        steps = draw(st.integers(-(-gen_len // block_size), 2 * gen_len))
    elif mode == "dlm_naive":
        steps = draw(st.integers(1, 2 * gen_len))
    options = CountingOptions(*draw(st.lists(st.booleans(), min_size=5, max_size=5)))
    workload = WorkloadSpec(
        mode, draw(st.integers(1, 64)), draw(st.integers(0, 4096)), gen_len, steps, block_size,
        draw(st.sampled_from([1, 2, 4])), options,
    )
    return Scenario(model, hw, workload)


@settings(max_examples=200, deadline=None)
@given(any_scenario())
def test_phase_latency_lies_between_the_roofline_bounds(scenario):
    """max(F/P, B/W) <= phase latency <= F/P + B/W, within 1e-12 relative.

    Proof. A phase's latency is the sum over its kernel invocations i of
    t_i = max(f_i/P, b_i/W); a KernelRun's time is that same sum, split at
    its first compute-bound invocation. The phase totals are F = sum f_i
    and B = sum b_i. Lower: t_i >= f_i/P for every i, so the sum is at least
    F/P, and likewise at least B/W. Upper: f_i, b_i >= 0, so
    max(f_i/P, b_i/W) <= f_i/P + b_i/W, which sums to F/P + B/W. Each side
    is computed with a few correctly rounded float operations and
    math.fsum, so 1e-12 relative is far above the rounding error.

    The left half fails when a kernel is timed on one side of the roof
    only, or by min; the right half when a kernel's time counts either
    side more than once.
    """
    hw = scenario.hardware
    for phase in scenario_phases(scenario):
        compute, memory = phase.flops / hw.peak_flops, phase.bytes / hw.mem_bandwidth
        latency = phase_latency(phase, hw)
        assert max(compute, memory) <= latency * (1 + 1e-12), phase.phase
        assert latency <= (compute + memory) * (1 + 1e-12), phase.phase


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


# Two specs that compare equal and time differently: dividing the int FLOPs
# by an int peak is exact, by the same peak as a float rounds them first.
ODD = ModelConfig("odd", 33, 4191, 33, 11, 127, 14337, 128257)
INT_PEAKS = HardwareSpec("odd", 154800000000001, 768000000001, 48e9)
FLOAT_PEAKS = HardwareSpec("odd", 154800000000001.0, 768000000001.0, 48e9)


def fresh_end_to_end(scenario):
    """end_to_end on an empty prefill slot; the slot is left as it was."""
    kept = roofline._last_prefill
    roofline._last_prefill = None
    try:
        return end_to_end(scenario)
    finally:
        roofline._last_prefill = kept


def test_equal_specs_with_int_and_float_peaks_keep_their_own_prefill():
    w = WorkloadSpec("arm", 1001, 77777, 1, options=CountingOptions(include_lm_head=True))
    assert INT_PEAKS == FLOAT_PEAKS
    roofline._last_prefill = None
    assert end_to_end(Scenario(ODD, INT_PEAKS, w)).latency_s == 18917.87533945734
    assert end_to_end(Scenario(ODD, FLOAT_PEAKS, w)).latency_s == 18917.875339457336
    assert fresh_end_to_end(Scenario(ODD, FLOAT_PEAKS, w)).latency_s == 18917.875339457336


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_reused_prefill_gives_the_result_of_an_empty_slot(data):
    """Arm scenarios drawn from small pools, so that many reuse the prefill
    of the one before, each equal (==) to its evaluation on an empty slot.
    Each drawn peak and bandwidth is an int below 2**53, given once as an
    int and once as the equal float."""
    def pool(values):
        return data.draw(st.lists(values, min_size=1, max_size=3, unique=True))

    hardware = [
        HardwareSpec("gpu", kind(peak), kind(bandwidth), 48e9)
        for peak, bandwidth in pool(st.tuples(st.integers(10**12, 2**53),
                                              st.integers(10**11, 2**53)))
        for kind in (int, float)
    ]
    models = [LLAMA, ModelConfig(*LLAMA), ODD]
    batches, prompts = pool(st.integers(1, 1024)), pool(st.integers(0, 100_000))
    options = pool(st.builds(CountingOptions, *[st.booleans()] * 5))
    roofline._last_prefill = None
    for _ in range(data.draw(st.integers(2, 10))):
        workload = WorkloadSpec(
            "arm", data.draw(st.sampled_from(batches)), data.draw(st.sampled_from(prompts)),
            data.draw(st.integers(1, 64)), dtype_bytes=data.draw(st.sampled_from([1, 2, 4])),
            options=data.draw(st.sampled_from(options)),
        )
        scenario = Scenario(data.draw(st.sampled_from(models)),
                            data.draw(st.sampled_from(hardware)), workload)
        assert end_to_end(scenario) == fresh_end_to_end(scenario)


def count_prefills(monkeypatch):
    """A list that gets one entry per arm_prefill_cost call from here on."""
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return arm_prefill_cost(scenario)

    patch_everywhere(monkeypatch, arm_prefill_cost, counting)
    return calls


def test_an_arm_grid_builds_one_prefill_per_row(monkeypatch):
    calls = count_prefills(monkeypatch)
    base = WorkloadSpec("arm", None, 64, None)
    grid = SweepGrid(LLAMA, A6000, base, (("batch", (1, 2, 3)), ("gen_len", (1, 2, 3, 4))))
    assert len(list(map_grid(grid, end_to_end))) == 12
    assert [s.workload.batch for s in calls] == [1, 2, 3]


@pytest.mark.parametrize("change", [
    {"model": ModelConfig(*LLAMA)},
    {"hardware": HardwareSpec(*A6000)},
    {"batch": 2},
    {"prompt_len": 65},
    {"dtype_bytes": 4},
    {"options": CountingOptions(include_lm_head=True)},
], ids=["equal-model", "equal-hardware", "batch", "prompt_len", "dtype_bytes", "options"])
def test_a_new_model_or_hardware_object_or_workload_field_rebuilds_the_prefill(
        monkeypatch, change):
    calls = count_prefills(monkeypatch)

    def arm(gen_len, model=LLAMA, hardware=A6000, **fields):
        return Scenario(model, hardware, WorkloadSpec(
            "arm", **{"batch": 1, "prompt_len": 64, "gen_len": gen_len, **fields}))

    end_to_end(arm(16))
    end_to_end(arm(32))
    assert len(calls) == 1
    end_to_end(arm(32, **change))
    assert len(calls) == 2
