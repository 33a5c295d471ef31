"""Ridge points, bound classification, latency, and throughput behavior."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
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
from lmroofline.cli import main as cli_main
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
def random_models(draw):
    """A valid causal-capable model of any GQA group, head size and depth."""
    kv_heads, group = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    heads, head_dim = kv_heads * group, draw(st.integers(16, 128))
    return ModelConfig(
        "random", draw(st.integers(1, 48)), heads * head_dim, heads, kv_heads, head_dim,
        draw(st.integers(1, 65536)), draw(st.integers(1, 262144)),
        draw(st.sampled_from(["swiglu", "gelu_2mat"])),
    )


random_hardware = st.builds(
    lambda peak, bandwidth: HardwareSpec("random", 10**peak, 10**bandwidth, 80e9),
    st.floats(11, 16), st.floats(9, 13),
)


@st.composite
def random_workloads(draw, modes=("arm", "dlm_naive", "dlm_block"), refresh=st.booleans()):
    """A valid workload of a random mode and options, `include_cache_refresh`
    drawn from `refresh`."""
    mode = draw(st.sampled_from(modes))
    gen_len = draw(st.integers(1, 4096))
    steps = block_size = None
    if mode == "dlm_block":
        block_size = draw(st.integers(1, gen_len))
        steps = draw(st.integers(-(-gen_len // block_size), 2 * gen_len))
    elif mode == "dlm_naive":
        steps = draw(st.integers(1, 2 * gen_len))
    options = draw(st.builds(CountingOptions, st.booleans(), refresh, *[st.booleans()] * 3))
    return WorkloadSpec(
        mode, draw(st.integers(1, 64)), draw(st.integers(0, 4096)), gen_len, steps, block_size,
        draw(st.sampled_from([1, 2, 4])), options,
    )


def any_scenario(workloads=random_workloads()):
    """A valid scenario of a random model, GPU, mode and options."""
    return st.builds(Scenario, random_models(), random_hardware, workloads)


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


def group_cap(scenario):
    """max(batch, H/KVH): the FLOPs per byte of K and V a query token can reach."""
    model, _, w = scenario
    return max(w.batch, model.num_heads // model.num_kv_heads)


@settings(max_examples=200, deadline=None)
@given(any_scenario(random_workloads(modes=("arm",))))
def test_arm_decode_intensity_is_capped_by_the_batch_not_the_length(scenario):
    """AI(arm_decode) < 2 * max(batch, H/KVH) / dtype_bytes, at any gen_len
    and prompt_len. Compared in exact integers: F * dtype_bytes < 2 * cap * B.

    Proof sketch. Every decode forward takes one query token per sequence.
    A linear layer over t = batch tokens does 2 * t * d_in * d_out FLOPs and
    moves at least its weights, d_in * d_out * dtype_bytes bytes, so
    F/B < 2t/dtype_bytes (its activations move too). Attention of one query
    over kv keys does 4 * b * H * hd * kv FLOPs and reads at least K and V,
    2 * b * KVH * kv * hd elements, so F/B < 2(H/KVH)/dtype_bytes (Q and the
    output move too). Elementwise traffic adds bytes only. A phase's
    intensity is its kernels' summed FLOPs over their summed bytes, at most
    the largest of their ratios, so it lies under the larger cap.
    """
    phase = arm_decode_cost(scenario)
    dtype_bytes = scenario.workload.dtype_bytes
    assert phase.flops * dtype_bytes < 2 * group_cap(scenario) * phase.bytes


@settings(max_examples=200, deadline=None)
@given(any_scenario(random_workloads(modes=("dlm_block",), refresh=st.just(False))))
def test_blockwise_intensity_is_capped_by_the_block_not_the_length(scenario):
    """Without cache refresh, AI(dlm_block) < 2 * G * max(batch, H/KVH) /
    dtype_bytes, with or without full_kv_each_step: block-wise decoding
    decouples intensity from sequence length. Compared in exact integers.

    Proof sketch. Without refresh every forward is a refinement step of one
    block, whose q <= G query tokens per sequence attend kv keys. A linear
    layer over t = batch * q tokens has F/B < 2t/dtype_bytes <=
    2 * G * batch/dtype_bytes, as in arm decode. Attention does
    4 * b * H * hd * q * kv FLOPs and reads at least K and V,
    2 * b * KVH * kv * hd elements, so F/B < 2q(H/KVH)/dtype_bytes <=
    2 * G * (H/KVH)/dtype_bytes; full_kv_each_step lengthens kv, which
    scales both sides alike. Elementwise traffic adds bytes only, and the
    phase's intensity is at most its kernels' largest. Neither gen_len nor
    prompt_len appears in the cap.
    """
    phase = blockwise_dlm_cost(scenario)
    w = scenario.workload
    assert phase.flops * w.dtype_bytes < 2 * w.block_size * group_cap(scenario) * phase.bytes


@settings(max_examples=200, deadline=None)
@given(any_scenario(random_workloads(modes=("dlm_naive",))))
def test_naive_pass_intensity_is_non_decreasing_in_the_sequence_length(scenario):
    """AI(dlm_naive) at total_len T + 1 is at least AI at T, with steps
    fixed. Compared in exact integers: F(T+1) * B(T) >= F(T) * B(T+1).

    Derivation. Every forward of the naive pass runs all T tokens, and steps
    scales F and B alike, so it cancels. Per forward, summed over layers:
    - a linear layer (and lm_head) does 2 * b * T * d_in * d_out FLOPs and
      moves (d_in * d_out + b * T * (d_in + d_out)) * dtype_bytes bytes;
    - non-causal attention of T queries over T keys does
      4 * b * H * hd * T^2 FLOPs and moves Q, K, V and the output,
      b * T * hd * (2H + 2KVH) * dtype_bytes bytes, writing no KV;
    - elementwise traffic moves bytes proportional to b * T.
    So F(T) = a*T + c*T^2 and B(T) = W + e*T, with a, c, e >= 0 and W > 0,
    the weights' bytes. The derivative of F/B is
    (a*W + 2*c*W*T + c*e*T^2) / B^2 >= 0 for T >= 0, so F/B is
    non-decreasing, and with B > 0 the integer inequality follows. An
    attention or elementwise term that grew faster than F would break it.
    """
    model, hw, w = scenario
    longer = Scenario(model, hw, WorkloadSpec(
        w.mode, w.batch, w.prompt_len, w.gen_len + 1, w.steps, None, w.dtype_bytes, w.options,
    ))
    short, long = naive_dlm_cost(scenario), naive_dlm_cost(longer)
    assert long.flops * short.bytes >= short.flops * long.bytes


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


@settings(max_examples=200, deadline=None)
@given(random_models(), random_workloads(modes=("arm",)), st.data())
def test_arm_latency_is_non_decreasing_in_gen_len_bit_for_bit(model, workload, data):
    """latency_s of an arm scenario at gen_len + 1 is >= at gen_len, compared
    as floats with no tolerance, for any model, hardware and options, with
    or without a prompt. Half the draws place the ridge inside the longer
    decode's attention run, so its run, and often the shorter one's, cross
    it.

    Proof. One more step raises the count of every decode kernel that is
    the same in every step (the linear layers, elementwise traffic and
    lm_head), and adds one invocation to the attention run, whose Newton
    form does not depend on gen_len: its samples are the first steps'. At
    gen_len 1 attention is one KernelCost, the first invocation of the run
    of 2. The prefill reads nothing of gen_len and stays as it is.
    - A kernel of larger counts takes max(F/P, B/W) of larger integers:
      converting to float, dividing by P or W and max are each monotone.
    - kernel_time gives a run prefix_bytes(j)/W + suffix_flops(j)/P at
      j = min(first, count), where first, the first invocation with
      F(i)/P >= B(i)/W, is read off the Newton form alone (kernel_time's
      premise that this test is monotone along a run; the end checks are
      this formula at j = 0 and j = count). So adding an invocation never
      moves j unless j was count, and then the new j is the old count. With
      j kept, the prefix is the same and the suffix gains F(count) >= 0;
      with j = old count, the old time B/W + 0 gains F(count)/P >= 0. A
      rounded sum of terms that cannot fall cannot fall.
    - A phase's latency is math.fsum of its kernels' times (an entry equal
      to the one before it takes that one's time), and latency_s the fsum
      of the phases'. fsum is the correctly rounded exact sum, and rounding
      is monotone, so neither can fall.
    """
    prompt_len = data.draw(st.sampled_from([0, workload.prompt_len]))
    gen_len = data.draw(st.sampled_from([1, workload.gen_len]))
    shorter, longer = (
        WorkloadSpec("arm", workload.batch, prompt_len, n, None, None, workload.dtype_bytes,
                     workload.options)
        for n in (gen_len, gen_len + 1)
    )
    if data.draw(st.booleans()):
        run = dict(arm_decode_cost(Scenario(model, A6000, longer)).breakdown)["attention"]
        (f0, b0), (f1, b1) = run.at(0), run.at(run.count - 1)
        ridge = f0 / b0 + data.draw(st.floats(0, 1)) * (f1 / b1 - f0 / b0)
        bandwidth = 10 ** data.draw(st.floats(9, 13))
        hw = HardwareSpec("crossing", ridge * bandwidth, bandwidth, 80e9)
    else:
        hw = data.draw(random_hardware)
    before, after = (end_to_end(Scenario(model, hw, w)).latency_s for w in (shorter, longer))
    assert after >= before


@settings(max_examples=200, deadline=None)
@given(random_models(), random_hardware, random_workloads(modes=("dlm_naive",)))
def test_naive_latency_is_non_decreasing_in_steps_and_batch_bit_for_bit(model, hw, workload):
    """latency_s of a dlm_naive scenario at steps + 1, and at batch + 1, is
    >= at the drawn workload, compared as floats with no tolerance, for any
    model, hardware and options. The steps half makes a bisection over the
    step budget valid, such as one for the budget at which a diffusion model
    matches an autoregressive one (ROADMAP item 15, which bisects dlm_block
    and so needs the same relation there too).

    Proof. A naive phase is one constant forward over the whole sequence,
    repeated `steps` times, so every entry is a KernelCost built by
    linear_cost, attention_cost or elementwise_bytes. Each one's FLOPs and
    bytes are exact ints, sums of nonnegative products that take batch and
    the invocation count (steps times num_layers, or steps for lm_head) as
    factors, so both are non-decreasing in either field.
    - kernel_time gives a KernelCost max(F/P, B/W). Converting an int to a
      float rounds to nearest, which is monotone; a correctly rounded
      division by a positive float is monotone; so is max.
    - phase_latency is math.fsum of the kernel times (an entry equal to the
      one before it takes that one's time), and latency_s the fsum of the
      one phase's. fsum is correctly rounded, so a sum of non-decreasing
      terms is non-decreasing.
    """
    more_steps, more_batch = (
        WorkloadSpec("dlm_naive", workload.batch + extra_batch, workload.prompt_len,
                     workload.gen_len, workload.steps + extra_steps, None,
                     workload.dtype_bytes, workload.options)
        for extra_steps, extra_batch in ((1, 0), (0, 1))
    )
    base, steps_up, batch_up = (
        end_to_end(Scenario(model, hw, w)).latency_s for w in (workload, more_steps, more_batch)
    )
    assert steps_up >= base
    assert batch_up >= base


@settings(max_examples=200, deadline=None)
@given(random_models(), random_workloads(modes=("arm",)), st.data())
def test_arm_latency_is_non_decreasing_in_batch_bit_for_bit(model, workload, data):
    """latency_s of an arm scenario at batch + 1 is >= at batch, compared as
    floats with no tolerance, for any model, hardware and options, with or
    without a prompt. About half the draws place the ridge inside the
    decode's attention run, so that the run crosses it at both batches.

    Proof, for every batch below 2**49. Every entry but decode attention is
    a KernelCost (the prefill is one constant forward; a decode step's
    linear layers, elementwise traffic and lm_head are the same every
    step), whose FLOPs and bytes are exact ints, sums of nonnegative
    products with batch as a factor or a constant (a linear layer's
    weights), so both are non-decreasing in batch; kernel_time gives it
    max(F/P, B/W), and converting to float, dividing by P or W and max are
    each monotone. Decode attention (a KernelCost at gen_len 1, and
    monotone as one) is a run whose every invocation's FLOPs a_i and bytes
    b_i carry batch as an exact factor: at batch B they are B*a_i and
    B*b_i, so their intensity, and the exact time
    B*M = B * sum_i max(a_i/P, b_i/W), do not otherwise depend on B. But
    kernel_time reads the first compute-bound invocation j off rounded
    quotients, which may tie differently at B and B + 1, so a bound takes
    the place of the gen_len test's fixed j. Let u = 2**-53.
    - Under kernel_time's premise that its test is monotone along a run,
      the invocations before j failed it and those from j on passed it.
      Both sides of the test are the exact quotients times factors in
      [(1-u)**2, (1+u)**2], so a failing invocation has b_i/W >
      (a_i/P) * rho and a passing one a_i/P >= (b_i/W) * rho, with
      rho = ((1-u)/(1+u))**2. So the split the run is charged,
      B*(sum_{i<j} b_i/W + sum_{i>=j} a_i/P), is at least rho*B*M; every
      split is at most B*M.
    - kernel_time computes that split as prefix_bytes/W +
      suffix_flops/P: each term converted and divided, then one addition,
      so the result is within factors (1-u)**3 and (1+u)**3 of it (at
      j = 0 or j = count, one term, rounded twice).
    So attention takes at most B*M*(1+u)**3 at batch B and at least
    (B+1)*M*rho*(1-u)**3 at B + 1, which is larger while
    (B+1)/B >= ((1+u)/(1-u))**5, that is for every B up to 2**53/11.
    A phase's latency is math.fsum of its kernels' times (an entry equal to
    the one before it takes that one's time, the time it would be given
    anyway), and latency_s the fsum of the phases'. fsum is the correctly
    rounded exact sum, and rounding is monotone, so neither can fall.
    """
    prompt_len = data.draw(st.sampled_from([0, workload.prompt_len]))
    gen_len = data.draw(st.sampled_from([1, workload.gen_len]))
    smaller, larger = (
        WorkloadSpec("arm", batch, prompt_len, gen_len, None, None, workload.dtype_bytes,
                     workload.options)
        for batch in (workload.batch, workload.batch + 1)
    )
    if gen_len > 1 and data.draw(st.booleans()):
        run = dict(arm_decode_cost(Scenario(model, A6000, larger)).breakdown)["attention"]
        (f0, b0), (f1, b1) = run.at(0), run.at(run.count - 1)
        ridge = f0 / b0 + data.draw(st.floats(0, 1)) * (f1 / b1 - f0 / b0)
        bandwidth = 10 ** data.draw(st.floats(9, 13))
        hw = HardwareSpec("crossing", ridge * bandwidth, bandwidth, 80e9)
    else:
        hw = data.draw(random_hardware)
    before, after = (end_to_end(Scenario(model, hw, w)).latency_s for w in (smaller, larger))
    assert after >= before


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


# Two specs that compare equal. Before peaks were stored as floats they timed
# differently: dividing the int FLOPs by an int peak is exact, by the same
# peak as a float rounds them first, and INT_PEAKS gave 18917.87533945734.
ODD = ModelConfig("odd", 33, 4191, 33, 11, 127, 14337, 128257)
INT_PEAKS = HardwareSpec("odd", 154800000000001, 768000000001, 48e9)
FLOAT_PEAKS = HardwareSpec("odd", 154800000000001.0, 768000000001.0, 48e9)


def test_equal_specs_with_int_and_float_peaks_give_the_same_result():
    w = WorkloadSpec("arm", 1001, 77777, 1, options=CountingOptions(include_lm_head=True))
    assert INT_PEAKS == FLOAT_PEAKS
    assert [type(value) for value in INT_PEAKS] == [str, float, float, float]
    assert end_to_end(Scenario(ODD, INT_PEAKS, w)).latency_s == 18917.875339457336
    assert end_to_end(Scenario(ODD, FLOAT_PEAKS, w)).latency_s == 18917.875339457336


@settings(max_examples=200, deadline=None)
@given(any_scenario(), st.integers(10**11, 2**53), st.integers(10**9, 2**53))
@example(Scenario(ODD, FLOAT_PEAKS, WorkloadSpec(
    "arm", 1001, 77777, 1, options=CountingOptions(include_lm_head=True))), *INT_PEAKS[1:3])
def test_equal_hardware_specs_give_identical_results(scenario, peak, bandwidth):
    """A peak and a bandwidth given as ints below 2**53 and as the equal
    floats: the two specs compare equal, and every number of the results is
    equal (==), so bit for bit, as none is zero or NaN. Int peaks that were
    kept as ints moved about 1% of uniformly drawn scenarios, the example
    among them, in the last bits."""
    model, _, workload = scenario
    as_ints = HardwareSpec("gpu", peak, bandwidth, 80e9)
    as_floats = HardwareSpec("gpu", float(peak), float(bandwidth), 80e9)
    assert as_ints == as_floats
    ints, floats = (end_to_end(Scenario(model, hw, workload)) for hw in (as_ints, as_floats))
    assert ints == floats
    assert ints.points == floats.points


@settings(max_examples=100, deadline=None)
@given(any_scenario(), st.sampled_from([int, float]))
def test_doubling_peak_and_bandwidth_halves_every_latency_exactly(scenario, kind):
    """Doubling both peak_flops and mem_bandwidth halves every phase latency
    and latency_s bit for bit, doubles throughput_tok_s bit for bit, and
    moves no bound. The peaks are given as ints or as floats.

    Proof. Every kernel time is a correctly rounded quotient of a count by
    P or W, or the sum of two (prefix_bytes/W + suffix_flops/P). Scaling by
    2 is exact in binary floating point away from subnormals and overflow,
    which these magnitudes never reach, so it commutes with rounding: a
    quotient by 2P or 2W is exactly half the one by P or W, and a rounded
    sum of halves is half the rounded sum. Each comparison that picks a
    side, max(F/P, B/W) and the test F(i)/P >= B(i)/W of kernel_time's
    bisection, compares two halved values, so it picks the same side.
    math.fsum is the correctly rounded sum, so the halved times of a phase,
    and the halved phase latencies, sum to exactly half. Throughput n/(L/2)
    is the rounded 2n/L, twice the rounded n/L. The ridge 2P/2W is P/W and
    intensities read no hardware, so every bound stays. An int peak is
    stored as float(peak), and float(2 * peak) is 2 * float(peak) by the
    same argument.
    """
    model, hw, workload = scenario
    peak, bandwidth = kind(hw.peak_flops), kind(hw.mem_bandwidth)
    base, doubled = (
        end_to_end(Scenario(model, HardwareSpec("gpu", k * peak, k * bandwidth, 80e9), workload))
        for k in (1, 2)
    )
    assert doubled.phase_latencies == tuple(t / 2 for t in base.phase_latencies)
    assert doubled.latency_s == base.latency_s / 2
    assert doubled.throughput_tok_s == base.throughput_tok_s * 2
    assert [p.bound for p in doubled.points] == [p.bound for p in base.points]


@settings(max_examples=200, deadline=None)
@given(any_scenario(), st.data())
def test_capacity_changes_only_fits_and_more_capacity_never_unfits(scenario, data):
    """Two specs that differ only in mem_capacity give report rows equal in
    every field but `fits`, and a larger capacity never turns `fits` off.

    Proof. mem_capacity is read in one place, peak_footprint's
    `total <= hw.mem_capacity`. Kernel times read peak_flops and
    mem_bandwidth, classify reads their ridge, and the footprint total reads
    the model and the workload, so every other field is computed by the same
    code from equal inputs. The total is an int, and Python compares an int
    with an int or a float exactly, so `fits` is exactly total <= capacity,
    which holds at every capacity above one at which it holds. The
    capacities are drawn around the total, so `fits` takes both values.
    """
    model, hw, workload = scenario
    total = peak_footprint(scenario).total
    capacities = st.one_of(
        st.sampled_from([0, total - 1, total, total + 1, float(total), 2 * total]),
        st.integers(0, 2 * total), st.floats(0, 2.0 * total),
    )
    low, high = sorted([data.draw(capacities), data.draw(capacities)])
    rows = [
        evaluate_point(end_to_end(Scenario(
            model, HardwareSpec(hw.name, hw.peak_flops, hw.mem_bandwidth, capacity), workload)))
        for capacity in (low, high)
    ]
    assert [row.fits for row in rows] == [total <= low, total <= high]
    assert rows[1].fits or not rows[0].fits
    assert dataclasses.replace(rows[0], fits=rows[1].fits) == rows[1]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_end_to_end_gives_the_same_result_whatever_ran_before_it(data):
    """Random scenarios of every mode, sharing model and hardware objects, and
    beside each arm one a twin that differs only in gen_len and one that
    differs only in batch, are evaluated in the listed order and again in a
    random order: each end_to_end result is equal (==) in both. State kept
    from one evaluation for the next, such as a prefill reused on a key
    that leaves out batch, would make some result depend on its order."""
    models = data.draw(st.lists(random_models(), min_size=1, max_size=2))
    hardware = data.draw(st.lists(random_hardware, min_size=1, max_size=2))
    scenarios = []
    for w in data.draw(st.lists(random_workloads(), min_size=1, max_size=4)):
        model, hw = data.draw(st.sampled_from(models)), data.draw(st.sampled_from(hardware))
        scenarios.append(Scenario(model, hw, w))
        if w.mode == "arm":
            scenarios.append(Scenario(model, hw, w._replace(gen_len=w.gen_len + 1)))
            scenarios.append(Scenario(model, hw, w._replace(batch=w.batch + 1)))
    listed = [end_to_end(s) for s in scenarios]
    shuffled = {i: end_to_end(scenarios[i])
                for i in data.draw(st.permutations(range(len(scenarios))))}
    assert [shuffled[i] for i in range(len(scenarios))] == listed


def evaluated(grid):
    """Every point's ScenarioResult, in map_grid's order."""
    return list(map_grid(grid, lambda result: result))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_reused_prefill_gives_the_result_of_a_fresh_evaluation(data):
    """Every point of a random arm grid equals (==) end_to_end on its own
    scenario. The grid sweeps batch, prompt_len and dtype_bytes in a random
    order, then gen_len, each over up to 3 values: the rows along gen_len
    reuse a prefill, and a change on any other axis must build a new one.
    Its peak and bandwidth are ints below 2**53, given as ints or as the
    equal floats."""
    def values(strategy):
        return tuple(data.draw(st.lists(strategy, min_size=1, max_size=3, unique=True)))

    kind = data.draw(st.sampled_from([int, float]))
    peak, bandwidth = data.draw(st.integers(10**12, 2**53)), data.draw(st.integers(10**11, 2**53))
    axes = data.draw(st.permutations([
        ("batch", values(st.integers(1, 1024))),
        ("prompt_len", values(st.integers(0, 100_000))),
        ("dtype_bytes", values(st.sampled_from([1, 2, 4]))),
    ]))
    options = data.draw(st.builds(CountingOptions, *[st.booleans()] * 5))
    grid = SweepGrid(
        data.draw(st.sampled_from([LLAMA, ODD])),
        HardwareSpec("gpu", kind(peak), kind(bandwidth), 48e9),
        WorkloadSpec("arm", None, None, None, options=options),
        (*axes, ("gen_len", values(st.integers(1, 64)))),
    )
    results = evaluated(grid)
    assert results == [end_to_end(result.scenario) for result in results]


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
    assert len(evaluated(grid)) == 12
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
    """Two gen_len rows, then the change, build two prefills. Within a grid
    only an axis changes a point: batch, prompt_len or dtype_bytes. Model,
    hardware and options are the grid's own, so those cases run a second
    grid whose one point is the first grid's last in every other respect:
    no prefill outlives its grid, not even for an equal model or hardware."""
    calls = count_prefills(monkeypatch)
    [(name, value)] = change.items()
    base = WorkloadSpec("arm", 1, 64, None)
    if name in ("batch", "prompt_len", "dtype_bytes"):
        axes = ((name, (getattr(base, name), value)), ("gen_len", (16, 32)))
        evaluated(SweepGrid(LLAMA, A6000, base, axes))
    else:
        evaluated(SweepGrid(LLAMA, A6000, base, (("gen_len", (16, 32)),)))
        assert len(calls) == 1
        parts = {"model": LLAMA, "hardware": A6000, "base": base, name: value}
        if name == "options":
            parts["base"] = base._replace(options=parts.pop("options"))
        evaluated(SweepGrid(**parts, axes=(("gen_len", (32,)),)))
    assert len(calls) == 2


def test_analyze_after_a_sweep_builds_its_own_prefill(monkeypatch, tmp_path):
    """`analyze` of the workload of a sweep's last row builds its prefill
    again: no evaluation reuses one from another command."""
    doc = {"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm", "batch": 1,
           "prompt_len": 64}
    grid, scenario = tmp_path / "grid.json", tmp_path / "scenario.json"
    grid.write_text(json.dumps({**doc, "axes": {"gen_len": [16, 32]}}))
    scenario.write_text(json.dumps({**doc, "gen_len": 32}))
    calls = count_prefills(monkeypatch)
    assert cli_main(["sweep", "-c", str(grid), "-o", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1
    assert cli_main(["analyze", "-c", str(scenario)]) == 0
    assert len(calls) == 2
