"""Phase-level cost aggregation for the four decoding strategies."""

import collections
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import TINY, scenario
from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    CountingOptions,
    HardwareSpec,
    ModelConfig,
    PhaseCost,
    ValidationError,
    arithmetic_intensity,
    phase_latency,
    ridge_point,
    scenario_phases,
)
from lmroofline.kernels import (
    KernelCost,
    KernelRun,
    attention_cost,
    elementwise_bytes,
    linear_cost,
)
from lmroofline.phases import (
    arm_decode_cost,
    arm_prefill_cost,
    blockwise_dlm_cost,
    layer_forward_cost,
    naive_dlm_cost,
)
from lmroofline.memory import weight_bytes
from lmroofline.configs import Scenario, WorkloadSpec
from lmroofline.roofline import classify, end_to_end, kernel_time

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
A6000 = HW_REGISTRY["rtx-a6000"]


def tiny_layer_flops(q_len, kv_len, causal):
    return oracles.swiglu_layer_flops_loops(
        1, q_len, kv_len, TINY.d_model, TINY.num_heads, TINY.num_kv_heads,
        TINY.head_dim, TINY.ffn_dim, causal,
    )


def tiny_layer_bytes(q_len, kv_len, write_new_kv):
    return oracles.swiglu_layer_bytes_loops(
        1, q_len, kv_len, TINY.d_model, TINY.num_heads, TINY.num_kv_heads,
        TINY.head_dim, TINY.ffn_dim, 2, write_new_kv,
    )


def test_layer_forward_causal_square_example():
    entries = layer_forward_cost(
        scenario(TINY, "arm", 1, 2, 1), 2, 2, causal=True, write_new_kv=True
    )
    flops = sum(k.flops for _label, k in entries)
    assert flops == tiny_layer_flops(2, 2, causal=True) == 688


def test_layer_forward_single_query_example():
    entries = layer_forward_cost(
        scenario(TINY, "arm", 1, 2, 1), 1, 3, causal=False, write_new_kv=True
    )
    flops = sum(k.flops for _label, k in entries)
    assert flops == tiny_layer_flops(1, 3, causal=False) == 368


def test_prefill_equals_layer_forward_example():
    phase = arm_prefill_cost(scenario(TINY, "arm", 1, 2, 1))
    assert phase.flops == 688
    assert phase.bytes == tiny_layer_bytes(2, 2, write_new_kv=True) == 688
    assert phase.phase == "arm_prefill"


def test_single_decode_step_example():
    phase = arm_decode_cost(scenario(TINY, "arm", 1, 2, 1))
    assert phase.flops == tiny_layer_flops(1, 3, causal=False) == 368
    assert phase.bytes == tiny_layer_bytes(1, 3, write_new_kv=True) == 536


def test_naive_dlm_single_step_example():
    phase = naive_dlm_cost(scenario(TINY, "dlm_naive", 1, 2, 2, 1))
    assert phase.flops == tiny_layer_flops(4, 4, causal=False) == 1536
    assert phase.bytes == tiny_layer_bytes(4, 4, write_new_kv=False) == 992


def test_blockwise_single_block_beats_naive_example():
    blockwise = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 2, 1, 2))
    assert blockwise.flops == tiny_layer_flops(2, 4, causal=False) == 768
    assert blockwise.bytes == tiny_layer_bytes(2, 4, write_new_kv=False) == 688
    naive = naive_dlm_cost(scenario(TINY, "dlm_naive", 1, 2, 2, 1))
    assert blockwise.flops < naive.flops == 1536


def test_prefill_ai_compute_bound_at_long_prompt():
    ai = arithmetic_intensity(arm_prefill_cost(scenario(LLAMA, "arm", 1, 2048, 1)))
    assert ai > ridge_point(A6000)


@pytest.mark.parametrize("gen_len", [128, 1024, 8192])
def test_decode_ai_memory_bound_at_long_prompt(gen_len):
    ai = arithmetic_intensity(arm_decode_cost(scenario(LLAMA, "arm", 1, 2048, gen_len)))
    assert ai < ridge_point(A6000)


def test_naive_dlm_ai_compute_bound_at_4096():
    ai = arithmetic_intensity(naive_dlm_cost(scenario(LLADA, "dlm_naive", 1, 0, 4096, 4096)))
    assert ai > ridge_point(A6000)


small_models = st.builds(
    lambda layers, heads, head_dim, kv_div, ffn: ModelConfig(
        name="prop-model",
        num_layers=layers,
        d_model=heads * head_dim,
        num_heads=heads,
        num_kv_heads=max(1, heads // kv_div),
        head_dim=head_dim,
        ffn_dim=ffn,
        vocab_size=16,
    ),
    layers=st.integers(min_value=1, max_value=2),
    heads=st.sampled_from([1, 2, 4]),
    head_dim=st.integers(min_value=1, max_value=3),
    kv_div=st.sampled_from([1, 2]),
    ffn=st.integers(min_value=1, max_value=6),
)


@settings(max_examples=40)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=2),
    prompt_len=st.integers(min_value=1, max_value=4),
    with_head=st.booleans(),
)
def test_prefill_matches_assembled_loop_oracle(model, batch, prompt_len, with_head):
    opts = CountingOptions(include_lm_head=with_head)
    phase = arm_prefill_cost(scenario(model, "arm", batch, prompt_len, 1, opts=opts))
    expected = model.num_layers * oracles.swiglu_layer_flops_loops(
        batch, prompt_len, prompt_len, model.d_model, model.num_heads,
        model.num_kv_heads, model.head_dim, model.ffn_dim, causal=True,
    )
    if with_head:
        expected += oracles.linear_flops_loops(batch, prompt_len, model.d_model, model.vocab_size)
    assert phase.flops == expected


@settings(max_examples=40)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=2),
    prompt_len=st.integers(min_value=0, max_value=3),
    gen_len=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=1, max_value=3),
)
def test_naive_dlm_matches_assembled_loop_oracle(model, batch, prompt_len, gen_len, steps):
    phase = naive_dlm_cost(scenario(model, "dlm_naive", batch, prompt_len, gen_len, steps))
    total = prompt_len + gen_len
    per_pass_flops = model.num_layers * oracles.swiglu_layer_flops_loops(
        batch, total, total, model.d_model, model.num_heads,
        model.num_kv_heads, model.head_dim, model.ffn_dim, causal=False,
    )
    per_pass_bytes = model.num_layers * oracles.swiglu_layer_bytes_loops(
        batch, total, total, model.d_model, model.num_heads,
        model.num_kv_heads, model.head_dim, model.ffn_dim, 2, False,
    )
    assert phase.flops == steps * per_pass_flops
    assert phase.bytes == steps * per_pass_bytes


@settings(max_examples=60)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=4),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=1, max_value=8),
    dtype_bytes=st.sampled_from([1, 2, 4]),
    with_head=st.booleans(),
)
def test_decode_aggregate_equals_sum_of_single_steps(
    model, batch, prompt_len, gen_len, dtype_bytes, with_head
):
    opts = CountingOptions(include_lm_head=with_head)
    def decode(prompt_len, gen_len):
        return arm_decode_cost(
            scenario(model, "arm", batch, prompt_len, gen_len, dtype_bytes=dtype_bytes, opts=opts)
        )

    whole = decode(prompt_len, gen_len)
    flops = 0
    nbytes = 0
    for t in range(gen_len):
        step = decode(prompt_len + t, 1)
        flops += step.flops
        nbytes += step.bytes
    assert whole.flops == flops
    assert whole.bytes == nbytes


all_options = st.builds(
    CountingOptions,
    include_lm_head=st.booleans(),
    include_cache_refresh=st.booleans(),
    count_elementwise_bytes=st.booleans(),
    causal_exact=st.booleans(),
    full_kv_each_step=st.booleans(),
)


def hardware_switching_inside_a_run(phase, data):
    """Hardware whose ridge lies between the intensities of the first and
    last step of one of the phase's runs, so kernel_time's bisection lands
    inside it; any ridge when the phase has no run doing GEMM work."""
    runs = [k for _, k in phase.breakdown if isinstance(k, KernelRun) and k.at(0)[0] > 0]
    if runs:
        run = data.draw(st.sampled_from(runs))
        (f0, b0), (f1, b1) = run.at(0), run.at(run.count - 1)
        ridge = f0 / b0 + data.draw(st.floats(0.0, 1.0)) * (f1 / b1 - f0 / b0)
    else:
        ridge = data.draw(st.floats(0.01, 100.0))
    bandwidth = data.draw(st.sampled_from([1.0, 768e9, 2.039e12]))
    return HardwareSpec("prop-hw", ridge * bandwidth, bandwidth, 0)


def assert_matches_loop(phase, loop, hw):
    assert phase.flops == sum(k.flops for _, k in loop)
    assert phase.bytes == sum(k.bytes for _, k in loop)
    expected = sum(kernel_time(k, hw) for _, k in loop)
    assert phase_latency(phase, hw) == pytest.approx(expected, rel=1e-12, abs=0)
    for _, run in phase.breakdown:
        if isinstance(run, KernelRun):  # kernel_time needs non-decreasing intensity
            for i in range(run.count - 1):
                (f, b), (f_next, b_next) = run.at(i), run.at(i + 1)
                assert f * b_next <= f_next * b


@settings(max_examples=80, deadline=None)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=3),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=1, max_value=12),
    dtype_bytes=st.sampled_from([1, 2, 4]),
    opts=all_options,
    data=st.data(),
)
def test_decode_runs_match_per_step_loop(
    model, batch, prompt_len, gen_len, dtype_bytes, opts, data
):
    s = scenario(model, "arm", batch, prompt_len, gen_len, dtype_bytes=dtype_bytes, opts=opts)
    phase = arm_decode_cost(s)
    loop = oracles.arm_decode_loop(s)
    assert_matches_loop(phase, loop, hardware_switching_inside_a_run(phase, data))


@settings(max_examples=80, deadline=None)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=3),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=1, max_value=12),
    block_size=st.integers(min_value=1, max_value=12),
    steps_extra=st.integers(min_value=0, max_value=8),
    opts=all_options,
    data=st.data(),
)
def test_blockwise_runs_match_per_step_loop(
    model, batch, prompt_len, gen_len, block_size, steps_extra, opts, data
):
    block_size = min(block_size, gen_len)
    steps = -(-gen_len // block_size) + steps_extra
    s = scenario(model, "dlm_block", batch, prompt_len, gen_len, steps, block_size, opts=opts)
    phase = blockwise_dlm_cost(s)
    loop = oracles.blockwise_dlm_loop(s)
    assert_matches_loop(phase, loop, hardware_switching_inside_a_run(phase, data))


@settings(max_examples=80, deadline=None)
@given(
    model=small_models,
    mode=st.sampled_from(["arm", "dlm_naive", "dlm_block"]),
    batch=st.integers(min_value=1, max_value=3),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=1, max_value=12),
    block_size=st.integers(min_value=1, max_value=12),
    steps_extra=st.integers(min_value=0, max_value=8),
    opts=all_options,
    data=st.data(),
)
def test_phase_latency_is_the_sum_of_its_kernel_times_bit_for_bit(
    model, mode, batch, prompt_len, gen_len, block_size, steps_extra, opts, data
):
    # phase_latency does not time again an entry whose kernel is the same
    # kernel object as the one before it, and adds the times with math.fsum;
    # neither may change the correctly rounded sum of every entry's time by
    # one bit.
    block_size = min(block_size, gen_len)
    steps = -(-gen_len // block_size) + steps_extra
    s = scenario(
        model, mode, batch, prompt_len, gen_len,
        steps=None if mode == "arm" else steps,
        block_size=block_size if mode == "dlm_block" else None,
        opts=opts,
    )
    for phase in scenario_phases(s):
        hw = hardware_switching_inside_a_run(phase, data)
        want = math.fsum(kernel_time(k, hw) for _, k in phase.breakdown)
        assert phase_latency(phase, hw) == want


RIDGES = ("first", "last", "below", "above", "between")


def ridge_hardware(run, where, data):
    """Hardware whose ridge lies exactly at the intensity of the run's first
    or last invocation, below both, above both, or between them.

    At an end the peak and bandwidth are that invocation's own FLOPs and
    bytes, so F/P and B/W are both exactly 1.0: a tie on the ridge.
    """
    (f0, b0), (f1, b1) = run.at(0), run.at(run.count - 1)
    if where == "first":
        return HardwareSpec("ridge-hw", float(f0), float(b0), 0)
    if where == "last":
        return HardwareSpec("ridge-hw", float(f1), float(b1), 0)
    first, last = f0 / b0, f1 / b1
    if where == "below":
        ridge = first * data.draw(st.floats(0.01, 0.99))
    elif where == "above":
        ridge = last * data.draw(st.floats(1.01, 100.0))
    else:
        ridge = first + data.draw(st.floats(0.0, 1.0)) * (last - first)
    bandwidth = data.draw(st.sampled_from([1.0, 768e9, 2.039e12]))
    return HardwareSpec("ridge-hw", ridge * bandwidth, bandwidth, 0)


def counting_run_method(calls, name):
    original = getattr(KernelRun, name)

    def counted(self, i):
        calls[name] += 1
        return original(self, i)

    return counted


@settings(max_examples=150, deadline=None)
@given(
    model=small_models,
    mode=st.sampled_from(["arm", "dlm_block"]),
    batch=st.integers(min_value=1, max_value=3),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=2, max_value=12),
    block_size=st.integers(min_value=1, max_value=6),
    steps_extra=st.integers(min_value=0, max_value=4),
    opts=all_options,
    where=st.sampled_from(RIDGES),
    data=st.data(),
)
def test_run_time_is_the_prefix_formula_at_the_first_compute_bound_invocation(
    model, mode, batch, prompt_len, gen_len, block_size, steps_extra, opts, where, data
):
    # kernel_time settles a run from its two ends when one roofline side
    # binds all of it, and bisects only a run that crosses the ridge. Either
    # way it must give, bit for bit, prefix_bytes/W + suffix_flops/P at the
    # first compute-bound invocation a linear scan finds (ties count as
    # compute-bound), and a one-sided run must read no more than its ends:
    # no bisection and no prefix sum.
    block_size = min(block_size, gen_len)
    steps = -(-gen_len // block_size) + steps_extra
    s = scenario(
        model, mode, batch, prompt_len, gen_len,
        steps=None if mode == "arm" else steps,
        block_size=block_size if mode == "dlm_block" else None,
        opts=opts,
    )
    runs = [
        kernel
        for phase in scenario_phases(s)
        for _, kernel in phase.breakdown
        if isinstance(kernel, KernelRun) and kernel.at(0)[0] > 0
    ]
    assume(runs)
    run = data.draw(st.sampled_from(runs))
    assert (run.flops, run.bytes) == run.prefix(run.count)
    hw = ridge_hardware(run, where, data)
    peak, bandwidth = hw.peak_flops, hw.mem_bandwidth
    lo = run.count
    for i in range(run.count):
        flops, moved = run.at(i)
        if flops / peak >= moved / bandwidth:
            lo = i
            break
    if where in ("first", "below"):
        assert lo == 0
    elif where == "above":
        assert lo == run.count
    prefix_flops, prefix_bytes = run.prefix(lo)
    calls = {"at": 0, "prefix": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(KernelRun, name, counting_run_method(calls, name))
        seconds = kernel_time(run, hw)
    assert seconds == prefix_bytes / bandwidth + (run.flops - prefix_flops) / peak
    if lo == 0:  # read off the Newton forms' first terms
        assert calls == {"at": 0, "prefix": 0}
    elif lo == run.count:
        assert calls == {"at": 1, "prefix": 0}


def test_refresh_runs_of_shared_kernels_are_timed_once(monkeypatch):
    # Every refresh forward shares k_proj's kernel with v_proj and mlp_gate's
    # with mlp_up, and phase_latency does not time again an entry whose
    # kernel is the same kernel object as the one before it.
    refresh = CountingOptions(include_cache_refresh=True, count_elementwise_bytes=True)
    phase = blockwise_dlm_cost(scenario(LLADA, "dlm_block", 1, 16, 36, 36, 8, opts=refresh))
    kernels = dict(phase.breakdown)
    tags = sorted({label.split(":")[0] for label in kernels if label.startswith("refresh")})
    assert tags == ["refresh0..3", "refresh4"]
    assert isinstance(kernels["refresh0..3:k_proj"], KernelRun)
    for tag in tags:
        assert kernels[f"{tag}:k_proj"] is kernels[f"{tag}:v_proj"]
        assert kernels[f"{tag}:mlp_gate"] is kernels[f"{tag}:mlp_up"]
    timed = []

    def counting(kernel, hw):
        timed.append(kernel)
        return kernel_time(kernel, hw)

    oracles.patch_everywhere(monkeypatch, kernel_time, counting)
    phase_latency(phase, A6000)
    entries = [kernel for _, kernel in phase.breakdown]
    distinct = [k for k, before in zip(entries, [None, *entries]) if k is not before]
    assert len(timed) == len(distinct) < len(entries)
    assert timed == distinct


def counting_kernel_calls(monkeypatch):
    """Record each call of the three kernel functions: name -> list of args."""
    calls = {}
    for kernel in (linear_cost, attention_cost, elementwise_bytes):
        calls[kernel.__name__] = []

        def counting(*args, _kernel=kernel):
            calls[_kernel.__name__].append(args)
            return _kernel(*args)

        oracles.patch_everywhere(monkeypatch, kernel, counting)
    return calls


# The distinct linear shapes (d_in, d_out) a forward samples. linear_cost is
# symmetric in (d_in, d_out), so mlp_down (ffn -> d) is mlp_up's kernel and
# (ffn, d) is never sampled. llama3-8b (grouped-query attention) samples
# q_proj/out_proj, k_proj/v_proj, mlp_gate/mlp_up/mlp_down and lm_head.
# llada-8b (multi-head attention) has k/v of q/o's shape, so samples three.
SAMPLED_LINEAR_SHAPES = {
    "llama3-8b": ((4096, 4096), (4096, 1024), (4096, 14336), (4096, 128256)),
    "llada-8b": ((4096, 4096), (4096, 12288), (4096, 126464)),
}


SAMPLING_CASES = [
    # Refresh passes: queries and keys grow together. Linear and
    # elementwise kernels are affine in the token count, attention is
    # quadratic: degree + 1 forwards each, at most the run's.
    (5, 8, 8, 2, 3, 2),
    (2, 8, 8, 2, 2, 2),
    # Decode and block refinement: only the KV length grows, and
    # attention is affine in it.
    (5, 0, 1, 1, 2, 1),
    (2, 0, 64, 1, 2, 1),
    # A constant forward, repeated: each kernel once, with its count.
    (1, 0, 0, 1, 1, 1),
    (5, 0, 0, 1, 1, 1),
]


# A llama3-8b case is named by its numbers alone, a llada-8b case by its numbers and model.
@pytest.mark.parametrize(
    "model, run, q_step, kv_step, linear_per_shape, attention_calls, elementwise_calls",
    [pytest.param(model, *case, id="-".join(map(str, case)) + suffix)
     for model, suffix in ((LLAMA, ""), (LLADA, "-llada-8b")) for case in SAMPLING_CASES],
)
def test_each_kernel_is_sampled_at_degree_plus_one_forwards(
    monkeypatch, model, run, q_step, kv_step, linear_per_shape, attention_calls,
    elementwise_calls,
):
    opts = CountingOptions(include_lm_head=True, count_elementwise_bytes=True)
    s = scenario(model, "dlm_naive", 2, 0, 1, 1, opts=opts)
    calls = counting_kernel_calls(monkeypatch)
    entries = dict(layer_forward_cost(
        s, 40, 48, False, True, count=3, run=run, q_step=q_step, kv_step=kv_step,
    ))
    shapes = collections.Counter(args[2:4] for args in calls["linear_cost"])
    assert shapes == {shape: linear_per_shape for shape in SAMPLED_LINEAR_SHAPES[model.name]}
    assert [args[4:6] for args in calls["attention_cost"]] == [
        (40 + i * q_step, 48 + i * kv_step) for i in range(attention_calls)
    ]
    assert len(calls["elementwise_bytes"]) == elementwise_calls
    # A kernel the forward shares is one object, a KernelCost or a KernelRun.
    assert entries["q_proj"] is entries["out_proj"]
    assert entries["k_proj"] is entries["v_proj"]
    assert entries["mlp_gate"] is entries["mlp_up"] is entries["mlp_down"]
    # k/v share q/o's kernel exactly when their width is d_model.
    assert (entries["k_proj"] is entries["q_proj"]) == (model.num_kv_heads == model.num_heads)
    grows = q_step and run > 1
    assert isinstance(entries["q_proj"], KernelRun) == bool(grows)
    assert isinstance(entries["attention"], KernelRun) == bool((q_step or kv_step) and run > 1)


@settings(max_examples=100, deadline=None)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=3),
    q_len=st.integers(min_value=1, max_value=6),
    kv_extra=st.integers(min_value=0, max_value=6),
    q_step=st.integers(min_value=0, max_value=4),
    kv_step_extra=st.integers(min_value=0, max_value=4),
    run=st.integers(min_value=1, max_value=7),
    count=st.integers(min_value=1, max_value=3),
    causal=st.booleans(),
    write_new_kv=st.booleans(),
    dtype_bytes=st.sampled_from([1, 2, 4]),
    opts=all_options,
    data=st.data(),
)
def test_forward_run_matches_loop_of_single_forwards(
    model, batch, q_len, kv_extra, q_step, kv_step_extra, run, count, causal, write_new_kv,
    dtype_bytes, opts, data,
):
    kv_len, kv_step = q_len + kv_extra, q_step + kv_step_extra
    # A dlm_naive scenario is valid for every model; only its model, batch,
    # dtype_bytes and options reach the builder.
    s = scenario(model, "dlm_naive", batch, 0, 1, 1, dtype_bytes=dtype_bytes, opts=opts)
    entries = layer_forward_cost(
        s, q_len, kv_len, causal, write_new_kv,
        count=count, run=run, q_step=q_step, kv_step=kv_step,
    )
    phase = PhaseCost("dlm_block", tuple(entries))
    loop = [
        entry
        for i in range(run)
        for _ in range(count)
        for entry in layer_forward_cost(
            s, q_len + i * q_step, kv_len + i * kv_step, causal, write_new_kv
        )
    ]
    assert_matches_loop(phase, loop, hardware_switching_inside_a_run(phase, data))


KERNEL_ORDER = (
    "q_proj", "k_proj", "v_proj", "out_proj", "attention",
    "mlp_gate", "mlp_up", "mlp_down", "elementwise", "lm_head",
)


@pytest.mark.parametrize("mlp_kind", ["swiglu", "gelu_2mat"])
def test_every_phase_lists_its_kernels_in_one_order(mlp_kind):
    model = TINY._replace(mlp_kind=mlp_kind)
    workloads = [("arm", 3, 5, None, None), ("dlm_naive", 3, 5, 4, None),
                 ("dlm_block", 3, 7, 9, 2)]
    for flags in itertools.product([False, True], repeat=5):
        opts = CountingOptions(*flags)
        expected = [
            name for name in KERNEL_ORDER
            if (name != "mlp_gate" or mlp_kind == "swiglu")
            and (name != "elementwise" or opts.count_elementwise_bytes)
            and (name != "lm_head" or opts.include_lm_head)
        ]
        for mode, prompt_len, gen_len, steps, block_size in workloads:
            s = scenario(model, mode, 1, prompt_len, gen_len, steps, block_size, opts=opts)
            for phase in scenario_phases(s):
                tagged = [label.rpartition(":") for label, _ in phase.breakdown]
                for _tag, group in itertools.groupby(tagged, key=lambda parts: parts[0]):
                    assert [name for _, _, name in group] == expected, phase.phase


@settings(max_examples=100, deadline=None)
@given(
    model=small_models,
    mode=st.sampled_from(["arm", "dlm_naive", "dlm_block"]),
    batch=st.integers(min_value=1, max_value=3),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=1, max_value=12),
    block_size=st.integers(min_value=1, max_value=12),
    steps_extra=st.integers(min_value=0, max_value=8),
    opts=all_options,
)
def test_every_run_has_two_or_more_forwards_that_differ(
    model, mode, batch, prompt_len, gen_len, block_size, steps_extra, opts
):
    # A kernel whose shape is the same in every forward is one KernelCost;
    # only a shape that grows along a run of at least two forwards is a run.
    block_size = min(block_size, gen_len)
    steps = -(-gen_len // block_size) + steps_extra
    s = scenario(
        model, mode, batch, prompt_len, gen_len,
        steps=None if mode == "arm" else steps,
        block_size=block_size if mode == "dlm_block" else None,
        opts=opts,
    )
    for phase in scenario_phases(s):
        for label, kernel in phase.breakdown:
            if isinstance(kernel, KernelRun):
                assert kernel.count >= 2, label
                assert kernel.newton_flops[1] or kernel.newton_bytes[1], label


LINEAR_KERNELS = {"q_proj", "k_proj", "v_proj", "out_proj", "mlp_gate", "mlp_up", "mlp_down",
                  "lm_head"}

# (model, mode, steps, block_size) at prompt_len 64 and gen_len 40. dlm_block
# splits the generation into blocks of 16, 16 and 8 tokens and its 7 steps
# into 3, 2 and 2, so its phase holds runs of every kind.
BATCH_LAW_CASES = [
    (LLAMA, "arm", None, None),
    (LLAMA, "dlm_naive", 7, None),
    (LLAMA, "dlm_block", 7, 16),
    (LLADA, "dlm_naive", 7, None),
    (LLADA, "dlm_block", 7, 16),
]
BATCH_LAW_IDS = [f"{model.name}-{mode}" for model, mode, _, _ in BATCH_LAW_CASES]


def phases_at_batches_1_2_3(model, mode, steps, block_size, dtype):
    """(workload, the phases at batch 1, 2 and 3 side by side) under each of
    the 32 option sets."""
    for flags in itertools.product([False, True], repeat=5):
        runs = [
            scenario(model, mode, b, 64, 40, steps, block_size, dtype, CountingOptions(*flags))
            for b in (1, 2, 3)
        ]
        yield runs[0].workload, list(zip(*map(scenario_phases, runs)))


def intercept(counts):
    """W of the byte counts at batch 1, 2 and 3, after checking that they are
    W + b·e with W and e non-negative."""
    one, two, three = counts
    weights, slope = 2 * one - two, two - one
    assert three == weights + 3 * slope
    assert weights >= 0 and slope >= 0
    return weights


@pytest.mark.parametrize("dtype", [1, 2, 4])
@pytest.mark.parametrize("model, mode, steps, block_size", BATCH_LAW_CASES, ids=BATCH_LAW_IDS)
def test_flops_are_linear_and_bytes_affine_in_the_batch(model, mode, steps, block_size, dtype):
    """At fixed model, lengths, steps, dtype and options, every kernel's and
    every phase's FLOPs are b·f and its bytes W + b·e in the batch b, with f,
    e and W non-negative integers that do not depend on b. W, the weight
    traffic, is carried by the linear kernels and lm_head alone.

    Proof. A phase's kernels, their shapes and their invocation counts follow
    from the lengths, steps and options, never from b. Per invocation,
    linear_cost charges 2·b·s·d_in·d_out FLOPs and
    dtype·(d_in·d_out + b·s·(d_in + d_out)) bytes: the weight matrix, then
    the activations. Attention's FLOPs and its Q, K, V, output and KV-write
    bytes, and the elementwise sweeps, are each b times a count of tokens or
    pairs. A run's totals and a phase's are sums of these, so linear in b for
    FLOPs and affine for bytes. Two batches fix an affine function in exact
    integers, and the third checks it.
    """
    for _, by_batch in phases_at_batches_1_2_3(model, mode, steps, block_size, dtype):
        for phases in by_batch:
            kernels = [phase.breakdown for phase in phases]
            assert len({tuple(label for label, _ in entries) for entries in kernels}) == 1
            for entries in zip(*kernels):
                label = entries[0][0]
                flops = [kernel.flops for _, kernel in entries]
                assert flops == [b * flops[0] for b in (1, 2, 3)], label
                weights = intercept([kernel.bytes for _, kernel in entries])
                assert (weights > 0) == (label.rpartition(":")[2] in LINEAR_KERNELS), label
            assert [p.flops for p in phases] == [b * phases[0].flops for b in (1, 2, 3)]
            intercept([p.bytes for p in phases])


@pytest.mark.parametrize("dtype", [1, 2, 4])
@pytest.mark.parametrize("model, mode, steps, block_size", BATCH_LAW_CASES, ids=BATCH_LAW_IDS)
def test_the_weight_intercept_is_the_weights_each_forward_reads(
    model, mode, steps, block_size, dtype
):
    """A phase's W = 2·B(1) - B(2) is its number of forwards times
    memory.weight_bytes(model, dtype) less the embedding matrix, which a
    forward looks up rather than multiplies by, and less the LM head too
    when include_lm_head is off. A prefill is 1 forward, a decode gen_len,
    a naive phase `steps`, and a block-wise phase `steps` plus, with
    include_cache_refresh, one refresh pass per block.

    memory.parameter_count and phases.layer_forward_cost list the weight
    matrices separately; this checks that the two agree.
    """
    embedding = model.vocab_size * model.d_model * dtype
    for w, by_batch in phases_at_batches_1_2_3(model, mode, steps, block_size, dtype):
        blocks = -(-w.gen_len // block_size) if block_size else 0
        forwards = {
            "arm_prefill": 1,
            "arm_decode": w.gen_len,
            "dlm_naive": w.steps,
            "dlm_block": (w.steps or 0) + (blocks if w.options.include_cache_refresh else 0),
        }
        per_forward = weight_bytes(model, dtype) - embedding
        if not w.options.include_lm_head:
            per_forward -= embedding
        for phases in by_batch:
            weights = intercept([p.bytes for p in phases])
            assert weights == forwards[phases[0].phase] * per_forward, phases[0].phase


# (model, mode, prompt_len, gen_len, steps, block_size, options) -> the first
# compute-bound batch of each phase on rtx-a6000 at fp16, None for never.
HEADROOM_CASES = {
    (LLAMA, "arm", 2048, 128, None, None, False): [1, None],
    (LLAMA, "arm", 512, 4096, None, None, False): [1, None],
    (LLADA, "dlm_naive", 512, 256, 256, None, False): [1],
    (LLADA, "dlm_block", 512, 1024, 1024, 32, False): [9],
    (LLADA, "dlm_block", 512, 1024, 1024, 32, True): [4],
}


def first_compute_bound_batch(f, e, weights, hw):
    """The least batch b whose phase intensity b·f / (W + b·e) classify calls
    compute-bound, by doubling and then bisection; None when classify calls
    the limit f/e memory-bound."""
    def compute_bound(b):
        return classify(b * f / (weights + b * e), hw) == "compute_bound"

    if classify(f / e, hw) == "memory_bound":
        return None
    high = 1
    while not compute_bound(high):
        high *= 2
        assert high < 2**64
    low = high // 2  # memory-bound, or 0 when batch 1 is compute-bound
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if compute_bound(middle) else (middle, high)
    return high


@pytest.mark.parametrize("hw_name", ["rtx-a6000", "a100-80g"])
@pytest.mark.parametrize("case", list(HEADROOM_CASES), ids=[
    "arm-long-prompt", "arm-long-answer", "dlm_naive", "dlm_block", "dlm_block-refresh"])
def test_the_first_compute_bound_batch_splits_the_bounds_through_end_to_end(case, hw_name):
    """b*, the first batch at which classify calls a phase compute-bound,
    found by bisection on classify over the batch law's integers f, e and W:
    through end_to_end, the phase is memory-bound at b* - 1 and
    compute-bound at b*. When classify calls f/e memory-bound, no batch up
    to 2**20 is compute-bound.

    Proof. By the batch law, a phase's FLOPs are b·f and its bytes W + b·e,
    with integers f, e > 0 and W >= 0 that do not depend on b. So its exact
    intensity b·f / (W + b·e) = f / (W/b + e) is non-decreasing in b and at
    most f/e. arithmetic_intensity divides the two ints, which Python rounds
    correctly, and rounding is monotone: the float intensity is
    non-decreasing in b and at most the float of f/e. classify compares it
    with the ridge, so along the batch a phase's bound changes at most once,
    from memory- to compute-bound. Bisection then finds the first
    compute-bound batch b*, and every batch below it is memory-bound. If the
    float of f/e is below the ridge, every batch's float intensity is too.
    """
    model, mode, prompt_len, gen_len, steps, block_size, refresh = case
    hw = HW_REGISTRY[hw_name]
    options = CountingOptions(include_cache_refresh=refresh)

    def evaluate(batch):
        workload = WorkloadSpec(mode, batch, prompt_len, gen_len, steps, block_size, 2, options)
        return end_to_end(Scenario(model, hw, workload))

    one, two, three = map(evaluate, (1, 2, 3))
    found = []
    for index, (p1, p2, p3) in enumerate(zip(one.phases, two.phases, three.phases)):
        f, e, weights = p1.flops, p2.bytes - p1.bytes, 2 * p1.bytes - p2.bytes
        assert (p2.flops, p3.flops, p3.bytes) == (2 * f, 3 * f, weights + 3 * e)
        first = first_compute_bound_batch(f, e, weights, hw)
        found.append(first)
        if first is None:
            for batch in (2**k for k in range(21)):
                assert evaluate(batch).points[index].bound == "memory_bound", batch
            continue
        at = evaluate(first)
        assert (at.phases[index].flops, at.phases[index].bytes) == (first * f, weights + first * e)
        assert at.points[index].bound == "compute_bound"
        if first > 1:
            assert evaluate(first - 1).points[index].bound == "memory_bound"
    if hw_name == "rtx-a6000":
        assert found == HEADROOM_CASES[case]


def test_entry_count_does_not_grow_with_gen_len_or_blocks():
    short = arm_decode_cost(scenario(LLAMA, "arm", 1, 2048, 2))
    long = arm_decode_cost(scenario(LLAMA, "arm", 1, 2048, 10**6))
    assert len(long.breakdown) == len(short.breakdown) == 8  # 7 linears + attention
    refresh = CountingOptions(include_cache_refresh=True, include_lm_head=True)
    one_block = blockwise_dlm_cost(scenario(LLADA, "dlm_block", 1, 16, 4, 4, 4, opts=refresh))
    many_blocks = blockwise_dlm_cost(
        scenario(LLADA, "dlm_block", 1, 16, 4 * 4096, 4 * 4096, 4, opts=refresh)
    )
    assert len(many_blocks.breakdown) == len(one_block.breakdown)


@settings(max_examples=60)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=4),
    prompt_len=st.integers(min_value=0, max_value=8),
    gen_len=st.integers(min_value=1, max_value=12),
    block_size=st.integers(min_value=1, max_value=12),
    steps_extra=st.integers(min_value=0, max_value=8),
)
def test_blockwise_never_exceeds_naive_flops(
    model, batch, prompt_len, gen_len, block_size, steps_extra
):
    if block_size > gen_len:
        block_size = gen_len
    num_blocks = -(-gen_len // block_size)
    steps = num_blocks + steps_extra
    blockwise = blockwise_dlm_cost(
        scenario(model, "dlm_block", batch, prompt_len, gen_len, steps, block_size)
    )
    naive = naive_dlm_cost(scenario(model, "dlm_naive", batch, prompt_len, gen_len, steps))
    assert blockwise.flops <= naive.flops


def test_blockwise_full_kv_charges_whole_sequence():
    full_kv = CountingOptions(full_kv_each_step=True)
    growing = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 4, 2, 2))
    full = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 4, 2, 2, opts=full_kv))
    assert full.flops > growing.flops
    assert full.bytes > growing.bytes
    # with a single block covering everything the two conventions coincide
    one_block = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 4, 1, 4))
    one_block_full = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 4, 1, 4, opts=full_kv))
    assert one_block.flops == one_block_full.flops


def test_cache_refresh_adds_full_passes_and_steps():
    plain = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 4, 4, 2))
    refreshed = blockwise_dlm_cost(
        scenario(TINY, "dlm_block", 1, 2, 4, 4, 2, opts=CountingOptions(include_cache_refresh=True))
    )
    refresh_flops = tiny_layer_flops(4, 4, causal=False) + tiny_layer_flops(6, 6, causal=False)
    assert refreshed.flops == plain.flops + refresh_flops


def test_refresh_extent_clamps_to_generation_end():
    # Lg = 3 with G = 2: the second block covers only one token, so its
    # refresh pass runs over prompt + 3 tokens, not prompt + 4.
    refreshed = blockwise_dlm_cost(
        scenario(TINY, "dlm_block", 1, 2, 3, 2, 2, opts=CountingOptions(include_cache_refresh=True))
    )
    last_refresh = dict(refreshed.breakdown)["refresh1:attention"]
    assert last_refresh.flops == TINY.num_layers * oracles.attention_flops_loops(
        1, TINY.num_heads, TINY.head_dim, 5, 5, causal=False
    )
    plain = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 3, 2, 2))
    refresh_flops = tiny_layer_flops(4, 4, causal=False) + tiny_layer_flops(5, 5, causal=False)
    assert refreshed.flops == plain.flops + refresh_flops


def test_rectangle_fallback_counts_full_square():
    exact = arm_prefill_cost(scenario(TINY, "arm", 1, 2, 1))
    loose = arm_prefill_cost(
        scenario(TINY, "arm", 1, 2, 1, opts=CountingOptions(causal_exact=False))
    )
    # triangular pair count 3 becomes the full 2x2 rectangle of 4 pairs
    attn_exact = dict(exact.breakdown)["attention"]
    attn_loose = dict(loose.breakdown)["attention"]
    assert attn_exact.flops * 4 == attn_loose.flops * 3


def test_elementwise_traffic_adds_bytes_only():
    plain = arm_prefill_cost(scenario(TINY, "arm", 1, 2, 1))
    counted = arm_prefill_cost(
        scenario(TINY, "arm", 1, 2, 1, opts=CountingOptions(count_elementwise_bytes=True))
    )
    assert counted.flops == plain.flops
    assert counted.bytes > plain.bytes


def test_lm_head_adds_vocab_projection():
    plain = arm_decode_cost(scenario(TINY, "arm", 1, 2, 2))
    with_head = arm_decode_cost(
        scenario(TINY, "arm", 1, 2, 2, opts=CountingOptions(include_lm_head=True))
    )
    per_token = oracles.linear_flops_loops(1, 1, TINY.d_model, TINY.vocab_size)
    assert with_head.flops == plain.flops + 2 * per_token


# The phase functions take a Scenario and check nothing themselves: each
# workload they used to reject is rejected when its Scenario is built.


def test_prefill_requires_nonempty_prompt():
    # An arm scenario with an empty prompt has no prefill phase.
    phases = scenario_phases(scenario(TINY, "arm", 1, 0, 3))
    assert [p.phase for p in phases] == ["arm_decode"]
    assert [p.phase for p in scenario_phases(scenario(TINY, "arm", 1, 1, 3))] == [
        "arm_prefill", "arm_decode"
    ]


def test_arm_phases_reject_bidirectional_only_model():
    with pytest.raises(ValidationError, match="bidirectional_only"):
        scenario(LLADA, "arm", 1, 4, 4)


def test_blockwise_rejects_oversized_block():
    with pytest.raises(ValidationError, match="block size exceeds generation length"):
        scenario(TINY, "dlm_block", 1, 0, 128, 128, 256)


def test_blockwise_rejects_starved_step_budget():
    with pytest.raises(ValidationError, match="fewer steps than blocks"):
        scenario(TINY, "dlm_block", 1, 0, 128, 2, 32)


def test_phase_cost_rejects_total_mismatch():
    # The totals are derived from the breakdown, so they cannot disagree with it.
    kernel = KernelCost(flops=4, bytes=6)
    with pytest.raises(TypeError, match="flops"):
        PhaseCost(phase="arm_prefill", flops=5, bytes=6, breakdown=(("k", kernel),))
    phase = PhaseCost(phase="arm_prefill", breakdown=(("k", kernel), ("k", kernel)))
    assert (phase.flops, phase.bytes) == (8, 12)


def test_phase_cost_rejects_unknown_phase():
    kernel = KernelCost(flops=4, bytes=4)
    with pytest.raises(ValidationError, match="phase"):
        PhaseCost(phase="warmup", breakdown=(("k", kernel),))


def test_arithmetic_intensity_rejects_zero_bytes():
    with pytest.raises(ValidationError, match="zero bytes"):
        arithmetic_intensity(KernelCost(flops=0, bytes=0))


@settings(max_examples=40)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=4),
    prompt_len=st.integers(min_value=1, max_value=8),
)
def test_phase_totals_equal_breakdown_sums(model, batch, prompt_len):
    phase = arm_prefill_cost(scenario(model, "arm", batch, prompt_len, 1))
    assert phase.flops == sum(k.flops for _label, k in phase.breakdown)
    assert phase.bytes == sum(k.bytes for _label, k in phase.breakdown)
