"""Phase-level cost aggregation for the four decoding strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    CountingOptions,
    HardwareSpec,
    ModelConfig,
    PhaseCost,
    ValidationError,
    arithmetic_intensity,
    arm_decode_cost,
    arm_prefill_cost,
    blockwise_dlm_cost,
    layer_forward_cost,
    naive_dlm_cost,
    phase_latency,
    ridge_point,
)
from lmroofline.kernels import KernelCost, KernelRun, kernel_run
from lmroofline.roofline import kernel_time

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
TINY = MODEL_REGISTRY["tiny-test"]
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
        TINY, 1, 2, 2, 2, causal=True, write_new_kv=True, opts=CountingOptions()
    )
    flops = sum(k.flops for _label, k in entries)
    assert flops == tiny_layer_flops(2, 2, causal=True) == 688


def test_layer_forward_single_query_example():
    entries = layer_forward_cost(
        TINY, 1, 1, 3, 2, causal=False, write_new_kv=True, opts=CountingOptions()
    )
    flops = sum(k.flops for _label, k in entries)
    assert flops == tiny_layer_flops(1, 3, causal=False) == 368


def test_prefill_equals_layer_forward_example():
    phase = arm_prefill_cost(TINY, 1, 2, 2)
    assert phase.flops == 688
    assert phase.bytes == tiny_layer_bytes(2, 2, write_new_kv=True) == 688
    assert phase.phase == "arm_prefill"
    assert phase.steps == 1


def test_single_decode_step_example():
    phase = arm_decode_cost(TINY, 1, 2, 1, 2)
    assert phase.flops == tiny_layer_flops(1, 3, causal=False) == 368
    assert phase.bytes == tiny_layer_bytes(1, 3, write_new_kv=True) == 536
    assert phase.steps == 1


def test_naive_dlm_single_step_example():
    phase = naive_dlm_cost(TINY, 1, 2, 2, 1, 2)
    assert phase.flops == tiny_layer_flops(4, 4, causal=False) == 1536
    assert phase.bytes == tiny_layer_bytes(4, 4, write_new_kv=False) == 992
    assert phase.steps == 1


def test_blockwise_single_block_beats_naive_example():
    blockwise = blockwise_dlm_cost(TINY, 1, 2, 2, 1, 2, 2)
    assert blockwise.flops == tiny_layer_flops(2, 4, causal=False) == 768
    assert blockwise.bytes == tiny_layer_bytes(2, 4, write_new_kv=False) == 688
    naive = naive_dlm_cost(TINY, 1, 2, 2, 1, 2)
    assert blockwise.flops < naive.flops == 1536


def test_prefill_ai_compute_bound_at_long_prompt():
    ai = arithmetic_intensity(arm_prefill_cost(LLAMA, 1, 2048, 2))
    assert ai > ridge_point(A6000)


@pytest.mark.parametrize("gen_len", [128, 1024, 8192])
def test_decode_ai_memory_bound_at_long_prompt(gen_len):
    ai = arithmetic_intensity(arm_decode_cost(LLAMA, 1, 2048, gen_len, 2))
    assert ai < ridge_point(A6000)


def test_naive_dlm_ai_compute_bound_at_4096():
    ai = arithmetic_intensity(naive_dlm_cost(LLADA, 1, 0, 4096, 4096, 2))
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
    phase = arm_prefill_cost(model, batch, prompt_len, 2, opts)
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
    phase = naive_dlm_cost(model, batch, prompt_len, gen_len, steps, 2)
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
    whole = arm_decode_cost(model, batch, prompt_len, gen_len, dtype_bytes, opts)
    flops = 0
    nbytes = 0
    for t in range(gen_len):
        step = arm_decode_cost(model, batch, prompt_len + t, 1, dtype_bytes, opts)
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
    phase = arm_decode_cost(model, batch, prompt_len, gen_len, dtype_bytes, opts)
    loop = oracles.arm_decode_loop(model, batch, prompt_len, gen_len, dtype_bytes, opts)
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
    full_kv=st.booleans(),
    data=st.data(),
)
def test_blockwise_runs_match_per_step_loop(
    model, batch, prompt_len, gen_len, block_size, steps_extra, opts, full_kv, data
):
    block_size = min(block_size, gen_len)
    steps = -(-gen_len // block_size) + steps_extra
    phase = blockwise_dlm_cost(
        model, batch, prompt_len, gen_len, steps, block_size, 2, opts, full_kv=full_kv
    )
    loop = oracles.blockwise_dlm_loop(
        model, batch, prompt_len, gen_len, steps, block_size, 2, opts, full_kv=full_kv
    )
    assert_matches_loop(phase, loop, hardware_switching_inside_a_run(phase, data))


@settings(max_examples=40)
@given(
    flops=st.integers(min_value=0, max_value=10**12),
    nbytes=st.integers(min_value=1, max_value=10**12),
    count=st.integers(min_value=1, max_value=10**6),
)
def test_constant_run_is_the_scaled_kernel(flops, nbytes, count):
    kernel = KernelCost(flops, nbytes, "k")
    run = kernel_run(count, [kernel] * min(count, 3))
    assert run == kernel.scaled(count)
    assert kernel_time(run, A6000) == max(flops * count / A6000.peak_flops,
                                          nbytes * count / A6000.mem_bandwidth)


def test_entry_count_does_not_grow_with_gen_len_or_blocks():
    short = arm_decode_cost(LLAMA, 1, 2048, 2, 2)
    long = arm_decode_cost(LLAMA, 1, 2048, 10**6, 2)
    assert len(long.breakdown) == len(short.breakdown) == 8  # 7 linears + attention
    refresh = CountingOptions(include_cache_refresh=True, include_lm_head=True)
    one_block = blockwise_dlm_cost(LLADA, 1, 16, 4, 4, 4, 2, refresh)
    many_blocks = blockwise_dlm_cost(LLADA, 1, 16, 4 * 4096, 4 * 4096, 4, 2, refresh)
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
    blockwise = blockwise_dlm_cost(model, batch, prompt_len, gen_len, steps, block_size, 2)
    naive = naive_dlm_cost(model, batch, prompt_len, gen_len, steps, 2)
    assert blockwise.flops <= naive.flops


def test_blockwise_full_kv_charges_whole_sequence():
    growing = blockwise_dlm_cost(TINY, 1, 2, 4, 2, 2, 2)
    full = blockwise_dlm_cost(TINY, 1, 2, 4, 2, 2, 2, full_kv=True)
    assert full.flops > growing.flops
    assert full.bytes > growing.bytes
    # with a single block covering everything the two conventions coincide
    one_block = blockwise_dlm_cost(TINY, 1, 2, 4, 1, 4, 2)
    one_block_full = blockwise_dlm_cost(TINY, 1, 2, 4, 1, 4, 2, full_kv=True)
    assert one_block.flops == one_block_full.flops


def test_cache_refresh_adds_full_passes_and_steps():
    plain = blockwise_dlm_cost(TINY, 1, 2, 4, 4, 2, 2)
    refreshed = blockwise_dlm_cost(
        TINY, 1, 2, 4, 4, 2, 2, CountingOptions(include_cache_refresh=True)
    )
    assert plain.steps == 4
    assert refreshed.steps == 4 + 2
    refresh_flops = tiny_layer_flops(4, 4, causal=False) + tiny_layer_flops(6, 6, causal=False)
    assert refreshed.flops == plain.flops + refresh_flops


def test_refresh_extent_clamps_to_generation_end():
    # Lg = 3 with G = 2: the second block covers only one token, so its
    # refresh pass runs over prompt + 3 tokens, not prompt + 4.
    refreshed = blockwise_dlm_cost(
        TINY, 1, 2, 3, 2, 2, 2, CountingOptions(include_cache_refresh=True)
    )
    last_refresh = dict(refreshed.breakdown)["refresh1:attention"]
    assert last_refresh.flops == TINY.num_layers * oracles.attention_flops_loops(
        1, TINY.num_heads, TINY.head_dim, 5, 5, causal=False
    )
    plain = blockwise_dlm_cost(TINY, 1, 2, 3, 2, 2, 2)
    refresh_flops = tiny_layer_flops(4, 4, causal=False) + tiny_layer_flops(5, 5, causal=False)
    assert refreshed.flops == plain.flops + refresh_flops


def test_rectangle_fallback_counts_full_square():
    exact = arm_prefill_cost(TINY, 1, 2, 2)
    loose = arm_prefill_cost(TINY, 1, 2, 2, CountingOptions(causal_exact=False))
    # triangular pair count 3 becomes the full 2x2 rectangle of 4 pairs
    attn_exact = dict(exact.breakdown)["attention"]
    attn_loose = dict(loose.breakdown)["attention"]
    assert attn_exact.flops * 4 == attn_loose.flops * 3


def test_elementwise_traffic_adds_bytes_only():
    plain = arm_prefill_cost(TINY, 1, 2, 2)
    counted = arm_prefill_cost(TINY, 1, 2, 2, CountingOptions(count_elementwise_bytes=True))
    assert counted.flops == plain.flops
    assert counted.bytes > plain.bytes


def test_lm_head_adds_vocab_projection():
    plain = arm_decode_cost(TINY, 1, 2, 2, 2)
    with_head = arm_decode_cost(TINY, 1, 2, 2, 2, CountingOptions(include_lm_head=True))
    per_token = oracles.linear_flops_loops(1, 1, TINY.d_model, TINY.vocab_size)
    assert with_head.flops == plain.flops + 2 * per_token


def test_decode_steps_counts_generated_tokens():
    assert arm_decode_cost(TINY, 1, 2, 5, 2).steps == 5
    assert naive_dlm_cost(TINY, 1, 2, 4, 7, 2).steps == 7
    assert blockwise_dlm_cost(TINY, 1, 2, 4, 6, 2, 2).steps == 6


def test_prefill_requires_nonempty_prompt():
    with pytest.raises(ValidationError, match="prompt_len"):
        arm_prefill_cost(TINY, 1, 0, 2)


def test_arm_phases_reject_bidirectional_only_model():
    with pytest.raises(ValidationError, match="bidirectional_only"):
        arm_prefill_cost(LLADA, 1, 4, 2)
    with pytest.raises(ValidationError, match="bidirectional_only"):
        arm_decode_cost(LLADA, 1, 4, 4, 2)


def test_blockwise_rejects_oversized_block():
    with pytest.raises(ValidationError, match="block size exceeds generation length"):
        blockwise_dlm_cost(TINY, 1, 0, 128, 128, 256, 2)


def test_blockwise_rejects_starved_step_budget():
    with pytest.raises(ValidationError, match="fewer steps than blocks"):
        blockwise_dlm_cost(TINY, 1, 0, 128, 2, 32, 2)


def test_phase_cost_rejects_total_mismatch():
    kernel = KernelCost(flops=4, bytes=4, label="k")
    with pytest.raises(ValidationError, match="flops"):
        PhaseCost(phase="arm_prefill", flops=5, bytes=4, breakdown=(("k", kernel),), steps=1)


def test_phase_cost_rejects_unknown_phase():
    kernel = KernelCost(flops=4, bytes=4, label="k")
    with pytest.raises(ValidationError, match="phase"):
        PhaseCost(phase="warmup", flops=4, bytes=4, breakdown=(("k", kernel),), steps=1)


def test_arithmetic_intensity_rejects_zero_bytes():
    with pytest.raises(ValidationError, match="zero bytes"):
        arithmetic_intensity(KernelCost(flops=0, bytes=0, label="empty"))


@settings(max_examples=40)
@given(
    model=small_models,
    batch=st.integers(min_value=1, max_value=4),
    prompt_len=st.integers(min_value=1, max_value=8),
)
def test_phase_totals_equal_breakdown_sums(model, batch, prompt_len):
    phase = arm_prefill_cost(model, batch, prompt_len, 2)
    assert phase.flops == sum(k.flops for _label, k in phase.breakdown)
    assert phase.bytes == sum(k.bytes for _label, k in phase.breakdown)
