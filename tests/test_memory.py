"""Parameter counts, KV-cache sizing, and out-of-memory boundaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import TINY
from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    HardwareSpec,
    Scenario,
    ValidationError,
    WorkloadSpec,
    parameter_count,
    peak_footprint,
)
from lmroofline.memory import activation_bytes, kv_cache_bytes, weight_bytes

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
A100 = HW_REGISTRY["a100-80g"]
A6000 = HW_REGISTRY["rtx-a6000"]


def enumerated_params(model):
    return oracles.parameter_count_enumerated(
        model.num_layers,
        model.d_model,
        model.num_heads,
        model.num_kv_heads,
        model.head_dim,
        model.ffn_dim,
        model.vocab_size,
        model.mlp_kind,
    )


def test_tiny_parameter_count_matches_enumeration():
    # embedding 16*4 twice, plus one layer of 4 projections and 3 MLP mats
    assert parameter_count(TINY) == enumerated_params(TINY) == 288


def test_llama3_parameter_count_matches_enumeration():
    count = parameter_count(LLAMA)
    assert count == enumerated_params(LLAMA) == 8_029_995_008
    assert weight_bytes(LLAMA, 2) == 16_059_990_016
    assert weight_bytes(LLAMA, 2) == pytest.approx(16.06e9, rel=1e-3)


def test_llada_parameter_count_matches_enumeration():
    assert parameter_count(LLADA) == enumerated_params(LLADA) == 8_015_314_944


def test_weight_bytes_scale_with_dtype():
    assert weight_bytes(TINY, 4) == 2 * weight_bytes(TINY, 2)


def test_kv_cache_example():
    expected = oracles.kv_cache_bytes_formula(32, 1, 2048, 8, 128, 2)
    assert kv_cache_bytes(LLAMA, 1, 2048, 2) == expected == 268_435_456


def test_kv_cache_is_zero_for_empty_sequence():
    assert kv_cache_bytes(LLAMA, 1, 0, 2) == 0


def test_kv_cache_linear_in_batch():
    assert kv_cache_bytes(LLAMA, 4, 2048, 2) == 4 * kv_cache_bytes(LLAMA, 1, 2048, 2)


@given(
    batch=st.integers(min_value=1, max_value=64),
    total_len=st.integers(min_value=0, max_value=8192),
)
def test_kv_cache_matches_formula_oracle(batch, total_len):
    expected = oracles.kv_cache_bytes_formula(
        LLADA.num_layers, batch, total_len, LLADA.num_kv_heads, LLADA.head_dim, 2
    )
    assert kv_cache_bytes(LLADA, batch, total_len, 2) == expected


def arm_scenario(batch, prompt_len, gen_len, hw=A100):
    w = WorkloadSpec(mode="arm", batch=batch, prompt_len=prompt_len, gen_len=gen_len)
    return Scenario(model=LLAMA, hardware=hw, workload=w)


def test_footprint_total_is_component_sum():
    fp = peak_footprint(arm_scenario(2, 128, 128))
    assert fp.total == fp.weight_bytes + fp.kv_cache_bytes + fp.activation_bytes
    assert fp.fits == (fp.total <= A100.mem_capacity)


def test_naive_dlm_holds_no_kv_cache():
    w = WorkloadSpec(mode="dlm_naive", batch=1, prompt_len=128, gen_len=128, steps=128)
    fp = peak_footprint(Scenario(model=LLADA, hardware=A100, workload=w))
    assert fp.kv_cache_bytes == 0
    assert fp.activation_bytes == activation_bytes(LLADA, 1, 256, 2)


def test_blockwise_and_arm_footprints_match_when_prompt_dominates():
    # both modes keep the full-sequence cache; with G <= L_p the activation
    # extents coincide as well, so the footprints are identical
    w_arm = WorkloadSpec(mode="arm", batch=2, prompt_len=512, gen_len=128)
    w_blk = WorkloadSpec(
        mode="dlm_block", batch=2, prompt_len=512, gen_len=128, steps=128, block_size=32
    )
    fp_arm = peak_footprint(Scenario(model=LLAMA, hardware=A100, workload=w_arm))
    fp_blk = peak_footprint(Scenario(model=LLAMA, hardware=A100, workload=w_blk))
    assert fp_arm.total == fp_blk.total


# (model, workload, activation extent E of the module docstring)
EXTENT_CASES = [
    (LLAMA, WorkloadSpec(mode="arm", batch=3, prompt_len=512, gen_len=128), 512),
    (LLAMA, WorkloadSpec(mode="arm", batch=3, prompt_len=0, gen_len=128), 1),
    (LLADA, WorkloadSpec(mode="dlm_naive", batch=3, prompt_len=128, gen_len=64, steps=64), 192),
    (LLADA, WorkloadSpec(mode="dlm_block", batch=3, prompt_len=512, gen_len=128, steps=128,
                         block_size=32), 512),
    (LLADA, WorkloadSpec(mode="dlm_block", batch=3, prompt_len=16, gen_len=256, steps=256,
                         block_size=64), 64),
]


@pytest.mark.parametrize("model, w, extent", EXTENT_CASES)
def test_each_mode_has_its_activation_extent_and_cache(model, w, extent):
    fp = peak_footprint(Scenario(model=model, hardware=A100, workload=w))
    assert fp.activation_bytes == activation_bytes(model, w.batch, extent, w.dtype_bytes)
    kv = 0 if w.mode == "dlm_naive" else kv_cache_bytes(model, w.batch, w.total_len, 2)
    assert fp.kv_cache_bytes == kv


def test_zero_capacity_never_fits():
    empty = HardwareSpec(name="paperweight", peak_flops=1e12, mem_bandwidth=1e9, mem_capacity=0)
    fp = peak_footprint(arm_scenario(1, 8, 8, hw=empty))
    assert not fp.fits


def test_activation_floor_keeps_total_above_weights():
    # no prompt: the activation extent floors at one token
    w = WorkloadSpec(mode="arm", batch=1, prompt_len=0, gen_len=1)
    fp = peak_footprint(Scenario(model=LLAMA, hardware=A100, workload=w))
    assert fp.activation_bytes == activation_bytes(LLAMA, 1, 1, 2)
    assert fp.total == fp.weight_bytes + fp.kv_cache_bytes + fp.activation_bytes
    assert fp.total > fp.weight_bytes


def test_batch_zero_is_rejected():
    with pytest.raises(ValidationError, match="batch"):
        peak_footprint(arm_scenario(0, 8, 8))


@settings(max_examples=30)
@given(
    batch=st.integers(min_value=1, max_value=32),
    prompt_len=st.integers(min_value=1, max_value=4096),
)
def test_footprint_strictly_increasing_in_batch_and_length(batch, prompt_len):
    base = peak_footprint(arm_scenario(batch, prompt_len, 16)).total
    assert peak_footprint(arm_scenario(batch + 1, prompt_len, 16)).total > base
    assert peak_footprint(arm_scenario(batch, prompt_len + 1, 16)).total > base


def largest_fitting_batch(model, hw, workload):
    """The largest batch whose footprint fits, as a `batch` sweep axis reads it off
    the `fits` column; 0 if none does."""
    return oracles.max_fitting_batch_scan(
        lambda batch: peak_footprint(Scenario(model, hw, workload._replace(batch=batch))).fits
    )


def test_longer_prompts_oom_at_smaller_batches():
    short = WorkloadSpec(mode="arm", batch=1, prompt_len=128, gen_len=128)
    long = WorkloadSpec(mode="arm", batch=1, prompt_len=2048, gen_len=128)
    assert largest_fitting_batch(LLAMA, A100, short) > largest_fitting_batch(LLAMA, A100, long)


@settings(max_examples=12, deadline=None)
@given(prompt_len=st.sampled_from([64, 128, 512, 1024, 2048, 4096]))
def test_max_fitting_batch_nonincreasing_in_prompt(prompt_len):
    w_short = WorkloadSpec(mode="arm", batch=1, prompt_len=prompt_len, gen_len=64)
    w_long = WorkloadSpec(mode="arm", batch=1, prompt_len=2 * prompt_len, gen_len=64)
    short, long = (largest_fitting_batch(LLAMA, A100, w) for w in (w_short, w_long))
    assert short >= long


def test_max_fitting_batch_zero_when_weights_exceed_capacity():
    small = HardwareSpec(name="small", peak_flops=1e12, mem_bandwidth=1e9, mem_capacity=1e9)
    w = WorkloadSpec(mode="arm", batch=1, prompt_len=8, gen_len=8)
    assert largest_fitting_batch(LLAMA, small, w) == 0


def test_oom_is_reported_not_raised():
    # a batch far past the capacity boundary still evaluates
    fp = peak_footprint(arm_scenario(100000, 2048, 128))
    assert not fp.fits
    assert fp.total > A100.mem_capacity


BOUNDARY_WORKLOADS = {
    "arm": (LLAMA, WorkloadSpec(mode="arm", batch=1, prompt_len=2048, gen_len=128)),
    "dlm_naive": (
        LLADA, WorkloadSpec(mode="dlm_naive", batch=1, prompt_len=1024, gen_len=256, steps=64)
    ),
    "dlm_block": (
        LLADA,
        WorkloadSpec(
            mode="dlm_block", batch=1, prompt_len=1024, gen_len=256, steps=64, block_size=32
        ),
    ),
}


def with_capacity(capacity):
    return HardwareSpec(
        name="edge", peak_flops=A100.peak_flops, mem_bandwidth=A100.mem_bandwidth,
        mem_capacity=capacity,
    )


@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize("mode", sorted(BOUNDARY_WORKLOADS))
def test_max_fitting_batch_is_exact_at_the_capacity_boundary(mode, k):
    # An integer total fits a float capacity iff it is <= that capacity.
    model, w = BOUNDARY_WORKLOADS[mode]
    total = peak_footprint(Scenario(model, A100, w._replace(batch=k))).total
    assert largest_fitting_batch(model, with_capacity(total), w) == k
    assert largest_fitting_batch(model, with_capacity(total + 0.5), w) == k
    assert largest_fitting_batch(model, with_capacity(total - 1), w) == k - 1
