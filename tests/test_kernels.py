"""Kernel-level FLOP and byte counting, checked against the loop oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from lmroofline import KernelCost, ValidationError, attention_cost, elementwise_bytes, linear_cost
from lmroofline.kernels import attention_pair_count

dims = st.integers(min_value=1, max_value=6)
tiny_len = st.integers(min_value=1, max_value=6)
dtypes = st.sampled_from([1, 2, 4])


def test_linear_small_example_matches_loop_oracle():
    cost = linear_cost(batch=1, seq_len=2, d_in=4, d_out=4, dtype_bytes=2)
    assert cost.flops == oracles.linear_flops_loops(1, 2, 4, 4) == 64
    assert cost.bytes == oracles.linear_bytes_loops(1, 2, 4, 4, 2) == 64
    assert cost.ai == 1.0


def test_linear_single_mac():
    cost = linear_cost(batch=1, seq_len=1, d_in=1, d_out=1, dtype_bytes=2)
    assert cost.flops == 2
    assert cost.bytes == 6


def test_linear_prefill_projection_flops():
    # One 4096 x 4096 projection over a 2048-token prompt, recomputed by hand.
    by_hand = 2 * 1 * 2048 * 4096 * 4096
    assert by_hand == 68_719_476_736
    cost = linear_cost(batch=1, seq_len=2048, d_in=4096, d_out=4096, dtype_bytes=2)
    assert cost.flops == by_hand


@given(batch=dims, seq_len=tiny_len, d_in=dims, d_out=dims, dtype_bytes=dtypes)
def test_linear_matches_loop_oracle(batch, seq_len, d_in, d_out, dtype_bytes):
    cost = linear_cost(batch, seq_len, d_in, d_out, dtype_bytes)
    assert cost.flops == oracles.linear_flops_loops(batch, seq_len, d_in, d_out)
    assert cost.bytes == oracles.linear_bytes_loops(batch, seq_len, d_in, d_out, dtype_bytes)


@given(batch=dims, seq_len=tiny_len, d_in=dims, d_out=dims)
def test_linear_flops_doubles_with_each_dimension(batch, seq_len, d_in, d_out):
    base = linear_cost(batch, seq_len, d_in, d_out, 2).flops
    assert linear_cost(2 * batch, seq_len, d_in, d_out, 2).flops == 2 * base
    assert linear_cost(batch, 2 * seq_len, d_in, d_out, 2).flops == 2 * base
    assert linear_cost(batch, seq_len, 2 * d_in, d_out, 2).flops == 2 * base
    assert linear_cost(batch, seq_len, d_in, 2 * d_out, 2).flops == 2 * base


@pytest.mark.parametrize("bad", [0, -1, True, 2.0])
@pytest.mark.parametrize("field", ["batch", "seq_len", "d_in", "d_out", "dtype_bytes"])
def test_linear_rejects_nonpositive_arguments(field, bad):
    kwargs = dict(batch=1, seq_len=2, d_in=4, d_out=4, dtype_bytes=2)
    kwargs[field] = bad
    with pytest.raises(ValidationError, match=field):
        linear_cost(**kwargs)


def test_attention_decode_step_example():
    cost = attention_cost(
        batch=1,
        num_heads=1,
        num_kv_heads=1,
        head_dim=4,
        q_len=1,
        kv_len=8,
        dtype_bytes=2,
        causal=False,
        write_new_kv=True,
    )
    assert cost.flops == oracles.attention_flops_loops(1, 1, 4, 1, 8, causal=False) == 128
    assert cost.bytes == oracles.attention_bytes_loops(1, 1, 1, 4, 1, 8, 2, True) == 160


def test_attention_causal_pair_enumeration():
    assert attention_pair_count(q_len=2, kv_len=2, causal=True) == 3
    cost = attention_cost(
        batch=1,
        num_heads=1,
        num_kv_heads=1,
        head_dim=1,
        q_len=2,
        kv_len=2,
        dtype_bytes=2,
        causal=True,
        write_new_kv=False,
    )
    assert cost.flops == 12


def test_attention_rejects_zero_query_length():
    with pytest.raises(ValidationError, match="q_len"):
        attention_cost(
            batch=1,
            num_heads=1,
            num_kv_heads=1,
            head_dim=4,
            q_len=0,
            kv_len=8,
            dtype_bytes=2,
            causal=False,
            write_new_kv=False,
        )


def test_attention_rejects_causal_query_longer_than_keys():
    with pytest.raises(ValidationError):
        attention_cost(
            batch=1,
            num_heads=1,
            num_kv_heads=1,
            head_dim=4,
            q_len=4,
            kv_len=2,
            dtype_bytes=2,
            causal=True,
            write_new_kv=False,
        )


def test_attention_rejects_more_kv_heads_than_heads():
    with pytest.raises(ValidationError):
        attention_cost(
            batch=1,
            num_heads=2,
            num_kv_heads=4,
            head_dim=4,
            q_len=1,
            kv_len=2,
            dtype_bytes=2,
            causal=False,
            write_new_kv=False,
        )


@given(
    batch=dims,
    num_heads=dims,
    head_dim=dims,
    q_len=tiny_len,
    extra_kv=st.integers(min_value=0, max_value=6),
    causal=st.booleans(),
    write_new_kv=st.booleans(),
    dtype_bytes=dtypes,
)
def test_attention_matches_loop_oracle(
    batch, num_heads, head_dim, q_len, extra_kv, causal, write_new_kv, dtype_bytes
):
    kv_len = q_len + extra_kv
    cost = attention_cost(
        batch=batch,
        num_heads=num_heads,
        num_kv_heads=num_heads,
        head_dim=head_dim,
        q_len=q_len,
        kv_len=kv_len,
        dtype_bytes=dtype_bytes,
        causal=causal,
        write_new_kv=write_new_kv,
    )
    assert cost.flops == oracles.attention_flops_loops(
        batch, num_heads, head_dim, q_len, kv_len, causal
    )
    assert cost.bytes == oracles.attention_bytes_loops(
        batch, num_heads, num_heads, head_dim, q_len, kv_len, dtype_bytes, write_new_kv
    )


@given(batch=dims, num_heads=dims, head_dim=dims, seq_len=st.integers(min_value=1, max_value=32))
def test_causal_full_square_is_exact_triangular_fraction(batch, num_heads, head_dim, seq_len):
    causal = attention_cost(
        batch, num_heads, num_heads, head_dim, seq_len, seq_len, 2, causal=True, write_new_kv=False
    )
    full = attention_cost(
        batch, num_heads, num_heads, head_dim, seq_len, seq_len, 2, causal=False, write_new_kv=False
    )
    assert causal.flops * 2 * seq_len == full.flops * (seq_len + 1)


@given(
    batch=dims,
    num_heads=dims,
    head_dim=dims,
    left=tiny_len,
    right=tiny_len,
    kv_len=st.integers(min_value=1, max_value=12),
)
def test_non_causal_flops_add_over_disjoint_query_blocks(
    batch, num_heads, head_dim, left, right, kv_len
):
    whole = attention_cost(
        batch, num_heads, num_heads, head_dim, left + right, kv_len, 2, False, False
    )
    first = attention_cost(batch, num_heads, num_heads, head_dim, left, kv_len, 2, False, False)
    second = attention_cost(batch, num_heads, num_heads, head_dim, right, kv_len, 2, False, False)
    assert whole.flops == first.flops + second.flops


@given(batch=dims, seq_len=tiny_len, d_in=dims, d_out=dims)
def test_halving_dtype_doubles_ai(batch, seq_len, d_in, d_out):
    wide = linear_cost(batch, seq_len, d_in, d_out, 4)
    narrow = linear_cost(batch, seq_len, d_in, d_out, 2)
    assert narrow.ai == 2 * wide.ai


def test_elementwise_bytes_examples():
    assert elementwise_bytes(1, 4, 4, 1, 2).bytes == 64
    assert elementwise_bytes(1, 0, 4, 1, 2).bytes == 0
    assert elementwise_bytes(1, 4, 4, 0, 2).bytes == 0
    assert elementwise_bytes(1, 4, 4, 1, 2).flops == 0


def test_kernel_cost_rejects_compute_without_traffic():
    with pytest.raises(ValidationError, match="moves no data"):
        KernelCost(flops=10, bytes=0, label="bad")


def test_kernel_cost_rejects_negative_counts():
    with pytest.raises(ValidationError):
        KernelCost(flops=-1, bytes=4, label="bad")
    with pytest.raises(ValidationError):
        KernelCost(flops=0, bytes=-4, label="bad")


@given(count=st.integers(min_value=1, max_value=9))
def test_scaled_multiplies_both_counts(count):
    base = KernelCost(flops=6, bytes=10, label="k")
    scaled = base.scaled(count)
    assert scaled.flops == 6 * count
    assert scaled.bytes == 10 * count
    assert scaled.ai == base.ai


def test_scaled_rejects_zero_count():
    with pytest.raises(ValidationError, match="count"):
        KernelCost(flops=2, bytes=2, label="k").scaled(0)
