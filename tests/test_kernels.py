"""Kernel-level FLOP and byte counting, checked against the loop oracles.

The kernel functions take plain integers and do not check them. The
rejection tests below show that every bad value a kernel could be given is
rejected where it enters: by ModelConfig, or when the Scenario is built.
"""

import copy
import importlib
import pickle
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import TINY, patch_everywhere, scenario
import lmroofline
from lmroofline import (
    CountingOptions,
    KernelCost,
    KernelRun,
    ModelConfig,
    ValidationError,
    arithmetic_intensity,
    end_to_end,
    peak_footprint,
    scenario_phases,
)
from lmroofline.kernels import (
    attention_cost,
    attention_pair_count,
    elementwise_bytes,
    kernel_run,
    linear_cost,
)

dims = st.integers(min_value=1, max_value=6)
tiny_len = st.integers(min_value=1, max_value=6)
dtypes = st.sampled_from([1, 2, 4])


def test_linear_small_example_matches_loop_oracle():
    cost = linear_cost(batch=1, seq_len=2, d_in=4, d_out=4, dtype_bytes=2)
    assert cost.flops == oracles.linear_flops_loops(1, 2, 4, 4) == 64
    assert cost.bytes == oracles.linear_bytes_loops(1, 2, 4, 4, 2) == 64
    assert arithmetic_intensity(cost) == 1.0


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


widths = st.integers(min_value=1, max_value=2**40)


@given(batch=widths, seq_len=widths, d_in=widths, d_out=widths, dtype_bytes=dtypes, count=widths)
def test_linear_cost_is_symmetric_in_its_widths(batch, seq_len, d_in, d_out, dtype_bytes, count):
    """linear_cost(b, s, i, o, dt, n) == linear_cost(b, s, o, i, dt, n), in exact ints.

    phases.layer_forward_cost relies on it: it builds mlp_up's kernel
    (d_model -> ffn_dim) once and shares that object as mlp_down's
    (ffn_dim -> d_model), on the constant path and in a growing run alike.
    """
    forward = linear_cost(batch, seq_len, d_in, d_out, dtype_bytes, count)
    backward = linear_cost(batch, seq_len, d_out, d_in, dtype_bytes, count)
    assert [type(value) for value in forward + backward] == [int] * 4
    assert forward == backward


# Where each linear_cost argument comes from: a workload field, or a model
# field (d_in and d_out are d_model, ffn_dim or vocab_size).
LINEAR_ARGUMENT_SOURCES = {
    "batch": ("workload", "batch"),
    "seq_len": ("workload", "gen_len"),
    "d_in": ("model", "d_model"),
    "d_out": ("model", "ffn_dim"),
    "dtype_bytes": ("workload", "dtype_bytes"),
}


@pytest.mark.parametrize("bad", [0, -1, True, 2.0])
@pytest.mark.parametrize("field", ["batch", "seq_len", "d_in", "d_out", "dtype_bytes"])
def test_linear_rejects_nonpositive_arguments(field, bad):
    source, name = LINEAR_ARGUMENT_SOURCES[field]
    with pytest.raises(ValidationError, match=name):
        if source == "model":
            ModelConfig(**{**TINY._asdict(), name: bad})
        else:
            scenario(TINY, "arm", **{"batch": 1, "prompt_len": 2, "gen_len": 2, name: bad})


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
    # An attention query length is the prompt (arm prefill, which an empty
    # prompt skips), one token (decode), the whole sequence (dlm_naive) or a
    # block: a zero generation or block is rejected when the Scenario is built.
    with pytest.raises(ValidationError, match="gen_len"):
        scenario(TINY, "dlm_naive", 1, 8, 0, steps=1)
    with pytest.raises(ValidationError, match="block_size"):
        scenario(TINY, "dlm_block", 1, 8, 8, steps=8, block_size=0)


def test_attention_rejects_causal_query_longer_than_keys(monkeypatch):
    # Only arm prefill attends causally, and it attends over exactly its own
    # queries, so no scenario can ask for more causal queries than keys.
    calls = []

    def recording(*args):
        calls.append(args)
        return attention_cost(*args)

    patch_everywhere(monkeypatch, attention_cost, recording)
    for prompt_len in (1, 2, 7):
        calls.clear()
        scenario_phases(scenario(TINY, "arm", 1, prompt_len, 3))
        causal = [(args[4], args[5]) for args in calls if args[7]]  # (q_len, kv_len)
        assert causal == [(prompt_len, prompt_len)]


def test_attention_rejects_more_kv_heads_than_heads():
    with pytest.raises(ValidationError, match="num_kv_heads"):
        ModelConfig(**{**TINY._asdict(), "num_kv_heads": 4 * TINY.num_heads})


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
    assert arithmetic_intensity(narrow) == 2 * arithmetic_intensity(wide)


def test_elementwise_bytes_examples():
    assert elementwise_bytes(1, 4, 4, 1, 2).bytes == 64
    assert elementwise_bytes(1, 0, 4, 1, 2).bytes == 0
    assert elementwise_bytes(1, 4, 4, 0, 2).bytes == 0
    assert elementwise_bytes(1, 4, 4, 1, 2).flops == 0


def test_kernel_cost_rejects_compute_without_traffic():
    with pytest.raises(ValidationError, match="moves no data"):
        KernelCost(flops=10, bytes=0)


def test_kernel_cost_rejects_negative_counts():
    with pytest.raises(ValidationError):
        KernelCost(flops=-1, bytes=4)
    with pytest.raises(ValidationError):
        KernelCost(flops=0, bytes=-4)


# A Newton form's value at 0 and its first and second differences.
newton_forms = st.tuples(*[st.integers(min_value=0, max_value=2**90)] * 3)


@given(
    count=st.integers(min_value=2, max_value=60),
    newton_flops=newton_forms,
    newton_bytes=newton_forms,
    degree=st.sampled_from([1, 2]),
)
def test_a_run_is_the_closed_form_sum_of_its_invocations(
    count, newton_flops, newton_bytes, degree
):
    """A run's totals are the sum of at(i) over its invocations, prefix(k)
    the sum over the first k for every k from 0 to count, and kernel_run
    through the run's first degree + 1 invocations gives back the same run.

    The totals and prefixes are the closed form k * v0 + C(k, 2) * v1 +
    C(k, 3) * v2, checked here against a running sum of the invocations.
    The values reach 2**90, far past the integers a float holds exactly, so
    a slip of one in any binomial shows."""
    if degree == 1:  # an affine run: kernel_run's 2 samples fix it
        newton_flops, newton_bytes = (*newton_flops[:2], 0), (*newton_bytes[:2], 0)
    newton_bytes = (newton_bytes[0] + 1, *newton_bytes[1:])  # a kernel moves data
    run = KernelRun(count, newton_flops, newton_bytes)
    sums = [(0, 0)]
    for i in range(count):
        flops, moved = run.at(i)
        sums.append((sums[-1][0] + flops, sums[-1][1] + moved))
    assert (run.flops, run.bytes) == sums[-1]
    assert [run.prefix(k) for k in range(count + 1)] == sums
    samples = [KernelCost(*run.at(i)) for i in range(degree + 1)]
    assert kernel_run(count, samples) == run
    assert [run.at(i) for i in range(degree + 1)] == samples


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("mode", ["arm", "dlm_naive", "dlm_block"])
def test_a_copied_or_pickled_result_equals_the_original(mode, how):
    """copy.copy, copy.deepcopy and a pickle round trip of a ScenarioResult,
    of each of its phases and of each of their kernels give back an equal
    value of the same type. A PhaseCost or KernelRun derives its totals in
    __new__, so it must be rebuilt from its constructor's inputs alone:
    namedtuple's own __getnewargs__ passes every field, which __new__
    rejects. The arm scenario has a decode run, and the block-wise one
    refreshes its cache, so every kernel of its refresh passes is a run."""
    opts = CountingOptions(
        include_lm_head=True, include_cache_refresh=True, count_elementwise_bytes=True,
    )
    point = {
        "arm": scenario(TINY, "arm", 2, 4, 8, opts=opts),
        "dlm_naive": scenario(TINY, "dlm_naive", 2, 4, 8, 8, opts=opts),
        "dlm_block": scenario(TINY, "dlm_block", 2, 4, 9, 6, 2, opts=opts),
    }[mode]
    result = end_to_end(point)
    kernels = [kernel for phase in result.phases for _, kernel in phase.breakdown]
    assert any(isinstance(kernel, KernelRun) for kernel in kernels) == (mode != "dlm_naive")
    for value in (result, *result.phases, *kernels):
        copied = ROUND_TRIPS[how](value)
        assert copied == value
        assert type(copied) is type(value)
    assert ROUND_TRIPS[how](result).points == result.points


def per_point_values():
    """One instance of each value type a grid point builds."""
    point = scenario(TINY, "arm", 1, 4, 8)
    result = end_to_end(point)
    decode = result.phases[1]
    return {
        "KernelCost": KernelCost(flops=6, bytes=10),
        "KernelRun": next(k for _, k in decode.breakdown if isinstance(k, KernelRun)),
        "PhaseCost": decode,
        "ScenarioResult": result,
        "RooflinePoint": result.points[0],
        "MemoryFootprint": peak_footprint(point),
    }


@pytest.mark.parametrize("kind", sorted(per_point_values()))
def test_per_point_values_are_immutable(kind):
    value = per_point_values()[kind]
    assert type(value).__name__ == kind
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 0


# Every tuple-based record the package defines, by module.
RECORDS = {
    "configs": {"ModelConfig", "HardwareSpec", "CountingOptions", "WorkloadSpec", "Scenario"},
    "kernels": {"KernelCost", "KernelRun"},
    "phases": {"PhaseCost"},
    "roofline": {"RooflinePoint", "ScenarioResult"},
    "memory": {"MemoryFootprint"},
    "sweep": {"SweepGrid"},
}


def test_every_record_defines_empty_slots_itself():
    """A subclass without its own `__slots__ = ()` gives every instance a
    __dict__, though its namedtuple base has none, and nothing else fails."""
    found = {}
    for path in sorted(Path(lmroofline.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"lmroofline.{path.stem}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and value.__module__ == module.__name__):
                assert value.__dict__.get("__slots__") == (), f"{path.stem}.{name}"
                found.setdefault(path.stem, set()).add(name)
    assert found == RECORDS
