"""FLOP and byte counting for the primitive kernels of a transformer forward pass.

Counting conventions, applied uniformly everywhere:

* one multiply-accumulate is 2 FLOPs;
* only GEMM work is counted as FLOPs -- softmax, normalisation and
  activation functions are excluded;
* each operand of a kernel invocation moves exactly once (ideal caching):
  weight matrix, input activations and output activations for a linear
  layer; Q, K, V and the attention output for attention;
* the attention score/probability matrix stays on chip (fused kernel), so
  no q_len x kv_len byte term appears.

All counts are exact Python integers.

The kernel functions take plain integers and do not check them: phase
assembly calls them only with the shapes of a Scenario, which was validated
when it was built (`configs`). Each takes a `count`, the one way to
aggregate that many identical invocations in one step.

KernelCost and KernelRun are namedtuple records, for the reason the
`configs` docstring gives, and run their checks and derived fields in __new__.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence
from functools import partialmethod
from math import comb

from .errors import ValidationError


class KernelCost(namedtuple("KernelCost", ("flops", "bytes"))):
    """Work and traffic of one kernel invocation, or of `n` identical ones.

    Attributes:
        flops (int): floating point operations performed.
        bytes (int): bytes moved between HBM and the compute units.
    """

    __slots__ = ()

    def __new__(cls, flops: int, bytes: int) -> "KernelCost":
        if flops < 0 or bytes <= 0:
            if flops < 0 or bytes < 0:
                raise ValidationError(
                    f"kernel cost must be nonnegative (flops={flops}, bytes={bytes})"
                )
            if flops > 0:
                raise ValidationError(f"kernel computes but moves no data (flops={flops})")
        return tuple.__new__(cls, (flops, bytes))


class KernelRun(namedtuple("KernelRun", (
        "count", "newton_flops", "newton_bytes", "flops", "bytes"))):
    """`count` consecutive invocations whose cost is a polynomial of degree <= 2
    in the invocation index.

    Stored in exact-integer Newton form: invocation i (0 <= i < count) costs
    flops[0] + i * flops[1] + C(i, 2) * flops[2] FLOPs, and likewise for
    bytes. Built as KernelRun(count, newton_flops, newton_bytes): the
    constructor stores the run's exact totals as `flops` and `bytes`, the
    closed-form sum count * v[0] + C(count, 2) * v[1] + C(count, 3) * v[2],
    so a run stands wherever a KernelCost's totals are summed, and a read of
    them costs nothing. A copy or a pickle rebuilds a run from its first
    three fields.

    Attributes:
        count (int): number of invocations, at least 2 (see kernel_run).
        newton_flops (tuple[int, int, int]): value at 0, first and second differences.
        newton_bytes (tuple[int, int, int]): likewise for bytes moved.
        flops (int): total FLOPs, prefix(count)[0].
        bytes (int): total bytes moved, prefix(count)[1].
    """

    __slots__ = ()
    __getnewargs__ = partialmethod(operator.getitem, slice(3))

    def __new__(
        cls, count: int, newton_flops: tuple[int, int, int], newton_bytes: tuple[int, int, int]
    ) -> "KernelRun":
        pairs, triples = comb(count, 2), comb(count, 3)
        f0, f1, f2 = newton_flops
        b0, b1, b2 = newton_bytes
        return tuple.__new__(cls, (
            count, newton_flops, newton_bytes,
            count * f0 + pairs * f1 + triples * f2, count * b0 + pairs * b1 + triples * b2,
        ))

    def at(self, i: int) -> tuple[int, int]:
        """(flops, bytes) of invocation i."""
        pairs = comb(i, 2)
        f0, f1, f2 = self.newton_flops
        b0, b1, b2 = self.newton_bytes
        return f0 + i * f1 + pairs * f2, b0 + i * b1 + pairs * b2

    def prefix(self, k: int) -> tuple[int, int]:
        """(flops, bytes) summed over invocations 0 .. k-1."""
        return KernelRun(k, self.newton_flops, self.newton_bytes)[3:]


def kernel_run(count: int, samples: Sequence[KernelCost]) -> KernelRun:
    """The run of `count` >= 2 invocations whose first 2 or 3 are `samples`.

    Exact when the cost is a polynomial in the index of degree at most
    len(samples) - 1: 2 samples fix an affine cost, whose Newton form gets a
    zero second difference, and 3 a quadratic one. The differences are
    taken from the samples in place. Phase assembly passes degree + 1
    samples, at most `count`, and calls this only where a shape grows along
    the run, so the samples differ; identical invocations are aggregated by
    the kernel functions' `count` instead.
    """
    f0, b0 = samples[0]
    f1, b1 = samples[1]
    f1, b1 = f1 - f0, b1 - b0
    f2 = b2 = 0
    if len(samples) == 3:
        f2, b2 = samples[2]
        f2, b2 = f2 - f0 - 2 * f1, b2 - b0 - 2 * b1
    return KernelRun(count, (f0, f1, f2), (b0, b1, b2))


def linear_cost(
    batch: int, seq_len: int, d_in: int, d_out: int, dtype_bytes: int, count: int = 1
) -> KernelCost:
    """Cost of `count` GEMMs x[batch*seq_len, d_in] @ W[d_in, d_out].

    The weight matrix is charged once per invocation, which is what makes a
    one-token decode step weight-traffic dominated.
    """
    tokens = batch * seq_len
    return KernelCost(
        2 * tokens * d_in * d_out * count,
        dtype_bytes * (d_in * d_out + tokens * d_in + tokens * d_out) * count,
    )


def attention_pair_count(q_len: int, kv_len: int, causal: bool) -> int:
    """Number of query/key pairs scored.

    Causal counting places the q_len queries at the end of the kv_len key
    range: query i (0-based) sees the first kv_len - q_len + i + 1 keys.
    """
    if not causal:
        return q_len * kv_len
    return q_len * (kv_len - q_len) + q_len * (q_len + 1) // 2


def attention_cost(
    batch: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
    q_len: int,
    kv_len: int,
    dtype_bytes: int,
    causal: bool,
    write_new_kv: bool,
    count: int = 1,
) -> KernelCost:
    """Cost of `count` fused attention invocations.

    FLOPs cover the QK^T and PV GEMMs (2 FLOPs per multiply-add each).
    Bytes cover reading K and V (num_kv_heads wide under grouped-query
    attention), reading Q, writing the output, and optionally appending the
    q_len new positions to the KV cache.
    """
    flops = 2 * batch * num_heads * head_dim * attention_pair_count(q_len, kv_len, causal) * 2
    kv_read = 2 * batch * num_kv_heads * kv_len * head_dim
    q_read = batch * num_heads * q_len * head_dim
    out_write = batch * num_heads * q_len * head_dim
    kv_write = 2 * batch * num_kv_heads * q_len * head_dim if write_new_kv else 0
    moved = dtype_bytes * (kv_read + q_read + out_write + kv_write)
    return KernelCost(flops * count, moved * count)


def elementwise_bytes(
    batch: int, seq_len: int, width: int, passes: int, dtype_bytes: int, count: int = 1
) -> KernelCost:
    """Traffic of `passes` read+write sweeps over a [batch, seq_len, width] tensor, `count` times.

    Elementwise work (residual adds, norms) contributes no GEMM FLOPs under
    the conventions above, so flops is zero. Zero-sized arguments yield a
    zero cost.
    """
    return KernelCost(0, passes * 2 * batch * seq_len * width * dtype_bytes * count)
