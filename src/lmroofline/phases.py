"""Per-phase cost assembly for the three decoding strategies.

Every phase is a run of full-model forwards, and `layer_forward_cost` is the
one builder of their kernels: forward i of a run processes q_len + i * q_step
query tokens against kv_len + i * kv_step keys, repeated `count` times. A
phase's breakdown entries therefore do not grow with gen_len or the block
count. A kernel whose shape is the same in every forward of the run is one
KernelCost built with its whole invocation count, which is exact for both
totals and roofline time because per-kernel time is homogeneous in
(flops, bytes). Only a kernel whose shape changes along a run of two or
more forwards is a `KernelRun`: its cost is a polynomial of degree <= 2 in
the forward index, fixed exactly by sampling its kernel function at
degree + 1 forwards (2 where the cost is affine, 3 where it is quadratic),
and its arithmetic intensity is non-decreasing along the run, which
`roofline.kernel_time` relies on. The first sample is the kernel a constant
forward would build, so both kinds of entry come from one list.

Entries come in one order: q_proj, k_proj, v_proj, out_proj, attention,
mlp_gate (swiglu only), mlp_up, mlp_down, elementwise, lm_head; entries of
equal cost by construction share one kernel (see `layer_forward_cost`). The
block-wise phase tags them with the range of blocks or refresh passes a run
covers (`block0..14:q_proj`, `refresh1:attention`).

Each phase function takes a Scenario of its mode and passes it to
`layer_forward_cost` with the shapes of its forwards; the builder reads the
model, batch, dtype_bytes and counting options from it. A Scenario is valid
once built, so nothing here checks its numbers again;
`roofline.scenario_phases` picks the phase functions a scenario's mode runs.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import partialmethod

from .configs import Scenario
from .errors import ValidationError
from .kernels import (
    KernelCost,
    KernelRun,
    attention_cost,
    elementwise_bytes,
    kernel_run,
    linear_cost,
)

PHASES = ("arm_prefill", "arm_decode", "dlm_naive", "dlm_block")

# Read+write sweeps over the hidden state charged per layer when
# count_elementwise_bytes is on: two norms and two residual adds.
ELEMENTWISE_PASSES_PER_LAYER = 4

Breakdown = tuple[tuple[str, KernelCost | KernelRun], ...]


class PhaseCost(namedtuple("PhaseCost", ("phase", "breakdown", "flops", "bytes"))):
    """Aggregate work of one decoding phase.

    Built as PhaseCost(phase, breakdown); the totals are derived, and a copy
    or a pickle rebuilds a phase from its first two fields.

    Attributes:
        phase (str): one of PHASES.
        breakdown (Breakdown): (label, KernelCost | KernelRun) entries; an
            entry may aggregate many invocations.
        flops (int): total FLOPs, summed over the breakdown when built.
        bytes (int): total bytes moved, likewise.
    """

    __slots__ = ()
    __getnewargs__ = partialmethod(operator.getitem, slice(2))

    def __new__(cls, phase: str, breakdown: Breakdown) -> "PhaseCost":
        if phase not in PHASES:
            raise ValidationError(f"phase must be one of {PHASES} (got {phase!r})")
        flops = moved = 0
        for _, kernel in breakdown:
            flops += kernel.flops
            moved += kernel.bytes
        return tuple.__new__(cls, (phase, breakdown, flops, moved))


def arithmetic_intensity(cost: PhaseCost | KernelCost | KernelRun) -> float:
    """FLOP/byte ratio of anything with `flops` and `bytes` totals: a kernel,
    a run, a phase, or a roofline.ScenarioResult."""
    moved = cost.bytes
    if moved == 0:
        raise ValidationError("arithmetic intensity undefined for zero bytes")
    return cost.flops / moved


def layer_forward_cost(
    scenario: Scenario,
    q_len: int,
    kv_len: int,
    causal: bool,
    write_new_kv: bool,
    count: int = 1,
    run: int = 1,
    q_step: int = 0,
    kv_step: int = 0,
) -> list[tuple[str, KernelCost | KernelRun]]:
    """Kernels of `run` consecutive full-model forwards, each repeated `count` times.

    Forward i (0 <= i < run) runs q_len + i * q_step query tokens against
    kv_len + i * kv_step keys; the model, batch, dtype_bytes and counting
    options are the scenario's. Returns one entry per kernel kind in the
    module's entry order, already scaled by num_layers, plus the LM head
    once per forward when include_lm_head is set.

    A kernel that changes along a run of two or more forwards is sampled at
    degree + 1 of them, each distinct kernel directly, and kernel_run takes
    its Newton form from the samples. With q_step set, every kernel changes:
    the linear, elementwise and lm_head kernels are affine in the token
    count (2 forwards), and attention, whose queries and keys grow together,
    is quadratic (3, or 2 in a run of 2). With only kv_step set, attention
    alone changes, and is affine in its KV length (2). Each distinct linear
    kernel is built once, one KernelCost in a constant forward and one
    KernelRun in a run, and shared by the entries it costs: q_proj and
    out_proj; k_proj and v_proj, which are q_proj's kernel under multi-head
    attention (kv_width == d_model); and mlp_gate, mlp_up and mlp_down, as
    linear_cost is symmetric in (d_in, d_out). roofline.phase_latency does
    not time again the same kernel object as the one before it.
    """
    # Loops rather than comprehensions: a comprehension would turn every local
    # it reads into a cell, which every call pays for, on the constant path too.
    model, w = scenario.model, scenario.workload
    batch, dtype, opts = w.batch, w.dtype_bytes, w.options
    d, ffn = model.d_model, model.ffn_dim
    heads, kv_heads, head_dim = model.num_heads, model.num_kv_heads, model.head_dim
    kv_width = kv_heads * head_dim
    # With causal_exact off, causal passes fall back to the full q_len x
    # kv_len rectangle, which is the same pair count as non-causal.
    causal = causal and opts.causal_exact
    # With the tokens growing along the run, every kernel is a run sampled
    # per forward; otherwise every kernel but a growing attention is one
    # KernelCost over all the run's forwards.
    grows = q_step and run > 1
    forwards = count if grows else count * run
    per_layer = forwards * model.num_layers
    mha = kv_width == d
    square = linear_cost(batch, q_len, d, d, dtype, per_layer)
    narrow = square if mha else linear_cost(batch, q_len, d, kv_width, dtype, per_layer)
    up = linear_cost(batch, q_len, d, ffn, dtype, per_layer)
    if grows:
        # A linear kernel is affine in its token count: the next forward fixes its run.
        nxt = q_len + q_step
        square = kernel_run(run, (square, linear_cost(batch, nxt, d, d, dtype, per_layer)))
        narrow = square if mha else kernel_run(
            run, (narrow, linear_cost(batch, nxt, d, kv_width, dtype, per_layer)))
        up = kernel_run(run, (up, linear_cost(batch, nxt, d, ffn, dtype, per_layer)))
    if (q_step or kv_step) and run > 1:
        # Attention is affine in its KV length alone, and quadratic when its
        # queries grow too: then a run of three or more takes a third forward.
        samples = []
        for i in range(3 if q_step and run > 2 else 2):
            samples.append(attention_cost(
                batch, heads, kv_heads, head_dim, q_len + i * q_step, kv_len + i * kv_step, dtype,
                causal, write_new_kv, count * model.num_layers,
            ))
        attention = kernel_run(run, samples)
    else:
        attention = attention_cost(batch, heads, kv_heads, head_dim, q_len, kv_len,
                                   dtype, causal, write_new_kv, per_layer)
    entries = [
        ("q_proj", square), ("k_proj", narrow), ("v_proj", narrow), ("out_proj", square),
        ("attention", attention),
    ]
    if model.mlp_kind == "swiglu":
        entries.append(("mlp_gate", up))
    entries += [("mlp_up", up), ("mlp_down", up)]
    if opts.count_elementwise_bytes:
        passes = ELEMENTWISE_PASSES_PER_LAYER
        sweeps = elementwise_bytes(batch, q_len, d, passes, dtype, per_layer)
        if grows:
            after = elementwise_bytes(batch, nxt, d, passes, dtype, per_layer)
            sweeps = kernel_run(run, (sweeps, after))
        entries.append(("elementwise", sweeps))
    if opts.include_lm_head:
        vocab = model.vocab_size
        head = linear_cost(batch, q_len, d, vocab, dtype, forwards)
        if grows:
            head = kernel_run(run, (head, linear_cost(batch, nxt, d, vocab, dtype, forwards)))
        entries.append(("lm_head", head))
    return entries


def _span(first: int, last: int) -> str:
    """Label of the index range first..last, or of the single index."""
    return str(first) if first == last else f"{first}..{last}"


def arm_prefill_cost(scenario: Scenario) -> PhaseCost:
    """One causal pass over the prompt, writing the KV cache.

    An arm scenario with an empty prompt has no prefill phase, and
    scenario_phases does not call this for it.
    """
    prompt_len = scenario.workload.prompt_len
    entries = layer_forward_cost(scenario, prompt_len, prompt_len, causal=True, write_new_kv=True)
    return PhaseCost("arm_prefill", tuple(entries))


def arm_decode_cost(scenario: Scenario) -> PhaseCost:
    """gen_len single-token steps against a growing KV cache.

    Step t processes one query token against prompt_len + t cached
    positions (the new token's KV entry is written during the step).
    Weights are re-read every step, so the per-step linear traffic never
    amortizes. Attention over all steps is one run, affine in the KV length.
    """
    w = scenario.workload
    entries = layer_forward_cost(
        scenario, 1, w.prompt_len + 1, causal=False, write_new_kv=True, run=w.gen_len, kv_step=1,
    )
    return PhaseCost("arm_decode", tuple(entries))


def naive_dlm_cost(scenario: Scenario) -> PhaseCost:
    """steps bidirectional passes over the full prompt+generation sequence.

    No KV cache exists in this mode: every step recomputes attention over
    all prompt_len + gen_len positions and writes nothing back.
    """
    w = scenario.workload
    total = w.total_len
    entries = layer_forward_cost(
        scenario, total, total, causal=False, write_new_kv=False, count=w.steps,
    )
    return PhaseCost("dlm_naive", tuple(entries))


def blockwise_dlm_cost(scenario: Scenario) -> PhaseCost:
    """Semi-autoregressive diffusion decoding over cached earlier blocks.

    The generation is split into ceil(gen_len / block_size) blocks decoded
    left to right; the step budget is spread as evenly as possible, with the
    first (steps mod blocks) blocks taking one extra step. A refinement step
    of block j processes its tokens as queries against the prompt, the
    finished blocks, and the block itself. opts.full_kv_each_step instead
    charges attention against the full prompt+generation length every step
    (the suffix of still-masked blocks is treated as cached too), which is
    the convention the asymptotic counts assume.

    With opts.include_cache_refresh, one full bidirectional pass over
    everything decoded so far is added after each block to rebuild the
    cache; that pass is the only KV write in this mode.

    Consecutive blocks with the same width and step count form one run of
    forwards (`block0..14:q_proj`), as do consecutive refresh passes over
    full-width blocks (`refresh0..14:attention`).
    """
    w = scenario.workload
    prompt_len, gen_len, block_size, opts = w.prompt_len, w.gen_len, w.block_size, w.options
    num_blocks = -(-gen_len // block_size)
    steps_per_block, extra = divmod(w.steps, num_blocks)
    # Only the last block can be narrower than block_size, and blocks before
    # `extra` take one step more: so the blocks fall into at most three runs
    # that share width and step count, and the refresh passes into at most
    # two whose extent grows by block_size per block.
    full_width = num_blocks - (1 if gen_len % block_size else 0)
    full_kv = opts.full_kv_each_step
    entries: list[tuple[str, KernelCost | KernelRun]] = []
    cuts = sorted({0, extra, full_width, num_blocks})
    for first, end in zip(cuts, cuts[1:]):
        width = min(block_size, gen_len - first * block_size)
        kv_len = prompt_len + (gen_len if full_kv else first * block_size + width)
        tag = f"block{_span(first, end - 1)}:"
        entries += [
            (tag + label, kernel)
            for label, kernel in layer_forward_cost(
                scenario, width, kv_len, causal=False, write_new_kv=False,
                count=steps_per_block + (1 if first < extra else 0),
                run=end - first, kv_step=0 if full_kv else block_size,
            )
        ]
    if opts.include_cache_refresh:
        cuts = sorted({0, full_width, num_blocks})
        for first, end in zip(cuts, cuts[1:]):
            covered = prompt_len + min((first + 1) * block_size, gen_len)
            tag = f"refresh{_span(first, end - 1)}:"
            entries += [
                (tag + label, kernel)
                for label, kernel in layer_forward_cost(
                    scenario, covered, covered, causal=False, write_new_kv=True,
                    run=end - first, q_step=block_size, kv_step=block_size,
                )
            ]
    return PhaseCost("dlm_block", tuple(entries))
