"""Per-phase cost assembly for the three decoding strategies.

A phase is a bag of kernel invocations, kept as breakdown entries whose
number does not grow with gen_len or the block count. Identical invocations
(the same kernel repeated across layers or steps) are aggregated into one
entry, built already scaled by the private kernels' `count` argument; this
is exact for both totals and roofline time because per-kernel time is
homogeneous in (flops, bytes). Kernels whose
shape changes from step to step -- decode attention, whose KV length grows
every step, and the cache-refresh passes, whose extent grows every block --
form one `KernelRun` per kernel kind over a range of consecutive steps or
blocks, labelled with that range (`attention[kv=2049..6144]`,
`refresh0..14:attention`). Their cost is a polynomial of degree <= 2 in the
index, fixed exactly by sampling the kernel functions at up to three
indices; along every run the arithmetic intensity is non-decreasing, which
`roofline.kernel_time` relies on.

Inputs are checked at the JSON boundary (`configs`) and by the public
functions. The public phase functions check their own scalar arguments
(with `configs.require_int`, plus the invariants that involve the model or
several arguments) and then build entries from the unchecked private
kernels of `kernels.py`, so those kernels only ever see the shapes of a
validated model and workload.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import ceil

from .configs import CountingOptions, ModelConfig, require_int
from .errors import ValidationError
from .kernels import KernelCost, KernelRun, _attention, _elementwise, _linear, kernel_run

PHASES = ("arm_prefill", "arm_decode", "dlm_naive", "dlm_block")

# Read+write sweeps over the hidden state charged per layer when
# count_elementwise_bytes is on: two norms and two residual adds.
ELEMENTWISE_PASSES_PER_LAYER = 4

Breakdown = tuple[tuple[str, KernelCost | KernelRun], ...]


@dataclass(frozen=True)
class PhaseCost:
    """Aggregate work of one decoding phase.

    Attributes:
        phase: one of PHASES.
        flops: total FLOPs, always the exact sum over the breakdown.
        bytes: total bytes moved, likewise.
        breakdown: (label, KernelCost | KernelRun) entries; an entry may
            aggregate many invocations.
        steps: number of model forward passes the phase represents.
    """

    phase: str
    flops: int
    bytes: int
    breakdown: Breakdown
    steps: int

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValidationError(f"phase must be one of {PHASES} (got {self.phase!r})")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1 (got {self.steps})")
        flops = moved = 0
        for _, kernel in self.breakdown:
            flops += kernel.flops
            moved += kernel.bytes
        if flops != self.flops or moved != self.bytes:
            raise ValidationError(
                f"phase totals disagree with breakdown "
                f"(flops {self.flops} vs {flops}, bytes {self.bytes} vs {moved})"
            )


def _make_phase(
    phase: str, entries: list[tuple[str, KernelCost | KernelRun]], steps: int
) -> PhaseCost:
    flops = moved = 0
    for _, kernel in entries:
        flops += kernel.flops
        moved += kernel.bytes
    return PhaseCost(phase=phase, flops=flops, bytes=moved, breakdown=tuple(entries), steps=steps)


def arithmetic_intensity(cost: PhaseCost | KernelCost) -> float:
    """FLOP/byte ratio of a phase or kernel."""
    if cost.bytes == 0:
        raise ValidationError("arithmetic intensity undefined for zero bytes")
    return cost.flops / cost.bytes


def _per_layer_core(
    model: ModelConfig,
    batch: int,
    q_len: int,
    dtype_bytes: int,
    opts: CountingOptions,
    count: int,
) -> list[tuple[str, KernelCost]]:
    """Single-layer kernels except attention, for `count` forwards of q_len tokens.

    Projections of the same shape share one KernelCost.
    """
    d = model.d_model
    kv_dim = model.num_kv_heads * model.head_dim
    square = _linear(batch, q_len, d, d, dtype_bytes, count)
    narrow = _linear(batch, q_len, d, kv_dim, dtype_bytes, count)
    up = _linear(batch, q_len, d, model.ffn_dim, dtype_bytes, count)
    entries = [("q_proj", square), ("k_proj", narrow), ("v_proj", narrow), ("out_proj", square)]
    if model.mlp_kind == "swiglu":
        entries.append(("mlp_gate", up))
    entries.append(("mlp_up", up))
    entries.append(("mlp_down", _linear(batch, q_len, model.ffn_dim, d, dtype_bytes, count)))
    if opts.count_elementwise_bytes:
        entries.append(
            (
                "elementwise",
                _elementwise(batch, q_len, d, ELEMENTWISE_PASSES_PER_LAYER, dtype_bytes, count),
            )
        )
    return entries


def _attention_kernel(
    model: ModelConfig,
    batch: int,
    q_len: int,
    kv_len: int,
    dtype_bytes: int,
    causal: bool,
    write_new_kv: bool,
    opts: CountingOptions,
    count: int,
) -> KernelCost:
    # With causal_exact off, causal passes fall back to the full q_len x
    # kv_len rectangle, which is the same pair count as non-causal.
    effective_causal = causal and opts.causal_exact
    return _attention(
        batch,
        model.num_heads,
        model.num_kv_heads,
        model.head_dim,
        q_len,
        kv_len,
        dtype_bytes,
        effective_causal,
        write_new_kv,
        count,
    )


def _forward(
    model: ModelConfig,
    batch: int,
    q_len: int,
    kv_len: int,
    dtype_bytes: int,
    causal: bool,
    write_new_kv: bool,
    opts: CountingOptions,
    count: int,
) -> list[tuple[str, KernelCost]]:
    """Unchecked layer_forward_cost of `count` identical full-model forwards."""
    layers = model.num_layers * count
    entries = _per_layer_core(model, batch, q_len, dtype_bytes, opts, layers)
    attn = _attention_kernel(
        model, batch, q_len, kv_len, dtype_bytes, causal, write_new_kv, opts, layers
    )
    entries.insert(4, ("attention", attn))
    if opts.include_lm_head:
        entries.append(
            ("lm_head", _linear(batch, q_len, model.d_model, model.vocab_size, dtype_bytes, count))
        )
    return entries


def layer_forward_cost(
    model: ModelConfig,
    batch: int,
    q_len: int,
    kv_len: int,
    dtype_bytes: int,
    causal: bool,
    write_new_kv: bool,
    opts: CountingOptions,
) -> list[tuple[str, KernelCost]]:
    """Kernels of one full-model forward over q_len query tokens.

    Returns breakdown entries already scaled by num_layers, plus the LM head
    once when opts.include_lm_head is set.
    """
    require_int("batch", batch, 1)
    require_int("q_len", q_len, 1)
    require_int("kv_len", kv_len, 1)
    require_int("dtype_bytes", dtype_bytes, 1)
    if causal and opts.causal_exact and kv_len < q_len:
        raise ValidationError(
            f"kv_len must be >= q_len for causal attention ({kv_len} < {q_len})"
        )
    return _forward(model, batch, q_len, kv_len, dtype_bytes, causal, write_new_kv, opts, 1)


def _span(first: int, last: int) -> str:
    """Label of the index range first..last, or of the single index."""
    return str(first) if first == last else f"{first}..{last}"


def _ranges(cuts: Iterable[int]) -> list[tuple[int, int]]:
    """Consecutive [start, end) ranges between the sorted cut points."""
    points = sorted(cuts)
    return list(zip(points, points[1:]))


def _runs(
    count: int, step: Callable[[int], list[tuple[str, KernelCost]]]
) -> list[tuple[str, KernelCost | KernelRun]]:
    """One entry per kernel kind over `count` consecutive steps.

    step(i) gives the entries of step i; every kernel's cost must be a
    polynomial of degree <= 2 in i, so min(count, 3) sampled steps fix it.
    """
    samples = [step(i) for i in range(min(count, 3))]
    return [
        (label, kernel_run(count, [entries[n][1] for entries in samples]))
        for n, (label, _) in enumerate(samples[0])
    ]


def _require_causal_capable(model: ModelConfig, phase: str) -> None:
    if model.attention_kind == "bidirectional_only":
        raise ValidationError(
            f"model '{model.name}' has attention_kind bidirectional_only "
            f"and cannot run {phase}"
        )


def _require_request(batch: int, prompt_len: int, gen_len: int, dtype_bytes: int) -> None:
    """Check the arguments the generating phases share."""
    require_int("batch", batch, 1)
    require_int("prompt_len", prompt_len, 0)
    require_int("gen_len", gen_len, 1)
    require_int("dtype_bytes", dtype_bytes, 1)


def arm_prefill_cost(
    model: ModelConfig,
    batch: int,
    prompt_len: int,
    dtype_bytes: int,
    opts: CountingOptions | None = None,
) -> PhaseCost:
    """One causal pass over the prompt, writing the KV cache."""
    opts = opts or CountingOptions()
    _require_causal_capable(model, "arm_prefill")
    require_int("batch", batch, 1)
    require_int("prompt_len", prompt_len, 1)
    require_int("dtype_bytes", dtype_bytes, 1)
    entries = _forward(
        model, batch, prompt_len, prompt_len, dtype_bytes,
        causal=True, write_new_kv=True, opts=opts, count=1,
    )
    return _make_phase("arm_prefill", entries, steps=1)


def arm_decode_cost(
    model: ModelConfig,
    batch: int,
    prompt_len: int,
    gen_len: int,
    dtype_bytes: int,
    opts: CountingOptions | None = None,
) -> PhaseCost:
    """gen_len single-token steps against a growing KV cache.

    Step t processes one query token against prompt_len + t cached
    positions (the new token's KV entry is written during the step).
    Weights are re-read every step, so the per-step linear traffic never
    amortizes. Attention over all steps is one run, affine in the KV length.
    """
    opts = opts or CountingOptions()
    _require_causal_capable(model, "arm_decode")
    _require_request(batch, prompt_len, gen_len, dtype_bytes)
    layers = model.num_layers
    entries = _per_layer_core(model, batch, 1, dtype_bytes, opts, layers * gen_len)
    attn = kernel_run(
        gen_len,
        [
            _attention_kernel(
                model, batch, 1, prompt_len + t, dtype_bytes,
                causal=False, write_new_kv=True, opts=opts, count=layers,
            )
            for t in range(1, min(gen_len, 3) + 1)
        ],
    )
    entries.append((f"attention[kv={_span(prompt_len + 1, prompt_len + gen_len)}]", attn))
    if opts.include_lm_head:
        head = _linear(batch, 1, model.d_model, model.vocab_size, dtype_bytes, gen_len)
        entries.append(("lm_head", head))
    return _make_phase("arm_decode", entries, steps=gen_len)


def naive_dlm_cost(
    model: ModelConfig,
    batch: int,
    prompt_len: int,
    gen_len: int,
    steps: int,
    dtype_bytes: int,
    opts: CountingOptions | None = None,
) -> PhaseCost:
    """steps bidirectional passes over the full prompt+generation sequence.

    No KV cache exists in this mode: every step recomputes attention over
    all prompt_len + gen_len positions and writes nothing back.
    """
    opts = opts or CountingOptions()
    require_int("steps", steps, 1)
    _require_request(batch, prompt_len, gen_len, dtype_bytes)
    total = prompt_len + gen_len
    entries = _forward(
        model, batch, total, total, dtype_bytes,
        causal=False, write_new_kv=False, opts=opts, count=steps,
    )
    return _make_phase("dlm_naive", entries, steps=steps)


def blockwise_dlm_cost(
    model: ModelConfig,
    batch: int,
    prompt_len: int,
    gen_len: int,
    steps: int,
    block_size: int,
    dtype_bytes: int,
    opts: CountingOptions | None = None,
    full_kv: bool = False,
) -> PhaseCost:
    """Semi-autoregressive diffusion decoding over cached earlier blocks.

    The generation is split into ceil(gen_len / block_size) blocks decoded
    left to right; the step budget is spread as evenly as possible, with the
    first (steps mod blocks) blocks taking one extra step. A refinement step
    of block j processes its tokens as queries against the prompt, the
    finished blocks, and the block itself. `full_kv=True` instead charges
    attention against the full prompt+generation length every step (the
    suffix of still-masked blocks is treated as cached too), which is the
    convention the asymptotic counts assume.

    With opts.include_cache_refresh, one full bidirectional pass over
    everything decoded so far is added after each block to rebuild the
    cache; that pass is the only KV write in this mode.

    Consecutive blocks with the same width and step count share one entry
    per kernel kind (`block0..14:q_proj`), as do consecutive refresh passes
    (`refresh0..14:attention`).
    """
    opts = opts or CountingOptions()
    _require_request(batch, prompt_len, gen_len, dtype_bytes)
    require_int("block_size", block_size, 1)
    require_int("steps", steps, 1)
    if block_size > gen_len:
        raise ValidationError(
            f"block size exceeds generation length (block_size {block_size} > gen_len {gen_len})"
        )
    num_blocks = ceil(gen_len / block_size)
    if steps < num_blocks:
        raise ValidationError(
            f"fewer steps than blocks ({steps} < {num_blocks}); "
            "every block needs at least one refinement step"
        )
    steps_per_block, extra = divmod(steps, num_blocks)
    # Only the last block can be narrower than block_size, and blocks before
    # `extra` take one step more: so the blocks fall into at most three runs
    # that share width and step count, and the refresh passes into at most
    # two whose extent grows by block_size per block.
    width_cuts = {0, num_blocks}
    if gen_len % block_size:
        width_cuts.add(num_blocks - 1)
    layers = model.num_layers
    entries: list[tuple[str, KernelCost | KernelRun]] = []
    for first, end in _ranges(width_cuts | {extra}):
        count = end - first
        width = min(block_size, gen_len - first * block_size)
        block_steps = steps_per_block + (1 if first < extra else 0)
        tag = f"block{_span(first, end - 1)}"

        def kv_len(j: int) -> int:
            return prompt_len + gen_len if full_kv else prompt_len + j * block_size + width

        for label, kernel in _per_layer_core(
            model, batch, width, dtype_bytes, opts, layers * block_steps * count
        ):
            entries.append((f"{tag}:{label}", kernel))
        attn = kernel_run(
            count,
            [
                _attention_kernel(
                    model, batch, width, kv_len(j), dtype_bytes,
                    causal=False, write_new_kv=False, opts=opts, count=layers * block_steps,
                )
                for j in range(first, min(end, first + 3))
            ],
        )
        entries.append((f"{tag}:attention[kv={_span(kv_len(first), kv_len(end - 1))}]", attn))
        if opts.include_lm_head:
            head = _linear(
                batch, width, model.d_model, model.vocab_size, dtype_bytes, block_steps * count
            )
            entries.append((f"{tag}:lm_head", head))
    total_steps = steps
    if opts.include_cache_refresh:
        for first, end in _ranges(width_cuts):

            def refresh(i: int) -> list[tuple[str, KernelCost]]:
                covered = prompt_len + min((first + i + 1) * block_size, gen_len)
                return _forward(
                    model, batch, covered, covered, dtype_bytes,
                    causal=False, write_new_kv=True, opts=opts, count=1,
                )

            tag = f"refresh{_span(first, end - 1)}"
            entries.extend((f"{tag}:{label}", run) for label, run in _runs(end - first, refresh))
        total_steps += num_blocks
    return _make_phase("dlm_block", entries, steps=total_steps)
