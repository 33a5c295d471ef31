"""Brute-force cost oracles used to pin down expected values independently,
and the small helpers the tests share.

Everything in this module recomputes counts the slow, obvious way: explicit
loops over tensor elements, or sums over enumerated matrix shapes.  Nothing
here calls into lmroofline's arithmetic, so agreement between the two is
evidence rather than tautology -- except the phase loops at the end, which
assemble a phase one model forward at a time from `layer_forward_cost`
(itself pinned down by the loop oracles above) and are the reference for the
closed-form run assembly in phases.py.  These oracles are only meant for the
small shapes used in the tests; they make no attempt to be fast.

`scenario` builds the validated Scenario the phase functions and loops take,
`one_case_grid` the grid of one model and base workload, `patch_everywhere`
replaces a function under every name the package binds it to, `parse_csv`
reads a sweep CSV back for the tests of the CSV contract, `csv_text`
renders rows to the text `emit_csv` writes, `loglog_slope` fits the
scaling exponents the acceptance checks read, and `nested_list` and
`recursion_depth` find where the running interpreter stops recursing into a
nested value.
"""

from __future__ import annotations

import math
import statistics
import sys

from lmroofline import (
    HW_REGISTRY,
    CountingOptions,
    HardwareSpec,
    ModelConfig,
    Scenario,
    SweepGrid,
    SweepRow,
    ValidationError,
    WorkloadSpec,
)
from lmroofline.kernels import KernelCost
from lmroofline.phases import layer_forward_cost
from lmroofline.sweep import CSV_HEADER, row_to_csv

# A synthetic shape small enough for the brute-force loops below.
TINY = ModelConfig(
    name="tiny-test",
    num_layers=1,
    d_model=4,
    num_heads=1,
    num_kv_heads=1,
    head_dim=4,
    ffn_dim=8,
    vocab_size=16,
    mlp_kind="swiglu",
    attention_kind="causal_capable",
)


def scenario(
    model: ModelConfig,
    mode: str,
    batch: int,
    prompt_len: int,
    gen_len: int,
    steps: int | None = None,
    block_size: int | None = None,
    dtype_bytes: int = 2,
    opts: CountingOptions | None = None,
) -> Scenario:
    """A Scenario of `model` on rtx-a6000; the arguments follow WorkloadSpec."""
    workload = WorkloadSpec(
        mode, batch, prompt_len, gen_len, steps, block_size, dtype_bytes,
        opts or CountingOptions(),
    )
    return Scenario(model, HW_REGISTRY["rtx-a6000"], workload)


def one_case_grid(model: ModelConfig, hardware: HardwareSpec, base: WorkloadSpec,
                  axes: tuple) -> SweepGrid:
    """The grid of one case, named "" as a grid document without cases names it."""
    return SweepGrid(hardware, axes, (("", model, base),))


def patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` under every name any lmroofline module binds it to."""
    for name, module in list(sys.modules.items()):
        if name == "lmroofline" or name.startswith("lmroofline."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


class Unspellable(dict):
    """A value that repr and the JSON encoder both give up on with
    RecursionError, as they do on a list nested past their depth limit, on
    every interpreter. Give it an item: the encoder spells an empty dict
    without asking for its items."""

    def __repr__(self):
        raise RecursionError

    def items(self):
        raise RecursionError


def nested_list(depth: int) -> list:
    """An empty list nested `depth` lists deep."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def recursion_depth(spell) -> int | None:
    """The least depth at which spell(depth) raises RecursionError, or None
    where no depth it probes up to 100,000 raises.

    The depth is probed from the caller's stack: doubled from 1,000, then
    bisected, as a depth past one that raises raises too. From Python 3.12
    the recursion limit governs Python code only, and C code such as list
    repr and the C JSON scanner and encoder stops at a separate, deeper
    limit of its own, so no depth can be assumed from
    sys.getrecursionlimit().
    """

    def raises(depth: int) -> bool:
        try:
            spell(depth)
        except RecursionError:
            return True
        return False

    accepted, depth = 0, 1_000
    while not raises(depth):
        accepted, depth = depth, depth * 2
        if depth > 100_000:
            return None
    while accepted + 1 < depth:
        middle = (accepted + depth) // 2
        if raises(middle):
            depth = middle
        else:
            accepted = middle
    return depth


def csv_text(rows: list[SweepRow]) -> str:
    """The CSV document of rows, as one string."""
    lines = [CSV_HEADER]
    lines.extend(row_to_csv(row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_csv(path: str) -> list[SweepRow]:
    """Read back a sweep CSV (values within float-formatting tolerance)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"not a sweep CSV (bad header) in {path}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_HEADER.split(",")):
            raise ValidationError(f"malformed CSV row: {line!r}")
        rows.append(
            SweepRow(
                mode=parts[0],
                B=int(parts[1]),
                Lp=int(parts[2]),
                Lg=int(parts[3]),
                K=int(parts[4]) if parts[4] else None,
                G=int(parts[5]) if parts[5] else None,
                flops=int(float(parts[6])),
                bytes=int(float(parts[7])),
                ai=float(parts[8]),
                latency_s=float(parts[9]),
                throughput_tok_s=float(parts[10]),
                bound=parts[11],
                peak_mem_bytes=int(float(parts[12])),
                fits=parts[13] == "true",
            )
        )
    return rows


def linear_flops_loops(batch: int, seq_len: int, d_in: int, d_out: int) -> int:
    """Count FLOPs of y = x @ W by simulating the matmul loop nest.

    One multiply plus one accumulate per inner step, so 2 FLOPs per visited
    (b, l, o, i) tuple.
    """
    flops = 0
    for _b in range(batch):
        for _l in range(seq_len):
            for _o in range(d_out):
                for _i in range(d_in):
                    flops += 2
    return flops


def linear_bytes_loops(batch: int, seq_len: int, d_in: int, d_out: int, dtype_bytes: int) -> int:
    """Count bytes of y = x @ W by enumerating each operand element once."""
    elements = 0
    for _i in range(d_in):
        for _o in range(d_out):
            elements += 1
    for _b in range(batch):
        for _l in range(seq_len):
            for _i in range(d_in):
                elements += 1
    for _b in range(batch):
        for _l in range(seq_len):
            for _o in range(d_out):
                elements += 1
    return elements * dtype_bytes


def attention_pairs_loops(q_len: int, kv_len: int, causal: bool) -> int:
    """Count visible query-key pairs by checking each pair against the mask.

    Queries are taken to be the suffix of the key range, so query i (0-based)
    sits at absolute position kv_len - q_len + i.
    """
    pairs = 0
    for i in range(q_len):
        absolute = kv_len - q_len + i
        for j in range(kv_len):
            if not causal or j <= absolute:
                pairs += 1
    return pairs


def attention_flops_loops(
    batch: int, num_heads: int, head_dim: int, q_len: int, kv_len: int, causal: bool
) -> int:
    """Count attention GEMM FLOPs pair by pair.

    Each visible pair costs one length-head_dim dot product against K (2
    FLOPs per element) and one length-head_dim accumulation of V, again 2
    FLOPs per element.  Softmax is not counted.
    """
    flops = 0
    for _b in range(batch):
        for _h in range(num_heads):
            for i in range(q_len):
                absolute = kv_len - q_len + i
                for j in range(kv_len):
                    if causal and j > absolute:
                        continue
                    for _d in range(head_dim):
                        flops += 2  # q . k score
                    for _d in range(head_dim):
                        flops += 2  # prob * v accumulate
    return flops


def attention_bytes_loops(
    batch: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
    q_len: int,
    kv_len: int,
    dtype_bytes: int,
    write_new_kv: bool,
) -> int:
    """Count attention bytes by enumerating K/V reads, Q reads, output writes
    and (optionally) the new tokens' K/V writes, one element each."""
    elements = 0
    for _b in range(batch):
        for _h in range(num_kv_heads):
            for _t in range(kv_len):
                for _d in range(head_dim):
                    elements += 2  # K and V
    for _b in range(batch):
        for _h in range(num_heads):
            for _t in range(q_len):
                for _d in range(head_dim):
                    elements += 2  # Q read and output write
    if write_new_kv:
        for _b in range(batch):
            for _h in range(num_kv_heads):
                for _t in range(q_len):
                    for _d in range(head_dim):
                        elements += 2  # new K and V rows
    return elements * dtype_bytes


def swiglu_layer_flops_loops(
    batch: int,
    q_len: int,
    kv_len: int,
    d_model: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
    ffn_dim: int,
    causal: bool,
) -> int:
    """One transformer layer (SwiGLU MLP) assembled from the loop oracles."""
    q_dim = num_heads * head_dim
    kv_dim = num_kv_heads * head_dim
    flops = linear_flops_loops(batch, q_len, d_model, q_dim)
    flops += linear_flops_loops(batch, q_len, d_model, kv_dim)
    flops += linear_flops_loops(batch, q_len, d_model, kv_dim)
    flops += attention_flops_loops(batch, num_heads, head_dim, q_len, kv_len, causal)
    flops += linear_flops_loops(batch, q_len, q_dim, d_model)
    flops += linear_flops_loops(batch, q_len, d_model, ffn_dim)  # gate
    flops += linear_flops_loops(batch, q_len, d_model, ffn_dim)  # up
    flops += linear_flops_loops(batch, q_len, ffn_dim, d_model)  # down
    return flops


def swiglu_layer_bytes_loops(
    batch: int,
    q_len: int,
    kv_len: int,
    d_model: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
    ffn_dim: int,
    dtype_bytes: int,
    write_new_kv: bool,
) -> int:
    """Byte counterpart of swiglu_layer_flops_loops."""
    q_dim = num_heads * head_dim
    kv_dim = num_kv_heads * head_dim
    nbytes = linear_bytes_loops(batch, q_len, d_model, q_dim, dtype_bytes)
    nbytes += linear_bytes_loops(batch, q_len, d_model, kv_dim, dtype_bytes)
    nbytes += linear_bytes_loops(batch, q_len, d_model, kv_dim, dtype_bytes)
    nbytes += attention_bytes_loops(
        batch, num_heads, num_kv_heads, head_dim, q_len, kv_len, dtype_bytes, write_new_kv
    )
    nbytes += linear_bytes_loops(batch, q_len, q_dim, d_model, dtype_bytes)
    nbytes += linear_bytes_loops(batch, q_len, d_model, ffn_dim, dtype_bytes)
    nbytes += linear_bytes_loops(batch, q_len, d_model, ffn_dim, dtype_bytes)
    nbytes += linear_bytes_loops(batch, q_len, ffn_dim, d_model, dtype_bytes)
    return nbytes


def parameter_shapes(
    num_layers: int,
    d_model: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
    ffn_dim: int,
    vocab_size: int,
    mlp_kind: str,
    tied_embedding: bool,
) -> list[tuple[int, int]]:
    """Enumerate every weight matrix in the model as a (rows, cols) shape."""
    q_dim = num_heads * head_dim
    kv_dim = num_kv_heads * head_dim
    shapes = [(vocab_size, d_model)]  # input embedding
    for _layer in range(num_layers):
        shapes.append((d_model, q_dim))
        shapes.append((d_model, kv_dim))
        shapes.append((d_model, kv_dim))
        shapes.append((q_dim, d_model))
        if mlp_kind == "swiglu":
            shapes.append((d_model, ffn_dim))
            shapes.append((d_model, ffn_dim))
            shapes.append((ffn_dim, d_model))
        else:
            shapes.append((d_model, ffn_dim))
            shapes.append((ffn_dim, d_model))
    if not tied_embedding:
        shapes.append((vocab_size, d_model))  # output head
    return shapes


def parameter_count_enumerated(
    num_layers: int,
    d_model: int,
    num_heads: int,
    num_kv_heads: int,
    head_dim: int,
    ffn_dim: int,
    vocab_size: int,
    mlp_kind: str,
    tied_embedding: bool = False,
) -> int:
    total = 0
    for rows, cols in parameter_shapes(
        num_layers,
        d_model,
        num_heads,
        num_kv_heads,
        head_dim,
        ffn_dim,
        vocab_size,
        mlp_kind,
        tied_embedding,
    ):
        total += rows * cols
    return total


def kv_cache_bytes_formula(
    num_layers: int,
    batch: int,
    total_len: int,
    num_kv_heads: int,
    head_dim: int,
    dtype_bytes: int,
) -> int:
    """K and V tensors, one row per token per layer per KV head."""
    return 2 * num_layers * batch * total_len * num_kv_heads * head_dim * dtype_bytes


def max_fitting_batch_scan(footprint_fits) -> int:
    """Largest B with footprint_fits(B) true, found by plain upward scan.

    footprint_fits is a predicate over batch size, assumed monotone
    (once false, always false).  Returns 0 when even B = 1 does not fit.
    """
    best = 0
    batch = 1
    while footprint_fits(batch):
        best = batch
        batch += 1
    return best


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over (x, y) points."""
    logs = [(math.log(x), math.log(y)) for x, y in points]
    return statistics.linear_regression(*zip(*logs)).slope


def arm_decode_loop(scenario: Scenario) -> list[tuple[str, KernelCost]]:
    """An arm scenario's decode as gen_len separate one-token forwards, step
    t attending to prompt_len + t cached positions and writing its own KV
    entry."""
    w = scenario.workload
    entries = []
    for t in range(1, w.gen_len + 1):
        step = layer_forward_cost(
            scenario, 1, w.prompt_len + t, causal=False, write_new_kv=True
        )
        entries.extend((f"step{t}:{label}", kernel) for label, kernel in step)
    return entries


def blockwise_dlm_loop(scenario: Scenario) -> list[tuple[str, KernelCost]]:
    """A dlm_block scenario as one forward per refinement step of every
    block, then (with include_cache_refresh) one full pass per block over
    the prompt and every block decoded so far."""
    w = scenario.workload
    prompt_len, gen_len, steps, block_size = w.prompt_len, w.gen_len, w.steps, w.block_size
    opts = w.options
    num_blocks = -(-gen_len // block_size)
    entries = []
    for j in range(num_blocks):
        start = j * block_size
        width = min(block_size, gen_len - start)
        block_steps = steps // num_blocks + (1 if j < steps % num_blocks else 0)
        kv_len = prompt_len + gen_len if opts.full_kv_each_step else prompt_len + start + width
        for s in range(block_steps):
            step = layer_forward_cost(
                scenario, width, kv_len, causal=False, write_new_kv=False
            )
            entries.extend((f"block{j}.{s}:{label}", kernel) for label, kernel in step)
    if opts.include_cache_refresh:
        for j in range(num_blocks):
            covered = prompt_len + min((j + 1) * block_size, gen_len)
            refresh = layer_forward_cost(
                scenario, covered, covered, causal=False, write_new_kv=True
            )
            entries.extend((f"refresh{j}:{label}", kernel) for label, kernel in refresh)
    return entries
