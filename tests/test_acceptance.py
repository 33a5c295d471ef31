"""Acceptance checklist for the whole toolkit.

Every check prints one `criterion N: PASS/FAIL` line before asserting, so a
full run reads as a scoreboard. Where a range is not a measured-hardware
figure, it is derived from the model itself (checks 2c and 5), and the test
docstring gives the derivation.
"""

import math
import xml.etree.ElementTree as ET

import oracles
from oracles import TINY, csv_text, scenario
from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    Scenario,
    WorkloadSpec,
    arithmetic_intensity,
    classify,
    end_to_end,
    fit_scaling_exponent,
    kernel_time,
    max_fitting_batch,
    phase_latency,
    ridge_point,
    scenario_phases,
)
from lmroofline.cli import main
from lmroofline.configs import CountingOptions
from lmroofline.kernels import KernelCost, attention_cost, linear_cost
from lmroofline.memory import kv_cache_bytes
from lmroofline.phases import (
    arm_decode_cost,
    arm_prefill_cost,
    blockwise_dlm_cost,
    naive_dlm_cost,
)
from lmroofline.sweep import SweepGrid, run_sweep

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
A6000 = HW_REGISTRY["rtx-a6000"]
A100 = HW_REGISTRY["a100-80g"]


def naive_pass(length: int):
    """One full-sequence dlm_naive pass of llama3-8b over `length` tokens."""
    return naive_dlm_cost(scenario(LLAMA, "dlm_naive", 1, 0, length, steps=1))


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_c1_ridge_point_reproduction(capsys):
    """Registry peak and ridge for rtx-a6000 match the per-SM derivation."""
    derived_peak = 84 * 4 * 128 * 1.8e9 * 2  # SMs x cores x FLOP/core/clock x clock x FMA
    peak_ok = abs(A6000.peak_flops - derived_peak) / 1e12 <= 0.1
    ridge_ok = abs(ridge_point(A6000) - 201.6) <= 0.1
    assert main(["hw", "show", "rtx-a6000"]) == 0
    shown = capsys.readouterr().out
    text_ok = "154.8 TFLOP/s" in shown and "201.6 FLOP/byte" in shown
    with capsys.disabled():
        check(
            "1 (ridge reproduction)",
            peak_ok and ridge_ok and text_ok,
            f"peak {A6000.peak_flops / 1e12:.4f} vs derived {derived_peak / 1e12:.4f} TFLOP/s, "
            f"ridge {ridge_point(A6000):.4f}",
        )


def test_c2a_decode_ai_flat_in_gen_len():
    """Decode intensity stays O(1) in generated tokens once the prompt dominates."""
    points = [
        (lg, arithmetic_intensity(arm_decode_cost(scenario(LLAMA, "arm", 1, 8192, lg))))
        for lg in (128, 256, 512, 1024, 2048)
    ]
    slope = fit_scaling_exponent(points)
    check("2a (decode AI vs Lg, |slope| < 0.1)", abs(slope) < 0.1, f"slope {slope:.4f}")


def test_c2b_decode_ai_linear_in_batch():
    points = [
        (b, arithmetic_intensity(arm_decode_cost(scenario(LLAMA, "arm", b, 64, 64))))
        for b in (1, 2, 4, 8, 16, 32)
    ]
    slope = fit_scaling_exponent(points)
    check("2b (decode AI vs B, slope in [0.8, 1.0])", 0.8 <= slope <= 1.0, f"slope {slope:.4f}")


def test_c2c_naive_dlm_ai_linear_in_length():
    """Full-sequence diffusion gains intensity linearly with sequence length.

    The gain comes from attention: a non-causal pass over L tokens scores
    L x L pairs but streams only O(L) bytes, so the attention entry's own
    intensity is exactly 0.8 L for this shape (slope 1 over 8k..64k).

    The whole pass follows only once attention dominates. Per layer and
    token, the linear layers cost 2 P_layer FLOPs (P_layer = d_model
    (2 d_model + 2 kv_dim + 3 ffn_dim) weights under SwiGLU) and attention
    costs 4 num_heads head_dim L, so attention FLOPs overtake the linear
    FLOPs at L* = 2 P_layer / (4 num_heads head_dim) = 26,624 for
    llama3-8b. Around L* the whole-pass slope dips (0.57 over 8k..64k), so
    it is fitted over four octaves from the first power of two >= 4 L*
    (128k..1M, slope 0.93).
    """
    attention_points = []
    for length in (8192, 16384, 32768, 65536):
        attention = dict(naive_pass(length).breakdown)["attention"]
        attention_points.append((length, arithmetic_intensity(attention)))
    attention_slope = fit_scaling_exponent(attention_points)

    kv_dim = LLAMA.num_kv_heads * LLAMA.head_dim
    p_layer = LLAMA.d_model * (2 * LLAMA.d_model + 2 * kv_dim + 3 * LLAMA.ffn_dim)
    crossover = 2 * p_layer / (4 * LLAMA.num_heads * LLAMA.head_dim)
    start = 2 ** math.ceil(math.log2(4 * crossover))
    long_lengths = [start * 2**i for i in range(4)]
    points = [
        (length, arithmetic_intensity(naive_pass(length))) for length in long_lengths
    ]
    slope = fit_scaling_exponent(points)
    check(
        "2c (naive attention AI vs L over 8k..64k, slope 1; "
        "pass AI vs L from 4 L*, slope in [0.8, 1.0])",
        math.isclose(attention_slope, 1.0, abs_tol=1e-9) and 0.8 <= slope <= 1.0,
        f"attention slope {attention_slope:.4f}, L* {crossover:.0f}, "
        f"pass slope {slope:.4f} over L {long_lengths[0]}..{long_lengths[-1]}",
    )


def test_c2d_prefill_ai_linear_in_short_prompts():
    points = [
        (lp, arithmetic_intensity(arm_prefill_cost(scenario(LLAMA, "arm", 1, lp, 1))))
        for lp in (8, 16, 32, 64)
    ]
    slope = fit_scaling_exponent(points)
    check("2d (prefill AI vs Lp, slope in [0.8, 1.0])", 0.8 <= slope <= 1.0, f"slope {slope:.4f}")


def test_c2e_blockwise_ai_linear_in_block_size():
    def blockwise_ai(g):
        return arithmetic_intensity(
            blockwise_dlm_cost(scenario(LLAMA, "dlm_block", 1, 32768, 1024, 1024, g))
        )

    points = [(g, blockwise_ai(g)) for g in (16, 32, 64, 128, 256)]
    slope = fit_scaling_exponent(points)
    check("2e (blockwise AI vs G, slope in [0.8, 1.0])", 0.8 <= slope <= 1.0, f"slope {slope:.4f}")


def test_c3_roofline_classification():
    """Prefill compute-bound, decode memory-bound, naive diffusion crossing over."""
    lengths = (512, 1024, 2048, 4096, 8192)
    prefill_ok = all(
        classify(arithmetic_intensity(arm_prefill_cost(scenario(LLAMA, "arm", 1, lp, 1))), A6000)
        == "compute_bound"
        for lp in lengths
    )
    decode_ok = all(
        classify(arithmetic_intensity(arm_decode_cost(scenario(LLAMA, "arm", 1, lp, 128))), A6000)
        == "memory_bound"
        for lp in lengths
    )
    naive_bounds = {
        length: classify(arithmetic_intensity(naive_pass(length)), A6000)
        for length in (128, 256, 512, 1024, 2048, 4096, 8192)
    }
    naive_ok = (
        naive_bounds[128] == "memory_bound"
        and all(naive_bounds[length] == "compute_bound" for length in (2048, 4096, 8192))
    )
    crossover = min(
        (length for length, bound in naive_bounds.items() if bound == "compute_bound"),
        default=None,
    )
    crossover_ok = crossover is not None and 128 < crossover <= 2048
    check(
        "3 (roofline classification)",
        prefill_ok and decode_ok and naive_ok and crossover_ok,
        f"prefill all compute: {prefill_ok}, decode all memory: {decode_ok}, "
        f"naive crossover at L={crossover}",
    )


def test_c4_blockwise_ai_invariant_in_gen_len():
    """Blockwise intensity tracks the block size, not the generation length."""
    mean_ais = []
    spreads = []
    for g in (32, 64, 128):
        ais = [
            arithmetic_intensity(
                blockwise_dlm_cost(scenario(LLADA, "dlm_block", 1, 1024, lg, lg, g))
            )
            for lg in (256, 512, 1024, 2048)
        ]
        spreads.append((max(ais) - min(ais)) / min(ais))
        mean_ais.append(sum(ais) / len(ais))
    invariant_ok = all(s < 0.05 for s in spreads)
    increasing_ok = mean_ais[0] < mean_ais[1] < mean_ais[2]
    check(
        "4 (blockwise AI invariance)",
        invariant_ok and increasing_ok,
        f"spreads {[f'{s:.2%}' for s in spreads]}, mean AI by G {[f'{a:.1f}' for a in mean_ais]}",
    )


def test_c5_naive_to_blockwise_latency_ratio():
    """Latency advantage of blockwise decoding with refresh turned on.

    The naive pass is compute-bound, and its per-step cost grows as L
    squared. Blockwise refinement at G = 32 stays memory-bound. So the ratio
    rises with length.

    The band's lower edge, 1.5, is a measured-hardware figure. An idealized
    model credits the memory-bound blockwise steps with more speed than real
    hardware gives them, never less, so the modeled ratio is never below
    the measured one. Its upper
    edge is the model's own ceiling, F_naive / F_block. Roofline time is
    never below FLOPs / peak, and every naive kernel here is compute-bound,
    so the naive latency is exactly F_naive / peak. (A measured upper edge
    would encode small-GEMM inefficiency, which the model excludes.)
    """
    refresh = CountingOptions(include_cache_refresh=True)
    ratios, ceilings, naive_ais, refinement_ais = [], [], [], []
    for k in (256, 512, 1024):
        naive = naive_dlm_cost(scenario(LLAMA, "dlm_naive", 1, 1024, k, k))
        blockwise = blockwise_dlm_cost(
            scenario(LLAMA, "dlm_block", 1, 1024, k, k, 32, opts=refresh)
        )
        ratios.append(phase_latency(naive, A6000) / phase_latency(blockwise, A6000))
        ceilings.append(naive.flops / blockwise.flops)
        naive_ais.append(arithmetic_intensity(naive))
        refinement = [c for label, c in blockwise.breakdown if label.startswith("block")]
        refinement_ais.append(
            sum(c.flops for c in refinement) / sum(c.bytes for c in refinement)
        )
    band_ok = all(1.5 <= r <= c for r, c in zip(ratios, ceilings))
    rising_ok = ratios[0] < ratios[1] < ratios[2]
    bounds_ok = all(classify(a, A6000) == "compute_bound" for a in naive_ais) and all(
        classify(a, A6000) == "memory_bound" for a in refinement_ais
    )
    check(
        "5 (naive/blockwise latency ratio in [1.5, F_naive/F_block], rising with k; "
        "naive compute-bound, refinement memory-bound)",
        band_ok and rising_ok and bounds_ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
        + ", ceilings " + ", ".join(f"{c:.2f}" for c in ceilings)
        + ", naive AI " + ", ".join(f"{a:.0f}" for a in naive_ais)
        + ", refinement AI " + ", ".join(f"{a:.1f}" for a in refinement_ais),
    )


def _arm_throughput(batch: int) -> float:
    w = WorkloadSpec(mode="arm", batch=batch, prompt_len=128, gen_len=128)
    return end_to_end(Scenario(LLAMA, A100, w)).throughput_tok_s


def _dlm_throughput(batch: int) -> float:
    w = WorkloadSpec(
        mode="dlm_block", batch=batch, prompt_len=128, gen_len=128, steps=128, block_size=32
    )
    return end_to_end(Scenario(LLADA, A100, w)).throughput_tok_s


def _plateau_batch(throughput, limit=4096):
    prev = throughput(1)
    batch = 2
    while batch <= limit:
        cur = throughput(batch)
        if cur / prev < 1.10:
            return batch
        prev = cur
        batch *= 2
    return None


def test_c6_batch_scaling():
    """ARM keeps gaining from batching long after blockwise diffusion saturates."""
    gain = _arm_throughput(16) / _arm_throughput(1)
    gain_ok = gain >= 1.5
    dlm_plateau = _plateau_batch(_dlm_throughput)
    arm_plateau = _plateau_batch(_arm_throughput)
    plateau_ok = dlm_plateau is not None and arm_plateau is not None and dlm_plateau < arm_plateau
    fit_short = max_fitting_batch(
        LLADA,
        A100,
        WorkloadSpec(
            mode="dlm_block", batch=1, prompt_len=128, gen_len=128, steps=128, block_size=32
        ),
    )
    fit_long = max_fitting_batch(
        LLADA,
        A100,
        WorkloadSpec(
            mode="dlm_block", batch=1, prompt_len=2048, gen_len=128, steps=128, block_size=32
        ),
    )
    fit_ok = fit_short >= fit_long
    check(
        "6 (batch scaling)",
        gain_ok and plateau_ok and fit_ok,
        f"ARM 1->16 gain {gain:.1f}x, plateau B: dlm {dlm_plateau} vs arm {arm_plateau}, "
        f"max fitting B {fit_short} -> {fit_long}",
    )


def test_c7_throughput_scales_inversely_with_steps():
    """Blockwise throughput doubles every time the step budget halves."""

    def throughput(steps: int) -> float:
        w = WorkloadSpec(
            mode="dlm_block", batch=1, prompt_len=128, gen_len=128, steps=steps, block_size=32
        )
        return end_to_end(Scenario(LLADA, A6000, w)).throughput_tok_s

    reference = throughput(128)
    deviations = []
    for k in (128, 64, 32, 16, 4):
        expected = reference * 128 / k
        deviations.append(abs(throughput(k) - expected) / expected)
    ok = all(d <= 0.10 for d in deviations)
    check(
        "7 (throughput vs 1/K within 10%)",
        ok,
        "max deviation " + f"{max(deviations):.2%}",
    )


def test_c8_derived_values_against_oracles():
    """Every worked example, recomputed by the brute-force oracles."""
    linear = linear_cost(1, 2, 4, 4, 2)
    ok = (
        linear.flops == oracles.linear_flops_loops(1, 2, 4, 4) == 64
        and linear.bytes == oracles.linear_bytes_loops(1, 2, 4, 4, 2) == 64
    )
    attn = attention_cost(1, 1, 1, 4, 1, 8, 2, causal=False, write_new_kv=True)
    ok = ok and (
        attn.flops == oracles.attention_flops_loops(1, 1, 4, 1, 8, False) == 128
        and attn.bytes == oracles.attention_bytes_loops(1, 1, 1, 4, 1, 8, 2, True) == 160
    )

    def tiny_flops(q_len, kv_len, causal):
        return oracles.swiglu_layer_flops_loops(
            1, q_len, kv_len, TINY.d_model, TINY.num_heads, TINY.num_kv_heads,
            TINY.head_dim, TINY.ffn_dim, causal,
        )

    prefill, decode = (p.flops for p in scenario_phases(scenario(TINY, "arm", 1, 2, 1)))
    ok = ok and prefill == tiny_flops(2, 2, True) == 688
    ok = ok and decode == tiny_flops(1, 3, False) == 368
    naive = naive_dlm_cost(scenario(TINY, "dlm_naive", 1, 2, 2, steps=1)).flops
    ok = ok and naive == tiny_flops(4, 4, False) == 1536
    blockwise = blockwise_dlm_cost(scenario(TINY, "dlm_block", 1, 2, 2, 1, 2)).flops
    ok = ok and blockwise == tiny_flops(2, 4, False) < 1536

    ok = ok and (
        kv_cache_bytes(LLAMA, 1, 2048, 2)
        == oracles.kv_cache_bytes_formula(32, 1, 2048, 8, 128, 2)
        == 268_435_456
    )
    ok = ok and linear_cost(1, 2048, 4096, 4096, 2).flops == 2 * 2048 * 4096 * 4096

    t = kernel_time(KernelCost(flops=10**12, bytes=10**9), A6000)
    ok = ok and math.isclose(t, 1e12 / 154.8e12, rel_tol=1e-9)
    ok = ok and math.isclose(t, 6.46e-3, rel_tol=2e-4)
    check("8 (oracle suite)", ok, "all worked examples match their oracles")


def test_c9_determinism_and_formats(tmp_path, capsys):
    """Byte-identical CSV, well-formed SVG, and the documented exit codes."""
    base = WorkloadSpec(mode="arm", batch=1, prompt_len=64, gen_len=32)
    grid = SweepGrid(
        model=LLAMA, hardware=A6000, base=base, axes=(("batch", (1, 2, 4, 8)),)
    )
    deterministic = csv_text(run_sweep(grid)) == csv_text(run_sweep(grid))

    w = WorkloadSpec(mode="arm", batch=1, prompt_len=2048, gen_len=128)
    points = end_to_end(Scenario(LLAMA, A6000, w)).points
    from lmroofline import emit_roofline_svg

    svg_path = tmp_path / "roofline.svg"
    emit_roofline_svg(list(points), A6000, str(svg_path))
    root = ET.parse(str(svg_path)).getroot()
    svg_ok = root.tag.endswith("svg") and bool(root.get("width")) and bool(root.get("height"))

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        '{"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm",'
        ' "batch": 1, "prompt_len": 8, "gen_len": 8}'
    )
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(
        '{"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm",'
        ' "batch": 0, "prompt_len": 8, "gen_len": 8}'
    )
    code_ok = main(["analyze", "-c", str(scenario_path)]) == 0
    code_validation = main(["analyze", "-c", str(bad_path)]) == 1
    code_io = main(["analyze", "-c", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    with capsys.disabled():
        check(
            "9 (determinism and formats)",
            deterministic and svg_ok and code_ok and code_validation and code_io,
            f"csv deterministic: {deterministic}, svg well-formed: {svg_ok}, "
            f"exit codes 0/1/2: {code_ok}/{code_validation}/{code_io}",
        )
