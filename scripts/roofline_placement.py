"""Place prefill, decode, and full-sequence diffusion passes on the roofline.

Sweeps sequence length over powers of two for llama3-8b on rtx-a6000 and
shows how the three ways of producing tokens land relative to the ridge:
prompt prefill is compute-bound at every length tried, per-token decode is
memory-bound at every length, and a bidirectional full-sequence pass starts
memory-bound and crosses the ridge between L = 128 and L = 256.

Writes out/roofline_placement.svg and prints the placement table.
"""

import argparse
from pathlib import Path

from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    Scenario,
    WorkloadSpec,
    emit_roofline_svg,
    end_to_end,
    ridge_point,
)

LENGTHS = (128, 256, 512, 1024, 2048, 4096, 8192)


def placement(model, hw):
    points = []
    for length in LENGTHS:
        arm = Scenario(model, hw, WorkloadSpec("arm", 1, length, 128))
        naive_pass = Scenario(model, hw, WorkloadSpec("dlm_naive", 1, 0, length, steps=1))
        prefill, decode = end_to_end(arm).points
        (naive,) = end_to_end(naive_pass).points
        for phase, point in (("prefill", prefill), ("decode", decode), ("naive pass", naive)):
            points.append(point._replace(label=f"{phase} L={length}"))
    return points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="llama3-8b", choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--hardware", default="rtx-a6000", choices=sorted(HW_REGISTRY))
    parser.add_argument("--out-dir", default="out", type=Path)
    args = parser.parse_args()

    model = MODEL_REGISTRY[args.model]
    hw = HW_REGISTRY[args.hardware]
    points = placement(model, hw)

    print(f"{args.model} on {args.hardware}, ridge {ridge_point(hw):.1f} FLOP/byte")
    print(f"{'phase':<18} {'AI (FLOP/B)':>12} {'attained TFLOP/s':>17} bound")
    for p in points:
        print(f"{p.label:<18} {p.ai:>12.1f} {p.perf_attained / 1e12:>17.2f} {p.bound}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = args.out_dir / "roofline_placement.svg"
    emit_roofline_svg(points, hw, str(svg_path), title=f"{args.model} on {args.hardware}")
    print(f"\nwrote {svg_path}")


if __name__ == "__main__":
    main()
