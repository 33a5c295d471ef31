"""Roofline placement and latency estimates.

Latency is the serial sum of per-kernel roofline times: each kernel runs at
whichever of the compute or bandwidth limits binds it (perfect overlap
inside a kernel, no overlap between kernels, no launch overhead). Attained
performance of a phase is therefore total FLOPs over that summed time and
can never exceed the hardware peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configs import HardwareSpec, Scenario, validate_workload
from .errors import ValidationError
from .kernels import KernelCost, KernelRun
from .phases import (
    PhaseCost,
    arithmetic_intensity,
    arm_decode_cost,
    arm_prefill_cost,
    blockwise_dlm_cost,
    naive_dlm_cost,
)

BOUNDS = ("memory_bound", "compute_bound")


@dataclass(frozen=True)
class RooflinePoint:
    """One phase placed on the roofline."""

    ai: float
    perf_attained: float
    bound: str
    label: str


def ridge_point(hw: HardwareSpec) -> float:
    """Arithmetic intensity at which the compute and bandwidth roofs meet."""
    return hw.peak_flops / hw.mem_bandwidth


def classify(ai: float, hw: HardwareSpec) -> str:
    """Which resource limits a workload of the given intensity.

    A point exactly on the ridge counts as compute_bound.
    """
    if ai < 0:
        raise ValidationError(f"arithmetic intensity must be >= 0 (got {ai})")
    return "compute_bound" if ai >= ridge_point(hw) else "memory_bound"


def kernel_time(cost: KernelCost | KernelRun | PhaseCost, hw: HardwareSpec) -> float:
    """Seconds for one kernel, or for a run of them: the binding side of the roofline.

    A KernelCost takes max(F/P, B/W). Along a KernelRun the arithmetic
    intensity must be non-decreasing in the index, which holds for every run
    phases.py builds (attention FLOPs grow at least as fast as its bytes in
    the KV length or extent; a linear layer's intensity grows with its token
    count). Then the invocations before the first compute-bound one, found
    by bisection on the same test F(i)/P >= B(i)/W, are memory-bound, and
    the run takes prefix_bytes/W + suffix_flops/P.
    """
    peak, bandwidth = hw.peak_flops, hw.mem_bandwidth
    if not isinstance(cost, KernelRun):
        return max(cost.flops / peak, cost.bytes / bandwidth)
    lo, hi = 0, cost.count
    while lo < hi:
        mid = (lo + hi) // 2
        flops, moved = cost.at(mid)
        if flops / peak >= moved / bandwidth:
            hi = mid
        else:
            lo = mid + 1
    prefix_flops, prefix_bytes = cost.prefix(lo)
    return prefix_bytes / bandwidth + (cost.flops - prefix_flops) / peak


def phase_latency(cost: PhaseCost, hw: HardwareSpec) -> float:
    """Seconds for a phase: kernels run back to back."""
    return sum(kernel_time(kernel, hw) for _, kernel in cost.breakdown)


def scenario_phases(scenario: Scenario) -> tuple[PhaseCost, ...]:
    """The phase costs a scenario's workload consists of, in execution order."""
    validate_workload(scenario.workload, scenario.model)
    return _phases(scenario)


def _phases(scenario: Scenario) -> tuple[PhaseCost, ...]:
    """scenario_phases of a scenario whose workload is already validated."""
    m, w = scenario.model, scenario.workload
    if w.mode == "arm":
        phases = []
        if w.prompt_len >= 1:
            phases.append(arm_prefill_cost(m, w.batch, w.prompt_len, w.dtype_bytes, w.options))
        phases.append(
            arm_decode_cost(m, w.batch, w.prompt_len, w.gen_len, w.dtype_bytes, w.options)
        )
        return tuple(phases)
    if w.mode == "dlm_naive":
        return (
            naive_dlm_cost(
                m, w.batch, w.prompt_len, w.gen_len, w.steps, w.dtype_bytes, w.options
            ),
        )
    return (
        blockwise_dlm_cost(
            m, w.batch, w.prompt_len, w.gen_len, w.steps, w.block_size,
            w.dtype_bytes, w.options,
        ),
    )


@dataclass(frozen=True)
class ScenarioResult:
    """End-to-end latency, throughput, and roofline placement of a scenario."""

    latency_s: float
    throughput_tok_s: float
    points: tuple[RooflinePoint, ...]
    phases: tuple[PhaseCost, ...]

    @property
    def flops(self) -> int:
        return sum(p.flops for p in self.phases)

    @property
    def bytes(self) -> int:
        return sum(p.bytes for p in self.phases)


def end_to_end(scenario: Scenario) -> ScenarioResult:
    """Evaluate a scenario: all phases, serially."""
    validate_workload(scenario.workload, scenario.model)
    return _end_to_end(scenario)


def _end_to_end(scenario: Scenario) -> ScenarioResult:
    """end_to_end of a scenario whose workload is already validated."""
    w, hw = scenario.workload, scenario.hardware
    phases = _phases(scenario)
    latencies = [phase_latency(p, hw) for p in phases]
    latency = sum(latencies)
    if latency <= 0:
        raise ValidationError("scenario has no work; latency is zero")
    throughput = w.batch * w.gen_len / latency
    prefix = f"{scenario.model.name} B={w.batch} Lp={w.prompt_len} Lg={w.gen_len}"
    points = tuple(
        RooflinePoint(
            ai=arithmetic_intensity(p),
            perf_attained=p.flops / phase_latency_s,
            bound=classify(arithmetic_intensity(p), hw),
            label=f"{p.phase} {prefix}",
        )
        for p, phase_latency_s in zip(phases, latencies)
    )
    return ScenarioResult(
        latency_s=latency, throughput_tok_s=throughput, points=points, phases=phases
    )
