"""Roofline placement and latency estimates.

Latency is the serial sum of per-kernel roofline times: each kernel runs at
whichever of the compute or bandwidth limits binds it (perfect overlap
inside a kernel, no overlap between kernels, no launch overhead). Attained
performance of a phase is therefore total FLOPs over that summed time and
can never exceed the hardware peak.

A Scenario is valid once built, so the functions here take it as it is.
end_to_end is the one range check on results: FLOP or byte totals beyond
the float range, and a latency or throughput that overflows, are rejected
with a ValidationError rather than returned. Every count it and its callers
convert to a float is at most one of those totals, so none overflows later.
end_to_end does not place phases on the roofline: ScenarioResult.points are
built on each read, from the phase latencies the result keeps.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .configs import MAX_FLOAT, HardwareSpec, Scenario
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


class RooflinePoint(namedtuple("RooflinePoint", ("ai", "perf_attained", "bound", "label"))):
    """One phase placed on the roofline.

    Attributes:
        ai (float): the phase's arithmetic intensity, FLOP/byte.
        perf_attained (float): its FLOPs over its latency, FLOP/s.
        bound (str): "compute_bound" or "memory_bound" (see classify).
        label (str): the phase, model and workload shape.
    """

    __slots__ = ()


def ridge_point(hw: HardwareSpec) -> float:
    """Arithmetic intensity at which the compute and bandwidth roofs meet."""
    return hw.peak_flops / hw.mem_bandwidth


def classify(ai: float, hw: HardwareSpec) -> str:
    """Which resource limits a workload of the given intensity.

    A point exactly on the ridge counts as compute_bound.
    """
    if not 0 <= ai < math.inf:
        raise ValidationError(f"arithmetic intensity must be finite and >= 0 (got {ai})")
    return "compute_bound" if ai >= ridge_point(hw) else "memory_bound"


def kernel_time(cost: KernelCost | KernelRun | PhaseCost, hw: HardwareSpec) -> float:
    """Seconds for one kernel, or for a run of them: the binding side of the roofline.

    A KernelCost takes max(F/P, B/W). The runs it sees are those
    phases.layer_forward_cost builds: attention along a KV length growing by
    a fixed step (decode, block refinement), and every kernel of the refresh
    passes, whose query and KV extents grow together. Along each the
    arithmetic intensity is non-decreasing in the index, as this requires
    (attention's intensity grows with both its query and its KV length; a
    linear layer's grows with its token count). Then the invocations before
    the first compute-bound one, under the test F(i)/P >= B(i)/W, are
    memory-bound, and the run takes prefix_bytes/W + suffix_flops/P.

    The two ends settle most runs: if invocation 0 is compute-bound, so is
    the whole run, which takes F/P; if the last invocation is memory-bound,
    so is the whole run, which takes B/W. These are the prefix formula at
    index 0 and at count, whose zero term adds exactly nothing. Only a run
    that crosses the ridge bisects, between its two ends.
    """
    peak, bandwidth = hw.peak_flops, hw.mem_bandwidth
    if not isinstance(cost, KernelRun):
        return max(cost.flops / peak, cost.bytes / bandwidth)
    # Invocation 0 costs the first terms of the Newton forms.
    if cost.newton_flops[0] / peak >= cost.newton_bytes[0] / bandwidth:
        return cost.flops / peak
    hi = cost.count - 1
    flops, moved = cost.at(hi)
    if flops / peak < moved / bandwidth:
        return cost.bytes / bandwidth
    lo = 1
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
    """Seconds for a phase: kernels run back to back.

    An entry whose kernel is the same kernel object as the one before it
    (v_proj; k_proj too under multi-head attention; mlp_up, mlp_down) is not
    timed again. The times are added with math.fsum, the correctly
    rounded sum, so the result does not depend on their order; a sum past
    the float range is inf, as with built-in sum.
    """
    times = []
    last = seconds = None
    for _, kernel in cost.breakdown:
        if kernel is not last:
            seconds = kernel_time(kernel, hw)
            last = kernel
        times.append(seconds)
    return _sum_seconds(times)


def _sum_seconds(times: list[float] | tuple[float, ...]) -> float:
    """math.fsum of nonnegative seconds, inf where fsum raises OverflowError."""
    try:
        return math.fsum(times)
    except OverflowError:
        return math.inf


def scenario_phases(scenario: Scenario) -> tuple[PhaseCost, ...]:
    """The phase costs a scenario's workload consists of, in execution order.

    An arm scenario runs a prefill over a nonempty prompt, then decode.
    """
    mode = scenario.workload.mode
    if mode == "arm":
        if scenario.workload.prompt_len:
            return arm_prefill_cost(scenario), arm_decode_cost(scenario)
        return (arm_decode_cost(scenario),)
    if mode == "dlm_naive":
        return (naive_dlm_cost(scenario),)
    return (blockwise_dlm_cost(scenario),)


class ScenarioResult(namedtuple("ScenarioResult", (
        "latency_s", "throughput_tok_s", "phases", "phase_latencies", "flops", "bytes",
        "scenario"))):
    """End-to-end latency, throughput, FLOP and byte totals of a scenario, and its phases.

    `points` places each phase on the roofline, built on each read from
    `phase_latencies`.

    Attributes:
        latency_s (float): the phases' latencies summed, seconds.
        throughput_tok_s (float): batch * gen_len tokens over latency_s.
        phases (tuple[PhaseCost, ...]): in execution order.
        phase_latencies (tuple[float, ...]): each phase's seconds.
        flops (int): the phases' FLOPs summed.
        bytes (int): the phases' bytes moved, summed.
        scenario (Scenario): the scenario evaluated.
    """

    __slots__ = ()

    @property
    def points(self) -> tuple[RooflinePoint, ...]:
        m, w, hw = self.scenario.model, self.scenario.workload, self.scenario.hardware
        prefix = f"{m.name} B={w.batch} Lp={w.prompt_len} Lg={w.gen_len}"
        # A list display, for the reason given at end_to_end's latencies.
        return tuple([
            RooflinePoint(ai, p.flops / t, classify(ai, hw), f"{p.phase} {prefix}")
            for p, t, ai in zip(
                self.phases, self.phase_latencies, map(arithmetic_intensity, self.phases)
            )
        ])


def end_to_end(scenario: Scenario, prefill: tuple | None = None) -> ScenarioResult:
    """Evaluate a scenario: all phases, serially. `prefill` is the arm prefill
    and its seconds of a scenario that differs from this one only in gen_len,
    which a prefill reads nothing of: only the decode is then built and
    timed, and the result equals a fresh evaluation's."""
    _, hw, w = scenario
    if prefill is None:
        phases = scenario_phases(scenario)
    else:
        phases = (prefill[0], arm_decode_cost(scenario))
    flops = moved = 0
    for p in phases:
        flops += p.flops
        moved += p.bytes
    if flops > MAX_FLOAT or moved > MAX_FLOAT:
        raise ValidationError("result has a non-finite number: a total beyond the float range")
    # Every kernel's and phase's counts, and batch * gen_len (at most the
    # FLOPs), now convert to a float; only the float arithmetic can overflow.
    # Built from displays, not a generator: in CPython a tuple built from an
    # iterator is not drawn from the free list it is freed onto, so each
    # point would leave one more spare tuple on it, up to 2,000
    # (tests/test_sweep.py).
    if prefill is None:
        latencies = tuple([phase_latency(p, hw) for p in phases])
    else:
        latencies = (prefill[1], phase_latency(phases[1], hw))
    latency = _sum_seconds(latencies)
    throughput = w.batch * w.gen_len / latency
    if not (math.isfinite(latency) and math.isfinite(throughput)):
        raise ValidationError(
            f"result has a non-finite number: latency {latency}, throughput {throughput}"
        )
    return ScenarioResult(latency, throughput, phases, latencies, flops, moved, scenario)
