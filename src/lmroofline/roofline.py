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

An arm prefill reads nothing of gen_len, so end_to_end keeps one slot: the
last arm prefill it built and timed, with its seconds. An arm scenario with
a prompt reuses them, building and timing only its decode, when its model
and hardware are the slot's objects and its other workload fields equal
the slot's. Model and hardware compare by identity, as two equal specs can
time differently: a peak given as an int divides the int FLOPs exactly, the
same peak as a float rounds them first. The records are immutable, so the
result equals a fresh evaluation's. The totals, the range check and the sum
run on either path, and the slot is written only once a scenario has passed
them. Nothing else is cached.
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

    An entry whose kernel equals the one before it (k_proj and v_proj,
    mlp_gate and mlp_up) is not timed again: equal kernels take equal
    time. The times are added with math.fsum, the correctly rounded sum, so
    the result does not depend on their order; a sum past the float range
    is inf, as with built-in sum.
    """
    times = []
    last = seconds = None
    for _, kernel in cost.breakdown:
        if kernel != last:
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


# (model, hardware, workload fields other than gen_len, prefill, its seconds)
# of the last arm prefill end_to_end built and timed, or None. It is read
# once per call and replaced whole, never changed in place.
_last_prefill = None


def end_to_end(scenario: Scenario) -> ScenarioResult:
    """Evaluate a scenario: all phases, serially, reusing the last arm
    prefill where the scenario's equals it (see the module docstring)."""
    global _last_prefill
    model, hw, w = scenario
    reused = key = None
    if w.mode == "arm" and w.prompt_len:
        key = (w.mode, w.batch, w.prompt_len, w.steps, w.block_size, w.dtype_bytes, w.options)
        last = _last_prefill
        if last is not None and last[0] is model and last[1] is hw and last[2] == key:
            reused = last
    if reused is None:
        phases = scenario_phases(scenario)
    else:
        phases = (reused[3], arm_decode_cost(scenario))
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
    if reused is None:
        latencies = tuple([phase_latency(p, hw) for p in phases])
    else:
        latencies = (reused[4], phase_latency(phases[1], hw))
    latency = _sum_seconds(latencies)
    throughput = w.batch * w.gen_len / latency
    if not (math.isfinite(latency) and math.isfinite(throughput)):
        raise ValidationError(
            f"result has a non-finite number: latency {latency}, throughput {throughput}"
        )
    if key is not None and reused is None:
        _last_prefill = (model, hw, key, phases[0], latencies[0])
    return ScenarioResult(latency, throughput, phases, latencies, flops, moved, scenario)
