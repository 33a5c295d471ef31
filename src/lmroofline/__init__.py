"""Analytical roofline performance model for autoregressive and diffusion LM inference.

The cost functions exported here take a validated Scenario, and so do the
phase functions and their one forward builder, `phases.layer_forward_cost`.
The kernel and memory functions under them take plain integers and do not
check them; they stay importable from their modules. Every function the
package defines is run by a command or by the calls the benchmark makes
(tests/test_reachable.py).
"""

from .configs import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    CountingOptions,
    HardwareSpec,
    ModelConfig,
    Scenario,
    WorkloadSpec,
    load_hardware_spec,
    load_model_config,
    load_scenario,
    validate_workload,
)
from .errors import ValidationError
from .kernels import KernelCost, KernelRun
from .memory import MemoryFootprint, parameter_count, peak_footprint
from .phases import PhaseCost, arithmetic_intensity
from .roofline import (
    RooflinePoint,
    ScenarioResult,
    classify,
    end_to_end,
    kernel_time,
    phase_latency,
    ridge_point,
    scenario_phases,
)
from .sweep import SweepGrid, SweepRow, emit_csv, load_grid, run_sweep
from .svgplot import emit_line_svg, emit_roofline_svg

__all__ = [
    "CountingOptions",
    "HardwareSpec",
    "HW_REGISTRY",
    "KernelCost",
    "KernelRun",
    "MemoryFootprint",
    "ModelConfig",
    "MODEL_REGISTRY",
    "PhaseCost",
    "RooflinePoint",
    "Scenario",
    "ScenarioResult",
    "SweepGrid",
    "SweepRow",
    "ValidationError",
    "WorkloadSpec",
    "arithmetic_intensity",
    "classify",
    "emit_csv",
    "emit_line_svg",
    "emit_roofline_svg",
    "end_to_end",
    "kernel_time",
    "load_grid",
    "load_hardware_spec",
    "load_model_config",
    "load_scenario",
    "parameter_count",
    "peak_footprint",
    "phase_latency",
    "ridge_point",
    "run_sweep",
    "scenario_phases",
    "validate_workload",
]
