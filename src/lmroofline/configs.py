"""Model, hardware, and workload definitions plus the built-in registries.

Inputs are checked here: the dataclasses check their own fields, and
`validate_workload` holds every workload invariant. The JSON loaders call
both, so a scenario or grid point that reaches the cost model is valid.

Registry constants are transcribed from the models' published configuration
files and from vendor datasheets for the GPUs; see the README for the exact
provenance of each entry.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from math import ceil
from typing import Any

from .errors import ValidationError

MLP_KINDS = ("swiglu", "gelu_2mat")
ATTENTION_KINDS = ("causal_capable", "bidirectional_only")
MODES = ("arm", "dlm_naive", "dlm_block")
DLM_MODES = ("dlm_naive", "dlm_block")
DTYPE_BYTES_ALLOWED = (1, 2, 4)


def require_int(name: str, value: Any, minimum: int) -> int:
    """Return value if it is an int >= minimum, else raise naming `name`.

    A bool is not accepted as an int, and neither is an integral float.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum} (got {value!r})")
    return value


def _is_finite_number(value: Any) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ModelConfig:
    """Shape constants of a decoder-style transformer."""

    name: str
    num_layers: int
    d_model: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    ffn_dim: int
    vocab_size: int
    mlp_kind: str = "swiglu"
    attention_kind: str = "causal_capable"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"name must be a nonempty string (got {self.name!r})")
        for fname in (
            "num_layers",
            "d_model",
            "num_heads",
            "num_kv_heads",
            "head_dim",
            "ffn_dim",
            "vocab_size",
        ):
            require_int(fname, getattr(self, fname), 1)
        if self.mlp_kind not in MLP_KINDS:
            raise ValidationError(
                f"mlp_kind must be one of {MLP_KINDS} (got {self.mlp_kind!r})"
            )
        if self.attention_kind not in ATTENTION_KINDS:
            raise ValidationError(
                f"attention_kind must be one of {ATTENTION_KINDS} (got {self.attention_kind!r})"
            )
        if self.num_heads * self.head_dim != self.d_model:
            raise ValidationError(
                "num_heads x head_dim != d_model "
                f"({self.num_heads} x {self.head_dim} != {self.d_model})"
            )
        if self.num_heads % self.num_kv_heads != 0:
            raise ValidationError(
                "num_kv_heads must divide num_heads "
                f"({self.num_kv_heads} does not divide {self.num_heads})"
            )


@dataclass(frozen=True)
class HardwareSpec:
    """Peak compute, bandwidth, and capacity of one accelerator."""

    name: str
    peak_flops: float
    mem_bandwidth: float
    mem_capacity: float

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"name must be a nonempty string (got {self.name!r})")
        for fname in ("peak_flops", "mem_bandwidth"):
            value = getattr(self, fname)
            if not _is_finite_number(value) or value <= 0:
                raise ValidationError(f"{fname} must be a positive finite number (got {value!r})")
        cap = self.mem_capacity
        if not _is_finite_number(cap) or cap < 0:
            raise ValidationError(f"mem_capacity must be a finite number >= 0 (got {cap!r})")


@dataclass(frozen=True)
class CountingOptions:
    """Switches for the optional cost terms.

    Defaults reproduce the bare counting conventions: no LM head, no
    cache-refresh passes, no elementwise traffic, exact triangular causal
    pair counting.
    """

    include_lm_head: bool = False
    include_cache_refresh: bool = False
    count_elementwise_bytes: bool = False
    causal_exact: bool = True


@dataclass(frozen=True)
class WorkloadSpec:
    """One decoding workload: mode, shape of the request, and step budget.

    `steps` is the number of refinement steps for the diffusion modes and
    must be absent for `arm`. `block_size` is only meaningful for
    `dlm_block`.
    """

    mode: str
    batch: int
    prompt_len: int
    gen_len: int
    steps: int | None = None
    block_size: int | None = None
    dtype_bytes: int = 2
    options: CountingOptions = field(default_factory=CountingOptions)

    @property
    def total_len(self) -> int:
        """Full sequence length: prompt plus generation."""
        return self.prompt_len + self.gen_len

    @property
    def num_blocks(self) -> int | None:
        """Number of generation blocks for dlm_block, else None."""
        if self.block_size is None or self.block_size < 1:
            return None
        return ceil(self.gen_len / self.block_size)


def validate_workload(workload: WorkloadSpec, model: ModelConfig) -> WorkloadSpec:
    """Check every workload invariant against the model; return the workload.

    Each violation is reported individually with the offending field named.
    """
    w = workload
    if w.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES} (got {w.mode!r})")
    require_int("batch", w.batch, 1)
    require_int("prompt_len", w.prompt_len, 0)
    require_int("gen_len", w.gen_len, 1)
    if require_int("dtype_bytes", w.dtype_bytes, 1) not in DTYPE_BYTES_ALLOWED:
        raise ValidationError(
            f"dtype_bytes must be one of {DTYPE_BYTES_ALLOWED} (got {w.dtype_bytes!r})"
        )
    if not isinstance(w.options, CountingOptions):
        raise ValidationError(f"options must be CountingOptions (got {type(w.options)})")

    if w.mode == "arm":
        if model.attention_kind == "bidirectional_only":
            raise ValidationError(
                f"model '{model.name}' has attention_kind bidirectional_only "
                "and cannot run mode 'arm'"
            )
        if w.steps is not None:
            raise ValidationError("steps is only meaningful for dlm modes (mode 'arm')")
        if w.block_size is not None:
            raise ValidationError("block_size is only meaningful for dlm_block (mode 'arm')")
        return w

    if w.steps is None:
        raise ValidationError(f"steps is required for mode '{w.mode}'")
    require_int("steps", w.steps, 1)

    if w.mode == "dlm_naive":
        if w.block_size is not None:
            raise ValidationError("block_size is only meaningful for dlm_block (mode 'dlm_naive')")
        return w

    if w.block_size is None:
        raise ValidationError("block_size is required for mode 'dlm_block'")
    require_int("block_size", w.block_size, 1)
    if w.block_size > w.gen_len:
        raise ValidationError(
            f"block size exceeds generation length (block_size {w.block_size} > gen_len {w.gen_len})"
        )
    num_blocks = w.num_blocks
    assert num_blocks is not None
    if w.steps < num_blocks:
        raise ValidationError(
            f"fewer steps than blocks ({w.steps} < {num_blocks}); "
            "every block needs at least one refinement step"
        )
    return w


@dataclass(frozen=True)
class Scenario:
    """A fully resolved analysis request: model + hardware + workload."""

    model: ModelConfig
    hardware: HardwareSpec
    workload: WorkloadSpec


# Shape constants from the published model configs:
#   llama3-8b : meta-llama/Meta-Llama-3-8B config.json
#   llada-8b  : GSAI-ML/LLaDA-8B-Base config.json (bidirectional denoiser,
#               full multi-head attention, no KV grouping)
#   tiny-test : synthetic shape small enough for brute-force oracles
MODEL_REGISTRY: dict[str, ModelConfig] = {
    "llama3-8b": ModelConfig(
        name="llama3-8b",
        num_layers=32,
        d_model=4096,
        num_heads=32,
        num_kv_heads=8,
        head_dim=128,
        ffn_dim=14336,
        vocab_size=128256,
        mlp_kind="swiglu",
        attention_kind="causal_capable",
    ),
    "llada-8b": ModelConfig(
        name="llada-8b",
        num_layers=32,
        d_model=4096,
        num_heads=32,
        num_kv_heads=32,
        head_dim=128,
        ffn_dim=12288,
        vocab_size=126464,
        mlp_kind="swiglu",
        attention_kind="bidirectional_only",
    ),
    "tiny-test": ModelConfig(
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
    ),
}

# rtx-a6000 peak is the vendor's dense-FP16 tensor figure for GA102
# (84 SM x 4 tensor cores x 128 FMA/clk x 1.8 GHz x 2 FLOP/FMA ~= 154.8e12).
# a100-80g: 312 TFLOP/s dense FP16, 2039 GB/s HBM2e, 80 GB.
HW_REGISTRY: dict[str, HardwareSpec] = {
    "rtx-a6000": HardwareSpec(
        name="rtx-a6000",
        peak_flops=154.8e12,
        mem_bandwidth=768e9,
        mem_capacity=48e9,
    ),
    "a100-80g": HardwareSpec(
        name="a100-80g",
        peak_flops=312e12,
        mem_bandwidth=2.039e12,
        mem_capacity=80e9,
    ),
}


def list_models() -> list[str]:
    return sorted(MODEL_REGISTRY)


def list_hardware() -> list[str]:
    return sorted(HW_REGISTRY)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def _check_keys(doc: dict, required: set[str], optional: set[str], context: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"{context} must be a JSON object (got {type(doc).__name__})")
    unknown = set(doc) - required - optional
    if unknown:
        raise ValidationError(f"unknown field(s) in {context}: {', '.join(sorted(unknown))}")
    missing = required - set(doc)
    if missing:
        raise ValidationError(f"missing field(s) in {context}: {', '.join(sorted(missing))}")


_MODEL_REQUIRED = {
    "name",
    "num_layers",
    "d_model",
    "num_heads",
    "num_kv_heads",
    "head_dim",
    "ffn_dim",
    "vocab_size",
}
_MODEL_OPTIONAL = {"mlp_kind", "attention_kind"}


def model_from_dict(doc: dict) -> ModelConfig:
    _check_keys(doc, _MODEL_REQUIRED, _MODEL_OPTIONAL, "model config")
    return ModelConfig(**doc)


_HW_REQUIRED = {"name", "peak_flops", "mem_bandwidth", "mem_capacity"}


def hardware_from_dict(doc: dict) -> HardwareSpec:
    _check_keys(doc, _HW_REQUIRED, set(), "hardware spec")
    return HardwareSpec(**doc)


def _resolve_path(source: str, base_dir: str | None) -> str:
    if base_dir is not None and not os.path.isabs(source):
        candidate = os.path.join(base_dir, source)
        if os.path.exists(candidate):
            return candidate
    return source


def load_model_config(source: str, base_dir: str | None = None) -> ModelConfig:
    """Resolve a model by registry name, or load it from a JSON file path."""
    name = str(source)
    if name in MODEL_REGISTRY:
        return MODEL_REGISTRY[name]
    path = _resolve_path(name, base_dir)
    if not os.path.exists(path):
        raise ValidationError(
            f"unknown model '{name}' (registry: {', '.join(list_models())}) "
            "and no such file"
        )
    return model_from_dict(_load_json(path))


def load_hardware_spec(source: str, base_dir: str | None = None) -> HardwareSpec:
    """Resolve hardware by registry name, or load it from a JSON file path."""
    name = str(source)
    if name in HW_REGISTRY:
        return HW_REGISTRY[name]
    path = _resolve_path(name, base_dir)
    if not os.path.exists(path):
        raise ValidationError(
            f"unknown hardware '{name}' (registry: {', '.join(list_hardware())}) "
            "and no such file"
        )
    return hardware_from_dict(_load_json(path))


_OPTION_FIELDS = {f.name for f in fields(CountingOptions)}


def options_from_dict(doc: dict) -> CountingOptions:
    _check_keys(doc, set(), _OPTION_FIELDS, "options")
    for key, value in doc.items():
        if not isinstance(value, bool):
            raise ValidationError(f"options.{key} must be a boolean (got {value!r})")
    return CountingOptions(**doc)


def options_to_dict(opts: CountingOptions) -> dict:
    return {f.name: getattr(opts, f.name) for f in fields(CountingOptions)}


_SCENARIO_REQUIRED = {"model", "hardware", "mode", "batch", "prompt_len", "gen_len"}
_SCENARIO_OPTIONAL = {"steps", "block_size", "dtype_bytes", "options"}


def workload_from_dict(doc: dict, context: str = "scenario") -> WorkloadSpec:
    """Build the workload part of a scenario document.

    `steps` defaults to `gen_len` for the diffusion modes when omitted
    (every generated token refined once per step on average).
    """
    _check_keys(doc, _SCENARIO_REQUIRED - {"model", "hardware"}, _SCENARIO_OPTIONAL, context)
    mode = doc["mode"]
    steps = doc.get("steps")
    if steps is None and mode in DLM_MODES:
        steps = doc["gen_len"]
    return WorkloadSpec(
        mode=mode,
        batch=doc["batch"],
        prompt_len=doc["prompt_len"],
        gen_len=doc["gen_len"],
        steps=steps,
        block_size=doc.get("block_size"),
        dtype_bytes=doc.get("dtype_bytes", 2),
        options=options_from_dict(doc.get("options", {})),
    )


def workload_to_dict(workload: WorkloadSpec) -> dict:
    """Serialize a workload to the scenario field layout (round-trip safe)."""
    doc: dict[str, Any] = {
        "mode": workload.mode,
        "batch": workload.batch,
        "prompt_len": workload.prompt_len,
        "gen_len": workload.gen_len,
    }
    if workload.steps is not None:
        doc["steps"] = workload.steps
    if workload.block_size is not None:
        doc["block_size"] = workload.block_size
    doc["dtype_bytes"] = workload.dtype_bytes
    doc["options"] = options_to_dict(workload.options)
    return doc


def scenario_from_dict(doc: dict, base_dir: str | None = None) -> Scenario:
    _check_keys(doc, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, "scenario")
    model = load_model_config(doc["model"], base_dir)
    hardware = load_hardware_spec(doc["hardware"], base_dir)
    workload_doc = {k: v for k, v in doc.items() if k not in ("model", "hardware")}
    workload = workload_from_dict(workload_doc)
    validate_workload(workload, model)
    return Scenario(model=model, hardware=hardware, workload=workload)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a scenario whose model and hardware come from the registries."""
    m, hw = scenario.model, scenario.hardware
    if MODEL_REGISTRY.get(m.name) != m:
        raise ValidationError(f"model '{m.name}' is not a registry entry; cannot serialize by name")
    if HW_REGISTRY.get(hw.name) != hw:
        raise ValidationError(f"hardware '{hw.name}' is not a registry entry; cannot serialize by name")
    doc = {"model": m.name, "hardware": hw.name}
    doc.update(workload_to_dict(scenario.workload))
    return doc


def load_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario JSON file."""
    return scenario_from_dict(_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))
