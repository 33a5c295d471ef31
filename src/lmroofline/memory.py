"""Peak-memory footprint model and out-of-memory prediction.

The footprint of a scenario is weights + KV cache + transient activations.
Fitting is a prediction, never an error: a scenario that exceeds capacity
still evaluates, it just carries fits=False.

Activation working set: ACTIVATION_BUFFER_FACTOR * batch * E * max(d_model,
ffn_dim) * dtype_bytes, where E is the largest single-forward query extent
the mode ever runs (prompt length for ARM prefill, the full sequence for
cache-free naive diffusion, max(prompt, block) for block-wise diffusion),
floored at one token. The factor 2 models double-buffered layer
inputs/outputs; norm and score buffers are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .configs import HardwareSpec, ModelConfig, Scenario, WorkloadSpec, validate_workload
from .errors import ValidationError

ACTIVATION_BUFFER_FACTOR = 2


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes resident at the peak of a scenario's execution."""

    weight_bytes: int
    kv_cache_bytes: int
    activation_bytes: int
    total: int
    fits: bool


def parameter_count(model: ModelConfig, tied_embedding: bool = False) -> int:
    """Weight-matrix parameters: embedding, per-layer projections and MLP, LM head.

    Biases and norm scales are ignored. The LM head is a separate
    vocab x d_model matrix unless tied_embedding is set.
    """
    d = model.d_model
    kv_dim = model.num_kv_heads * model.head_dim
    per_layer = d * d + d * kv_dim + d * kv_dim + d * d
    mlp_mats = 3 if model.mlp_kind == "swiglu" else 2
    per_layer += mlp_mats * d * model.ffn_dim
    embeddings = model.vocab_size * d * (1 if tied_embedding else 2)
    return embeddings + model.num_layers * per_layer


def weight_bytes(model: ModelConfig, dtype_bytes: int, tied_embedding: bool = False) -> int:
    if dtype_bytes < 1:
        raise ValidationError(f"dtype_bytes must be >= 1 (got {dtype_bytes})")
    return dtype_bytes * parameter_count(model, tied_embedding)


def kv_cache_bytes(model: ModelConfig, batch: int, total_len: int, dtype_bytes: int) -> int:
    """K and V for every layer, sequence position, and KV head."""
    if batch < 1:
        raise ValidationError(f"batch must be >= 1 (got {batch})")
    if total_len < 0:
        raise ValidationError(f"total_len must be >= 0 (got {total_len})")
    return (
        2
        * model.num_layers
        * batch
        * total_len
        * model.num_kv_heads
        * model.head_dim
        * dtype_bytes
    )


def activation_bytes(model: ModelConfig, batch: int, q_extent: int, dtype_bytes: int) -> int:
    """Transient working set for a forward pass over q_extent query tokens."""
    if batch < 1:
        raise ValidationError(f"batch must be >= 1 (got {batch})")
    width = max(model.d_model, model.ffn_dim)
    return ACTIVATION_BUFFER_FACTOR * batch * max(q_extent, 1) * width * dtype_bytes


def _activation_extent(workload: WorkloadSpec) -> int:
    if workload.mode == "dlm_naive":
        return max(workload.total_len, 1)
    if workload.mode == "dlm_block":
        return max(workload.prompt_len, workload.block_size or 1)
    return max(workload.prompt_len, 1)


def peak_footprint(scenario: Scenario) -> MemoryFootprint:
    """Predicted peak memory of a scenario and whether it fits the device.

    ARM and block-wise diffusion both hold the full-sequence KV cache;
    naive diffusion holds none but streams full-sequence activations.
    """
    validate_workload(scenario.workload, scenario.model)
    return _footprint(scenario)


def _footprint(scenario: Scenario) -> MemoryFootprint:
    """peak_footprint of a scenario whose workload is already validated."""
    m, hw, w = scenario.model, scenario.hardware, scenario.workload
    weights = weight_bytes(m, w.dtype_bytes)
    if w.mode == "dlm_naive":
        kv = 0
    else:
        kv = kv_cache_bytes(m, w.batch, w.total_len, w.dtype_bytes)
    act = activation_bytes(m, w.batch, _activation_extent(w), w.dtype_bytes)
    total = weights + kv + act
    return MemoryFootprint(
        weight_bytes=weights,
        kv_cache_bytes=kv,
        activation_bytes=act,
        total=total,
        fits=total <= hw.mem_capacity,
    )


def max_fitting_batch(model: ModelConfig, hw: HardwareSpec, workload: WorkloadSpec) -> int:
    """Largest batch at which the workload still fits; 0 if none does.

    Footprint is strictly increasing in batch, so a doubling scan followed
    by bisection is exact. The workload is validated once, at batch 1; the
    batch is the only field the probes change.
    """
    validate_workload(replace(workload, batch=1), model)

    def fits(b: int) -> bool:
        probe = Scenario(model=model, hardware=hw, workload=replace(workload, batch=b))
        return _footprint(probe).fits

    if not fits(1):
        return 0
    lo = 1
    while fits(lo * 2):
        lo *= 2
    hi = lo * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo
