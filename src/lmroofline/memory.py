"""Peak-memory footprint model and out-of-memory prediction.

The footprint of a scenario is weights + KV cache + transient activations.
Fitting is a prediction, never an error: a scenario that exceeds capacity
still evaluates, it just carries fits=False. The largest batch that fits is
read off a `batch` sweep axis and its `fits` column.

Activation working set: ACTIVATION_BUFFER_FACTOR * batch * E * max(d_model,
ffn_dim) * dtype_bytes, where E is the largest single-forward query extent
the mode ever runs (prompt length for ARM prefill, floored at the one
token a decode step runs; the full sequence for cache-free naive diffusion;
max(prompt, block) for block-wise diffusion). The factor 2 models
double-buffered layer inputs/outputs; norm and score buffers are ignored.

The functions here take the numbers of a Scenario, which was validated when
it was built, and do not check them again.
"""

from __future__ import annotations

from typing import NamedTuple

from .configs import ModelConfig, Scenario, WorkloadSpec

ACTIVATION_BUFFER_FACTOR = 2


class MemoryFootprint(NamedTuple):
    """Bytes resident at the peak of a scenario's execution."""

    weight_bytes: int
    kv_cache_bytes: int
    activation_bytes: int
    total: int
    fits: bool


def parameter_count(model: ModelConfig) -> int:
    """Weight-matrix parameters: embedding, per-layer projections and MLP, LM head.

    Biases and norm scales are ignored. The LM head is a vocab x d_model
    matrix of its own, not tied to the embedding.
    """
    d = model.d_model
    kv_dim = model.num_kv_heads * model.head_dim
    per_layer = d * d + d * kv_dim + d * kv_dim + d * d
    mlp_mats = 3 if model.mlp_kind == "swiglu" else 2
    per_layer += mlp_mats * d * model.ffn_dim
    embeddings = 2 * model.vocab_size * d
    return embeddings + model.num_layers * per_layer


def weight_bytes(model: ModelConfig, dtype_bytes: int) -> int:
    return dtype_bytes * parameter_count(model)


def kv_cache_bytes(model: ModelConfig, batch: int, total_len: int, dtype_bytes: int) -> int:
    """K and V for every layer, sequence position, and KV head."""
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
    width = max(model.d_model, model.ffn_dim)
    return ACTIVATION_BUFFER_FACTOR * batch * q_extent * width * dtype_bytes


def _activation_extent(workload: WorkloadSpec) -> int:
    if workload.mode == "dlm_naive":
        return workload.total_len
    if workload.mode == "dlm_block":
        return max(workload.prompt_len, workload.block_size)
    return max(workload.prompt_len, 1)  # an empty prompt still decodes one token


def peak_footprint(scenario: Scenario) -> MemoryFootprint:
    """Predicted peak memory of a scenario and whether it fits the device.

    ARM and block-wise diffusion both hold the full-sequence KV cache;
    naive diffusion holds none but streams full-sequence activations.
    """
    m, hw, w = scenario.model, scenario.hardware, scenario.workload
    weights = weight_bytes(m, w.dtype_bytes)
    if w.mode == "dlm_naive":
        kv = 0
    else:
        kv = kv_cache_bytes(m, w.batch, w.total_len, w.dtype_bytes)
    act = activation_bytes(m, w.batch, _activation_extent(w), w.dtype_bytes)
    total = weights + kv + act
    return MemoryFootprint(weights, kv, act, total, total <= hw.mem_capacity)
