"""Model, hardware, and workload definitions plus the built-in registries.

Inputs are checked here. Every record the package builds subclasses a
collections.namedtuple and sets `__slots__ = ()`: immutable, with no
per-instance dict. A frozen dataclass is several times dearer to build, as
its __init__ sets each field through object.__setattr__, and a dataclass or
a typing.NamedTuple is dearer to define at import. The one dataclass is
sweep.SweepRow, the public report row, because its callers read it with
dataclasses.asdict (the benchmark's checker among them). A record with
checks runs them in its `__new__`. `_replace` and `_make` build
around `__new__` and check nothing, so the package never calls them: a
changed record is built by calling its class. `validate_workload` holds
every workload invariant, each written once; the integer and block-count
checks are `require_int` and `require_blocks`. A `Scenario` calls
`validate_workload` when it is built, so every Scenario is valid and
nothing downstream checks it again.

The keys of every JSON document are the `_fields` of its record, required
where the field has no default. One loader reads a model or hardware by
registry name or from a file; `read_scenario` reads a scenario document,
and a grid's too; `resolve_workload` is where an unset `steps` gets its
value. `_load_json` reads every input file and `_write_text` writes every
report. An error message quotes input values, names and keys through
`echo`, on one line and cut at ECHO_LIMIT characters.

Registry constants are transcribed from the models' published configuration
files and from vendor datasheets for the GPUs; see the README for the exact
provenance of each entry.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from collections import namedtuple
from collections.abc import Iterable

from .errors import ValidationError

MLP_KINDS = ("swiglu", "gelu_2mat")
ATTENTION_KINDS = ("causal_capable", "bidirectional_only")
MODES = ("arm", "dlm_naive", "dlm_block")
DLM_MODES = ("dlm_naive", "dlm_block")
DTYPE_BYTES_ALLOWED = (1, 2, 4)
MAX_FLOAT = sys.float_info.max


# Characters of input an error message quotes: enough for any int in the
# float range (at most 309 digits) and its sign.
ECHO_LIMIT = 320


def _spelt(spell, value: object) -> str:
    """`spell(value)`, or the value's type where `spell` recurses past the
    recursion limit, as it can on a list just under the JSON parser's depth."""
    try:
        return spell(value)
    except RecursionError:
        return f"<{type(value).__name__} nested too deep to quote>"


def echo(*values: object, quote: str = "'") -> str:
    """Input values, names or keys for an error message, joined by commas and
    cut after ECHO_LIMIT characters: a printable string in `quote`s, anything
    else by its repr, which escapes a newline or an escape sequence.

    So a value as long or as deeply nested as the JSON parser accepts, or a
    name of any length or characters, still gives one short printable line.
    """
    text = ", ".join(f"{quote}{value}{quote}" if isinstance(value, str) and value.isprintable()
                     else _spelt(repr, value) for value in values)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def require_int(name: str, value: object, minimum: int) -> int:
    """Return value if it is an int >= minimum, else raise naming `name`.

    A bool is not accepted as an int, and neither is an integral float. An
    int beyond the float range is rejected too: every count ends up in a
    float result, which could not hold it.
    """
    if type(value) is not int or not minimum <= value <= MAX_FLOAT:
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValidationError(f"{name} must be an integer >= {minimum} (got {echo(value)})")
        if value > MAX_FLOAT:
            raise ValidationError(f"{name} is beyond the float range (> {MAX_FLOAT:.4g})")
    return value


def _is_finite_number(value: object) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _require_name(name: object) -> None:
    """A model or hardware name is a nonempty printable string: reports quote it."""
    if not name or not isinstance(name, str):
        raise ValidationError(f"name must be a nonempty string (got {echo(name)})")
    if not name.isprintable():
        raise ValidationError(f"name must be printable (got {echo(name)})")


class ModelConfig(namedtuple("ModelConfig", (
        "name", "num_layers", "d_model", "num_heads", "num_kv_heads", "head_dim", "ffn_dim",
        "vocab_size", "mlp_kind", "attention_kind"), defaults=("swiglu", "causal_capable"))):
    """Shape constants of a decoder-style transformer."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> ModelConfig:
        self = super().__new__(cls, *args, **kwargs)
        _require_name(self.name)
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
                f"mlp_kind must be one of {MLP_KINDS} (got {echo(self.mlp_kind)})"
            )
        if self.attention_kind not in ATTENTION_KINDS:
            raise ValidationError(
                f"attention_kind must be one of {ATTENTION_KINDS} "
                f"(got {echo(self.attention_kind)})"
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
        return self


class HardwareSpec(namedtuple("HardwareSpec", (
        "name", "peak_flops", "mem_bandwidth", "mem_capacity"))):
    """Peak compute, bandwidth, and capacity of one accelerator."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> HardwareSpec:
        self = super().__new__(cls, *args, **kwargs)
        _require_name(self.name)
        for fname in ("peak_flops", "mem_bandwidth"):
            value = getattr(self, fname)
            if not _is_finite_number(value) or value <= 0:
                raise ValidationError(
                    f"{fname} must be a positive finite number (got {echo(value)})"
                )
        name, peak, bandwidth, cap = self
        if not _is_finite_number(cap) or cap < 0:
            raise ValidationError(f"mem_capacity must be a finite number >= 0 (got {echo(cap)})")
        # Peaks as floats, so equal specs time alike: an int peak would divide
        # the int FLOPs exactly, where the equal float rounds them first.
        return super().__new__(cls, name, float(peak), float(bandwidth), cap)


class CountingOptions(namedtuple("CountingOptions", (
        "include_lm_head", "include_cache_refresh", "count_elementwise_bytes", "causal_exact",
        "full_kv_each_step"), defaults=(False, False, False, True, False))):
    """Switches for the optional cost terms, all booleans.

    Defaults reproduce the bare counting conventions: no LM head, no
    cache-refresh passes, no elementwise traffic, exact triangular causal
    pair counting, and dlm_block refinement attending only to the prompt and
    the blocks decoded so far (`full_kv_each_step` charges the whole
    prompt+generation length instead).
    """

    __slots__ = ()


class WorkloadSpec(namedtuple("WorkloadSpec", (
        "mode", "batch", "prompt_len", "gen_len", "steps", "block_size", "dtype_bytes",
        "options"), defaults=(None, None, 2, CountingOptions()))):
    """One decoding workload: mode, shape of the request, and step budget.

    `steps` is the number of refinement steps for the diffusion modes and
    must be absent for `arm`. `block_size` is only meaningful for
    `dlm_block`. Every workload without options shares one default
    CountingOptions. The record does not check itself: a Scenario does.
    """

    __slots__ = ()

    @property
    def total_len(self) -> int:
        """Full sequence length: prompt plus generation."""
        return self.prompt_len + self.gen_len


def require_blocks(gen_len: int, steps: int, block_size: int) -> int:
    """Number of dlm_block blocks, after checking that each block fits the
    generation and gets at least one refinement step."""
    if block_size > gen_len:
        raise ValidationError(
            f"block size exceeds generation length (block_size {block_size} > gen_len {gen_len})"
        )
    num_blocks = -(-gen_len // block_size)
    if steps < num_blocks:
        raise ValidationError(
            f"fewer steps than blocks ({steps} < {num_blocks}); "
            "every block needs at least one refinement step"
        )
    return num_blocks


def validate_workload(workload: WorkloadSpec, model: ModelConfig) -> WorkloadSpec:
    """Check every workload invariant against the model; return the workload.

    Each violation is reported individually with the offending field named.
    """
    w = workload
    if w.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES} (got {echo(w.mode)})")
    require_int("batch", w.batch, 1)
    require_int("prompt_len", w.prompt_len, 0)
    require_int("gen_len", w.gen_len, 1)
    if require_int("dtype_bytes", w.dtype_bytes, 1) not in DTYPE_BYTES_ALLOWED:
        raise ValidationError(
            f"dtype_bytes must be one of {DTYPE_BYTES_ALLOWED} (got {echo(w.dtype_bytes)})"
        )
    if not isinstance(w.options, CountingOptions):
        raise ValidationError(f"options must be CountingOptions (got {type(w.options)})")

    if w.mode == "arm":
        if model.attention_kind == "bidirectional_only":
            raise ValidationError(f"model {echo(model.name)} has attention_kind "
                                  "bidirectional_only and cannot run mode 'arm'")
        if w.steps is not None:
            raise ValidationError("steps is only meaningful for dlm modes (mode 'arm')")
    elif w.steps is None:
        raise ValidationError(f"steps is required for mode '{w.mode}'")
    else:
        require_int("steps", w.steps, 1)

    if w.mode != "dlm_block":
        if w.block_size is not None:
            raise ValidationError(f"block_size is only meaningful for dlm_block (mode '{w.mode}')")
    elif w.block_size is None:
        raise ValidationError("block_size is required for mode 'dlm_block'")
    else:
        require_int("block_size", w.block_size, 1)
        require_blocks(w.gen_len, w.steps, w.block_size)
    return w


class Scenario(namedtuple("Scenario", ("model", "hardware", "workload"))):
    """A fully resolved analysis request: model + hardware + workload.

    Building one validates the workload against the model, so a Scenario
    that exists is valid.
    """

    __slots__ = ()

    def __new__(
        cls, model: ModelConfig, hardware: HardwareSpec, workload: WorkloadSpec
    ) -> Scenario:
        validate_workload(workload, model)
        return tuple.__new__(cls, (model, hardware, workload))


# Shape constants from the published model configs:
#   llama3-8b : meta-llama/Meta-Llama-3-8B config.json
#   llada-8b  : GSAI-ML/LLaDA-8B-Base config.json (bidirectional denoiser,
#               full multi-head attention, no KV grouping)
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict; a key given twice is an error, not a silent overwrite."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValidationError(f"repeated key {echo(next(k for k in doc if keys.count(k) > 1))}")
    return doc


# One decoder for every load: json.load given a hook builds a decoder per
# call, whose scanner refers back to it, so each would wait for the cycle
# collector.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return _DECODER.decode(handle.read())
        # Bad syntax, a repeated key, an int beyond Python's digit limit, or
        # nesting deeper than the parser recurses.
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid JSON in {echo(path, quote='')}: {exc}") from exc


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write `chunks` to path as UTF-8 over what it held, then cut it where they end.

    Every report goes through here, with "\\n" untranslated, so its bytes are
    the same on every platform. The file is opened without O_TRUNC, so
    an existing one keeps its inode, mode and links, and is written in
    place: on ext4 (`auto_da_alloc`), writing into a file just truncated to
    zero and closing it costs about ten times as much. Writing stops at the
    end or at an error; a regular file is then cut at the position reached,
    so it holds exactly what was written. Anything else, such as
    /dev/stdout on a pipe or /dev/null, cannot be cut and is not. A process
    killed mid-write leaves the new text followed by the old file's tail.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8",
              newline="") as handle:
        try:
            handle.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()


def _document_keys(*classes: type) -> dict[str, bool]:
    """Key -> required for a document of `classes`' fields: those without a default."""
    return {name: name not in cls._field_defaults for cls in classes for name in cls._fields}


def _check_keys(doc: object, keys: dict[str, bool], context: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"{context} must be a JSON object (got {type(doc).__name__})")
    unknown = doc.keys() - keys
    if unknown:
        raise ValidationError(f"unknown field(s) in {context}: {echo(*sorted(unknown), quote='')}")
    missing = [name for name, required in keys.items() if required and name not in doc]
    if missing:
        raise ValidationError(f"missing field(s) in {context}: {', '.join(sorted(missing))}")


def _load(name: object, base_dir: str | None, registry: dict, cls: type, context: str) -> object:
    """Resolve the string `name` by registry name, or load a JSON document of
    `cls`'s fields from the file it names (relative to `base_dir`, if given)."""
    if not isinstance(name, str):
        raise ValidationError(
            f"{context.split()[0]} must be a registry name or a file path (got {echo(name)})")
    if name in registry:
        return registry[name]
    path = os.path.join(base_dir or "", name)  # an absolute name stays as it is
    # Anything but a directory names a document (os.path.isfile would reject
    # the pipe a shell's <(...) names).
    if not os.path.exists(path) or os.path.isdir(path):
        raise ValidationError(
            f"unknown {context.split()[0]} {echo(name)} (registry: {', '.join(sorted(registry))}) "
            "and no such file"
        )
    doc = _load_json(path)
    _check_keys(doc, _document_keys(cls), context)
    return cls(**doc)


def load_model_config(source: str, base_dir: str | None = None) -> ModelConfig:
    """Resolve a model by registry name, or load it from a JSON file path."""
    return _load(source, base_dir, MODEL_REGISTRY, ModelConfig, "model config")


def load_hardware_spec(source: str, base_dir: str | None = None) -> HardwareSpec:
    """Resolve hardware by registry name, or load it from a JSON file path."""
    return _load(source, base_dir, HW_REGISTRY, HardwareSpec, "hardware spec")


# The README's names for two options; the field names stay accepted too.
_OPTION_ALIASES = {
    "count_lm_head": "include_lm_head",
    "include_elementwise": "count_elementwise_bytes",
}
_OPTION_KEYS = {**_document_keys(CountingOptions), **dict.fromkeys(_OPTION_ALIASES, False)}


def options_from_dict(doc: dict) -> CountingOptions:
    _check_keys(doc, _OPTION_KEYS, "options")
    values = {}
    for key, value in doc.items():
        if not isinstance(value, bool):
            raise ValidationError(f"options.{key} must be a boolean (got {echo(value)})")
        name = _OPTION_ALIASES.get(key, key)
        if name in values:
            raise ValidationError(f"options give {name} twice, under two names")
        values[name] = value
    return CountingOptions(**values)


# A scenario document names its model and hardware and spells out the
# workload's fields in place of a `workload` object.
_SCENARIO_KEYS = _document_keys(Scenario, WorkloadSpec)
del _SCENARIO_KEYS["workload"]


def read_scenario(
    doc: object, context: str, base_dir: str | None
) -> tuple[ModelConfig, HardwareSpec, WorkloadSpec]:
    """The model, hardware and unresolved workload of a scenario document.

    The workload is not validated here, and its `steps` is left as given:
    `resolve_workload` fills an unset one in.
    """
    _check_keys(doc, _SCENARIO_KEYS, context)
    workload = dict(doc)
    model = load_model_config(workload.pop("model"), base_dir)
    hardware = load_hardware_spec(workload.pop("hardware"), base_dir)
    workload["options"] = options_from_dict(doc.get("options", {}))
    return model, hardware, WorkloadSpec(**workload)


_MODE, _GEN_LEN, _STEPS = map(WorkloadSpec._fields.index, ("mode", "gen_len", "steps"))


def resolve_workload(base: WorkloadSpec, slots: Iterable[tuple[int, object]] = ()) -> WorkloadSpec:
    """`base` with each (slot, value) pair's field set, a slot being the field's
    index in WorkloadSpec. An unset diffusion `steps` becomes the resolved
    `gen_len`: every generated token refined once per step on average.

    A list display, not `_replace`: test_grid_points_leave_no_spare_objects_on_the_free_lists."""
    values = [*base]
    for slot, value in slots:
        values[slot] = value
    if values[_STEPS] is None and values[_MODE] in DLM_MODES:
        values[_STEPS] = values[_GEN_LEN]
    return WorkloadSpec(*values)


def scenario_from_dict(doc: dict, base_dir: str | None = None) -> Scenario:
    model, hardware, workload = read_scenario(doc, "scenario", base_dir)
    return Scenario(model=model, hardware=hardware, workload=resolve_workload(workload))


def load_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario JSON file."""
    return scenario_from_dict(_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))
