"""Model/hardware registries, workload validation, and scenario (de)serialization."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    CountingOptions,
    HardwareSpec,
    ModelConfig,
    ValidationError,
    WorkloadSpec,
    load_grid,
    load_hardware_spec,
    load_model_config,
    load_scenario,
    validate_workload,
)
from lmroofline.configs import (
    echo,
    options_from_dict,
    require_blocks,
    scenario_from_dict,
)
from oracles import Unspellable, nested_list, recursion_depth

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]


def test_llama3_registry_constants():
    # Shape constants of the published LLaMA-3-8B configuration.
    assert LLAMA.num_layers == 32
    assert LLAMA.d_model == 4096
    assert LLAMA.num_heads == 32
    assert LLAMA.num_kv_heads == 8
    assert LLAMA.head_dim == 128
    assert LLAMA.ffn_dim == 14336
    assert LLAMA.vocab_size == 128256
    assert LLAMA.mlp_kind == "swiglu"
    assert LLAMA.attention_kind == "causal_capable"


def test_llada_registry_constants():
    # Shape constants of the published LLaDA-8B configuration.
    assert LLADA.num_layers == 32
    assert LLADA.d_model == 4096
    assert LLADA.num_heads == 32
    assert LLADA.num_kv_heads == 32
    assert LLADA.head_dim == 128
    assert LLADA.ffn_dim == 12288
    assert LLADA.vocab_size == 126464
    assert LLADA.attention_kind == "bidirectional_only"


def test_hardware_registry_constants():
    a6000 = HW_REGISTRY["rtx-a6000"]
    assert a6000.peak_flops == 154.8e12
    assert a6000.mem_bandwidth == 768e9
    assert a6000.mem_capacity == 48e9
    a100 = HW_REGISTRY["a100-80g"]
    assert a100.peak_flops == 312e12
    assert a100.mem_bandwidth == 2.039e12
    assert a100.mem_capacity == 80e9


def test_registry_models_all_pass_validation():
    for name, model in MODEL_REGISTRY.items():
        assert model.name == name
        rebuilt = ModelConfig(**{f: getattr(model, f) for f in model._fields})
        assert rebuilt == model


GOLDEN = Path(__file__).resolve().parent / "golden"


def input_records():
    """One instance of each of the six input records, built afresh from files."""
    scenario = load_scenario(GOLDEN / "analyze_dlm_block.json")
    return {
        "ModelConfig": ModelConfig(**LLAMA._asdict()),
        "HardwareSpec": HardwareSpec(*HW_REGISTRY["rtx-a6000"]),
        "CountingOptions": scenario.workload.options,
        "WorkloadSpec": scenario.workload,
        "Scenario": scenario,
        "SweepGrid": load_grid(GOLDEN / "cli" / "grid_arm.json"),
    }


INPUT_RECORDS = ("CountingOptions", "HardwareSpec", "ModelConfig", "Scenario", "SweepGrid",
                 "WorkloadSpec")


@pytest.mark.parametrize("kind", INPUT_RECORDS)
def test_input_records_are_immutable_values(kind):
    value, again = input_records()[kind], input_records()[kind]
    assert type(value).__name__ == kind
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value == again
    assert hash(value) == hash(again)


def test_record_reprs_are_pinned():
    # As printed when these records were frozen dataclasses.
    assert repr(LLAMA) == (
        "ModelConfig(name='llama3-8b', num_layers=32, d_model=4096, num_heads=32, "
        "num_kv_heads=8, head_dim=128, ffn_dim=14336, vocab_size=128256, "
        "mlp_kind='swiglu', attention_kind='causal_capable')"
    )
    assert repr(load_scenario(GOLDEN / "analyze_dlm_block.json")) == (
        "Scenario(model=ModelConfig(name='llada-8b', num_layers=32, d_model=4096, "
        "num_heads=32, num_kv_heads=32, head_dim=128, ffn_dim=12288, vocab_size=126464, "
        "mlp_kind='swiglu', attention_kind='bidirectional_only'), "
        "hardware=HardwareSpec(name='rtx-a6000', peak_flops=154800000000000.0, "
        "mem_bandwidth=768000000000.0, mem_capacity=48000000000.0), "
        "workload=WorkloadSpec(mode='dlm_block', batch=1, prompt_len=16, gen_len=1000, "
        "steps=1000, block_size=24, dtype_bytes=2, options=CountingOptions("
        "include_lm_head=True, include_cache_refresh=True, count_elementwise_bytes=False, "
        "causal_exact=True, full_kv_each_step=False)))"
    )


def test_a_record_is_a_tuple_of_its_values():
    # Records iterate, unpack and compare as the tuple of their field values.
    name, peak, bandwidth, capacity = HW_REGISTRY["a100-80g"]
    assert (name, peak, bandwidth, capacity) == HW_REGISTRY["a100-80g"]
    assert CountingOptions() == (False, False, False, True, False)
    assert WorkloadSpec("arm", 1, 2, 3).options is WorkloadSpec("arm", 4, 5, 6).options


def test_head_dim_mismatch_rejected():
    with pytest.raises(ValidationError, match="num_heads x head_dim != d_model"):
        ModelConfig(
            name="broken",
            num_layers=1,
            d_model=8,
            num_heads=3,
            num_kv_heads=1,
            head_dim=4,
            ffn_dim=16,
            vocab_size=32,
        )


def test_kv_head_divisibility_rejected():
    with pytest.raises(ValidationError, match="num_kv_heads must divide num_heads"):
        ModelConfig(
            name="broken",
            num_layers=1,
            d_model=16,
            num_heads=4,
            num_kv_heads=3,
            head_dim=4,
            ffn_dim=16,
            vocab_size=32,
        )


@pytest.mark.parametrize(
    "field",
    ["num_layers", "d_model", "num_heads", "num_kv_heads", "head_dim", "ffn_dim", "vocab_size"],
)
def test_nonpositive_model_dimension_rejected(field):
    kwargs = dict(
        name="broken",
        num_layers=1,
        d_model=4,
        num_heads=1,
        num_kv_heads=1,
        head_dim=4,
        ffn_dim=8,
        vocab_size=16,
    )
    kwargs[field] = 0
    with pytest.raises(ValidationError, match=field):
        ModelConfig(**kwargs)


def test_unknown_mlp_kind_rejected():
    with pytest.raises(ValidationError, match="mlp_kind"):
        ModelConfig(
            name="broken",
            num_layers=1,
            d_model=4,
            num_heads=1,
            num_kv_heads=1,
            head_dim=4,
            ffn_dim=8,
            vocab_size=16,
            mlp_kind="relu",
        )


def test_hardware_rejects_nonpositive_rates():
    with pytest.raises(ValidationError, match="peak_flops"):
        HardwareSpec(name="hw", peak_flops=0, mem_bandwidth=1e9, mem_capacity=1e9)
    with pytest.raises(ValidationError, match="mem_bandwidth"):
        HardwareSpec(name="hw", peak_flops=1e12, mem_bandwidth=-1, mem_capacity=1e9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
@pytest.mark.parametrize("field", ["peak_flops", "mem_bandwidth", "mem_capacity"])
def test_hardware_rejects_non_finite_numbers(field, bad):
    # `bad <= 0` is false for NaN and +inf, so a sign check alone lets them through.
    kwargs = dict(name="hw", peak_flops=1e12, mem_bandwidth=1e9, mem_capacity=1e9)
    kwargs[field] = bad
    with pytest.raises(ValidationError, match=field):
        HardwareSpec(**kwargs)


def test_hardware_from_json_rejects_nan(tmp_path):
    # json.load reads the non-standard NaN literal as float("nan").
    path = tmp_path / "hw.json"
    path.write_text(
        '{"name": "hw", "peak_flops": NaN, "mem_bandwidth": 1e9, "mem_capacity": 1e9}'
    )
    with pytest.raises(ValidationError, match="peak_flops"):
        load_hardware_spec(str(path))


@pytest.mark.parametrize("bad", [True, False, 2.0, "2"])
@pytest.mark.parametrize("field", ["batch", "prompt_len", "gen_len", "steps", "block_size",
                                   "dtype_bytes"])
def test_workload_rejects_non_int_values(field, bad):
    # `True in (1, 2, 4)` and `2.0 in (1, 2, 4)` hold, so a membership test
    # alone would take a bool or a float for an int.
    doc = dict(mode="dlm_block", batch=1, prompt_len=4, gen_len=8, steps=8, block_size=2,
               dtype_bytes=2)
    doc[field] = bad
    with pytest.raises(ValidationError, match=field):
        validate_workload(WorkloadSpec(**doc), LLADA)


@pytest.mark.parametrize(
    "field, bad", [("dtype_bytes", 3), ("options", {"causal_exact": True})]
)
def test_workload_rejects_a_value_outside_its_domain(field, bad):
    # Through the Python API an options dict is not read into CountingOptions.
    doc = dict(mode="arm", batch=1, prompt_len=4, gen_len=8)
    doc[field] = bad
    with pytest.raises(ValidationError, match=field):
        validate_workload(WorkloadSpec(**doc), LLAMA)


def test_hardware_allows_zero_capacity():
    hw = HardwareSpec(name="hw", peak_flops=1e12, mem_bandwidth=1e9, mem_capacity=0)
    assert hw.mem_capacity == 0


def test_block_size_exceeding_gen_len_rejected():
    w = WorkloadSpec(mode="dlm_block", batch=1, prompt_len=0, gen_len=128, steps=128, block_size=256)
    with pytest.raises(ValidationError, match="block size exceeds generation length"):
        validate_workload(w, LLADA)


def test_fewer_steps_than_blocks_rejected():
    w = WorkloadSpec(mode="dlm_block", batch=1, prompt_len=0, gen_len=128, steps=2, block_size=32)
    with pytest.raises(ValidationError, match="fewer steps than blocks"):
        validate_workload(w, LLADA)


def test_arm_mode_on_bidirectional_only_model_rejected():
    w = WorkloadSpec(mode="arm", batch=1, prompt_len=4, gen_len=4)
    with pytest.raises(ValidationError, match="bidirectional_only"):
        validate_workload(w, LLADA)


def test_arm_mode_rejects_dlm_only_fields():
    with pytest.raises(ValidationError, match="steps"):
        validate_workload(
            WorkloadSpec(mode="arm", batch=1, prompt_len=4, gen_len=4, steps=4), LLAMA
        )
    with pytest.raises(ValidationError, match="block_size"):
        validate_workload(
            WorkloadSpec(mode="arm", batch=1, prompt_len=4, gen_len=4, block_size=2), LLAMA
        )


def test_dlm_modes_require_steps():
    with pytest.raises(ValidationError, match="steps is required"):
        validate_workload(
            WorkloadSpec(mode="dlm_naive", batch=1, prompt_len=4, gen_len=4), LLADA
        )


@pytest.mark.parametrize("model, fields, message", [
    (LLAMA, dict(mode="arm", steps=4), "steps is only meaningful for dlm modes (mode 'arm')"),
    (LLAMA, dict(mode="arm", block_size=2),
     "block_size is only meaningful for dlm_block (mode 'arm')"),
    (LLAMA, dict(mode="arm", steps=4, block_size=2),
     "steps is only meaningful for dlm modes (mode 'arm')"),
    (LLADA, dict(mode="arm", steps=4, block_size=2),
     "model 'llada-8b' has attention_kind bidirectional_only and cannot run mode 'arm'"),
    (LLADA, dict(mode="dlm_naive", steps=4, block_size=2),
     "block_size is only meaningful for dlm_block (mode 'dlm_naive')"),
    (LLADA, dict(mode="dlm_naive"), "steps is required for mode 'dlm_naive'"),
    (LLADA, dict(mode="dlm_naive", block_size=2), "steps is required for mode 'dlm_naive'"),
    (LLADA, dict(mode="dlm_block", block_size=2), "steps is required for mode 'dlm_block'"),
    (LLADA, dict(mode="dlm_block"), "steps is required for mode 'dlm_block'"),
    (LLADA, dict(mode="dlm_block", steps=4), "block_size is required for mode 'dlm_block'"),
])
def test_each_mode_rule_has_its_exact_message(model, fields, message):
    # A workload that breaks two rules gets the message of the one checked first.
    w = WorkloadSpec(batch=1, prompt_len=4, gen_len=4, **fields)
    with pytest.raises(ValidationError) as excinfo:
        validate_workload(w, model)
    assert str(excinfo.value) == message


def test_zero_gen_len_rejected():
    with pytest.raises(ValidationError, match="gen_len"):
        validate_workload(WorkloadSpec(mode="arm", batch=1, prompt_len=4, gen_len=0), LLAMA)


def test_unknown_mode_rejected():
    with pytest.raises(ValidationError, match="mode"):
        validate_workload(WorkloadSpec(mode="speculative", batch=1, prompt_len=4, gen_len=4), LLAMA)


def test_four_blocks_for_g32_lg128():
    assert require_blocks(gen_len=128, steps=128, block_size=32) == 4


@given(
    gen_len=st.integers(min_value=1, max_value=512),
    block_size=st.integers(min_value=1, max_value=512),
)
def test_block_count_brackets_gen_len(gen_len, block_size):
    if block_size > gen_len:
        block_size = gen_len
    n = require_blocks(gen_len=gen_len, steps=gen_len, block_size=block_size)
    assert n * block_size >= gen_len
    assert (n - 1) * block_size < gen_len


arm_workloads = st.builds(
    WorkloadSpec,
    mode=st.just("arm"),
    batch=st.integers(min_value=1, max_value=64),
    prompt_len=st.integers(min_value=0, max_value=4096),
    gen_len=st.integers(min_value=1, max_value=4096),
    dtype_bytes=st.sampled_from([1, 2, 4]),
    options=st.builds(
        CountingOptions,
        include_lm_head=st.booleans(),
        include_cache_refresh=st.booleans(),
        count_elementwise_bytes=st.booleans(),
        causal_exact=st.booleans(),
    ),
)


@st.composite
def dlm_workloads(draw):
    mode = draw(st.sampled_from(["dlm_naive", "dlm_block"]))
    gen_len = draw(st.integers(min_value=1, max_value=512))
    block_size = None
    if mode == "dlm_block":
        block_size = draw(st.integers(min_value=1, max_value=gen_len))
    w = WorkloadSpec(
        mode=mode,
        batch=draw(st.integers(min_value=1, max_value=64)),
        prompt_len=draw(st.integers(min_value=0, max_value=2048)),
        gen_len=gen_len,
        steps=draw(st.integers(min_value=gen_len, max_value=2 * gen_len)),
        block_size=block_size,
        dtype_bytes=draw(st.sampled_from([1, 2, 4])),
    )
    return w


def workload_document(workload):
    """The scenario fields of a workload, with every option spelled out."""
    document = {**workload._asdict(), "options": workload.options._asdict()}
    return {key: value for key, value in document.items() if value is not None}


def read_workload(doc):
    """The workload of a scenario document of `doc`'s fields, on a model that runs its mode."""
    model = "llama3-8b" if doc["mode"] == "arm" else "llada-8b"
    return scenario_from_dict({"model": model, "hardware": "rtx-a6000", **doc}).workload


@given(workload=st.one_of(arm_workloads, dlm_workloads()))
def test_workload_round_trips_through_dict(workload):
    model = LLAMA if workload.mode == "arm" else LLADA
    validate_workload(workload, model)
    again = read_workload(workload_document(workload))
    assert again == workload


def test_steps_defaults_to_gen_len_for_dlm():
    doc = {"mode": "dlm_naive", "batch": 1, "prompt_len": 16, "gen_len": 64}
    assert read_workload(doc).steps == 64
    doc = {"mode": "dlm_block", "batch": 1, "prompt_len": 16, "gen_len": 64, "block_size": 16}
    assert read_workload(doc).steps == 64


def test_dtype_bytes_defaults_to_fp16():
    doc = {"mode": "arm", "batch": 1, "prompt_len": 16, "gen_len": 64}
    assert read_workload(doc).dtype_bytes == 2


def test_unknown_scenario_field_rejected():
    doc = {
        "model": "llama3-8b",
        "hardware": "rtx-a6000",
        "mode": "arm",
        "batch": 1,
        "prompt_len": 4,
        "gen_len": 4,
        "temperature": 0.7,
    }
    with pytest.raises(ValidationError, match="temperature"):
        scenario_from_dict(doc)


def test_missing_scenario_field_rejected():
    doc = {"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm", "batch": 1}
    with pytest.raises(ValidationError, match="missing field"):
        scenario_from_dict(doc)


def test_scenario_round_trips_by_registry_name():
    doc = {
        "model": "llada-8b",
        "hardware": "a100-80g",
        "mode": "dlm_block",
        "batch": 4,
        "prompt_len": 128,
        "gen_len": 128,
        "steps": 64,
        "block_size": 32,
    }
    scenario = scenario_from_dict(doc)
    assert scenario.model == LLADA
    assert scenario.hardware == HW_REGISTRY["a100-80g"]
    again = scenario_from_dict(
        {"model": "llada-8b", "hardware": "a100-80g", **workload_document(scenario.workload)}
    )
    assert again == scenario


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "model": "llama3-8b",
                "hardware": "rtx-a6000",
                "mode": "arm",
                "batch": 2,
                "prompt_len": 64,
                "gen_len": 32,
            }
        )
    )
    scenario = load_scenario(str(path))
    assert scenario.workload.batch == 2
    assert scenario.workload.total_len == 96


def test_load_scenario_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_scenario(str(path))


def test_unknown_registry_name_rejected():
    with pytest.raises(ValidationError):
        load_model_config("gpt-17")
    with pytest.raises(ValidationError):
        load_hardware_spec("tpu-v9")


def test_model_config_loads_from_json_file(tmp_path):
    path = tmp_path / "model.json"
    doc = {
        "name": "custom",
        "num_layers": 2,
        "d_model": 8,
        "num_heads": 2,
        "num_kv_heads": 1,
        "head_dim": 4,
        "ffn_dim": 16,
        "vocab_size": 32,
        "mlp_kind": "gelu_2mat",
        "attention_kind": "causal_capable",
    }
    path.write_text(json.dumps(doc))
    model = load_model_config(str(path))
    assert model.name == "custom"
    assert model.mlp_kind == "gelu_2mat"


def test_hardware_spec_loads_from_json_file(tmp_path):
    path = tmp_path / "hw.json"
    path.write_text(
        json.dumps(
            {"name": "toy", "peak_flops": 1.0, "mem_bandwidth": 1.0, "mem_capacity": 1.0}
        )
    )
    hw = load_hardware_spec(str(path))
    assert hw.peak_flops == 1.0


def test_options_accept_the_documented_and_the_field_names():
    documented = {"count_lm_head": True, "include_elementwise": True, "full_kv_each_step": True}
    field_names = {
        "include_lm_head": True, "count_elementwise_bytes": True, "full_kv_each_step": True
    }
    expected = CountingOptions(
        include_lm_head=True, count_elementwise_bytes=True, full_kv_each_step=True
    )
    assert options_from_dict(documented) == options_from_dict(field_names) == expected


@pytest.mark.parametrize(
    "documented, field_name",
    [("count_lm_head", "include_lm_head"), ("include_elementwise", "count_elementwise_bytes")],
)
def test_options_reject_one_option_under_both_names(documented, field_name):
    with pytest.raises(ValidationError, match=f"{field_name} twice"):
        options_from_dict({documented: True, field_name: True})


@pytest.mark.parametrize("bad", [1, "true", None])
def test_options_reject_a_non_boolean_value(bad):
    with pytest.raises(ValidationError, match="options.causal_exact must be a boolean"):
        options_from_dict({"causal_exact": bad})


@pytest.mark.parametrize("field", ["batch", "prompt_len", "gen_len"])
def test_workload_rejects_ints_beyond_the_float_range(field):
    doc = dict(mode="arm", batch=1, prompt_len=4, gen_len=8)
    doc[field] = 10**320
    with pytest.raises(ValidationError, match=f"{field} is beyond the float range"):
        validate_workload(WorkloadSpec(**doc), LLAMA)


def test_echo_quotes_a_value_nested_past_the_recursion_limit_by_its_type():
    assert echo(1, Unspellable(k=[])) == "1, <Unspellable nested too deep to quote>"
    depth = recursion_depth(lambda depth: repr(nested_list(depth)))
    if depth is not None:  # repr stops at some depth on this interpreter
        deep = nested_list(depth)
        assert echo(deep) == "<list nested too deep to quote>"
        assert echo(1, {"k": deep}) == "1, <dict nested too deep to quote>"
