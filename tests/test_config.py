import dataclasses
import json

import pytest

from m2i2.config import PRESETS, ModelConfig, TrainConfig, preset
from m2i2.errors import ConfigError


def test_roundtrip_json():
    cfg = TrainConfig(seed=3, dim=32, enable_itc=False)
    again = TrainConfig.from_dict(json.loads(cfg.to_json()))
    assert again == cfg


def test_unknown_key_rejected():
    d = TrainConfig().to_dict()
    d["learning_rate"] = 0.1
    with pytest.raises(ConfigError):
        TrainConfig.from_dict(d)


@pytest.mark.parametrize("text", ["5", "null", '"abc"'])
def test_non_object_json_rejected(text):
    with pytest.raises(ConfigError, match="JSON object"):
        TrainConfig.from_dict(json.loads(text))


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("huge")


def test_validate_lr_order():
    with pytest.raises(ConfigError):
        TrainConfig(lr_init=1e-5, lr_final=1e-4)


def test_validate_itm_needs_pairs():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1, enable_itm=False)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(heads=3),
        dict(image_size=40),
        dict(negative_strategy="hardest"),
        dict(negative_strategy="hardest", enable_itm=False),
        dict(phase="finetune", batch_size=1, enable_itm=False),
        dict(queue_capacity=7, batch_size=8),
        dict(negative_strategy="hard", enable_itc=False),
        dict(text_mask_rate=0.0),
        dict(text_mask_rate=1.0),
        dict(image_mask_rate=0.0),
        dict(image_mask_rate=1.5),
        dict(momentum_m=0.0),
        dict(momentum_m=1.0),
        dict(max_text_len=1),
        dict(max_answer_len=1, phase="finetune"),
        dict(epochs=0),
        dict(epochs=0, phase="finetune"),
    ],
    ids=[
        "heads", "patch", "negatives", "negatives-no-itm", "batch-no-itm",
        "queue-below-batch", "hard-negatives-no-itc", "text-mask-0", "text-mask-1", "image-mask-0",
        "image-mask-above-1", "momentum-0", "momentum-1", "text-len-1", "answer-len-1", "epochs-0",
        "epochs-0-finetune",
    ],
)
def test_validate_rejects_what_training_cannot_run(overrides):
    with pytest.raises(ConfigError):
        TrainConfig(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(phase="finetune", queue_capacity=0, text_mask_rate=0.0, image_mask_rate=1.0, momentum_m=1.0),
        dict(enable_itc=False, queue_capacity=1, momentum_m=1.0),
        dict(queue_capacity=0, enable_itc=False),
        dict(negative_strategy="hard", enable_itm=False),
    ],
    ids=["finetune", "no-itc", "queue-empty-no-itc", "hard-negatives-no-itm"],
)
def test_validate_ignores_keys_the_run_never_reads(overrides):
    TrainConfig(**overrides)


def test_validate_all_objectives_off():
    with pytest.raises(ConfigError):
        TrainConfig(enable_mim=False, enable_mlm=False, enable_itm=False, enable_itc=False)


def test_validate_phase():
    with pytest.raises(ConfigError):
        TrainConfig(phase="transfer")


def test_presets_are_valid():
    for name in PRESETS:
        preset(name)


def test_preset_overrides():
    cfg = preset("test", seed=42, epochs=1)
    assert cfg.seed == 42 and cfg.epochs == 1 and cfg.dim == 16


def test_paper_preset_scale():
    cfg = preset("paper")
    assert cfg.dim == 768
    assert cfg.depth_img_enc == 12
    assert cfg.queue_capacity == 65535
    assert cfg.image_size == 256


def test_model_config_projection():
    cfg = preset("desk")
    mc = cfg.model_config()
    assert mc.dim == cfg.dim
    assert mc.n_patches == (cfg.image_size // cfg.patch_size) ** 2


def test_json_is_flat_and_sorted():
    d = json.loads(TrainConfig().to_json())
    assert all(not isinstance(v, (dict, list)) for v in d.values())
    assert list(d) == sorted(d)


def test_save_load(tmp_path):
    cfg = preset("test", seed=9)
    p = tmp_path / "cfg.json"
    cfg.save(p)
    assert TrainConfig.from_dict(json.loads(p.read_text(encoding="utf-8"))) == cfg


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: TrainConfig(epochs=1.5), "epochs"),
        (lambda: TrainConfig(enable_itc=1), "enable_itc"),
        (lambda: TrainConfig(lr_init=True), "lr_init"),
        (lambda: ModelConfig(dim="64"), "dim"),
        (lambda: ModelConfig(heads=0), "heads"),
        (lambda: ModelConfig(patch_size=0), "patch_size"),
        (lambda: ModelConfig(dim=-64), "dim"),
        (lambda: ModelConfig(depth_fusion=0), "depth_fusion"),
        (lambda: TrainConfig(proj_dim=0), "proj_dim"),
        (lambda: TrainConfig(phase="finetune", vocab_size=-1), "vocab_size"),
        (lambda: ModelConfig(channels=0), "channels"),
        (lambda: ModelConfig(channels=2), "channels"),
    ],
    ids=[
        "float-for-int", "int-for-bool", "bool-for-float", "str-for-int", "heads-0", "patch-0", "dim-negative",
        "depth-0", "proj-0", "vocab-negative", "channels-0", "channels-2",
    ],
)
def test_construction_checks_each_key_type(build, key):
    with pytest.raises(ConfigError, match=repr(key)):
        build()


def test_configs_are_frozen():
    cfg = preset("test")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epochs = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.model_config().dim = 32
    assert cfg == preset("test")


def test_replace_checks_the_variant():
    cfg = preset("test")
    with pytest.raises(ConfigError, match="batch_size"):
        dataclasses.replace(cfg, batch_size=1)
    with pytest.raises(ConfigError, match="heads"):
        dataclasses.replace(cfg.model_config(), heads=3)
    assert dataclasses.replace(cfg, epochs=1).epochs == 1
