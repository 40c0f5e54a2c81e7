"""Run configuration: one flat serializable record of every hyperparameter.

TrainConfig extends the model's ModelConfig with the training keys, so each
key is declared once. JSON on disk, flat keys only. Unknown keys are hard
errors so configuration drift cannot pass silently. Presets: "test" (depth-1
smoke scale), "desk" (CPU-trainable default), "paper" (published
depths/sizes; loadable, not expected to run at desk scale).
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig


@dataclass
class TrainConfig(ModelConfig):
    """The model keys (ModelConfig's fields) plus the training keys below."""

    # run
    seed: int = 0
    epochs: int = 40
    batch_size: int = 8
    # optimizer / schedule
    lr_init: float = 1e-3
    lr_final: float = 1e-4
    weight_decay: float = 0.002
    grad_clip: float = 1.0  # 0 disables (gradient-check mode)
    # masking
    text_mask_rate: float = 0.15
    image_mask_rate: float = 0.15
    # momentum bank
    momentum_m: float = 0.995
    queue_capacity: int = 512
    negative_strategy: str = "uniform"  # uniform | hard

    def validate(self) -> "TrainConfig":
        # fields may have been assigned since construction
        self.model_config()
        if self.lr_final > self.lr_init:
            raise ConfigError("lr_final must be <= lr_init")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # the training loop drops every batch of fewer than 2 samples
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.negative_strategy not in ("uniform", "hard"):
            raise ConfigError(f"unknown negative_strategy {self.negative_strategy!r}")
        if self.phase != "pretrain":
            return self
        if not (self.enable_mim or self.enable_mlm or self.enable_itm or self.enable_itc):
            raise ConfigError("all pretraining objectives disabled")
        for key in ("text_mask_rate", "image_mask_rate"):
            if not 0.0 < getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in (0,1), got {getattr(self, key)}")
        # hard negatives are drawn from the ITC similarities (ALBEF)
        if self.negative_strategy == "hard" and not self.enable_itc:
            raise ConfigError("negative_strategy 'hard' samples from ITC similarities; it needs enable_itc")
        # only ITC reads the momentum and the queue, which each step fills with a batch
        if self.enable_itc and self.queue_capacity < self.batch_size:
            raise ConfigError(f"queue_capacity must be >= {self.batch_size}, got {self.queue_capacity}")
        if self.enable_itc and not 0.0 < self.momentum_m < 1.0:
            raise ConfigError(f"momentum_m must be in (0,1), got {self.momentum_m}")
        return self

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(ModelConfig)})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            if not _is_a(value, _FIELD_TYPES[key]):
                raise ConfigError(f"config key {key!r} must be {_FIELD_TYPES[key].__name__}, got {value!r}")
        return cls(**d).validate()

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())


# resolved once: get_type_hints costs ~30x a whole from_dict call
_FIELD_TYPES: dict[str, type] = typing.get_type_hints(TrainConfig)


def _is_a(value, kind: type) -> bool:
    """Whether value fits a field of type kind. Python's bool is an int, but
    only bool fields take it; float fields also take int."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


PRESETS = {
    "test": dict(
        dim=16,
        heads=2,
        depth_img_enc=1,
        depth_txt_enc=1,
        depth_fusion=1,
        depth_img_dec=1,
        depth_ans_dec=1,
        vocab_size=128,
        max_text_len=16,
        max_answer_len=6,
        image_size=32,
        queue_capacity=16,
        batch_size=4,
        epochs=2,
        proj_dim=8,
    ),
    "desk": dict(),  # the dataclass defaults
    "paper": dict(
        dim=768,
        heads=12,
        depth_img_enc=12,
        depth_txt_enc=6,
        depth_fusion=6,
        depth_img_dec=8,
        depth_ans_dec=6,
        vocab_size=30522,
        max_text_len=64,
        max_answer_len=16,
        image_size=256,
        channels=3,
        proj_dim=256,
        queue_capacity=65535,
        batch_size=32,
        epochs=40,
        lr_init=1e-4,
        lr_final=1e-5,
    ),
}


def preset(name: str, /, **overrides) -> TrainConfig:
    """The named preset over the defaults, then ``overrides`` over that."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return TrainConfig.from_dict({**PRESETS[name], **overrides})
