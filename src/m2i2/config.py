"""Run configuration: one flat serializable record of every hyperparameter.

ModelConfig declares the model keys and TrainConfig extends it with the
training keys, so each key is declared once. Both are frozen and check every
key's type and value when built, so a config that exists is one a run can
use; dataclasses.replace builds a checked variant. JSON on disk, flat keys
only. Unknown keys are hard errors so configuration drift cannot pass
silently. Presets: "test" (depth-1 smoke scale), "desk" (CPU-trainable
default), "paper" (published depths/sizes; loadable, not expected to run at
desk scale).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    # the phase and, in pretraining, the objectives decide the tensors held
    phase: str = "pretrain"  # pretrain | finetune
    enable_mim: bool = True
    enable_mlm: bool = True
    enable_itm: bool = True
    enable_itc: bool = True
    dim: int = 64
    heads: int = 4
    depth_img_enc: int = 2
    depth_txt_enc: int = 2
    depth_fusion: int = 2
    depth_img_dec: int = 2
    depth_ans_dec: int = 2
    vocab_size: int = 512
    max_text_len: int = 24
    max_answer_len: int = 8
    image_size: int = 64
    patch_size: int = 16
    channels: int = 1
    proj_dim: int = 32

    def __post_init__(self):
        # every field of the built class, TrainConfig's too, before any rule reads one
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _is_a(value, f.type):
                raise ConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")
        if self.phase not in ("pretrain", "finetune"):
            raise ConfigError(f"unknown phase {self.phase!r}")
        for key in _SIZES:
            if getattr(self, key) < 1:
                raise ConfigError(f"config key {key!r} must be >= 1, got {getattr(self, key)}")
        if self.channels not in (1, 3):
            raise ConfigError(f"config key 'channels' must be 1 (grey) or 3 (RGB), got {self.channels}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size:
            raise ConfigError("image_size must be divisible by patch_size")
        # a text row holds CLS and one token; an answer row BOS and one token
        if self.max_text_len < 2 or self.max_answer_len < 2:
            raise ConfigError("max_text_len and max_answer_len must be >= 2")

    def runs(self, owner: str) -> bool:
        """Whether this run trains owner, a key of model.OWNED."""
        if self.phase == "finetune":
            return owner == "finetune"
        return owner != "finetune" and getattr(self, f"enable_{owner}")

    @property
    def grid(self) -> tuple[int, int]:
        g = self.image_size // self.patch_size
        return (g, g)

    @property
    def n_patches(self) -> int:
        r, c = self.grid
        return r * c

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


# the model's sizes and depths, each a count of at least one
_SIZES = (
    "dim", "heads", "depth_img_enc", "depth_txt_enc", "depth_fusion", "depth_img_dec", "depth_ans_dec",
    "vocab_size", "image_size", "patch_size", "proj_dim",
)

# a field's annotation is a string under `from __future__ import annotations`
_KINDS = {"bool": bool, "int": int, "float": float, "str": str}


def _is_a(value, kind: str) -> bool:
    """Whether value fits a field annotated kind. Python's bool is an int, but
    only bool fields take it; float fields also take int."""
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "float":
        return isinstance(value, (int, float))
    return isinstance(value, _KINDS[kind])


@dataclass(frozen=True)
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

    def __post_init__(self):
        super().__post_init__()
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
            return
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
        return cls(**d)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())


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
