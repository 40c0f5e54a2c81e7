"""Run configuration: one flat serializable record of every hyperparameter.

JSON on disk, flat keys only. Unknown keys are hard errors so configuration
drift cannot pass silently. Presets: "test" (depth-1 smoke scale), "desk"
(CPU-trainable default), "paper" (published depths/sizes; loadable, not
expected to run at desk scale).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError, ContractError
from .model import ModelConfig


@dataclass
class TrainConfig:
    # run
    phase: str = "pretrain"  # pretrain | finetune
    seed: int = 0
    epochs: int = 40
    batch_size: int = 8
    # optimizer / schedule
    lr_init: float = 1e-3
    lr_final: float = 1e-4
    weight_decay: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0  # 0 disables (gradient-check mode)
    # masking
    text_mask_rate: float = 0.15
    image_mask_rate: float = 0.15
    # momentum bank
    momentum_m: float = 0.995
    queue_capacity: int = 512
    # objective toggles and experimental weights (defaults implement the
    # plain unweighted sum)
    enable_mim: bool = True
    enable_mlm: bool = True
    enable_itm: bool = True
    enable_itc: bool = True
    weight_mim: float = 1.0
    weight_mlm: float = 1.0
    weight_itm: float = 1.0
    weight_itc: float = 1.0
    negative_strategy: str = "uniform"  # uniform | hard
    # model dims
    dim: int = 64
    heads: int = 4
    mlp_ratio: int = 4
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
    answer_cross_mode: str = "full"

    def validate(self) -> "TrainConfig":
        try:
            self.model_config()
        except ContractError as e:
            raise ConfigError(str(e)) from e
        if self.lr_final > self.lr_init:
            raise ConfigError("lr_final must be <= lr_init")
        # the training loop drops every batch of fewer than 2 samples
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.negative_strategy not in ("uniform", "hard"):
            raise ConfigError(f"unknown negative_strategy {self.negative_strategy!r}")
        if self.phase == "pretrain" and not (
            self.enable_mim or self.enable_mlm or self.enable_itm or self.enable_itc
        ):
            raise ConfigError("all pretraining objectives disabled")
        return self

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            phase=self.phase,
            dim=self.dim,
            heads=self.heads,
            mlp_ratio=self.mlp_ratio,
            depth_img_enc=self.depth_img_enc,
            depth_txt_enc=self.depth_txt_enc,
            depth_fusion=self.depth_fusion,
            depth_img_dec=self.depth_img_dec,
            depth_ans_dec=self.depth_ans_dec,
            vocab_size=self.vocab_size,
            max_text_len=self.max_text_len,
            max_answer_len=self.max_answer_len,
            image_size=self.image_size,
            patch_size=self.patch_size,
            channels=self.channels,
            proj_dim=self.proj_dim,
            answer_cross_mode=self.answer_cross_mode,
        )

    def enabled(self) -> dict[str, bool]:
        return {
            "mim": self.enable_mim,
            "mlm": self.enable_mlm,
            "itm": self.enable_itm,
            "itc": self.enable_itc,
        }

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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


def preset(name: str, **overrides) -> TrainConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    d = dict(PRESETS[name])
    d.update(overrides)
    return TrainConfig.from_dict({**TrainConfig().to_dict(), **d})
