"""m2i2: self-supervised vision-language pretraining and generative VQA.

A desk-scale numpy implementation: its own reverse-mode autodiff tape, a
subword tokenizer, PGM/PPM image handling, five transformer sub-networks,
four pretraining objectives over a momentum feature bank, an AdamW trainer
with bitwise-reproducible checkpoints, and a greedy generative evaluator.
"""

from .config import PRESETS, ModelConfig, TrainConfig, preset
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    NumericsError,
    ShapeError,
)
from .evaluation import EvalReport, attention_map, evaluate, generate_answer, generate_answers
from .model import ModelParams
from .momentum import FeatureQueue, enqueue, momentum_update
from .objectives import (
    combined_loss,
    cond_lm_loss,
    itc_loss,
    itm_loss,
    mim_loss,
    mlm_loss,
)
from .synth import generate_captions, generate_vqa, load_captions, load_vqa
from .tensor import Tensor, cross_entropy, layer_norm, no_grad, softmax
from .text import Vocab, build_vocab, detokenize, extend_vocab, mask_tokens, tokenize
from .trainer import finetune, load_checkpoint, pretrain, restore_model
from .vision import Image, load_image, mask_patches, patchify, resize_bilinear, unpatchify, write_image

__version__ = "0.1.0"

__all__ = [
    "PRESETS",
    "TrainConfig",
    "preset",
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "DataError",
    "NumericsError",
    "ShapeError",
    "EvalReport",
    "attention_map",
    "evaluate",
    "generate_answer",
    "generate_answers",
    "ModelConfig",
    "ModelParams",
    "FeatureQueue",
    "enqueue",
    "momentum_update",
    "combined_loss",
    "cond_lm_loss",
    "itc_loss",
    "itm_loss",
    "mim_loss",
    "mlm_loss",
    "generate_captions",
    "generate_vqa",
    "load_captions",
    "load_vqa",
    "Tensor",
    "cross_entropy",
    "layer_norm",
    "no_grad",
    "softmax",
    "Vocab",
    "build_vocab",
    "detokenize",
    "extend_vocab",
    "mask_tokens",
    "tokenize",
    "finetune",
    "load_checkpoint",
    "pretrain",
    "restore_model",
    "Image",
    "load_image",
    "mask_patches",
    "patchify",
    "resize_bilinear",
    "unpatchify",
    "write_image",
    "__version__",
]
