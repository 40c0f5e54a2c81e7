"""The pretraining losses (masked-image, masked-language, matching,
contrastive), their unweighted sum, and the conditional LM finetuning loss.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .model import OBJECTIVES
from .momentum import FeatureQueue, check_unit
from .tensor import Tensor, concat, cross_entropy


def mim_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error over masked-patch pixels; 0 when nothing is masked."""
    targets = np.asarray(targets, dtype=np.float64)
    if pred.shape != targets.shape:
        raise ContractError(f"pred shape {pred.shape} != targets {targets.shape}")
    if pred.size == 0:
        return Tensor(0.0)
    return ((pred - Tensor(targets)) ** 2.0).mean()


def mlm_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy over masked-token predictions; 0 when no tokens masked."""
    if logits.shape[0] == 0:
        return Tensor(0.0)
    return cross_entropy(logits, labels)


def itm_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Binary match/no-match cross-entropy on the fused CLS head outputs."""
    if logits.shape[0] == 0:
        raise ContractError("ITM needs a nonempty batch")
    if logits.shape[1] != 2:
        raise ShapeError(f"ITM logits must be 2-class, got {logits.shape}")
    return cross_entropy(logits, labels)


def pair_negatives(
    b: int,
    rng: np.random.Generator,
    strategy: str = "uniform",
    itc_sims: np.ndarray | None = None,
    temperature: float = 0.07,
) -> np.ndarray:
    """For each image i, pick a caption index j != i from the same batch.

    uniform: j uniform over the batch minus i. hard: j drawn proportionally
    to softmax of ITC similarities (row i of itc_sims) over the batch minus i.
    """
    if b < 2:
        raise ContractError("negative pairing needs batch size >= 2")
    out = np.empty(b, dtype=np.int64)
    for i in range(b):
        others = np.concatenate([np.arange(i), np.arange(i + 1, b)])
        if strategy == "uniform":
            out[i] = rng.choice(others)
        elif strategy == "hard":
            if itc_sims is None:
                raise ContractError("hard negative strategy needs itc_sims")
            s = itc_sims[i, others] / temperature
            p = np.exp(s - s.max())
            out[i] = rng.choice(others, p=p / p.sum())
        else:
            raise ConfigError(f"unknown negative strategy {strategy!r}")
    return out


def _info_nce(anchor: Tensor, positive: Tensor, queue_negs: np.ndarray, temp: Tensor) -> Tensor:
    b = anchor.shape[0]
    pos = (anchor * positive).sum(axis=-1, keepdims=True)  # [b,1]
    if queue_negs.shape[0]:
        logits = concat([pos, anchor @ Tensor(queue_negs.T)], axis=1)
    else:
        logits = pos
    return cross_entropy(logits / temp, np.zeros(b, dtype=np.int64))


def itc_loss(
    img_proj: Tensor,
    txt_proj: Tensor,
    img_proj_m: Tensor,
    txt_proj_m: Tensor,
    queue: FeatureQueue,
    temperature: Tensor,
) -> Tensor:
    """Symmetric InfoNCE against momentum positives and queued negatives.

    Image-to-text scores each online image projection against its momentum
    text positive plus the text queue; text-to-image is the mirror. Gradients
    reach only the online projections (momentum inputs are off-tape).
    """
    for v, what in ((img_proj, "image"), (txt_proj, "text"), (img_proj_m, "momentum image"), (txt_proj_m, "momentum text")):
        check_unit(v.data, f"{what} projection")
    img_q, txt_q = queue.negatives()
    i2t = _info_nce(img_proj, txt_proj_m.detach(), txt_q, temperature)
    t2i = _info_nce(txt_proj, img_proj_m.detach(), img_q, temperature)
    return (i2t + t2i) * 0.5


def combined_loss(parts: dict[str, Tensor]) -> Tensor:
    """Unweighted sum of the losses of the objectives that ran, in
    OBJECTIVES order."""
    if not parts or not parts.keys() <= set(OBJECTIVES):
        raise ConfigError(f"combined_loss needs the losses of some of {OBJECTIVES}, got {sorted(parts)}")
    total, *rest = [parts[k] for k in OBJECTIVES if k in parts]
    for loss in rest:
        total = total + loss
    return total


def cond_lm_loss(answer_logits: Tensor, answer_ids: np.ndarray) -> Tensor:
    """Teacher-forced answer loss: mean over positions of -log p(target)."""
    answer_ids = np.asarray(answer_ids, dtype=np.int64)
    if answer_logits.ndim != 2 or answer_logits.shape[0] == 0:
        raise ContractError("cond_lm_loss needs nonempty [positions, vocab] logits")
    return cross_entropy(answer_logits, answer_ids)
