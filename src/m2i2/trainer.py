"""Optimizer, learning-rate schedule, training loops, and checkpointing.

One training thread owns parameters, optimizer moments, momentum copies, and
the feature queue. Every stochastic choice is driven by a generator derived
from (seed, purpose, step-or-epoch), so runs are bitwise reproducible and a
checkpoint taken at an epoch boundary resumes to exactly the same trajectory.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import CheckpointError, ConfigError, ContractError, NumericsError
from .model import (
    PHASE_ONLY,
    ModelParams,
    decode_answer,
    decode_image,
    encode_image,
    encode_text,
    fuse,
    interpolate_positional,
    itm_logits,
    mlm_logits,
    project_itc,
)
from .momentum import FeatureQueue, enqueue, momentum_update
from .objectives import (
    combined_loss,
    cond_lm_loss,
    itc_loss,
    itm_loss,
    mim_loss,
    mlm_loss,
    pair_negatives,
)
from .synth import CaptionSample, VqaSample
from .tensor import Tensor, concat, cross_entropy
from .text import BOS, EOS, PAD, Vocab, build_vocab, encode_plain, extend_vocab, mask_tokens, tokenize
from .vision import Image, augment, load_image, mask_patches, patchify

CKPT_MAGIC = b"M2I2"
CKPT_VERSION = 2
TEMP_MIN, TEMP_MAX = 0.01, 0.5


# ---- optimizer -----------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def cosine_lr(step: int, total_steps: int, lr_init: float, lr_final: float) -> float:
    if total_steps <= 0:
        raise ConfigError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return lr_final + (lr_init - lr_final) * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def adamw_step(
    mp: ModelParams,
    state: AdamState,
    lr: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Decoupled weight decay, then bias-corrected Adam, in place."""
    state.t += 1
    t = state.t
    for name, p in mp.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if np.isnan(g).any():
            raise NumericsError(f"NaN gradient on parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        p.data = p.data - lr * weight_decay * p.data
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        mhat = state.m[name] / (1 - beta1**t)
        vhat = state.v[name] / (1 - beta2**t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)


def clip_global_norm(mp: ModelParams, max_norm: float) -> float:
    total = 0.0
    for p in mp.params.values():
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in mp.params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# ---- checkpoints ---------------------------------------------------------


def _write_array(f, name: str, a: np.ndarray) -> None:
    nb = name.encode("utf-8")
    f.write(struct.pack("<H", len(nb)))
    f.write(nb)
    f.write(struct.pack("<B", a.ndim))
    for d in a.shape:
        f.write(struct.pack("<I", d))
    f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_array(f) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<H", f.read(2))
    name = f.read(nlen).decode("utf-8")
    (ndim,) = struct.unpack("<B", f.read(1))
    shape = tuple(struct.unpack("<I", f.read(4))[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(shape)
    return name, data.astype(np.float64)


def save_checkpoint(
    path,
    cfg: TrainConfig,
    mp: ModelParams,
    adam: AdamState,
    queue: FeatureQueue | None,
    vocab: Vocab,
    step: int,
    epoch: int,
) -> None:
    meta = {
        "config": cfg.to_dict(),
        "step": step,
        "epoch": epoch,
        "adam_t": adam.t,
        "queue": None
        if queue is None
        else {"capacity": queue.capacity, "proj_dim": queue.proj_dim, "write_ptr": queue.write_ptr, "filled": queue.filled},
        "vocab": vocab.tokens,
    }
    arrays: dict[str, np.ndarray] = {}
    for name, t in mp.params.items():
        arrays[f"param/{name}"] = t.data
    for name, t in mp.momentum.items():
        arrays[f"mom/{name}"] = t.data
    for name, a in adam.m.items():
        arrays[f"adam_m/{name}"] = a
    for name, a in adam.v.items():
        arrays[f"adam_v/{name}"] = a
    if queue is not None:
        arrays["queue/img"] = queue.img_slots
        arrays["queue/txt"] = queue.txt_slots
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            _write_array(f, name, arrays[name])


@dataclass
class Checkpoint:
    config: TrainConfig
    meta: dict
    arrays: dict[str, np.ndarray]

    @property
    def step(self) -> int:
        return self.meta["step"]

    @property
    def vocab(self) -> Vocab:
        return Vocab(list(self.meta["vocab"]))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed or truncated file raises CheckpointError."""
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        try:
            (version,) = struct.unpack("<I", f.read(4))
            if version != CKPT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            (mlen,) = struct.unpack("<Q", f.read(8))
            meta = json.loads(f.read(mlen).decode("utf-8"))
            (n,) = struct.unpack("<I", f.read(4))
            arrays = dict(_read_array(f) for _ in range(n))
            return Checkpoint(TrainConfig.from_dict(meta["config"]), meta, arrays)
        except CheckpointError:
            raise
        # short reads fail in struct or numpy; bad bytes in UTF-8, JSON or the config
        except (struct.error, ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"{path} is truncated or malformed: {e}") from e


def restore_model(ckpt: Checkpoint, cfg: TrainConfig) -> tuple[ModelParams, AdamState, FeatureQueue | None]:
    """Rebuild model/optimizer/queue state exactly as saved."""
    mp = ModelParams(cfg.model_config(), np.random.default_rng([cfg.seed, 0x11]))
    bad = []
    for kind, tensors in (("param", mp.params), ("mom", mp.momentum)):
        for name, t in tensors.items():
            key = f"{kind}/{name}"
            if key not in ckpt.arrays or ckpt.arrays[key].shape != t.data.shape:
                bad.append(key)
            else:
                t.data = ckpt.arrays[key].copy()
    if bad:
        raise CheckpointError(f"checkpoint incompatible with config; offending tensors: {bad}")
    adam = AdamState(t=ckpt.meta["adam_t"])
    for key, a in ckpt.arrays.items():
        if key.startswith("adam_m/"):
            adam.m[key[len("adam_m/"):]] = a.copy()
        elif key.startswith("adam_v/"):
            adam.v[key[len("adam_v/"):]] = a.copy()
    queue = None
    if ckpt.meta["queue"] is not None:
        qm = ckpt.meta["queue"]
        queue = FeatureQueue(qm["capacity"], qm["proj_dim"])
        queue.img_slots = ckpt.arrays["queue/img"].copy()
        queue.txt_slots = ckpt.arrays["queue/txt"].copy()
        queue.write_ptr = qm["write_ptr"]
        queue.filled = qm["filled"]
    return mp, adam, queue


def init_from_pretrained(mp: ModelParams, ckpt: Checkpoint) -> None:
    """Copy the tensors a finetune model shares with a pretrain checkpoint
    (encoders and fusion); the answer decoder stays fresh.

    Image positional embeddings are bilinearly interpolated when the
    finetuning resolution differs from the pretraining one.
    """
    if ckpt.config.phase != "pretrain":
        raise CheckpointError(f"expected a pretrain checkpoint, got a {ckpt.config.phase} one")
    old_grid = ckpt.config.model_config().grid
    bad = []
    for name, t in mp.params.items():
        if name.startswith(PHASE_ONLY["finetune"]):
            continue
        src = ckpt.arrays.get(f"param/{name}")
        if src is None:
            bad.append(name)
        elif name == "img_pos" and src.shape != t.data.shape:
            t.data = interpolate_positional(src, old_grid, mp.cfg.grid)
        elif src.shape != t.data.shape:
            bad.append(name)
        else:
            t.data = src.copy()
    if bad:
        raise CheckpointError(f"pretrain checkpoint incompatible; offending tensors: {bad}")


# ---- metrics -------------------------------------------------------------


class MetricsLog:
    def __init__(self, path):
        self.path = path
        self._f = open(path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._f.write(json.dumps(record, sort_keys=True) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


# ---- batch assembly ------------------------------------------------------


@dataclass
class PretrainBatch:
    visible: np.ndarray  # [b, n_vis, patch_dim]
    positions: np.ndarray  # [b, n_vis]
    mask_positions: np.ndarray  # [b, k]
    mask_targets: np.ndarray  # [b, k, patch_dim]
    ids: np.ndarray  # [b, L] masked token ids
    mlm_batch_idx: np.ndarray
    mlm_positions: np.ndarray
    mlm_labels: np.ndarray


def make_pretrain_batch(
    images: list[Image],
    token_ids: list[np.ndarray],
    cfg: TrainConfig,
    vocab: Vocab,
    rng: np.random.Generator,
) -> PretrainBatch:
    vis, pos, mpos, mtgt, ids = [], [], [], [], []
    bidx, mlm_pos, mlm_lab = [], [], []
    for i, (img, toks) in enumerate(zip(images, token_ids)):
        img = augment(img, cfg.image_size, rng)
        mp_ = mask_patches(patchify(img, cfg.patch_size), cfg.image_mask_rate, rng)
        vis.append(mp_.patches[mp_.visible_positions])
        pos.append(mp_.visible_positions)
        mpos.append(mp_.mask_positions)
        mtgt.append(mp_.mask_targets)
        mt = mask_tokens(toks, vocab, cfg.text_mask_rate, rng)
        ids.append(mt.ids)
        bidx.extend([i] * len(mt.mask_positions))
        mlm_pos.extend(mt.mask_positions)
        mlm_lab.extend(mt.mask_labels)
    return PretrainBatch(
        np.stack(vis),
        np.stack(pos),
        np.stack(mpos),
        np.stack(mtgt),
        np.stack(ids),
        np.array(bidx, dtype=np.int64),
        np.array(mlm_pos, dtype=np.int64),
        np.array(mlm_lab, dtype=np.int64),
    )


def pretrain_losses(
    mp: ModelParams,
    cfg: TrainConfig,
    batch: PretrainBatch,
    queue: FeatureQueue,
    rng: np.random.Generator,
) -> tuple[dict[str, Tensor], tuple[np.ndarray, np.ndarray] | None]:
    """Forward pass for all enabled objectives.

    Returns the loss parts and, when ITC ran, the momentum projections to
    enqueue after the optimizer step.
    """
    b = batch.visible.shape[0]
    img_feats = encode_image(mp, batch.visible, batch.positions)
    txt_feats = encode_text(mp, batch.ids)
    parts: dict[str, Tensor] = {k: Tensor(0.0) for k in ("mim", "mlm", "itm", "itc")}
    mom_projs = None

    fused = None
    if cfg.enable_mlm or cfg.enable_itm:
        fused = fuse(mp, txt_feats, img_feats, batch.ids)

    if cfg.enable_mim:
        pred = decode_image(mp, img_feats, batch.positions, batch.mask_positions)
        parts["mim"] = mim_loss(pred, batch.mask_targets)
    if cfg.enable_mlm:
        logits = mlm_logits(mp, fused, batch.mlm_batch_idx, batch.mlm_positions)
        parts["mlm"] = mlm_loss(logits, batch.mlm_labels)

    img_proj = txt_proj = None
    if cfg.enable_itc or cfg.negative_strategy == "hard":
        img_proj = project_itc(mp, img_feats[:, 0, :], "img")
        txt_proj = project_itc(mp, txt_feats[:, 0, :], "txt")

    if cfg.enable_itm:
        if b < 2:
            raise ContractError("ITM needs batch size >= 2")
        sims = None
        if cfg.negative_strategy == "hard":
            sims = img_proj.data @ txt_proj.data.T
        j = pair_negatives(b, rng, cfg.negative_strategy, sims)
        fused_neg = fuse(mp, txt_feats[j], img_feats, batch.ids[j])
        joint = concat([fused[:, 0, :], fused_neg[:, 0, :]], axis=0)
        labels = np.concatenate([np.ones(b, dtype=np.int64), np.zeros(b, dtype=np.int64)])
        parts["itm"] = itm_loss(itm_logits(mp, joint), labels)

    if cfg.enable_itc:
        img_feats_m = encode_image(mp, batch.visible, batch.positions, use_momentum=True)
        txt_feats_m = encode_text(mp, batch.ids, use_momentum=True)
        img_proj_m = project_itc(mp, img_feats_m[:, 0, :], "img", use_momentum=True)
        txt_proj_m = project_itc(mp, txt_feats_m[:, 0, :], "txt", use_momentum=True)
        parts["itc"] = itc_loss(
            img_proj, txt_proj, img_proj_m, txt_proj_m, queue,
            mp.params["itc.log_temp"].exp(),
        )
        mom_projs = (img_proj_m.data.copy(), txt_proj_m.data.copy())

    weights = {"mim": cfg.weight_mim, "mlm": cfg.weight_mlm, "itm": cfg.weight_itm, "itc": cfg.weight_itc}
    for k, w in weights.items():
        if w != 1.0:
            parts[k] = parts[k] * w
    return parts, mom_projs


def _epoch_batches(n: int, cfg: TrainConfig, epoch: int) -> list[np.ndarray]:
    order = np.random.default_rng([cfg.seed, 0xE, epoch]).permutation(n)
    out = []
    for i in range(0, n, cfg.batch_size):
        chunk = order[i : i + cfg.batch_size]
        if len(chunk) >= 2:
            out.append(chunk)
    return out


def _clamp_temperature(mp: ModelParams) -> None:
    lt = mp.params["itc.log_temp"]
    lt.data = np.clip(lt.data, math.log(TEMP_MIN), math.log(TEMP_MAX))


def pretrain(
    cfg: TrainConfig,
    samples: list[CaptionSample],
    data_root,
    out_dir,
    resume_from=None,
    stop_after_epoch: int | None = None,
) -> str:
    """Run the self-supervised pretraining loop; returns the checkpoint path.

    stop_after_epoch simulates an interruption: the loop exits after that
    epoch's checkpoint while the lr schedule still spans cfg.epochs.
    """
    cfg.validate()
    if cfg.phase != "pretrain":
        raise ConfigError(f"pretrain() needs a pretrain config, got phase {cfg.phase!r}")
    if not samples:
        raise ConfigError("empty caption dataset")
    os.makedirs(out_dir, exist_ok=True)
    cfg.save(os.path.join(out_dir, "config.json"))

    images = [load_image(os.path.join(data_root, s.image), channels=cfg.channels) for s in samples]

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        vocab = ckpt.vocab
        mp, adam, queue = restore_model(ckpt, cfg)
        step = ckpt.meta["step"]
        start_epoch = ckpt.meta["epoch"] + 1
    else:
        vocab = build_vocab([s.caption for s in samples], cfg.vocab_size)
        mp = ModelParams(cfg.model_config(), np.random.default_rng([cfg.seed, 0x11]))
        adam = AdamState()
        queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
        step = 0
        start_epoch = 0
    vocab.save(os.path.join(out_dir, "vocab.txt"))

    token_ids = [tokenize(s.caption, vocab, cfg.max_text_len) for s in samples]
    total_steps = cfg.epochs * len(_epoch_batches(len(samples), cfg, 0))
    log = MetricsLog(os.path.join(out_dir, "metrics.jsonl"))
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")

    for epoch in range(start_epoch, cfg.epochs):
        for batch_idx in _epoch_batches(len(samples), cfg, epoch):
            t0 = time.monotonic()
            rng = np.random.default_rng([cfg.seed, 0x5, step])
            batch = make_pretrain_batch(
                [images[i] for i in batch_idx], [token_ids[i] for i in batch_idx], cfg, vocab, rng
            )
            lr = cosine_lr(step, total_steps, cfg.lr_init, cfg.lr_final)
            mp.zero_grads()
            parts, mom_projs = pretrain_losses(mp, cfg, batch, queue, rng)
            total, report = combined_loss(parts, cfg.enabled())
            total.backward()
            clip_global_norm(mp, cfg.grad_clip)
            adamw_step(mp, adam, lr, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.adam_eps)
            _clamp_temperature(mp)
            if cfg.enable_itc:
                momentum_update(mp, cfg.momentum_m)
                enqueue(queue, *mom_projs)
            step += 1
            log.write(
                {
                    "step": step,
                    "epoch": epoch,
                    "lr": lr,
                    "mim": report.mim,
                    "mlm": report.mlm,
                    "itm": report.itm,
                    "itc": report.itc,
                    "total": report.total,
                    "wall_ms": round((time.monotonic() - t0) * 1e3, 3),
                }
            )
        save_checkpoint(ckpt_path, cfg, mp, adam, queue, vocab, step, epoch)
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            break
    log.close()
    return ckpt_path


# ---- finetuning ----------------------------------------------------------


def answer_targets(answer: str, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Teacher-forcing pair: prefix [BOS, y...] and targets [y..., EOS], padded."""
    y = encode_plain(answer, vocab)[: max_len - 1]
    prefix = [BOS] + y + [PAD] * (max_len - 1 - len(y))
    target = y + [EOS] + [PAD] * (max_len - 1 - len(y))
    return np.array(prefix, dtype=np.int64), np.array(target, dtype=np.int64), len(y) + 1


def vqa_forward_loss(
    mp: ModelParams,
    cfg: TrainConfig,
    images: list[Image],
    question_ids: np.ndarray,
    answers: list[str],
    vocab: Vocab,
) -> Tensor:
    """Teacher-forced conditional LM loss for a VQA batch (full images)."""
    vis, pos = [], []
    for img in images:
        p = patchify(augment(img, cfg.image_size, train=False), cfg.patch_size)
        vis.append(p.patches)
        pos.append(np.arange(p.n_patches))
    img_feats = encode_image(mp, np.stack(vis), np.stack(pos))
    txt_feats = encode_text(mp, question_ids)
    fused = fuse(mp, txt_feats, img_feats, question_ids)
    prefixes, targets, lens = [], [], []
    for a in answers:
        pre, tgt, n = answer_targets(a, vocab, cfg.max_answer_len)
        prefixes.append(pre)
        targets.append(tgt)
        lens.append(n)
    logits = decode_answer(mp, fused, question_ids, np.stack(prefixes))
    b_idx = np.concatenate([np.full(n, i) for i, n in enumerate(lens)])
    p_idx = np.concatenate([np.arange(n) for n in lens])
    flat = logits[b_idx, p_idx]
    flat_targets = np.concatenate([t[:n] for t, n in zip(targets, lens)])
    return cond_lm_loss(flat, flat_targets)


def finetune(
    cfg: TrainConfig,
    samples: list[VqaSample],
    data_root,
    out_dir,
    init_checkpoint=None,
    resume_from=None,
    stop_after_epoch: int | None = None,
) -> str:
    """Finetune for generative VQA; returns the checkpoint path.

    init_checkpoint: pretrain checkpoint to initialize encoders from; None
    trains from random initialization (the without-pretraining ablation).
    """
    cfg.validate()
    if cfg.phase != "finetune":
        raise ConfigError(f"finetune() needs a finetune config, got phase {cfg.phase!r}")
    if not samples:
        raise ConfigError("empty VQA dataset")
    os.makedirs(out_dir, exist_ok=True)
    cfg.save(os.path.join(out_dir, "config.json"))
    images = [load_image(os.path.join(data_root, s.image), channels=cfg.channels) for s in samples]

    corpus = [s.question for s in samples] + [s.answer for s in samples]
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        vocab = ckpt.vocab
        mp, adam, _ = restore_model(ckpt, cfg)
        step = ckpt.meta["step"]
        start_epoch = ckpt.meta["epoch"] + 1
    else:
        mp = ModelParams(cfg.model_config(), np.random.default_rng([cfg.seed, 0x11]))
        if init_checkpoint is not None:
            ckpt = load_checkpoint(init_checkpoint)
            vocab = extend_vocab(ckpt.vocab, corpus, cfg.vocab_size)
            init_from_pretrained(mp, ckpt)
        else:
            vocab = build_vocab(corpus, cfg.vocab_size)
        adam = AdamState()
        step = 0
        start_epoch = 0
    vocab.save(os.path.join(out_dir, "vocab.txt"))

    question_ids = [tokenize(s.question, vocab, cfg.max_text_len) for s in samples]
    total_steps = cfg.epochs * max(1, len(_epoch_batches(len(samples), cfg, 0)))
    log = MetricsLog(os.path.join(out_dir, "metrics.jsonl"))
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")

    for epoch in range(start_epoch, cfg.epochs):
        for batch_idx in _epoch_batches(len(samples), cfg, epoch):
            t0 = time.monotonic()
            lr = cosine_lr(step, total_steps, cfg.lr_init, cfg.lr_final)
            mp.zero_grads()
            loss = vqa_forward_loss(
                mp,
                cfg,
                [images[i] for i in batch_idx],
                np.stack([question_ids[i] for i in batch_idx]),
                [samples[i].answer for i in batch_idx],
                vocab,
            )
            loss.backward()
            clip_global_norm(mp, cfg.grad_clip)
            adamw_step(mp, adam, lr, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.adam_eps)
            step += 1
            log.write(
                {
                    "step": step,
                    "epoch": epoch,
                    "lr": lr,
                    "loss": float(loss.data),
                    "wall_ms": round((time.monotonic() - t0) * 1e3, 3),
                }
            )
        save_checkpoint(ckpt_path, cfg, mp, adam, None, vocab, step, epoch)
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            break
    log.close()
    return ckpt_path
