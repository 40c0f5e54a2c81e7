"""Optimizer, learning-rate schedule, training loops, and checkpointing.

One training thread owns parameters, optimizer moments, momentum copies, and
the feature queue. Every stochastic choice is driven by a generator derived
from (seed, purpose, step-or-epoch), so runs are bitwise reproducible and a
checkpoint taken at an epoch boundary resumes to exactly the same trajectory.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import CheckpointError, ConfigError, ContractError, NumericsError, ShapeError
from .model import (
    OBJECTIVES,
    OWNED,
    ModelParams,
    decode_answer,
    decode_image,
    encode_image,
    encode_pairs,
    encode_text,
    fuse,
    fuse_pairs,
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
from .tensor import Tensor, concat
from .text import BOS, EOS, PAD, Vocab, build_vocab, encode_plain, extend_vocab, mask_tokens, tokenize
from .vision import Image, augment, load_image, mask_patches, patchify

CKPT_MAGIC = b"M2I2"
CKPT_VERSION = 5
CKPT_ALIGN = 64  # the data block starts at a multiple of this many bytes
TEMP_MIN, TEMP_MAX = 0.01, 0.5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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


def adamw_step(mp: ModelParams, state: AdamState, lr: float, weight_decay: float) -> None:
    """Decoupled weight decay, then bias-corrected Adam. Each parameter and
    moment is rebound to a new array, never written in place: a restored
    model holds the read-only arrays of the checkpoint it came from. A
    non-finite gradient raises NumericsError before anything changes."""
    grads = {}
    for name, p in mp.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient on parameter {name}")
        grads[name] = g
    state.t += 1
    t = state.t
    for name, p in mp.params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        p.data = p.data - lr * weight_decay * p.data
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[name] / (1 - ADAM_BETA1**t)
        vhat = state.v[name] / (1 - ADAM_BETA2**t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


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
    names = sorted(arrays)
    meta["arrays"] = [[name, list(arrays[name].shape)] for name in names]
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    # trailing spaces, which JSON ignores, start the data at a multiple of
    # CKPT_ALIGN: a view of misaligned float64 data makes numpy's matmul skip
    # BLAS for its own loop, which changes the bits
    blob += b" " * (-(16 + len(blob)) % CKPT_ALIGN)
    # written beside the target and renamed over it, so a crash mid-write
    # leaves the previous checkpoint whole
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<IQ", CKPT_VERSION, len(blob)))
            f.write(blob)
            for name in names:
                f.write(np.ascontiguousarray(arrays[name], dtype="<f8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    """Read a checkpoint: magic, u32 version, u64 header length, a JSON
    header with an "arrays" table of [name, shape], padded with spaces to
    end at a multiple of CKPT_ALIGN bytes, then the arrays' <f8 data back to
    back in table order. A malformed, truncated, padded or unaligned file
    raises CheckpointError before the file is mapped; so does a header that
    lacks a field, lists a name that is not a str or a name twice, holds a
    step, epoch, adam_t or queue counter that is not an int or a vocab that
    is not a list of str, holds queue slots without a queue, or holds a
    queue whose counters do not fit its slots: capacity rows, a write_ptr
    below capacity, and filled at capacity or, before the queue first
    wraps, at write_ptr.

    The arrays are read-only views of one read-only map of the file, so
    loading reads no array data. While they live, the file must be replaced
    (as save_checkpoint does), never rewritten in place."""
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        try:
            version, hlen = struct.unpack("<IQ", f.read(12))
            if version != CKPT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            data_bytes = os.fstat(f.fileno()).st_size - 16 - hlen
            if data_bytes < 0:
                raise CheckpointError(f"{path} is truncated in its header")
            meta = json.loads(f.read(hlen).decode("utf-8"))
            names, shapes = zip(*meta.pop("arrays"))
            if (
                not all(type(n) is str for n in names)
                or not all(type(d) is int and d >= 0 for shape in shapes for d in shape)
                or len(set(names)) < len(names)
            ):
                raise CheckpointError(f"{path} has a malformed array table")
            if not {"config", "step", "epoch", "adam_t", "queue", "vocab"} <= meta.keys():
                raise CheckpointError(f"{path} lacks a header field; it holds {sorted(meta)}")
            queue, table, vocab = meta["queue"], dict(zip(names, shapes)), meta["vocab"]
            # type(c) is int, not isinstance: a bool is an int to isinstance
            counters = [meta[key] for key in ("step", "epoch", "adam_t")]
            if not all(type(c) is int for c in counters) or type(vocab) is not list or not all(type(t) is str for t in vocab):
                raise CheckpointError(f"{path} has a step, epoch or adam_t that is not an int, or a vocab that is not a list of str")
            if queue is None:
                if "queue/img" in table or "queue/txt" in table:
                    raise CheckpointError(f"{path} holds queue slots but no queue counters")
            else:
                keys = ("capacity", "proj_dim", "write_ptr", "filled")
                if type(queue) is not dict or queue.keys() != set(keys) or not all(type(queue[k]) is int for k in keys):
                    raise CheckpointError(f"{path} has a malformed queue {queue}")
                cap, dim, ptr, filled = (queue[k] for k in keys)
                if not table.get("queue/img") == table.get("queue/txt") == [cap, dim] or not 0 <= ptr < cap or filled not in (ptr, cap):
                    raise CheckpointError(f"{path} has a queue {queue} that does not fit its slots")
            sizes = [math.prod(shape) for shape in shapes]
            if 8 * sum(sizes) != data_bytes:
                raise CheckpointError(f"{path} holds {data_bytes} data bytes; its table lists {8 * sum(sizes)}")
            config = TrainConfig.from_dict(meta["config"])
            if (16 + hlen) % CKPT_ALIGN:
                raise CheckpointError(f"{path} has unaligned data at byte {16 + hlen}, not a multiple of {CKPT_ALIGN}")
            block = np.frombuffer(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ), "<f8", offset=16 + hlen)
        except CheckpointError:
            raise
        # a short fixed field fails in struct; bad bytes in UTF-8, JSON, table or config
        except (struct.error, ValueError, KeyError, TypeError, AttributeError) as e:
            raise CheckpointError(f"{path} is truncated or malformed: {e}") from e
    arrays, start = {}, 0
    for name, shape, size in zip(names, shapes, sizes):
        arrays[name] = block[start : start + size].reshape(shape)
        start += size
    return Checkpoint(config, meta, arrays)


def _sections(arrays: dict[str, np.ndarray]) -> dict[str, dict[str, np.ndarray]]:
    """The arrays saved as "<kind>/<name>", by kind, then name."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for key, a in arrays.items():
        kind, _, name = key.partition("/")
        out.setdefault(kind, {})[name] = a
    return out


def restore_model(ckpt: Checkpoint, cfg: TrainConfig) -> tuple[ModelParams, AdamState, FeatureQueue | None]:
    """Rebuild model/optimizer/queue state exactly as saved, or raise
    CheckpointError. The model and the Adam moments of the tensors it holds
    are the checkpoint's own read-only arrays; the queue, built only when
    ITC runs, holds writable copies of the slots."""
    saved = _sections(ckpt.arrays)
    try:
        mp = ModelParams.from_arrays(cfg.model_config(), saved.get("param", {}), saved.get("mom", {}))
        held = mp.params.keys()
        adam = AdamState(
            m={n: a for n, a in saved.get("adam_m", {}).items() if n in held},
            v={n: a for n, a in saved.get("adam_v", {}).items() if n in held},
            t=ckpt.meta["adam_t"],
        )
        queue = None
        if mp.cfg.runs("itc"):
            img, txt = ckpt.arrays["queue/img"].copy(), ckpt.arrays["queue/txt"].copy()
            queue = FeatureQueue(**ckpt.meta["queue"], img_slots=img, txt_slots=txt)
    except (ShapeError, KeyError) as e:
        raise CheckpointError(f"checkpoint incompatible with config or incomplete; {e}") from e
    return mp, adam, queue


def init_from_pretrained(mp: ModelParams, ckpt: Checkpoint) -> None:
    """Hold a pretrain checkpoint's own arrays, not copies (AdamW rebinds
    them), as the shared encoders and fusion; the answer decoder stays fresh.

    Image positional embeddings are bilinearly interpolated when the
    finetuning resolution differs from the pretraining one.
    """
    if ckpt.config.phase != "pretrain":
        raise CheckpointError(f"expected a pretrain checkpoint, got a {ckpt.config.phase} one")
    old_grid = ckpt.config.model_config().grid
    bad = []
    for name, t in mp.params.items():
        if name.startswith(OWNED["finetune"]):
            continue
        src = ckpt.arrays.get(f"param/{name}")
        if src is None:
            bad.append(name)
        elif name == "img_pos" and src.shape != t.data.shape:
            t.data = interpolate_positional(src, old_grid, mp.cfg.grid)
        elif src.shape != t.data.shape:
            bad.append(name)
        else:
            t.data = src
    if bad:
        raise CheckpointError(f"pretrain checkpoint incompatible; offending tensors: {bad}")


# ---- metrics -------------------------------------------------------------


def _log_through(path, step: int) -> list[str]:
    """The records of the log at path up to and including step; none for a
    fresh run (step 0), so a resumed log agrees with its checkpoint. A
    malformed complete line among them raises CheckpointError."""
    kept = []
    if step and os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                # records are in step order; a line cut short by a crash has
                # no newline and comes after the last checkpoint
                if not line.endswith("\n"):
                    break
                try:
                    at = json.loads(line)["step"]
                except (ValueError, TypeError, KeyError):
                    at = None
                if type(at) is not int:
                    raise CheckpointError(f"{path} line {n} is not a metrics record with an int step: {line.strip()!r}")
                if at > step:
                    break
                kept.append(line)
    return kept


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
    queue: FeatureQueue | None,
    rng: np.random.Generator,
) -> tuple[dict[str, Tensor], tuple[np.ndarray, np.ndarray] | None]:
    """Forward pass of the objectives that run; queue is None without ITC.

    Returns each objective's loss, keyed by its OBJECTIVES name, and, when
    ITC ran, the momentum projections to enqueue after the optimizer step.
    """
    b = batch.visible.shape[0]
    img_feats = encode_image(mp, batch.visible, batch.positions)
    txt_feats = encode_text(mp, batch.ids)
    parts: dict[str, Tensor] = {}
    mom_projs = None

    if cfg.enable_mim:
        pred = decode_image(mp, img_feats, batch.positions, batch.mask_positions)
        parts["mim"] = mim_loss(pred, batch.mask_targets)

    if cfg.enable_itc:
        img_proj = project_itc(mp, img_feats[:, 0, :], "img")
        txt_proj = project_itc(mp, txt_feats[:, 0, :], "txt")

    if cfg.enable_mlm or cfg.enable_itm:
        txt_in, img_in, ids_in = txt_feats, img_feats, batch.ids
        if cfg.enable_itm:
            itc_logits = None
            if cfg.negative_strategy == "hard":  # the config requires ITC for it
                itc_logits = img_proj.data @ txt_proj.data.T / np.exp(mp.params["itc.log_temp"].data)
            j = pair_negatives(b, rng, cfg.negative_strategy, itc_logits)
            # rows [:b] pair each image with its own caption and rows [b:]
            # with a mismatched one, so both go through one fusion pass
            rows = np.concatenate([np.arange(b), j])
            txt_in, ids_in = txt_feats[rows], batch.ids[rows]
            img_in = concat([img_feats, img_feats], axis=0)
        fused = fuse(mp, txt_in, img_in, ids_in)
        if cfg.enable_mlm:
            # the masked positions all lie in the first b rows
            logits = mlm_logits(mp, fused, batch.mlm_batch_idx, batch.mlm_positions)
            parts["mlm"] = mlm_loss(logits, batch.mlm_labels)
        if cfg.enable_itm:
            labels = np.concatenate([np.ones(b, dtype=np.int64), np.zeros(b, dtype=np.int64)])
            parts["itm"] = itm_loss(itm_logits(mp, fused[:, 0, :]), labels)

    if cfg.enable_itc:
        img_feats_m = encode_image(mp, batch.visible, batch.positions, use_momentum=True)
        txt_feats_m = encode_text(mp, batch.ids, use_momentum=True)
        img_proj_m = project_itc(mp, img_feats_m[:, 0, :], "img", use_momentum=True)
        txt_proj_m = project_itc(mp, txt_feats_m[:, 0, :], "txt", use_momentum=True)
        parts["itc"] = itc_loss(
            img_proj, txt_proj, img_proj_m, txt_proj_m, queue,
            mp.params["itc.log_temp"].exp(),
        )
        mom_projs = (img_proj_m.data, txt_proj_m.data)
    return parts, mom_projs


def _epoch_batches(n: int, cfg: TrainConfig, epoch: int) -> list[np.ndarray]:
    order = np.random.default_rng([cfg.seed, 0xE, epoch]).permutation(n)
    out = []
    for i in range(0, n, cfg.batch_size):
        chunk = order[i : i + cfg.batch_size]
        if len(chunk) >= 2:
            out.append(chunk)
    return out


def _train(
    cfg: TrainConfig, phase: str, samples: list, texts: list[str], data_root, out_dir,
    resume_from, fresh, forward,
) -> str:
    """The training loop both phases run; returns the checkpoint path.

    texts are the sample strings the text encoder reads. fresh(mp) readies
    a new run's drawn model and returns its vocab and ITC queue, or None.
    forward(mp, queue, vocab, samples, images, token_ids, step) takes one
    batch and returns its loss, its log fields and a callable to run after
    the optimizer step.
    """
    if cfg.phase != phase:
        raise ConfigError(f"{phase}() needs a {phase} config, got phase {cfg.phase!r}")
    if len(samples) < 2:
        raise ConfigError(f"{phase} needs at least 2 samples, got {len(samples)}")
    # one Image per distinct file, shared by the samples that show it
    files = dict.fromkeys(s.image for s in samples)
    loaded = {f: load_image(os.path.join(data_root, f), channels=cfg.channels) for f in files}
    images = [loaded[s.image] for s in samples]

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        saved, run = vars(ckpt.config.model_config()), vars(cfg.model_config())
        differ = sorted(key for key in run if saved[key] != run[key])
        if differ:
            raise CheckpointError(f"{resume_from} was saved with other model keys: {differ}")
        vocab = ckpt.vocab
        mp, adam, queue = restore_model(ckpt, cfg)
        step = ckpt.meta["step"]
        start_epoch = ckpt.meta["epoch"] + 1
    else:
        mp = ModelParams(cfg.model_config(), np.random.default_rng([cfg.seed, 0x11]))
        vocab, queue = fresh(mp)
        adam, step, start_epoch = AdamState(), 0, 0
    os.makedirs(out_dir, exist_ok=True)
    cfg.save(os.path.join(out_dir, "config.json"))
    vocab.save(os.path.join(out_dir, "vocab.txt"))

    token_ids = [tokenize(t, vocab, cfg.max_text_len) for t in texts]
    total_steps = cfg.epochs * len(_epoch_batches(len(samples), cfg, 0))
    log_path = os.path.join(out_dir, "metrics.jsonl")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    kept = _log_through(log_path, step)
    with open(log_path, "w", encoding="utf-8") as log:
        log.writelines(kept)
        for epoch in range(start_epoch, cfg.epochs):
            for batch_idx in _epoch_batches(len(samples), cfg, epoch):
                t0 = time.monotonic()
                lr = cosine_lr(step, total_steps, cfg.lr_init, cfg.lr_final)
                mp.zero_grads()
                batch = [[seq[i] for i in batch_idx] for seq in (samples, images, token_ids)]
                loss, fields, after_step = forward(mp, queue, vocab, *batch, step)
                loss.backward()
                grad_norm = clip_global_norm(mp, cfg.grad_clip)
                adamw_step(mp, adam, lr, cfg.weight_decay)
                after_step()
                step += 1
                wall_ms = round((time.monotonic() - t0) * 1e3, 3)
                record = {
                    "step": step, "epoch": epoch, "lr": lr, **fields, "grad_norm": grad_norm, "wall_ms": wall_ms,
                }
                log.write(json.dumps(record, sort_keys=True) + "\n")
                log.flush()
            save_checkpoint(ckpt_path, cfg, mp, adam, queue, vocab, step, epoch)
    return ckpt_path


def pretrain(
    cfg: TrainConfig,
    samples: list[CaptionSample],
    data_root,
    out_dir,
    resume_from=None,
) -> str:
    """Run the self-supervised pretraining loop; returns the checkpoint path."""

    def fresh(mp):
        vocab = build_vocab([s.caption for s in samples], cfg.vocab_size)
        return vocab, FeatureQueue(cfg.queue_capacity, cfg.proj_dim) if cfg.enable_itc else None

    def forward(mp, queue, vocab, batch_samples, images, token_ids, step):
        rng = np.random.default_rng([cfg.seed, 0x5, step])
        batch = make_pretrain_batch(images, token_ids, cfg, vocab, rng)
        parts, mom_projs = pretrain_losses(mp, cfg, batch, queue, rng)
        total = combined_loss(parts)
        # an objective that did not run logs 0.0
        fields = {k: float(parts[k].data) if k in parts else 0.0 for k in OBJECTIVES}
        fields["total"] = float(total.data)
        if not cfg.enable_itc:
            return total, fields, lambda: None
        # the temperature this step's ITC ran at and the queue it scored against
        fields["temp"] = float(np.exp(mp.params["itc.log_temp"].data))
        fields["queue_fill"] = queue.filled

        def after_step():
            lt = mp.params["itc.log_temp"]
            lt.data = np.clip(lt.data, math.log(TEMP_MIN), math.log(TEMP_MAX))
            momentum_update(mp, cfg.momentum_m)
            enqueue(queue, *mom_projs)

        return total, fields, after_step

    return _train(
        cfg, "pretrain", samples, [s.caption for s in samples], data_root, out_dir,
        resume_from, fresh, forward,
    )


# ---- finetuning ----------------------------------------------------------


def answer_targets(answer: str, vocab: Vocab, max_len: int) -> np.ndarray:
    """The teacher-forcing row [BOS, y..., EOS, PAD...] of max_len + 1 ids:
    its first max_len are the decoder's prefix, its last max_len the targets."""
    y = encode_plain(answer, vocab)[: max_len - 1]
    return np.array([BOS] + y + [EOS] + [PAD] * (max_len - 1 - len(y)), dtype=np.int64)


def vqa_forward_loss(
    mp: ModelParams,
    images: list[Image],
    question_ids: np.ndarray,
    answers: list[str],
    vocab: Vocab,
) -> Tensor:
    """Teacher-forced conditional LM loss for a VQA batch (full images),
    scored at every answer token and EOS; lengths come from mp.cfg.

    Each distinct image and question of the batch is encoded once (see
    encode_pairs). The loss keeps the bits of encoding every pair; where an
    input repeats, the encoders' weight gradients move in their last bits.
    """
    fused, ids = fuse_pairs(mp, encode_pairs(mp, images, question_ids))
    rows = np.stack([answer_targets(a, vocab, mp.cfg.max_answer_len) for a in answers])
    logits = decode_answer(mp, fused, ids, rows[:, :-1])
    targets = rows[:, 1:]
    # each answer's tokens and its EOS, row by row: encode_plain yields no PAD
    scored = np.nonzero(targets != PAD)
    return cond_lm_loss(logits[scored], targets[scored])


def finetune(
    cfg: TrainConfig,
    samples: list[VqaSample],
    data_root,
    out_dir,
    init_checkpoint=None,
    resume_from=None,
) -> str:
    """Finetune for generative VQA; returns the checkpoint path.

    init_checkpoint: pretrain checkpoint to initialize encoders from; None
    trains from random initialization (the without-pretraining ablation).
    """

    def fresh(mp):
        corpus = [s.question for s in samples] + [s.answer for s in samples]
        if init_checkpoint is None:
            return build_vocab(corpus, cfg.vocab_size), None
        ckpt = load_checkpoint(init_checkpoint)
        init_from_pretrained(mp, ckpt)
        return extend_vocab(ckpt.vocab, corpus, cfg.vocab_size), None

    def forward(mp, queue, vocab, batch_samples, images, question_ids, step):
        answers = [s.answer for s in batch_samples]
        loss = vqa_forward_loss(mp, images, np.stack(question_ids), answers, vocab)
        return loss, {"loss": float(loss.data)}, lambda: None

    return _train(
        cfg, "finetune", samples, [s.question for s in samples], data_root, out_dir,
        resume_from, fresh, forward,
    )
