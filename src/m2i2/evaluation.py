"""Generative answer decoding, closed/open accuracy reporting, and
gradient-weighted cross-attention heatmaps.
"""

from __future__ import annotations

import json
import os
import re
import string
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ConfigError
from .model import ModelParams, decode_answer, encode_full_images, encode_text, fuse
from .synth import VqaSample
from .tensor import Tensor, concat, cross_entropy, no_grad
from .text import BOS, EOS, PAD, Vocab, detokenize, tokenize
from .vision import Image, load_image, write_image


def normalize_answer(text: str) -> str:
    """Lowercase, trim, collapse whitespace, strip terminal punctuation."""
    out = re.sub(r"\s+", " ", text.lower()).strip()
    return out.rstrip(string.punctuation + " ")


@dataclass
class EvalReport:
    closed_correct: int = 0
    closed_n: int = 0
    open_correct: int = 0
    open_n: int = 0
    predictions: list[dict] = field(default_factory=list)

    @property
    def closed_acc(self) -> float:
        return self.closed_correct / self.closed_n if self.closed_n else 0.0

    @property
    def open_acc(self) -> float:
        return self.open_correct / self.open_n if self.open_n else 0.0

    @property
    def overall_acc(self) -> float:
        n = self.closed_n + self.open_n
        return (self.closed_correct + self.open_correct) / n if n else 0.0

    def table(self) -> str:
        return (
            "answer_type  correct  total  accuracy\n"
            f"closed       {self.closed_correct:7d}  {self.closed_n:5d}  {self.closed_acc:.4f}\n"
            f"open         {self.open_correct:7d}  {self.open_n:5d}  {self.open_acc:.4f}\n"
            f"overall      {self.closed_correct + self.open_correct:7d}  "
            f"{self.closed_n + self.open_n:5d}  {self.overall_acc:.4f}\n"
        )


def _fuse_batch(
    mp: ModelParams,
    images: list[Image],
    questions: list[str],
    vocab: Vocab,
    capture: list | None = None,
):
    """Fused features [b, max_text_len, dim] and token ids [b, max_text_len]
    of a batch, in batch order; the features are zero at PAD positions.

    Each distinct Image object goes through the image encoder once, and each
    distinct question through the text encoder once; their rows are then
    gathered into batch order. Text and fusion run on the ids cut after the
    batch's longest question (so a captured map is [b, heads, Lq, S]), with
    max_text_len key slots in self-attention (see encode_text). Rows never
    mix, so every non-PAD row is bitwise the one a batch of one gives.
    """
    uniq_imgs, img_rows = _distinct(images, key=id)
    uniq_qs, q_rows = _distinct(questions)
    img_feats = _in_order(encode_full_images(mp, uniq_imgs), img_rows)
    uniq_ids = np.stack([tokenize(q, vocab, mp.cfg.max_text_len) for q in uniq_qs])
    # two columns at least: numpy multiplies a one-row matrix on another
    # BLAS path, whose bits differ from a row of a longer product
    width = max(2, 1 + np.flatnonzero((uniq_ids != PAD).any(axis=0))[-1])
    cut = uniq_ids[:, :width]
    fused = fuse(mp, _in_order(encode_text(mp, cut), q_rows), img_feats, cut[q_rows], capture=capture)
    ids = uniq_ids[q_rows]
    # back to full width for the decoder's memory, PAD rows (masked there) zeroed
    tail = Tensor(np.zeros((len(ids), ids.shape[1] - width, mp.cfg.dim)))
    return concat([fused, tail], axis=1) * (ids != PAD)[:, :, None], ids


def _distinct(items: list, key=lambda x: x) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's row among them."""
    rows: dict = {}
    for x in items:
        rows.setdefault(key(x), (len(rows), x))
    return [x for _, x in rows.values()], np.array([rows[key(x)][0] for x in items], dtype=np.int64)


def _in_order(feats: Tensor, rows: np.ndarray) -> Tensor:
    """feats gathered into batch order; as is when every item was distinct,
    since first-seen order then makes rows 0..n-1."""
    return feats if feats.shape[0] == len(rows) else feats[rows]


def fuse_question(
    mp: ModelParams,
    cfg: TrainConfig,
    img: Image,
    question: str,
    vocab: Vocab,
    capture: list | None = None,
):
    """One question's fused features, ids and the patch grid; lengths come
    from mp.cfg, cfg is kept for existing callers."""
    fused, ids = _fuse_batch(mp, [img], [question], vocab, capture=capture)
    return fused, ids, mp.cfg.grid


def generate_answers(
    mp: ModelParams,
    images: list[Image],
    questions: list[str],
    vocab: Vocab,
) -> list[list[int]]:
    """Greedy decoding from BOS for a batch of (image, question) pairs.

    One encoder and fusion pass for the batch (each distinct image and
    question encoded once, see _fuse_batch), then one decoder step per
    token, with no tape. The steps share a decode cache: the fused memory's
    cross-attention keys and values are projected once, and each step runs
    only the newest position, reusing the earlier positions' self-attention
    keys and values. The cached logits may differ from those of a
    teacher-forced decode_answer pass over the same prefix in the last bits.

    A row stops recording at its EOS; the loop ends when every row has
    stopped or after max_answer_len - 1 tokens, when the prefix fills
    max_answer_len. Rows never mix, and the causal mask hides the tokens a
    row is fed after it stopped, so each row decodes as it would alone.
    """
    out: list[list[int]] = [[] for _ in questions]
    with no_grad():
        fused, ids = _fuse_batch(mp, images, questions, vocab)
        prefix = np.full((len(questions), 1), BOS, dtype=np.int64)
        live = np.ones(len(questions), dtype=bool)
        cache: dict = {}
        for _ in range(mp.cfg.max_answer_len - 1):
            logits = decode_answer(mp, fused, ids, prefix, cache=cache)
            # the head covers cfg.vocab_size slots; only ids the vocab defines
            # are decodable (ties resolve to lowest id)
            nxt = np.argmax(logits.data[:, -1, : len(vocab)], axis=-1)
            live &= nxt != EOS
            if not live.any():
                break
            for i in np.flatnonzero(live):
                out[i].append(int(nxt[i]))
            prefix = np.concatenate([prefix, nxt[:, None]], axis=1)
    return out


def generate_answer(
    mp: ModelParams,
    cfg: TrainConfig,
    img: Image,
    question: str,
    vocab: Vocab,
) -> list[int]:
    """Greedy decoding of one question: generate_answers on a batch of one.
    Lengths come from mp.cfg; cfg is kept for existing callers."""
    return generate_answers(mp, [img], [question], vocab)[0]


def evaluate(
    mp: ModelParams,
    cfg: TrainConfig,
    samples: list[VqaSample],
    data_root,
    vocab: Vocab,
    answer_type_filter: str = "all",  # all | free (freeform question_form only)
) -> EvalReport:
    """Exact-match accuracy after normalization, split by answer type.

    Decodes cfg.batch_size questions per generate_answers pass, without a
    tape; each pass encodes and fuses its questions cut after the longest
    one (see _fuse_batch), and predictions equal per-question
    generate_answer calls. Heatmaps (attention_map) still build a tape,
    since grad weighting needs backward.
    """
    if answer_type_filter == "free":
        samples = [s for s in samples if s.question_form == "freeform"]
    if not samples:
        raise ConfigError("no samples left after filtering")
    images = {
        name: load_image(os.path.join(data_root, name), channels=cfg.channels)
        for name in {s.image for s in samples}
    }
    answers: list[list[int]] = []
    for lo in range(0, len(samples), cfg.batch_size):
        chunk = samples[lo : lo + cfg.batch_size]
        answers += generate_answers(mp, [images[s.image] for s in chunk], [s.question for s in chunk], vocab)
    report = EvalReport()
    for s, toks in zip(samples, answers):
        pred = detokenize(toks, vocab)
        correct = normalize_answer(pred) == normalize_answer(s.answer)
        if s.answer_type == "closed":
            report.closed_n += 1
            report.closed_correct += int(correct)
        else:
            report.open_n += 1
            report.open_correct += int(correct)
        report.predictions.append(
            {"question": s.question, "gold": s.answer, "prediction": pred, "correct": correct}
        )
    return report


def write_report(report: EvalReport, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "eval_report.txt"), "w", encoding="utf-8") as f:
        f.write(report.table())
    with open(os.path.join(out_dir, "predictions.jsonl"), "w", encoding="utf-8") as f:
        for p in report.predictions:
            f.write(json.dumps(p, sort_keys=True) + "\n")


def attention_map(
    mp: ModelParams,
    cfg: TrainConfig,
    img: Image,
    question: str,
    vocab: Vocab,
    layer: int = -1,
    grad_weighted: bool = True,
) -> np.ndarray:
    """Cross-attention heatmap over the patch grid, min-max scaled to [0,1].

    Takes the chosen fusion layer's attention from the question CLS row to
    the image patch tokens. With grad_weighted, attention is scaled by the
    positive part of its gradient w.r.t. the generated answer's first-token
    log-probability before head reduction. Leaves no gradient on mp.
    """
    capture: list = []
    fused, ids, grid = fuse_question(mp, cfg, img, question, vocab, capture=capture)
    if not -len(capture) <= layer < len(capture):
        raise IndexError(f"fusion layer {layer} out of range for depth {len(capture)}")
    attn = capture[layer]  # [1, heads, L, 1+N]
    if grad_weighted:
        logits = decode_answer(mp, fused, ids, np.array([[BOS]]))
        # the first token generate_answer emits, so from the vocab's ids only
        first = int(np.argmax(logits.data[0, -1, : len(vocab)]))
        (-cross_entropy(logits[0, -1:], [first])).backward()
        g = attn.grad if attn.grad is not None else np.zeros(attn.shape)
        # backward left a gradient on every parameter; none is read
        mp.zero_grads()
        weighted = attn.data * np.maximum(g, 0.0)
    else:
        weighted = attn.data
    rows = weighted[0, :, 0, 1:].mean(axis=0)  # CLS query row, patch keys only
    lo, hi = rows.min(), rows.max()
    rows = (rows - lo) / (hi - lo) if hi > lo else np.zeros_like(rows)
    return rows.reshape(grid)


def write_heatmap(path, heat: np.ndarray, upsample: int = 16) -> None:
    """Nearest-neighbor upsampled PGM overlay-free heatmap."""
    big = np.repeat(np.repeat(heat, upsample, axis=0), upsample, axis=1)
    write_image(path, Image(big[:, :, None]))
