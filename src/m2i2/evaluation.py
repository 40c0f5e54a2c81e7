"""Generative answer decoding, closed/open accuracy reporting, and
gradient-weighted cross-attention heatmaps.
"""

from __future__ import annotations

import json
import os
import string
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, ContractError
from .model import ModelParams, decode_answer, distinct, encode_full_images, encode_text, fuse
from .synth import VqaSample
from .tensor import Tensor, cross_entropy, no_grad
from .text import BOS, EOS, Vocab, detokenize, normalize, tokenize
from .vision import Image, load_image, write_image

# questions evaluate fuses in one call and decodes in one cached greedy loop.
# A decoder step has a fixed cost that wider steps share, and each question's
# cache holds 2 * depth_ans_dec * (1 + W) * dim floats, W the group's longest
# question, which bounds the group
DECODE_GROUP = 48


def normalize_answer(text: str) -> str:
    """The text normalized as the tokenizer reads it, less terminal punctuation."""
    return normalize(text).rstrip(string.punctuation + " ")


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


@dataclass
class _Encoded:
    """The encode stage of one call: each distinct image and question among
    its items encoded once, and each item's row among them."""

    images: Tensor  # [distinct images, 1+N, dim]
    text: Tensor  # [distinct questions, W, dim], cut after the longest question
    ids: np.ndarray  # [distinct questions, max_text_len]
    img_rows: np.ndarray  # [items], each item's row of images
    q_rows: np.ndarray  # [items], each item's row of text and ids


def _encode(mp: ModelParams, images: list[Image], questions: list[str], vocab: Vocab) -> _Encoded:
    """Encode stage: the distinct Image objects go through the image encoder
    in one call, and the distinct questions through the text encoder in
    another."""
    uniq_imgs, img_rows = distinct(images, key=id)
    uniq_qs, q_rows = distinct(questions)
    ids = np.stack([tokenize(q, vocab, mp.cfg.max_text_len) for q in uniq_qs])
    return _Encoded(encode_full_images(mp, uniq_imgs), encode_text(mp, ids), ids, img_rows, q_rows)


def _fuse(mp: ModelParams, enc: _Encoded, items: slice, capture: list | None = None):
    """Fuse stage: fused features [b, W, dim] of an encoded call's items, in
    their order, cut after the items' longest question (see fuse; so a
    captured map is [b, heads, W, S]), and their token ids [b, max_text_len].

    The items' rows are gathered from the encode stage. Rows never mix, so a
    non-PAD row agrees with the one a batch of one gives up to the last bits
    (see encode_text).
    """
    q_rows = enc.q_rows[items]
    ids = enc.ids[q_rows]
    return fuse(mp, enc.text[q_rows], enc.images[enc.img_rows[items]], ids, capture=capture), ids


def _fuse_batch(
    mp: ModelParams,
    images: list[Image],
    questions: list[str],
    vocab: Vocab,
    capture: list | None = None,
):
    """Both stages over one batch: its fused features and token ids (see _fuse)."""
    return _fuse(mp, _encode(mp, images, questions, vocab), slice(None), capture=capture)


def fuse_question(
    mp: ModelParams,
    cfg: TrainConfig,
    img: Image,
    question: str,
    vocab: Vocab,
    capture: list | None = None,
):
    """One question's fused features, ids and the patch grid, from both
    stages (see _encode and _fuse) with the tape on unless no_grad is in
    force; lengths come from mp.cfg, cfg is kept for existing callers."""
    fused, ids = _fuse_batch(mp, [img], [question], vocab, capture=capture)
    return fused, ids, mp.cfg.grid


def generate_answers(
    mp: ModelParams,
    images: list[Image],
    questions: list[str],
    vocab: Vocab,
) -> list[list[int]]:
    """Greedy decoding from BOS for a batch of (image, question) pairs, with
    no tape: the encode and fuse stages over the batch (each distinct image
    and question encoded once, see _encode and _fuse), then the cached
    greedy loop (see _greedy). An empty batch gives []; images and
    questions of different lengths raise ContractError.
    """
    if len(images) != len(questions):
        raise ContractError(f"{len(images)} images for {len(questions)} questions")
    if not questions:
        return []
    with no_grad():
        return _greedy(mp, *_fuse_batch(mp, images, questions, vocab), vocab)


def _greedy(mp: ModelParams, fused: Tensor, ids: np.ndarray, vocab: Vocab) -> list[list[int]]:
    """Greedy answers of fused features and ids (see _fuse), one
    decoder step per token; run under no_grad.

    The steps share a decode cache: the fused memory's cross-attention keys
    and values are projected once, and each step runs only the newest
    position, reusing the earlier positions' self-attention keys and
    values. The cached logits may differ from those of a teacher-forced
    decode_answer pass over the same prefix in the last bits.

    A row stops recording at its EOS; the loop ends when every row has
    stopped or after max_answer_len - 1 tokens, when the prefix fills
    max_answer_len. Rows never mix, and the causal mask hides the tokens a
    row is fed after it stopped, so each row's logits are those it would
    get alone up to the last bits.
    """
    out: list[list[int]] = [[] for _ in ids]
    prefix = np.full((len(ids), 1), BOS, dtype=np.int64)
    live = np.ones(len(ids), dtype=bool)
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

    The split's distinct images and questions are encoded once, with no
    tape, in one call per encoder (see _encode). Each DECODE_GROUP slice of
    questions is then fused in one call, cut after its longest question
    (see _fuse), and decoded by one cached greedy loop (see _greedy).
    Predictions equal per-question generate_answer calls, except where a
    step's two best logits tie to the last bits.
    """
    if answer_type_filter not in ("all", "free"):
        raise ConfigError(f"unknown answer_type_filter {answer_type_filter!r}; choose 'all' or 'free'")
    if answer_type_filter == "free":
        samples = [s for s in samples if s.question_form == "freeform"]
    if not samples:
        raise ConfigError("no samples left after filtering")
    images = {
        name: load_image(os.path.join(data_root, name), channels=cfg.channels)
        for name in {s.image for s in samples}
    }
    answers: list[list[int]] = []
    with no_grad():
        enc = _encode(mp, [images[s.image] for s in samples], [s.question for s in samples], vocab)
        for lo in range(0, len(samples), DECODE_GROUP):
            answers += _greedy(mp, *_fuse(mp, enc, slice(lo, lo + DECODE_GROUP)), vocab)
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
    log-probability before head reduction.

    The encoders run with no tape. Fusion and the decoder run on
    mp.frozen(), whose parameters require no gradient, with the encoded
    text entering fusion as the tape's only leaf: backward then computes
    only the activation gradients between that leaf and the loss, and
    leaves no gradient on mp.
    """
    with no_grad():
        enc = _encode(mp, [img], [question], vocab)
    enc.text = Tensor(enc.text.data, requires_grad=grad_weighted)
    frozen, capture = mp.frozen(), []
    fused, ids = _fuse(frozen, enc, slice(None), capture=capture)
    if not -len(capture) <= layer < len(capture):
        raise IndexError(f"fusion layer {layer} out of range for depth {len(capture)}")
    attn = capture[layer]  # [1, heads, L, 1+N]
    if grad_weighted:
        logits = decode_answer(frozen, fused, ids, np.array([[BOS]]))
        # the first token generate_answer emits, so from the vocab's ids only
        first = int(np.argmax(logits.data[0, -1, : len(vocab)]))
        (-cross_entropy(logits[0, -1:], [first])).backward()
        g = attn.grad if attn.grad is not None else np.zeros(attn.shape)
        weighted = attn.data * np.maximum(g, 0.0)
    else:
        weighted = attn.data
    rows = weighted[0, :, 0, 1:].mean(axis=0)  # CLS query row, patch keys only
    lo, hi = rows.min(), rows.max()
    rows = (rows - lo) / (hi - lo) if hi > lo else np.zeros_like(rows)
    return rows.reshape(mp.cfg.grid)


def write_heatmap(path, heat: np.ndarray, upsample: int = 16) -> None:
    """Nearest-neighbor upsampled PGM overlay-free heatmap."""
    big = np.repeat(np.repeat(heat, upsample, axis=0), upsample, axis=1)
    write_image(path, Image(big[:, :, None]))
