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
from .model import Encoded, ModelParams, decode_answer, encode_pairs, fuse_pairs
from .synth import VqaSample
from .tensor import Tensor, cross_entropy
from .text import BOS, EOS, Vocab, detokenize, normalize, tokenize
from .vision import Image, load_image, write_image

# questions generate_answers fuses in one call and decodes in one cached greedy
# loop. A decoder step has a fixed cost that wider steps share, and each
# question's cache holds 2 * depth_ans_dec * (1 + W) * dim floats, W the
# group's longest question, which bounds the group
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


def _encode(mp: ModelParams, images: list[Image], questions: list[str], vocab: Vocab) -> Encoded:
    """The encode stage of (image, question) pairs: every question
    tokenized, then each distinct image and id row encoded once (see
    encode_pairs)."""
    ids = np.stack([tokenize(q, vocab, mp.cfg.max_text_len) for q in questions])
    return encode_pairs(mp, images, ids)


def fuse_question(
    mp: ModelParams,
    cfg: TrainConfig,
    img: Image,
    question: str,
    vocab: Vocab,
    capture: list | None = None,
):
    """One question's fused features, ids and the patch grid (see _encode
    and fuse_pairs), taped wherever mp's parameters require a gradient;
    lengths come from mp.cfg, cfg is kept for existing callers."""
    fused, ids = fuse_pairs(mp, _encode(mp, [img], [question], vocab), capture=capture)
    return fused, ids, mp.cfg.grid


def generate_answers(
    mp: ModelParams,
    images: list[Image],
    questions: list[str],
    vocab: Vocab,
) -> list[list[int]]:
    """Greedy decoding from BOS for a batch of (image, question) pairs, on
    mp.frozen(), so with no tape. Each distinct image and question is
    encoded once (see _encode); then each DECODE_GROUP slice of pairs is
    fused in one call, cut after its longest question (see fuse_pairs), and
    decoded by one cached greedy loop (see _greedy). An empty batch gives
    []; images and questions of different lengths raise ContractError.
    """
    if len(images) != len(questions):
        raise ContractError(f"{len(images)} images for {len(questions)} questions")
    answers: list[list[int]] = []
    if not questions:
        return answers
    mp = mp.frozen()
    enc = _encode(mp, images, questions, vocab)
    for lo in range(0, len(questions), DECODE_GROUP):
        answers += _greedy(mp, *fuse_pairs(mp, enc, slice(lo, lo + DECODE_GROUP)), vocab)
    return answers


def _greedy(mp: ModelParams, fused: Tensor, ids: np.ndarray, vocab: Vocab) -> list[list[int]]:
    """Greedy answers of fused features and ids (see fuse_pairs), one
    decoder step per token, with no tape when mp is a frozen() view.

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
    """Exact-match accuracy after normalization, split by answer type, of
    the split's greedy answers (see generate_answers). Predictions equal
    per-question generate_answer calls, except where a step's two best
    logits tie to the last bits. Image channels come from mp.cfg; cfg is
    kept for existing callers.
    """
    if answer_type_filter not in ("all", "free"):
        raise ConfigError(f"unknown answer_type_filter {answer_type_filter!r}; choose 'all' or 'free'")
    if answer_type_filter == "free":
        samples = [s for s in samples if s.question_form == "freeform"]
    if not samples:
        raise ConfigError("no samples left after filtering")
    images = {
        name: load_image(os.path.join(data_root, name), channels=mp.cfg.channels)
        for name in {s.image for s in samples}
    }
    answers = generate_answers(mp, [images[s.image] for s in samples], [s.question for s in samples], vocab)
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

    Everything runs on mp.frozen(), whose parameters require no gradient,
    so the encoders record no tape and the encoded text enters fusion as
    the tape's only leaf: backward then computes only the activation
    gradients between that leaf and the loss, and leaves no gradient on mp.
    """
    frozen, capture = mp.frozen(), []
    enc = _encode(frozen, [img], [question], vocab)
    enc.text.requires_grad = grad_weighted
    fused, ids = fuse_pairs(frozen, enc, capture=capture)
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
