"""The benchmark's three workloads, driven through m2i2's exported API.

pretrain  desk preset on 32 synthetic captions: batch 8, all four
          objectives, a 512-slot queue, a checkpoint every epoch.
finetune  desk preset on 64 synthetic QA pairs: batch 16, started from a
          1-epoch pretrain checkpoint made during set-up.
decode    loads a checkpoint from one finetune epoch run at zero learning
          rate and weight decay, so its weights are the seeded
          initialisation; greedy-evaluates 96 QA pairs over 16 images and
          computes a grad-weighted attention heatmap for each image.

A workload is set up (inputs synthesised from the seed, prerequisite
checkpoint made), then measured in reps: one rep is the timed work plus the
checks of its outputs. Every check that fails marks operations as failed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import m2i2
from m2i2.evaluation import fuse_question  # decode oracle only
from m2i2.model import decode_answer  # decode oracle only
from m2i2.text import BOS, EOS

CAPTIONS, PRETRAIN_BATCH, PRETRAIN_EPOCHS = 32, 8, 2
QA_TRAIN, FINETUNE_BATCH, FINETUNE_EPOCHS = 64, 16, 2
QA_DECODE = 96
# The decode model is the seeded initialisation, from a fixed model seed so
# that decode work hardly depends on the workload seed. From model seed 0,
# every answer ran all 7 decoder passes on data seeds 1-35 except seed 25
# (5 of 96 answers emit EOS early). From model seed 4, 22 of 96 answers on
# data seed 4 stop early.
DECODE_MODEL_SEED = 0
CKPT_LOADS = 3  # load_checkpoint + restore_model per rep


@dataclass
class Tally:
    """Operations attempted and failed, and what failed."""

    attempted: int = 0
    failed: int = 0
    pending: int = 0  # begun in the current rep and not completed yet
    errors: list[str] = field(default_factory=list)

    def begin(self, ops: int) -> None:
        self.attempted += ops
        self.pending = ops

    def complete(self, ops: int = 1) -> None:
        self.pending -= ops

    def check(self, ok: bool, ops: int, what: str) -> bool:
        if not ok:
            self.failed += ops
            self.errors.append(what)
        return ok

    def abandon(self, what: str) -> None:
        """Set-up or a rep raised: everything not completed failed."""
        self.failed += max(1, self.pending)
        self.pending = 0
        self.errors.append(what)


def desk(seed: int, **overrides) -> m2i2.TrainConfig:
    return m2i2.preset("desk", seed=seed, **overrides)


def timed_loads(path: str, tally: Tally) -> tuple[list[float], object, m2i2.ModelParams]:
    """CKPT_LOADS x (load_checkpoint + restore_model); times in ms."""
    times = []
    for _ in range(CKPT_LOADS):
        t0 = time.perf_counter()
        ckpt = m2i2.load_checkpoint(path)
        mp, _, _ = m2i2.restore_model(ckpt, ckpt.config)
        times.append((time.perf_counter() - t0) * 1e3)
        tally.complete()
    return times, ckpt, mp


class Workload:
    name = ""
    op = ""  # what the per-layer figures are normalised by

    def __init__(self, seed: int):
        self.seed = seed
        self.first: object = None  # outputs of the first rep, for determinism

    def setup(self, setup_dir: str) -> None:
        """Synthesise the inputs and make the prerequisite checkpoint. Runs
        in a fresh process of its own, so that set-up time includes the
        imports and set-up memory does not count towards the peak RSS."""
        raise NotImplementedError

    def load(self, setup_dir: str) -> None:
        """Read what setup() wrote, in the process that measures."""
        raise NotImplementedError

    def rep(self, out_dir: str, tally: Tally, tracer) -> dict:
        raise NotImplementedError

    def _same_as_first(self, outputs, tally: Tally, ops: int, what: str) -> None:
        if self.first is None:
            self.first = outputs
        else:
            tally.check(outputs == self.first, ops, f"{what} differ between reps of seed {self.seed}")


class Training(Workload):
    op = "step"
    epochs = 0
    batches_per_epoch = 0
    n_samples = 0

    def train(self, out_dir: str) -> str:
        raise NotImplementedError

    def losses(self, record: dict) -> list[float]:
        raise NotImplementedError

    def rep(self, out_dir: str, tally: Tally, tracer) -> dict:
        steps = self.epochs * self.batches_per_epoch
        tally.begin(steps + CKPT_LOADS)
        t0 = time.perf_counter()
        try:
            path = self.train(out_dir)
        finally:
            wall = time.perf_counter() - t0
            records = read_log(out_dir)
            tally.complete(min(len(records), steps))
        tally.check(len(records) == steps, abs(steps - len(records)), f"{len(records)} steps logged, expected {steps}")
        bad = sum(not all(math.isfinite(x) for x in self.losses(r)) for r in records)
        tally.check(bad == 0, bad, f"{bad} steps logged a non-finite loss")
        last = [r for r in records if r["epoch"] == self.epochs - 1]
        loss_final = sum(self.losses(r)[-1] for r in last) / max(1, len(last))
        self._same_as_first(loss_final, tally, steps, "loss_final values")

        load_ms, ckpt, _ = timed_loads(path, tally)
        tally.check(
            (ckpt.meta["step"], ckpt.meta["epoch"]) == (steps, self.epochs - 1),
            CKPT_LOADS,
            f"checkpoint at step {ckpt.meta['step']} epoch {ckpt.meta['epoch']}, expected {steps} {self.epochs - 1}",
        )
        return {
            "wall_s": wall,
            "ops": steps,
            "samples_per_s": self.n_samples * self.epochs / wall,
            "loss_final": loss_final,
            "ckpt_save_ms": [d * 1e3 for d in tracer.durations["trainer.save"]],
            "ckpt_load_ms": load_ms,
            "ckpt_bytes": os.path.getsize(path),
        }


def read_log(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "metrics.jsonl")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


class Pretrain(Training):
    name = "pretrain"
    epochs = PRETRAIN_EPOCHS
    batches_per_epoch = CAPTIONS // PRETRAIN_BATCH
    n_samples = CAPTIONS

    def setup(self, setup_dir: str) -> None:
        m2i2.generate_captions(CAPTIONS, self.seed, os.path.join(setup_dir, "captions"))

    def load(self, setup_dir: str) -> None:
        self.data = os.path.join(setup_dir, "captions")
        self.samples = m2i2.load_captions(self.data)
        self.cfg = desk(self.seed, epochs=self.epochs, batch_size=PRETRAIN_BATCH)

    def train(self, out_dir: str) -> str:
        return m2i2.pretrain(self.cfg, self.samples, self.data, out_dir)

    def losses(self, record: dict) -> list[float]:
        return [record[k] for k in ("mim", "mlm", "itm", "itc", "total")]


class Finetune(Training):
    name = "finetune"
    epochs = FINETUNE_EPOCHS
    batches_per_epoch = QA_TRAIN // FINETUNE_BATCH
    n_samples = QA_TRAIN

    def setup(self, setup_dir: str) -> None:
        captions = os.path.join(setup_dir, "captions")
        m2i2.generate_captions(CAPTIONS, self.seed, captions)
        m2i2.generate_vqa(QA_TRAIN, self.seed, os.path.join(setup_dir, "vqa"))
        cfg = desk(self.seed, epochs=1, batch_size=PRETRAIN_BATCH)
        m2i2.pretrain(cfg, m2i2.load_captions(captions), captions, os.path.join(setup_dir, "pretrained"))

    def load(self, setup_dir: str) -> None:
        self.data = os.path.join(setup_dir, "vqa")
        self.samples = m2i2.load_vqa(self.data)
        self.init = os.path.join(setup_dir, "pretrained", "checkpoint.bin")
        self.cfg = desk(self.seed, phase="finetune", epochs=self.epochs, batch_size=FINETUNE_BATCH)

    def train(self, out_dir: str) -> str:
        return m2i2.finetune(self.cfg, self.samples, self.data, out_dir, init_checkpoint=self.init)

    def losses(self, record: dict) -> list[float]:
        return [record["loss"]]


class Decode(Workload):
    name = "decode"
    op = "question"

    def setup(self, setup_dir: str) -> None:
        data = os.path.join(setup_dir, "vqa")
        cfg = desk(
            DECODE_MODEL_SEED, phase="finetune", epochs=1, batch_size=FINETUNE_BATCH,
            lr_init=0.0, lr_final=0.0, weight_decay=0.0,
        )
        samples = m2i2.generate_vqa(QA_DECODE, self.seed, data)
        m2i2.finetune(cfg, samples, data, os.path.join(setup_dir, "zero_lr"))

    def load(self, setup_dir: str) -> None:
        self.data = os.path.join(setup_dir, "vqa")
        self.samples = m2i2.load_vqa(self.data)
        self.ckpt_path = os.path.join(setup_dir, "zero_lr", "checkpoint.bin")
        self.images = {
            s.image: m2i2.load_image(os.path.join(self.data, s.image)) for s in self.samples
        }
        first_question = {}
        for s in self.samples:
            first_question.setdefault(s.image, s.question)
        self.heatmap_inputs = list(first_question.items())
        self.oracle_done = False

    def rep(self, out_dir: str, tally: Tally, tracer) -> dict:
        n_q, n_maps = len(self.samples), len(self.heatmap_inputs)
        tally.begin(CKPT_LOADS + n_q + n_maps)
        load_ms, ckpt, mp = timed_loads(self.ckpt_path, tally)
        cfg, vocab = ckpt.config, ckpt.vocab
        init = m2i2.ModelParams(cfg.model_config(), np.random.default_rng([cfg.seed, 0x11]))
        tally.check(
            init.params.keys() == mp.params.keys()
            and all(np.array_equal(t.data, mp.params[k].data) for k, t in init.params.items()),
            CKPT_LOADS,
            "zero-lr checkpoint does not restore to the seeded initialisation",
        )

        t0 = time.perf_counter()
        report = m2i2.evaluate(mp, cfg, self.samples, self.data, vocab)
        eval_s = time.perf_counter() - t0
        tally.complete(n_q)
        predictions = [p["prediction"] for p in report.predictions]
        tally.check(len(predictions) == n_q, n_q, f"{len(predictions)} predictions for {n_q} questions")

        t0 = time.perf_counter()
        heatmaps = [
            m2i2.attention_map(mp, cfg, self.images[image], question, vocab)
            for image, question in self.heatmap_inputs
        ]
        attn_s = time.perf_counter() - t0
        tally.complete(n_maps)
        bad = sum(
            not (h.shape == cfg.model_config().grid and np.isfinite(h).all() and h.min() >= 0 and h.max() <= 1)
            for h in heatmaps
        )
        tally.check(bad == 0, bad, f"{bad} heatmaps off the [0,1] patch grid")

        self._same_as_first(
            (predictions, [h.tobytes() for h in heatmaps]), tally, n_q + n_maps, "predictions or heatmaps"
        )
        if not self.oracle_done:
            self.oracle_done = True
            wrong = self.oracle(mp, cfg, vocab, predictions)
            tally.check(wrong == 0, wrong, f"{wrong} greedy answers fail the teacher-forced oracle")
        return {
            "wall_s": eval_s + attn_s,
            "ops": n_q,
            "samples_per_s": n_q / eval_s,
            "attn_maps_per_s": n_maps / attn_s,
            "ckpt_load_ms": load_ms,
            "ckpt_bytes": os.path.getsize(self.ckpt_path),
        }

    def oracle(self, mp, cfg, vocab, predictions: list[str]) -> int:
        """Questions whose greedy tokens one teacher-forced decoder pass over
        [BOS] + tokens does not reproduce by argmax, EOS included."""
        wrong = 0
        for s, pred in zip(self.samples, predictions):
            img = self.images[s.image]
            tokens = m2i2.generate_answer(mp, cfg, img, s.question, vocab)
            fused, ids, _ = fuse_question(mp, cfg, img, s.question, vocab)
            logits = decode_answer(mp, fused, ids, np.array([[BOS] + tokens])).data[0, :, : len(vocab)]
            stopped_at_eos = len(tokens) < cfg.max_answer_len - 1
            expected = tokens + [EOS] * stopped_at_eos
            argmax = [int(np.argmax(row)) for row in logits[: len(expected)]]
            wrong += argmax != expected or m2i2.detokenize(tokens, vocab) != pred
        return wrong


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Decode)}
