"""End-to-end behavioral gates.

Each test prints exactly one PASS/FAIL line with its measured values so the
suite output doubles as an acceptance report. Long-running training tests
share module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from m2i2 import gradcheck as gc
from m2i2.config import TrainConfig, preset
from m2i2.errors import ConfigError
from m2i2.evaluation import attention_map, evaluate, fuse_question
from m2i2.model import OWNED, ModelParams, encode_image, encode_text, fuse, interpolate_positional, mlm_logits, project_itc
from m2i2.momentum import FeatureQueue, enqueue, momentum_update
from m2i2.objectives import combined_loss, itc_loss, mim_loss, mlm_loss
from m2i2.synth import generate_captions, generate_vqa
from m2i2.tensor import Tensor
from m2i2.text import CLS, MASK, RESERVED, Vocab, build_vocab, mask_tokens, tokenize
from m2i2.trainer import (
    finetune,
    load_checkpoint,
    make_pretrain_batch,
    pretrain,
    pretrain_losses,
    restore_model,
)
from m2i2.vision import Image, load_image, mask_patches, patchify, augment


def push_order(q):
    """The queue's populated slots, oldest push first: the last filled
    pushes end just before write_ptr."""
    order = (q.write_ptr - q.filled + np.arange(q.filled)) % q.capacity
    return q.img_slots[order], q.txt_slots[order]


def report(n, ok, detail):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# The 200-step overfit run uses the desk preset with three overrides. The
# desk queue default (512) cannot work here: on a 32-caption corpus it
# accumulates ~16 stale projections of every caption, each a near-duplicate
# of the contrastive positive, which bounds the ITC loss below by ~ln(17).
# A 16-slot queue holds one recent batch of *other* captions instead. The
# batch size and learning rate are tuned for the 200-step overfit scale.
OVERFIT_OVERRIDES = dict(
    queue_capacity=16,
    batch_size=16,
    lr_init=2e-3,
    lr_final=2e-4,
)
OVERFIT_SEED = 13
OVERFIT_EPOCHS = 100  # 32 samples / batch 16 -> 2 steps per epoch -> 200 steps

MEMO_OVERRIDES = dict(
    batch_size=16,
    lr_init=2e-3,
    lr_final=2e-4,
)
MEMO_EPOCHS = 300  # 16 QA pairs / batch 16 -> 1 step per epoch -> 300 steps


@pytest.fixture(scope="module")
def caption32(tmp_path_factory):
    root = tmp_path_factory.mktemp("caps32")
    samples = generate_captions(32, 7, root)
    return root, samples


@pytest.fixture(scope="module")
def overfit_run(caption32, tmp_path_factory):
    root, samples = caption32
    out = tmp_path_factory.mktemp("overfit")
    t0 = time.time()
    cfg = preset("desk", seed=OVERFIT_SEED, epochs=OVERFIT_EPOCHS, **OVERFIT_OVERRIDES)
    ckpt_path = pretrain(cfg, samples, root, out)
    wall = time.time() - t0
    records = [json.loads(l) for l in open(out / "metrics.jsonl")]
    return root, samples, ckpt_path, records, wall


@pytest.fixture(scope="module")
def memorization_run(overfit_run, tmp_path_factory):
    root, _, pre_ckpt, _, _ = overfit_run
    vroot = tmp_path_factory.mktemp("vqa16")
    vsamples = generate_vqa(16, 7, vroot)
    out = tmp_path_factory.mktemp("memorize")
    cfg = preset("desk", seed=7, epochs=MEMO_EPOCHS, phase="finetune", **MEMO_OVERRIDES)
    ft_ckpt = finetune(cfg, vsamples, vroot, out, init_checkpoint=pre_ckpt)
    # the without-pretraining comparison run, reported but not asserted
    scratch_out = tmp_path_factory.mktemp("memorize_scratch")
    cfg2 = preset("desk", seed=7, epochs=MEMO_EPOCHS, phase="finetune", **MEMO_OVERRIDES)
    scratch_ckpt = finetune(cfg2, vsamples, vroot, scratch_out)
    return vroot, vsamples, ft_ckpt, out, scratch_ckpt, scratch_out


# ---- criterion 1: gradient correctness -----------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    results = gc.run_all()
    wall = time.time() - t0
    worst = max(err / tol for _, err, tol, _ in results)
    ok = all(r[3] for r in results) and wall < 120
    report(
        1,
        ok,
        f"{len(results)} finite-difference checks, worst err/tol {worst:.2e}, "
        f"{wall:.1f}s (< 120s)",
    )


# ---- criterion 2: loss identities ----------------------------------------


def test_criterion_02_loss_identities():
    v = 37
    uniform_ce = float(mlm_loss(Tensor(np.zeros((5, v))), np.zeros(5, dtype=np.int64)).data)
    d1 = abs(uniform_ce - math.log(v))

    x = np.random.default_rng(0).random((2, 3, 8))
    d2 = abs(float(mim_loss(Tensor(x.copy()), x).data))

    parts = {k: Tensor(float(i + 1)) for i, k in enumerate(("mim", "mlm", "itm", "itc"))}
    total = combined_loss(parts)
    d3 = abs(float(total.data) - 10.0)

    K, dp = 9, 8
    vvec = np.zeros(dp)
    vvec[0] = 1.0
    queue = FeatureQueue(16, dp)
    enqueue(queue, np.tile(vvec, (K, 1)), np.tile(vvec, (K, 1)))
    proj = Tensor(np.tile(vvec, (3, 1)))
    itc = float(itc_loss(proj, proj, proj, proj, queue, Tensor(0.07)).data)
    d4 = abs(itc - math.log(K + 1))

    ok = d1 < 1e-9 and d2 == 0.0 and d3 < 1e-12 and d4 < 1e-9
    report(
        2,
        ok,
        f"uniform CE dev {d1:.1e} (<1e-9), equal-input MIM {d2:.1e} (==0), "
        f"sum dev {d3:.1e} (<1e-12), uniform ITC dev {d4:.1e} (<1e-9)",
    )


# ---- criterion 3: pretraining overfit ------------------------------------


def _mlm_top1(ckpt_path, samples, root):
    ck = load_checkpoint(ckpt_path)
    cfg = ck.config
    mp, _, _ = restore_model(ck, cfg)
    vocab = ck.vocab
    imgs = [load_image(root / s.image, channels=cfg.channels) for s in samples]
    toks = [tokenize(s.caption, vocab, cfg.max_text_len) for s in samples]
    hits = tot = 0
    for r in range(5):
        rng = np.random.default_rng([99, r])
        b = make_pretrain_batch(imgs, toks, cfg, vocab, rng)
        logits = mlm_logits(
            mp,
            fuse(mp, encode_text(mp, b.ids), encode_image(mp, b.visible, b.positions), b.ids),
            b.mlm_batch_idx,
            b.mlm_positions,
        )
        hits += int((logits.data.argmax(-1) == b.mlm_labels).sum())
        tot += len(b.mlm_labels)
    return hits / tot, mp, cfg, vocab, imgs, toks


def test_criterion_03_pretraining_overfit(overfit_run):
    root, samples, ckpt_path, records, wall = overfit_run
    first, last = records[0], records[-1]
    assert last["step"] == 200
    drop = 1.0 - last["total"] / first["total"]
    mim_drop = 1.0 - last["mim"] / first["mim"]

    top1, mp, cfg, vocab, imgs, toks = _mlm_top1(ckpt_path, samples, root)

    ps = [patchify(augment(im, cfg.image_size), cfg.patch_size) for im in imgs]
    vis = np.stack([p.patches for p in ps])
    pos = np.stack([np.arange(p.n_patches) for p in ps])
    ids = np.stack(toks)
    ip = project_itc(mp, encode_image(mp, vis, pos)[:, 0, :], "img").data
    tp = project_itc(mp, encode_text(mp, ids)[:, 0, :], "txt").data
    sims = ip @ tp.T
    gap = float(np.diag(sims).mean() - (sims.sum() - np.trace(sims)) / (sims.size - len(sims)))

    ok = drop >= 0.80 and top1 >= 0.90 and mim_drop >= 0.50 and gap >= 0.2 and wall < 300
    report(
        3,
        ok,
        f"total loss drop {drop:.1%} (>=80%), MLM top-1 {top1:.1%} (>=90%), "
        f"MIM drop {mim_drop:.1%} (>=50%), ITC cosine gap {gap:.3f} (>=0.2), "
        f"{wall:.0f}s (<300s)",
    )


# ---- criterion 4: finetuning memorization --------------------------------


def test_criterion_04_finetuning_memorization(memorization_run):
    vroot, vsamples, ft_ckpt, out, scratch_ckpt, scratch_out = memorization_run
    ck = load_checkpoint(ft_ckpt)
    mp, _, _ = restore_model(ck, ck.config)
    rep = evaluate(mp, ck.config, vsamples, vroot, ck.vocab)
    acc = rep.overall_acc

    final = json.loads(open(out / "metrics.jsonl").readlines()[-1])["loss"]
    scratch_final = json.loads(open(scratch_out / "metrics.jsonl").readlines()[-1])["loss"]
    direction = "consistent" if final <= scratch_final else "inverted"

    ok = acc >= 0.95
    report(
        4,
        ok,
        f"greedy exact-match {acc:.1%} (>=95%) on 16 QA pairs after 300 steps; "
        f"final loss with pretraining {final:.4f} vs from scratch {scratch_final:.4f} "
        f"({direction}; logged, not asserted)",
    )


# ---- criterion 5: ablation mechanics -------------------------------------


def test_criterion_05_ablation_mechanics(caption32, tmp_path):
    root, samples = caption32
    cfg = preset("desk", seed=3, epochs=1, enable_mim=False, queue_capacity=16)
    vocab = build_vocab([s.caption for s in samples], cfg.vocab_size)
    imgs = [load_image(root / s.image, channels=cfg.channels) for s in samples[:8]]
    toks = [tokenize(s.caption, vocab, cfg.max_text_len) for s in samples[:8]]
    mp = ModelParams(cfg.model_config(), np.random.default_rng(3))
    queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
    # a no-MIM model holds no image decoder, mask token or MIM head, and its
    # steps compute and train only the other three objectives
    mim_clean = not [n for n in mp.params if n.startswith(OWNED["mim"])]
    for step in range(3):
        rng = np.random.default_rng([3, 5, step])
        batch = make_pretrain_batch(imgs, toks, cfg, vocab, rng)
        mp.zero_grads()
        parts, _ = pretrain_losses(mp, cfg, batch, queue, rng)
        mim_clean &= sorted(parts) == ["itc", "itm", "mlm"]
        combined_loss(parts).backward()
        mim_clean &= all(t.grad is not None for t in mp.params.values())

    out = tmp_path / "noitc"
    cfg2 = preset("desk", seed=3, epochs=1, enable_itc=False, batch_size=8)
    ckpt = load_checkpoint(pretrain(cfg2, samples, root, out))
    records = [json.loads(l) for l in open(out / "metrics.jsonl")]
    # a no-ITC run holds, saves and logs no momentum copy, queue or ITC head
    itc_clean = (
        ckpt.meta["queue"] is None
        and not [k for k in ckpt.arrays if k.startswith(("mom/", "queue/"))]
        and not [k for k in ckpt.arrays if k.split("/", 1)[1].startswith(OWNED["itc"])]
        and all(r["itc"] == 0.0 and "temp" not in r and "queue_fill" not in r for r in records)
    )

    try:
        TrainConfig(enable_mim=False, enable_mlm=False, enable_itm=False, enable_itc=False)
        rejected = False
    except ConfigError:
        rejected = True

    ok = mim_clean and itc_clean and rejected
    report(
        5,
        ok,
        f"no-mim holds and trains no image decoder or MIM head ({mim_clean}), no-itc holds, saves "
        f"and logs no momentum, queue or ITC head ({itc_clean}), all-off rejected ({rejected})",
    )


# ---- criterion 6: momentum and queue laws --------------------------------


def test_criterion_06_momentum_queue_laws():
    cfg = preset("test", seed=0)
    mp = ModelParams(cfg.model_config(), np.random.default_rng(0))
    m = 0.9
    theta0 = {k: t.data.copy() for k, t in mp.momentum.items()}
    for _ in range(50):
        momentum_update(mp, m)
    worst = 0.0
    for k, t in mp.momentum.items():
        expected = m**50 * theta0[k] + (1 - m**50) * mp.params[k].data
        worst = max(worst, float(np.abs(t.data - expected).max(initial=0.0)))
    ema_ok = worst < 1e-9

    rng = np.random.default_rng(42)
    queue_ok = True
    for _ in range(1000):
        cap = int(rng.integers(1, 12))
        q = FeatureQueue(cap, 4)
        oracle: list[np.ndarray] = []
        for _ in range(int(rng.integers(1, 8))):
            b = int(rng.integers(1, cap + 1))
            batch = rng.normal(size=(b, 4))
            batch /= np.linalg.norm(batch, axis=-1, keepdims=True)
            enqueue(q, batch, batch)
            oracle.extend(batch)
        expect = np.array(oracle[-cap:]) if oracle else np.zeros((0, 4))
        got, _ = push_order(q)
        if not (got.shape == expect.shape and np.allclose(got, expect, atol=0)):
            queue_ok = False
            break

    ok = ema_ok and queue_ok
    report(
        6,
        ok,
        f"EMA closed-form dev {worst:.1e} (<1e-9) over 50 updates, "
        f"1000 randomized enqueue sequences match the ring-buffer oracle ({queue_ok})",
    )


# ---- criterion 7: determinism and resume ---------------------------------


def test_criterion_07_determinism_and_resume(tmp_path, interrupt_after):
    root = tmp_path / "data"
    samples = generate_captions(8, 5, root, image_size=32)

    def run(out, **kw):
        return pretrain(preset("test", seed=5, epochs=4), samples, root, out, **kw)

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")

    def strip(path):
        recs = [json.loads(l) for l in open(path / "metrics.jsonl")]
        # wall_ms is the one timing field and can never be bitwise stable
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in recs]

    logs_ok = strip(tmp_path / "a") == strip(tmp_path / "b")

    half = interrupt_after(1, run, tmp_path / "half")
    resumed = run(tmp_path / "resumed", resume_from=half)
    ca, cr = load_checkpoint(a), load_checkpoint(resumed)
    resume_ok = all(np.array_equal(ca.arrays[k], cr.arrays[k]) for k in ca.arrays)

    ok = logs_ok and resume_ok
    report(
        7,
        ok,
        f"identical seeds give identical metrics logs ({logs_ok}); "
        f"resume at epoch 2/4 matches the uninterrupted run bitwise ({resume_ok})",
    )


# ---- criterion 8: masking statistics -------------------------------------


def test_criterion_08_masking_statistics():
    vocab = Vocab(RESERVED + [chr(ord("a") + i) for i in range(20)])
    L = 200
    base = np.concatenate([[CLS], np.random.default_rng(0).integers(7, 27, L - 1)])
    masked_positions = total = 0
    rng = np.random.default_rng(8)
    restored_ok = True
    draws = 0
    while total < 10000:
        mt = mask_tokens(base, vocab, 0.15, rng)
        masked_positions += len(mt.mask_positions)
        total += L - 1
        rec = mt.ids.copy()
        rec[mt.mask_positions] = mt.mask_labels
        restored_ok &= np.array_equal(rec, base) and (mt.ids[mt.mask_positions] == MASK).all()
        draws += 1
    rate = masked_positions / total
    rate_ok = 0.13 <= rate <= 0.17

    img = Image(np.random.default_rng(1).random((64, 64, 1)))
    counts_ok = True
    for rate_i, n, expect in ((0.15, 16, 2), (0.15, 256, 38)):
        patch = 16 if n == 16 else 4
        p = patchify(img, patch)
        mp_ = mask_patches(p, rate_i, np.random.default_rng(2))
        counts_ok &= len(mp_.mask_positions) == expect == max(1, round(rate_i * n))
        back = p.patches.copy()
        back[mp_.mask_positions] = 0.0
        back[mp_.mask_positions] = mp_.mask_targets
        counts_ok &= np.array_equal(back, p.patches)

    ok = rate_ok and restored_ok and counts_ok
    report(
        8,
        ok,
        f"text mask rate {rate:.4f} over {total} positions (in [0.13, 0.17]), "
        f"scatter-back exact ({restored_ok}), image mask counts exact ({counts_ok})",
    )


# ---- criterion 9: positional interpolation -------------------------------


def test_criterion_09_positional_interpolation(tmp_path):
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(1 + 16, 8))
    ident = interpolate_positional(pos, (4, 4), (4, 4))
    identity_ok = np.array_equal(ident, pos)

    const = np.full((1 + 16, 8), 3.25)
    grown = interpolate_positional(const, (4, 4), (6, 6))
    const_ok = np.allclose(grown, 3.25, atol=1e-12) and grown.shape == (37, 8)

    big = interpolate_positional(rng.normal(size=(257, 8)), (16, 16), (24, 24))
    rows_ok = big.shape[0] == 577

    root = tmp_path / "d"
    csamples = generate_captions(6, 1, root, image_size=32)
    pre = pretrain(preset("test", seed=1, epochs=1, image_size=32), csamples, root, tmp_path / "pre")
    vroot = tmp_path / "v"
    vsamples = generate_vqa(6, 1, vroot, image_size=64)
    try:
        finetune(
            preset("test", seed=1, epochs=1, image_size=64, phase="finetune"),
            vsamples, vroot, tmp_path / "ft", init_checkpoint=pre,
        )
        resize_ok = True
    except Exception:
        resize_ok = False

    ok = identity_ok and const_ok and rows_ok and resize_ok
    report(
        9,
        ok,
        f"identity on equal grids ({identity_ok}), constant-preserving ({const_ok}), "
        f"(16,16)->(24,24) gives 577 rows ({rows_ok}), finetune at 2x resolution runs "
        f"({resize_ok})",
    )


# ---- criterion 10: eval and attention ------------------------------------


def test_criterion_10_eval_and_attention(tmp_path):
    root = tmp_path / "vqa"
    samples = generate_vqa(10, 2, root, image_size=32)
    cfg = preset("test", seed=2, phase="finetune")
    mp = ModelParams(cfg.model_config(), np.random.default_rng(2))
    vocab = build_vocab([s.question for s in samples] + [s.answer for s in samples], cfg.vocab_size)

    rep = evaluate(mp, cfg, samples, root, vocab)
    recount = {"closed": [0, 0], "open": [0, 0]}
    for s, p in zip(samples, rep.predictions):
        recount[s.answer_type][0] += int(p["correct"])
        recount[s.answer_type][1] += 1
    acc_ok = (
        rep.closed_correct == recount["closed"][0]
        and rep.closed_n == recount["closed"][1]
        and rep.open_correct == recount["open"][0]
        and rep.open_n == recount["open"][1]
        and rep.overall_acc * len(samples) == rep.closed_correct + rep.open_correct
    )

    img = load_image(root / samples[0].image, channels=cfg.channels)
    heat = attention_map(mp, cfg, img, samples[0].question, vocab)
    g = cfg.image_size // cfg.patch_size
    shape_ok = heat.shape == (g, g) and 0.0 <= heat.min() and heat.max() <= 1.0

    pure = attention_map(mp, cfg, img, samples[0].question, vocab, grad_weighted=False)
    capture = []
    fuse_question(mp, cfg, img, samples[0].question, vocab, capture=capture)
    row = capture[-1].data[0, :, 0, 1:].mean(axis=0)
    expected = (row - row.min()) / (row.max() - row.min())
    pure_ok = np.abs(pure.reshape(-1) - expected).max() < 1e-9

    ok = acc_ok and shape_ok and pure_ok
    report(
        10,
        ok,
        f"accuracy recount exact ({acc_ok}), heatmap is patch-grid shaped in [0,1] "
        f"({shape_ok}), pure-attention mode equals the captured softmax row "
        f"({pure_ok})",
    )
