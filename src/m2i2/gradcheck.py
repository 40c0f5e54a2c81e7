"""Finite-difference verification of every differentiable op and each loss.

Central differences (eps=1e-5, float64) against the tape gradients. Op checks
run on random probe inputs in [-2, 2], at tolerance 1e-4. Loss checks run the
training forwards themselves (trainer.pretrain_losses and
trainer.vqa_forward_loss) on a two-sample batch, and probe a few entries of
parameters from the heads down to the embeddings, every attention query and
key projection among them, at tolerance 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .config import preset
from .model import ModelParams
from .momentum import FeatureQueue, enqueue
from .tensor import Tensor, concat, cross_entropy, layer_norm, linear, mlp, scaled_dot_product_attention, softmax
from .text import build_vocab, tokenize
from .trainer import make_pretrain_batch, pretrain_losses, vqa_forward_loss
from .vision import Image

OP_TOL = 1e-4
E2E_TOL = 1e-3
EPS = 1e-5


def fd_grad(f, x: np.ndarray, eps: float = EPS, indices=None) -> np.ndarray:
    """Central differences of the scalar f(x), perturbing x in place and
    restoring it; with indices, only at those flat positions (zero elsewhere)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size) if indices is None else indices:
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def check_grad(build, x0: np.ndarray) -> float:
    """Relative error of the tape gradient of build (Tensor -> scalar Tensor)
    at x0 against central finite differences."""
    t = Tensor(x0.copy(), requires_grad=True)
    build(t).backward()
    num = fd_grad(lambda x: float(build(Tensor(x)).data), x0)
    return rel_err(t.grad, num)


def unpack(t: Tensor, *shapes: tuple[int, ...]) -> list[Tensor]:
    """Consecutive pieces of the flat t, reshaped to shapes; one probe vector
    so checks every input of a many-input op."""
    pieces, lo = [], 0
    for shape in shapes:
        n = math.prod(shape)
        pieces.append(t[lo : lo + n].reshape(shape))
        lo += n
    return pieces


def op_checks(rng: np.random.Generator) -> list[tuple[str, float, float]]:
    def r(*s):
        return rng.uniform(-2, 2, size=s)

    w34, w45, g5, b5, w35 = r(3, 4), r(4, 5), r(5), r(5), r(3, 5)
    x234, w235 = r(2, 3, 4), r(2, 3, 5)
    tgt = np.array([1, 0, 3])
    cases = [
        ("matmul", lambda t: ((t @ Tensor(w45)) * Tensor(w35)).sum(), r(3, 4)),
        ("matmul_weight", lambda t: ((Tensor(x234) @ t) * Tensor(w235)).sum(), r(4, 5)),
        ("add_mul_div", lambda t: ((t * Tensor(w34) + t) / (t * t + 1.5)).sum(), r(3, 4)),
        ("neg_sub", lambda t: ((Tensor(w34) - t) * t).sum(), r(3, 4)),
        ("exp", lambda t: (t * 0.3).exp().sum(), r(3, 4)),
        ("gelu", lambda t: t.gelu().sum(), r(3, 4)),
        ("softmax", lambda t: (softmax(t, axis=-1) * Tensor(w34)).sum(), r(3, 4)),
        ("layer_norm", lambda t: (layer_norm(t, Tensor(g5), Tensor(b5)) * Tensor(w35)).sum(), r(3, 5)),
        ("cross_entropy", lambda t: cross_entropy(t, tgt), r(3, 5)),
        ("reductions", lambda t: (t.sum(axis=0) * t.mean(axis=0)).sum(), r(3, 4)),
        ("broadcast_to", lambda t: (t.broadcast_to((2, 3, 4)) * Tensor(x234)).sum(), r(1, 4)),
        ("reshape_transpose", lambda t: (t.reshape(4, 3).transpose((1, 0)) * Tensor(w34)).sum(), r(3, 4)),
        ("indexing", lambda t: (t[np.array([0, 2]), 1:] ** 2.0).sum(), r(3, 4)),
        ("concat", lambda t: (concat([t, t * 0.5], axis=1) * Tensor(np.concatenate([w34, w34], axis=1))).sum(), r(3, 4)),
    ]
    # the fused ops, each input cut from one probe vector; attention (2 heads, Lq != Lk, so with its head
    # split and merge) runs with and without a PAD mask, and with a loss on its captured probabilities
    lin = ((3, 4), (4, 5), (5,))
    qkv = ((2, 3, 4), (2, 4, 4), (2, 4, 4))
    ffn = ((3, 4), (4, 6), (6,), (6, 4), (4,))
    pad = np.where(np.array([[0, 0, 0, 1], [0, 0, 1, 1]]) > 0, -1e9, 0.0)[:, None, None, :]
    w234, w2234 = r(2, 3, 4), r(2, 2, 3, 4)

    def attend(t, bias=None, capture=False):
        cap = [] if capture else None
        loss = (scaled_dot_product_attention(*unpack(t, *qkv), 2, bias, cap) * Tensor(w234)).sum()
        return loss + (cap[0] * Tensor(w2234)).sum() if capture else loss

    cases += [
        ("linear", lambda t: (linear(*unpack(t, *lin)) * Tensor(w35)).sum(), r(37)),
        ("attention", attend, r(88)),
        ("attention_masked", lambda t: attend(t, pad), r(88)),
        ("attention_probs", lambda t: attend(t, pad, capture=True), r(88)),
        ("mlp", lambda t: (mlp(*unpack(t, *ffn)) * Tensor(w34)).sum(), r(70)),
    ]
    return [(f"op/{name}", check_grad(build, x0), OP_TOL) for name, build, x0 in cases]


def probe_param_errs(mp: ModelParams, loss_fn, names: list[str], rng: np.random.Generator, n_probe: int = 6) -> float:
    """The worst relative error of the tape gradient of loss_fn against
    central differences, at n_probe random entries of each named parameter."""
    mp.zero_grads()
    loss_fn().backward()
    worst = 0.0
    for name in names:
        p = mp.params[name]
        g = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        picks = rng.choice(p.data.size, size=min(n_probe, p.data.size), replace=False)
        num = fd_grad(lambda _: float(loss_fn().data), p.data, indices=picks).reshape(-1)
        for i in picks:
            denom = max(abs(num[i]), abs(g[i]), 1e-8)
            worst = max(worst, abs(num[i] - g[i]) / denom)
    return worst


def loss_checks(rng: np.random.Generator) -> list[tuple[str, float, float]]:
    cfg = preset("test", vocab_size=32, max_text_len=8, max_answer_len=4, image_size=8, patch_size=4, queue_capacity=8, batch_size=2)
    # the pretraining objectives run on a pretrain model, answer generation on
    # a finetune one; both share their encoders and fusion bitwise
    pre = ModelParams(cfg.model_config(), np.random.default_rng(0))
    ft = ModelParams(replace(cfg.model_config(), phase="finetune"), np.random.default_rng(0))
    # each image feeds a true ITM row (label 1) and a mismatched one (label 0); at
    # init every row reads p ~ 1/2, so their image-path gradients nearly cancel, to
    # ~1e-7 on img_enc.0.ln1.g, where central differences err by up to 8e-4. A head
    # at 30x the init scale with a bias toward "match" keeps the rows apart
    pre.params["itm.w"].data = 30 * pre.params["itm.w"].data
    pre.params["itm.b"].data = np.array([0.0, 1.0])
    # texts shorter than max_text_len, so text, fusion and the answer decoder's
    # memory run at the batch width; answers of 1 and 2 tokens
    texts, answers = ["a dot", "one bar"], ["yes", "a bar"]
    vocab = build_vocab(texts + answers, cfg.vocab_size)
    images = [Image(rng.random((cfg.image_size, cfg.image_size, cfg.channels))) for _ in texts]
    ids = np.stack([tokenize(t, vocab, cfg.max_text_len) for t in texts])
    batch = make_pretrain_batch(images, list(ids), cfg, vocab, rng)
    queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
    negs = rng.normal(size=(4, cfg.proj_dim))
    negs /= np.linalg.norm(negs, axis=-1, keepdims=True)
    enqueue(queue, negs, negs)

    def pretrain_loss(name):
        # one seed, so every evaluation pairs the same mismatched captions for ITM
        return lambda: pretrain_losses(pre, cfg, batch, queue, np.random.default_rng(0))[0][name]

    def qk(*blocks):
        return [f"{block}.{w}" for block in blocks for w in ("wq", "wk")]

    # every attention block's query and key projections are probed; the image
    # encoder's and fusion's on ITC and ITM, as cond_lm reads their gradients
    # at 2e-3 to 6e-3 relative error at init
    suites = [
        ("loss/mim", pre, pretrain_loss("mim"), [*qk("img_dec.0.attn"), "mim.w", "img_mask_tok", "patch_embed.w"]),
        ("loss/mlm", pre, pretrain_loss("mlm"), ["mlm.w", "fusion.0.xattn.wv", "txt_enc.0.mlp.w1", "tok_embed"]),
        (
            "loss/itm", pre, pretrain_loss("itm"),
            ["itm.w", "fusion.0.attn.wo", *qk("fusion.0.attn", "fusion.0.xattn"), "img_enc.0.ln1.g"],
        ),
        ("loss/itc", pre, pretrain_loss("itc"), ["itc_img.w", "itc_txt.w", "itc.log_temp", *qk("txt_enc.0.attn", "img_enc.0.attn")]),
        (
            "loss/cond_lm", ft, lambda: vqa_forward_loss(ft, images, ids, answers, vocab),
            ["ans_head.w", *qk("ans_dec.0.attn", "ans_dec.0.xattn"), "ans_pos", "fusion.0.mlp.w2"],
        ),
    ]
    return [
        (name, probe_param_errs(mp, fn, names, rng), E2E_TOL) for name, mp, fn, names in suites
    ]


def run_all(seed: int = 0) -> list[tuple[str, float, float, bool]]:
    rng = np.random.default_rng(seed)
    results = op_checks(rng) + loss_checks(rng)
    return [(name, err, tol, err < tol) for name, err, tol in results]
