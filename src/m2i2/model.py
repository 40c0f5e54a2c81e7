"""The five transformer sub-networks and their parameters.

Sub-networks: image encoder, text encoder, multimodal fusion encoder
(text-stream self-attention + cross-attention to image features), image
reconstruction decoder, and the causal answer decoder. Plus the projection /
prediction heads and positional-embedding interpolation for resolution
changes.

A model holds only what its run trains: the encoders and the fusion encoder,
the tensors of each pretraining objective that runs or of finetuning (OWNED),
and, when ITC runs, a momentum copy.

All forward functions are batched ([b, ...]) and pure given (inputs, params),
so repeated passes are bitwise identical; the one state a call updates is
the decode cache a caller may pass to decode_answer.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .errors import ContractError, ShapeError
from .tensor import Tensor, concat, layer_norm, linear, mlp, scaled_dot_product_attention
from .text import BOS, CLS, PAD
from .vision import Image, augment, patchify, resize_bilinear

NEG_BIAS = -1e9
MLP_RATIO = 4  # hidden width of every transformer MLP, in multiples of dim
OBJECTIVES = ("mim", "mlm", "itm", "itc")


# name prefixes of the tensors each objective, and finetuning, owns; a model holds
# them only when their owner runs, and every other tensor in both phases
OWNED = {
    "mim": ("img_mask_tok", "img_dec_pos", "img_dec.", "mim."),
    "mlm": ("mlm.",),
    "itm": ("itm.",),
    "itc": ("itc",),
    "finetune": ("ans_pos", "ans_dec.", "ans_head."),
}

# names of the sub-networks that keep a momentum copy when ITC runs (plus
# their embeddings and ITC heads); everything the momentum ITC forward reaches
MOMENTUM_PREFIXES = (
    "img_enc.",
    "txt_enc.",
    "patch_embed.",
    "img_cls",
    "img_pos",
    "tok_embed",
    "txt_pos",
    "itc_img.",
    "itc_txt.",
)


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def _layout(cfg: ModelConfig):
    """Yields (name, shape, fill) for every tensor of any owner, in draw
    order; fill None means a truncated-normal draw."""
    d = cfg.dim
    yield "patch_embed.w", (cfg.patch_dim, d), None
    yield "patch_embed.b", (d,), 0.0
    yield "img_cls", (1, d), None
    yield "img_mask_tok", (1, d), None
    yield "img_pos", (1 + cfg.n_patches, d), None
    yield "img_dec_pos", (1 + cfg.n_patches, d), None
    yield "tok_embed", (cfg.vocab_size, d), None
    yield "txt_pos", (cfg.max_text_len, d), None
    yield "ans_pos", (cfg.max_answer_len, d), None

    def stack(prefix: str, depth: int, cross: bool):
        for i in range(depth):
            p = f"{prefix}.{i}"
            for ln in ("ln1", "ln2") + (("ln_x",) if cross else ()):
                yield f"{p}.{ln}.g", (d,), 1.0
                yield f"{p}.{ln}.b", (d,), 0.0
            for att in ("attn",) + (("xattn",) if cross else ()):
                for w in ("wq", "wk", "wv", "wo"):
                    yield f"{p}.{att}.{w}", (d, d), None
                    # no key bias: it adds q·kb to every score of a query
                    # row alike, which the softmax cancels
                    if w != "wk":
                        yield f"{p}.{att}.{w[1]}b", (d,), 0.0
            yield f"{p}.mlp.w1", (d, MLP_RATIO * d), None
            yield f"{p}.mlp.b1", (MLP_RATIO * d,), 0.0
            yield f"{p}.mlp.w2", (MLP_RATIO * d, d), None
            yield f"{p}.mlp.b2", (d,), 0.0
        yield f"{prefix}.ln_f.g", (d,), 1.0
        yield f"{prefix}.ln_f.b", (d,), 0.0

    yield from stack("img_enc", cfg.depth_img_enc, cross=False)
    yield from stack("txt_enc", cfg.depth_txt_enc, cross=False)
    yield from stack("fusion", cfg.depth_fusion, cross=True)
    yield from stack("img_dec", cfg.depth_img_dec, cross=False)
    yield from stack("ans_dec", cfg.depth_ans_dec, cross=True)

    yield "itc_img.w", (d, cfg.proj_dim), None
    yield "itc_img.b", (cfg.proj_dim,), 0.0
    yield "itc_txt.w", (d, cfg.proj_dim), None
    yield "itc_txt.b", (cfg.proj_dim,), 0.0
    # stored as log so optimizer updates are multiplicative in tau, which
    # keeps the temperature from crashing into its lower clamp
    yield "itc.log_temp", (), np.log(0.07)
    yield "itm.w", (d, 2), None
    yield "itm.b", (2,), 0.0
    yield "mlm.w", (d, cfg.vocab_size), None
    yield "mlm.b", (cfg.vocab_size,), 0.0
    yield "mim.w", (d, cfg.patch_dim), None
    yield "mim.b", (cfg.patch_dim,), 0.0
    yield "ans_head.w", (d, cfg.vocab_size), None
    yield "ans_head.b", (cfg.vocab_size,), 0.0


class ModelParams:
    """Named parameter tensors of one run (see OWNED); when ITC runs, plus a
    momentum copy of the unimodal subset.

    ModelParams(cfg, rng) draws fresh values; ModelParams.from_arrays holds
    saved ones and draws nothing.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        # the tensors of owners that do not run are drawn too but not kept, so
        # every kept tensor takes the same values from a given generator in any run
        drawn = {
            name: _trunc_normal(rng, shape) if fill is None else np.full(shape, fill)
            for name, shape, fill in _layout(cfg)
        }
        # the momentum copy starts equal to the parameters, in arrays of its own
        self._hold(cfg, drawn, {n: a.copy() for n, a in drawn.items() if n.startswith(MOMENTUM_PREFIXES)} if cfg.runs("itc") else {})

    @classmethod
    def from_arrays(
        cls, cfg: ModelConfig, params: dict[str, np.ndarray], momentum: dict[str, np.ndarray]
    ) -> "ModelParams":
        """A model holding the given parameter and momentum arrays themselves,
        not copies; nothing is drawn. Raises ShapeError naming every tensor
        that is missing or has the wrong shape."""
        mp = cls.__new__(cls)
        mp._hold(cfg, params, momentum)
        return mp

    def _hold(self, cfg: ModelConfig, params: dict[str, np.ndarray], momentum: dict[str, np.ndarray]) -> None:
        """Keep the arrays a model of cfg holds, with names and shapes taken
        from cfg. Nothing writes a parameter or momentum array in place
        (AdamW and the EMA rebind .data), so they need not be copies."""
        idle = tuple(p for owner, prefixes in OWNED.items() if not cfg.runs(owner) for p in prefixes)
        shapes = {name: shape for name, shape, _ in _layout(cfg) if not name.startswith(idle)}
        mirrored = [n for n in shapes if n.startswith(MOMENTUM_PREFIXES)] if cfg.runs("itc") else []
        bad = [n for n in shapes if n not in params or params[n].shape != shapes[n]]
        bad += [f"momentum {n}" for n in mirrored if n not in momentum or momentum[n].shape != shapes[n]]
        if bad:
            raise ShapeError(f"offending tensors: {bad}")
        self.cfg = cfg
        self.params: dict[str, Tensor] = {n: Tensor(params[n], requires_grad=True) for n in shapes}
        self.momentum: dict[str, Tensor] = {n: Tensor(momentum[n]) for n in mirrored}

    def source(self, use_momentum: bool) -> dict[str, Tensor]:
        return self.momentum if use_momentum else self.params

    def frozen(self) -> "ModelParams":
        """A model over the same arrays, not copies, whose parameters require
        no gradient; self is unchanged, so no tape made with the view reaches
        a parameter of self."""
        view = ModelParams.__new__(ModelParams)
        view.cfg, view.momentum = self.cfg, self.momentum
        view.params = {n: Tensor(t.data) for n, t in self.params.items()}
        return view

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None


# ---- building blocks -----------------------------------------------------


def attention(
    x: Tensor,
    P: dict[str, Tensor],
    prefix: str,
    heads: int,
    bias: np.ndarray | None = None,
    kv: Tensor | None = None,
    capture: list | None = None,
    cache: dict | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention; pre-normalized input expected.

    The [b, L, dim] q, k and v projections go to the attention op as they
    are. bias is an additive attention mask broadcastable to [b, heads, Lq,
    Lk], Lk the keys' length; kv switches to cross-attention. capture, when
    given, receives the post-softmax attention tensor. cache, when given,
    keeps this call's [b, Lk, dim] keys and values under prefix for the next
    call: self-attention appends the rows of x to the cached ones, so x
    holds only new positions; cross-attention projects kv on the first call
    only.
    """
    src = kv if kv is not None else x
    q = linear(x, P[f"{prefix}.wq"], P[f"{prefix}.qb"])
    cached = cache.get(prefix) if cache is not None else None
    if kv is not None and cached is not None:
        k, v = cached
    else:
        k = src @ P[f"{prefix}.wk"]
        v = linear(src, P[f"{prefix}.wv"], P[f"{prefix}.vb"])
        if cached is not None:
            k, v = concat([cached[0], k], axis=1), concat([cached[1], v], axis=1)
        if cache is not None:
            cache[prefix] = (k, v)
    out = scaled_dot_product_attention(q, k, v, heads, bias, capture)
    return linear(out, P[f"{prefix}.wo"], P[f"{prefix}.ob"])


def _ln(x: Tensor, P: dict[str, Tensor], name: str) -> Tensor:
    return layer_norm(x, P[f"{name}.g"], P[f"{name}.b"])


def transformer_stack(
    x: Tensor,
    P: dict[str, Tensor],
    prefix: str,
    depth: int,
    heads: int,
    self_bias: np.ndarray | None = None,
    memory: Tensor | None = None,
    memory_bias: np.ndarray | None = None,
    capture: list | None = None,
    cache: dict | None = None,
) -> Tensor:
    """Pre-LN transformer; optional cross-attention to ``memory`` per layer.
    cache is handed to every attention call (see attention)."""
    for i in range(depth):
        p = f"{prefix}.{i}"
        x = x + attention(_ln(x, P, f"{p}.ln1"), P, f"{p}.attn", heads, bias=self_bias, cache=cache)
        if memory is not None:
            x = x + attention(
                _ln(x, P, f"{p}.ln_x"), P, f"{p}.xattn", heads, bias=memory_bias, kv=memory, capture=capture, cache=cache
            )
        x = x + mlp(_ln(x, P, f"{p}.ln2"), *(P[f"{p}.mlp.{w}"] for w in ("w1", "b1", "w2", "b2")))
    return _ln(x, P, f"{prefix}.ln_f")


# ---- sub-network forward passes ------------------------------------------


def encode_image(
    mp: ModelParams,
    visible_patches: np.ndarray,
    positions: np.ndarray,
    use_momentum: bool = False,
) -> Tensor:
    """Image encoder over visible patches.

    visible_patches [b, N_vis, patch_dim], positions [b, N_vis] grid slots.
    Returns [b, 1+N_vis, dim]; row 0 is the image summary (CLS).
    """
    P = mp.source(use_momentum)
    cfg = mp.cfg
    positions = np.asarray(positions, dtype=np.int64)
    if positions.min(initial=0) < 0 or positions.max(initial=-1) >= cfg.n_patches:
        raise IndexError(f"patch position out of grid range [0, {cfg.n_patches})")
    b = visible_patches.shape[0]
    x = linear(Tensor(visible_patches), P["patch_embed.w"], P["patch_embed.b"])
    x = x + P["img_pos"][1 + positions]
    cls = (P["img_cls"] + P["img_pos"][0:1]).broadcast_to((b, 1, cfg.dim))
    x = concat([cls, x], axis=1)
    return transformer_stack(x, P, "img_enc", cfg.depth_img_enc, cfg.heads)


def encode_full_images(mp: ModelParams, images: list[Image]) -> Tensor:
    """Image encoder over every patch of each center-cropped image; the
    evaluation view. Returns [b, 1+N, dim]; an empty batch raises ShapeError."""
    cfg = mp.cfg
    if not images:
        raise ShapeError("encode_full_images needs at least one image, got an empty batch")
    vis, pos = [], []
    for img in images:
        p = patchify(augment(img, cfg.image_size), cfg.patch_size)
        vis.append(p.patches)
        pos.append(np.arange(p.n_patches))
    return encode_image(mp, np.stack(vis), np.stack(pos))


def decode_image(
    mp: ModelParams,
    encoder_features: Tensor,
    visible_positions: np.ndarray,
    mask_positions: np.ndarray,
) -> Tensor:
    """Reconstruct masked patches; returns predicted pixels [b, k, patch_dim].

    The learnable mask embedding fills each masked grid slot, full-grid order
    is restored with decoder positional embeddings, and the pixel head is
    applied to masked rows only.
    """
    P = mp.params
    cfg = mp.cfg
    visible_positions = np.asarray(visible_positions, dtype=np.int64)
    mask_positions = np.asarray(mask_positions, dtype=np.int64)
    b, n_vis = visible_positions.shape
    k = mask_positions.shape[1]
    if k == 0:
        return Tensor(np.zeros((b, 0, cfg.patch_dim)))
    for i in range(b):
        if np.intersect1d(visible_positions[i], mask_positions[i]).size:
            raise ContractError("mask_positions overlap visible positions")

    mask_row = P["img_mask_tok"].broadcast_to((b, 1, cfg.dim))
    table = concat([encoder_features, mask_row], axis=1)  # [b, 2+n_vis, d]
    idx = np.full((b, cfg.n_patches), 1 + n_vis, dtype=np.int64)
    rows = np.repeat(np.arange(b), n_vis)
    idx[rows, visible_positions.ravel()] = np.tile(1 + np.arange(n_vis), b)
    batch = np.arange(b)[:, None]
    seq = concat([table[:, 0:1, :], table[batch, idx]], axis=1)  # [b, 1+N, d]
    seq = seq + P["img_dec_pos"]
    out = transformer_stack(seq, P, "img_dec", cfg.depth_img_dec, cfg.heads)
    masked_rows = out[batch, 1 + mask_positions]  # [b, k, d]
    flat = masked_rows.reshape(b * k, cfg.dim)
    return linear(flat, P["mim.w"], P["mim.b"]).reshape(b, k, cfg.patch_dim)


def pad_bias(ids: np.ndarray) -> np.ndarray:
    """Additive attention bias masking the PAD key positions of ids [b, L];
    [b, 1, 1, L]."""
    return np.where(ids == PAD, NEG_BIAS, 0.0)[:, None, None, :]


def text_width(ids: np.ndarray) -> int:
    """The columns of ids [n, L] up to the longest row's last non-PAD token."""
    return 1 + np.flatnonzero((ids != PAD).any(axis=0)).max(initial=0)


def distinct(items, key=lambda x: x) -> tuple[list, np.ndarray]:
    """The distinct items by key in first-seen order, and each item's row
    among them; a caller encodes each distinct input once and gathers its
    rows back into item order. Encoder rows never mix, so the gathered rows
    are bitwise those of encoding every item."""
    rows: dict = {}
    for x in items:
        rows.setdefault(key(x), (len(rows), x))
    return [x for _, x in rows.values()], np.array([rows[key(x)][0] for x in items], dtype=np.int64)


def encode_text(mp: ModelParams, ids: np.ndarray, use_momentum: bool = False) -> Tensor:
    """Text encoder; ids [b, L] with CLS first, PAD tail, L <= max_text_len,
    as tokenize makes them. Runs on the columns up to the longest row (see
    text_width) and returns [b, W, dim]; self-attention scores those W keys,
    so a non-PAD row agrees with the one the full-width ids give, or a batch
    of one gives, up to the last bits. An empty batch, or ids wider than
    max_text_len, raise ShapeError."""
    P = mp.source(use_momentum)
    cfg = mp.cfg
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or not len(ids) or ids.shape[1] > cfg.max_text_len:
        raise ShapeError(f"encode_text needs a nonempty [b, L <= {cfg.max_text_len}] id batch, got shape {ids.shape}")
    if ids.max(initial=0) >= cfg.vocab_size:
        raise IndexError(f"token id >= vocab size {cfg.vocab_size}")
    ids = ids[:, : text_width(ids)]
    bias = pad_bias(ids)
    x = P["tok_embed"][ids] + P["txt_pos"][: ids.shape[1]]
    return transformer_stack(x, P, "txt_enc", cfg.depth_txt_enc, cfg.heads, self_bias=bias)


def fuse(
    mp: ModelParams,
    text_features: Tensor,
    image_features: Tensor,
    text_ids: np.ndarray,
    capture: list | None = None,
) -> Tensor:
    """Multimodal encoder: text-stream self-attention + cross-attention to
    image features. Runs on the columns of text_ids [b, L] up to the longest
    row, W of them, as encode_text does; text_features [b, >= W, dim] lose
    the columns past W. Returns fused text-stream features [b, W, dim]; row
    0 (CLS) is the joint representation. capture collects per-layer
    cross-attention tensors [b, heads, W, S]."""
    cfg = mp.cfg
    if text_features.shape[-1] != image_features.shape[-1]:
        raise ContractError("text/image feature dims differ")
    text_ids = text_ids[:, : text_width(text_ids)]
    w = text_ids.shape[1]
    if text_features.shape[1] < w:
        raise ShapeError(f"text features {text_features.shape} narrower than the {w} columns of their ids")
    if text_features.shape[1] > w:
        text_features = text_features[:, :w]
    return transformer_stack(
        text_features,
        mp.params,
        "fusion",
        cfg.depth_fusion,
        cfg.heads,
        self_bias=pad_bias(text_ids),
        memory=image_features,
        capture=capture,
    )


def decode_answer(
    mp: ModelParams,
    fused_context: Tensor,
    text_ids: np.ndarray,
    prefix_ids: np.ndarray,
    cache: dict | None = None,
) -> Tensor:
    """Causal answer decoder.

    fused_context [b, W, dim] are the fused features of text_ids [b, L],
    W <= L <= max_text_len, as fuse returns them; every id past column W
    must be PAD. prefix_ids [b, Lp] must start with BOS. Cross-attention
    memory is the fused CLS, then the fused rows: 1 + W key slots under a
    mask that hides the PAD ones.

    Without a cache this is teacher forcing: returns next-token logits for
    every prefix position, [b, Lp, vocab]. With a cache (a dict, empty on
    the first call of a batch) the memory, its mask and the cross-attention
    keys and values are made on the first call, and each call embeds only
    the prefix positions the cache has not seen, appends their
    self-attention keys and values, and returns logits for those positions
    only: [b, Lp - seen, vocab]. Each call's prefix must extend the last
    one's. The cached logits equal the teacher-forced ones up to the last
    bits, since one-row products take a different BLAS path.
    """
    P = mp.params
    cfg = mp.cfg
    prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
    if prefix_ids.ndim != 2 or prefix_ids.shape[1] == 0:
        raise ContractError("answer prefix must be a nonempty [b, Lp] id array")
    if (prefix_ids[:, 0] != BOS).any():
        raise ContractError("answer prefix must start with BOS")
    if cache is None:
        cache = {}
    Lp, seen = prefix_ids.shape[1], cache.get("seen", 0)
    if Lp <= seen:
        raise ContractError(f"answer prefix of length {Lp} adds nothing to the {seen} cached positions")
    if "memory" not in cache:
        b, w, _ = fused_context.shape
        if len(text_ids) != b or text_ids.shape[1] < w or (text_ids[:, w:] != PAD).any():
            raise ShapeError(f"text ids {text_ids.shape} for fused features {fused_context.shape}")
        # the fused CLS slot first, never masked
        mem_ids = np.concatenate([np.full((b, 1), CLS), text_ids[:, :w]], axis=1)
        memory = concat([fused_context[:, 0:1, :], fused_context], axis=1)
        cache["memory"] = memory, pad_bias(mem_ids)
    memory, mem_bias = cache["memory"]
    causal = np.where(np.tril(np.ones((Lp, Lp))) > 0, 0.0, NEG_BIAS)[None, None, seen:]
    x = P["tok_embed"][prefix_ids[:, seen:]] + P["ans_pos"][seen:Lp]
    out = transformer_stack(
        x,
        P,
        "ans_dec",
        cfg.depth_ans_dec,
        cfg.heads,
        self_bias=causal,
        memory=memory,
        memory_bias=mem_bias,
        cache=cache,
    )
    cache["seen"] = Lp
    return linear(out, P["ans_head.w"], P["ans_head.b"])


def project_itc(mp: ModelParams, cls_features: Tensor, which: str, use_momentum: bool = False) -> Tensor:
    """Unit-normalized contrastive projection of CLS features [b, dim]."""
    P = mp.source(use_momentum)
    v = linear(cls_features, P[f"itc_{which}.w"], P[f"itc_{which}.b"])
    norm = ((v * v).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
    return v / norm


def itm_logits(mp: ModelParams, joint_cls: Tensor) -> Tensor:
    return linear(joint_cls, mp.params["itm.w"], mp.params["itm.b"])


def mlm_logits(mp: ModelParams, fused: Tensor, batch_idx: np.ndarray, positions: np.ndarray) -> Tensor:
    """MLM head on fused features at the masked positions; [m, vocab]."""
    rows = fused[np.asarray(batch_idx, dtype=np.int64), np.asarray(positions, dtype=np.int64)]
    return linear(rows, mp.params["mlm.w"], mp.params["mlm.b"])


def interpolate_positional(pos: np.ndarray, old_grid: tuple[int, int], new_grid: tuple[int, int]) -> np.ndarray:
    """Bilinearly resample grid positional embeddings; CLS row passes through."""
    r, c = old_grid
    r2, c2 = new_grid
    if pos.shape[0] != 1 + r * c:
        raise ContractError(f"expected {1 + r * c} rows for grid {old_grid}, got {pos.shape[0]}")
    if (r2, c2) == (r, c):
        return pos.copy()
    body = pos[1:].reshape(r, c, pos.shape[1])
    out = resize_bilinear(body, r2, c2).reshape(r2 * c2, pos.shape[1])
    return np.concatenate([pos[0:1], out], axis=0)
