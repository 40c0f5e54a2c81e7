import math

import numpy as np
import pytest

from m2i2 import gradcheck, model
from m2i2.errors import ConfigError, ContractError, ShapeError
from m2i2.gradcheck import E2E_TOL, OP_TOL, fd_grad, probe_param_errs, rel_err
from m2i2.model import (
    NEG_BIAS,
    OWNED,
    ModelConfig,
    ModelParams,
    decode_answer,
    decode_image,
    encode_full_images,
    encode_image,
    encode_text,
    fuse,
    interpolate_positional,
    itm_logits,
    mlm_logits,
    pad_bias,
    project_itc,
    text_width,
)
from m2i2.tensor import Tensor, cross_entropy, linear, mlp, scaled_dot_product_attention, softmax
from m2i2.text import BOS, CLS, PAD, encode_plain


def tiny_cfg(**kw):
    base = dict(
        dim=16,
        heads=2,
        depth_img_enc=1,
        depth_txt_enc=1,
        depth_fusion=1,
        depth_img_dec=1,
        depth_ans_dec=1,
        vocab_size=32,
        max_text_len=8,
        max_answer_len=4,
        image_size=8,
        patch_size=4,
        channels=1,
        proj_dim=8,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def mp():
    return ModelParams(tiny_cfg(), np.random.default_rng(0))


@pytest.fixture
def ft_mp():
    return ModelParams(tiny_cfg(phase="finetune"), np.random.default_rng(0))


def test_phase_parameter_sets():
    pre = ModelParams(tiny_cfg(), np.random.default_rng(0))
    ft = ModelParams(tiny_cfg(phase="finetune"), np.random.default_rng(0))
    assert not [n for n in pre.params if n.startswith("ans_")]
    pretrain_only = ("img_dec", "img_mask_tok", "mim.", "itc", "itm.", "mlm.")
    assert not [n for n in ft.params if n.startswith(pretrain_only)]
    assert ft.momentum == {} and pre.momentum
    shared = pre.params.keys() & ft.params.keys()
    assert {"tok_embed", "img_pos", "fusion.0.xattn.wq"} <= shared
    for name in shared:
        assert np.array_equal(pre.params[name].data, ft.params[name].data), name


@pytest.mark.parametrize("off", ["mim", "mlm", "itm", "itc"])
def test_a_model_holds_only_what_its_objectives_train(off):
    full = ModelParams(tiny_cfg(), np.random.default_rng(0))
    part = ModelParams(tiny_cfg(**{f"enable_{off}": False}), np.random.default_rng(0))
    assert part.params.keys() == {n for n in full.params if not n.startswith(OWNED[off])}
    for name, t in part.params.items():
        assert np.array_equal(t.data, full.params[name].data), name
    # only ITC reads the momentum copy
    assert part.momentum.keys() == (set() if off == "itc" else full.momentum.keys())


def test_unknown_phase_rejected():
    with pytest.raises(ConfigError):
        tiny_cfg(phase="transfer")


RNG = np.random.default_rng(1)


def rand_patches(b, n_vis, patch_dim):
    return RNG.random((b, n_vis, patch_dim))


def rand_ids(b, L, vocab=32):
    ids = RNG.integers(7, vocab, size=(b, L))
    ids[:, 0] = CLS
    return ids


class TestEncodeImage:
    def test_output_shape(self, mp):
        pos = np.array([[0, 1, 3]])
        out = encode_image(mp, rand_patches(1, 3, 16), pos)
        assert out.shape == (1, 4, 16)

    def test_position_out_of_range(self, mp):
        with pytest.raises(IndexError):
            encode_image(mp, rand_patches(1, 2, 16), np.array([[0, 4]]))

    def test_permutation_leaves_cls_unchanged(self, mp):
        patches = rand_patches(1, 4, 16)
        pos = np.array([[0, 1, 2, 3]])
        a = encode_image(mp, patches, pos).data[0, 0]
        perm = np.array([2, 0, 3, 1])
        b = encode_image(mp, patches[:, perm], pos[:, perm]).data[0, 0]
        assert np.abs(a - b).max() < 1e-9

    def test_momentum_forward_off_tape(self, mp):
        out = encode_image(mp, rand_patches(1, 2, 16), np.array([[0, 1]]), use_momentum=True)
        assert not out.requires_grad

    def test_an_empty_batch_of_full_images_raises_shape_error(self, mp):
        with pytest.raises(ShapeError, match="empty batch"):
            encode_full_images(mp, [])


class TestDecodeImage:
    def test_output_shape(self, mp):
        vis = np.array([[0, 1]])
        msk = np.array([[2, 3]])
        enc = encode_image(mp, rand_patches(1, 2, 16), vis)
        out = decode_image(mp, enc, vis, msk)
        assert out.shape == (1, 2, 16)

    def test_zero_masked_is_empty(self, mp):
        vis = np.array([[0, 1, 2, 3]])
        enc = encode_image(mp, rand_patches(1, 4, 16), vis)
        out = decode_image(mp, enc, vis, np.zeros((1, 0), dtype=np.int64))
        assert out.shape == (1, 0, 16)

    def test_overlap_rejected(self, mp):
        vis = np.array([[0, 1, 2]])
        enc = encode_image(mp, rand_patches(1, 3, 16), vis)
        with pytest.raises(ContractError):
            decode_image(mp, enc, vis, np.array([[2]]))

    def test_mim_gradient_vs_finite_differences(self, mp):
        vis = np.array([[0, 2]])
        msk = np.array([[1, 3]])
        patches = rand_patches(1, 2, 16)
        targets = RNG.random((1, 2, 16))
        name = "img_dec.0.attn.wq"

        def loss_at(w):
            mp.params[name].data = w
            enc = encode_image(mp, patches, vis)
            pred = decode_image(mp, enc, vis, msk)
            return float(((pred - Tensor(targets)) ** 2.0).mean().data)

        w0 = mp.params[name].data.copy()
        mp.zero_grads()
        enc = encode_image(mp, patches, vis)
        pred = decode_image(mp, enc, vis, msk)
        ((pred - Tensor(targets)) ** 2.0).mean().backward()
        tape_g = mp.params[name].grad.copy()
        num = fd_grad(loss_at, w0)
        mp.params[name].data = w0
        assert rel_err(tape_g, num) < OP_TOL


class TestEncodeText:
    def test_output_shape(self, mp):
        out = encode_text(mp, rand_ids(2, 8))
        assert out.shape == (2, 8, 16)

    def test_padding_does_not_leak(self, mp):
        ids = rand_ids(1, 8)
        ids[0, 5:] = PAD
        longer = ids.copy()
        a = encode_text(mp, ids).data[0, :5]
        # same real tokens, more explicit padding: identical real-position rows
        b = encode_text(mp, longer).data[0, :5]
        assert np.abs(a - b).max() < 1e-9
        short = ids[:, :6]
        c = encode_text(mp, short).data[0, :5]
        assert np.abs(a - c).max() < 1e-9

    def test_an_empty_batch_raises_shape_error(self, mp):
        with pytest.raises(ShapeError, match=r"\(0, 8\)"):
            encode_text(mp, np.zeros((0, 8), dtype=np.int64))

    def test_rows_of_pad_alone_run_at_one_column(self, mp):
        assert encode_text(mp, np.full((2, 8), PAD)).shape == (2, 1, 16)

    def test_ids_wider_than_max_text_len_raise_shape_error(self, mp):
        ids = rand_ids(1, 9)
        with pytest.raises(ShapeError, match=r"L <= 8"):
            encode_text(mp, ids)
        ids[0, 5:] = PAD
        with pytest.raises(ShapeError, match=r"L <= 8"):
            encode_text(mp, ids)

    def test_id_out_of_vocab(self, mp):
        ids = rand_ids(1, 4)
        for bad in (32, -1):
            ids[0, 2] = bad
            with pytest.raises(IndexError, match=r"\[0, 32\)"):
                encode_text(mp, ids)

    def test_deterministic(self, mp):
        ids = rand_ids(2, 8)
        assert np.array_equal(encode_text(mp, ids).data, encode_text(mp, ids).data)


class TestFuse:
    def test_cls_feeds_itm_head(self, mp):
        ids = rand_ids(2, 8)
        img = encode_image(mp, rand_patches(2, 3, 16), np.tile(np.arange(3), (2, 1)))
        fused = fuse(mp, encode_text(mp, ids), img, ids)
        logits = itm_logits(mp, fused[:, 0, :])
        assert logits.shape == (2, 2)

    def test_captured_cross_attention_is_distribution(self, mp):
        ids = rand_ids(1, 8)
        img = encode_image(mp, rand_patches(1, 3, 16), np.array([[0, 1, 2]]))
        cap = []
        fuse(mp, encode_text(mp, ids), img, ids, capture=cap)
        assert len(cap) == 1
        probs = cap[0].data
        assert probs.shape == (1, 2, 8, 4)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-9

    def test_zeroed_cross_output_degenerates_to_self_stack(self, mp):
        ids = rand_ids(1, 8)
        txt = encode_text(mp, ids)
        img = encode_image(mp, rand_patches(1, 3, 16), np.array([[0, 1, 2]]))
        mp.params["fusion.0.xattn.wo"].data[:] = 0.0
        mp.params["fusion.0.xattn.ob"].data[:] = 0.0
        a = fuse(mp, txt, img, ids).data
        zero_img = Tensor(np.zeros(img.shape))
        b = fuse(mp, txt, zero_img, ids).data
        assert np.abs(a - b).max() < 1e-12

    def test_dim_mismatch(self, mp):
        ids = rand_ids(1, 8)
        with pytest.raises(ContractError):
            fuse(mp, encode_text(mp, ids), Tensor(np.zeros((1, 3, 8))), ids)


@pytest.mark.parametrize("case", ["mixed lengths", "one without PAD"])
def test_ids_cut_after_the_longest_question_give_the_full_width_rows(case, monkeypatch):
    # self-attention scores only the keys up to the cut; at full width the
    # keys past it are masked, with probability exactly 0, so a row's softmax
    # and probs @ v sum the same terms, grouped as the width groups them
    mp = ModelParams(tiny_cfg(depth_txt_enc=2, depth_fusion=2), np.random.default_rng(1))
    ids = rand_ids(3, 8)
    ids[0, 3:] = ids[1, 5:] = PAD
    if case == "mixed lengths":
        ids[2, 2:] = PAD
    lengths = (ids != PAD).sum(axis=1)
    width = lengths.max()
    assert width == (5 if case == "mixed lengths" else 8)
    img = encode_image(mp, rand_patches(3, 3, 16), np.tile(np.arange(3), (3, 1)))

    def run(ids):
        capture = []
        txt = encode_text(mp, ids)
        fused = fuse(mp, txt, img, ids, capture=capture)
        return [txt.data, fused.data] + [np.swapaxes(c.data, 1, 2) for c in capture]  # query rows on axis 1

    cut = run(ids)
    with monkeypatch.context() as full_width:
        full_width.setattr(model, "text_width", lambda ids: ids.shape[1])
        full = run(ids)
    assert len(full) == 4 and all(a.shape[1] == 8 and c.shape[1] == width for a, c in zip(full, cut))
    for a, c in zip(full, cut):
        for i, n in enumerate(lengths):
            assert np.abs(a[i, :n] - c[i, :n]).max() <= 1e-12 * np.abs(a[i, :n]).max()


@pytest.mark.parametrize("given", ["max_text_len", "in between", "batch width"])
def test_the_forwards_run_at_the_batch_width_of_the_ids_they_are_given(ft_mp, given):
    ids = rand_ids(3, 8)
    ids[0, 3:] = ids[1, 5:] = ids[2, 2:] = PAD
    given_ids = ids[:, : {"max_text_len": 8, "in between": 6, "batch width": 5}[given]]
    img = encode_image(ft_mp, rand_patches(3, 3, 16), np.tile(np.arange(3), (3, 1)))
    prefix = np.array([[BOS, 8, 9], [BOS, 10, 11], [BOS, 12, 13]])

    def run(ids):
        txt = encode_text(ft_mp, ids)
        fused = fuse(ft_mp, txt, img, ids)
        return txt, fused, decode_answer(ft_mp, fused, ids, prefix)

    # the ids as tokenize makes them are the reference
    txt, fused, logits = run(given_ids)
    assert txt.shape[1] == fused.shape[1] == 5
    for a, b in zip((txt, fused, logits), run(ids)):
        assert a.data.tobytes() == b.data.tobytes()
    # evaluation hands fuse features encoded beside longer questions
    wider = Tensor(np.concatenate([txt.data, RNG.normal(size=(3, 3, 16))], axis=1))
    assert fuse(ft_mp, wider, img, given_ids).data.tobytes() == fused.data.tobytes()
    with pytest.raises(ShapeError, match="narrower"):
        fuse(ft_mp, txt[:, :4], img, given_ids)
    # row 1 holds a token in column 4, past these features
    with pytest.raises(ShapeError, match="text ids"):
        decode_answer(ft_mp, fused[:, :4], given_ids, prefix)
    with pytest.raises(ShapeError, match="text ids"):
        decode_answer(ft_mp, fused, given_ids[:, :4], prefix)


def test_cross_attention_caches_the_keys_and_values_of_its_memory(mp):
    x, memory = Tensor(RNG.normal(size=(2, 3, 16))), Tensor(RNG.normal(size=(2, 4, 16)))
    ids = rand_ids(2, 4)
    ids[1, 2:] = PAD
    bias = pad_bias(ids)
    assert bias.shape == (2, 1, 1, 4) and (bias[1, ..., 2:] == NEG_BIAS).all() and not bias[0].any()
    cache = {}
    first = model.attention(x, mp.params, "fusion.0.xattn", 2, bias=bias, kv=memory, cache=cache)
    k, v = cache["fusion.0.xattn"]
    assert k.shape == v.shape == (2, 4, 16)
    # a later call reads the cached projections, not its memory
    again = model.attention(x, mp.params, "fusion.0.xattn", 2, bias=bias, kv=Tensor(np.zeros((2, 4, 16))), cache=cache)
    uncached = model.attention(x, mp.params, "fusion.0.xattn", 2, bias=bias, kv=memory)
    assert first.data.tobytes() == again.data.tobytes() == uncached.data.tobytes()


class TestDecodeAnswer:
    def _fused(self, mp, b=1):
        ids = rand_ids(b, 8)
        img = encode_image(mp, rand_patches(b, 3, 16), np.tile(np.arange(3), (b, 1)))
        return fuse(mp, encode_text(mp, ids), img, ids), ids

    def test_output_shape(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        prefix = np.array([[BOS, 8, 9]])
        out = decode_answer(ft_mp, fused, ids, prefix)
        assert out.shape == (1, 3, 32)

    def test_causal_mask(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        a = decode_answer(ft_mp, fused, ids, np.array([[BOS, 8, 9, 10]])).data[0, 1]
        b = decode_answer(ft_mp, fused, ids, np.array([[BOS, 8, 30, 31]])).data[0, 1]
        assert np.abs(a - b).max() < 1e-9

    def test_empty_prefix_rejected(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        with pytest.raises(ContractError):
            decode_answer(ft_mp, fused, ids, np.zeros((1, 0), dtype=np.int64))

    def test_must_start_with_bos(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        with pytest.raises(ContractError):
            decode_answer(ft_mp, fused, ids, np.array([[8, 9]]))

    @pytest.mark.parametrize("bad", [-1, 32])
    def test_prefix_id_outside_the_vocab_raises_index_error(self, ft_mp, bad):
        fused, ids = self._fused(ft_mp)
        with pytest.raises(IndexError, match=r"\[0, 32\)"):
            decode_answer(ft_mp, fused, ids, np.array([[BOS, bad]]))
        cache: dict = {}
        decode_answer(ft_mp, fused, ids, np.array([[BOS]]), cache=cache)
        with pytest.raises(IndexError, match=r"\[0, 32\)"):
            decode_answer(ft_mp, fused, ids, np.array([[BOS, bad]]), cache=cache)

    def test_prefix_longer_than_max_answer_len_raises_shape_error(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        prefix = np.array([[BOS, 8, 9, 10, 11]])
        with pytest.raises(ShapeError, match="max_answer_len 4"):
            decode_answer(ft_mp, fused, ids, prefix)
        cache: dict = {}
        decode_answer(ft_mp, fused, ids, prefix[:, :4], cache=cache)
        with pytest.raises(ShapeError, match="max_answer_len 4"):
            decode_answer(ft_mp, fused, ids, prefix, cache=cache)

    def test_text_ids_of_another_width_rejected(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        with pytest.raises(ShapeError, match="text ids"):
            decode_answer(ft_mp, fused[:, :5], ids, np.array([[BOS]]))
        with pytest.raises(ShapeError, match="text ids"):
            decode_answer(ft_mp, fused, ids[:, :5], np.array([[BOS]]), cache={})

    def test_cross_attention_is_live(self, ft_mp):
        fused, ids = self._fused(ft_mp)
        prefix = np.array([[BOS, 8]])
        a = decode_answer(ft_mp, fused, ids, prefix).data
        perturbed = Tensor(fused.data + RNG.normal(0, 0.1, size=fused.shape))
        b = decode_answer(ft_mp, perturbed, ids, prefix).data
        assert np.abs(a - b).max() > 0.0


class TestProjections:
    def test_itc_unit_norm(self, mp):
        cls = Tensor(RNG.random((3, 16)), requires_grad=True)
        for which in ("img", "txt"):
            v = project_itc(mp, cls, which)
            assert np.abs((v.data**2).sum(axis=-1) - 1.0).max() < 1e-9

    def test_mlm_logits_shape(self, mp):
        ids = rand_ids(2, 8)
        img = encode_image(mp, rand_patches(2, 3, 16), np.tile(np.arange(3), (2, 1)))
        fused = fuse(mp, encode_text(mp, ids), img, ids)
        out = mlm_logits(mp, fused, np.array([0, 0, 1]), np.array([1, 3, 2]))
        assert out.shape == (3, 32)


class TestInterpolatePositional:
    def test_identity_on_equal_grids(self):
        pos = RNG.random((1 + 16, 8))
        out = interpolate_positional(pos, (4, 4), (4, 4))
        assert np.array_equal(out, pos)

    def test_constant_preserved(self):
        pos = np.concatenate([RNG.random((1, 8)), np.full((16, 8), 0.3)])
        out = interpolate_positional(pos, (4, 4), (6, 6))
        assert np.abs(out[1:] - 0.3).max() < 1e-12
        assert np.array_equal(out[0], pos[0])

    def test_16_to_24_rows(self):
        pos = RNG.random((1 + 256, 8))
        out = interpolate_positional(pos, (16, 16), (24, 24))
        assert out.shape == (1 + 576, 8)

    def test_row_count_mismatch(self):
        with pytest.raises(ContractError):
            interpolate_positional(RNG.random((10, 8)), (4, 4), (6, 6))


class TestEndToEndGradients:
    def test_probe_params_vs_finite_differences(self, mp):
        ids = rand_ids(2, 8)
        patches = rand_patches(2, 3, 16)
        pos = np.tile(np.arange(3), (2, 1))
        labels = np.array([0, 1])
        probes = ["txt_enc.0.mlp.w1", "fusion.0.xattn.wv", "patch_embed.w", "itm.w"]

        def loss():
            fused = fuse(mp, encode_text(mp, ids), encode_image(mp, patches, pos), ids)
            return cross_entropy(itm_logits(mp, fused[:, 0, :]), labels)

        assert probe_param_errs(mp, loss, probes, np.random.default_rng(5), n_probe=8) < E2E_TOL


def test_loss_checks_probe_the_training_forwards(monkeypatch):
    """Each loss suite's loss is the tensor a training forward returns: the
    pretraining objectives from pretrain_losses, the answer loss from
    vqa_forward_loss on question ids shorter than max_text_len and answers
    of two lengths."""
    calls, routes = [], []

    def spy(name):
        real = getattr(gradcheck, name)

        def wrapped(*args):
            calls.append((name, args, real(*args)))
            return calls[-1][2]

        monkeypatch.setattr(gradcheck, name, wrapped)

    spy("pretrain_losses")
    spy("vqa_forward_loss")

    def probe_param_errs(mp, loss_fn, names, rng):
        calls.clear()
        routes.append((loss_fn(), list(calls)))
        return 0.0

    monkeypatch.setattr(gradcheck, "probe_param_errs", probe_param_errs)
    suites = [name for name, _, _ in gradcheck.loss_checks(np.random.default_rng(0))]
    assert suites == ["loss/mim", "loss/mlm", "loss/itm", "loss/itc", "loss/cond_lm"]
    for suite, (loss, [(fn, args, out)]) in zip(suites, routes):
        if suite == "loss/cond_lm":
            assert fn == "vqa_forward_loss" and loss is out
            mp, _, ids, answers, vocab = args
            assert text_width(ids) < mp.cfg.max_text_len
            assert len({len(encode_plain(a, vocab)) for a in answers}) == len(answers) == 2
        else:
            assert fn == "pretrain_losses" and loss is out[0][suite.removeprefix("loss/")]


def test_loss_checks_probe_every_attention_query_and_key_projection(monkeypatch):
    probed = []

    def probe_param_errs(mp, loss_fn, names, rng):
        probed.extend(names)
        return 0.0

    monkeypatch.setattr(gradcheck, "probe_param_errs", probe_param_errs)
    gradcheck.loss_checks(np.random.default_rng(0))
    # each attention block of each sub-network: ("img_enc", "attn"), ("fusion", "xattn"), ...
    blocks = {(n.split(".")[0], n.split(".")[2]) for n, _, _ in model._layout(tiny_cfg()) if n.endswith(".wq")}
    assert {stack for stack, _ in blocks} == {"img_enc", "txt_enc", "fusion", "img_dec", "ans_dec"}
    for stack, att in sorted(blocks):
        for w in ("wq", "wk"):
            assert any(n.startswith(f"{stack}.") and n.endswith(f".{att}.{w}") for n in probed), (stack, att, w)


# ---- fused ops against the primitive chains they stand for ----------------


def composite_linear(x, w, b):
    return x @ w + b


def composite_attention(q, k, v, heads, bias=None, capture=None):
    b, Lq, d = q.shape
    hd = d // heads

    def split(t):
        return t.reshape(b, t.shape[1], heads, hd).transpose((0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(hd))
    if bias is not None:
        scores = scores + bias
    probs = softmax(scores, axis=-1)
    if capture is not None:
        capture.append(probs)
    return (probs @ v).transpose((0, 2, 1, 3)).reshape(b, Lq, d)


def composite_mlp(x, w1, b1, w2, b2):
    return (x @ w1 + b1).gelu() @ w2 + b2


def use_composite_ops(monkeypatch):
    monkeypatch.setattr(model, "linear", composite_linear)
    monkeypatch.setattr(model, "scaled_dot_product_attention", composite_attention)
    monkeypatch.setattr(model, "mlp", composite_mlp)


@pytest.mark.parametrize("case", ["self-attention-causal", "cross-attention-pad", "mlp"])
def test_fused_op_matches_its_composite_chain_bitwise(case):
    b, L, S, d, heads = 3, 5, 7, 8, 2

    def run(fused):
        rng = np.random.default_rng(3)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        x = leaf(b, L, d)
        if case == "mlp":
            inputs = [x, leaf(d, 4 * d), leaf(4 * d), leaf(4 * d, d), leaf(d)]
            out = (mlp if fused else composite_mlp)(*inputs)
        else:
            lin = linear if fused else composite_linear
            core = scaled_dot_product_attention if fused else composite_attention
            ws = [leaf(*shape) for _ in range(4) for shape in ((d, d), (d,))]
            if case == "cross-attention-pad":
                src = leaf(b, S, d)
                ids = rng.integers(7, 30, size=(b, S))
                ids[0, 4:] = ids[2, 6:] = PAD
                bias = pad_bias(ids)
            else:
                src = x
                bias = np.where(np.tril(np.ones((L, L))) > 0, 0.0, NEG_BIAS)[None, None]
            q, k, v = (lin(t, w, wb) for t, w, wb in ((x, *ws[0:2]), (src, *ws[2:4]), (src, *ws[4:6])))
            out = lin(core(q, k, v, heads, bias), *ws[6:8])
            inputs = [x, src, q, k, v, *ws]
        (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        return [out.data] + [t.grad for t in inputs]

    fused, composite = run(True), run(False)
    for i, (a, c) in enumerate(zip(fused, composite)):
        assert np.array_equal(a, c), i


def _tape(out):
    """The functions that recorded each tape node behind out, sorted."""
    ops, seen, stack = [], set(), [out]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in seen:
            seen.add(id(t))
            ops.append(t._backward.__qualname__.split(".<locals>")[0])
            stack.extend(t._parents)
    return sorted(ops)


@pytest.mark.parametrize("capture", [None, []], ids=["plain", "capture"])
def test_attention_records_only_projections_and_the_attention_op(mp, capture):
    # the attention op owns the head layout: no reshape or transpose nodes
    x = Tensor(np.random.default_rng(0).normal(size=(2, 5, mp.cfg.dim)))
    out = model.attention(x, mp.params, "txt_enc.0.attn", mp.cfg.heads, capture=capture)
    core = ["scaled_dot_product_attention"] * (1 if capture is None else 2)
    # keys are projected without a bias
    assert _tape(out) == sorted(["linear"] * 3 + ["Tensor.matmul"] + core)


def _training_outputs(mp, ft_mp):
    """Every loss head's output and every parameter gradient of one pass."""
    rng = np.random.default_rng(5)
    ids = rng.integers(7, 32, size=(3, 8))
    ids[:, 0] = CLS
    ids[1, 5:] = PAD
    vis, msk = np.tile(np.array([0, 2]), (3, 1)), np.tile(np.array([1, 3]), (3, 1))
    patches = rng.random((3, 2, mp.cfg.patch_dim))
    outs, cap = [], []
    img = encode_image(mp, patches, vis)
    txt = encode_text(mp, ids)
    fused = fuse(mp, txt, img, ids, capture=cap)
    outs.append(decode_image(mp, img, vis, msk))
    outs.append(project_itc(mp, img[:, 0, :], "img"))
    outs.append(project_itc(mp, txt[:, 0, :], "txt"))
    outs.append(itm_logits(mp, fused[:, 0, :]))
    outs.append(mlm_logits(mp, fused, np.array([0, 1, 2]), np.array([2, 1, 4])))
    ft_fused = fuse(ft_mp, encode_text(ft_mp, ids), encode_image(ft_mp, patches, vis), ids)
    outs.append(decode_answer(ft_mp, ft_fused, ids, np.array([[BOS, 8, 9], [BOS, 10, 11], [BOS, 12, 13]])))
    loss = sum(((o * Tensor(rng.normal(size=o.shape))).sum() for o in outs + cap), Tensor(0.0))
    loss.backward()
    grads = [t.grad for m in (mp, ft_mp) for t in m.params.values()]
    return [o.data for o in outs + cap] + [c.grad for c in cap] + grads


def test_model_matches_the_composite_ops_bitwise(monkeypatch):
    cfg = dict(depth_img_enc=2, depth_txt_enc=2, depth_fusion=2, depth_img_dec=2, depth_ans_dec=2)

    def run():
        pre = ModelParams(tiny_cfg(**cfg), np.random.default_rng(0))
        ft = ModelParams(tiny_cfg(phase="finetune", **cfg), np.random.default_rng(0))
        return _training_outputs(pre, ft)

    fused = run()
    use_composite_ops(monkeypatch)
    composite = run()
    assert len(fused) == len(composite)
    for i, (a, c) in enumerate(zip(fused, composite)):
        assert (a is None and c is None) or np.array_equal(a, c), i
    assert sum(a is None for a in fused) == 1  # itc.log_temp: no ITC loss here


def test_cached_decoding_matches_the_composite_ops_bitwise(ft_mp, monkeypatch):
    ids = rand_ids(3, 8)
    ids[2, 4:] = PAD
    patches = RNG.random((3, 4, 16))
    prefix = np.array([[BOS, 8, 9, 10], [BOS, 11, 12, 13], [BOS, 14, 15, 16]])

    def run():
        mp = ft_mp.frozen()
        fused = fuse(mp, encode_text(mp, ids), encode_image(mp, patches, np.tile(np.arange(4), (3, 1))), ids)
        cache: dict = {}
        return [decode_answer(mp, fused, ids, prefix[:, :n], cache=cache).data for n in range(1, 5)]

    fused = run()
    use_composite_ops(monkeypatch)
    for step, (a, c) in enumerate(zip(fused, run())):
        assert np.array_equal(a, c), step
