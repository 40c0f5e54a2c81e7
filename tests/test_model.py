import numpy as np
import pytest

from m2i2.errors import ConfigError, ContractError
from m2i2.gradcheck import E2E_TOL, OP_TOL, fd_grad, probe_param_errs, rel_err
from m2i2.model import (
    ModelConfig,
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
from m2i2.tensor import Tensor, cross_entropy
from m2i2.text import BOS, CLS, PAD


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

    def test_id_out_of_vocab(self, mp):
        ids = rand_ids(1, 4)
        ids[0, 2] = 32
        with pytest.raises(IndexError):
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
