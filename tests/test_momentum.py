import numpy as np
import pytest

from m2i2.errors import ContractError
from m2i2.model import ModelConfig, ModelParams
from m2i2.momentum import FeatureQueue, enqueue, momentum_update


def unit_rows(b, d, rng):
    v = rng.normal(size=(b, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def push_order(q):
    """The queue's populated slots, oldest push first: the last filled
    pushes end just before write_ptr."""
    order = (q.write_ptr - q.filled + np.arange(q.filled)) % q.capacity
    return q.img_slots[order], q.txt_slots[order]


def small_params():
    cfg = ModelConfig(
        dim=8, heads=2, depth_img_enc=1, depth_txt_enc=1, depth_fusion=1,
        depth_img_dec=1, depth_ans_dec=1, vocab_size=16, max_text_len=4,
        max_answer_len=2, image_size=8, patch_size=4, proj_dim=4,
    )
    return ModelParams(cfg, np.random.default_rng(0))


class TestMomentumUpdate:
    def test_ema_arithmetic(self):
        mp = small_params()
        name = "itc_img.w"
        mp.momentum[name].data = np.ones_like(mp.momentum[name].data)
        mp.params[name].data = np.zeros_like(mp.params[name].data)
        momentum_update(mp, 0.995)
        assert np.abs(mp.momentum[name].data - 0.995).max() < 1e-12

    def test_fixed_point(self):
        mp = small_params()
        before = {k: t.data.copy() for k, t in mp.momentum.items()}
        for k in mp.momentum:
            mp.params[k].data = before[k].copy()
        momentum_update(mp, 0.9)
        for k, t in mp.momentum.items():
            assert np.abs(t.data - before[k]).max() < 1e-15

    def test_geometric_closed_form(self):
        # after t updates against frozen params: theta_m = theta + m^t (theta_m0 - theta)
        mp = small_params()
        m = 0.995
        t0 = {k: v.data.copy() for k, v in mp.momentum.items()}
        for _ in range(50):
            momentum_update(mp, m)
        for k, v in mp.momentum.items():
            expect = mp.params[k].data + m**50 * (t0[k] - mp.params[k].data)
            assert np.abs(v.data - expect).max() < 1e-9

    def test_bad_coefficient(self):
        with pytest.raises(ContractError):
            momentum_update(small_params(), 1.0)

    def test_momentum_never_on_tape(self):
        mp = small_params()
        assert all(not t.requires_grad for t in mp.momentum.values())


class TestFeatureQueue:
    def test_wraparound_overwrites_oldest(self):
        rng = np.random.default_rng(0)
        q = FeatureQueue(16, 4)
        batches = [unit_rows(8, 4, rng) for _ in range(3)]
        for bimg in batches:
            enqueue(q, bimg, bimg)
        assert q.filled == 16
        img, _ = push_order(q)
        expect = np.concatenate([batches[1], batches[2]])
        assert np.array_equal(img, expect)

    def test_fresh_queue_exposes_nothing(self):
        q = FeatureQueue(8, 4)
        img, txt = q.negatives()
        assert img.shape == (0, 4) and txt.shape == (0, 4)

    def test_partial_fill_prefix_only(self):
        rng = np.random.default_rng(1)
        q = FeatureQueue(16, 4)
        v = unit_rows(5, 4, rng)
        enqueue(q, v, v)
        img, txt = q.negatives()
        assert img.shape == (5, 4)
        assert np.array_equal(img, v)

    def test_oversize_batch_rejected(self):
        rng = np.random.default_rng(2)
        q = FeatureQueue(4, 4)
        v = unit_rows(5, 4, rng)
        with pytest.raises(ContractError):
            enqueue(q, v, v)

    def test_unpaired_batches_rejected(self):
        rng = np.random.default_rng(3)
        q = FeatureQueue(8, 4)
        with pytest.raises(ContractError):
            enqueue(q, unit_rows(2, 4, rng), unit_rows(3, 4, rng))

    def test_non_unit_rejected(self):
        q = FeatureQueue(8, 4)
        v = np.ones((2, 4))
        with pytest.raises(ContractError):
            enqueue(q, v, v)

    def test_ring_buffer_oracle_randomized(self):
        # queue contents must equal the last min(total, capacity) pushes, in order
        rng = np.random.default_rng(4)
        for trial in range(1000):
            cap = int(rng.integers(1, 12))
            q = FeatureQueue(cap, 3)
            pushed_img: list[np.ndarray] = []
            pushed_txt: list[np.ndarray] = []
            for _ in range(int(rng.integers(1, 6))):
                b = int(rng.integers(1, cap + 1))
                vi = unit_rows(b, 3, rng)
                vt = unit_rows(b, 3, rng)
                enqueue(q, vi, vt)
                pushed_img.extend(vi)
                pushed_txt.extend(vt)
            keep = min(len(pushed_img), cap)
            img, txt = push_order(q)
            assert np.array_equal(img, np.array(pushed_img[-keep:]))
            assert np.array_equal(txt, np.array(pushed_txt[-keep:]))
            assert q.filled == keep
