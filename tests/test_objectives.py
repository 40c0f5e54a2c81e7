import numpy as np
import pytest

from m2i2.errors import ConfigError, ContractError
from m2i2.momentum import FeatureQueue, enqueue
from m2i2.objectives import (
    combined_loss,
    cond_lm_loss,
    itc_loss,
    itm_loss,
    mim_loss,
    mlm_loss,
    pair_negatives,
)
from m2i2.tensor import Tensor

from m2i2.gradcheck import OP_TOL, check_grad

RNG = np.random.default_rng(0)


def unit_rows(b, d, rng=RNG):
    v = rng.normal(size=(b, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestMimLoss:
    def test_zero_on_equal(self):
        x = RNG.random((3, 5))
        assert mim_loss(Tensor(x), x).item() == 0.0

    def test_hand_value(self):
        pred = Tensor([[1.0], [3.0]])
        assert mim_loss(pred, np.zeros((2, 1))).item() == 5.0

    def test_empty_returns_zero(self):
        out = mim_loss(Tensor(np.zeros((0, 4))), np.zeros((0, 4)))
        assert out.item() == 0.0 and not out.requires_grad

    def test_brute_force_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pred = rng.random((4, 16))
            tgt = rng.random((4, 16))
            oracle = sum(
                (pred[i, j] - tgt[i, j]) ** 2 for i in range(4) for j in range(16)
            ) / (4 * 16)
            assert abs(mim_loss(Tensor(pred), tgt).item() - oracle) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mim_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_gradient(self):
        tgt = RNG.random((3, 4))
        assert check_grad(lambda t: mim_loss(t, tgt), RNG.random((3, 4))) < OP_TOL


class TestMlmLoss:
    def test_uniform(self):
        assert abs(mlm_loss(Tensor(np.zeros((5, 100))), np.arange(5)).item() - np.log(100)) < 1e-9

    def test_peaked_approaches_zero(self):
        logits = np.full((2, 10), -40.0)
        logits[0, 3] = logits[1, 7] = 40.0
        assert mlm_loss(Tensor(logits), [3, 7]).item() < 1e-9

    def test_empty_returns_zero(self):
        assert mlm_loss(Tensor(np.zeros((0, 10))), np.array([], dtype=int)).item() == 0.0


class TestItmLoss:
    def test_uniform_binary(self):
        assert abs(itm_loss(Tensor(np.zeros((4, 2))), [0, 1, 0, 1]).item() - np.log(2)) < 1e-9

    def test_confident_correct(self):
        logits = np.array([[40.0, -40.0], [-40.0, 40.0]])
        assert itm_loss(Tensor(logits), [0, 1]).item() < 1e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            itm_loss(Tensor(np.zeros((0, 2))), np.array([], dtype=int))


class TestPairNegatives:
    def test_b2_forced(self):
        j = pair_negatives(2, np.random.default_rng(0))
        assert np.array_equal(j, [1, 0])

    def test_never_self(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            j = pair_negatives(5, rng)
            assert (j != np.arange(5)).all()

    def test_uniform_covers_all(self):
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(500):
            seen.update((i, int(j)) for i, j in enumerate(pair_negatives(4, rng)))
        assert len(seen) == 12

    def test_hard_dominant_similarity_wins_at_low_temperature(self):
        sims = np.zeros((3, 3))
        sims[0, 2] = 5.0
        rng = np.random.default_rng(3)
        picks = [
            pair_negatives(3, rng, strategy="hard", itc_logits=sims / 1e-3)[0]
            for _ in range(200)
        ]
        assert np.mean(np.array(picks) == 2) > 0.99

    def test_small_batch_rejected(self):
        with pytest.raises(ContractError):
            pair_negatives(1, np.random.default_rng(0))


class TestItcLoss:
    def _temp(self, value=0.07):
        return Tensor(np.asarray(value), requires_grad=True)

    def test_single_pair_empty_queue_is_zero(self):
        q = FeatureQueue(8, 4)
        v = Tensor(unit_rows(1, 4))
        assert itc_loss(v, v, v, v, q, self._temp()).item() < 1e-12

    def test_uniform_similarities_give_log_k_plus_one(self):
        d = 4
        q = FeatureQueue(8, d)
        e = np.zeros(d)
        e[0] = 1.0
        K = 6
        enqueue(q, np.tile(e, (K, 1)), np.tile(e, (K, 1)))
        v = Tensor(e[None, :])
        loss = itc_loss(v, v, v, v, q, self._temp()).item()
        assert abs(loss - np.log(K + 1)) < 1e-9

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        d, b, K = 8, 5, 11
        tau = 0.07
        q = FeatureQueue(64, d)
        enqueue(q, unit_rows(K, d, rng), unit_rows(K, d, rng))
        img = unit_rows(b, d, rng)
        txt = unit_rows(b, d, rng)
        img_m = unit_rows(b, d, rng)
        txt_m = unit_rows(b, d, rng)
        got = itc_loss(
            Tensor(img), Tensor(txt), Tensor(img_m), Tensor(txt_m), q, self._temp(tau)
        ).item()

        def nce(anchor, positive, negs):
            total = 0.0
            for i in range(b):
                logits = np.concatenate([[anchor[i] @ positive[i]], anchor[i] @ negs.T]) / tau
                p = np.exp(logits - logits.max())
                total += -np.log(p[0] / p.sum())
            return total / b

        img_q, txt_q = q.negatives()
        oracle = 0.5 * (nce(img, txt_m, txt_q) + nce(txt, img_m, img_q))
        assert abs(got - oracle) < 1e-10

    def test_gradient_only_through_online_projections(self):
        rng = np.random.default_rng(5)
        q = FeatureQueue(16, 4)
        enqueue(q, unit_rows(3, 4, rng), unit_rows(3, 4, rng))
        img = Tensor(unit_rows(2, 4, rng), requires_grad=True)
        txt = Tensor(unit_rows(2, 4, rng), requires_grad=True)
        img_m = Tensor(unit_rows(2, 4, rng), requires_grad=True)
        txt_m = Tensor(unit_rows(2, 4, rng), requires_grad=True)
        itc_loss(img, txt, img_m, txt_m, q, self._temp()).backward()
        assert img.grad is not None and txt.grad is not None
        assert img_m.grad is None and txt_m.grad is None

    def test_temperature_receives_gradient(self):
        rng = np.random.default_rng(6)
        q = FeatureQueue(16, 4)
        enqueue(q, unit_rows(4, 4, rng), unit_rows(4, 4, rng))
        temp = self._temp()
        itc_loss(
            Tensor(unit_rows(2, 4, rng)),
            Tensor(unit_rows(2, 4, rng)),
            Tensor(unit_rows(2, 4, rng)),
            Tensor(unit_rows(2, 4, rng)),
            q,
            temp,
        ).backward()
        assert temp.grad is not None

    def test_non_normalized_rejected(self):
        q = FeatureQueue(8, 4)
        v = Tensor(unit_rows(1, 4))
        bad = Tensor(unit_rows(1, 4) * 1.5)
        with pytest.raises(ContractError):
            itc_loss(bad, v, v, v, q, self._temp())


class TestCombinedLoss:
    def _parts(self):
        return {k: Tensor(v, requires_grad=True) for k, v in
                zip(("mim", "mlm", "itm", "itc"), (1.0, 2.0, 3.0, 4.0))}

    def test_sum(self):
        assert combined_loss(self._parts()).item() == 10.0

    def test_additivity_within_tolerance(self):
        parts = self._parts()
        total = combined_loss(parts)
        assert abs(total.item() - sum(p.item() for p in parts.values())) < 1e-12

    def test_disabled_excluded(self):
        # only the objectives that ran have a loss
        parts = self._parts()
        del parts["mim"], parts["itc"]
        assert combined_loss(parts).item() == 5.0

    def test_sums_in_objectives_order(self):
        # float addition does not associate: summed in OBJECTIVES order these
        # give 1.0, in the dict's order 0.0
        vals = {"itc": 1.0, "itm": -1e16, "mlm": 1.0, "mim": 1e16}
        parts = {k: Tensor(v) for k, v in vals.items()}
        expected = ((vals["mim"] + vals["mlm"]) + vals["itm"]) + vals["itc"]
        assert combined_loss(parts).item() == expected

    def test_all_disabled_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss({})
        with pytest.raises(ConfigError, match="total"):
            combined_loss({"mlm": Tensor(1.0), "total": Tensor(1.0)})

    def test_gradient_is_sum_of_per_objective_gradients(self):
        x = Tensor(1.5, requires_grad=True)
        parts = {"mim": x * 2.0, "mlm": x * x, "itm": x * 3.0, "itc": x * 0.5}
        combined_loss(parts).backward()
        assert abs(x.grad - (2.0 + 2 * 1.5 + 3.0 + 0.5)) < 1e-9


class TestCondLmLoss:
    def test_perfect_predictions(self):
        logits = np.full((3, 8), -40.0)
        for i, t in enumerate([2, 5, 6]):
            logits[i, t] = 40.0
        assert cond_lm_loss(Tensor(logits), [2, 5, 6]).item() < 1e-9

    def test_uniform(self):
        assert abs(cond_lm_loss(Tensor(np.zeros((4, 100))), [1, 2, 3, 4]).item() - np.log(100)) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            cond_lm_loss(Tensor(np.zeros((0, 8))), np.array([], dtype=int))

    def test_position_loss_independent_of_later_targets(self):
        # mean CE decomposes per position: changing the target at position 3
        # shifts the total by exactly the difference of the row-3 terms
        logits = RNG.normal(size=(4, 8))
        b1 = cond_lm_loss(Tensor(logits), [1, 2, 3, 4]).item()
        b2 = cond_lm_loss(Tensor(logits), [1, 2, 3, 6]).item()
        logp3 = logits[3] - np.log(np.exp(logits[3]).sum())
        assert abs(4 * (b1 - b2) - (logp3[6] - logp3[4])) < 1e-9
