import ast
import math
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import m2i2.tensor as tensor_mod
from m2i2.errors import ContractError, NumericsError, ShapeError
from m2i2.tensor import (
    Tensor,
    concat,
    cross_entropy,
    layer_norm,
    linear,
    mlp,
    no_grad,
    scaled_dot_product_attention,
    softmax,
)
from m2i2.trainer import clip_global_norm

from m2i2.gradcheck import OP_TOL, check_grad, op_checks

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.uniform(-2, 2, size=shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = a @ Tensor(np.eye(2))
        assert np.array_equal(out.data, a.data)

    def test_hand_product(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_grad_vs_finite_differences(self):
        b = rand(3, 4)
        assert check_grad(lambda a: (a @ Tensor(b)).sum(), rand(2, 3)) < OP_TOL
        a = rand(2, 3)
        assert check_grad(lambda t: (Tensor(a) @ t).sum(), rand(3, 4)) < OP_TOL

    def test_batched_grad(self):
        b = rand(5, 3, 4)
        assert check_grad(lambda a: ((a @ Tensor(b)) ** 2).sum(), rand(5, 2, 3)) < OP_TOL

    def test_batched_broadcast_grad(self):
        # unbatched rhs broadcast over batch dim
        b = rand(3, 4)
        assert check_grad(lambda a: ((a @ Tensor(b)) ** 2).sum(), rand(5, 2, 3)) < OP_TOL
        a = rand(5, 2, 3)
        assert check_grad(lambda t: ((Tensor(a) @ t) ** 2).sum(), rand(3, 4)) < OP_TOL
        w = Tensor(rand(3, 4), requires_grad=True)
        g = rand(5, 2, 4)
        ((Tensor(a) @ w) * Tensor(g)).sum().backward()
        np.testing.assert_allclose(w.grad, sum(a[i].T @ g[i] for i in range(5)), rtol=1e-12)

    @pytest.mark.parametrize("rhs_shape", [(5, 3, 4), (3, 4)], ids=["batched", "weight"])
    @pytest.mark.parametrize("const_left", [True, False], ids=["const-left", "const-right"])
    def test_backward_forms_only_the_live_sides_product(self, monkeypatch, rhs_shape, const_left):
        left = Tensor(rand(5, 2, 3), requires_grad=not const_left)
        right = Tensor(rand(*rhs_shape), requires_grad=const_left)
        loss = (left @ right).sum()
        products = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, x, y):
                products.append((x, y))
                return np.matmul(x, y)

        monkeypatch.setattr(tensor_mod, "np", CountingNumpy())
        loss.backward()
        const, live = (left, right) if const_left else (right, left)
        assert const.grad is None and live.grad is not None
        # the live side's gradient multiplies the const side's data: x[i]ᵀ g[i]
        # per sample for a weight (see _rhs_grad), one g @ wᵀ product otherwise
        reads = 0 if const_left else 1
        assert len(products) == (5 if const_left and len(rhs_shape) == 2 else 1)
        assert all(np.shares_memory(p[reads], const.data) for p in products)


def test_gelu_and_softmax_keep_their_written_formulas_bitwise():
    # the fused MLP and attention share these formulas, partly written in
    # place; they must round exactly as the expressions below do
    x0, g = rand(6, 9) * 3, rand(6, 9)
    x = Tensor(x0.copy(), requires_grad=True)
    out = x.gelu()
    (out * Tensor(g)).sum().backward()
    t = np.tanh(tensor_mod.GELU_C * (x0 + 0.044715 * (x0 * x0 * x0)))
    dinner = tensor_mod.GELU_C * (1.0 + 3 * 0.044715 * x0**2)
    assert np.array_equal(out.data, 0.5 * x0 * (1.0 + t))
    assert np.array_equal(x.grad, g * (0.5 * (1.0 + t) + 0.5 * x0 * (1.0 - t * t) * dinner))
    x = Tensor(x0.copy(), requires_grad=True)
    p = softmax(x, axis=-1)
    (p * Tensor(g)).sum().backward()
    e = np.exp(x0 - x0.max(axis=-1, keepdims=True))
    p0 = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(p.data, p0)
    assert np.array_equal(x.grad, p0 * (g - (g * p0).sum(axis=-1, keepdims=True)))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_large_inputs_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_shift_invariance(self):
        x = rand(4, 7)
        a = softmax(Tensor(x), axis=-1).data
        b = softmax(Tensor(x + 17.3), axis=-1).data
        assert np.abs(a - b).max() < 1e-12

    def test_sums_to_one(self):
        p = softmax(Tensor(rand(3, 5)), axis=-1).data
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12
        assert (p >= 0).all()

    def test_empty_axis_errors(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((3, 0))))

    def test_grad(self):
        w = rand(4, 5)
        assert check_grad(lambda t: (softmax(t, axis=-1) * Tensor(w)).sum(), rand(4, 5)) < OP_TOL


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.abs(out.data).max() < 1e-2  # eps-dominated, finite

    def test_hand_values(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_row_stats(self):
        x = rand(6, 8)
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_grad_x(self):
        g = rand(5)
        b = rand(5)
        w = rand(4, 5)
        assert check_grad(
            lambda t: (layer_norm(t, Tensor(g), Tensor(b)) * Tensor(w)).sum(), rand(4, 5)
        ) < OP_TOL

    def test_grad_gain_bias(self):
        x = rand(4, 5)
        w = rand(4, 5)
        b = rand(5)
        assert check_grad(
            lambda t: (layer_norm(Tensor(x), t, Tensor(b)) * Tensor(w)).sum(), rand(5)
        ) < OP_TOL
        g = rand(5)
        assert check_grad(
            lambda t: (layer_norm(Tensor(x), Tensor(g), t) * Tensor(w)).sum(), rand(5)
        ) < OP_TOL


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(Tensor(np.zeros((3, 100))), [0, 42, 99])
        assert abs(out.item() - np.log(100)) < 1e-9

    def test_peaked_logits_approach_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = logits[1, 2] = 50.0
        assert cross_entropy(Tensor(logits), [1, 2]).item() < 1e-9

    def test_hand_value(self):
        out = cross_entropy(Tensor([[2.0, 0.0], [0.0, 2.0]]), [0, 1])
        expected = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert abs(out.item() - expected) < 1e-9
        assert abs(out.item() - 0.1269) < 1e-3

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_grad(self):
        t = np.array([2, 0, 1])
        assert check_grad(lambda x: cross_entropy(x, t) * 3.0, rand(3, 4)) < OP_TOL


@pytest.mark.parametrize(
    "b, L, n, m", [(1, 8, 64, 512), (16, 8, 64, 512), (8, 24, 64, 64)], ids=["one-sample", "answer-head", "desk-linear"]
)
def test_weight_gradient_sums_the_samples_in_order_without_their_stack(b, L, n, m):
    rng = np.random.default_rng(4)
    x, g = rng.normal(size=(b, L, n)), rng.normal(size=(b, L, m))
    w = Tensor(np.zeros((n, m)), requires_grad=True)
    tracemalloc.start()
    try:
        tensor_mod._matmul_grads(Tensor(x), w, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(w.grad, np.matmul(np.swapaxes(x, -1, -2), g).sum(axis=0))
    # the gradient and one sample's product, never the [b, n, m] stack
    assert peak < 2.5 * w.grad.nbytes


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == 6.0

    def test_constant_has_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = Tensor([5.0, 5.0]).sum() + x.sum() * 0.0
        out.backward()
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_root_grad_is_one(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * 4.0
        y.backward()
        assert y.grad == 1.0

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_linearity(self):
        x0 = rand(4)
        for _ in range(3):
            a, b = RNG.uniform(-2, 2, size=2)
            x = Tensor(x0.copy(), requires_grad=True)
            f = (x**3.0).sum()
            g = (x.gelu() * x).sum()
            (a * f + b * g).backward()
            combined = x.grad.copy()
            x1 = Tensor(x0.copy(), requires_grad=True)
            (x1**3.0).sum().backward()
            x2 = Tensor(x0.copy(), requires_grad=True)
            (x2.gelu() * x2).sum().backward()
            assert np.abs(combined - (a * x1.grad + b * x2.grad)).max() < 1e-9

    def test_reuse_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert abs(x.grad - 7.0) < 1e-12

    def test_shared_first_gradient_survives_clipping(self):
        # a fresh first gradient is kept, not copied: both leaves of the sum
        # hold the same array, and clipping must rebind rather than scale it
        # in place, or the shared array would be scaled twice
        a, b = Tensor(rand(3, 4), requires_grad=True), Tensor(rand(3, 4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is b.grad
        norm = clip_global_norm(SimpleNamespace(params={"a": a, "b": b}), 1.0)
        assert norm == math.sqrt(24)
        for t in (a, b):
            assert np.array_equal(t.grad, np.full((3, 4), 1.0 / norm))

    def test_view_gradient_is_copied(self):
        x = Tensor(rand(3, 4), requires_grad=True)
        y = x.reshape(4, 3)
        (y * Tensor(C43)).sum().backward()
        assert np.array_equal(x.grad, C43.reshape(3, 4))
        assert x.grad.base is None and not np.shares_memory(x.grad, y.grad)

    def test_a_node_is_freed_once_its_gradient_has_moved_on(self):
        x = Tensor(rand(3, 4), requires_grad=True)
        near_inputs = x * 2.0
        near_loss = near_inputs.exp() * 3.0
        loss = near_loss.sum()
        freed, run = [], near_inputs._backward

        def probe(g, ref=weakref.ref(near_loss)):
            freed.append(ref() is None)
            run(g)

        near_inputs._backward = probe
        del near_inputs, near_loss
        loss.backward()
        assert freed == [True]
        np.testing.assert_allclose(x.grad, 6.0 * np.exp(2.0 * x.data), rtol=1e-15)
        assert loss._parents == () and loss.grad == 1.0

    def test_a_consumed_root_cannot_run_backward_again(self):
        x = Tensor(rand(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()
        assert x.grad is first

    def test_a_graph_built_on_a_consumed_node_cannot_run_backward(self):
        x = Tensor(rand(3), requires_grad=True)
        h = x * 2.0
        h.sum().backward()
        first = x.grad
        with pytest.raises(ContractError, match="consumed"):
            (h * x).sum().backward()
        # refused before any gradient was formed
        assert x.grad is first and np.array_equal(h.grad, np.ones(3))


C34 = rand(3, 4)
C43 = rand(4, 3)
C31 = rand(3, 1)
C534 = rand(5, 3, 4)
GATHER = (np.arange(3)[:, None], np.array([[0, 2, 2], [1, 0, 1], [3, 3, 0]]))


class TestElementwiseGrads:
    @pytest.mark.parametrize(
        "build",
        [
            lambda t: (t + Tensor(C34)).sum(),
            lambda t: (t * Tensor(C34)).sum(),
            lambda t: (t / Tensor(C34 + 3.0)).sum(),
            lambda t: (Tensor(C34) / (t * t + 1.0)).sum(),
            lambda t: (Tensor(C34) - t * t).sum(),
            lambda t: (t**2.0).sum(),
            lambda t: ((t * 0.1).exp()).sum(),
            lambda t: t.gelu().sum(),
            lambda t: (t + 2.5).sqrt().sum(),
            lambda t: (t.reshape(4, 3) ** 2.0).mean(),
            lambda t: (t.transpose((1, 0)) * Tensor(C43)).sum(),
            lambda t: t[1:, ::2].sum(),
            lambda t: t[np.array([0, 0, 2]), :].sum(),
            lambda t: (t[GATHER] * Tensor(C34[:, :3])).sum(),
            lambda t: (t.sum(axis=0) ** 2.0).sum(),
            lambda t: (t.mean(axis=1, keepdims=True) * Tensor(C31)).sum(),
            lambda t: (t.broadcast_to((5, 3, 4)) * Tensor(C534)).sum(),
            lambda t: concat([t, t * 2.0], axis=1).sum(),
        ],
    )
    def test_against_finite_differences(self, build):
        assert check_grad(build, rand(3, 4)) < OP_TOL

    def test_gather_rows_grad(self):
        # the batched row gather decode_image runs: table[arange(b)[:, None], idx]
        idx = np.array([[0, 2, 2], [1, 0, 1]])
        w = rand(2, 3, 4)
        assert check_grad(lambda t: (t[np.arange(2)[:, None], idx] * Tensor(w)).sum(), rand(2, 3, 4)) < OP_TOL


class TestNumerics:
    def test_overflow_is_an_error(self):
        with pytest.raises(NumericsError):
            Tensor(1e300) * Tensor(1e300)

    def test_fused_ops_check_their_inner_values(self):
        # one score overflows to -inf: the softmax gives it weight 0, so the
        # output is finite and only a check on the scores can see it
        q, k, v = np.zeros((1, 2, 2)), np.zeros((1, 3, 2)), rand(1, 3, 2)
        q[0, 0, 0], k[0, 0, 0] = 1e200, -1e200
        with np.errstate(over="ignore"):
            scores = q[0] @ k[0].T
            assert np.isneginf(scores[0, 0]) and np.isfinite(scores[0, 1:]).all()
            with pytest.raises(NumericsError, match="attention scores"):
                scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), 1)
        w1, w2 = np.full((2, 3), 1e200), rand(3, 2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="MLP hidden"):
            mlp(Tensor(np.full((4, 2), 1e200)), Tensor(w1), Tensor(np.zeros(3)), Tensor(w2), Tensor(np.zeros(2)))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            linear(Tensor(np.full((4, 2), 1e200)), Tensor(w1), Tensor(np.zeros(3)))


@pytest.mark.parametrize(
    "k_shape, v_shape, heads",
    [((2, 5, 4), (2, 4, 4), 2), ((2, 5, 4), (2, 5, 4), 3)],
    ids=["k-and-v-differ", "d-not-divisible-by-heads"],
)
def test_attention_rejects_mismatched_shapes(k_shape, v_shape, heads):
    q, k, v = Tensor(rand(2, 3, 4)), Tensor(rand(*k_shape)), Tensor(rand(*v_shape))
    with pytest.raises(ShapeError, match=f"{heads} heads"):
        scaled_dot_product_attention(q, k, v, heads)


class TestNoGrad:
    def test_ops_record_no_tape(self):
        a, b = Tensor(rand(3, 4), requires_grad=True), Tensor(rand(4, 2), requires_grad=True)
        with no_grad():
            out = softmax((a @ b).gelu()) + a.sum()
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert np.array_equal(out.data, (softmax((a @ b).gelu()) + a.sum()).data)

    def test_non_finite_still_raises(self):
        with no_grad(), pytest.raises(NumericsError):
            Tensor(1e300, requires_grad=True) * Tensor(1e300)

    def test_mode_restored_after_exit_error_and_nesting(self):
        a = Tensor(rand(2, 2), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (a * 2.0).requires_grad
        assert (a * 2.0).requires_grad
        with pytest.raises(RuntimeError), no_grad():
            raise RuntimeError("inside")
        assert (a * 2.0).requires_grad

    def test_backward_works_afterwards(self):
        a = Tensor(rand(2, 2), requires_grad=True)
        with no_grad():
            (a * a).sum()
        (a * a).sum().backward()
        assert np.array_equal(a.grad, 2 * a.data)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        out = cross_entropy((x @ w).gelu(), [0, 1, 2, 3])
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def tape_ops() -> set[str]:
    """Qualified names of the functions in tensor.py that record a tape node
    through ``Tensor._make``, read from the source so a new op is included."""
    tree = ast.parse(Path(tensor_mod.__file__).read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        defs = [(top.name + ".", f) for f in top.body] if isinstance(top, ast.ClassDef) else [("", top)]
        for prefix, f in defs:
            if isinstance(f, ast.FunctionDef) and f.name != "_make" and any(
                isinstance(n, ast.Attribute) and n.attr == "_make" for n in ast.walk(f)
            ):
                found.add(prefix + f.name)
    return found


def test_every_tape_op_has_a_finite_difference_case():
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == tensor_mod.__file__:
            called.add(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        results = op_checks(np.random.default_rng(0))
    finally:
        sys.setprofile(previous)
    ops = tape_ops()
    assert {"Tensor.__add__", "Tensor.matmul", "cross_entropy"} <= ops
    assert sorted(ops - called) == []
    assert [name for name, err, tol in results if not err < tol] == []
