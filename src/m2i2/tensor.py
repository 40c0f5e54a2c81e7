"""Dense float64 tensors with reverse-mode automatic differentiation.

A dynamic tape is rebuilt on every forward pass: each Tensor produced by an
operation remembers its parent tensors and a closure that maps the output
gradient to parent-gradient contributions. ``backward()`` on a scalar walks
the graph in reverse topological order and accumulates ``.grad`` on every
visited tensor, so intermediate activations (e.g. captured attention maps)
expose gradients too, not just leaf parameters.

Backward consumes the tape as it walks it: once a node has handed its
gradient to its parents, it forgets them and its closure, so every node
nearer the loss is freed while backward is still working toward the
inputs. Only the tensors the caller still holds (the root, parameters, a
captured attention map) keep their ``.data`` and ``.grad``. A consumed node
cannot be backpropagated through again: a later backward that reaches one
raises ContractError.

Everything is float64. Any forward result containing NaN/Inf raises
NumericsError instead of propagating silently; a fused op also checks the
values it computes inside its one node. An op records a node exactly when
one of its inputs requires a gradient; otherwise its result is a parentless
constant. Forward-only work therefore runs on tensors that require none,
such as a model's ``frozen()`` view.

Besides the primitive ops, three fused ops each record one node for a
transformer block's hot path: ``linear``, ``scaled_dot_product_attention``
and ``mlp``. Each evaluates the same numpy expressions, in the same order
and on the same operand layouts, as the chain of primitive ops it stands
for, so its results and gradients are bitwise those of that chain.

Gradient ownership: a first gradient that is fresh (see ``_accum``) is kept
as ``.grad`` without a copy, so a ``.grad`` may be the very array another
tensor's ``.grad`` is. No code may therefore write into a ``.grad`` (or an
array passed to a backward closure) in place; rebind it instead.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

GELU_C = math.sqrt(2.0 / math.pi)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


class Tensor:
    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._backward = _backward

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        _finite(data, "operation")
        if any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
        return Tensor(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- elementwise arithmetic -----------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def bwd(g, a=self, b=other):
            _accum(a, _unbroadcast(g, a.shape))
            _accum(b, _unbroadcast(g, b.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def bwd(g, a=self):
            _accum(a, -g)

        return Tensor._make(-self.data, (self,), bwd)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def bwd(g, a=self, b=other):
            _accum(a, _unbroadcast(g * b.data, a.shape))
            _accum(b, _unbroadcast(g * a.data, b.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data / other.data

        def bwd(g, a=self, b=other):
            _accum(a, _unbroadcast(g / b.data, a.shape))
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._make(out_data, (self, other), bwd)

    def __pow__(self, p: float) -> "Tensor":
        out_data = self.data**p

        def bwd(g, a=self):
            _accum(a, g * p * a.data ** (p - 1))

        return Tensor._make(out_data, (self,), bwd)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def bwd(g, a=self, o=out_data):
            _accum(a, g * o)

        return Tensor._make(out_data, (self,), bwd)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def gelu(self) -> "Tensor":
        """GELU, tanh approximation (the same formula the gradient checks use)."""
        out_data, t = _gelu(self.data)

        def bwd(g, a=self, t=t):
            _accum(a, _gelu_grad(a.data, t, g))

        return Tensor._make(out_data, (self,), bwd)

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g, a=self):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(a, np.broadcast_to(gg, a.shape))

        return Tensor._make(out_data, (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else np.prod([self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # ---- shape manipulation ---------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bwd(g, a=self):
            _accum(a, g.reshape(a.shape))

        return Tensor._make(out_data, (self,), bwd)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def bwd(g, a=self):
            _accum(a, g.transpose(inv))

        return Tensor._make(out_data, (self,), bwd)

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(shape)
        out_data = np.broadcast_to(self.data, shape)

        def bwd(g, a=self):
            _accum(a, _unbroadcast(g, a.shape))

        return Tensor._make(np.ascontiguousarray(out_data), (self,), bwd)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def bwd(g, a=self):
            buf = np.zeros(a.shape)
            if _is_advanced(key):
                np.add.at(buf, key, g)
            else:
                # incoming grads may carry stray singleton dims relative to
                # the sliced view; realign before accumulating
                buf[key] += np.reshape(g, np.shape(buf[key]))
            _accum(a, buf)

        return Tensor._make(np.ascontiguousarray(out_data), (self,), bwd)

    # ---- linear algebra --------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._lift(other)
        if self.ndim < 1 or other.ndim < 2:
            raise ShapeError(f"matmul needs matrices, got {self.shape} @ {other.shape}")
        if self.shape[-1] != other.shape[-2]:
            raise ShapeError(f"matmul inner extents differ: {self.shape} @ {other.shape}")
        out_data = np.matmul(self.data, other.data)

        def bwd(g, a=self, b=other):
            _matmul_grads(a, b, g)

        return Tensor._make(out_data, (self, other), bwd)

    __matmul__ = matmul

    # ---- backward --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-accumulate gradients from this scalar through the tape,
        consuming it: only the tensors the caller holds keep a ``.grad``
        (see the module docstring). Raises ContractError, before any
        gradient is formed, if the tape reaches a consumed node."""
        if self.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward root does not require grad")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                raise ContractError(f"{node!r} was consumed by an earlier backward(); build the graph again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._parents, node._backward = (), _consumed


def _consumed(g: np.ndarray) -> None:
    """The closure of a node whose backward has run; backward() refuses it."""
    raise ContractError("this node was consumed by an earlier backward()")


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to t.grad. A first g that is fresh (a float64 array that owns
    its memory, or any g the caller made for t alone) becomes t.grad as it
    is: it may be another tensor's .grad too, which is safe only because no
    code writes into a .grad in place. Any other g is copied, since whoever
    owns its memory may still change it."""
    if not t.requires_grad:
        return
    if t.grad is None:
        owned = fresh or type(g) is np.ndarray and g.base is None and g.dtype == np.float64
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Accumulate the gradients of a @ b into whichever side needs one."""
    if a.requires_grad:
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
    if b.requires_grad:
        _accum(b, _rhs_grad(a.data, g, b.shape))


def _rhs_grad(x: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of the right operand of x @ w, of the given shape, for
    the product's gradient g. A [n, m] weight applied to a [b, L, n] batch
    gets x[i]ᵀ g[i] added into one [n, m] array in sample order: bitwise the
    sum over axis 0 of the [b, n, m] stack of per-sample products, which it
    never forms."""
    if x.ndim != 3 or len(shape) != 2:
        return _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), shape)
    out = np.matmul(x[0].T, g[0])
    for i in range(1, x.shape[0]):
        out += np.matmul(x[i].T, g[i])
    return out


def _finite(data: np.ndarray, what: str) -> None:
    if not np.isfinite(data).all():
        raise NumericsError(f"{what} produced non-finite values")


def _is_advanced(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, (list, np.ndarray)) for p in parts)


# ---- composite / fused ops ----------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, ts=ts):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return Tensor._make(out_data, ts, bwd)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along axis (max-subtraction); a fresh array."""
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def _softmax_grad(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    if x.shape == () or x.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {x.shape}")
    p = _softmax(x.data, axis)

    def bwd(g, a=x, p=p):
        _accum(a, _softmax_grad(p, g, axis))

    return Tensor._make(p, (x,), bwd)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh approximation) of x, and the tanh its gradient reuses."""
    # x * x * x, not x**3: numpy has no fast path for that exponent
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times GELU's derivative at x, given the forward's tanh t; grouped
    as g * (0.5*(1+t) + 0.5*x*(1-t*t) * GELU_C*(1+3*0.044715*x*x))."""
    dinner = x * x
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= GELU_C
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= 0.5 * x
    slope *= dinner
    d = t + 1.0
    d *= 0.5
    d += slope
    d *= g
    return d


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def bwd(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        gg = g * gain.data
        _accum(
            x,
            inv
            * (
                gg
                - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
            ),
        )

    return Tensor._make(out_data, (x, gain, bias), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean of -log softmax(logits)[target] over rows, fused for stability."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [rows, classes], got {logits.shape}")
    b, n = logits.shape
    if targets.shape != (b,):
        raise ShapeError(f"targets shape {targets.shape} != ({b},)")
    if targets.min(initial=0) < 0 or targets.max(initial=-1) >= n:
        raise IndexError(f"target index out of range [0, {n})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    out_data = -logp[np.arange(b), targets].mean()

    def bwd(g, a=logits, logp=logp):
        d = np.exp(logp)
        d[np.arange(b), targets] -= 1.0
        _accum(a, g * d / b)

    return Tensor._make(np.asarray(out_data), (logits,), bwd)


def _check_linear(x_shape: tuple[int, ...], w: Tensor, b: Tensor) -> None:
    if w.ndim != 2 or x_shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs [..., n] @ [n, m] + [m], got {x_shape} @ {w.shape} + {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape node; w is [n, m] and b [m]."""
    _check_linear(x.shape, w, b)
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def bwd(g, x=x, w=w, b=b):
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))
        _matmul_grads(x, w, g)

    return Tensor._make(out_data, (x, w, b), bwd)


def scaled_dot_product_attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, bias: np.ndarray | None = None, capture: list | None = None
) -> Tensor:
    """softmax(q kᵀ / sqrt(hd) + bias) v in heads of hd = d / heads, as one
    tape node that alone knows the head layout: q [b, Lq, d] and k, v
    [b, Lk, d] give [b, Lq, d], and each gets one [b, L, d] gradient of its own.

    bias is an additive mask broadcastable to [b, heads, Lq, Lk]. capture,
    when given, receives the probabilities as a tensor of their own, which
    then sits between the scores and the output so that a loss may read it.
    """
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or k.shape[::2] != q.shape[::2] or not k.shape[1] or q.shape[2] % heads:
        raise ShapeError(f"attention needs [b, L, d] q, k = v, Lk > 0, {heads} heads dividing d; got {q.shape}, {k.shape}, {v.shape}")
    b, _, d = q.shape
    hd = d // heads

    def merge(x: np.ndarray) -> np.ndarray:  # [b, heads, L, hd] -> [b, L, d], in x's memory or a copy
        return x.transpose((0, 2, 1, 3)).reshape(b, -1, d)

    qh, kh, vh = (t.data.reshape(b, -1, heads, hd).transpose((0, 2, 1, 3)) for t in (q, k, v))
    scale = 1.0 / math.sqrt(hd)
    scores = np.matmul(qh, kh.transpose((0, 1, 3, 2)))
    scores *= scale
    if bias is not None:
        scores += bias
    _finite(scores, "attention scores")
    p = _softmax(scores, -1)
    out_data = merge(np.matmul(p, vh))

    def probs_bwd(gp, q=q, k=k, p=p):
        gs = _softmax_grad(p, gp, -1)
        gs *= scale
        if q.requires_grad:
            _accum(q, merge(np.matmul(gs, kh)), fresh=True)
        if k.requires_grad:
            # the [b, Lk, d] transpose of qᵀ g, kept d-major: that layout fixes the bits of wk's gradient
            _accum(k, np.matmul(np.swapaxes(qh, -1, -2), gs).reshape(b, d, -1).transpose((0, 2, 1)), fresh=True)

    if capture is None:
        parents, probs_grad = (q, k, v), probs_bwd
    else:
        probs = Tensor._make(p, (q, k), probs_bwd)
        capture.append(probs)
        parents, probs_grad = (probs, v), lambda gp: _accum(probs, gp)

    def bwd(g, v=v, p=p):
        g = g.reshape(b, -1, heads, hd).transpose((0, 2, 1, 3))
        if q.requires_grad or k.requires_grad:
            probs_grad(np.matmul(g, np.swapaxes(vh, -1, -2)))
        if v.requires_grad:
            _accum(v, merge(np.matmul(np.swapaxes(p, -1, -2), g)), fresh=True)

    return Tensor._make(out_data, parents, bwd)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear -> GELU -> linear as one tape node; its backward reuses the
    forward's hidden pre-activation and tanh."""
    _check_linear(x.shape, w1, b1)
    _check_linear(x.shape[:-1] + w1.shape[1:], w2, b2)
    hidden = np.matmul(x.data, w1.data)
    hidden += b1.data
    _finite(hidden, "MLP hidden layer")
    act, t = _gelu(hidden)
    out_data = np.matmul(act, w2.data)
    out_data += b2.data

    def bwd(g, x=x, w1=w1, b1=b1, w2=w2, b2=b2):
        if b2.requires_grad:
            _accum(b2, _unbroadcast(g, b2.shape))
        if w2.requires_grad:
            _accum(w2, _rhs_grad(act, g, w2.shape))
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = _gelu_grad(hidden, t, np.matmul(g, np.swapaxes(w2.data, -1, -2)))
            if b1.requires_grad:
                _accum(b1, _unbroadcast(gh, b1.shape))
            _matmul_grads(x, w1, gh)

    return Tensor._make(out_data, (x, w1, b1, w2, b2), bwd)
