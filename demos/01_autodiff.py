"""A tour of the tensor engine: build a tiny computation, differentiate it,
and confirm the gradients against central finite differences.
"""

import numpy as np

from m2i2.gradcheck import fd_grad
from m2i2.tensor import Tensor, cross_entropy, layer_norm

rng = np.random.default_rng(0)

# A two-layer toy network with a softmax readout, all in float64.
x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
w1 = Tensor(rng.normal(size=(8, 16)) * 0.1, requires_grad=True)
w2 = Tensor(rng.normal(size=(16, 3)) * 0.1, requires_grad=True)
g = Tensor(np.ones(16), requires_grad=True)
b = Tensor(np.zeros(16), requires_grad=True)
targets = np.array([0, 1, 2, 0])


def forward() -> Tensor:
    h = layer_norm((x @ w1).gelu(), g, b)
    # mean over rows of -log softmax(logits)[target], fused for stability
    return cross_entropy(h @ w2, targets)


loss = forward()
loss.backward()
print(f"loss = {float(loss.data):.6f}")
print(f"dloss/dw2 norm = {np.linalg.norm(w2.grad):.6f}")

# Finite-difference spot check on a handful of w1 entries, with the central
# differences the gradcheck suite uses; fd_grad perturbs w1.data in place.
entries = [(0, 0), (3, 7), (7, 15)]
picks = [np.ravel_multi_index(idx, w1.data.shape) for idx in entries]
num = fd_grad(lambda _: float(forward().data), w1.data, indices=picks)
worst = 0.0
for idx in entries:
    err = abs(num[idx] - w1.grad[idx]) / max(abs(num[idx]), 1e-12)
    worst = max(worst, err)
    print(f"w1{idx}: analytic {w1.grad[idx]:+.8f}  numeric {num[idx]:+.8f}  rel err {err:.2e}")
print(f"worst relative error: {worst:.2e}")
