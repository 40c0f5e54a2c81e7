"""Momentum (EMA) parameter copies and the FIFO queue of contrastive negatives.

The queue stores paired unit-norm image/text projections from the momentum
encoders, written in lockstep with wraparound. Before it is full, consumers
see only the filled prefix; no zero-vector padding is ever exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import ModelParams


@dataclass
class FeatureQueue:
    capacity: int
    proj_dim: int
    write_ptr: int = 0
    filled: int = 0
    # [capacity, proj_dim] each, held as given; zeros when not given
    img_slots: np.ndarray | None = None
    txt_slots: np.ndarray | None = None

    def __post_init__(self):
        if self.capacity < 1:
            raise ContractError("queue capacity must be >= 1")
        if self.img_slots is None:
            self.img_slots = np.zeros((self.capacity, self.proj_dim))
        if self.txt_slots is None:
            self.txt_slots = np.zeros((self.capacity, self.proj_dim))

    def negatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Populated (img, txt) slots, storage order. Shape [filled, d]."""
        return self.img_slots[: self.filled], self.txt_slots[: self.filled]


def check_unit(v: np.ndarray, what: str) -> None:
    if v.size and np.abs(np.linalg.norm(v, axis=-1) - 1.0).max() > 1e-6:
        raise ContractError(f"{what} vectors must be unit-norm")


def enqueue(queue: FeatureQueue, img_batch: np.ndarray, txt_batch: np.ndarray) -> None:
    """Write b paired slots at write_ptr with wraparound; oldest overwritten."""
    img_batch = np.asarray(img_batch, dtype=np.float64)
    txt_batch = np.asarray(txt_batch, dtype=np.float64)
    b = img_batch.shape[0]
    if txt_batch.shape[0] != b:
        raise ContractError("image and text batches must pair 1:1")
    if b > queue.capacity:
        raise ContractError(f"batch {b} exceeds queue capacity {queue.capacity}")
    check_unit(img_batch, "image projection")
    check_unit(txt_batch, "text projection")
    idx = (queue.write_ptr + np.arange(b)) % queue.capacity
    queue.img_slots[idx] = img_batch
    queue.txt_slots[idx] = txt_batch
    queue.write_ptr = int((queue.write_ptr + b) % queue.capacity)
    queue.filled = min(queue.filled + b, queue.capacity)


def momentum_update(mp: ModelParams, m: float) -> None:
    """EMA rule per momentum tensor: theta_m <- m*theta_m + (1-m)*theta."""
    if not 0.0 < m < 1.0:
        raise ContractError(f"momentum coefficient must be in (0,1), got {m}")
    for name, t in mp.momentum.items():
        src = mp.params[name].data
        if src.shape != t.data.shape:
            raise ContractError(f"momentum shape drift on {name}")
        t.data = m * t.data + (1.0 - m) * src
