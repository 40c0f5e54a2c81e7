"""tools/margin.py's perturbation, on a tiny checkpoint (the chains
themselves take minutes and run outside the suite)."""

import importlib.util
import pathlib

import numpy as np

from m2i2.config import preset
from m2i2.model import ModelParams
from m2i2.momentum import FeatureQueue, enqueue
from m2i2.text import RESERVED, Vocab
from m2i2.trainer import AdamState, load_checkpoint, save_checkpoint

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "margin.py"


def _margin():
    spec = importlib.util.spec_from_file_location("margin", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_checkpoint(path):
    cfg = preset("test", seed=1)
    mp = ModelParams(cfg.model_config(), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    adam = AdamState(t=3)
    for name, p in mp.params.items():
        adam.m[name] = rng.normal(size=p.shape)
        adam.v[name] = np.abs(rng.normal(size=p.shape))
    queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
    feats = rng.normal(size=(5, cfg.proj_dim))
    feats /= np.linalg.norm(feats, axis=-1, keepdims=True)
    enqueue(queue, feats, feats)
    save_checkpoint(path, cfg, mp, adam, queue, Vocab(RESERVED + ["circle", "square"]), step=17, epoch=2)


def test_perturbed_moves_each_parameter_in_its_last_bits_and_nothing_else(tmp_path):
    margin = _margin()
    src = tmp_path / "c.bin"
    _tiny_checkpoint(src)
    paths = [tmp_path / f"{name}.bin" for name in ("a", "again", "other")]
    for path, chain in zip(paths, (1, 1, 2)):
        margin.perturbed(str(src), chain, str(path))
    a, again, other = (p.read_bytes() for p in paths)
    assert a == again and a != other

    before, after = load_checkpoint(src), load_checkpoint(paths[0])
    params = [n for n in before.arrays if n.startswith("param/")]
    assert before.arrays.keys() == after.arrays.keys() and params
    moved = 0
    for name in params:
        ref, out = before.arrays[name], after.arrays[name]
        assert np.all(np.abs(out - ref) <= 1e-12 * np.abs(ref)), name
        moved += not np.array_equal(out, ref)
    assert moved > len(params) // 2
    for name in before.arrays.keys() - set(params):
        assert np.array_equal(before.arrays[name], after.arrays[name]), name
    assert any(n.startswith("adam_m/") for n in before.arrays) and any(n.startswith("queue/") for n in before.arrays)
    assert after.vocab.tokens == before.vocab.tokens and after.step == before.step
    assert after.meta["epoch"] == before.meta["epoch"] and after.meta["adam_t"] == before.meta["adam_t"]
    assert after.meta["queue"] == before.meta["queue"]
