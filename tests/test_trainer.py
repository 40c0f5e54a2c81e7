import dataclasses
import json
import math
import mmap
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from m2i2 import model, trainer
from m2i2.config import preset
from m2i2.errors import CheckpointError, ConfigError, NumericsError
from m2i2.gradcheck import E2E_TOL, probe_param_errs
from m2i2.model import ModelParams
from m2i2.momentum import FeatureQueue, enqueue, momentum_update
from m2i2.objectives import combined_loss, itm_loss, mlm_loss, pair_negatives
from m2i2.synth import generate_captions, generate_vqa
from m2i2.tensor import Tensor, concat
from m2i2.text import PAD, RESERVED, Vocab, build_vocab, tokenize
from m2i2.trainer import (
    AdamState,
    adamw_step,
    answer_targets,
    clip_global_norm,
    cosine_lr,
    finetune,
    init_from_pretrained,
    load_checkpoint,
    pretrain,
    restore_model,
    save_checkpoint,
)
from m2i2.vision import Image, load_image


def tiny_cfg(**kw):
    return preset("test", **kw)


def tiny_params(cfg=None, seed=0):
    cfg = cfg or tiny_cfg()
    return ModelParams(cfg.model_config(), np.random.default_rng(seed))


def read_metrics(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def strip_wall(recs):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in recs]


# ---- schedule ------------------------------------------------------------


def test_cosine_endpoints():
    assert cosine_lr(0, 100, 1e-3, 1e-4) == pytest.approx(1e-3)
    assert cosine_lr(100, 100, 1e-3, 1e-4) == pytest.approx(1e-4)


def test_cosine_midpoint():
    assert cosine_lr(50, 100, 1e-4, 1e-5) == pytest.approx(5.5e-5)


def test_cosine_monotone_decreasing():
    vals = [cosine_lr(s, 200, 1e-3, 1e-4) for s in range(201)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---- optimizer -----------------------------------------------------------


def test_adamw_hand_recurrence():
    # single scalar, g=1, lr=0.1, wd=0: m_hat=v_hat=1 at t=1, so the update
    # is exactly -lr/(1+eps) regardless of betas
    mp = tiny_params()
    name = "itc.log_temp"
    p = mp.params[name]
    p.data = np.array(1.0)
    p.grad = np.array(1.0)
    st = AdamState()
    adamw_step(mp, st, lr=0.1, weight_decay=0.0)
    assert p.data == pytest.approx(1.0 - 0.1 / (1 + 1e-8), abs=1e-12)
    assert st.t == 1


def test_adamw_decay_only():
    mp = tiny_params()
    vals = {k: t.data.copy() for k, t in mp.params.items()}
    for t in mp.params.values():
        t.grad = np.zeros_like(t.data)
    adamw_step(mp, AdamState(), lr=0.5, weight_decay=0.01)
    for k, t in mp.params.items():
        assert np.allclose(t.data, vals[k] * (1 - 0.5 * 0.01), atol=1e-15)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adamw_rejects_a_non_finite_gradient_before_any_update(bad):
    mp = tiny_params()
    st = AdamState()
    for t in mp.params.values():
        t.grad = np.ones_like(t.data)
    adamw_step(mp, st, lr=0.1, weight_decay=0.1)
    params, m, v = {n: t.data for n, t in mp.params.items()}, dict(st.m), dict(st.v)
    # the last tensor, so that every other one would be updated before it
    last = list(mp.params)[-1]
    mp.params[last].grad = np.full_like(mp.params[last].data, bad)
    with pytest.raises(NumericsError, match=f"gradient on parameter {last}"):
        adamw_step(mp, st, lr=0.1, weight_decay=0.1)
    assert st.t == 1
    assert all(t.data is params[n] for n, t in mp.params.items())
    assert st.m.keys() == m.keys() and all(st.m[n] is m[n] and st.v[n] is v[n] for n in m)


def test_clip_global_norm():
    mp = tiny_params()
    for t in mp.params.values():
        t.grad = np.full_like(t.data, 3.0)
    norm = clip_global_norm(mp, 1.0)
    assert norm > 1.0
    after = math.sqrt(sum(float((t.grad**2).sum()) for t in mp.params.values()))
    assert after == pytest.approx(1.0, rel=1e-9)


def test_clip_noop_below_threshold():
    mp = tiny_params()
    for t in mp.params.values():
        t.grad = np.zeros_like(t.data)
    mp.params["itc.log_temp"].grad = np.array(0.5)
    norm = clip_global_norm(mp, 1.0)
    assert norm == pytest.approx(0.5)
    assert mp.params["itc.log_temp"].grad == pytest.approx(0.5)


# ---- answer framing ------------------------------------------------------


def test_answer_targets_framing():
    vocab = Vocab(RESERVED + ["yes", "no"])
    row = answer_targets("yes", vocab, max_len=4)
    yes = vocab.token_to_id["yes"]
    assert row.tolist() == [5, yes, 6, 0, 0]  # BOS, yes, EOS, PAD, PAD


def test_answer_targets_truncation():
    vocab = Vocab(RESERVED + ["a"])
    row = answer_targets("a a a a a a", vocab, max_len=3)
    a = vocab.token_to_id["a"]
    assert row.tolist() == [5, a, a, 6]  # room is always left for EOS


# ---- checkpoints ---------------------------------------------------------


def _ckpt_fixture(tmp_path):
    cfg = tiny_cfg(seed=1)
    mp = tiny_params(cfg, seed=1)
    adam = AdamState(t=3)
    for name in list(mp.params)[:5]:
        adam.m[name] = np.random.default_rng(2).normal(size=mp.params[name].shape)
        adam.v[name] = np.abs(np.random.default_rng(3).normal(size=mp.params[name].shape))
    q = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
    feats = np.random.default_rng(4).normal(size=(5, cfg.proj_dim))
    feats /= np.linalg.norm(feats, axis=-1, keepdims=True)
    enqueue(q, feats, feats)
    vocab = Vocab(RESERVED + ["circle", "square"])
    path = tmp_path / "c.bin"
    save_checkpoint(path, cfg, mp, adam, q, vocab, step=17, epoch=2)
    return cfg, mp, adam, q, vocab, path


def test_checkpoint_roundtrip_exact(tmp_path):
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg
    assert ckpt.step == 17
    assert ckpt.meta["epoch"] == 2
    assert ckpt.vocab.tokens == vocab.tokens
    mp2, adam2, q2 = restore_model(ckpt, cfg)
    for name, t in mp.params.items():
        assert np.array_equal(mp2.params[name].data, t.data), name
    for name, t in mp.momentum.items():
        assert np.array_equal(mp2.momentum[name].data, t.data), name
    assert adam2.t == adam.t
    for name in adam.m:
        assert np.array_equal(adam2.m[name], adam.m[name])
        assert np.array_equal(adam2.v[name], adam.v[name])
    assert q2.filled == q.filled and q2.write_ptr == q.write_ptr
    assert np.array_equal(q2.img_slots, q.img_slots)


def test_a_checkpoint_holding_attention_key_biases_restores_without_them(tmp_path):
    # earlier models held a key bias per attention layer, with momentum and
    # Adam moments; a model holds none now, and restore ignores the arrays
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    old = tiny_params(cfg, seed=1)
    for name in [n for n in old.params if n.endswith(".wk")]:
        kb = name.removesuffix("wk") + "kb"
        old.params[kb] = Tensor(np.full(cfg.dim, 0.5), requires_grad=True)
        if name in old.momentum:
            old.momentum[kb] = Tensor(np.full(cfg.dim, 0.5))
        adam.m[kb], adam.v[kb] = np.ones(cfg.dim), np.ones(cfg.dim)
    save_checkpoint(path, cfg, old, adam, q, vocab, step=17, epoch=2)
    ckpt = load_checkpoint(path)
    assert any(n.endswith(".kb") for n in ckpt.arrays)
    mp2, adam2, _ = restore_model(ckpt, cfg)
    assert mp2.params.keys() == mp.params.keys() and mp2.momentum.keys() == mp.momentum.keys()
    assert not any(n.endswith(".kb") for n in [*mp2.params, *adam2.m, *adam2.v])
    for name, t in mp.params.items():
        assert np.array_equal(mp2.params[name].data, t.data), name


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    path2 = tmp_path / "c2.bin"
    save_checkpoint(path2, cfg, mp, adam, q, vocab, step=17, epoch=2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_version_1_rejected(tmp_path):
    # version 2 files also carry config keys that no longer exist, and
    # version 4 files an unpadded header
    *_rest, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    for version in (1, 2, 3, 4):
        path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(path)


def _header(raw: bytes) -> tuple[int, dict]:
    """The length of a checkpoint's JSON header and the header itself."""
    (mlen,) = struct.unpack("<Q", raw[8:16])
    return mlen, json.loads(raw[16 : 16 + mlen])


def _with_header(raw: bytes, header: dict) -> bytes:
    """raw with its JSON header replaced by header, padded as save_checkpoint
    pads it, so that the data stays aligned and only the edit is malformed."""
    mlen, _ = _header(raw)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    blob += b" " * (-(16 + len(blob)) % trainer.CKPT_ALIGN)
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :]


@pytest.fixture
def no_map(monkeypatch):
    """Fails any load that gets as far as mapping the file."""

    def fail(*args, **kwargs):
        raise AssertionError("load_checkpoint mapped a malformed file")

    monkeypatch.setattr(trainer.mmap, "mmap", fail)


def _malformed(raw: bytes, section: str) -> bytes:
    mlen, header = _header(raw)
    payload = 16 + mlen
    if section == "one trailing byte":
        return raw + b"\0"
    if section == "oversized meta length":
        return raw[:8] + struct.pack("<Q", 2**63) + raw[16:]
    if section == "oversized table" or section.startswith(("no ", "queue ", "name ")):
        if section == "oversized table":
            # 8 TiB listed: allocating it before checking the file would fail
            header["arrays"][0][1] = [2**40]
        elif section == "name listed twice":
            # the table's byte count still agrees, so only a check on the names sees it
            header["arrays"][1][0] = header["arrays"][0][0]
        elif section == "name not a str":
            header["arrays"][0][0] = 7
        elif section == "queue null":
            # a pretrain checkpoint's slots, listed in the table, without their counters
            header["queue"] = None
        elif section.startswith("no "):
            del header[section[3:]]
        else:
            # the fixture's 16-slot queue holds 5 entries: write_ptr = filled = 5
            _, key, value = section.split()
            header["queue"][key] = int(value)
        return _with_header(raw, header)
    cut = {
        "magic": 2,
        "version": 6,
        "meta length": 12,
        "meta": 16 + mlen // 2,
        "payload start": payload,
        "mid-array": payload + (len(raw) - payload) // 2 + 4,
        "one byte short": len(raw) - 1,
    }[section]
    return raw[:cut]


# each malformed section and the error it raises
MALFORMED = {
    "magic": "bad magic",
    "version": "truncated or malformed",
    "meta length": "truncated or malformed",
    "meta": "truncated in its header",
    "payload start": "holds 0 data bytes",
    "mid-array": "data bytes; its table lists",
    "one byte short": "data bytes; its table lists",
    "one trailing byte": "data bytes; its table lists",
    "oversized meta length": "truncated in its header",
    "oversized table": "data bytes; its table lists",
    "name listed twice": "malformed array table",
    "name not a str": "malformed array table",
    "no step": "lacks a header field",
    "no epoch": "lacks a header field",
    "no adam_t": "lacks a header field",
    "no queue": "lacks a header field",
    "no vocab": "lacks a header field",
    "queue capacity 3": "does not fit its slots",
    "queue write_ptr 16": "does not fit its slots",
    "queue write_ptr 2": "does not fit its slots",
    "queue filled 3": "does not fit its slots",
    "queue filled 17": "does not fit its slots",
    "queue null": "queue slots but no queue",
}


@pytest.mark.parametrize("section", list(MALFORMED))
def test_truncated_checkpoint_raises_checkpoint_error(tmp_path, no_map, section):
    *_rest, path = _ckpt_fixture(tmp_path)
    path.write_bytes(_malformed(path.read_bytes(), section))
    with pytest.raises(CheckpointError, match=MALFORMED[section]):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("step", True), ("epoch", "1"), ("adam_t", 5.0), ("vocab", 5), ("vocab", ["<pad>", 1]),
        ("queue", 5), ("queue/capacity", 16.0), ("queue/write_ptr", False), ("queue/filled", "5"), ("queue/extra", 0),
    ],
)
def test_checkpoint_header_of_the_wrong_type_raises_checkpoint_error(tmp_path, no_map, key, value):
    # a hand-edited header; the table and data are left whole
    *_rest, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    _, header = _header(raw)
    field, _, sub = key.partition("/")
    if sub:
        header[field][sub] = value
    else:
        header[field] = value
    path.write_bytes(_with_header(raw, header))
    match = "malformed queue" if field == "queue" else "not an int, or a vocab"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_with_removed_config_keys_raises_checkpoint_error(tmp_path, no_map):
    # as written before these four keys became constants
    *_rest, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    _, header = _header(raw)
    header["config"].update(mlp_ratio=4, beta1=0.9, beta2=0.999, adam_eps=1e-8)
    path.write_bytes(_with_header(raw, header))
    with pytest.raises(CheckpointError, match=r"\['adam_eps', 'beta1', 'beta2', 'mlp_ratio'\]"):
        load_checkpoint(path)


def test_checkpoint_with_an_unpadded_header_raises_checkpoint_error(tmp_path):
    # as a version-4 writer laid it out: the data right after the bare JSON
    *_rest, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    mlen, header = _header(raw)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    assert (16 + len(blob)) % trainer.CKPT_ALIGN and len(blob) < mlen
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])
    with pytest.raises(CheckpointError, match=f"unaligned data at byte {16 + len(blob)}"):
        load_checkpoint(path)


def _owner(a: np.ndarray):
    """The object whose buffer a views, through numpy's memoryview of it."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_loaded_arrays_are_read_only_views_of_one_aligned_block(tmp_path):
    *_rest, path = _ckpt_fixture(tmp_path)
    _, header = _header(path.read_bytes())
    ckpt = load_checkpoint(path)
    arrays = [ckpt.arrays[name] for name, _ in header["arrays"]]
    assert len({id(_owner(a)) for a in arrays}) == 1 and isinstance(_owner(arrays[0]), mmap.mmap)
    # back to back in table order from an aligned start, so each is 8-byte aligned
    at = [a.__array_interface__["data"][0] for a in arrays]
    assert at[0] % trainer.CKPT_ALIGN == 0
    assert all(b - a == x.nbytes for a, b, x in zip(at, at[1:], arrays))
    assert all(a.flags.aligned and not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][...] = 0.0


def test_saving_over_a_loaded_checkpoint_leaves_its_arrays_as_loaded(tmp_path):
    # save_checkpoint replaces the file, so the old map keeps the old data
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    ckpt = load_checkpoint(path)
    mp2, adam2, q2 = restore_model(ckpt, cfg)
    loaded = {key: a.tobytes() for key, a in ckpt.arrays.items()}
    for t in mp2.params.values():
        t.grad = np.ones_like(t.data)
    adamw_step(mp2, adam2, lr=0.1, weight_decay=0.1)
    save_checkpoint(path, cfg, mp2, adam2, q2, vocab, step=18, epoch=3)
    assert all(a.tobytes() == loaded[key] for key, a in ckpt.arrays.items())
    again = load_checkpoint(path)
    assert again.step == 18 and np.array_equal(again.arrays["param/itm.w"], mp2.params["itm.w"].data)
    assert again.arrays["param/itm.w"].tobytes() != loaded["param/itm.w"]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident set from /proc")
def test_loading_reads_no_array_data(tmp_path):
    # a table that lists 512 MiB more over a sparse file: a loader that read
    # or copied the data would grow the resident set by that much
    *_rest, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    _, header = _header(raw)
    big = 2**26
    header["arrays"].append(["zz/big", [big]])
    head = _with_header(raw, header)
    with open(path, "wb") as f:
        f.write(head)
        f.truncate(len(head) + 8 * big)

    def resident_mib():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    before = resident_mib()
    ckpt = load_checkpoint(path)
    grown = resident_mib() - before
    assert ckpt.arrays["zz/big"].shape == (big,)
    assert grown < 4, f"loading grew the resident set by {grown:.1f} MiB"


def test_checkpoint_header_lists_every_array_in_order(tmp_path):
    *_rest, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    mlen, header = _header(raw)
    ckpt = load_checkpoint(path)
    assert [name for name, _ in header["arrays"]] == sorted(ckpt.arrays)
    assert "arrays" not in ckpt.meta
    payload = b"".join(ckpt.arrays[name].astype("<f8").tobytes() for name, _ in header["arrays"])
    assert raw[16 + mlen :] == payload


def test_restore_raises_checkpoint_error_for_what_it_lacks(tmp_path):
    # a Checkpoint built or edited in memory skips load_checkpoint's checks
    cfg, *_rest, path = _ckpt_fixture(tmp_path)
    ckpt = load_checkpoint(path)
    del ckpt.arrays["queue/txt"]
    with pytest.raises(CheckpointError, match="queue/txt"):
        restore_model(ckpt, cfg)
    ckpt = load_checkpoint(path)
    del ckpt.meta["adam_t"]
    with pytest.raises(CheckpointError, match="adam_t"):
        restore_model(ckpt, cfg)


def test_restore_draws_nothing_and_copies_only_the_queue(tmp_path, monkeypatch):
    # parameters, momentum and Adam moments are the loaded arrays themselves,
    # since AdamW and the EMA rebind them; enqueue writes the queue slots in
    # place, so those are copies
    cfg, mp, *_rest, path = _ckpt_fixture(tmp_path)
    ckpt = load_checkpoint(path)
    saved = {key: a.copy() for key, a in ckpt.arrays.items()}

    def no_draw(*args, **kwargs):
        raise AssertionError("restore_model drew random values")

    monkeypatch.setattr(model, "_trunc_normal", no_draw)
    mp2, adam2, q2 = restore_model(ckpt, cfg)
    restored = {f"param/{n}": t.data for n, t in mp2.params.items()}
    restored |= {f"mom/{n}": t.data for n, t in mp2.momentum.items()}
    restored |= {f"adam_m/{n}": a for n, a in adam2.m.items()}
    restored |= {f"adam_v/{n}": a for n, a in adam2.v.items()}
    restored |= {"queue/img": q2.img_slots, "queue/txt": q2.txt_slots}
    assert set(restored) == set(ckpt.arrays)
    for key, a in restored.items():
        assert np.array_equal(a, ckpt.arrays[key]), key
        if key.startswith("queue/"):
            assert not np.shares_memory(a, ckpt.arrays[key]), key
        else:
            assert a is ckpt.arrays[key], key

    # a training step on the restored state leaves the loaded arrays as read
    for t in mp2.params.values():
        t.grad = np.ones_like(t.data)
    clip_global_norm(mp2, 1.0)
    adamw_step(mp2, adam2, lr=0.1, weight_decay=0.1)
    momentum_update(mp2, 0.5)
    enqueue(q2, saved["queue/img"][:2], saved["queue/txt"][:2])
    assert not np.array_equal(mp2.params["itm.w"].data, saved["param/itm.w"])
    for key, a in ckpt.arrays.items():
        assert np.array_equal(a, saved[key]), key


class _FailingFile:
    """A file whose tenth write raises, as a full disk would."""

    def __init__(self, f):
        self.f, self.writes, self.written = f, 0, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def __getattr__(self, name):
        return getattr(self.f, name)

    def write(self, data):
        self.writes += 1
        if self.writes == 10:
            raise OSError("disk full")
        n = self.f.write(data)
        self.written += n
        return n


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    before = path.read_bytes()
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(_FailingFile(open(*args, **kwargs)))
        return opened[-1]

    mp.params["tok_embed"].data = mp.params["tok_embed"].data + 1.0
    with monkeypatch.context() as m:
        m.setattr(trainer, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, cfg, mp, adam, q, vocab, step=18, epoch=3)
    # the failing write came after the header, partway through the arrays
    (mlen,) = struct.unpack("<Q", before[8:16])
    assert 16 + mlen < opened[0].written < len(before)
    assert path.read_bytes() == before
    assert load_checkpoint(path).step == 17
    assert os.listdir(tmp_path) == ["c.bin"]


def test_restore_shape_mismatch_names_tensors(tmp_path):
    cfg, *_rest, path = _ckpt_fixture(tmp_path)
    with pytest.raises(CheckpointError) as e:
        restore_model(load_checkpoint(path), dataclasses.replace(tiny_cfg(seed=1), dim=32))
    assert "tok_embed" in str(e.value)


def test_init_from_pretrained_keeps_answer_decoder_fresh(tmp_path):
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    fresh = tiny_params(tiny_cfg(seed=1, phase="finetune"), seed=99)
    before = {k: t.data.copy() for k, t in fresh.params.items()}
    ckpt = load_checkpoint(path)
    saved = {key: a.copy() for key, a in ckpt.arrays.items()}
    init_from_pretrained(fresh, ckpt)
    for name, t in fresh.params.items():
        if name in mp.params:
            assert np.array_equal(t.data, mp.params[name].data), name
            # the checkpoint's own array, as restore_model holds it
            assert t.data is ckpt.arrays[f"param/{name}"], name
        else:
            assert name.startswith("ans_") and np.array_equal(t.data, before[name]), name

    # a training step rebinds the shared tensors and leaves the arrays as read
    for t in fresh.params.values():
        t.grad = np.ones_like(t.data)
    clip_global_norm(fresh, 1.0)
    adamw_step(fresh, AdamState(), lr=0.1, weight_decay=0.1)
    assert not np.array_equal(fresh.params["tok_embed"].data, saved["param/tok_embed"])
    for key, a in ckpt.arrays.items():
        assert np.array_equal(a, saved[key]), key


def test_init_from_pretrained_rejects_incompatible_checkpoints(tmp_path):
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    ft_cfg = tiny_cfg(seed=1, phase="finetune")
    ft_path = tmp_path / "ft.bin"
    save_checkpoint(ft_path, ft_cfg, tiny_params(ft_cfg), AdamState(), None, vocab, step=0, epoch=0)
    with pytest.raises(CheckpointError, match="finetune"):
        init_from_pretrained(tiny_params(ft_cfg), load_checkpoint(ft_path))
    missing = load_checkpoint(path)
    del missing.arrays["param/tok_embed"]
    with pytest.raises(CheckpointError, match="tok_embed"):
        init_from_pretrained(tiny_params(ft_cfg), missing)
    wide = tiny_cfg(seed=1, phase="finetune", dim=32)
    with pytest.raises(CheckpointError, match="tok_embed"):
        init_from_pretrained(tiny_params(wide), load_checkpoint(path))


def test_init_from_pretrained_interpolates_resolution(tmp_path):
    cfg, mp, adam, q, vocab, path = _ckpt_fixture(tmp_path)
    big = tiny_cfg(seed=1, image_size=cfg.image_size * 2, phase="finetune")
    fresh = ModelParams(big.model_config(), np.random.default_rng(0))
    init_from_pretrained(fresh, load_checkpoint(path))
    n_big = (big.image_size // big.patch_size) ** 2
    assert fresh.params["img_pos"].shape == (n_big + 1, cfg.dim)
    assert np.array_equal(fresh.params["img_pos"].data[0], mp.params["img_pos"].data[0])


# ---- end-to-end loops ----------------------------------------------------


@pytest.fixture(scope="module")
def caption_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("caps")
    samples = generate_captions(8, 11, root, image_size=32)
    return root, samples


@pytest.fixture(scope="module")
def vqa_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("vqa")
    samples = generate_vqa(8, 12, root, image_size=32)
    return root, samples


def test_pretrain_identical_seeds_identical_logs(caption_data, tmp_path):
    root, samples = caption_data
    cfg = tiny_cfg(seed=5, epochs=2)
    pretrain(cfg, samples, root, tmp_path / "a")
    pretrain(tiny_cfg(seed=5, epochs=2), samples, root, tmp_path / "b")
    ra = strip_wall(read_metrics(tmp_path / "a" / "metrics.jsonl"))
    rb = strip_wall(read_metrics(tmp_path / "b" / "metrics.jsonl"))
    assert ra == rb


def test_pretrain_seed_changes_trajectory(caption_data, tmp_path):
    root, samples = caption_data
    pretrain(tiny_cfg(seed=5, epochs=1), samples, root, tmp_path / "a")
    pretrain(tiny_cfg(seed=6, epochs=1), samples, root, tmp_path / "b")
    ra = strip_wall(read_metrics(tmp_path / "a" / "metrics.jsonl"))
    rb = strip_wall(read_metrics(tmp_path / "b" / "metrics.jsonl"))
    assert ra != rb


def test_pretrain_resume_bitwise(caption_data, tmp_path):
    root, samples = caption_data
    full = pretrain(tiny_cfg(seed=7, epochs=4), samples, root, tmp_path / "full")
    half = pretrain(
        tiny_cfg(seed=7, epochs=4), samples, root, tmp_path / "half", stop_after_epoch=1
    )
    resumed = pretrain(
        tiny_cfg(seed=7, epochs=4), samples, root, tmp_path / "resumed", resume_from=half
    )
    a, b = load_checkpoint(full), load_checkpoint(resumed)
    assert a.step == b.step
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key]), key


ABLATIONS = {
    "no-itc": dict(enable_itc=False),
    "mlm-only": dict(enable_mim=False, enable_itm=False, enable_itc=False),
}


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_ablation_holds_saves_and_resumes_only_what_runs(caption_data, vqa_data, tmp_path, ablation):
    root, samples = caption_data
    off = ABLATIONS[ablation]
    full = pretrain(tiny_cfg(seed=7, epochs=3, **off), samples, root, tmp_path / "full")
    half = pretrain(tiny_cfg(seed=7, epochs=3, **off), samples, root, tmp_path / "half", stop_after_epoch=0)
    resumed = pretrain(tiny_cfg(seed=7, epochs=3, **off), samples, root, tmp_path / "half", resume_from=half)
    a, b = load_checkpoint(full), load_checkpoint(resumed)
    assert a.step == b.step == 6 and a.arrays.keys() == b.arrays.keys()
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key]), key
    logs = [strip_wall(read_metrics(tmp_path / run / "metrics.jsonl")) for run in ("full", "half")]
    assert logs[0] == logs[1]

    # no momentum copy, queue or tensor of an objective that does not run
    idle = tuple(p for key in off for p in model.OWNED[key.removeprefix("enable_")])
    assert a.meta["queue"] is None
    assert not [k for k in a.arrays if k.startswith(("mom/", "queue/")) or k.split("/", 1)[1].startswith(idle)]
    # the arrays of the same run with all four objectives, less the idle owners'
    everything = load_checkpoint(pretrain(tiny_cfg(seed=7, epochs=1), samples, root, tmp_path / "all"))
    kept = {k for k in everything.arrays if not k.startswith(("mom/", "queue/")) and not k.split("/", 1)[1].startswith(idle)}
    assert a.arrays.keys() == kept
    for r in logs[0]:
        assert "temp" not in r and "queue_fill" not in r
        assert all(r[key.removeprefix("enable_")] == 0.0 for key in off)

    # finetuning starts from the ablation's shared tensors
    vroot, vsamples = vqa_data
    ft = load_checkpoint(
        finetune(tiny_cfg(seed=7, epochs=1, phase="finetune"), vsamples, vroot, tmp_path / "ft", init_checkpoint=full)
    )
    assert ft.config.phase == "finetune" and ft.meta["queue"] is None
    assert all(math.isfinite(r["loss"]) for r in read_metrics(tmp_path / "ft" / "metrics.jsonl"))


def test_finetune_resume_bitwise(caption_data, vqa_data, tmp_path):
    croot, csamples = caption_data
    vroot, vsamples = vqa_data
    pre = pretrain(tiny_cfg(seed=8, epochs=1), csamples, croot, tmp_path / "pre")
    full = finetune(
        tiny_cfg(seed=8, epochs=4, phase="finetune"),
        vsamples, vroot, tmp_path / "full", init_checkpoint=pre,
    )
    half = finetune(
        tiny_cfg(seed=8, epochs=4, phase="finetune"),
        vsamples, vroot, tmp_path / "half", init_checkpoint=pre, stop_after_epoch=1,
    )
    resumed = finetune(
        tiny_cfg(seed=8, epochs=4, phase="finetune"),
        vsamples, vroot, tmp_path / "resumed", resume_from=half,
    )
    a, b = load_checkpoint(full), load_checkpoint(resumed)
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key]), key


def test_finetune_checkpoint_holds_only_finetune_tensors(caption_data, vqa_data, tmp_path):
    croot, csamples = caption_data
    vroot, vsamples = vqa_data
    pre = pretrain(tiny_cfg(seed=9, epochs=1), csamples, croot, tmp_path / "pre")
    ft = finetune(
        tiny_cfg(seed=9, epochs=1, phase="finetune"),
        vsamples, vroot, tmp_path / "ft", init_checkpoint=pre,
    )
    a, b = load_checkpoint(pre), load_checkpoint(ft)
    assert not [k for k in a.arrays if "/ans_" in k]
    pretrain_only = ("img_dec", "img_mask_tok", "mim.", "itc", "itm.", "mlm.")
    assert not [k for k in b.arrays if k.split("/", 1)[1].startswith(pretrain_only)]
    assert not [k for k in b.arrays if k.startswith(("mom/", "queue/"))]
    assert not np.array_equal(a.arrays["param/patch_embed.w"], b.arrays["param/patch_embed.w"])


def test_training_loops_reject_the_other_phase(caption_data, vqa_data, tmp_path):
    croot, csamples = caption_data
    vroot, vsamples = vqa_data
    with pytest.raises(ConfigError, match="finetune"):
        pretrain(tiny_cfg(phase="finetune"), csamples, croot, tmp_path / "pre")
    with pytest.raises(ConfigError, match="pretrain"):
        finetune(tiny_cfg(), vsamples, vroot, tmp_path / "ft")


def test_finetune_from_scratch_runs(vqa_data, tmp_path):
    vroot, vsamples = vqa_data
    path = finetune(
        tiny_cfg(seed=10, epochs=1, phase="finetune"), vsamples, vroot, tmp_path / "scratch"
    )
    recs = read_metrics(tmp_path / "scratch" / "metrics.jsonl")
    assert recs and all(math.isfinite(r["loss"]) for r in recs)
    assert load_checkpoint(path).config.phase == "finetune"


@pytest.mark.parametrize("bad", ["heads", "one sample", "queue", "epochs"])
def test_bad_input_fails_before_any_output(caption_data, tmp_path, bad):
    root, samples = caption_data
    cfg = tiny_cfg()
    overrides = {"heads": dict(heads=3), "queue": dict(queue_capacity=cfg.batch_size - 1), "epochs": dict(epochs=0)}
    if bad == "one sample":
        samples = samples[:1]
    with pytest.raises(ConfigError):
        pretrain(dataclasses.replace(cfg, **overrides.get(bad, {})), samples, root, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_fresh_runs_into_one_directory_log_once(caption_data, vqa_data, tmp_path):
    croot, csamples = caption_data
    vroot, vsamples = vqa_data
    for _ in range(2):
        pretrain(tiny_cfg(seed=3, epochs=1), csamples, croot, tmp_path / "pre")
        finetune(tiny_cfg(seed=3, epochs=1, phase="finetune"), vsamples, vroot, tmp_path / "ft")
    assert [r["step"] for r in read_metrics(tmp_path / "pre" / "metrics.jsonl")] == [1, 2]
    assert [r["step"] for r in read_metrics(tmp_path / "ft" / "metrics.jsonl")] == [1, 2]


def test_resume_rewinds_log_to_checkpoint(caption_data, tmp_path):
    # records past the checkpoint stand in for a crash mid-epoch
    root, samples = caption_data
    pretrain(tiny_cfg(seed=4, epochs=3), samples, root, tmp_path / "full")
    ckpt = pretrain(tiny_cfg(seed=4, epochs=3), samples, root, tmp_path / "run", stop_after_epoch=0)
    log = tmp_path / "run" / "metrics.jsonl"
    recs = read_metrics(log)
    with open(log, "a", encoding="utf-8") as f:
        for step in (3, 4):
            f.write(json.dumps({**recs[-1], "step": step, "total": -1.0}) + "\n")
        f.write('{"step": 5, "epo')
    pretrain(tiny_cfg(seed=4, epochs=3), samples, root, tmp_path / "run", resume_from=ckpt)
    full = strip_wall(read_metrics(tmp_path / "full" / "metrics.jsonl"))
    assert strip_wall(read_metrics(log)) == full
    assert [r["step"] for r in full] == [1, 2, 3, 4, 5, 6]


def test_resume_with_other_model_keys_raises_checkpoint_error(caption_data, tmp_path):
    root, samples = caption_data
    ckpt = pretrain(tiny_cfg(seed=4, epochs=2), samples, root, tmp_path / "run", stop_after_epoch=0)
    files = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    no_itc = tiny_cfg(seed=4, epochs=2, enable_itc=False)
    with pytest.raises(CheckpointError, match=r"other model keys: \['enable_itc'\]"):
        pretrain(no_itc, samples, root, tmp_path / "run", resume_from=ckpt)
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == files
    # restore_model itself takes the Adam moments of the tensors the model holds only
    loaded = load_checkpoint(ckpt)
    assert [k for k in loaded.arrays if k.startswith("adam_m/itc")]
    mp, adam, queue = restore_model(loaded, no_itc)
    assert queue is None and not mp.momentum
    assert adam.m.keys() == adam.v.keys() == mp.params.keys()


@pytest.mark.parametrize("line", ["not json", "[1, 2]", '{"step": "1"}', '{"epoch": 0}'])
def test_resume_from_a_malformed_log_raises_checkpoint_error(caption_data, tmp_path, line):
    root, samples = caption_data
    ckpt = pretrain(tiny_cfg(seed=4, epochs=3), samples, root, tmp_path / "run", stop_after_epoch=0)
    log = tmp_path / "run" / "metrics.jsonl"
    recs = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text(recs[0] + line + "\n" + recs[1], encoding="utf-8")
    before = log.read_bytes()
    with pytest.raises(CheckpointError, match=r"metrics\.jsonl line 2"):
        pretrain(tiny_cfg(seed=4, epochs=3), samples, root, tmp_path / "run", resume_from=ckpt)
    assert log.read_bytes() == before


def test_each_step_frees_the_previous_steps_tape(caption_data, vqa_data, tmp_path, monkeypatch):
    def watched(fn, pick):
        seen = []

        def wrapper(*args, **kwargs):
            assert not seen or seen[-1]() is None, "the previous step's tape is still alive"
            out = fn(*args, **kwargs)
            seen.append(weakref.ref(pick(out)))
            return out

        return wrapper, seen

    pre, pre_seen = watched(trainer.pretrain_losses, lambda out: out[0]["mlm"])
    # the loop may hold the scalar root until the next step; not the tape behind it
    ft, ft_seen = watched(trainer.vqa_forward_loss, lambda loss: loss._parents[0])
    monkeypatch.setattr(trainer, "pretrain_losses", pre)
    monkeypatch.setattr(trainer, "vqa_forward_loss", ft)
    croot, csamples = caption_data
    vroot, vsamples = vqa_data
    pretrain(tiny_cfg(seed=2, epochs=1), csamples, croot, tmp_path / "pre")
    finetune(tiny_cfg(seed=2, epochs=1, phase="finetune"), vsamples, vroot, tmp_path / "ft")
    assert len(pre_seen) == 2 and len(ft_seen) == 2


def test_backward_frees_the_tape_while_it_walks_it(tmp_path):
    # one desk finetune step at the bench's batch size: backward's traced
    # peak must stay near its entry, not hold the forward's tape to the end
    cfg = preset("desk", seed=3, phase="finetune", batch_size=16)
    samples = generate_vqa(cfg.batch_size, 3, tmp_path)
    mp = ModelParams(cfg.model_config(), np.random.default_rng(3))
    vocab = build_vocab([s.question for s in samples] + [s.answer for s in samples], cfg.vocab_size)
    images = [load_image(tmp_path / s.image, channels=cfg.channels) for s in samples]
    question_ids = np.stack([tokenize(s.question, vocab, cfg.max_text_len) for s in samples])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = trainer.vqa_forward_loss(mp, images, question_ids, [s.answer for s in samples], vocab)
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tape = entry - before
    assert tape > 10 * 2**20  # so that a tenth of it is a bound worth keeping
    assert peak - entry < 0.1 * tape, f"backward peaked {(peak - entry) / 2**20:.1f} MiB above its entry"


def test_training_loads_each_image_file_once(vqa_data, tmp_path, monkeypatch):
    root, samples = vqa_data
    loads = []

    def counting(path, channels=None):
        loads.append(path)
        return load_image(path, channels=channels)

    monkeypatch.setattr(trainer, "load_image", counting)
    finetune(tiny_cfg(seed=2, epochs=1, phase="finetune"), samples, root, tmp_path / "ft")
    files = [s.image for s in samples]
    assert len(set(files)) < len(files)  # some samples share a file
    assert loads == [os.path.join(root, f) for f in dict.fromkeys(files)]


def test_metrics_log_fields(caption_data, tmp_path):
    root, samples = caption_data
    pretrain(tiny_cfg(seed=1, epochs=1), samples, root, tmp_path / "run")
    recs = read_metrics(tmp_path / "run" / "metrics.jsonl")
    for r in recs:
        assert set(r) == {
            "step", "epoch", "lr", "mim", "mlm", "itm", "itc", "total", "temp", "queue_fill", "grad_norm", "wall_ms",
        }
    # both are read before the step: the first step runs at the initial
    # temperature against an empty queue
    assert recs[0]["temp"] == pytest.approx(0.07) and recs[0]["queue_fill"] == 0
    fills = [r["queue_fill"] for r in recs]
    assert fills == sorted(fills) and fills[-1] > 0
    # without ITC there is no temperature or queue, and its loss logs 0.0
    pretrain(tiny_cfg(seed=1, epochs=1, enable_itc=False), samples, root, tmp_path / "no-itc")
    for r in read_metrics(tmp_path / "no-itc" / "metrics.jsonl"):
        assert set(r) == {"step", "epoch", "lr", "mim", "mlm", "itm", "itc", "total", "grad_norm", "wall_ms"}
        assert r["itc"] == 0.0 and r["total"] == r["mim"] + r["mlm"] + r["itm"]


def test_grad_norm_is_logged_before_clipping(caption_data, vqa_data, tmp_path, monkeypatch):
    norms = []

    def clip(mp, max_norm):
        norms.append(clip_global_norm(mp, max_norm))
        return norms[-1]

    monkeypatch.setattr(trainer, "clip_global_norm", clip)
    croot, csamples = caption_data
    vroot, vsamples = vqa_data
    pretrain(tiny_cfg(seed=2, epochs=1, grad_clip=1e-3), csamples, croot, tmp_path / "pre")
    finetune(tiny_cfg(seed=2, epochs=1, phase="finetune", grad_clip=1e-3), vsamples, vroot, tmp_path / "ft")
    logged = [r["grad_norm"] for run in ("pre", "ft") for r in read_metrics(tmp_path / run / "metrics.jsonl")]
    assert logged == norms and all(n > 1e-3 for n in norms)


def _two_pass_mlm_itm(mp, cfg, batch, rng):
    """MLM and ITM as computed before the fusion passes were merged: the true
    pairs and the mismatched pairs each through their own fuse call."""
    b = batch.visible.shape[0]
    img_feats = model.encode_image(mp, batch.visible, batch.positions)
    txt_feats = model.encode_text(mp, batch.ids)
    fused = model.fuse(mp, txt_feats, img_feats, batch.ids)
    mlm = mlm_loss(model.mlm_logits(mp, fused, batch.mlm_batch_idx, batch.mlm_positions), batch.mlm_labels)
    sims = None
    if cfg.negative_strategy == "hard":
        img_proj = model.project_itc(mp, img_feats[:, 0, :], "img")
        txt_proj = model.project_itc(mp, txt_feats[:, 0, :], "txt")
        sims = img_proj.data @ txt_proj.data.T
    j = pair_negatives(b, rng, cfg.negative_strategy, sims)
    fused_neg = model.fuse(mp, txt_feats[j], img_feats, batch.ids[j])
    joint = concat([fused[:, 0, :], fused_neg[:, 0, :]], axis=0)
    labels = np.concatenate([np.ones(b, dtype=np.int64), np.zeros(b, dtype=np.int64)])
    return mlm, itm_loss(model.itm_logits(mp, joint), labels)


@pytest.mark.parametrize("strategy", ["uniform", "hard"])
def test_one_fusion_pass_matches_two(caption_data, tmp_path, monkeypatch, strategy):
    root, samples = caption_data
    cfg = tiny_cfg(seed=3, negative_strategy=strategy)
    mp = tiny_params(cfg, seed=3)
    vocab = build_vocab([s.caption for s in samples], cfg.vocab_size)
    images = [load_image(os.path.join(root, s.image), channels=cfg.channels) for s in samples[:4]]
    token_ids = [tokenize(s.caption, vocab, cfg.max_text_len) for s in samples[:4]]
    batch = trainer.make_pretrain_batch(images, token_ids, cfg, vocab, np.random.default_rng(1))
    queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)

    ref_rng = np.random.default_rng(2)
    ref_mlm, ref_itm = _two_pass_mlm_itm(mp, cfg, batch, ref_rng)
    (ref_mlm + ref_itm).backward()
    ref_grads = {n: p.grad for n, p in mp.params.items()}

    calls = []

    def counted_fuse(*args, **kwargs):
        calls.append(args[1].shape[0])
        return model.fuse(*args, **kwargs)

    monkeypatch.setattr(trainer, "fuse", counted_fuse)
    mp.zero_grads()
    rng = np.random.default_rng(2)
    parts, _ = trainer.pretrain_losses(mp, cfg, batch, queue, rng)
    assert calls == [8]  # one pass over the 4 true and 4 mismatched pairs
    assert rng.random() == ref_rng.random()  # the same draws were taken
    np.testing.assert_allclose(parts["mlm"].data, ref_mlm.data, rtol=1e-12)
    np.testing.assert_allclose(parts["itm"].data, ref_itm.data, rtol=1e-12)
    (parts["mlm"] + parts["itm"]).backward()
    for name, p in mp.params.items():
        if ref_grads[name] is None:
            assert p.grad is None, name
        else:
            np.testing.assert_allclose(p.grad, ref_grads[name], rtol=1e-9, atol=1e-14, err_msg=name)

    # a whole run fuses once per step
    calls.clear()
    pretrain(cfg, samples, root, tmp_path / "run")
    assert len(calls) == len(read_metrics(tmp_path / "run" / "metrics.jsonl"))


# ---- text and fusion at the batch width ---------------------------------


def _all_columns(ids):
    """model.text_width for a reference run: text and fusion on all
    max_text_len columns, as before the cut."""
    return ids.shape[1]


def _recording(fn, widths):
    """fn, recording its name and the width of the features it returns."""

    def wrapped(mp, *args, **kwargs):
        out = fn(mp, *args, **kwargs)
        widths.append((fn.__name__, out.shape[1], kwargs.get("use_momentum", False)))
        return out

    return wrapped


def test_vqa_forward_loss_runs_text_and_fusion_at_the_batch_width(vqa_data, monkeypatch):
    root, samples = vqa_data
    cfg = tiny_cfg(seed=4, phase="finetune")
    mp = tiny_params(cfg, seed=4)
    vocab = build_vocab([s.question for s in samples] + [s.answer for s in samples], cfg.vocab_size)
    images = [load_image(os.path.join(root, s.image), channels=cfg.channels) for s in samples]
    question_ids = np.stack([tokenize(s.question, vocab, cfg.max_text_len) for s in samples])
    answers = [s.answer for s in samples]
    lengths = (question_ids != PAD).sum(axis=1)
    width = lengths.max()
    assert width < cfg.max_text_len and lengths.min() < width

    with monkeypatch.context() as full_width:
        full_width.setattr(model, "text_width", _all_columns)
        ref = trainer.vqa_forward_loss(mp, images, question_ids, answers, vocab)
        ref.backward()
    ref_grads = {n: p.grad for n, p in mp.params.items()}
    mp.zero_grads()

    widths = []
    monkeypatch.setattr(trainer, "encode_text", _recording(model.encode_text, widths))
    monkeypatch.setattr(trainer, "fuse", _recording(model.fuse, widths))
    loss = trainer.vqa_forward_loss(mp, images, question_ids, answers, vocab)
    assert widths == [("encode_text", width, False), ("fuse", width, False)]
    # the loss keeps every bit; attention scores fewer keys and a weight
    # gradient sums over fewer rows, so gradients may move in the last bits
    assert loss.data.tobytes() == ref.data.tobytes()
    loss.backward()
    assert mp.params.keys() == ref_grads.keys()
    for name, p in mp.params.items():
        assert (p.grad is None) == (ref_grads[name] is None), name
        if p.grad is not None:
            np.testing.assert_allclose(p.grad, ref_grads[name], rtol=1e-9, err_msg=name)


def test_momentum_text_encoder_runs_at_the_batch_width(caption_data, monkeypatch):
    root, samples = caption_data
    cfg = tiny_cfg(seed=6)
    mp = tiny_params(cfg, seed=6)
    vocab = build_vocab([s.caption for s in samples], cfg.vocab_size)
    images = [load_image(os.path.join(root, s.image), channels=cfg.channels) for s in samples[:4]]
    token_ids = [tokenize(s.caption, vocab, cfg.max_text_len) for s in samples[:4]]
    batch = trainer.make_pretrain_batch(images, token_ids, cfg, vocab, np.random.default_rng(1))
    width = (batch.ids != PAD).sum(axis=1).max()
    assert width < cfg.max_text_len

    widths = []
    monkeypatch.setattr(trainer, "encode_text", _recording(model.encode_text, widths))
    queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
    _, (img_proj_m, txt_proj_m) = trainer.pretrain_losses(mp, cfg, batch, queue, np.random.default_rng(2))
    # the online and the momentum encoder both run on the columns up to the
    # longest caption; ITC reads only the momentum encoder's CLS row
    assert widths == [("encode_text", width, False), ("encode_text", width, True)]
    with monkeypatch.context() as full_width:
        full_width.setattr(model, "text_width", _all_columns)
        full = model.encode_text(mp, batch.ids, use_momentum=True)
    assert full.shape[1] == cfg.max_text_len
    expected = model.project_itc(mp, full[:, 0, :], "txt", use_momentum=True).data
    assert txt_proj_m.tobytes() == expected.tobytes()


def test_pretrain_losses_run_text_and_fusion_at_the_batch_width(caption_data, monkeypatch):
    root, samples = caption_data
    cfg = tiny_cfg(seed=7)
    mp = tiny_params(cfg, seed=7)
    vocab = build_vocab([s.caption for s in samples], cfg.vocab_size)
    images = [load_image(os.path.join(root, s.image), channels=cfg.channels) for s in samples]
    token_ids = [tokenize(s.caption, vocab, cfg.max_text_len) for s in samples]
    batch = trainer.make_pretrain_batch(images, token_ids, cfg, vocab, np.random.default_rng(1))
    lengths = (batch.ids != PAD).sum(axis=1)
    width = lengths.max()
    assert width < cfg.max_text_len and lengths.min() < width
    queued = np.random.default_rng(3).normal(size=(2, 3, cfg.proj_dim))
    queued /= np.linalg.norm(queued, axis=-1, keepdims=True)

    def losses():
        mp.zero_grads()
        queue = FeatureQueue(cfg.queue_capacity, cfg.proj_dim)
        enqueue(queue, *queued)
        parts, mom_projs = trainer.pretrain_losses(mp, cfg, batch, queue, np.random.default_rng(2))
        combined_loss(parts).backward()
        return parts, mom_projs, {n: p.grad for n, p in mp.params.items()}

    # the reference runs every encoder on all max_text_len columns
    with monkeypatch.context() as full_width:
        full_width.setattr(model, "text_width", _all_columns)
        ref_parts, ref_projs, ref_grads = losses()

    widths = []
    monkeypatch.setattr(trainer, "encode_text", _recording(model.encode_text, widths))
    monkeypatch.setattr(trainer, "fuse", _recording(model.fuse, widths))
    parts, projs, grads = losses()
    assert widths == [("encode_text", width, False), ("fuse", width, False), ("encode_text", width, True)]
    # the losses keep every bit: MLM reads caption positions, and ITM and
    # ITC read CLS rows. Attention scores fewer keys, so the momentum
    # projections ITC enqueues move in the last bits, and a weight gradient
    # also sums over fewer rows
    assert parts.keys() == ref_parts.keys() == set(trainer.OBJECTIVES)
    for name in parts:
        assert parts[name].data.tobytes() == ref_parts[name].data.tobytes(), name
    for proj, ref in zip(projs, ref_projs):
        assert np.abs(proj - ref).max() <= 1e-12 * np.abs(ref).max()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert (g is None) == (ref_grads[name] is None), name
        if g is not None:
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-9, err_msg=name)


# ---- each distinct input encoded once ------------------------------------

# the tensors of the image and text encoders, which the gather's summed row
# gradients reach; every other tensor's gradient keeps its bits
ENCODER_TENSORS = ("img_enc.", "txt_enc.", "patch_embed", "img_cls", "img_pos", "tok_embed", "txt_pos")


def _every_row(items, key=None):
    """model.distinct for a per-row reference: every item its own input."""
    return list(items), np.arange(len(items))


def _vqa_batch(root, samples, cfg, vocab, share_images=True):
    """A finetune batch as _train assembles it: with share_images, one Image
    per file; else one per sample."""
    paths = [os.path.join(root, s.image) for s in samples]
    if share_images:
        loaded = {p: load_image(p, channels=cfg.channels) for p in dict.fromkeys(paths)}
        images = [loaded[p] for p in paths]
    else:
        images = [load_image(p, channels=cfg.channels) for p in paths]
    question_ids = np.stack([tokenize(s.question, vocab, cfg.max_text_len) for s in samples])
    return images, question_ids, [s.answer for s in samples]


def _vqa_loss_and_grads(mp, batch, vocab):
    mp.zero_grads()
    loss = trainer.vqa_forward_loss(mp, *batch, vocab)
    loss.backward()
    return loss, {n: p.grad for n, p in mp.params.items()}


def test_vqa_forward_loss_encodes_each_distinct_image_and_question_once(vqa_data, monkeypatch):
    root, samples = vqa_data
    cfg = tiny_cfg(seed=5, phase="finetune")
    mp = tiny_params(cfg, seed=5)
    vocab = build_vocab([s.question for s in samples] + [s.answer for s in samples], cfg.vocab_size)
    images, question_ids, answers = _vqa_batch(root, samples, cfg, vocab)
    n_imgs, n_qs = len({id(img) for img in images}), len({q.tobytes() for q in question_ids})
    assert n_imgs < len(samples) and n_qs < len(samples)

    seen_imgs, seen_ids = [], []
    encode_full_images, encode_text = trainer.encode_full_images, trainer.encode_text

    def recording_images(mp, imgs):
        seen_imgs.append([id(img) for img in imgs])
        return encode_full_images(mp, imgs)

    def recording_text(mp, ids, use_momentum=False):
        seen_ids.append([row.tobytes() for row in ids])
        return encode_text(mp, ids, use_momentum=use_momentum)

    monkeypatch.setattr(trainer, "encode_full_images", recording_images)
    monkeypatch.setattr(trainer, "encode_text", recording_text)
    trainer.vqa_forward_loss(mp, images, question_ids, answers, vocab).backward()
    # one call per encoder, each distinct input once, in first-seen order
    assert seen_imgs == [list(dict.fromkeys(id(img) for img in images))] and len(seen_imgs[0]) == n_imgs
    assert seen_ids == [list(dict.fromkeys(q.tobytes() for q in question_ids))] and len(seen_ids[0]) == n_qs


def test_vqa_forward_loss_with_repeats_moves_only_encoder_gradients(vqa_data, monkeypatch):
    root, samples = vqa_data
    cfg = tiny_cfg(seed=6, phase="finetune")
    mp = tiny_params(cfg, seed=6)
    vocab = build_vocab([s.question for s in samples] + [s.answer for s in samples], cfg.vocab_size)
    batch = _vqa_batch(root, samples, cfg, vocab)
    with monkeypatch.context() as per_row:
        per_row.setattr(trainer, "distinct", _every_row)
        ref, ref_grads = _vqa_loss_and_grads(mp, batch, vocab)
    loss, grads = _vqa_loss_and_grads(mp, batch, vocab)
    assert loss.data.tobytes() == ref.data.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g is not None and ref_grads[name] is not None, name
        if not name.startswith(ENCODER_TENSORS):
            assert g.tobytes() == ref_grads[name].tobytes(), name
        else:
            # a repeated input's row gradients are summed before its encoder's
            # backward, so the weight gradient's sum is regrouped
            assert np.abs(g - ref_grads[name]).max() <= 1e-12 * np.abs(ref_grads[name]).max(), name


def test_vqa_forward_loss_without_repeats_keeps_every_gradient_bit(vqa_data, monkeypatch):
    root, samples = vqa_data
    cfg = tiny_cfg(seed=6, phase="finetune")
    mp = tiny_params(cfg, seed=6)
    vocab = build_vocab([s.question for s in samples] + [s.answer for s in samples], cfg.vocab_size)
    # one Image per sample, and questions that all differ
    batch = _vqa_batch(root, samples[:6], cfg, vocab, share_images=False)
    assert len({q.tobytes() for q in batch[1]}) == len(batch[1])
    with monkeypatch.context() as per_row:
        per_row.setattr(trainer, "distinct", _every_row)
        ref, ref_grads = _vqa_loss_and_grads(mp, batch, vocab)
    loss, grads = _vqa_loss_and_grads(mp, batch, vocab)
    assert loss.data.tobytes() == ref.data.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name


def test_vqa_forward_loss_gradient_through_repeated_inputs_matches_finite_differences():
    # the gradient gate's answer-loss configuration, on three rows that share
    # an image and a question
    cfg = preset("test", vocab_size=32, max_text_len=8, max_answer_len=4, image_size=8, patch_size=4, batch_size=3, phase="finetune")
    mp = tiny_params(cfg, seed=0)
    rng = np.random.default_rng(8)
    texts, answers = ["a dot", "one bar", "a dot"], ["yes", "a bar", "no"]
    vocab = build_vocab(texts + answers, cfg.vocab_size)
    shared = Image(rng.random((cfg.image_size, cfg.image_size, cfg.channels)))
    images = [shared, shared, Image(rng.random((cfg.image_size, cfg.image_size, cfg.channels)))]
    ids = np.stack([tokenize(t, vocab, cfg.max_text_len) for t in texts])
    # the encoders' tensors, which the gather's summed row gradients reach
    probes = ["patch_embed.w", "img_cls", "img_pos", "img_enc.0.mlp.w1", "tok_embed", "txt_pos", "txt_enc.0.mlp.w1"]
    err = probe_param_errs(mp, lambda: trainer.vqa_forward_loss(mp, images, ids, answers, vocab), probes, rng)
    assert err < E2E_TOL
