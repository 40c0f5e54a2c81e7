"""Criterion 4's margin: does the finetuning memorization run still pass when
the pretrain checkpoint it starts from moves in its last bits?

Builds criterion 3's pretrain checkpoint once (the desk preset at the gate's
seed, overrides and epochs, on the 32 captions of its fixture), then runs one
chain per index c. Chain c scales each parameter of that checkpoint, in
sorted-name order, by 1 + 1e-13 * N(0, 1) drawn from default_rng(c); chain 0
is unperturbed. Each chain runs criterion 4's finetune (the desk preset at
its seed, overrides and epochs, on the 16 QA pairs of its fixture) from that
checkpoint, evaluates it as the gate does (pass: acc >= 0.95), and prints one
JSON line: chain, acc, passed, final_loss, finetune_s. A last line counts the
chains that passed: {"passed": k, "chains": n}.

It takes minutes, so it is not part of the test suite. The BLAS thread count
is the environment's; set it before the run:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/margin.py --chains 9
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from m2i2 import evaluate, finetune, load_checkpoint, preset, pretrain, restore_model
from m2i2.synth import generate_captions, generate_vqa
from m2i2.trainer import save_checkpoint

# the gate's configuration, read from the gate itself
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
import test_acceptance as gate  # noqa: E402

PERTURB = 1e-13
PASS_ACC = 0.95  # criterion 4's gate: greedy exact-match on the 16 QA pairs


def perturbed(ckpt_path: str, chain: int, out_path: str) -> None:
    """Save the checkpoint at ckpt_path with every parameter scaled by
    1 + PERTURB * N(0, 1) from default_rng(chain), in sorted-name order."""
    ckpt = load_checkpoint(ckpt_path)
    mp, adam, queue = restore_model(ckpt, ckpt.config)
    rng = np.random.default_rng(chain)
    for name in sorted(mp.params):
        p = mp.params[name]
        p.data = p.data * (1.0 + PERTURB * rng.standard_normal(p.data.shape))
    save_checkpoint(out_path, ckpt.config, mp, adam, queue, ckpt.vocab, ckpt.step, ckpt.meta["epoch"])


def run_chain(pre_ckpt: str, chain: int, vroot: str, vsamples: list, work: str) -> dict:
    start = pre_ckpt
    if chain:
        start = os.path.join(work, f"pretrain_chain{chain}.bin")
        perturbed(pre_ckpt, chain, start)
    out = os.path.join(work, f"finetune_chain{chain}")
    cfg = preset("desk", seed=7, epochs=gate.MEMO_EPOCHS, phase="finetune", **gate.MEMO_OVERRIDES)
    t0 = time.perf_counter()
    ft_ckpt = finetune(cfg, vsamples, vroot, out, init_checkpoint=start)
    finetune_s = time.perf_counter() - t0
    ck = load_checkpoint(ft_ckpt)
    mp, _, _ = restore_model(ck, ck.config)
    acc = evaluate(mp, ck.config, vsamples, vroot, ck.vocab).overall_acc
    with open(os.path.join(out, "metrics.jsonl"), encoding="utf-8") as f:
        final_loss = json.loads(f.readlines()[-1])["loss"]
    return {"chain": chain, "acc": acc, "passed": acc >= PASS_ACC, "final_loss": final_loss, "finetune_s": round(finetune_s, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chains", type=int, default=9, help="chains 0..N-1 (default 9)")
    ap.add_argument("--work", help="directory for the data and checkpoints (default: a temporary one, removed after)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="m2i2_margin_") as tmp:
        work = args.work or tmp
        croot, vroot = os.path.join(work, "caps32"), os.path.join(work, "vqa16")
        captions = generate_captions(32, 7, croot)
        vsamples = generate_vqa(16, 7, vroot)
        cfg = preset("desk", seed=gate.OVERFIT_SEED, epochs=gate.OVERFIT_EPOCHS, **gate.OVERFIT_OVERRIDES)
        pre_ckpt = pretrain(cfg, captions, croot, os.path.join(work, "overfit"))
        passed = 0
        for chain in range(args.chains):
            result = run_chain(pre_ckpt, chain, vroot, vsamples, work)
            passed += result["passed"]
            print(json.dumps(result), flush=True)
    print(json.dumps({"passed": passed, "chains": args.chains}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
