"""Pretrain on a handful of caption pairs and watch the losses fall.

Runs the full four-objective loop at the smallest preset; finishes in well
under a minute on a laptop CPU.
"""

import json
import tempfile

from m2i2 import preset, pretrain
from m2i2.synth import generate_captions

with tempfile.TemporaryDirectory(prefix="m2i2_demo_") as root:
    samples = generate_captions(8, seed=1, out_dir=f"{root}/caps", image_size=32)

    cfg = preset("test", seed=1, epochs=10)
    ckpt = pretrain(cfg, samples, f"{root}/caps", f"{root}/run")
    print(f"checkpoint: {ckpt}\n")

    records = [json.loads(l) for l in open(f"{root}/run/metrics.jsonl")]
    print("step  total    mim     mlm     itm     itc")
    for r in records[:: max(1, len(records) // 8)]:
        print(f"{r['step']:4d}  {r['total']:6.3f}  {r['mim']:6.4f}  {r['mlm']:6.3f} "
              f" {r['itm']:6.4f}  {r['itc']:6.3f}")
