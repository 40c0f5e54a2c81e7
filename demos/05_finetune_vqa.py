"""Pretrain, finetune on synthetic VQA, then generate and score answers."""

import tempfile

from m2i2 import evaluate, preset, pretrain, finetune, load_checkpoint, restore_model
from m2i2.synth import generate_captions, generate_vqa, load_vqa

with tempfile.TemporaryDirectory(prefix="m2i2_demo_") as root:
    caps = generate_captions(8, seed=2, out_dir=f"{root}/caps", image_size=32)
    vqa = generate_vqa(12, seed=2, out_dir=f"{root}/vqa", image_size=32)

    pre = pretrain(preset("test", seed=2, epochs=3), caps, f"{root}/caps", f"{root}/pre")
    ft = finetune(
        preset("test", seed=2, epochs=10, phase="finetune"),
        vqa, f"{root}/vqa", f"{root}/ft", init_checkpoint=pre,
    )

    ckpt = load_checkpoint(ft)
    mp, _, _ = restore_model(ckpt, ckpt.config)
    report = evaluate(mp, ckpt.config, load_vqa(f"{root}/vqa"), f"{root}/vqa", ckpt.vocab)
    print(report.table())
    for p in report.predictions[:6]:
        mark = "+" if p["correct"] else "-"
        print(f" {mark} {p['question']!r}: predicted {p['prediction']!r}, gold {p['gold']!r}")
