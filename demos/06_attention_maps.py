"""Export gradient-weighted cross-attention heatmaps for a trained model."""

import tempfile

from m2i2 import finetune, load_checkpoint, preset, restore_model
from m2i2.evaluation import attention_map, write_heatmap
from m2i2.synth import generate_vqa
from m2i2.vision import load_image

with tempfile.TemporaryDirectory(prefix="m2i2_demo_") as root:
    vqa = generate_vqa(6, seed=3, out_dir=f"{root}/vqa", image_size=32)

    ft = finetune(
        preset("test", seed=3, epochs=5, phase="finetune"), vqa, f"{root}/vqa", f"{root}/ft"
    )
    ckpt = load_checkpoint(ft)
    mp, _, _ = restore_model(ckpt, ckpt.config)

    sample = vqa[0]
    img = load_image(f"{root}/vqa/{sample.image}", channels=1)
    heat = attention_map(mp, ckpt.config, img, sample.question, ckpt.vocab)
    print(f"question: {sample.question!r}")
    print(f"heatmap over the patch grid {heat.shape}:")
    for row in heat:
        print("  " + " ".join(f"{v:.2f}" for v in row))
    out = f"{root}/heatmap.pgm"
    write_heatmap(out, heat)
    print(f"wrote {out}")
