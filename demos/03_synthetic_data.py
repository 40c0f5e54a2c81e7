"""Generate the synthetic caption and VQA corpora and inspect a few samples."""

import tempfile

from m2i2.synth import generate_captions, generate_vqa

with tempfile.TemporaryDirectory(prefix="m2i2_demo_") as root:
    caps = generate_captions(6, seed=0, out_dir=f"{root}/caps")
    vqa = generate_vqa(12, seed=0, out_dir=f"{root}/vqa")

    print(f"wrote {len(caps)} caption pairs and {len(vqa)} QA pairs under {root}\n")
    for s in caps[:3]:
        print(f"  {s.image}: {s.caption!r}")
    print()
    for s in vqa[:6]:
        print(f"  [{s.answer_type:6s}/{s.question_form}] {s.question!r} -> {s.answer!r}")
