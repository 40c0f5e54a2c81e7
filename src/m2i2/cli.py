"""Command-line entry points: synth | pretrain | finetune | eval | attn | gradcheck.

Configuration is a flat JSON file (see config.TrainConfig); --set key=value
overrides take precedence, and unknown keys are hard errors. M2I2_SEED in
the environment overrides the config seed, and the subcommand sets the phase.
Training writes the resolved config as config.json beside its outputs; eval
and attn take their config from a finetune checkpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import PRESETS, TrainConfig, preset
from .errors import ConfigError
from . import gradcheck as gradcheck_mod
from .evaluation import attention_map, evaluate, write_heatmap, write_report
from .synth import generate_captions, generate_vqa, load_captions, load_vqa
from .trainer import finetune, load_checkpoint, pretrain, restore_model
from .vision import load_image


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def resolve_config(args) -> TrainConfig:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                loaded = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, got {type(loaded).__name__}")
        overrides.update(loaded)
    for kv in args.set or []:
        if "=" not in kv:
            raise ConfigError(f"override must be key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        overrides[k] = _parse_value(v)
    for flag, key in (
        ("no_mim", "enable_mim"),
        ("no_mlm", "enable_mlm"),
        ("no_itm", "enable_itm"),
        ("no_itc", "enable_itc"),
    ):
        if getattr(args, flag, False):
            overrides[key] = False
    if "M2I2_SEED" in os.environ:
        overrides["seed"] = _parse_value(os.environ["M2I2_SEED"])
    overrides["phase"] = args.command
    return preset(args.preset or "desk", **overrides)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named preset base")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="m2i2")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=("captions", "vqa"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    _add_common(p)
    p.add_argument("--data", required=True, help="caption dataset directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    for name in ("mim", "mlm", "itm", "itc"):
        p.add_argument(f"--no-{name}", dest=f"no_{name}", action="store_true")

    p = sub.add_parser("finetune", help="finetune for generative VQA")
    _add_common(p)
    p.add_argument("--data", required=True, help="VQA dataset directory")
    init = p.add_mutually_exclusive_group()
    init.add_argument("--init", help="pretrain checkpoint to initialize from")
    init.add_argument("--from-scratch", action="store_true", help="ablation: random init")
    p.add_argument("--resume", help="checkpoint to resume from")

    p = sub.add_parser("eval", help="accuracy report on a VQA dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="finetune checkpoint")
    p.add_argument("--filter", choices=("all", "free"), default="all")

    p = sub.add_parser("attn", help="export cross-attention heatmaps")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="finetune checkpoint")
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--no-grad-weighting", action="store_true")
    p.add_argument("--limit", type=int, default=8)

    sub.add_parser("gradcheck", help="run the finite-difference suite")

    return ap


def run(args) -> int:
    if args.command == "synth":
        os.makedirs(args.out, exist_ok=True)
        if args.kind == "captions":
            n = len(generate_captions(args.n, args.seed, args.out, args.image_size))
        else:
            n = len(generate_vqa(args.n, args.seed, args.out, args.image_size))
        print(f"wrote {n} {args.kind} samples to {args.out}")
        return 0

    if args.command == "gradcheck":
        failures = gradcheck_mod.run_all()
        for name, err, tol, ok in failures:
            print(f"{'PASS' if ok else 'FAIL'} {name}: rel err {err:.2e} (tol {tol:.0e})")
        bad = [f for f in failures if not f[3]]
        return 1 if bad else 0

    if args.command == "pretrain":
        cfg = resolve_config(args)
        path = pretrain(cfg, load_captions(args.data), args.data, args.out, resume_from=args.resume)
        print(f"checkpoint: {path}")
        return 0

    if args.command == "finetune":
        cfg = resolve_config(args)
        path = finetune(
            cfg, load_vqa(args.data), args.data, args.out,
            init_checkpoint=args.init, resume_from=args.resume,
        )
        print(f"checkpoint: {path}")
        return 0

    ckpt = load_checkpoint(args.checkpoint)
    run_cfg = ckpt.config
    if run_cfg.phase != "finetune":
        raise ConfigError(
            f"{args.command} needs a finetune checkpoint; {args.checkpoint} is from phase {run_cfg.phase!r}"
        )
    os.makedirs(args.out, exist_ok=True)
    mp, _, _ = restore_model(ckpt, run_cfg)
    vocab = ckpt.vocab
    samples = load_vqa(args.data)

    if args.command == "eval":
        report = evaluate(mp, run_cfg, samples, args.data, vocab, answer_type_filter=args.filter)
        write_report(report, args.out)
        print(report.table(), end="")
        return 0

    if args.command == "attn":
        seen: set[str] = set()
        count = 0
        for s in samples:
            if s.image in seen or count >= args.limit:
                continue
            seen.add(s.image)
            img = load_image(os.path.join(args.data, s.image), channels=run_cfg.channels)
            heat = attention_map(
                mp, run_cfg, img, s.question, vocab,
                layer=args.layer, grad_weighted=not args.no_grad_weighting,
            )
            sample_id = os.path.splitext(os.path.basename(s.image))[0]
            write_heatmap(os.path.join(args.out, f"{sample_id}.attn.pgm"), heat)
            count += 1
        print(f"wrote {count} heatmaps to {args.out}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
