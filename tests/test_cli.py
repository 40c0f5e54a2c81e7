import json
import os

import pytest

from m2i2.cli import build_parser, main, resolve_config
from m2i2.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


# ---- config resolution ---------------------------------------------------


def parse(*argv):
    return build_parser().parse_args(list(argv))


def test_resolve_defaults():
    args = parse("pretrain", "--data", "d", "--out", "o")
    cfg = resolve_config(args)
    assert cfg.phase == "pretrain" and cfg.dim == 64


def test_resolve_preset_and_set():
    args = parse(
        "pretrain", "--data", "d", "--out", "o",
        "--preset", "test", "--set", "seed=9", "--set", "lr_init=0.01",
    )
    cfg = resolve_config(args)
    assert cfg.dim == 16 and cfg.seed == 9 and cfg.lr_init == 0.01


def test_resolve_unknown_key_rejected():
    args = parse("pretrain", "--data", "d", "--out", "o", "--set", "bogus=1")
    with pytest.raises(ConfigError):
        resolve_config(args)


def test_resolve_ablation_flags():
    args = parse("pretrain", "--data", "d", "--out", "o", "--no-mim", "--no-itc")
    cfg = resolve_config(args)
    assert not cfg.enable_mim and not cfg.enable_itc
    assert cfg.enable_mlm and cfg.enable_itm


def test_resolve_env_seed(monkeypatch):
    monkeypatch.setenv("M2I2_SEED", "123")
    args = parse("pretrain", "--data", "d", "--out", "o", "--set", "seed=7")
    assert resolve_config(args).seed == 123


def test_resolve_config_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": 4, "dim": 32}))
    args = parse("pretrain", "--data", "d", "--out", "o", "--config", str(p))
    cfg = resolve_config(args)
    assert cfg.seed == 4 and cfg.dim == 32


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "must hold a JSON object"), ('{"seed": 4, "dim"', "is not valid JSON")],
    ids=["not_an_object", "truncated"],
)
def test_resolve_malformed_config_file(tmp_path, text, message):
    p = tmp_path / "c.json"
    p.write_text(text)
    args = parse("pretrain", "--data", "d", "--out", "o", "--config", str(p))
    with pytest.raises(ConfigError, match=message) as info:
        resolve_config(args)
    assert str(p) in str(info.value)


@pytest.mark.parametrize("override", ["dim=abc", "batch_size=1.5", "enable_mim=1", "lr_init=true"])
def test_resolve_mistyped_set_names_the_key(override):
    args = parse("pretrain", "--data", "d", "--out", "o", "--set", override)
    key = override.split("=")[0]
    with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
        resolve_config(args)


def test_resolve_int_for_float_key():
    args = parse("pretrain", "--data", "d", "--out", "o", "--set", "lr_init=1", "--set", "lr_final=0")
    cfg = resolve_config(args)
    assert (cfg.lr_init, cfg.lr_final) == (1, 0)


def test_resolve_malformed_env_seed(monkeypatch):
    monkeypatch.setenv("M2I2_SEED", "abc")
    args = parse("pretrain", "--data", "d", "--out", "o")
    with pytest.raises(ConfigError, match="'seed'"):
        resolve_config(args)


# ---- subcommands end to end ----------------------------------------------


def test_gradcheck_command_passes(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_gradcheck_takes_no_output_directory(capsys):
    # it writes nothing, so an --out would change nothing
    with pytest.raises(SystemExit):
        parse("gradcheck", "--out", "somewhere")


def test_synth_command(tmp_path):
    out = tmp_path / "caps"
    assert run_cli("synth", "--kind", "captions", "--n", "5", "--out", str(out)) == 0
    assert (out / "captions.jsonl").exists()
    assert len(list((out / "images").iterdir())) == 5


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("synth", "--kind", "vqa", "--n", "6", "--seed", "3", "--out", str(a))
    run_cli("synth", "--kind", "vqa", "--n", "6", "--seed", "3", "--out", str(b))
    assert (a / "vqa.jsonl").read_text() == (b / "vqa.jsonl").read_text()


def test_error_path_returns_nonzero(tmp_path, capsys):
    rc = run_cli(
        "pretrain", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o")
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_all_objectives_disabled_rejected(tmp_path, capsys):
    rc = run_cli(
        "pretrain", "--data", "d", "--out", str(tmp_path / "o"),
        "--no-mim", "--no-mlm", "--no-itm", "--no-itc",
    )
    assert rc == 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth -> pretrain -> finetune chain shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    caps, vqa = root / "caps", root / "vqa"
    assert run_cli("synth", "--kind", "captions", "--n", "6", "--out", str(caps)) == 0
    assert run_cli("synth", "--kind", "vqa", "--n", "6", "--out", str(vqa)) == 0
    pre = root / "pre"
    assert run_cli(
        "pretrain", "--preset", "test", "--set", "epochs=1", "--set", "image_size=64",
        "--data", str(caps), "--out", str(pre),
    ) == 0
    ft = root / "ft"
    assert run_cli(
        "finetune", "--preset", "test", "--set", "epochs=1", "--set", "image_size=64",
        "--data", str(vqa), "--init", str(pre / "checkpoint.bin"), "--out", str(ft),
    ) == 0
    return root, caps, vqa, pre, ft


def test_pipeline_writes_resolved_config(pipeline):
    root, caps, vqa, pre, ft = pipeline
    for d, phase in ((pre, "pretrain"), (ft, "finetune")):
        cfg = json.loads((d / "config.json").read_text())
        assert cfg["dim"] == 16 and cfg["phase"] == phase
        assert not (d / "resolved_config.json").exists()
        assert (d / "checkpoint.bin").exists()
        assert (d / "metrics.jsonl").exists()


def test_eval_command(pipeline, tmp_path):
    root, caps, vqa, pre, ft = pipeline
    out = tmp_path / "eval"
    assert run_cli(
        "eval", "--data", str(vqa), "--checkpoint", str(ft / "checkpoint.bin"),
        "--out", str(out),
    ) == 0
    assert (out / "eval_report.txt").exists()
    assert (out / "predictions.jsonl").exists()


@pytest.mark.parametrize("command", ["eval", "attn"])
def test_eval_and_attn_reject_pretrain_checkpoint(pipeline, tmp_path, capsys, command):
    root, caps, vqa, pre, ft = pipeline
    rc = run_cli(
        command, "--data", str(vqa), "--checkpoint", str(pre / "checkpoint.bin"),
        "--out", str(tmp_path / command),
    )
    assert rc == 1
    assert "'pretrain'" in capsys.readouterr().err


def test_attn_command(pipeline, tmp_path):
    root, caps, vqa, pre, ft = pipeline
    out = tmp_path / "attn"
    assert run_cli(
        "attn", "--data", str(vqa), "--checkpoint", str(ft / "checkpoint.bin"),
        "--out", str(out), "--limit", "2",
    ) == 0
    maps = [p for p in os.listdir(out) if p.endswith(".attn.pgm")]
    assert 1 <= len(maps) <= 2


def test_finetune_from_scratch(pipeline, tmp_path):
    root, caps, vqa, pre, ft = pipeline
    out = tmp_path / "scratch"
    assert run_cli(
        "finetune", "--preset", "test", "--set", "epochs=1", "--set", "image_size=64",
        "--data", str(vqa), "--from-scratch", "--out", str(out),
    ) == 0
    assert (out / "checkpoint.bin").exists()
