"""Benchmark of m2i2: pretrain, finetune and greedy decode.

Run from the repository root:

    python3 bench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 alternates untraced
and traced reps and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1  # the matmuls are small; figures do not depend on the second core
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("pretrain", "finetune", "decode")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
WARMUP_REPS = 1  # run and checked, not measured: the first rep is slower
MIN_REPS = 2  # determinism needs two reps; the traced run one of each kind

# A desk pretrain step as the ROADMAP re-anchor split it, GELU fix applied.
ROADMAP_PRETRAIN_SPLIT = {"forward": 0.42, "backward": 0.41, "clip+adamw": 0.14, "batch": 0.02}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup", metavar="DIR", help=argparse.SUPPRESS)  # set up into DIR and exit
    return p.parse_args(argv)


def blas_threads_in_use():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
    }


def result_line(correct: bool, tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": max(1, tally.attempted),
            "failed": min(tally.failed, max(1, tally.attempted)),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def measure(wl, args, tally, work: str) -> tuple[list, list]:
    """Set up, then run reps for about args.seconds. Returns the set-up
    times and the reps as (traced, result, tracer)."""
    import tracing

    setups = []
    for i in range(1 if args.trace else SETUPS):
        setup_dir = os.path.join(work, f"setup{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl.name, "--seed", str(wl.seed), "--setup", setup_dir]
        t0 = time.perf_counter()
        # no timeout: waiting with one makes Popen poll, which rounds the time to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        setups.append(time.perf_counter() - t0)
    wl.load(setup_dir)

    reps: list[tuple[bool, dict, object]] = []
    for _ in range(WARMUP_REPS):
        run_rep(wl, tally, tracing.Tracer(tracing.E2E_HOOKS), os.path.join(work, "warmup"))
    start = time.perf_counter()
    while not tally.failed:
        traced = bool(args.trace) and 2 * sum(r[0] for r in reps) < len(reps)
        tracer = tracing.Tracer(tracing.LAYER_HOOKS if traced else tracing.E2E_HOOKS)
        reps.append((traced, run_rep(wl, tally, tracer, os.path.join(work, f"rep{len(reps)}")), tracer))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    return setups, reps


def run_rep(wl, tally, tracer, out_dir: str) -> dict:
    gc.collect()  # so that a collection of the last rep's garbage is not timed
    try:
        with tracer:
            return wl.rep(out_dir, tally, tracer)
    except Exception:
        tally.abandon(f"a rep raised:\n{traceback.format_exc()}")
        raise
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def result_metrics(kind: str) -> list[str]:
    """The metrics of the result line, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[kind]]


def end_to_end(wl, setups, reps) -> tuple[dict, dict]:
    """(metrics for the result line, every end-to-end figure by its own name)."""
    results = [r for _, r, _ in reps]
    throughput = median(r["samples_per_s"] for r in results)
    common = {
        "setup_s": (median(setups), "s"),
        "samples_per_s": (throughput, "samples/s"),
        "ckpt_load_ms": (median(ms for r in results for ms in r["ckpt_load_ms"]), "ms"),
        "ckpt_bytes": (results[-1]["ckpt_bytes"], "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    if wl.name == "decode":
        named = {
            "eval_samples_per_s": (throughput, "questions/s"),
            "attn_maps_per_s": (median(r["attn_maps_per_s"] for r in results), "maps/s"),
        }
    else:
        named = {
            "train_samples_per_s": (throughput, "samples/s"),
            "loss_final": (results[-1]["loss_final"], "nats"),
            "ckpt_save_ms": (median(ms for r in results for ms in r["ckpt_save_ms"]), "ms"),
        }
    metrics = {name: common[name] for name in result_metrics("end_to_end")}
    del common["samples_per_s"]  # printed under the workload's own name
    return metrics, {**common, **named}


def per_layer(wl, reps) -> tuple[dict, dict]:
    """(metrics for the result line, the full trace report)."""
    import tracing

    traced = [(r, t) for is_traced, r, t in reps if is_traced]
    plain = [r for is_traced, r, _ in reps if not is_traced]
    overhead = median(r["wall_s"] for r, _ in traced) / median(r["wall_s"] for r in plain) - 1
    per_rep = [tracing.layer_metrics(t, r["ops"]) for r, t in traced]
    layers = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        layers[name] = median(values) if all(isinstance(v, float) for v in values) else values[0]
    layers["trace_overhead_frac"] = overhead
    units = {m: unit for m, unit, _, _ in tracing.LAYER_METRICS} | {
        m: "frac" for m, _, _ in tracing.LAYER_RATIOS
    } | {"trace_overhead_frac": "frac"}
    metrics = {}
    for name in result_metrics("per_layer"):
        if isinstance(layers.get(name), float):
            metrics[name] = (layers[name], units[name])
        else:
            print(f"per-layer metric {name} is {layers.get(name)}", file=sys.stderr)
    report = {
        "per": wl.op,
        "layers": {name: [value, units[name]] for name, value in layers.items()},
        "absent_hooks": sorted({h for _, t in traced for h in t.absent}),
    }
    if wl.name == "pretrain":
        report["pretrain_split"] = pretrain_split(traced)
    return metrics, report


def pretrain_split(traced) -> dict:
    """Shares of the traced pretrain() wall time, beside the ROADMAP's."""
    walls = sum(r["wall_s"] for r, _ in traced)

    def share(*spans):
        return sum(t.total_s[s] for _, t in traced for s in spans) / walls

    split = {
        "forward": share("trainer.forward"),
        "backward": share("tensor.backward"),
        "clip+adamw": share("trainer.clip", "trainer.adamw"),
        "momentum": share("momentum.update", "momentum.enqueue"),
        "batch": share("trainer.batch"),
        "save": share("trainer.save"),
    }
    split["other"] = 1 - sum(split.values())
    return {"measured": split, "roadmap_gelu_fixed": ROADMAP_PRETRAIN_SPLIT}


def run_all(args) -> int:
    """Each workload in its own process; exits nonzero if any check failed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout
        print(out, end="")
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:  # read by the BLAS library when numpy loads it
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "m2i2", "__init__.py")):
        print(f"no m2i2 sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup:
        wl.setup(args.setup)
        return 0

    print(json.dumps({"environment": environment()}))
    tally = workloads.Tally()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        setups, reps = measure(wl, args, tally, work)
    except Exception:
        if not tally.errors:  # a rep that raised has recorded itself
            tally.abandon(f"set-up raised:\n{traceback.format_exc()}")
        setups, reps = [], []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not tally.errors
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    metrics: dict = {}
    if reps and correct:
        if args.trace:
            metrics, report = per_layer(wl, reps)
            print(json.dumps({"trace": {"workload": wl.name, "reps": len(reps), **report}}))
        else:
            metrics, named = end_to_end(wl, setups, reps)
            for name, (value, unit) in named.items():
                print(f"{wl.name:9s} {name:20s} {value:14.4f} {unit}")
            print(json.dumps({"report": {"workload": wl.name, "seed": args.seed, "reps": len(reps), "metrics": named}}))
    print(result_line(correct, tally, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
