"""Spans and counters around m2i2's public functions, attached from outside.

A hook names a function by its defining module and attribute, such as
``m2i2.model:encode_image`` or ``m2i2.tensor:Tensor.backward``. Installing a
hook replaces the function in every m2i2 module namespace that holds it,
because ``trainer`` and ``evaluation`` import model functions by name. A hook
whose target no longer exists is recorded as absent instead of failing, and
every metric fed by it is then reported as absent.

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


@dataclass(frozen=True)
class ByMomentum:
    """Span name of a call that may run the momentum encoders instead."""

    online: str
    pos: int  # position of the use_momentum argument

    @property
    def names(self) -> tuple[str, ...]:
        return (self.online, "model.momentum_encoders")

    def __call__(self, args: tuple, kwargs: dict) -> str:
        return self.names[bool(_arg(args, kwargs, self.pos, "use_momentum", False))]


@dataclass(frozen=True)
class Hook:
    target: str  # "module:function" or "module:Class.method"
    span: str | ByMomentum | None  # None: count only, no timing
    count: Callable | None = None  # (tracer, args, kwargs, result) -> None
    counters: tuple[str, ...] = ()  # the counters `count` increments

    @property
    def feeds(self) -> tuple[str, ...]:
        spans = (self.span,) if isinstance(self.span, str) else self.span.names if self.span else ()
        return spans + self.counters


def _count_make(tr: "Tracer", args, kwargs, out) -> None:
    tr.counts["make_calls"] += 1
    if out._parents:
        tr.counts["tape_nodes"] += 1


def _count_decode_rows(tr: "Tracer", args, kwargs, out) -> None:
    if "evaluation.generate" in tr.open_spans():
        b, lp = _arg(args, kwargs, 3, "prefix_ids").shape
        tr.counts["generate_rows_computed"] += b * lp
        tr.counts["generate_rows_read"] += b  # greedy decoding reads the last row


def _count_adamw(tr: "Tracer", args, kwargs, out) -> None:
    mp = args[0]
    skip = _arg(args, kwargs, 7, "skip_prefixes", ())
    for name, p in mp.params.items():
        if not name.startswith(skip):
            tr.counts["adamw_scalars"] += p.data.size
            if p.grad is not None:
                tr.counts["adamw_live_scalars"] += p.data.size


# Only what the end-to-end metrics need: epoch-boundary save times.
E2E_HOOKS = (Hook("m2i2.trainer:save_checkpoint", "trainer.save"),)

LAYER_HOOKS = (
    Hook("m2i2.tensor:Tensor.backward", "tensor.backward"),
    Hook("m2i2.tensor:Tensor._make", None, _count_make, ("make_calls", "tape_nodes")),
    Hook("m2i2.model:encode_image", ByMomentum("model.encode_image", 3)),
    Hook("m2i2.model:encode_text", ByMomentum("model.encode_text", 2)),
    Hook("m2i2.model:project_itc", ByMomentum("model.heads", 3)),
    Hook("m2i2.model:itm_logits", "model.heads"),
    Hook("m2i2.model:mlm_logits", "model.heads"),
    Hook("m2i2.model:fuse", "model.fuse"),
    Hook("m2i2.model:decode_image", "model.decode_image"),
    Hook(
        "m2i2.model:decode_answer",
        "model.decode_answer",
        _count_decode_rows,
        ("generate_rows_computed", "generate_rows_read"),
    ),
    Hook("m2i2.objectives:mim_loss", "objectives.loss"),
    Hook("m2i2.objectives:mlm_loss", "objectives.loss"),
    Hook("m2i2.objectives:itm_loss", "objectives.loss"),
    Hook("m2i2.objectives:itc_loss", "objectives.loss"),
    Hook("m2i2.objectives:pair_negatives", "objectives.loss"),
    Hook("m2i2.objectives:combined_loss", "objectives.loss"),
    Hook("m2i2.objectives:cond_lm_loss", "objectives.loss"),
    Hook("m2i2.momentum:momentum_update", "momentum.update"),
    Hook("m2i2.momentum:enqueue", "momentum.enqueue"),
    Hook("m2i2.trainer:pretrain_losses", "trainer.forward"),
    Hook("m2i2.trainer:vqa_forward_loss", "trainer.forward"),
    Hook("m2i2.trainer:make_pretrain_batch", "trainer.batch"),
    Hook("m2i2.trainer:answer_targets", "trainer.batch"),
    Hook("m2i2.trainer:clip_global_norm", "trainer.clip"),
    Hook("m2i2.trainer:adamw_step", "trainer.adamw", _count_adamw, ("adamw_scalars", "adamw_live_scalars")),
    Hook("m2i2.trainer:save_checkpoint", "trainer.save"),
    Hook("m2i2.trainer:load_checkpoint", "trainer.load"),
    Hook("m2i2.trainer:restore_model", "trainer.restore"),
    Hook("m2i2.trainer:init_from_pretrained", "trainer.init_from_pretrained"),
    Hook("m2i2.vision:augment", "vision.augment"),
    Hook("m2i2.vision:mask_patches", "vision.mask_patches"),
    Hook("m2i2.vision:patchify", "vision.patchify"),
    Hook("m2i2.text:mask_tokens", "text.mask_tokens"),
    Hook("m2i2.text:tokenize", "text.tokenize"),
    Hook("m2i2.evaluation:generate_answer", "evaluation.generate"),
    Hook("m2i2.evaluation:attention_map", "evaluation.attention_map"),
)


def _resolve(target: str):
    """(owner, attribute, current value), or None when the target is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, vars(owner)[attr]
    except (ImportError, AttributeError, KeyError):
        return None


class Tracer:
    """Installs hooks on entry and removes them on exit; one per measured rep."""

    def __init__(self, hooks: tuple[Hook, ...]):
        self.hooks = hooks
        self.absent: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span name, child seconds]
        self._undo: list[tuple] = []

    def open_spans(self) -> list[str]:
        return [name for name, _ in self._stack]

    def _wrap(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.span is None:
                out = fn(*args, **kwargs)
                hook.count(tracer, args, kwargs, out)
                return out
            name = hook.span if isinstance(hook.span, str) else hook.span(args, kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.self_s[name] += dt - frame[1]
                tracer.total_s[name] += dt
                tracer.durations[name].append(dt)
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if hook.count is not None:
                hook.count(tracer, args, kwargs, out)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        for hook in self.hooks:
            found = _resolve(hook.target)
            if found is None:
                self.absent.append(hook.target)
                continue
            owner, attr, raw = found
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(raw.__func__, hook)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(raw, hook))
            else:
                wrapped = self._wrap(raw, hook)
                for name, module in list(sys.modules.items()):
                    if (name == "m2i2" or name.startswith("m2i2.")) and vars(module).get(attr) is raw:
                        self._set(module, attr, wrapped)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def is_absent(self, name: str) -> bool:
        """True when a hook feeding this span or counter could not be installed."""
        return any(name in h.feeds for h in self.hooks if h.target in self.absent)


# (metric, unit, how, source). "self" and "total" give ms per op of a span,
# "calls" its calls per op, "count" a counter per op; ops are training steps
# or decoded questions.
LAYER_METRICS = (
    ("tensor.backward_ms", "ms", "self", "tensor.backward"),
    ("tensor.make_calls", "count", "count", "make_calls"),
    ("tensor.tape_nodes", "count", "count", "tape_nodes"),
    ("model.encode_image_ms", "ms", "self", "model.encode_image"),
    ("model.encode_text_ms", "ms", "self", "model.encode_text"),
    ("model.fuse_ms", "ms", "self", "model.fuse"),
    ("model.fuse_calls", "count", "calls", "model.fuse"),
    ("model.decode_image_ms", "ms", "self", "model.decode_image"),
    ("model.decode_answer_ms", "ms", "self", "model.decode_answer"),
    ("model.decode_answer_calls", "count", "calls", "model.decode_answer"),
    ("model.momentum_encoders_ms", "ms", "self", "model.momentum_encoders"),
    ("model.heads_ms", "ms", "self", "model.heads"),
    ("objectives.loss_ms", "ms", "self", "objectives.loss"),
    ("momentum.update_ms", "ms", "self", "momentum.update"),
    ("momentum.enqueue_ms", "ms", "self", "momentum.enqueue"),
    ("trainer.forward_ms", "ms", "total", "trainer.forward"),
    ("trainer.batch_ms", "ms", "self", "trainer.batch"),
    ("trainer.clip_ms", "ms", "self", "trainer.clip"),
    ("trainer.adamw_ms", "ms", "self", "trainer.adamw"),
    ("trainer.save_ms", "ms", "self", "trainer.save"),
    ("trainer.load_ms", "ms", "self", "trainer.load"),
    ("trainer.restore_ms", "ms", "self", "trainer.restore"),
    ("trainer.init_from_pretrained_ms", "ms", "self", "trainer.init_from_pretrained"),
    ("vision.augment_ms", "ms", "self", "vision.augment"),
    ("vision.mask_patches_ms", "ms", "self", "vision.mask_patches"),
    ("vision.patchify_ms", "ms", "self", "vision.patchify"),
    ("text.mask_tokens_ms", "ms", "self", "text.mask_tokens"),
    ("text.tokenize_ms", "ms", "self", "text.tokenize"),
    ("evaluation.generate_self_ms", "ms", "self", "evaluation.generate"),
    ("evaluation.attention_map_self_ms", "ms", "self", "evaluation.attention_map"),
)

# (metric, numerator counter, denominator counter)
LAYER_RATIOS = (
    ("trainer.adamw_live_frac", "adamw_live_scalars", "adamw_scalars"),
    ("evaluation.decode_useful_frac", "generate_rows_read", "generate_rows_computed"),
)


def layer_metrics(tr: Tracer, ops: int) -> dict[str, float | str]:
    """Every per-layer metric of one traced rep; "absent" where a hook is
    gone and "not run" for a ratio whose work this workload never does."""
    out: dict[str, float | str] = {}
    for metric, _, how, source in LAYER_METRICS:
        if tr.is_absent(source):
            out[metric] = "absent"
        elif how == "count":
            out[metric] = tr.counts[source] / ops
        elif how == "calls":
            out[metric] = len(tr.durations[source]) / ops
        else:
            seconds = tr.self_s if how == "self" else tr.total_s
            out[metric] = seconds[source] * 1e3 / ops
    for metric, num, den in LAYER_RATIOS:
        if tr.is_absent(num):
            out[metric] = "absent"
        else:
            out[metric] = tr.counts[num] / tr.counts[den] if tr.counts[den] else "not run"
    return out
