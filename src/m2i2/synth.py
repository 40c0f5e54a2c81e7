"""Synthetic caption and VQA corpora over parameterized shape images.

Each image shows one shape (circle, square, or cross) at one of five grid
positions, with a size and an intensity. The caption is fully determined by
the image parameters, so cross-modal alignment is learnable. QA pairs cover
closed (yes/no presence) and open (shape / location) questions.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .vision import Image, write_image

SHAPES = ("circle", "square", "cross")
POSITIONS = ("upper left", "upper right", "lower left", "lower right", "center")
SIZES = ("small", "large")
INTENSITIES = ("dark", "bright")
ANSWER_TYPES = ("closed", "open")
QUESTION_FORMS = ("freeform", "paraphrased")


def _check(sample, **choices) -> None:
    """Raise DataError unless every field of sample is a str and each field
    named in choices holds one of its choices."""
    for name, value in vars(sample).items():
        if type(value) is not str:
            raise DataError(f"{name} is not a string: {value!r}")
        if name in choices and value not in choices[name]:
            raise DataError(f"{name} {value!r} is not one of {choices[name]}")


@dataclass
class CaptionSample:
    image: str  # path relative to the manifest root
    caption: str

    def __post_init__(self):
        _check(self)


@dataclass
class VqaSample:
    image: str
    question: str
    answer: str
    answer_type: str  # one of ANSWER_TYPES
    question_form: str = "freeform"  # one of QUESTION_FORMS

    def __post_init__(self):
        _check(self, answer_type=ANSWER_TYPES, question_form=QUESTION_FORMS)


def render_shape(shape: str, position: str, size: str, intensity: str, n: int = 64) -> Image:
    """Draw one shape on an n x n grayscale canvas."""
    px = np.full((n, n), 0.08)
    anchors = {
        "upper left": (n // 4, n // 4),
        "upper right": (n // 4, 3 * n // 4),
        "lower left": (3 * n // 4, n // 4),
        "lower right": (3 * n // 4, 3 * n // 4),
        "center": (n // 2, n // 2),
    }
    cy, cx = anchors[position]
    r = n // 8 if size == "small" else n // 5
    level = 0.45 if intensity == "dark" else 0.95
    yy, xx = np.mgrid[0:n, 0:n]
    if shape == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    elif shape == "square":
        mask = (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r)
    else:  # cross
        arm = max(2, r // 3)
        mask = ((np.abs(yy - cy) <= arm) & (np.abs(xx - cx) <= r)) | (
            (np.abs(xx - cx) <= arm) & (np.abs(yy - cy) <= r)
        )
    px[mask] = level
    return Image(px[:, :, None])


def caption_for(shape: str, position: str, size: str, intensity: str) -> str:
    return f"a {size} {intensity} {shape} in the {position}"


def _sample_params(rng: np.random.Generator, n: int) -> list[tuple[str, str, str, str]]:
    combos = [
        (s, p, z, i) for s in SHAPES for p in POSITIONS for z in SIZES for i in INTENSITIES
    ]
    if n <= len(combos):
        idx = rng.choice(len(combos), size=n, replace=False)
    else:
        idx = np.concatenate(
            [np.arange(len(combos))] * (n // len(combos))
            + [rng.choice(len(combos), size=n % len(combos), replace=False)]
        )
    return [combos[i] for i in idx]


def generate_captions(n: int, seed: int, out_dir, image_size: int = 64) -> list[CaptionSample]:
    rng = np.random.default_rng([seed, 0xCAF])
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    samples = []
    for i, (shape, pos, size, inten) in enumerate(_sample_params(rng, n)):
        rel = f"images/cap_{i:05d}.pgm"
        write_image(os.path.join(out_dir, rel), render_shape(shape, pos, size, inten, image_size))
        samples.append(CaptionSample(rel, caption_for(shape, pos, size, inten)))
    with open(os.path.join(out_dir, "captions.jsonl"), "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps(asdict(s), sort_keys=True) + "\n")
    return samples


def _qa_pairs(shape, pos, size, inten, rng: np.random.Generator) -> list[tuple[str, str, str, str]]:
    absent = SHAPES[(SHAPES.index(shape) + 1 + int(rng.integers(0, 2))) % 3]
    pairs = [
        (f"is there a {shape} in the image", "yes", "closed", "freeform"),
        (f"is there a {absent} in the image", "no", "closed", "freeform"),
        (f"does the image contain a {shape}", "yes", "closed", "paraphrased"),
        (f"where is the {shape}", pos, "open", "freeform"),
        (f"what shape is in the image", shape, "open", "freeform"),
        (f"in which region is the {shape} located", pos, "open", "paraphrased"),
    ]
    return pairs


def generate_vqa(n: int, seed: int, out_dir, image_size: int = 64) -> list[VqaSample]:
    """Generate n QA samples; images are shared across each image's questions."""
    rng = np.random.default_rng([seed, 0x7A])
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    samples: list[VqaSample] = []
    params = _sample_params(rng, (n + 5) // 6 + 1)
    img_paths: list[str] = []
    for i, (shape, pos, size, inten) in enumerate(params):
        rel = f"images/vqa_{i:05d}.pgm"
        write_image(os.path.join(out_dir, rel), render_shape(shape, pos, size, inten, image_size))
        img_paths.append(rel)
        for q, a, typ, form in _qa_pairs(shape, pos, size, inten, rng):
            samples.append(VqaSample(rel, q, a, typ, form))
    samples = samples[:n]
    with open(os.path.join(out_dir, "vqa.jsonl"), "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps(asdict(s), sort_keys=True) + "\n")
    return samples


def _load_manifest(path, sample: type) -> list:
    """One sample per line of a UTF-8 JSON-lines manifest; a line that is
    not UTF-8, or not a JSON object of sample's fields (those with defaults
    may be left out) with the values sample accepts, raises DataError naming
    the file and line."""
    out = []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            # decoded here, not by the file, so a bad byte fails on its line
            try:
                out.append(sample(**json.loads(line.decode("utf-8"))))
            except (ValueError, TypeError) as e:
                raise DataError(f"{path} line {n}: not a {sample.__name__} JSON object: {e}") from e
    return out


def load_captions(root) -> list[CaptionSample]:
    return _load_manifest(os.path.join(root, "captions.jsonl"), CaptionSample)


def load_vqa(root) -> list[VqaSample]:
    return _load_manifest(os.path.join(root, "vqa.jsonl"), VqaSample)
