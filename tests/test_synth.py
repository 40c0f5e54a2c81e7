import json

import numpy as np
import pytest

from m2i2.errors import DataError
from m2i2.synth import (
    INTENSITIES,
    POSITIONS,
    SHAPES,
    SIZES,
    caption_for,
    generate_captions,
    generate_vqa,
    load_captions,
    load_vqa,
    render_shape,
)
from m2i2.vision import load_image


def test_render_deterministic_and_bounded():
    a = render_shape("circle", "center", "large", "bright")
    b = render_shape("circle", "center", "large", "bright")
    assert np.array_equal(a.pixels, b.pixels)
    assert a.pixels.shape == (64, 64, 1)
    assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0


def test_render_shapes_differ():
    imgs = [render_shape(s, "center", "large", "bright").pixels for s in SHAPES]
    assert not np.array_equal(imgs[0], imgs[1])
    assert not np.array_equal(imgs[1], imgs[2])


def test_render_positions_differ():
    base = render_shape("square", "upper left", "small", "dark").pixels
    for pos in POSITIONS[1:]:
        assert not np.array_equal(base, render_shape("square", pos, "small", "dark").pixels)


def test_caption_mentions_all_attributes():
    c = caption_for("cross", "lower left", "small", "dark")
    for word in ("cross", "lower left", "small", "dark"):
        assert word in c


def test_generate_captions_counts_and_files(tmp_path):
    samples = generate_captions(10, 3, tmp_path)
    assert len(samples) == 10
    for s in samples:
        img = load_image(tmp_path / s.image, channels=1)
        assert img.pixels.shape == (64, 64, 1)
    assert len(set(s.caption for s in samples)) == 10  # distinct combos when n <= 60


def test_generate_captions_deterministic(tmp_path):
    a = generate_captions(8, 5, tmp_path / "a")
    b = generate_captions(8, 5, tmp_path / "b")
    assert [s.caption for s in a] == [s.caption for s in b]


def test_captions_roundtrip_manifest(tmp_path):
    samples = generate_captions(6, 1, tmp_path)
    loaded = load_captions(tmp_path)
    assert loaded == samples


def test_generate_vqa_counts_types_forms(tmp_path):
    samples = generate_vqa(24, 2, tmp_path)
    assert len(samples) == 24
    types = set(s.answer_type for s in samples)
    forms = set(s.question_form for s in samples)
    assert types == {"closed", "open"}
    assert forms == {"freeform", "paraphrased"}


def test_vqa_answers_consistent(tmp_path):
    for s in generate_vqa(30, 4, tmp_path):
        if s.answer_type == "closed":
            assert s.answer in ("yes", "no")
        else:
            assert s.answer in SHAPES + POSITIONS


def test_vqa_roundtrip_manifest(tmp_path):
    samples = generate_vqa(12, 0, tmp_path)
    assert load_vqa(tmp_path) == samples


def test_manifests_write_every_field_in_sorted_key_order(tmp_path):
    captions = generate_captions(6, 1, tmp_path)
    expected = [{"image": s.image, "caption": s.caption} for s in captions]
    assert (tmp_path / "captions.jsonl").read_text() == "".join(json.dumps(d, sort_keys=True) + "\n" for d in expected)
    qa = generate_vqa(12, 0, tmp_path)
    fields = ("image", "question", "answer", "answer_type", "question_form")
    expected = [{k: getattr(s, k) for k in fields} for s in qa]
    assert (tmp_path / "vqa.jsonl").read_text() == "".join(json.dumps(d, sort_keys=True) + "\n" for d in expected)


def test_vqa_line_without_question_form_is_freeform(tmp_path):
    (tmp_path / "vqa.jsonl").write_text('{"image": "a.pgm", "question": "q", "answer": "a", "answer_type": "open"}\n')
    assert load_vqa(tmp_path)[0].question_form == "freeform"


MALFORMED = {
    "not json": lambda d: json.dumps(d)[:-1],
    "not an object": lambda d: json.dumps(list(d.values())),
    "missing key": lambda d: json.dumps({k: v for k, v in d.items() if k != "image"}),
    "unknown key": lambda d: json.dumps({**d, "extra": 1}),
}


@pytest.mark.parametrize("fault", MALFORMED)
@pytest.mark.parametrize("manifest", ["captions", "vqa"])
def test_malformed_manifest_line_raises_data_error_naming_file_and_line(tmp_path, manifest, fault):
    good = {"image": "a.pgm", "caption": "c"}
    if manifest == "vqa":
        good = {"image": "a.pgm", "question": "q", "answer": "a", "answer_type": "open"}
    (tmp_path / f"{manifest}.jsonl").write_text(json.dumps(good) + "\n" + MALFORMED[fault](good) + "\n")
    load = load_captions if manifest == "captions" else load_vqa
    with pytest.raises(DataError, match=rf"{manifest}\.jsonl line 2"):
        load(tmp_path)


GOOD_VQA = {"image": "a.pgm", "question": "q", "answer": "a", "answer_type": "open"}


def test_manifest_line_that_is_not_utf8_raises_data_error_naming_file_and_line(tmp_path):
    bad = json.dumps({**GOOD_VQA, "answer": "\u00e9"}, ensure_ascii=False).encode("latin-1")  # a lone 0xE9 byte
    (tmp_path / "vqa.jsonl").write_bytes(json.dumps(GOOD_VQA).encode() + b"\n" + bad + b"\n")
    with pytest.raises(DataError, match=r"vqa\.jsonl line 2.*utf-8"):
        load_vqa(tmp_path)


@pytest.mark.parametrize("manifest", ["captions", "vqa"])
def test_manifest_field_that_is_not_a_string_raises_data_error_naming_file_and_line(tmp_path, manifest):
    good = GOOD_VQA if manifest == "vqa" else {"image": "a.pgm", "caption": "c"}
    bad = {**good, "image": 5, "caption" if manifest == "captions" else "question": ["q"]}
    (tmp_path / f"{manifest}.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    load = load_captions if manifest == "captions" else load_vqa
    with pytest.raises(DataError, match=rf"{manifest}\.jsonl line 2.*image is not a string: 5"):
        load(tmp_path)


@pytest.mark.parametrize("key, value", [("answer_type", "Closed"), ("question_form", "free")])
def test_vqa_line_of_an_unknown_answer_type_or_question_form_raises_data_error(tmp_path, key, value):
    lines = [GOOD_VQA, {**GOOD_VQA, "question_form": "paraphrased"}, {**GOOD_VQA, key: value}]
    (tmp_path / "vqa.jsonl").write_text("".join(json.dumps(d) + "\n" for d in lines))
    with pytest.raises(DataError, match=rf"vqa\.jsonl line 3.*{key} '{value}' is not one of"):
        load_vqa(tmp_path)


def test_vqa_shares_images_across_questions(tmp_path):
    samples = generate_vqa(12, 0, tmp_path)
    assert len(set(s.image for s in samples)) < len(samples)


def test_oversampled_captions_cover_all_combos(tmp_path):
    n_combos = len(SHAPES) * len(POSITIONS) * len(SIZES) * len(INTENSITIES)
    samples = generate_captions(n_combos + 5, 1, tmp_path)
    assert len(samples) == n_combos + 5
    assert len(set(s.caption for s in samples)) == n_combos
