import numpy as np
import pytest

from m2i2 import evaluation, model
from m2i2.config import preset
from m2i2.evaluation import (
    EvalReport,
    attention_map,
    evaluate,
    fuse_question,
    generate_answer,
    generate_answers,
    normalize_answer,
    write_heatmap,
    write_report,
)
from m2i2.errors import ConfigError, ContractError
from m2i2.model import ModelParams, decode_answer, encode_full_images, encode_text, fuse
from m2i2.synth import generate_vqa
from m2i2.tensor import Tensor, cross_entropy, no_grad
from m2i2.text import BOS, EOS, PAD, build_vocab, detokenize, tokenize
from m2i2.vision import load_image


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("vqa")
    samples = generate_vqa(12, 3, root, image_size=32)
    cfg = preset("test", seed=0, phase="finetune")
    mp = ModelParams(cfg.model_config(), np.random.default_rng(0))
    corpus = [s.question for s in samples] + [s.answer for s in samples]
    vocab = build_vocab(corpus, cfg.vocab_size)
    return root, samples, cfg, mp, vocab


def test_normalize_answer():
    assert normalize_answer("  Yes.  ") == "yes"
    assert normalize_answer("Upper   LEFT") == "upper left"
    assert normalize_answer("no!?") == "no"
    assert normalize_answer("") == ""


def test_report_arithmetic():
    r = EvalReport(closed_correct=3, closed_n=4, open_correct=1, open_n=2)
    assert r.closed_acc == pytest.approx(0.75)
    assert r.open_acc == pytest.approx(0.5)
    assert r.overall_acc == pytest.approx(4 / 6)


def test_report_empty_is_zero():
    r = EvalReport()
    assert r.closed_acc == 0.0 and r.open_acc == 0.0 and r.overall_acc == 0.0


def test_report_table_mentions_all_rows():
    text = EvalReport(closed_correct=1, closed_n=2).table()
    for word in ("closed", "open", "overall", "accuracy"):
        assert word in text


def test_generate_answer_bounded(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    out = generate_answer(mp, cfg, img, samples[0].question, vocab)
    assert isinstance(out, list)
    assert len(out) <= cfg.max_answer_len - 1
    assert all(t != EOS for t in out)


def test_generate_answer_deterministic(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    a = generate_answer(mp, cfg, img, samples[0].question, vocab)
    b = generate_answer(mp, cfg, img, samples[0].question, vocab)
    assert a == b


def test_evaluate_counts_match_predictions(setup):
    root, samples, cfg, mp, vocab = setup
    report = evaluate(mp, cfg, samples, root, vocab)
    assert len(report.predictions) == len(samples)
    # brute-force recount from the per-sample records
    by_type = {"closed": 0, "open": 0}
    correct = {"closed": 0, "open": 0}
    for s, p in zip(samples, report.predictions):
        by_type[s.answer_type] += 1
        correct[s.answer_type] += int(p["correct"])
    assert (report.closed_n, report.open_n) == (by_type["closed"], by_type["open"])
    assert (report.closed_correct, report.open_correct) == (
        correct["closed"],
        correct["open"],
    )


def test_evaluate_free_filter(setup):
    root, samples, cfg, mp, vocab = setup
    report = evaluate(mp, cfg, samples, root, vocab, answer_type_filter="free")
    n_free = sum(1 for s in samples if s.question_form == "freeform")
    assert len(report.predictions) == n_free


def test_evaluate_empty_after_filter_rejected(setup):
    root, samples, cfg, mp, vocab = setup
    closed_para = [s for s in samples if s.question_form == "paraphrased"]
    with pytest.raises(ConfigError):
        evaluate(mp, cfg, closed_para, root, vocab, answer_type_filter="free")


@pytest.mark.parametrize("name", ["closed", "open", "Free"])
def test_evaluate_unknown_filter_rejected(setup, name):
    root, samples, cfg, mp, vocab = setup
    with pytest.raises(ConfigError, match="answer_type_filter"):
        evaluate(mp, cfg, samples, root, vocab, answer_type_filter=name)


def _eos_biased_model(cfg, imgs, questions, vocab):
    """A fresh model with an EOS bias inside the spread of first-step
    margins: some rows stop at once, while the rest of their batch decodes on.

    The bias is the mean of the two middle sorted margins, not their median:
    over an odd count the median is one row's own margin, which would tie
    EOS with that row's best token."""
    mp = ModelParams(cfg.model_config(), np.random.default_rng(0))
    first = np.stack([
        decode_answer(mp, *fuse_question(mp, cfg, img, q, vocab)[:2], np.array([[BOS]])).data[0, -1, : len(vocab)]
        for img, q in zip(imgs, questions)
    ])
    margins = np.sort(first.max(axis=1) - first[:, EOS])
    mid = len(margins) // 2
    mp.params["ans_head.b"].data[EOS] += (margins[mid - 1] + margins[mid]) / 2
    return mp


def _question_len(question, cfg, vocab):
    """The question's token count, CLS included."""
    return int((tokenize(question, vocab, cfg.max_text_len) != PAD).sum())


def test_evaluate_batches_decode_like_single_questions(setup):
    root, samples, cfg, _, vocab = setup
    samples = samples[:7]  # batch_size 4: one full chunk, one partial
    assert cfg.batch_size == 4
    imgs = [load_image(root / s.image, channels=1) for s in samples]
    questions = [s.question for s in samples]
    mp = _eos_biased_model(cfg, imgs, questions, vocab)
    single = [generate_answer(mp, cfg, img, q, vocab) for img, q in zip(imgs, questions)]
    lengths = {len(a) for a in single}
    assert 0 in lengths and len(lengths) >= 2
    # each batch is cut after its longest question, so its shorter ones run beside PAD rows
    for lo in (0, 4):
        assert len({_question_len(q, cfg, vocab) for q in questions[lo : lo + 4]}) >= 2
    assert generate_answers(mp, imgs, questions, vocab) == single
    report = evaluate(mp, cfg, samples, root, vocab)
    assert [p["prediction"] for p in report.predictions] == [detokenize(a, vocab) for a in single]


def test_evaluate_encodes_each_distinct_image_and_question_once_per_split(setup, monkeypatch):
    root, samples, cfg, _, vocab = setup
    # shortest questions first, so that the chunks differ in their longest one
    samples = sorted(samples, key=lambda s: _question_len(s.question, cfg, vocab))
    assert cfg.batch_size == 4 and len(samples) >= 9

    def recurs_across_chunks(key):
        chunks = [{key(s) for s in samples[lo : lo + 4]} for lo in range(0, len(samples), 4)]
        return any(a & b for i, a in enumerate(chunks) for b in chunks[i + 1 :])

    assert recurs_across_chunks(lambda s: s.image) and recurs_across_chunks(lambda s: s.question)
    imgs = [load_image(root / s.image, channels=1) for s in samples]
    questions = [s.question for s in samples]
    mp = _eos_biased_model(cfg, imgs, questions, vocab)
    single = [generate_answer(mp, cfg, img, q, vocab) for img, q in zip(imgs, questions)]
    assert 0 in {len(a) for a in single} and len({len(a) for a in single}) >= 2

    image_calls, text_calls, text_widths, fuse_widths = [], [], [], []
    encode_full_images, encode_text = evaluation.encode_full_images, evaluation.encode_text

    def counting_images(mp, images):
        image_calls.append([id(img) for img in images])
        return encode_full_images(mp, images)

    def counting_text(mp, ids):
        text_calls.append(list(map(tuple, ids)))
        out = encode_text(mp, ids)
        text_widths.append(out.shape[1])
        return out

    def recording_fuse(mp, text, images, ids, capture=None):
        out = fuse(mp, text, images, ids, capture=capture)
        fuse_widths.append(out.shape[1])
        return out

    monkeypatch.setattr(evaluation, "encode_full_images", counting_images)
    monkeypatch.setattr(evaluation, "encode_text", counting_text)
    monkeypatch.setattr(evaluation, "fuse", recording_fuse)
    monkeypatch.setattr(evaluation, "DECODE_GROUP", 4)
    report = evaluate(mp, cfg, samples, root, vocab)
    seen_imgs = [i for call in image_calls for i in call]
    seen_ids = [t for call in text_calls for t in call]
    assert len(seen_imgs) == len(set(seen_imgs)) == len({s.image for s in samples})
    assert len(seen_ids) == len(set(seen_ids)) == len(set(questions)) > cfg.batch_size
    # one call per encoder, the ids as tokenize makes them; text runs up to the split's longest question
    assert len(image_calls) == len(text_calls) == 1 and {len(t) for t in seen_ids} == {cfg.max_text_len}
    lengths = [_question_len(q, cfg, vocab) for q in questions]
    assert text_widths == [max(lengths)] and max(lengths) < cfg.max_text_len
    # one fusion pass per decode group, cut after the group's longest question
    group_widths = [max(lengths[lo : lo + 4]) for lo in range(0, len(samples), 4)]
    assert fuse_widths == group_widths and len(set(group_widths)) >= 2
    assert [p["prediction"] for p in report.predictions] == [detokenize(a, vocab) for a in single]


def _record_greedy_loops(monkeypatch):
    """Patches evaluation.decode_answer to record its cached calls: one list
    per cache-creating call, holding each step's logits."""
    loops, decode = [], evaluation.decode_answer

    def recording(mp, fused, ids, prefix, cache=None):
        if cache is not None and "seen" not in cache:
            loops.append([])
        out = decode(mp, fused, ids, prefix, cache=cache)
        if cache is not None:
            loops[-1].append(out.data)
        return out

    monkeypatch.setattr(evaluation, "decode_answer", recording)
    return loops


def _per_question(loops):
    """Each question's step logits, from loops over consecutive questions."""
    return [[step[r] for step in loop] for loop in loops for r in range(len(loop[0]))]


def _close(a, ref):
    """a equals ref up to the last bits: within 1e-12 of ref's largest magnitude."""
    return a.shape == ref.shape and np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("group, loop_rows", [(8, [8, 4]), (3, [3, 3, 3, 3])], ids=["two chunks", "below a chunk"])
def test_evaluate_decodes_groups_of_chunks_like_each_chunk_alone(setup, monkeypatch, group, loop_rows):
    root, samples, cfg, _, vocab = setup
    # shortest questions first, so that the chunks differ in their longest one
    samples = sorted(samples, key=lambda s: _question_len(s.question, cfg, vocab))
    assert cfg.batch_size == 4 and len(samples) == 12
    imgs = [load_image(root / s.image, channels=1) for s in samples]
    questions = [s.question for s in samples]
    mp = _eos_biased_model(cfg, imgs, questions, vocab)
    single = [generate_answer(mp, cfg, img, q, vocab) for img, q in zip(imgs, questions)]
    assert 0 in {len(a) for a in single} and len({len(a) for a in single}) >= 2
    lengths = [_question_len(q, cfg, vocab) for q in questions]
    assert max(lengths[:4]) < max(lengths[4:8])

    loops = _record_greedy_loops(monkeypatch)
    with no_grad():
        enc = evaluation._encode(mp, imgs, questions, vocab)
        chunked = [a for lo in range(0, 12, 4) for a in evaluation._greedy(mp, *evaluation._fuse(mp, enc, slice(lo, lo + 4)), vocab)]
    per_chunk = _per_question(loops)
    assert [len(loop[0]) for loop in loops] == [4, 4, 4] and chunked == single

    loops.clear()
    monkeypatch.setattr(evaluation, "DECODE_GROUP", group)
    report = evaluate(mp, cfg, samples, root, vocab)
    # one cache-creating call per DECODE_GROUP questions, the last one partial
    assert [len(loop[0]) for loop in loops] == loop_rows
    grouped = _per_question(loops)
    # each loop runs every step its questions need, up to EOS, and may run on
    # beside its other questions; the steps both loops ran agree up to the
    # last bits, as each is cut after its own longest question
    needed = [min(len(a) + 1, cfg.max_answer_len - 1) for a in single]
    assert all(min(len(g), len(c)) >= n for g, c, n in zip(grouped, per_chunk, needed, strict=True))
    assert all(_close(a, ref) for g, c in zip(grouped, per_chunk) for a, ref in zip(g, c))
    assert [p["prediction"] for p in report.predictions] == [detokenize(a, vocab) for a in single]


def test_generate_answers_of_an_empty_or_uneven_batch(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    assert generate_answers(mp, [], [], vocab) == []
    with pytest.raises(ContractError):
        generate_answers(mp, [img, img], [samples[0].question], vocab)
    with pytest.raises(ContractError):
        generate_answers(mp, [], [samples[0].question], vocab)


def test_cached_decoding_matches_teacher_forcing(setup):
    root, samples, cfg, _, vocab = setup
    samples = samples[:7]
    imgs = [load_image(root / s.image, channels=1) for s in samples]
    questions = [s.question for s in samples]
    mp = _eos_biased_model(cfg, imgs, questions, vocab)
    answers = generate_answers(mp, imgs, questions, vocab)
    assert answers == [generate_answer(mp, cfg, img, q, vocab) for img, q in zip(imgs, questions)]
    assert 0 in {len(a) for a in answers} and len({len(a) for a in answers}) >= 2
    for img, q, tokens in zip(imgs, questions, answers):
        fused, ids, _ = fuse_question(mp, cfg, img, q, vocab)
        stopped_at_eos = len(tokens) < cfg.max_answer_len - 1
        expected = tokens + [EOS] * stopped_at_eos
        prefix = np.array([[BOS] + tokens])
        forced = decode_answer(mp, fused, ids, prefix).data[0, :, : len(vocab)]
        assert [int(np.argmax(row)) for row in forced[: len(expected)]] == expected
        cache = {}
        for t in range(len(expected)):
            step = decode_answer(mp, fused, ids, prefix[:, : t + 1], cache=cache).data
            assert step.shape == (1, 1, cfg.vocab_size)
            assert np.abs(step[0, -1, : len(vocab)] - forced[t]).max() <= 1e-12


def test_decode_cache_projects_cross_attention_only_up_to_the_batch_width(setup):
    root, samples, cfg, _, vocab = setup
    samples = samples[:7]
    imgs = [load_image(root / s.image, channels=1) for s in samples]
    questions = [s.question for s in samples]
    mp = _eos_biased_model(cfg, imgs, questions, vocab)
    fused, ids = evaluation._fuse_batch(mp, imgs, questions, vocab)
    width = max(_question_len(q, cfg, vocab) for q in questions)
    assert width < cfg.max_text_len and fused.shape[1] == width and ids.shape[1] == cfg.max_text_len
    # the control: the same rows padded to max_text_len with zero rows, every slot projected
    padded = Tensor(np.pad(fused.data, ((0, 0), (0, cfg.max_text_len - width), (0, 0))))
    prefix = np.concatenate(
        [np.full((len(ids), 1), BOS), np.random.default_rng(3).integers(0, len(vocab), (len(ids), cfg.max_answer_len - 1))],
        axis=1,
    )

    def cached_logits(fused, ids):
        cache = {}
        with no_grad():
            return cache, [decode_answer(mp, fused, ids, prefix[:, : t + 1], cache=cache).data for t in range(prefix.shape[1])]

    full_cache, full = cached_logits(padded, ids)
    cache, cut = cached_logits(fused, ids)
    # keys and values are projected from the CLS slot and the rows up to the
    # width, and cached at 1 + width slots
    assert cache["memory"][0].shape == (len(ids), 1 + width, cfg.dim)
    for i in range(cfg.depth_ans_dec):
        for t, control in zip(cache[f"ans_dec.{i}.xattn"], full_cache[f"ans_dec.{i}.xattn"]):
            assert t.shape == (len(ids), 1 + width, cfg.dim)
            assert control.shape == (len(ids), 1 + cfg.max_text_len, cfg.dim)
    # the control's slots past the width are masked, so the logits agree up to the last bits
    assert all(_close(a, b) for a, b in zip(cut, full, strict=True))
    with no_grad():
        assert _close(decode_answer(mp, fused, ids, prefix).data, decode_answer(mp, padded, ids, prefix).data)
    answers = generate_answers(mp, imgs, questions, vocab)
    assert answers == [generate_answer(mp, cfg, img, q, vocab) for img, q in zip(imgs, questions)]


def test_decode_cache_rejects_a_prefix_it_has_seen(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    fused, ids, _ = fuse_question(mp, cfg, img, samples[0].question, vocab)
    cache = {}
    decode_answer(mp, fused, ids, np.array([[BOS]]), cache=cache)
    with pytest.raises(ContractError):
        decode_answer(mp, fused, ids, np.array([[BOS]]), cache=cache)


def test_fuse_batch_encodes_each_distinct_input_once(setup, monkeypatch):
    root, samples, cfg, mp, vocab = setup
    picked = list({s.question: s for s in samples}.values())[:3]
    imgs = [load_image(root / s.image, channels=1) for s in picked]
    qs = [s.question for s in picked]
    assert len(set(qs)) == 3
    batch_imgs = [imgs[0], imgs[1], imgs[0], imgs[2], imgs[1]]
    batch_qs = [qs[0], qs[0], qs[1], qs[0], qs[2]]
    singles = []
    for img, q in zip(batch_imgs, batch_qs):
        capture = []
        fused, ids, _ = fuse_question(mp, cfg, img, q, vocab, capture=capture)
        singles.append((fused.data[0], ids[0], [c.data[0] for c in capture]))

    seen_imgs, seen_ids = [], []
    encode_full_images, encode_text = evaluation.encode_full_images, evaluation.encode_text

    def counting_images(mp, images):
        seen_imgs.extend(images)
        return encode_full_images(mp, images)

    def counting_text(mp, ids):
        seen_ids.extend(map(tuple, ids))
        return encode_text(mp, ids)

    monkeypatch.setattr(evaluation, "encode_full_images", counting_images)
    monkeypatch.setattr(evaluation, "encode_text", counting_text)
    capture = []
    fused, ids = evaluation._fuse_batch(mp, batch_imgs, batch_qs, vocab, capture=capture)
    assert [id(img) for img in seen_imgs] == [id(img) for img in imgs]
    assert len(seen_ids) == len(set(seen_ids)) == 3
    n = cfg.model_config().n_patches
    lengths = [_question_len(q, cfg, vocab) for q in batch_qs]
    assert len(set(lengths)) >= 2 and max(lengths) < cfg.max_text_len
    assert len(capture) == cfg.depth_fusion
    # text and fusion run on the columns up to the longest question; the ids are as tokenized
    assert all(c.shape == (5, cfg.heads, max(lengths), 1 + n) for c in capture)
    assert fused.shape == (5, max(lengths), cfg.dim) and ids.shape == (5, cfg.max_text_len)
    # the non-PAD rows, up to the last bits; a batch of one is cut after its own question
    for i, (f, row_ids, caps) in enumerate(singles):
        w = lengths[i]
        assert f.shape[0] == w and _close(fused.data[i, :w], f) and np.array_equal(ids[i], row_ids)
        assert (ids[i, w:] == PAD).all()
        assert all(_close(c.data[i, :, :w], one) for c, one in zip(capture, caps))


def test_fuse_batch_matches_full_width_ids_for_a_question_of_cls_alone(setup, monkeypatch):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    fused, ids = evaluation._fuse_batch(mp, [img], [""], vocab)
    assert (ids[0] != PAD).sum() == 1 and fused.shape[1] == 1
    # the reference runs text and fusion on all max_text_len columns
    monkeypatch.setattr(model, "text_width", lambda ids: ids.shape[1])
    full = fuse(mp, encode_text(mp, ids), encode_full_images(mp, [img]), ids)
    assert full.shape[1] == cfg.max_text_len and _close(fused.data[0, 0], full.data[0, 0])


def test_evaluate_records_no_tape(setup, monkeypatch):
    root, samples, cfg, mp, vocab = setup
    make = Tensor._make
    has_parents = []

    def recording_make(data, parents, backward):
        out = make(data, parents, backward)
        has_parents.append(bool(out._parents))
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    evaluate(mp, cfg, samples, root, vocab)
    assert has_parents and sum(has_parents) == 0


def test_write_report_files(setup, tmp_path):
    root, samples, cfg, mp, vocab = setup
    report = evaluate(mp, cfg, samples[:3], root, vocab)
    write_report(report, tmp_path)
    assert (tmp_path / "eval_report.txt").exists()
    lines = (tmp_path / "predictions.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3


def test_attention_map_shape_and_range(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    heat = attention_map(mp, cfg, img, samples[0].question, vocab)
    g = cfg.image_size // cfg.patch_size
    assert heat.shape == (g, g)
    assert heat.min() >= 0.0 and heat.max() <= 1.0


def test_attention_map_pure_mode_matches_capture(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    heat = attention_map(mp, cfg, img, samples[0].question, vocab, grad_weighted=False)
    capture = []
    _, _, grid = fuse_question(mp, cfg, img, samples[0].question, vocab, capture=capture)
    rows = capture[-1].data[0, :, 0, 1:].mean(axis=0)
    expected = (rows - rows.min()) / (rows.max() - rows.min())
    assert np.abs(heat.reshape(-1) - expected).max() < 1e-9


def test_attention_map_layer_out_of_range(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    with pytest.raises(IndexError):
        attention_map(mp, cfg, img, samples[0].question, vocab, layer=5)


def test_attention_map_grad_weighted_differs(setup):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    a = attention_map(mp, cfg, img, samples[0].question, vocab, grad_weighted=True)
    b = attention_map(mp, cfg, img, samples[0].question, vocab, grad_weighted=False)
    assert a.shape == b.shape
    assert not np.allclose(a, b)


def test_grad_weighted_map_follows_the_generated_first_token(setup):
    root, samples, cfg, _, vocab = setup
    mp = ModelParams(cfg.model_config(), np.random.default_rng(0))
    # head slots past the vocab's ids score highest, but no decoding emits them
    mp.params["ans_head.b"].data[len(vocab) :] = 10.0
    for s in samples[:4]:
        img = load_image(root / s.image, channels=1)
        answer = generate_answer(mp, cfg, img, s.question, vocab)
        first = answer[0] if answer else EOS
        capture = []
        fused, ids, grid = fuse_question(mp, cfg, img, s.question, vocab, capture=capture)
        logits = decode_answer(mp, fused, ids, np.array([[BOS]]))
        assert np.argmax(logits.data[0, -1]) >= len(vocab) > first
        mp.zero_grads()
        cross_entropy(logits[0, -1:], [first]).backward()  # descends log p(first)
        attn = capture[-1]
        rows = (attn.data * np.maximum(-attn.grad, 0.0))[0, :, 0, 1:].mean(axis=0)
        expected = ((rows - rows.min()) / (rows.max() - rows.min())).reshape(grid)
        assert all(t.grad is not None for t in mp.params.values())
        mp.zero_grads()
        heat = attention_map(mp, cfg, img, s.question, vocab)
        assert np.array_equal(heat, expected)
        # it reads only the captured map's gradient and leaves none on the model
        assert all(t.grad is None for t in mp.params.values())


def test_attention_map_tape_reaches_no_parameter(setup, monkeypatch):
    root, samples, cfg, mp, vocab = setup
    img = load_image(root / samples[0].image, channels=1)
    make = Tensor._make
    parents = []

    def recording_make(data, ps, backward):
        out = make(data, ps, backward)
        parents.extend(out._parents)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    attention_map(mp, cfg, img, samples[0].question, vocab)
    params = {id(t) for t in mp.params.values()}
    assert parents and not any(id(p) in params for p in parents)
    # the parameters it read are mp's own arrays, and mp is left as it was
    arrays = {id(t.data) for t in mp.params.values()}
    assert any(id(p.data) in arrays for p in parents)
    assert all(t.requires_grad and t.grad is None for t in mp.params.values())


def test_write_heatmap_roundtrip(setup, tmp_path):
    root, samples, cfg, mp, vocab = setup
    heat = np.linspace(0, 1, 4).reshape(2, 2)
    path = tmp_path / "h.pgm"
    write_heatmap(path, heat, upsample=4)
    img = load_image(path, channels=1)
    assert img.pixels.shape == (8, 8, 1)
    assert img.pixels[0, 0, 0] == pytest.approx(0.0)
    assert img.pixels[-1, -1, 0] == pytest.approx(1.0)
