import numpy as np
import pytest

from m2i2.errors import ConfigError
from m2i2 import text as T
from m2i2.text import (
    CLS,
    MASK,
    PAD,
    RESERVED,
    UNK,
    Vocab,
    build_vocab,
    detokenize,
    encode_plain,
    mask_tokens,
    tokenize,
)


@pytest.fixture
def vocab():
    corpus = [
        "a small bright circle in the upper left",
        "a large dark square in the lower right",
        "a small dark cross in the center",
    ]
    return build_vocab(corpus * 4, max_size=128)


class TestBuildVocab:
    def test_tiny_corpus_merges(self):
        # hand enumeration: chars {a, ##a, ##b}; pair (a,##a) occurs twice,
        # (a,##b) once, so "aa" merges first, then "ab" fills to max_size=12
        v = build_vocab(["aa", "aa", "ab"], max_size=12)
        assert "a" in v.token_to_id
        assert "aa" in v.token_to_id

    def test_empty_corpus_errors(self):
        with pytest.raises(ConfigError):
            build_vocab([], max_size=32)
        with pytest.raises(ConfigError):
            build_vocab(["   "], max_size=32)

    def test_max_size_below_reserved_errors(self):
        with pytest.raises(ConfigError):
            build_vocab(["abc"], max_size=6)

    def test_deterministic(self, vocab):
        corpus = ["a small bright circle in the upper left"] * 3
        assert build_vocab(corpus, 64).tokens == build_vocab(corpus, 64).tokens

    def test_reserved_always_present(self, vocab):
        assert vocab.tokens[:7] == T.RESERVED


class TestTokenize:
    def test_empty_text(self, vocab):
        ids = tokenize("", vocab, max_len=8)
        assert ids[0] == CLS
        assert (ids[1:] == PAD).all()

    def test_roundtrip(self, vocab):
        s = "a small dark circle in the lower left"
        assert detokenize(tokenize(s, vocab, 32), vocab) == s

    def test_roundtrip_normalizes_whitespace(self, vocab):
        assert detokenize(tokenize("  A  Small\tCircle ", vocab, 32), vocab) == "a small circle"

    def test_unknown_char_maps_to_unk(self, vocab):
        ids = tokenize("a Ω circle", vocab, 32)
        assert UNK in ids

    def test_truncation_and_padding(self, vocab):
        ids = tokenize("a small bright circle in the upper left", vocab, 4)
        assert ids.shape == (4,)
        assert PAD not in ids

    def test_max_len_too_small(self, vocab):
        with pytest.raises(ConfigError):
            tokenize("a", vocab, 1)

    @pytest.mark.parametrize("text", ["where is the <pad>", "<eos> <pad> circle", "<cls><mask>", "circle<bos>"])
    def test_text_spelling_a_reserved_token_yields_no_reserved_id_but_unk(self, vocab, text):
        # a PAD or EOS in a row would hide tokens from attention or end decoding
        ids = tokenize(text, vocab, 32)
        real = ids[1 : 1 + len(encode_plain(text, vocab))]
        assert ids[0] == CLS and real.size and ((real >= len(RESERVED)) | (real == UNK)).all()
        assert (ids[1 + real.size :] == PAD).all()


class TestVocabIO:
    def test_save_load_roundtrip(self, vocab, tmp_path):
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        assert Vocab.load(p).tokens == vocab.tokens

    def test_line_number_is_id(self, vocab, tmp_path):
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        lines = p.read_text().splitlines()
        assert lines[vocab.token_to_id["circle"]] == "circle"


class TestMaskTokens:
    def test_mask_rate_statistics(self, vocab):
        # 3-sigma binomial band around 0.15 per the pretraining recipe
        rng = np.random.default_rng(0)
        long_caption = " ".join(["a small bright circle in the upper left"] * 16)
        ids = tokenize(long_caption, vocab, 160)
        total = masked = 0
        while total < 10_000:
            mt = mask_tokens(ids, vocab, 0.15, rng)
            maskable = (ids >= 7).sum()
            total += maskable
            masked += len(mt.mask_positions)
        assert 0.13 <= masked / total <= 0.17

    def test_force_mask_one_at_tiny_rate(self, vocab):
        rng = np.random.default_rng(1)
        ids = tokenize("a small circle", vocab, 16)
        for _ in range(20):
            assert len(mask_tokens(ids, vocab, 1e-9, rng).mask_positions) == 1

    def test_masked_positions_hold_mask_token(self, vocab):
        rng = np.random.default_rng(2)
        ids = tokenize("a large dark square in the lower right", vocab, 24)
        mt = mask_tokens(ids, vocab, 0.3, rng)
        assert (mt.ids[mt.mask_positions] == MASK).all()
        untouched = np.setdiff1d(np.arange(len(ids)), mt.mask_positions)
        assert (mt.ids[untouched] == ids[untouched]).all()

    def test_cls_never_masked(self, vocab):
        rng = np.random.default_rng(3)
        ids = tokenize("a small circle", vocab, 8)
        for _ in range(200):
            mt = mask_tokens(ids, vocab, 0.9, rng)
            assert 0 not in mt.mask_positions
            assert mt.ids[0] == CLS

    def test_scatter_back_restores_original(self, vocab):
        rng = np.random.default_rng(4)
        ids = tokenize("a small bright cross in the center", vocab, 24)
        mt = mask_tokens(ids, vocab, 0.5, rng)
        restored = mt.ids.copy()
        restored[mt.mask_positions] = mt.mask_labels
        assert np.array_equal(restored, ids)

    def test_no_maskable_positions_flagged(self, vocab):
        mt = mask_tokens(tokenize("", vocab, 8), vocab, 0.15, np.random.default_rng(0))
        assert mt.degenerate
        assert len(mt.mask_positions) == 0

    def test_reproducible_with_fixed_seed(self, vocab):
        ids = tokenize("a small bright circle in the upper left", vocab, 16)
        a = mask_tokens(ids, vocab, 0.15, np.random.default_rng(9))
        b = mask_tokens(ids, vocab, 0.15, np.random.default_rng(9))
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.mask_positions, b.mask_positions)

    def test_bad_rate(self, vocab):
        ids = tokenize("a", vocab, 4)
        with pytest.raises(ConfigError):
            mask_tokens(ids, vocab, 0.0, np.random.default_rng(0))
