"""Tokenization, vocabulary building, and masked-language-model sampling.

The vocabulary is learned by greedy frequency-based subword merges over a
character-level initialization (ties broken lexicographically), and text is
encoded by greedy longest-match against the learned pieces. Continuation
pieces carry a ``##`` prefix. Reserved ids 0..6 are fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

PAD, CLS, SEP, MASK, UNK, BOS, EOS = range(7)
RESERVED = ["<pad>", "<cls>", "<sep>", "<mask>", "<unk>", "<bos>", "<eos>"]
CONT = "##"

_WS = re.compile(r"\s+")


def normalize(text: str) -> str:
    return _WS.sub(" ", text.lower()).strip()


@dataclass
class Vocab:
    tokens: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.tokens[:7] != RESERVED:
            raise ConfigError("vocab must start with the 7 reserved tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ConfigError("duplicate token in vocab")

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as f:
            return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])


@dataclass
class MaskedText:
    ids: np.ndarray  # [max_len] int64, CLS first, PAD tail
    mask_positions: np.ndarray  # sorted int64 indices into ids
    mask_labels: np.ndarray  # original ids at mask_positions
    degenerate: bool = False  # no maskable position existed


def build_vocab(corpus, max_size: int) -> Vocab:
    """Learn subword pieces by greedy most-frequent adjacent merges."""
    if max_size < len(RESERVED):
        raise ConfigError(f"max_size must be >= {len(RESERVED)}")
    words: dict[tuple[str, ...], int] = {}
    for line in corpus:
        for w in normalize(line).split():
            key = (w[0],) + tuple(CONT + c for c in w[1:])
            words[key] = words.get(key, 0) + 1
    if not words:
        raise ConfigError("corpus is empty")

    pieces = dict.fromkeys(RESERVED)
    for w in words:
        for sym in w:
            pieces.setdefault(sym)

    def merge_sym(a: str, b: str) -> str:
        return a + b[len(CONT):] if b.startswith(CONT) else a + b

    while len(pieces) < max_size:
        pair_freq: dict[tuple[str, str], int] = {}
        for w, n in words.items():
            for a, b in zip(w, w[1:]):
                pair_freq[(a, b)] = pair_freq.get((a, b), 0) + n
        if not pair_freq:
            break
        # most frequent pair; lexicographically smallest among ties
        top = max(pair_freq.values())
        best = min(p for p, n in pair_freq.items() if n == top)
        merged = merge_sym(*best)
        pieces.setdefault(merged)
        new_words: dict[tuple[str, ...], int] = {}
        for w, n in words.items():
            out: list[str] = []
            i = 0
            while i < len(w):
                if i + 1 < len(w) and (w[i], w[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(w[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + n
        words = new_words
    return Vocab(list(pieces)[:max_size])


def _encode_word(word: str, vocab: Vocab) -> list[int]:
    """Greedy longest-match piece ids of one word. A reserved token spelled
    out in text is no piece, so text never yields a reserved id but UNK."""
    ids: list[int] = []
    i = 0
    while i < len(word):
        prefix = CONT if i > 0 else ""
        j = len(word)
        while j > i:
            piece = vocab.token_to_id.get(prefix + word[i:j], PAD)
            if piece >= len(RESERVED):
                ids.append(piece)
                break
            j -= 1
        else:
            ids.append(UNK)
            j = i + 1
        i = j
    return ids


def tokenize(text: str, vocab: Vocab, max_len: int) -> np.ndarray:
    """Encode to [max_len] ids: CLS + greedy longest-match pieces + PAD tail."""
    if max_len < 2:
        raise ConfigError("max_len must be >= 2")
    ids = ([CLS] + encode_plain(text, vocab))[:max_len]
    ids += [PAD] * (max_len - len(ids))
    return np.array(ids, dtype=np.int64)


def detokenize(ids, vocab: Vocab) -> str:
    words: list[str] = []
    for i in ids:
        i = int(i)
        if i < len(RESERVED):
            continue
        tok = vocab.tokens[i]
        if tok.startswith(CONT) and words:
            words[-1] += tok[len(CONT):]
        else:
            words.append(tok)
    return " ".join(words)


def encode_plain(text: str, vocab: Vocab) -> list[int]:
    """Subword ids for normalized text, no CLS/PAD framing."""
    ids: list[int] = []
    for word in normalize(text).split():
        ids.extend(_encode_word(word, vocab))
    return ids


def extend_vocab(vocab: Vocab, corpus, max_size: int) -> Vocab:
    """Add missing characters, then missing whole words, from a new corpus.

    Used when finetuning text (questions, answers) contains words the
    pretraining captions never produced pieces for; extension is append-only
    so existing ids are stable. Deterministic: additions in sorted order.
    """
    tokens = list(vocab.tokens)
    have = set(tokens)
    chars: set[str] = set()
    words: set[str] = set()
    for line in corpus:
        for w in normalize(line).split():
            words.add(w)
            chars.add(w[0])
            chars.update(CONT + c for c in w[1:])
    for c in sorted(chars - have):
        tokens.append(c)
        have.add(c)
    for w in sorted(words - have):
        tokens.append(w)
        have.add(w)
    if len(tokens) > max_size:
        raise ConfigError(f"extended vocab size {len(tokens)} exceeds {max_size}")
    return Vocab(tokens)


def mask_tokens(ids: np.ndarray, vocab: Vocab, rate: float, rng: np.random.Generator) -> MaskedText:
    """Mask each non-special position independently with probability ``rate``.

    If the draw masks nothing, one maskable position is force-masked so the
    sample still carries MLM signal. Sequences with no maskable position are
    returned unmasked and flagged.
    """
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"mask rate must be in (0,1), got {rate}")
    ids = np.asarray(ids, dtype=np.int64)
    maskable = np.nonzero(ids >= len(RESERVED))[0]
    empty = np.array([], dtype=np.int64)
    if maskable.size == 0:
        return MaskedText(ids.copy(), empty, empty, degenerate=True)
    picked = maskable[rng.random(maskable.size) < rate]
    if picked.size == 0:
        picked = np.array([rng.choice(maskable)], dtype=np.int64)
    picked = np.sort(picked)
    out = ids.copy()
    labels = out[picked].copy()
    out[picked] = MASK
    return MaskedText(out, picked, labels)
