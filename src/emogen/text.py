"""Vocabulary, tokenization, sequence encoding and batching, and run-file I/O.

Word-level tokens only: text is lowercased and split on whitespace with
punctuation as separate tokens. Four ids are reserved and never reassigned:
PAD=0, BOS=1, EOS=2, UNK=3.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

ROLE_UTTERANCE = "utterance"
ROLE_RESPONSE = "response"
ROLE_DECODER_INPUT = "decoder_input"


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; one that cannot be read as such is a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return [line.rstrip("\n") for line in f]
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


@contextlib.contextmanager
def replacing(path):
    """Yield a temporary name that replaces ``path`` only when the block succeeds."""
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    """Replace ``path`` whole with UTF-8 ``text``; a failure is a ConfigError naming the path."""
    try:
        with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"{path}: cannot write: {e.strerror}") from e


def make_dirs(path) -> Path:
    """Make directory ``path`` and its parents; a failure is a ConfigError naming the path."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{path}: cannot make directory: {e.strerror}") from e
    return path


class Vocab:
    """Bijective token/id map over the non-reserved entries."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id: dict[str, int] = {
            t: i for i, t in enumerate(self.id_to_token)
        }
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map ids back to tokens, dropping PAD/BOS/EOS."""
        out = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            out.append(self.id_to_token[i])
        return out

    def save(self, path) -> None:
        write_text(path, "".join(token + "\n" for token in self.id_to_token))

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = read_lines(path)
        if len(lines) < 4 or tuple(lines[:4]) != RESERVED_TOKENS:
            raise DataError(f"{path}: missing reserved-token header")
        return cls(lines[4:])


def build_vocab(corpus: Iterable[str], min_count: int = 1) -> Vocab:
    """Count tokens over the corpus lines and keep those seen >= min_count.

    Ids are assigned by descending frequency, ties broken lexicographically,
    so the same corpus always produces the same vocabulary.
    """
    counts: Counter[str] = Counter()
    seen_any = False
    for line in corpus:
        seen_any = True
        counts.update(tokenize(line))
    if not seen_any or not counts:
        raise DataError("empty corpus: cannot build a vocabulary")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocab(kept)


@dataclass
class TokenSeq:
    ids: list[int]
    role: str


def encode(text: str, vocab: Vocab, max_len: int = 64, role: str = ROLE_UTTERANCE) -> TokenSeq:
    """Tokenize, map to ids, append EOS, and truncate keeping the prefix.

    The terminal EOS survives truncation: a too-long sequence is cut to
    max_len with its last id forced to EOS.
    """
    if max_len < 2:
        raise ConfigError(f"max_len must be at least 2, got {max_len}")
    ids = [vocab.id_of(t) for t in tokenize(text)]
    ids.append(EOS_ID)
    if len(ids) > max_len:
        ids = ids[:max_len]
        ids[-1] = EOS_ID
    return TokenSeq(ids, role)


def shift_right(target: TokenSeq) -> TokenSeq:
    """Prepend BOS and drop the final token; length is preserved.

    Decoder input for the generation task comes from the response, and for
    classification tasks from the utterance itself.
    """
    if target.role == ROLE_DECODER_INPUT:
        raise DataError("sequence is already a decoder input")
    if not target.ids:
        raise DataError("cannot right-shift an empty sequence")
    return TokenSeq([BOS_ID] + target.ids[:-1], ROLE_DECODER_INPUT)


def pad_batch(seqs: Sequence[TokenSeq], pad_id: int = PAD_ID) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad to the batch max length; mask marks the real tokens."""
    if not seqs:
        raise DataError("cannot pad an empty batch")
    max_len = max(len(s.ids) for s in seqs)
    ids = np.full((len(seqs), max_len), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), max_len), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : len(s.ids)] = s.ids
        mask[i, : len(s.ids)] = True
    return ids, mask
