"""Beam search with no-repeat n-gram blocking.

The search keeps hypotheses in lockstep: every live hypothesis has the same
length, one batched model call scores all of them per step. A candidate that
would recreate an n-gram already present in its own hypothesis is banned
before top-k selection. EOS candidates retire a hypothesis only when they
rank inside the top beam_width, which makes beam width 1 coincide exactly
with greedy decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .tensor import _log_softmax
from .text import BOS_ID, EOS_ID, ROLE_RESPONSE, TokenSeq, Vocab, encode, write_text

NEG_INF = float("-inf")


@dataclass
class BeamConfig:
    beam_width: int = 5
    max_len: int = 64
    no_repeat_ngram: int = 3
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.no_repeat_ngram < 0:
            raise ConfigError("no_repeat_ngram must be >= 0 (0 disables blocking)")
        if self.max_len < 2:
            raise ConfigError("max_len must be at least 2")


@dataclass
class Hypothesis:
    ids: list[int]  # starts with BOS
    log_prob: float


def banned_tokens(ids: list[int], n: int) -> set[int]:
    """Tokens that would complete an n-gram already present in ``ids``."""
    if n <= 0 or len(ids) < n - 1:
        return set()
    prefix = tuple(ids[len(ids) - (n - 1) :])
    banned = set()
    for i in range(len(ids) - n + 1):
        if tuple(ids[i : i + n - 1]) == prefix:
            banned.add(ids[i + n - 1])
    return banned


def top_candidates(scores: np.ndarray, limit: int) -> list[tuple[float, int, int]]:
    """The ``limit`` best finite (score, token, beam) entries of a (beams, V) array.

    Ordered by score descending, then token ascending, then beam ascending.
    """
    beams, tokens = np.nonzero(scores > NEG_INF)
    values = scores[beams, tokens]
    order = np.lexsort((beams, tokens, -values))[:limit]
    return [(values[j], int(tokens[j]), int(beams[j])) for j in order]


def _score(hyp: Hypothesis, length_penalty: float) -> float:
    gen_len = max(1, len(hyp.ids) - 1)
    return hyp.log_prob / (gen_len**length_penalty)


def beam_search(model, utterance: TokenSeq, config: BeamConfig) -> TokenSeq:
    """Best finished hypothesis under length-penalized log-probability.

    ``model`` only needs ``begin_decode(ids)`` and
    ``next_token_logits(ctx, prefixes)``; anything implementing those two is
    decodable, which is what the enumeration tests exploit.
    """
    k = config.beam_width
    ctx = model.begin_decode(utterance.ids)
    live = [Hypothesis([BOS_ID], 0.0)]
    last_live = live
    finished: list[Hypothesis] = []

    while live and len(finished) < k:
        last_live = live
        logits = model.next_token_logits(ctx, [h.ids for h in live])
        logp = _log_softmax(np.asarray(logits, dtype=np.float64), -1)
        scores = logp + np.array([[h.log_prob] for h in live])
        for bi, h in enumerate(live):
            for t in banned_tokens(h.ids, config.no_repeat_ngram):
                scores[bi, t] = NEG_INF
        next_live: list[Hypothesis] = []
        for rank, (score, token, bi) in enumerate(top_candidates(scores, 2 * k)):
            parent = live[bi]
            if token == EOS_ID:
                # EOS retires a hypothesis only from inside the top k.
                if rank < k:
                    finished.append(Hypothesis(parent.ids + [token], score))
            elif len(next_live) < k:
                hyp = Hypothesis(parent.ids + [token], score)
                if len(hyp.ids) >= config.max_len:
                    finished.append(hyp)
                else:
                    next_live.append(hyp)
            if len(finished) >= k and len(next_live) >= k:
                break
        live = next_live

    pool = finished or live or last_live
    best = max(
        enumerate(pool),
        key=lambda item: (_score(item[1], config.length_penalty), -item[0]),
    )[1]
    tokens = best.ids[1:]
    if not tokens or tokens[-1] != EOS_ID:
        tokens = tokens + [EOS_ID]
    return TokenSeq(tokens, ROLE_RESPONSE)


def generate_file(model, vocab: Vocab, input_path, output_path, config: BeamConfig) -> int:
    """Decode one response per input line, preserving order.

    Returns the number of lines written. An input that cannot be read is a
    data error naming the path; data errors on a line, including a line
    that is not UTF-8, carry the input line number; configuration and
    numeric errors pass through unchanged.
    """
    try:
        with open(input_path, "rb") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise DataError(f"{input_path}: cannot read input: {e.strerror}") from e
    outputs = []
    for lineno, line in enumerate(lines, start=1):
        try:
            seq = encode(line.decode("utf-8"), vocab, config.max_len)
            result = beam_search(model, seq, config)
        except (UnicodeDecodeError, DataError) as e:
            raise DataError(f"{input_path}:{lineno}: decoding failed: {e}") from e
        outputs.append(" ".join(vocab.decode(result.ids)))
    write_text(output_path, "".join(line + "\n" for line in outputs))
    return len(outputs)
