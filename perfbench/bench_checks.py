"""Correctness checks, each computed apart from the program or a property the
method must have. Every check returns a list of failure messages; an empty
list means it passed.
"""

from __future__ import annotations

import math
import re

import numpy as np

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
BOS_ID = 1
EOS_ID = 2


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def brute_force_bleu(hypotheses: list[str], references: list[str]) -> float:
    """Corpus BLEU-4 as pinned in the package README, by explicit counting.

    Clipped modified precisions summed over the corpus, a zero precision
    floored at 1 / (2 * candidate n-gram count) with the count at least 1,
    and brevity penalty exp(1 - r/c) when the candidates are shorter.
    """
    hyps = [_tokens(h) for h in hypotheses]
    refs = [_tokens(r) for r in references]
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        clipped = total = 0
        for hyp, ref in zip(hyps, refs):
            grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            total += len(grams)
            for g in set(grams):
                clipped += min(grams.count(g), ref_grams.count(g))
        p = clipped / total if clipped else 1.0 / (2.0 * max(1, total))
        log_sum += math.log(p)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / 4.0)


def check_bleu(reported: float, hypotheses: list[str], references: list[str]) -> list[str]:
    want = brute_force_bleu(hypotheses, references)
    if abs(reported - want) > 1e-9:
        return [f"reported bleu {reported!r} != brute-force bleu {want!r}"]
    return []


def repeated_trigram(ids: list) -> tuple | None:
    """The first trigram that occurs twice in ``ids``, or None."""
    seen = set()
    for i in range(len(ids) - 2):
        gram = tuple(ids[i : i + 3])
        if gram in seen:
            return gram
        seen.add(gram)
    return None


def check_no_repeated_trigram(sequences: list[list]) -> list[str]:
    out = []
    for i, seq in enumerate(sequences):
        gram = repeated_trigram(seq)
        if gram is not None:
            out.append(f"hypothesis {i} repeats the trigram {gram}")
    return out


def check_max_len(id_sequences: list[list[int]], lines: list[str], max_len: int) -> list[str]:
    """Decoded ids (EOS included) fit in ``max_len``; written words in one less."""
    out = []
    for i, ids in enumerate(id_sequences):
        if len(ids) > max_len or not ids or ids[-1] != EOS_ID:
            out.append(f"hypothesis {i} has {len(ids)} ids, limit {max_len}, ending {ids[-1:]}")
    for i, line in enumerate(lines):
        if len(line.split()) > max_len - 1:
            out.append(f"output line {i} has {len(line.split())} words, limit {max_len - 1}")
    return out


def check_accuracy(pred: list[str], gold: list[str], floor: float) -> list[str]:
    if len(pred) != len(gold):
        return [f"{len(pred)} predictions for {len(gold)} gold labels"]
    acc = sum(p == g for p, g in zip(pred, gold)) / len(gold)
    if acc < floor:
        return [f"accuracy {acc:.4f} against the written gold labels is below {floor}"]
    return []


def check_gradients(analytic: np.ndarray, numeric: np.ndarray) -> list[str]:
    """At least 99% of entries agree within 1e-3 relative error (floor 1e-8)."""
    scale = np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(numeric)))
    share = float((np.abs(analytic - numeric) / scale < 1e-3).mean())
    if share < 0.99:
        return [f"only {share:.4f} of {analytic.size} sampled gradient entries within 1e-3"]
    return []


def check_falling(valid_losses: list[dict]) -> list[str]:
    """Each task's validation loss after the last epoch is below the first."""
    first, last = valid_losses[0], valid_losses[-1]
    return [
        f"validation loss of {task} did not fall: {first[task]!r} -> {last[task]!r}"
        for task in first
        if not last[task] < first[task]
    ]


def banned_next(ids: list[int], n: int = 3) -> set[int]:
    """Tokens that would complete an n-gram already present in ``ids``."""
    if len(ids) < n - 1:
        return set()
    tail = ids[len(ids) - n + 1 :]
    return {ids[i + n - 1] for i in range(len(ids) - n + 1) if ids[i : i + n - 1] == tail}


def greedy_decode(logits_of_prefix, max_len: int) -> list[int]:
    """Greedy decoding that re-scores the whole prefix at every step.

    ``logits_of_prefix(ids)`` returns next-token logits for the prefix
    ``ids``. Ties go to the lowest token id, and a token that would repeat a
    trigram is banned. Returns the generated ids with a final EOS, as the
    package's beam search does.
    """
    ids = [BOS_ID]
    while len(ids) < max_len:
        row = np.asarray(logits_of_prefix(ids), dtype=np.float64)
        logp = row - row.max()
        logp = logp - np.log(np.exp(logp).sum())
        for t in banned_next(ids):
            logp[t] = -np.inf
        best = int(np.argmax(logp))
        ids.append(best)
        if best == EOS_ID:
            break
    tokens = ids[1:]
    if tokens[-1] != EOS_ID:
        tokens.append(EOS_ID)
    return tokens
