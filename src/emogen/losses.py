"""Negative log-likelihood losses for generation and classification.

Both losses share one log-softmax kernel, so the smoothed sequence loss with
epsilon=0 reproduces the plain classification loss bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .tensor import Tensor, getitem, log_softmax, neg, tmean


def label_smoothed_nll(
    logits: Tensor,
    targets,
    epsilon: float,
    ignore_index: int = 0,
) -> Tensor:
    """Mean smoothed NLL over the non-ignored rows of ``logits``.

    ``logits`` is (N, V); ``targets`` is a length-N integer vector. Each kept
    row contributes -[(1-eps) * log p(target) + eps * mean_v log p(v)], with
    the smoothing mass spread uniformly over the full vocabulary including
    the target. Rows whose target equals ``ignore_index`` (padding) are
    dropped before the mean.
    """
    if not 0.0 <= epsilon < 1.0:
        raise NumericError(f"label smoothing must lie in [0, 1), got {epsilon}")
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise NumericError(f"expected 2-d logits, got shape {logits.shape}")
    n, vocab = logits.shape
    if targets.shape != (n,):
        raise NumericError(
            f"targets shape {targets.shape} does not match {n} logit rows"
        )
    keep = np.flatnonzero(targets != ignore_index)
    if keep.size == 0:
        raise NumericError("all positions ignored: smoothed NLL undefined")
    kept_targets = targets[keep]
    if kept_targets.min() < 0 or kept_targets.max() >= vocab:
        raise NumericError(
            f"target id out of range for vocabulary of size {vocab}"
        )
    logp = log_softmax(getitem(logits, keep), axis=-1)
    gold = getitem(logp, (np.arange(keep.size), kept_targets))
    if epsilon == 0.0:
        return tmean(neg(gold))
    uniform = tmean(logp, axis=-1)
    per_pos = neg(gold * (1.0 - epsilon) + uniform * epsilon)
    return tmean(per_pos)


def classification_nll(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] for a single class-logit vector."""
    if logits.ndim != 1:
        raise NumericError(f"expected 1-d class logits, got shape {logits.shape}")
    c = logits.shape[0]
    if not 0 <= label < c:
        raise NumericError(f"label {label} out of range for {c} classes")
    logp = log_softmax(logits, axis=-1)
    return neg(getitem(logp, label))


def batch_classification_nll(logits: Tensor, labels) -> Tensor:
    """Mean classification NLL over a batch; thin wrapper used in training."""
    return label_smoothed_nll(logits, labels, epsilon=0.0, ignore_index=-1)
