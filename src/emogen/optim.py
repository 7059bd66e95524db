"""Adam with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import NumericError
from .tensor import Tensor


class AdamW:
    """Bias-corrected Adam update with decoupled weight decay.

    Decay multiplies each parameter by (1 - lr * weight_decay) before the
    moment-based step, so it never leaks into the gradient statistics.
    Gradients themselves are left untouched; callers set them before each step.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 3e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = dict(params)
        self.learning_rate = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.first_moment = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.second_moment = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self) -> None:
        """Apply one update to every parameter; requires all grads present."""
        for name, p in self.params.items():
            if p.grad is None:
                raise NumericError(f"missing gradient for parameter '{name}'")
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            m = self.first_moment[name]
            v = self.second_moment[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay != 0.0:
                p.data *= 1.0 - self.learning_rate * self.weight_decay
            p.data -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.epsilon)


def clip_global_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Scale all grads in place so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
