import numpy as np
import pytest

from emogen.model import ModelConfig, init_parameters


class FullPrefixModel:
    """Reference decoder: re-runs ``forward_generation`` over every whole prefix."""

    def __init__(self, model):
        self.model = model

    def begin_decode(self, utterance_ids):
        return {"enc_ids": np.asarray([utterance_ids])}

    def next_token_logits(self, ctx, prefixes):
        enc = np.repeat(ctx["enc_ids"], len(prefixes), axis=0)
        with self.model.evaluating():
            out = self.model.forward_generation(enc, np.ones_like(enc, dtype=bool),
                                                np.asarray(prefixes))
        return out.data[:, -1]


@pytest.fixture
def tiny_config():
    """A deliberately small model (<5k parameters) for gradient checks."""
    return ModelConfig(
        vocab_size=12,
        d_model=8,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=16,
        max_len=8,
        dropout=0.0,
        cls_heads=(("e6", 6), ("e2", 2)),
    )


@pytest.fixture
def tiny_model(tiny_config):
    return init_parameters(tiny_config, seed=0)


@pytest.fixture
def tiny_batch():
    rng = np.random.default_rng(3)
    b, s, t = 3, 6, 5
    enc = rng.integers(4, 12, (b, s))
    enc[:, -2] = 2
    enc[:, -1] = 0
    mask = np.ones((b, s), dtype=bool)
    mask[:, -1] = False
    dec = rng.integers(4, 12, (b, t))
    dec[:, 0] = 1
    targets = rng.integers(4, 12, (b, t))
    targets[:, -1] = 0  # padded position, ignored by the loss
    return {"enc_ids": enc, "enc_mask": mask, "dec_ids": dec, "targets": targets}


def finite_difference(loss_fn, params, h=1e-4, rng=None, max_per_param=None):
    """Central finite differences for every (or a sample of) parameter entry.

    Returns (analytic, numeric) flat arrays aligned entry for entry.
    """
    analytic = []
    numeric = []
    for _, p in params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        idx = range(flat.size)
        if max_per_param is not None and flat.size > max_per_param:
            idx = rng.choice(flat.size, size=max_per_param, replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            up = loss_fn()
            flat[i] = old - h
            down = loss_fn()
            flat[i] = old
            numeric.append((up - down) / (2.0 * h))
            analytic.append(gflat[i])
    return np.array(analytic), np.array(numeric)


def relative_error(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
