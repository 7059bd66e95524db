"""Shared transformer encoder-decoder with one LM head and per-task CLS heads.

The architecture keeps the mechanism of a BART-style model at desk scale:
learned positional embeddings, pre-norm blocks, GELU feed-forward layers,
an LM head weight-tied to the token embedding, and one linear CLS head per
classification task reading the decoder state at the final non-pad position.
No parameters are private to a task except its own CLS head.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError
from . import tensor as T
from .tensor import Tensor
from .text import BOS_ID, PAD_ID, replacing

_MASK_VALUE = -1e9
_FILL = {"zeros": 0.0, "ones": 1.0}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 512
    max_len: int = 64
    dropout: float = 0.1
    cls_heads: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"n_heads={self.n_heads} must be >= 1 and divide d_model={self.d_model}"
            )
        if self.vocab_size < 5:
            raise ConfigError("vocab_size must cover the 4 reserved ids")
        if self.max_len < 2:
            raise ConfigError("max_len must be at least 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        names = [name for name, _ in self.cls_heads]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate cls head names: {names}")
        for name, n_labels in self.cls_heads:
            if n_labels < 2:
                raise ConfigError(f"cls head '{name}' needs at least 2 labels")

    def to_dict(self) -> dict:
        return {**asdict(self), "cls_heads": [list(h) for h in self.cls_heads]}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["cls_heads"] = tuple((name, int(n)) for name, n in d.get("cls_heads", []))
        return cls(**d)


def _layout(config: ModelConfig):
    """Yield (name, shape, init) for every parameter, in checkpoint order.

    ``init`` is ``normal`` (N(0, 0.02)), ``zeros`` or ``ones``. K has no bias:
    softmax over keys ignores the constant ``q·b_k`` it would add to a query's
    scores. The LM head is tied to ``emb.weight``.
    """
    d, f = config.d_model, config.d_ff

    def linear(prefix, n_in, n_out, bias=True):
        yield f"{prefix}.w", (n_in, n_out), "normal"
        if bias:
            yield f"{prefix}.b", (n_out,), "zeros"

    def layer_norm(prefix):
        yield f"{prefix}.w", (d,), "ones"
        yield f"{prefix}.b", (d,), "zeros"

    def attention(prefix):
        for part in ("q", "k", "v", "o"):
            yield from linear(f"{prefix}.{part}", d, d, bias=part != "k")

    def block(prefix, attentions):
        # ln1, attention 1, [ln2, attention 2,] then a norm and the FFN.
        for j, name in enumerate(attentions, 1):
            yield from layer_norm(f"{prefix}.ln{j}")
            yield from attention(f"{prefix}.{name}")
        yield from layer_norm(f"{prefix}.ln{len(attentions) + 1}")
        yield from linear(f"{prefix}.ffn.1", d, f)
        yield from linear(f"{prefix}.ffn.2", f, d)

    yield "emb.weight", (config.vocab_size, d), "normal"
    yield "pos.weight", (config.max_len, d), "normal"
    for i in range(config.n_enc_layers):
        yield from block(f"enc.{i}", ("attn",))
    yield from layer_norm("enc.final_ln")
    for i in range(config.n_dec_layers):
        yield from block(f"dec.{i}", ("self_attn", "cross_attn"))
    yield from layer_norm("dec.final_ln")
    for name, n_labels in config.cls_heads:
        yield from linear(f"cls.{name}", d, n_labels)


def _check_layout(got: list, want: list, what: str) -> None:
    """Raise ConfigError naming the first entry where ``got`` and ``want`` differ."""
    if got != want:
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        raise ConfigError(f"{what} tensor {i} differs from its config's layout: "
                          f"{json.dumps(got[i:i + 1])} != {json.dumps(want[i:i + 1])}")


def parameter_count(config: ModelConfig) -> int:
    """Number of scalars in a model of this config."""
    return sum(math.prod(shape) for _, shape, _ in _layout(config))


def init_parameters(config: ModelConfig, seed: int) -> "ModelBundle":
    """Seeded initialization: normal(0, 0.02) weights, zero biases, unit LN."""
    rng = np.random.default_rng(seed)
    params = {
        name: Tensor(rng.normal(0.0, 0.02, shape) if init == "normal"
                     else np.full(shape, _FILL[init]), requires_grad=True)
        for name, shape, init in _layout(config)
    }
    return ModelBundle(config, params)


class ModelBundle:
    """Parameters in ``_layout`` order plus the forward passes for both task families."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        _check_layout([[name, list(p.shape)] for name, p in params.items()],
                      [[name, list(shape)] for name, shape, _ in _layout(config)], "model")
        self.config = config
        self.params = params
        self.training = True
        self._rng = np.random.default_rng(0)

    # -- bookkeeping ------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def seed_dropout(self, seed) -> None:
        self._rng = np.random.default_rng(seed)

    def cls_task_names(self) -> list[str]:
        return [name for name, _ in self.config.cls_heads]

    # -- building blocks ---------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _dropout(self, x: Tensor) -> Tensor:
        if not self.training or self.config.dropout <= 0.0:
            return x
        return T.dropout(x, self.config.dropout, self._rng)

    def _linear(self, x: Tensor, prefix: str) -> Tensor:
        return T.linear(x, self._p(f"{prefix}.w"), self._p(f"{prefix}.b"))

    def _layer_norm(self, x: Tensor, prefix: str) -> Tensor:
        return T.layer_norm(x, self._p(f"{prefix}.w"), self._p(f"{prefix}.b"))

    def _embed(self, ids: np.ndarray, start: int = 0) -> Tensor:
        # ids: (B, T) int at positions start..start+T-1. Token + learned
        # position, then dropout.
        end = start + ids.shape[1]
        if end > self.config.max_len:
            raise NumericError(
                f"sequence length {end} exceeds max_len {self.config.max_len}"
            )
        tok = T.getitem(self._p("emb.weight"), ids)
        pos = T.getitem(self._p("pos.weight"), np.arange(start, end))
        return self._dropout(tok + pos)

    def _attend(self, prefix: str, x: Tensor, k: Tensor, v: Tensor, bias: np.ndarray) -> Tensor:
        # x: (B, Tq, D) queries before projection; k, v and bias as T.attention takes them.
        q = self._linear(x, f"{prefix}.q")
        return self._linear(T.attention(q, k, v, bias, self.config.n_heads), f"{prefix}.o")

    def _kv(self, prefix: str, kv: Tensor) -> tuple[Tensor, Tensor]:
        # K has no bias (see ``_layout``).
        return T.linear(kv, self._p(f"{prefix}.k.w")), self._linear(kv, f"{prefix}.v")

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        return self._linear(T.gelu(self._linear(x, f"{prefix}.1")), f"{prefix}.2")

    @staticmethod
    def _pad_bias(mask: np.ndarray) -> np.ndarray:
        # (B, S) boolean -> additive (B, 1, 1, S) bias hiding padded keys.
        return np.where(mask, 0.0, _MASK_VALUE)[:, None, None, :]

    @staticmethod
    def _causal_bias(tq: int, tk: int) -> np.ndarray:
        # The tq queries are the last tq of tk positions; each sees itself
        # and every earlier position.
        return np.triu(np.full((tq, tk), _MASK_VALUE), k=tk - tq + 1)[None, None, :, :]

    # -- forward passes ----------------------------------------------------

    def encode(self, enc_ids: np.ndarray, enc_mask: np.ndarray) -> Tensor:
        x = self._embed(enc_ids)
        bias = self._pad_bias(enc_mask)
        for i in range(self.config.n_enc_layers):
            h = self._layer_norm(x, f"enc.{i}.ln1")
            x = x + self._dropout(self._attend(f"enc.{i}.attn", h, *self._kv(f"enc.{i}.attn", h), bias))
            x = x + self._dropout(self._ffn(self._layer_norm(x, f"enc.{i}.ln2"), f"enc.{i}.ffn"))
        return self._layer_norm(x, "enc.final_ln")

    def decode(self, enc_out: Tensor, enc_mask: np.ndarray, dec_ids: np.ndarray) -> Tensor:
        cross = [self._kv(f"dec.{i}.cross_attn", enc_out) for i in range(self.config.n_dec_layers)]
        return self._decoder(self._embed(dec_ids), self._pad_bias(enc_mask), cross)[0]

    def _decoder(self, x: Tensor, cross_bias: np.ndarray, cross: list,
                 past: list | None = None) -> tuple[Tensor, list]:
        # cross: each layer's cross-attention K/V. past: each layer's cached
        # self-attention K/V as (n, t_past, D) arrays, which x's positions
        # follow; the new K/V are appended to them and returned per layer.
        start = past[0][0].shape[1] if past else 0
        causal = self._causal_bias(x.shape[1], start + x.shape[1])
        layers = []
        for i in range(self.config.n_dec_layers):
            h = self._layer_norm(x, f"dec.{i}.ln1")
            k, v = self._kv(f"dec.{i}.self_attn", h)
            if past is not None:
                k, v = (np.concatenate([p, new.data], axis=1) for p, new in zip(past[i], (k, v)))
                layers.append((k, v))
                k, v = Tensor(k), Tensor(v)
            x = x + self._dropout(self._attend(f"dec.{i}.self_attn", h, k, v, causal))
            h = self._layer_norm(x, f"dec.{i}.ln2")
            x = x + self._dropout(self._attend(f"dec.{i}.cross_attn", h, *cross[i], cross_bias))
            x = x + self._dropout(self._ffn(self._layer_norm(x, f"dec.{i}.ln3"), f"dec.{i}.ffn"))
        return self._layer_norm(x, "dec.final_ln"), layers

    def lm_logits(self, hidden: Tensor) -> Tensor:
        # Weight-tied output projection: (B, T, D) @ (D, V).
        return T.linear(hidden, T.transpose(self._p("emb.weight"), (1, 0)))

    def forward_generation(
        self, enc_ids: np.ndarray, enc_mask: np.ndarray, dec_ids: np.ndarray
    ) -> Tensor:
        """Next-token logits (B, T, V) for a batch of utterance/response pairs.

        The encoder reads the utterance; the decoder reads the right-shifted
        response under a causal mask, so position t sees only positions <= t.
        """
        if enc_ids.shape != enc_mask.shape or enc_ids.shape[0] != dec_ids.shape[0]:
            raise NumericError(
                f"batch shape mismatch: enc {enc_ids.shape}, mask {enc_mask.shape}, dec {dec_ids.shape}"
            )
        enc_out = self.encode(enc_ids, enc_mask)
        hidden = self.decode(enc_out, enc_mask, dec_ids)
        return self.lm_logits(hidden)

    def forward_classification(
        self, enc_ids: np.ndarray, enc_mask: np.ndarray, task_name: str
    ) -> Tensor:
        """Class logits (B, C) for one task over a batch of utterances.

        The decoder consumes the right-shifted utterance; the task head reads
        the decoder state at the final non-pad position of each row.
        """
        head = f"cls.{task_name}"
        if f"{head}.w" not in self.params:
            raise ConfigError(
                f"unknown classification task '{task_name}'; "
                f"registered heads: {self.cls_task_names()}"
            )
        if enc_ids.shape != enc_mask.shape:
            raise NumericError(
                f"batch shape mismatch: enc {enc_ids.shape}, mask {enc_mask.shape}"
            )
        lengths = enc_mask.sum(axis=1)
        if (lengths < 1).any():
            raise NumericError("classification batch contains an empty row")
        dec_ids = np.full_like(enc_ids, PAD_ID)
        dec_ids[:, 0] = BOS_ID
        dec_ids[:, 1:] = enc_ids[:, :-1]
        keep = np.arange(enc_ids.shape[1])[None, :] < lengths[:, None]
        dec_ids = np.where(keep, dec_ids, PAD_ID)
        enc_out = self.encode(enc_ids, enc_mask)
        hidden = self.decode(enc_out, enc_mask, dec_ids)
        pooled = T.getitem(hidden, (np.arange(enc_ids.shape[0]), lengths - 1))
        return self._linear(pooled, head)

    @contextlib.contextmanager
    def computing(self):
        """Swap ``params`` for leaf copies in the compute dtype and yield the copies.

        The masters come back on exit. Under float64 each copy shares its
        master's buffer, so the forward pass computes exactly what it would
        on the masters; gradients land on the copies' ``.grad``.
        """
        masters = self.params
        self.params = {name: Tensor(p.data, requires_grad=True) for name, p in masters.items()}
        try:
            yield self.params
        finally:
            self.params = masters

    # -- incremental decoding ----------------------------------------------

    @contextlib.contextmanager
    def evaluating(self):
        """Eval mode without graph recording; restores the previous mode."""
        was_training = self.training
        self.training = False
        try:
            with T.no_grad():
                yield
        finally:
            self.training = was_training

    def begin_decode(self, utterance_ids: list[int]) -> dict:
        """Encode one utterance and project every decoder layer's cross-attention K/V once."""
        if len(utterance_ids) > self.config.max_len:
            raise DataError(
                f"utterance of {len(utterance_ids)} ids exceeds max_len {self.config.max_len}"
            )
        enc_ids = np.asarray([utterance_ids], dtype=np.int64)
        enc_mask = np.ones_like(enc_ids, dtype=bool)
        with self.evaluating():
            enc_out = self.encode(enc_ids, enc_mask)
            cross = [self._kv(f"dec.{i}.cross_attn", enc_out)
                     for i in range(self.config.n_dec_layers)]
        return {"cross": cross, "cross_bias": self._pad_bias(enc_mask), "rows": {}, "self_kv": []}

    def next_token_logits(self, ctx: dict, prefixes: list[list[int]]) -> np.ndarray:
        """Logits over the vocabulary for the next token of each prefix.

        All prefixes must share one length (beam hypotheses move in lockstep).
        ``ctx`` keeps the self-attention K/V of the previous call's prefixes.
        When every prefix extends one of them, only the new position runs
        through the decoder, over its parent's gathered K/V; otherwise the
        whole prefix runs, over an empty past.
        """
        n = len(prefixes)
        t = len(prefixes[0])
        if any(len(p) != t for p in prefixes):
            raise NumericError("prefixes must share a common length")
        keys = [tuple(p) for p in prefixes]
        rows = [ctx["rows"].get(key[:-1]) for key in keys]
        if None in rows:
            start, empty = 0, np.zeros((n, 0, self.config.d_model))
            past = [(empty, empty)] * self.config.n_dec_layers
        else:
            start, past = t - 1, [(k[rows], v[rows]) for k, v in ctx["self_kv"]]
        with self.evaluating():
            x = self._embed(np.asarray(prefixes, dtype=np.int64)[:, start:], start)
            hidden, layers = self._decoder(x, ctx["cross_bias"], ctx["cross"], past)
            last = T.getitem(hidden, (np.arange(n), np.full(n, t - start - 1)))
            logits = self.lm_logits(last).data
        if not np.isfinite(logits).all():
            raise NumericError("decoder produced non-finite logits")
        ctx["rows"] = {key: i for i, key in enumerate(keys)}
        ctx["self_kv"] = layers
        return logits


# -- checkpoints -------------------------------------------------------------

_CKPT_MAGIC = b"EMOGEN-CKPT-1\n"


def _entries(config: ModelConfig) -> list[dict]:
    """Header entries for the config's layout, stored back to back as ``<f8``."""
    entries, offset = [], 0
    for name, shape, _ in _layout(config):
        nbytes = 8 * math.prod(shape)
        entries.append({"name": name, "shape": list(shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return entries


def save_checkpoint(path, bundle: ModelBundle, meta: dict | None = None) -> None:
    """Write a self-describing binary container: JSON header + raw buffers.

    The header carries the body's crc32. The byte stream is a pure function
    of config, parameters and meta, so identical runs produce identical
    checkpoint files.
    """
    blobs = [np.ascontiguousarray(p.data, dtype="<f8") for p in bundle.params.values()]
    crc = 0
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    header = {
        "config": bundle.config.to_dict(),
        "crc32": crc,
        "meta": meta or {},
        "params": _entries(bundle.config),
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(str(len(payload)).encode("ascii") + b"\n")
        f.write(payload)
        f.write(b"\n")
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> tuple[ModelBundle, dict]:
    """Load a checkpoint holding its config's layout and a body matching its crc32.

    Each tensor is read straight into its own array; the body is never held whole.
    """
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read checkpoint: {e.strerror}") from e
    with f:
        magic = f.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        try:
            length = int(f.readline().strip())
            header = json.loads(f.read(length).decode("utf-8"))
        except ValueError as e:
            raise ConfigError(f"{path}: truncated or corrupt checkpoint header ({e})") from e
        f.readline()
        size = os.fstat(f.fileno()).st_size - f.tell()
        try:
            config = ModelConfig.from_dict(header["config"])
            got = list(header["params"])
        except (ConfigError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: malformed checkpoint header ({e!r})") from e
        want = _entries(config)
        _check_layout(got, want, f"{path}: checkpoint")
        declared = sum(entry["nbytes"] for entry in want)
        if size != declared:
            raise ConfigError(
                f"{path}: checkpoint body holds {size} bytes, its header declares {declared}"
            )
        if "crc32" not in header:
            raise ConfigError(f"{path}: checkpoint header has no crc32")
        params, crc = {}, 0
        for entry in want:
            arr = np.empty(entry["shape"], dtype="<f8")
            if f.readinto(arr) != entry["nbytes"]:
                raise ConfigError(f"{path}: checkpoint body ends inside tensor {entry['name']}")
            crc = zlib.crc32(arr, crc)
            params[entry["name"]] = Tensor(arr, requires_grad=True)
    if header["crc32"] != crc:
        raise ConfigError(f"{path}: checkpoint body has crc32 {crc}, "
                          f"its header declares {header['crc32']}")
    return ModelBundle(config, params), header.get("meta", {})
