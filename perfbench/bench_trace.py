"""Layer timing from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each traced function, wherever an ``emogen``
module or class holds it, by a wrapper that counts calls and adds up
inclusive wall time; ``uninstall`` puts the originals back. A call made
while the same key is already open (recursion, or ``build_report`` calling
``classification_scores``) is counted once, by the outer call.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TENSOR_OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax", "log_softmax",
              "getitem", "reshape", "transpose", "dropout")

_perf = time.perf_counter


def rebind(fn, replacement, undo_log: list) -> None:
    """Point every emogen module global bound to ``fn`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "emogen":
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                undo_log.append((mod, attr, value))
                setattr(mod, attr, replacement)


def undo(undo_log: list) -> None:
    while undo_log:
        owner, name, original = undo_log.pop()
        setattr(owner, name, original)


class HypothesisCapture:
    """Keeps the ids of every ``beam_search`` result while it is active.

    The written hypothesis files drop <pad> and <bos> ids, so properties of
    the decoded sequence are checked on these ids.
    """

    def __init__(self):
        self.ids: list[list[int]] = []
        self._undo: list = []

    def __enter__(self):
        from emogen import decoding

        fn = decoding.beam_search

        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.ids.append(list(result.ids))
            return result

        rebind(fn, capture, self._undo)
        return self

    def __exit__(self, *exc):
        undo(self._undo)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key, key_of=None, on_call=None):
        calls, seconds, open_keys = self.calls, self.seconds, self._open

        def wrapper(*args, **kwargs):
            k = key_of(args) if key_of is not None else key
            if k in open_keys:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            open_keys.add(k)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[k] += _perf() - start
                calls[k] += 1
                open_keys.discard(k)

        wrapper.__wrapped__ = fn
        return wrapper

    def function(self, module, name, key, **hooks):
        """Trace ``module.name`` in every emogen module that imported it."""
        fn = getattr(module, name)
        rebind(fn, self._wrap(fn, key, **hooks), self._undo)

    def method(self, cls, name, key, **hooks):
        self._undo.append((cls, name, getattr(cls, name)))
        setattr(cls, name, self._wrap(getattr(cls, name), key, **hooks))

    def install(self) -> None:
        from emogen import commands, decoding, losses, metrics, model, optim, tensor, trainer

        for op in TENSOR_OPS:
            self.function(tensor, op, f"tensor.{op}")
        self.method(tensor.Tensor, "backward", "tensor.backward")
        self.function(losses, "label_smoothed_nll", "losses.nll")
        self.method(optim.AdamW, "step", "optim.adamw_step")
        self.function(optim, "clip_global_norm", "optim.clip")
        self.method(model.ModelBundle, "forward_generation", "model.forward_generation")
        self.method(model.ModelBundle, "forward_classification", "model.forward_classification")
        self.method(model.ModelBundle, "begin_decode", "model.begin_decode")

        def positions(args):
            prefixes = args[2]
            self.counts["model.decoder_positions"] += len(prefixes) * len(prefixes[0])

        self.method(model.ModelBundle, "next_token_logits", "model.next_token_logits",
                    on_call=positions)
        self.function(model, "save_checkpoint", "model.save_checkpoint")
        self.function(model, "load_checkpoint", "model.load_checkpoint")
        self.function(trainer, "run_step", None,
                      key_of=lambda args: f"trainer.step.{args[2].kind}")
        self.function(trainer, "validate", "trainer.validate")
        self.method(trainer.TaskBatches, "__init__", "trainer.batch_encode")
        self.function(decoding, "beam_search", "decoding.beam_search")
        self.function(decoding, "banned_tokens", "decoding.banned_tokens")
        self.function(commands, "predict_labels", "commands.predict_labels")
        self.function(metrics, "build_report", "metrics.score")
        self.function(metrics, "classification_scores", "metrics.score")

    def uninstall(self) -> None:
        undo(self._undo)

    def table(self) -> dict:
        """Every traced key with its call count and inclusive seconds."""
        out = {k: {"calls": self.calls[k], "seconds": self.seconds[k]} for k in sorted(self.calls)}
        out.update({k: {"count": v} for k, v in sorted(self.counts.items())})
        return out

    def per_layer(self, rounds: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as (value, unit).

        ``*_ms`` is mean milliseconds per call of that function, ``*_s`` is
        seconds per round and a count is per round. The two ``decoding`` times
        are per decoded utterance. A layer the workload does not run reads 0.
        """
        steps = sum(self.calls.get(f"trainer.step.{k}", 0) for k in ("generation", "classification"))
        utterances = self.calls.get("decoding.beam_search", 0)

        def ms_per_call(key):
            n = self.calls.get(key, 0)
            return (1e3 * self.seconds[key] / n if n else 0.0, "ms")

        def per_round(value, unit):
            return (value / rounds, unit)

        m: dict[str, tuple[float, str]] = {"tensor.backward_ms": ms_per_call("tensor.backward")}
        for op in TENSOR_OPS:
            m[f"tensor.calls.{op}"] = per_round(self.calls.get(f"tensor.{op}", 0), "count")
            m[f"tensor.fwd_ms.{op}"] = ms_per_call(f"tensor.{op}")
        for key in ("model.forward_generation", "model.forward_classification", "losses.nll",
                    "optim.adamw_step", "optim.clip", "model.save_checkpoint",
                    "model.load_checkpoint", "model.begin_decode", "model.next_token_logits",
                    "commands.predict_labels", "metrics.score"):
            m[f"{key}_ms"] = ms_per_call(key)
        for kind in ("generation", "classification"):
            m[f"trainer.step_ms.{kind}"] = ms_per_call(f"trainer.step.{kind}")
        m["trainer.steps"] = per_round(steps, "count")
        m["trainer.validate_s"] = per_round(self.seconds.get("trainer.validate", 0.0), "s")
        m["trainer.batch_encode_s"] = per_round(self.seconds.get("trainer.batch_encode", 0.0), "s")
        m["model.next_token_logits_calls"] = per_round(
            self.calls.get("model.next_token_logits", 0), "count")
        m["model.decoder_positions"] = per_round(self.counts.get("model.decoder_positions", 0), "count")
        model_s = sum(self.seconds.get(k, 0.0) for k in ("model.begin_decode", "model.next_token_logits"))
        beam_self = self.seconds.get("decoding.beam_search", 0.0) - model_s
        banned = self.seconds.get("decoding.banned_tokens", 0.0)
        m["decoding.beam_self_ms"] = (1e3 * beam_self / utterances if utterances else 0.0, "ms")
        m["decoding.banned_tokens_ms"] = (1e3 * banned / utterances if utterances else 0.0, "ms")
        return m
