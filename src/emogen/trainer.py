"""Multi-task training loop with per-mini-batch task selection.

Every epoch pools all mini-batches of all tasks and shuffles the pool with a
seed derived from (seed, epoch), so task frequency is proportional to
dataset size. Each step computes the ticket's task loss, backpropagates the
loss scaled by the task weight and applies one optimizer update. Reported
losses are always the raw, unweighted task losses.

``train`` computes every forward and backward pass in float32 on copies of
the parameters; the masters, their gradients, the optimizer state and the
checkpoints stay float64. Called on its own, ``run_step`` computes in
whatever dtype is in force, float64 by default.
"""

from __future__ import annotations

import json
import logging
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import KIND_GENERATION, TaskSpec, subsample
from .errors import ConfigError, DataError, NumericError
from .losses import batch_classification_nll, label_smoothed_nll
from .model import ModelBundle, save_checkpoint
from .optim import AdamW, clip_global_norm
from . import tensor as T
from .text import (
    PAD_ID,
    ROLE_RESPONSE,
    ROLE_UTTERANCE,
    TokenSeq,
    Vocab,
    encode,
    make_dirs,
    pad_batch,
    replacing,
    shift_right,
    write_text,
)

log = logging.getLogger("emogen.trainer")


@dataclass
class TrainPlan:
    tasks: list[TaskSpec]
    batch_size: int = 32
    epochs: int = 64
    seed: int = 0
    max_len: int = 64
    label_smoothing: float = 0.1
    lr: float = 3e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    grad_clip: float | None = 1.0
    save_every_epoch: bool = True

    def __post_init__(self):
        if not self.tasks:
            raise ConfigError("a train plan needs at least one task")
        n_gen = sum(1 for t in self.tasks if t.kind == KIND_GENERATION)
        if n_gen != 1:
            raise ConfigError(f"exactly one generation task required, got {n_gen}")
        for key, ok, rule in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("max_len", self.max_len >= 2, ">= 2"),
            ("lr", self.lr > 0.0, "> 0"),
            ("eps", self.eps > 0.0, "> 0"),
            ("grad_clip", self.grad_clip is None or self.grad_clip > 0.0, "> 0 or none"),
            ("label_smoothing", 0.0 <= self.label_smoothing < 1.0, "in [0, 1)"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("weight_decay", self.weight_decay >= 0.0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)}")

    @property
    def generation_task(self) -> TaskSpec:
        return next(t for t in self.tasks if t.kind == KIND_GENERATION)


@dataclass(frozen=True)
class BatchTicket:
    task_name: str
    batch_index: int


@dataclass
class LossReport:
    """Per-epoch train means and validation losses, and the best epoch."""

    epoch_train_mean: list[dict] = field(default_factory=list)
    epoch_valid: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_valid_gen_loss: float = float("inf")


def build_schedule(batch_counts: dict[str, int], epoch: int, seed: int) -> list[BatchTicket]:
    """All tickets of one epoch, shuffled with a (seed, epoch)-derived stream."""
    pool: list[BatchTicket] = []
    for name, count in batch_counts.items():
        if count < 1:
            raise DataError(f"task '{name}' has no training batches")
        pool.extend(BatchTicket(name, i) for i in range(count))
    perm = np.random.default_rng([seed, epoch]).permutation(len(pool))
    return [pool[i] for i in perm]


class TaskBatches:
    """Pre-encoded mini-batches for one task and one split."""

    def __init__(self, spec: TaskSpec, examples: list, vocab: Vocab, plan: TrainPlan, shuffle_seed=None):
        self.spec = spec
        order = np.arange(len(examples))
        if shuffle_seed is not None:
            order = np.random.default_rng(shuffle_seed).permutation(len(examples))
        examples = [examples[i] for i in order]
        self.batches = []
        for start in range(0, len(examples), plan.batch_size):
            chunk = examples[start : start + plan.batch_size]
            self.batches.append(self._encode_batch(chunk, vocab, plan))

    def __len__(self):
        return len(self.batches)

    def _encode_batch(self, chunk, vocab, plan):
        if self.spec.kind == KIND_GENERATION:
            enc = [encode(ex.utterance, vocab, plan.max_len, ROLE_UTTERANCE) for ex in chunk]
            resp = [encode(ex.response, vocab, plan.max_len, ROLE_RESPONSE) for ex in chunk]
            dec = [shift_right(r) for r in resp]
            enc_ids, enc_mask = pad_batch(enc)
            dec_ids, _ = pad_batch(dec)
            # Padded target positions carry PAD, which the loss ignores.
            tgt_ids, _ = pad_batch(resp)
            return {"enc_ids": enc_ids, "enc_mask": enc_mask, "dec_ids": dec_ids, "targets": tgt_ids}
        enc = [encode(ex.text, vocab, plan.max_len, ROLE_UTTERANCE) for ex in chunk]
        enc_ids, enc_mask = pad_batch(enc)
        label_ids = np.array([self.spec.labels.index(ex.label) for ex in chunk], dtype=np.int64)
        return {"enc_ids": enc_ids, "enc_mask": enc_mask, "labels": label_ids}


def compute_task_loss(model: ModelBundle, spec: TaskSpec, batch: dict, label_smoothing: float) -> T.Tensor:
    """Raw (unweighted) loss of one mini-batch for one task."""
    if spec.kind == KIND_GENERATION:
        logits = model.forward_generation(batch["enc_ids"], batch["enc_mask"], batch["dec_ids"])
        b, t, v = logits.shape
        return label_smoothed_nll(
            logits.reshape((b * t, v)),
            batch["targets"].reshape(-1),
            label_smoothing,
            ignore_index=PAD_ID,
        )
    logits = model.forward_classification(batch["enc_ids"], batch["enc_mask"], spec.name)
    return batch_classification_nll(logits, batch["labels"])


def run_step(
    model: ModelBundle,
    optimizer: AdamW,
    spec: TaskSpec,
    batch: dict,
    weight: float,
    label_smoothing: float,
    grad_clip: float | None = None,
) -> tuple[float, float | None]:
    """One update: backprop weight * loss, clip, step.

    The loss is backpropagated on the model's working copies (``computing``);
    each master the optimizer holds is assigned its copy's gradient in float64,
    or zeros where the step did not reach it, and clipping and the optimizer
    act on exactly those, which live until the next step begins, never beside
    its graph. Returns the raw loss and the pre-clip global grad norm
    (``None`` without clipping).
    """
    for p in optimizer.params.values():
        p.grad = None
    with model.computing() as copies:
        loss = compute_task_loss(model, spec, batch, label_smoothing)
        raw = loss.item()
        if not np.isfinite(raw):
            raise NumericError(f"non-finite loss on task '{spec.name}'")
        (loss * weight).backward()
        del loss
    for name, p in optimizer.params.items():
        g = copies[name].grad
        p.grad = np.zeros_like(p.data) if g is None else g.astype(np.float64)
    grad_norm = clip_global_norm(optimizer.params, grad_clip) if grad_clip is not None else None
    optimizer.step()
    return raw, grad_norm


def _append_jsonl(path: Path, record: dict) -> None:
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def _pooled_parameters(model: ModelBundle, plan: TrainPlan) -> dict[str, T.Tensor]:
    """Every parameter except the CLS heads of tasks left out of the pool.

    Those heads get no optimizer state and no update, so weight decay cannot
    move them: they stay exactly at initialization.
    """
    pooled = {t.name for t in plan.tasks}
    idle = {f"cls.{name}" for name in model.cls_task_names() if name not in pooled}
    return {n: p for n, p in model.params.items() if n.rsplit(".", 1)[0] not in idle}


def _corpus_lines(task_data: dict[str, dict[str, list]], tasks: list[TaskSpec]):
    for spec in tasks:
        for ex in task_data[spec.name].get("train", []):
            if spec.kind == KIND_GENERATION:
                yield ex.utterance
                yield ex.response
            else:
                yield ex.text


def build_shared_vocab(task_data, tasks, min_count: int = 1) -> Vocab:
    """One vocabulary over every training text of every task."""
    from .text import build_vocab

    return build_vocab(_corpus_lines(task_data, tasks), min_count=min_count)


def train(
    plan: TrainPlan,
    task_data: dict[str, dict[str, list]],
    model: ModelBundle,
    vocab: Vocab,
    out_dir=None,
) -> tuple[ModelBundle, LossReport]:
    """Run the full multi-task loop; returns the model and its loss history.

    When ``out_dir`` is given, makes it and writes vocab.txt, per-epoch
    checkpoints (optional), a best-by-validation-generation-loss checkpoint,
    a steps.jsonl file, one line as each step ends, and a metrics.jsonl
    file, one line as each epoch ends.
    """
    out_path = make_dirs(out_dir) if out_dir is not None else None
    if out_path is not None:
        vocab.save(out_path / "vocab.txt")
        for name in ("steps.jsonl", "metrics.jsonl"):
            write_text(out_path / name, "")

    model.seed_dropout([plan.seed, 0x5EED])
    model.train()
    optimizer = AdamW(
        _pooled_parameters(model, plan),
        lr=plan.lr,
        beta1=plan.beta1,
        beta2=plan.beta2,
        eps=plan.eps,
        weight_decay=plan.weight_decay,
    )

    train_batches: dict[str, TaskBatches] = {}
    valid_batches: dict[str, TaskBatches] = {}
    for spec in plan.tasks:
        splits = task_data[spec.name]
        seed = [plan.seed, zlib.crc32(spec.name.encode())]
        train_examples = subsample(splits.get("train", []), spec.subsample_fraction, seed)
        train_batches[spec.name] = TaskBatches(spec, train_examples, vocab, plan, shuffle_seed=seed)
        if splits.get("valid"):
            valid_batches[spec.name] = TaskBatches(spec, splits["valid"], vocab, plan)

    batch_counts = {name: len(tb) for name, tb in train_batches.items()}
    report = LossReport()
    step_no = 0

    with T.compute_dtype(np.float32):
        for epoch in range(plan.epochs):
            schedule = build_schedule(batch_counts, epoch, plan.seed)
            sums = {spec.name: 0.0 for spec in plan.tasks}
            counts = {spec.name: 0 for spec in plan.tasks}
            for ticket in schedule:
                task_batches = train_batches[ticket.task_name]
                spec = task_batches.spec
                batch = task_batches.batches[ticket.batch_index]
                try:
                    raw, grad_norm = run_step(
                        model, optimizer, spec, batch, spec.weight,
                        plan.label_smoothing, plan.grad_clip,
                    )
                except NumericError as e:
                    raise NumericError(
                        f"{e} (batch {ticket.batch_index}, epoch {epoch})"
                    ) from e
                if out_path is not None:
                    _append_jsonl(out_path / "steps.jsonl", {
                        "epoch": epoch, "step": step_no, "task": spec.name,
                        "batch": ticket.batch_index, "loss": raw, "weight": spec.weight,
                        "grad_norm": grad_norm,
                    })
                sums[spec.name] += raw
                counts[spec.name] += 1
                step_no += 1

            train_mean = {name: sums[name] / counts[name] for name in sums}
            valid = validate(model, plan, valid_batches)
            report.epoch_train_mean.append(train_mean)
            report.epoch_valid.append(valid)

            gen_name = plan.generation_task.name
            gen_valid = valid.get(gen_name)
            improved = gen_valid is not None and gen_valid < report.best_valid_gen_loss
            if improved:
                report.best_valid_gen_loss = gen_valid
                report.best_epoch = epoch

            if out_path is not None:
                last_file = out_path / "last.ckpt"
                save_checkpoint(last_file, model, meta={"vocab": "vocab.txt", "seed": plan.seed,
                                                        "epoch": epoch, "max_len": plan.max_len})
                copies = [out_path / f"epoch_{epoch:03d}.ckpt"] if plan.save_every_epoch else []
                if improved:
                    copies.append(out_path / "best.ckpt")
                for target in copies:
                    with replacing(target) as tmp:
                        shutil.copyfile(last_file, tmp)
                _append_jsonl(out_path / "metrics.jsonl", {"epoch": epoch, "train": train_mean,
                                                           "valid": valid, "best_epoch": report.best_epoch})
            log.info("epoch=%d done train=%s valid=%s", epoch, train_mean, valid)

    return model, report


def validate(model: ModelBundle, plan: TrainPlan, valid_batches: dict[str, TaskBatches]) -> dict:
    """Unweighted per-task mean loss over the validation splits."""
    out = {}
    with model.evaluating(), model.computing():
        for spec in plan.tasks:
            tb = valid_batches.get(spec.name)
            if tb is None or not len(tb):
                continue
            total, n = 0.0, 0
            for batch in tb.batches:
                loss = compute_task_loss(model, spec, batch, plan.label_smoothing)
                size = len(batch["enc_ids"])
                total += loss.item() * size
                n += size
            out[spec.name] = total / n
    return out

