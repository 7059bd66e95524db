"""Implementations behind the CLI subcommands.

Each command logs to stderr only and writes data to files, including an echo
of its resolved configuration so any run can be reproduced bit-exactly.
"""

from __future__ import annotations

import json
import logging
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    KIND_CLASSIFICATION,
    KIND_GENERATION,
    GenerationExample,
    TaskSpec,
    _parse_lines,
    gen_synthetic,
    label_set,
    load_task,
    save_examples,
    split_811,
    subsample,
)
from .decoding import BeamConfig, generate_file
from .errors import ConfigError
from .manifest import RunManifest, load_manifest
from .metrics import build_report, classification_scores
from .model import ModelBundle, ModelConfig, init_parameters, load_checkpoint
from .text import Vocab, encode, make_dirs, pad_batch, read_lines, write_text
from .trainer import build_shared_vocab, train

log = logging.getLogger("emogen.cli")

_SYNTH_KINDS = (("gen", KIND_GENERATION), ("e6", "e6"), ("e2", "e2"), ("e12", "e12"))


def _versions() -> dict:
    return {
        "emogen": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _write_echo(path: Path, command: str, payload: dict) -> None:
    doc = {"command": command, "versions": _versions(), **payload}
    write_text(path, json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n")


# -- synth -------------------------------------------------------------------

_MANIFEST_TEMPLATE = """\
# generated run manifest; paths are relative to this file
[model]
d_model = 128
n_heads = 4
n_enc_layers = 2
n_dec_layers = 2
d_ff = 512
max_len = 64
dropout = 0.1

[train]
batch_size = 32
epochs = 64
seed = {seed}
label_smoothing = 0.1
lr = 0.001
weight_decay = 0.01
grad_clip = 1.0

[beam]
beam_width = 5
max_len = 64
no_repeat_ngram = 3
length_penalty = 1.0

[task response]
kind = generation
train = gen.train.tsv
valid = gen.valid.tsv
test = gen.test.tsv

[task e6]
kind = classification
labels = {e6_labels}
weight = 1.0
train = e6.train.tsv
valid = e6.valid.tsv
test = e6.test.tsv

[task e2]
kind = classification
labels = {e2_labels}
weight = 1.0
train = e2.train.tsv
valid = e2.valid.tsv
test = e2.test.tsv

[task e12]
kind = classification
labels = {e12_labels}
weight = 1.0
train = e12.train.tsv
valid = e12.valid.tsv
test = e12.test.tsv

[matrix]
variants = R | R+e6 | R+e6+e2 | R+e6+e12 | R+e6+e2+e12
"""


def cmd_synth(out_dir, seed: int, size: int, cls_size: int | None = None) -> None:
    """Write synthetic TSVs with 8:1:1 splits, label files, and a manifest."""
    out = make_dirs(out_dir)
    cls_size = cls_size if cls_size is not None else max(10, size // 2)
    for idx, (stem, kind) in enumerate(_SYNTH_KINDS):
        n = size if kind == KIND_GENERATION else cls_size
        examples = gen_synthetic(kind, n, [seed, idx])
        tr, va, te = split_811(examples, seed)
        for split_name, chunk in (("train", tr), ("valid", va), ("test", te)):
            save_examples(out / f"{stem}.{split_name}.tsv", chunk)
        if kind != KIND_GENERATION:
            write_text(out / f"{stem}.labels.txt", "\n".join(label_set(kind)) + "\n")
        log.info("synth: wrote %s (%d examples)", stem, n)
    labels = {f"{kind}_labels": ", ".join(label_set(kind)) for kind in ("e6", "e2", "e12")}
    write_text(out / "manifest.ini", _MANIFEST_TEMPLATE.format(seed=seed, **labels))
    _write_echo(out / "echo.json", "synth",
                {"args": {"out": str(out), "seed": seed, "size": size, "cls_size": cls_size}})


# -- splits ------------------------------------------------------------------


def cmd_splits(input_path, out_dir, seed: int, subsample_fraction: float = 1.0,
               subsample_scope: str = "train") -> None:
    """Split a two-column TSV into train/valid/test files at 8:1:1.

    Each line is written as its two trimmed fields joined by one tab, as ingestion reads them.
    ``subsample_scope`` is ``train`` (sample the train split only) or
    ``total`` (sample before splitting); a fraction of 1 keeps every line.
    """
    if not 0.0 < subsample_fraction <= 1.0:
        raise ConfigError(f"--subsample must be in (0, 1], got {subsample_fraction}")
    if subsample_scope not in ("total", "train"):
        raise ConfigError(f"unknown subsample scope '{subsample_scope}'")
    input_path = Path(input_path)
    lines = [f"{a}\t{b}" for _, a, b in _parse_lines(input_path)]
    if subsample_scope == "total":
        lines = subsample(lines, subsample_fraction, seed)
    tr, va, te = split_811(lines, seed)
    if subsample_scope == "train":
        tr = subsample(tr, subsample_fraction, seed)
    stem = input_path.stem
    out = make_dirs(out_dir)
    for split_name, chunk in (("train", tr), ("valid", va), ("test", te)):
        write_text(out / f"{stem}.{split_name}.tsv", "".join(line + "\n" for line in chunk))
    _write_echo(out / f"{stem}.echo.json", "splits", {
        "args": {"input": str(input_path), "out": str(out), "seed": seed,
                 "subsample_fraction": subsample_fraction,
                 "subsample_scope": subsample_scope}})


# -- train -------------------------------------------------------------------


def _vocab_and_config(manifest: RunManifest, task_data) -> tuple[Vocab, ModelConfig]:
    # Vocabulary and model cover every declared task so all variants share
    # identical shapes and initialization.
    vocab = build_shared_vocab(task_data, manifest.tasks, manifest.vocab_min_count)
    heads = tuple(
        (t.name, len(t.labels)) for t in manifest.classification_tasks()
    )
    return vocab, ModelConfig(vocab_size=vocab.size, cls_heads=heads, **manifest.model)


def _load_all_tasks(manifest: RunManifest) -> dict:
    return {spec.name: load_task(spec) for spec in manifest.tasks}


def cmd_train(manifest_path, out_dir) -> None:
    manifest = load_manifest(manifest_path)
    out = Path(out_dir)
    task_data = _load_all_tasks(manifest)
    plan = manifest.build_plan()
    vocab, config = _vocab_and_config(manifest, task_data)
    train(plan, task_data, init_parameters(config, plan.seed), vocab, out_dir=out)
    _write_echo(out / "echo.json", "train",
                {"args": {"config": str(manifest.path), "out": str(out)},
                 "manifest": manifest.to_dict()})


# -- generate ----------------------------------------------------------------


def cmd_generate(checkpoint_path, input_path, output_path, config: BeamConfig,
                 vocab_path=None) -> None:
    checkpoint_path = Path(checkpoint_path)
    model, meta = load_checkpoint(checkpoint_path)
    if vocab_path is None:
        vocab_path = checkpoint_path.parent / meta.get("vocab", "vocab.txt")
    vocab = Vocab.load(vocab_path)
    if vocab.size != model.config.vocab_size:
        raise ConfigError(
            f"vocab size {vocab.size} does not match checkpoint "
            f"vocab_size {model.config.vocab_size}"
        )
    if config.max_len > model.config.max_len:
        raise ConfigError(
            f"--max-len {config.max_len} exceeds the checkpoint's max_len "
            f"{model.config.max_len}"
        )
    n = generate_file(model, vocab, input_path, output_path, config)
    log.info("generate: wrote %d responses to %s", n, output_path)
    _write_echo(Path(str(output_path) + ".echo.json"), "generate", {
        "args": {"checkpoint": str(checkpoint_path), "input": str(input_path),
                 "output": str(output_path), "beams": config.beam_width,
                 "no_repeat_ngram": config.no_repeat_ngram, "max_len": config.max_len,
                 "length_penalty": config.length_penalty, "vocab": str(vocab_path)},
        "checkpoint_meta": meta})


# -- evaluate ------------------------------------------------------------------


def _read_label_column(path) -> list[str]:
    # Accepts plain label-per-line files and two-column TSVs (label last).
    return [line.split("\t")[-1].strip() for line in read_lines(path) if line.strip()]


def cmd_evaluate(hyp_path, ref_path, out_path, pred_path=None, gold_path=None,
                 labels_path=None) -> dict:
    hyps = read_lines(hyp_path)
    refs = read_lines(ref_path)
    pred = gold = labels = None
    if pred_path is not None:
        if gold_path is None or labels_path is None:
            raise ConfigError("--pred requires --gold and --labels")
        pred = _read_label_column(pred_path)
        gold = _read_label_column(gold_path)
        labels = [l for l in read_lines(labels_path) if l.strip()]
    report = build_report(hyps, refs, pred=pred, gold=gold, labels=labels)
    doc = report.to_dict()
    out_path = Path(out_path)
    write_text(out_path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    log.info("evaluate: %s", doc)
    _write_echo(Path(str(out_path) + ".echo.json"), "evaluate", {
        "args": {"hyp": str(hyp_path), "ref": str(ref_path), "out": str(out_path),
                 "pred": str(pred_path), "gold": str(gold_path),
                 "labels": str(labels_path)}})
    return doc


# -- matrix --------------------------------------------------------------------


def predict_labels(model: ModelBundle, spec: TaskSpec, examples, vocab: Vocab,
                   max_len: int, batch_size: int = 64) -> list[str]:
    """Argmax labels for a classification task over a list of examples."""
    out: list[str] = []
    with model.evaluating():
        for start in range(0, len(examples), batch_size):
            chunk = examples[start : start + batch_size]
            seqs = [encode(ex.text, vocab, max_len) for ex in chunk]
            enc_ids, enc_mask = pad_batch(seqs)
            logits = model.forward_classification(enc_ids, enc_mask, spec.name)
            for row in np.argmax(logits.data, axis=1):
                out.append(spec.labels[int(row)])
    return out


def _variant_dirname(name: str) -> str:
    return name.replace(" ", "").replace("/", "_")


def evaluate_variant(model: ModelBundle, manifest: RunManifest, task_data,
                     vocab: Vocab, variant_dir: Path) -> dict:
    """Decode the shared generation test split and score every task."""
    gen_spec = manifest.generation_task
    test_examples = task_data[gen_spec.name]["test"]
    src = variant_dir / "test.src.txt"
    ref = variant_dir / "test.ref.txt"
    hyp = variant_dir / "test.hyp.txt"
    write_text(src, "".join(ex.utterance + "\n" for ex in test_examples))
    write_text(ref, "".join(ex.response + "\n" for ex in test_examples))
    generate_file(model, vocab, src, hyp, manifest.beam)
    hyps = read_lines(hyp)
    refs = read_lines(ref)
    row = build_report(hyps, refs).to_dict()
    max_len = manifest.build_plan().max_len
    for spec in manifest.classification_tasks():
        test = task_data[spec.name].get("test", [])
        if not test:
            continue
        pred = predict_labels(model, spec, test, vocab, max_len)
        gold = [ex.label for ex in test]
        acc, f1 = classification_scores(pred, gold, spec.labels)
        row[f"{spec.name}_accuracy"] = acc
        row[f"{spec.name}_macro_f1"] = f1
    return row


def _report_tsv(rows: list[dict]) -> str:
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys and key not in ("counts", "variant"):
                keys.append(key)
    lines = ["\t".join(["variant"] + keys)]
    for row in rows:
        cells = [row["variant"]]
        for key in keys:
            value = row.get(key)
            cells.append("" if value is None else (
                f"{value:.4f}" if isinstance(value, float) else str(value)))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def cmd_matrix(manifest_path, out_dir) -> list[dict]:
    """Train and evaluate every variant with a shared seed and test split."""
    manifest = load_manifest(manifest_path)
    if not manifest.variants:
        raise ConfigError("manifest declares no [matrix] variants")
    task_data = _load_all_tasks(manifest)
    plans = [manifest.build_plan(variant) for variant in manifest.variants]
    vocab, config = _vocab_and_config(manifest, task_data)
    out = make_dirs(out_dir)
    rows: list[dict] = []
    failure: Exception | None = None
    for variant, plan in zip(manifest.variants, plans):
        vdir = out / _variant_dirname(variant.name)
        try:
            log.info("matrix: training variant %s (tasks: %s)",
                     variant.name, [t.name for t in plan.tasks])
            model, _ = train(plan, task_data, init_parameters(config, plan.seed), vocab,
                             out_dir=vdir)
            row = {"variant": variant.name}
            row.update(evaluate_variant(model, manifest, task_data, vocab, vdir))
            rows.append(row)
        except Exception as e:
            failure = e
            log.error("matrix: variant %s failed: %s", variant.name, e)
            break
    write_text(out / "report.json", json.dumps(rows, sort_keys=True, indent=2) + "\n")
    write_text(out / "report.tsv", _report_tsv(rows))
    _write_echo(out / "echo.json", "matrix",
                {"args": {"config": str(manifest.path), "out": str(out)},
                 "manifest": manifest.to_dict()})
    if failure is not None:
        raise failure
    return rows
