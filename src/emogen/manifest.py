"""Declarative run manifests: one INI file drives data, training and decoding.

Sections: [model], [train], [beam], one [task <name>] per task, and an
optional [matrix] listing variants. Paths are resolved relative to the
manifest file. A variant is either a task-subset name such as ``R+e6`` or a
weight vector such as ``lambda(0.5, 0.5, 0)`` over the declared
classification tasks in order; tasks with weight 0 are left out of the
training pool (their heads stay at initialization).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .data import KIND_CLASSIFICATION, KIND_GENERATION, TaskSpec
from .decoding import BeamConfig
from .errors import ConfigError
from .model import ModelConfig
from .trainer import TrainPlan

_SPLITS = ("train", "valid", "test")


@dataclass
class Variant:
    name: str
    lambdas: dict[str, float] = field(default_factory=dict)


@dataclass
class RunManifest:
    path: Path
    model: dict
    train: dict
    beam: BeamConfig
    tasks: list[TaskSpec]
    variants: list[Variant]
    vocab_min_count: int = 1

    @property
    def generation_task(self) -> TaskSpec:
        return next(t for t in self.tasks if t.kind == KIND_GENERATION)

    def classification_tasks(self) -> list[TaskSpec]:
        return [t for t in self.tasks if t.kind == KIND_CLASSIFICATION]

    def build_plan(self, variant: Variant | None = None) -> TrainPlan:
        """Train plan for one variant (or for the manifest's own weights)."""
        gen = self.generation_task
        tasks = [gen]
        for spec in self.classification_tasks():
            weight = spec.weight if variant is None else variant.lambdas.get(spec.name, 0.0)
            if weight > 0.0:
                tasks.append(
                    TaskSpec(
                        name=spec.name,
                        kind=spec.kind,
                        labels=spec.labels,
                        weight=weight,
                        paths=spec.paths,
                        subsample_fraction=spec.subsample_fraction,
                    )
                )
        return TrainPlan(tasks=tasks, **self.train)

    def to_dict(self) -> dict:
        return {
            "path": str(self.path),
            "model": self.model,
            "train": self.train,
            "beam": vars(self.beam),
            "vocab_min_count": self.vocab_min_count,
            "tasks": [
                {
                    "name": t.name,
                    "kind": t.kind,
                    "labels": list(t.labels),
                    "weight": t.weight,
                    "paths": {k: str(v) for k, v in t.paths.items()},
                    "subsample_fraction": t.subsample_fraction,
                }
                for t in self.tasks
            ],
            "variants": [
                {"name": v.name, "lambdas": v.lambdas} for v in self.variants
            ],
        }


def _coerce(section: configparser.SectionProxy, casts: dict) -> dict:
    out = {}
    for key, cast in casts.items():
        if key in section:
            raw = section[key]
            try:
                if cast is bool:
                    out[key] = raw.strip().lower() in ("1", "true", "yes", "on")
                else:
                    out[key] = cast(raw)
            except ValueError as e:
                raise ConfigError(f"bad value for '{key}': {raw!r}") from e
    return out


def parse_variant(spec: str, cls_names: list[str]) -> Variant:
    text = spec.strip()
    inner = None
    if text.lower().startswith("lambda(") and text.endswith(")"):
        inner = text[len("lambda(") : -1]
    elif text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
    if inner is not None:
        values = [v.strip() for v in inner.split(",")]
        if len(values) != len(cls_names):
            raise ConfigError(
                f"variant '{spec}' has {len(values)} weights for "
                f"{len(cls_names)} classification tasks {cls_names}"
            )
        try:
            lambdas = {n: float(v) for n, v in zip(cls_names, values)}
        except ValueError as e:
            raise ConfigError(f"variant '{spec}': weights must be numbers") from e
        for name, lam in lambdas.items():
            if not 0.0 <= lam <= 1.0:
                raise ConfigError(f"variant '{spec}': weight for {name} not in [0, 1]")
        return Variant(text, lambdas)
    parts = [p.strip() for p in text.split("+")]
    if parts[0] != "R":
        raise ConfigError(f"variant '{spec}' must start with the generation task 'R'")
    lambdas = {}
    for part in parts[1:]:
        if part not in cls_names:
            raise ConfigError(
                f"variant '{spec}': unknown task '{part}' (declared: {cls_names})"
            )
        lambdas[part] = 1.0
    return Variant(text, lambdas)


def load_manifest(path) -> RunManifest:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from e
    base = path.parent

    model = _coerce(
        parser["model"] if parser.has_section("model") else {},
        {
            "d_model": int, "n_heads": int, "n_enc_layers": int,
            "n_dec_layers": int, "d_ff": int, "max_len": int, "dropout": float,
        },
    )

    train_section = parser["train"] if parser.has_section("train") else {}
    train = _coerce(
        train_section,
        {
            "batch_size": int, "epochs": int, "seed": int, "max_len": int,
            "label_smoothing": float, "lr": float, "beta1": float,
            "beta2": float, "eps": float, "weight_decay": float,
            "save_every_epoch": bool,
        },
    )
    if "grad_clip" in train_section:
        raw = train_section["grad_clip"].strip().lower()
        train["grad_clip"] = None if raw in ("none", "off") else float(raw)
    vocab_min_count = 1
    if "vocab_min_count" in train_section:
        vocab_min_count = int(train_section["vocab_min_count"])

    beam = BeamConfig(
        **_coerce(
            parser["beam"] if parser.has_section("beam") else {},
            {
                "beam_width": int, "max_len": int,
                "no_repeat_ngram": int, "length_penalty": float,
            },
        )
    )
    model_max_len = model.get("max_len", ModelConfig.max_len)
    if beam.max_len > model_max_len:
        raise ConfigError(
            f"{path}: [beam] max_len {beam.max_len} exceeds [model] max_len {model_max_len}"
        )

    tasks: list[TaskSpec] = []
    for section in parser.sections():
        if not section.startswith("task "):
            continue
        name = section[len("task ") :].strip()
        sec = parser[section]
        kind = sec.get("kind", "").strip()
        labels = tuple(
            t.strip() for t in sec.get("labels", "").split(",") if t.strip()
        )
        paths = {}
        for split in _SPLITS:
            if split in sec:
                paths[split] = base / sec[split]
        spec_kwargs = _coerce(sec, {"weight": float, "subsample_fraction": float})
        try:
            tasks.append(
                TaskSpec(name=name, kind=kind, labels=labels, paths=paths, **spec_kwargs)
            )
        except Exception as e:
            raise ConfigError(f"[task {name}]: {e}") from e
    if sum(1 for t in tasks if t.kind == KIND_GENERATION) != 1:
        raise ConfigError("manifest must declare exactly one generation task")
    for t in tasks:
        if "train" not in t.paths:
            raise ConfigError(f"task '{t.name}' declares no train file")
        for split, p in t.paths.items():
            if not Path(p).exists():
                raise ConfigError(f"task '{t.name}': {split} file not found: {p}")

    cls_names = [t.name for t in tasks if t.kind == KIND_CLASSIFICATION]
    variants: list[Variant] = []
    if parser.has_section("matrix") and "variants" in parser["matrix"]:
        for chunk in parser["matrix"]["variants"].split("|"):
            chunk = chunk.strip()
            if chunk:
                variants.append(parse_variant(chunk, cls_names))

    return RunManifest(
        path=path,
        model=model,
        train=train,
        beam=beam,
        tasks=tasks,
        variants=variants,
        vocab_min_count=vocab_min_count,
    )
