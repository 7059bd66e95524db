"""Declarative run manifests: one INI file drives data, training and decoding.

Sections: [model], [train], [beam], one [task <name>] per task, and an
optional [matrix] listing variants. The keys of [model], [train], [beam]
and of a task are the defaulted fields of ``ModelConfig``, ``TrainPlan``
(plus ``RunManifest.vocab_min_count``), ``BeamConfig`` and ``TaskSpec``,
each read as its default's type; an unknown key or section is an error.
Paths are resolved relative to the manifest file. A variant is either a
task-subset name such as ``R+e6`` or a weight vector such as
``lambda(0.5, 0.5, 0)`` over the declared classification tasks in order;
tasks with weight 0 are left out of the training pool (their heads stay at
initialization).
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .data import KIND_CLASSIFICATION, KIND_GENERATION, TaskSpec
from .decoding import BeamConfig
from .errors import ConfigError, DataError
from .model import ModelConfig
from .trainer import TrainPlan

_SPLITS = ("train", "valid", "test")
_SECTIONS = ("model", "train", "beam", "matrix")


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
        """Train plan for one variant, or the manifest's own weights; max_len fits the model."""
        tasks = [self.generation_task]
        for spec in self.classification_tasks():
            weight = spec.weight if variant is None else variant.lambdas.get(spec.name, 0.0)
            if weight > 0.0:
                tasks.append(dataclasses.replace(spec, weight=weight))
        max_len = min(self.train.get("max_len", TrainPlan.max_len),
                      self.model.get("max_len", ModelConfig.max_len))
        return TrainPlan(tasks=tasks, **{**self.train, "max_len": max_len})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _read_fields(cls, items: dict, where: str) -> dict:
    """Cast ``items`` onto the defaulted fields of the dataclass ``cls``.

    Each value is read as the type of its field's default; a field typed
    ``... | None`` also takes ``none`` or ``off``.
    """
    fields = {f.name: f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    out = {}
    for key, raw in items.items():
        f = fields.get(key)
        if f is None:
            raise ConfigError(f"{where} unknown key '{key}'")
        text = raw.strip().lower()
        try:
            if "None" in str(f.type) and text in ("none", "off"):
                out[key] = None
            elif isinstance(f.default, bool):
                out[key] = configparser.ConfigParser.BOOLEAN_STATES[text]
            else:
                out[key] = type(f.default)(raw)
        except (KeyError, ValueError) as e:
            raise ConfigError(f"{where} bad value for '{key}': {raw!r}") from e
    return out


def parse_variant(spec: str, cls_names: list[str]) -> Variant:
    text = spec.strip()
    if text.lower().startswith("lambda(") and text.endswith(")"):
        values = [v.strip() for v in text[len("lambda(") : -1].split(",")]
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
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    if parser.defaults():
        raise ConfigError(f"{path}: a [DEFAULT] section is not supported")
    for name in parser.sections():
        if name not in _SECTIONS and not name.startswith("task "):
            raise ConfigError(f"{path}: unknown section [{name}]")

    def section(name: str) -> dict:
        return dict(parser[name]) if parser.has_section(name) else {}

    model = _read_fields(ModelConfig, section("model"), f"{path}: [model]")
    train = section("train")
    # vocab_min_count shapes the shared vocabulary, not the train plan.
    extra = _read_fields(
        RunManifest,
        {k: train.pop(k) for k in ("vocab_min_count",) if k in train},
        f"{path}: [train]",
    )
    train = _read_fields(TrainPlan, train, f"{path}: [train]")
    beam = BeamConfig(**_read_fields(BeamConfig, section("beam"), f"{path}: [beam]"))
    model_max_len = model.get("max_len", ModelConfig.max_len)
    if beam.max_len > model_max_len:
        raise ConfigError(
            f"{path}: [beam] max_len {beam.max_len} exceeds [model] max_len {model_max_len}"
        )

    tasks: list[TaskSpec] = []
    for name in parser.sections():
        if not name.startswith("task "):
            continue
        items = section(name)
        kind = items.pop("kind", "").strip()
        labels = tuple(t.strip() for t in items.pop("labels", "").split(",") if t.strip())
        paths = {s: path.parent / items.pop(s) for s in _SPLITS if s in items}
        spec_kwargs = _read_fields(TaskSpec, items, f"{path}: [{name}]")
        task_name = name[len("task ") :].strip()
        try:
            tasks.append(
                TaskSpec(name=task_name, kind=kind, labels=labels, paths=paths, **spec_kwargs)
            )
        except DataError as e:
            raise ConfigError(f"{path}: [{name}] {e}") from e
    if sum(1 for t in tasks if t.kind == KIND_GENERATION) != 1:
        raise ConfigError("manifest must declare exactly one generation task")
    for t in tasks:
        if "train" not in t.paths:
            raise ConfigError(f"task '{t.name}' declares no train file")
        for split, p in t.paths.items():
            if not Path(p).exists():
                raise ConfigError(f"task '{t.name}': {split} file not found: {p}")

    matrix = section("matrix")
    for key in matrix:
        if key != "variants":
            raise ConfigError(f"{path}: [matrix] unknown key '{key}'")
    cls_names = [t.name for t in tasks if t.kind == KIND_CLASSIFICATION]
    chunks = (c.strip() for c in matrix.get("variants", "").split("|"))
    variants = [parse_variant(c, cls_names) for c in chunks if c]

    return RunManifest(
        path=path,
        model=model,
        train=train,
        beam=beam,
        tasks=tasks,
        variants=variants,
        **extra,
    )
