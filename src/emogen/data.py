"""Dataset ingestion, deterministic splitting, subsampling, synthetic corpora.

Files are UTF-8 TSV: one example per line, two tab-separated fields
(utterance/response for generation, text/label for classification).

The synthetic generator plants keyword families with a three-level label
hierarchy: 12 fine emotion labels, each mapping onto one of 6 coarse labels,
each mapping onto a binary polarity. Keyword families are disjoint, so a
bag-of-keywords lookup classifies every synthetic text perfectly. The
response of a generation pair is a fixed template keyed by the utterance's
topic word, which is drawn independently of the emotion family: generation
stays a learnable deterministic mapping with a known oracle while telling a
generation-only model nothing about the emotion labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .text import read_lines, write_text

KIND_GENERATION = "generation"
KIND_CLASSIFICATION = "classification"

E2_LABELS = ("negative", "positive")
E6_LABELS = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
E12_LABELS = (
    "rage", "irritation",
    "revulsion", "distaste",
    "terror", "anxiety",
    "delight", "contentment",
    "grief", "gloom",
    "amazement", "shock",
)

FINE_TO_COARSE = {
    "rage": "anger", "irritation": "anger",
    "revulsion": "disgust", "distaste": "disgust",
    "terror": "fear", "anxiety": "fear",
    "delight": "joy", "contentment": "joy",
    "grief": "sadness", "gloom": "sadness",
    "amazement": "surprise", "shock": "surprise",
}

COARSE_TO_POLARITY = {
    "anger": "negative", "disgust": "negative", "fear": "negative",
    "sadness": "negative", "joy": "positive", "surprise": "positive",
}

# One disjoint keyword family per fine label.
KEYWORDS = {
    "rage": ("furious", "fuming", "livid", "seething"),
    "irritation": ("annoyed", "irritated", "grumpy", "cranky"),
    "revulsion": ("disgusted", "revolted", "nauseated", "repulsed"),
    "distaste": ("unsavory", "icky", "gross", "distasteful"),
    "terror": ("terrified", "petrified", "panicked", "horrified"),
    "anxiety": ("anxious", "nervous", "worried", "uneasy"),
    "delight": ("delighted", "thrilled", "overjoyed", "ecstatic"),
    "contentment": ("content", "peaceful", "satisfied", "serene"),
    "grief": ("heartbroken", "devastated", "mournful", "grieving"),
    "gloom": ("gloomy", "miserable", "downcast", "glum"),
    "amazement": ("amazed", "astonished", "awestruck", "dazzled"),
    "shock": ("shocked", "startled", "speechless", "flabbergasted"),
}

TOPICS = (
    "weather", "traffic", "dinner", "meeting", "garden", "movie", "game",
    "trip", "news", "party", "exam", "concert", "kitchen", "holiday",
    "project", "neighbor", "music", "book", "match", "market",
)

UTTERANCE_TEMPLATES = (
    "i feel {kw} about the {topic}",
    "the {topic} made me {kw}",
    "honestly i am {kw} over the {topic}",
    "that {topic} left me {kw}",
)

# Responses are keyed by the topic word, never by the emotion family.
RESPONSE_TEMPLATES = {
    "weather": "i hope the weather clears up for you tomorrow",
    "traffic": "maybe leave earlier so the traffic does not catch you",
    "dinner": "that dinner sounds like something worth talking about",
    "meeting": "meetings like that can really set the tone for the week",
    "garden": "a garden takes patience but it pays you back",
    "movie": "maybe a different movie next time will suit you better",
    "game": "there is always another game to look forward to",
    "trip": "a trip like that stays with you for a long time",
    "news": "the news has a way of stirring everyone up",
    "party": "parties bring out a little of everything in people",
    "exam": "exams are rough but they do end eventually",
    "concert": "a concert can carry you away like nothing else",
    "kitchen": "the kitchen is where all the real stories start",
    "holiday": "holidays have a way of amplifying whatever you feel",
    "project": "projects like that ask a lot before they give back",
    "neighbor": "neighbors certainly keep life interesting around here",
    "music": "music finds you right where you are",
    "book": "a good book can turn a whole day around",
    "match": "matches like that keep everyone on their toes",
    "market": "the market is always full of surprises",
}


@dataclass
class GenerationExample:
    utterance: str
    response: str


@dataclass
class ClassificationExample:
    text: str
    label: str


@dataclass
class TaskSpec:
    """One trainable task: its kind, label set, loss weight and files."""

    name: str
    kind: str
    labels: tuple[str, ...] = ()
    weight: float = 1.0
    paths: dict = field(default_factory=dict)
    subsample_fraction: float = 1.0

    def __post_init__(self):
        if self.kind not in (KIND_GENERATION, KIND_CLASSIFICATION):
            raise DataError(f"task '{self.name}': unknown kind '{self.kind}'")
        if not 0.0 <= self.weight <= 1.0:
            raise DataError(f"task '{self.name}': weight {self.weight} not in [0, 1]")
        if self.kind == KIND_GENERATION and self.weight != 1.0:
            raise DataError(f"task '{self.name}': generation weight is fixed at 1")
        if self.kind == KIND_CLASSIFICATION:
            if not self.labels:
                raise DataError(f"task '{self.name}': classification needs labels")
            if len(set(self.labels)) != len(self.labels):
                raise DataError(f"task '{self.name}': duplicate labels")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise DataError(
                f"task '{self.name}': subsample fraction {self.subsample_fraction} "
                "not in (0, 1]"
            )


def _parse_lines(path):
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}")
        yield lineno, fields[0].strip(), fields[1].strip()


def load_generation_file(path) -> list[GenerationExample]:
    examples = []
    for lineno, utterance, response in _parse_lines(path):
        if not utterance:
            raise DataError(f"{path}:{lineno}: empty utterance field")
        if not response:
            raise DataError(f"{path}:{lineno}: empty response field")
        examples.append(GenerationExample(utterance, response))
    return examples


def load_classification_file(path, labels: Sequence[str]) -> list[ClassificationExample]:
    label_set = set(labels)
    examples = []
    for lineno, text, label in _parse_lines(path):
        if not text:
            raise DataError(f"{path}:{lineno}: empty text field")
        if label not in label_set:
            raise DataError(
                f"{path}:{lineno}: unknown label '{label}' "
                f"(expected one of {sorted(label_set)})"
            )
        examples.append(ClassificationExample(text, label))
    return examples


def load_task(spec: TaskSpec) -> dict[str, list]:
    """Read every split file the task declares, validating as it goes."""
    out = {}
    for split, path in spec.paths.items():
        if not Path(path).exists():
            raise DataError(f"task '{spec.name}': missing file {path}")
        if spec.kind == KIND_GENERATION:
            out[split] = load_generation_file(path)
        else:
            out[split] = load_classification_file(path, spec.labels)
    return out


def save_examples(path, examples) -> None:
    write_text(path, "".join(
        f"{ex.utterance}\t{ex.response}\n" if isinstance(ex, GenerationExample)
        else f"{ex.text}\t{ex.label}\n" for ex in examples))


def split_811(examples: list, seed: int) -> tuple[list, list, list]:
    """Seeded shuffle, then an 80/10/10 partition.

    Train takes floor(0.8 n); the remainder is shared evenly between valid
    and test with an odd leftover going to test.
    """
    n = len(examples)
    if n < 10:
        raise DataError(f"need at least 10 examples to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [examples[i] for i in perm]
    n_train = (n * 8) // 10
    remainder = n - n_train
    n_valid = remainder // 2
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_valid],
        shuffled[n_train + n_valid :],
    )


def subsample(examples: list, fraction: float, seed: int) -> list:
    """Uniform sample without replacement, stable in the original order."""
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"subsample fraction {fraction} not in (0, 1]")
    n = len(examples)
    k = int(round(fraction * n))
    idx = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    return [examples[i] for i in idx]


def gen_synthetic(task_kind: str, size: int, seed) -> list:
    """Deterministic synthetic corpus for one task.

    ``task_kind`` is one of: generation, e2, e6, e12. The same seed produces
    the same underlying texts for every kind, so fine labels project
    consistently onto their coarse counterparts.
    """
    if size < 10:
        raise DataError(f"synthetic corpus needs size >= 10, got {size}")
    if task_kind not in (KIND_GENERATION, "e2", "e6", "e12"):
        raise DataError(f"unknown synthetic task kind '{task_kind}'")
    rng = np.random.default_rng(seed)
    fine_labels = list(E12_LABELS)
    out = []
    for _ in range(size):
        fine = fine_labels[rng.integers(len(fine_labels))]
        kw = KEYWORDS[fine][rng.integers(len(KEYWORDS[fine]))]
        topic = TOPICS[rng.integers(len(TOPICS))]
        template = UTTERANCE_TEMPLATES[rng.integers(len(UTTERANCE_TEMPLATES))]
        text = template.format(kw=kw, topic=topic)
        if task_kind == KIND_GENERATION:
            out.append(GenerationExample(text, RESPONSE_TEMPLATES[topic]))
        elif task_kind == "e12":
            out.append(ClassificationExample(text, fine))
        elif task_kind == "e6":
            out.append(ClassificationExample(text, FINE_TO_COARSE[fine]))
        else:
            out.append(
                ClassificationExample(text, COARSE_TO_POLARITY[FINE_TO_COARSE[fine]])
            )
    return out


def label_set(task_kind: str) -> tuple[str, ...]:
    return {"e2": E2_LABELS, "e6": E6_LABELS, "e12": E12_LABELS}[task_kind]
