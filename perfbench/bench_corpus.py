"""Seeded corpora in emogen's TSV format, written by the benchmark itself.

The make-up follows the package's synthetic data, but the word lists live
here, so a change to ``emogen.data`` cannot change the benchmark's inputs:

* an e6 text carries one keyword from its label's family, and the six
  families are disjoint, so the keyword alone gives the label;
* a generation pair's response is the template of the utterance's topic
  word; the topic is drawn independently of the emotion keyword.

Every text is lowercase words separated by single spaces, so whitespace
splitting gives exactly the package's tokens.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

E6_FAMILIES = {
    "anger": ("angry", "enraged", "outraged", "incensed", "irate", "resentful"),
    "disgust": ("sickened", "appalled", "repelled", "queasy", "nauseous", "loathsome"),
    "fear": ("scared", "frightened", "afraid", "jittery", "spooked", "alarmed"),
    "joy": ("happy", "cheerful", "joyful", "elated", "glad", "jubilant"),
    "sadness": ("sad", "unhappy", "sorrowful", "tearful", "dejected", "forlorn"),
    "surprise": ("surprised", "stunned", "astounded", "bewildered", "staggered", "floored"),
}
E6_LABELS = tuple(E6_FAMILIES)

RESPONSES = {
    "rain": "rain like that usually clears up by the evening",
    "bus": "the bus timetable always changes at this time of year",
    "lunch": "a long lunch with friends can fix most days",
    "office": "the office gets easier once the deadlines pass",
    "harbor": "the harbor looks different every single morning",
    "film": "you could pick a lighter film for the weekend",
    "race": "there will be another race before the season ends",
    "flight": "long flights are tiring but the arrival makes up for it",
    "report": "reports like that tend to stir up a lot of talk",
    "wedding": "weddings bring every feeling to the surface at once",
    "interview": "interviews are stressful but they are over soon enough",
    "festival": "a festival can sweep you along for days",
    "bakery": "the bakery on the corner has stories of its own",
    "vacation": "a vacation tends to magnify whatever you bring along",
    "deadline": "deadlines demand a lot before they let you go",
    "landlord": "landlords certainly keep things lively around here",
    "song": "a song can meet you exactly where you stand",
    "novel": "a gripping novel can change the shape of a day",
    "tournament": "tournaments keep every player alert until the end",
    "auction": "an auction is always full of small surprises",
}
TOPICS = tuple(RESPONSES)

UTTERANCE_TEMPLATES = (
    "i am {kw} about the {topic}",
    "the {topic} left me {kw} today",
    "my {topic} made me feel {kw}",
    "i was {kw} when i saw the {topic}",
)


@dataclass(frozen=True)
class Pair:
    utterance: str
    response: str


@dataclass(frozen=True)
class Labelled:
    text: str
    label: str


def _utterance(rng: random.Random, keyword: str) -> tuple[str, str]:
    topic = rng.choice(TOPICS)
    return rng.choice(UTTERANCE_TEMPLATES).format(kw=keyword, topic=topic), topic


def make_pairs(rng: random.Random, n: int) -> list[Pair]:
    out = []
    for _ in range(n):
        label = rng.choice(E6_LABELS)
        text, topic = _utterance(rng, rng.choice(E6_FAMILIES[label]))
        out.append(Pair(text, RESPONSES[topic]))
    return out


def make_labelled(rng: random.Random, n: int) -> list[Labelled]:
    out = []
    for _ in range(n):
        label = rng.choice(E6_LABELS)
        text, _ = _utterance(rng, rng.choice(E6_FAMILIES[label]))
        out.append(Labelled(text, label))
    return out


def split_sizes(n: int) -> tuple[int, int, int]:
    """Train, valid and test sizes: 80/10/10, the odd one going to test."""
    n_train = n * 8 // 10
    n_valid = (n - n_train) // 2
    return n_train, n_valid, n - n_train - n_valid


def split_paths(directory: Path, stem: str) -> dict[str, Path]:
    return {split: directory / f"{stem}.{split}.tsv" for split in ("train", "valid", "test")}


def write_splits(directory: Path, stem: str, examples: list) -> dict[str, list]:
    """Write ``<stem>.{train,valid,test}.tsv``; return the examples per split."""
    n_train, n_valid, _ = split_sizes(len(examples))
    splits = {
        "train": examples[:n_train],
        "valid": examples[n_train : n_train + n_valid],
        "test": examples[n_train + n_valid :],
    }
    for name, path in split_paths(directory, stem).items():
        with open(path, "w", encoding="utf-8") as f:
            for ex in splits[name]:
                f.write("\t".join(vars(ex).values()) + "\n")
    return splits


def steps_per_epoch(train_sizes: list[int], batch_size: int) -> int:
    return sum(math.ceil(n / batch_size) for n in train_sizes)
