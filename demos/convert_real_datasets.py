"""Converters from the four public corpora to the package's TSV format.

None of the raw corpora ship with this repository; point each converter at
files you downloaded yourself. Output is always UTF-8 TSV, one example per
line: ``utterance<TAB>response`` or ``text<TAB>label``. Tabs and newlines
inside fields are replaced by spaces. The output is written only when the
whole raw file converts: a missing or malformed raw file exits non-zero with
a one-line message and leaves no output behind. Downstream, `emogen splits`
handles 8:1:1 splitting and subsampling for the corpora that need them.

Expected raw formats:

- daily_dialog: the `dialogues_text.txt` files (one per split), one dialogue
  per line with turns separated by `__eou__`. Pairs are consecutive turns
  (a sliding window, so a k-turn dialogue yields k-1 pairs). Emotion tags
  are ignored.
- tec: the Twitter Emotion Corpus dump, one tweet per line shaped like
  `id<TAB>text<TAB>:: emotion`. The corpus has no official split; run
  `emogen splits --seed ... ` on the output.
- sst2: the GLUE `train.tsv`/`dev.tsv` files with a `sentence<TAB>label`
  header, label 0 = negative, 1 = positive. To keep its size in line with
  the other tasks, thin the train split:
  `emogen splits --subsample 0.25 --subsample-scope train`.
- crowdflower: the `text_emotion.csv` sentiment file with columns
  tweet_id, sentiment, author, content. Rows labeled `empty` are dropped,
  leaving 12 labels; there is no official split, and the whole file is
  usually thinned: `emogen splits --subsample 0.5 --subsample-scope total`.

Usage:
    python3 demos/convert_real_datasets.py daily_dialog dialogues_text.txt out.tsv
    python3 demos/convert_real_datasets.py tec tec_raw.txt out.tsv
    python3 demos/convert_real_datasets.py sst2 train.tsv out.tsv
    python3 demos/convert_real_datasets.py crowdflower text_emotion.csv out.tsv
"""

import csv
import os
import sys

CROWDFLOWER_LABELS = {
    "anger", "boredom", "enthusiasm", "fun", "happiness", "hate",
    "love", "neutral", "relief", "sadness", "surprise", "worry",
}


def _clean(field: str) -> str:
    return " ".join(field.split())


def convert_daily_dialog(src):
    with open(src, encoding="utf-8") as fin:
        for line in fin:
            turns = [_clean(t) for t in line.split("__eou__")]
            turns = [t for t in turns if t]
            for utterance, response in zip(turns, turns[1:]):
                yield f"{utterance}\t{response}\n"


def convert_tec(src):
    with open(src, encoding="utf-8") as fin:
        for line in fin:
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 3:
                continue
            text = _clean(parts[1])
            label = parts[2].replace("::", "").strip()
            if text and label:
                yield f"{text}\t{label}\n"


def convert_sst2(src):
    names = {"0": "negative", "1": "positive"}
    with open(src, encoding="utf-8") as fin:
        header = fin.readline()
        if not header.startswith("sentence"):
            raise SystemExit(f"{src}: expected a GLUE header line")
        for line in fin:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or parts[1] not in names:
                continue
            text = _clean(parts[0])
            if text:
                yield f"{text}\t{names[parts[1]]}\n"


def convert_crowdflower(src):
    with open(src, encoding="utf-8", newline="") as fin:
        for row in csv.DictReader(fin):
            label = row.get("sentiment", "").strip()
            text = _clean(row.get("content", ""))
            if label in CROWDFLOWER_LABELS and text:
                yield f"{text}\t{label}\n"


CONVERTERS = {
    "daily_dialog": convert_daily_dialog,
    "tec": convert_tec,
    "sst2": convert_sst2,
    "crowdflower": convert_crowdflower,
}


def convert(corpus, src, dst):
    """Convert ``src`` and write ``dst`` whole; a failed conversion writes nothing."""
    try:
        lines = list(CONVERTERS[corpus](src))
    except OSError as e:
        raise SystemExit(f"{src}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise SystemExit(f"{src}: not UTF-8 ({e.reason})")
    tmp = f"{dst}.tmp"
    with open(tmp, "w", encoding="utf-8") as fout:
        fout.writelines(lines)
    os.replace(tmp, dst)
    return len(lines)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in CONVERTERS:
        raise SystemExit(
            f"usage: {sys.argv[0]} {{{'|'.join(CONVERTERS)}}} <raw-file> <out.tsv>"
        )
    written = convert(*sys.argv[1:])
    print(f"wrote {written} examples to {sys.argv[3]}")
