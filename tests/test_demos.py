"""Smoke test: every numbered demo runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import emogen

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, EMOGEN_LOG="WARNING")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(emogen.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert not any(tmp_path.iterdir())


CONVERTER = DEMOS[0].parent / "convert_real_datasets.py"

# Raw lines in each corpus's format (see the converter's docstring) and the
# TSV the converter must write for them.
RAW_CORPORA = {
    "daily_dialog": (
        "Hi , Tom . __eou__ Hello !  How are you ? __eou__ Fine , thanks . __eou__\n"
        "Is it\training ? __eou__ No . __eou__\n",
        "Hi , Tom .\tHello ! How are you ?\n"
        "Hello ! How are you ?\tFine , thanks .\n"
        "Is it raining ?\tNo .\n",
    ),
    "tec": (
        "101\tSo happy  today\t:: joy\n"
        "102\tno label column\n"
        "103\tWhy me\t:: sadness\n",
        "So happy today\tjoy\nWhy me\tsadness\n",
    ),
    "sst2": (
        "sentence\tlabel\n"
        "a gorgeous film \t1\n"
        "dull and flat\t0\n"
        "not a label\t2\n",
        "a gorgeous film\tpositive\ndull and flat\tnegative\n",
    ),
    "crowdflower": (
        '"tweet_id","sentiment","author","content"\n'
        '1,"worry","a","@x I am  worried"\n'
        '2,"empty","b","nothing here"\n'
        '3,"love","c","love, it"\n',
        "@x I am worried\tworry\nlove, it\tlove\n",
    ),
}


@pytest.mark.parametrize("corpus", sorted(RAW_CORPORA))
def test_converter_writes_tsv(corpus, tmp_path):
    raw, expected = RAW_CORPORA[corpus]
    src, dst = tmp_path / "raw.txt", tmp_path / "out.tsv"
    src.write_text(raw, encoding="utf-8")
    result = subprocess.run([sys.executable, str(CONVERTER), corpus, str(src), str(dst)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert dst.read_text(encoding="utf-8") == expected
    assert result.stdout == f"wrote {expected.count(chr(10))} examples to {dst}\n"


@pytest.mark.parametrize("args", [[], ["tec", "raw.txt"], ["imdb", "raw.txt", "out.tsv"]],
                         ids=["no-args", "two-args", "unknown-corpus"])
def test_converter_usage_error_exits_nonzero(args, tmp_path):
    result = subprocess.run([sys.executable, str(CONVERTER), *args], cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "usage:" in result.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("case", ["wrong-header", "missing-raw-file"])
def test_converter_bad_raw_file_exits_nonzero_and_writes_nothing(case, tmp_path):
    src, dst = tmp_path / "raw.txt", tmp_path / "out.tsv"
    if case == "wrong-header":
        src.write_text("text\tlabel\na gorgeous film\t1\n", encoding="utf-8")
    result = subprocess.run([sys.executable, str(CONVERTER), "sst2", str(src), str(dst)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"{src}: ") and result.stderr.count("\n") == 1
    assert not dst.exists() and not (tmp_path / "out.tsv.tmp").exists()
