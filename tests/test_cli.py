import json
from pathlib import Path

import numpy as np
import pytest

from emogen.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from emogen.data import load_classification_file, load_generation_file, label_set
from emogen.errors import ConfigError
from emogen.manifest import load_manifest, parse_variant
from emogen.model import load_checkpoint, save_checkpoint

TINY_MANIFEST = """\
[model]
d_model = 16
n_heads = 2
n_enc_layers = 1
n_dec_layers = 1
d_ff = 32
max_len = 16
dropout = 0.0

[train]
batch_size = 16
epochs = 2
seed = 3
lr = 0.001
save_every_epoch = true

[beam]
beam_width = 3
max_len = 16
no_repeat_ngram = 3

[task response]
kind = generation
train = gen.train.tsv
valid = gen.valid.tsv
test = gen.test.tsv

[task e6]
kind = classification
labels = anger, disgust, fear, joy, sadness, surprise
weight = 1.0
train = e6.train.tsv
valid = e6.valid.tsv
test = e6.test.tsv

[matrix]
variants = R | R+e6 | lambda(1) | lambda(0.5)
"""


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--seed", "7", "--size", "80",
                 "--cls-size", "60"]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def tiny_run_dir(synth_dir, tmp_path_factory):
    (synth_dir / "tiny.ini").write_text(TINY_MANIFEST)
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--config", str(synth_dir / "tiny.ini"),
                 "--out", str(out / "t")])
    assert code == EXIT_OK
    return out / "t"


class TestSynth:
    def test_byte_identical_across_runs(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--seed", "7", "--size", "80",
                     "--cls-size", "60"]) == EXIT_OK
        for name in ("gen.train.tsv", "e6.train.tsv", "e2.valid.tsv",
                     "e12.test.tsv", "manifest.ini"):
            assert (synth_dir / name).read_bytes() == (again / name).read_bytes()

    def test_files_pass_loader_validation(self, synth_dir):
        assert len(load_generation_file(synth_dir / "gen.train.tsv")) == 64
        for stem in ("e2", "e6", "e12"):
            for split in ("train", "valid", "test"):
                load_classification_file(
                    synth_dir / f"{stem}.{split}.tsv", label_set(stem)
                )

    def test_six_label_coverage_at_600(self, tmp_path):
        out = tmp_path / "big"
        assert main(["synth", "--out", str(out), "--seed", "3", "--size", "20",
                     "--cls-size", "600"]) == EXIT_OK
        examples = load_classification_file(out / "e6.train.tsv", label_set("e6"))
        labels = {ex.label for ex in examples}
        assert labels == set(label_set("e6"))

    def test_echo_written(self, synth_dir):
        echo = json.loads((synth_dir / "echo.json").read_text())
        assert echo["command"] == "synth"
        assert echo["args"]["seed"] == 7
        assert "numpy" in echo["versions"]


class TestSplits:
    def test_basic_split(self, tmp_path):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"u {i}\tv {i}\n" for i in range(100)))
        out = tmp_path / "splits"
        assert main(["splits", "--input", str(src), "--out", str(out),
                     "--seed", "5"]) == EXIT_OK
        lines = (out / "all.train.tsv").read_text().splitlines()
        assert len(lines) == 80
        assert len((out / "all.valid.tsv").read_text().splitlines()) == 10
        assert len((out / "all.test.tsv").read_text().splitlines()) == 10

    def test_subsample_train_scope(self, tmp_path):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"u {i}\tv {i}\n" for i in range(100)))
        out = tmp_path / "splits"
        assert main(["splits", "--input", str(src), "--out", str(out),
                     "--seed", "5", "--subsample", "0.25",
                     "--subsample-scope", "train"]) == EXIT_OK
        assert len((out / "all.train.tsv").read_text().splitlines()) == 20
        assert len((out / "all.test.tsv").read_text().splitlines()) == 10

    def test_subsample_total_scope(self, tmp_path):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"u {i}\tv {i}\n" for i in range(200)))
        out = tmp_path / "splits"
        assert main(["splits", "--input", str(src), "--out", str(out),
                     "--seed", "5", "--subsample", "0.5",
                     "--subsample-scope", "total"]) == EXIT_OK
        assert len((out / "all.train.tsv").read_text().splitlines()) == 80


class TestManifest:
    def test_parses_tasks_and_variants(self, synth_dir):
        manifest = load_manifest(synth_dir / "manifest.ini")
        assert [t.name for t in manifest.tasks] == ["response", "e6", "e2", "e12"]
        assert manifest.generation_task.name == "response"
        assert [v.name for v in manifest.variants][:2] == ["R", "R+e6"]

    def test_lambda_variant_parsing(self):
        v = parse_variant("lambda(1, 0.5, 0)", ["e6", "e2", "e12"])
        assert v.lambdas == {"e6": 1.0, "e2": 0.5, "e12": 0.0}

    def test_variant_errors(self):
        with pytest.raises(ConfigError):
            parse_variant("lambda(1, 0.5)", ["e6", "e2", "e12"])
        with pytest.raises(ConfigError):
            parse_variant("R+nope", ["e6"])
        with pytest.raises(ConfigError):
            parse_variant("lambda(2, 0, 0)", ["e6", "e2", "e12"])

    def test_missing_file_is_config_error(self, synth_dir, tmp_path):
        text = (synth_dir / "manifest.ini").read_text().replace(
            "gen.train.tsv", "missing.tsv"
        )
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="missing.tsv"):
            load_manifest(bad)


class TestTrainCommand:
    def test_artifacts_written(self, tiny_run_dir):
        for name in ("vocab.txt", "best.ckpt", "last.ckpt", "metrics.jsonl",
                     "echo.json", "epoch_000.ckpt", "epoch_001.ckpt"):
            assert (tiny_run_dir / name).exists(), name

    def test_metrics_lines_parse(self, tiny_run_dir):
        lines = (tiny_run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            entry = json.loads(line)
            assert {"epoch", "train", "valid", "best_epoch"} <= set(entry)

    def test_echo_reproduces_manifest(self, tiny_run_dir):
        echo = json.loads((tiny_run_dir / "echo.json").read_text())
        assert echo["command"] == "train"
        task_names = [t["name"] for t in echo["manifest"]["tasks"]]
        assert task_names == ["response", "e6"]


class TestGenerateCommand:
    def test_generate_from_checkpoint(self, synth_dir, tiny_run_dir, tmp_path):
        out = tmp_path / "hyp.txt"
        src = synth_dir / "gen.test.tsv"
        utterances = tmp_path / "utt.txt"
        utterances.write_text(
            "".join(line.split("\t")[0] + "\n"
                    for line in src.read_text().splitlines())
        )
        code = main(["generate", "--checkpoint", str(tiny_run_dir / "best.ckpt"),
                     "--input", str(utterances), "--output", str(out),
                     "--beams", "3", "--max-len", "16"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == len(utterances.read_text().splitlines())

    def test_deterministic(self, synth_dir, tiny_run_dir, tmp_path):
        utterances = tmp_path / "utt.txt"
        utterances.write_text("i feel glum about the news\n")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["generate", "--checkpoint", str(tiny_run_dir / "best.ckpt"),
                         "--input", str(utterances), "--output", str(path),
                         "--max-len", "16"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.fixture
    def utterances(self, tmp_path):
        path = tmp_path / "utt.txt"
        path.write_text("i feel glum about the news\n")
        return path

    def generate(self, checkpoint, src, out, *extra):
        return main(["generate", "--checkpoint", str(checkpoint), "--input", str(src),
                     "--output", str(out), *extra])

    def test_max_len_above_checkpoint_is_config_error(self, tiny_run_dir, utterances,
                                                      tmp_path, caplog):
        code = self.generate(tiny_run_dir / "best.ckpt", utterances, tmp_path / "o.txt",
                             "--max-len", "17")
        assert code == EXIT_CONFIG
        assert "--max-len 17 exceeds the checkpoint's max_len 16" in caplog.text
        assert not (tmp_path / "o.txt").exists()

    def test_non_utf8_line_is_data_error_with_line_number(self, tiny_run_dir, tmp_path, caplog):
        src = tmp_path / "utt.txt"
        src.write_bytes(b"i feel glum\n\xff\xfe broken\n")
        code = self.generate(tiny_run_dir / "best.ckpt", src, tmp_path / "o.txt",
                             "--max-len", "16")
        assert code == EXIT_DATA
        assert f"{src}:2: decoding failed" in caplog.text

    def test_missing_input_is_data_error_naming_the_path(self, tiny_run_dir, tmp_path, caplog):
        src = tmp_path / "missing.txt"
        code = self.generate(tiny_run_dir / "best.ckpt", src, tmp_path / "o.txt",
                             "--max-len", "16")
        assert code == EXIT_DATA
        assert f"{src}: cannot read input" in caplog.text
        assert not (tmp_path / "o.txt").exists()

    def test_non_finite_checkpoint_is_numeric_error(self, tiny_run_dir, utterances,
                                                    tmp_path, caplog):
        model, meta = load_checkpoint(tiny_run_dir / "best.ckpt")
        model.params["dec.final_ln.b"].data[:] = np.nan
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, model, meta)
        code = self.generate(bad, utterances, tmp_path / "o.txt", "--max-len", "16",
                             "--vocab", str(tiny_run_dir / "vocab.txt"))
        assert code == EXIT_NUMERIC
        assert "non-finite logits" in caplog.text


class TestEvaluateCommand:
    def test_generation_only(self, tmp_path):
        hyp, ref, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "rep.json"
        hyp.write_text("a b c d\ne f g h\n")
        ref.write_text("a b c d\ne f g x\n")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) >= {"bleu", "distinct1", "distinct2", "avg_len"}
        assert doc["avg_len"] == 4.0

    def test_with_classification(self, tmp_path):
        hyp, ref, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "rep.json"
        hyp.write_text("a b c\n")
        ref.write_text("a b c\n")
        pred = tmp_path / "pred.txt"
        gold = tmp_path / "gold.tsv"
        labels = tmp_path / "labels.txt"
        pred.write_text("joy\nanger\n")
        gold.write_text("some text\tjoy\nother text\tjoy\n")
        labels.write_text("anger\njoy\n")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out), "--pred", str(pred),
                     "--gold", str(gold), "--labels", str(labels)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["accuracy"] == 0.5


class TestExitCodes:
    def test_config_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_data_error(self, tmp_path):
        hyp, ref, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "o.json"
        hyp.write_text("a\n")
        ref.write_text("a\nb\n")  # length mismatch
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out)]) == EXIT_DATA

    def test_numeric_error(self, tmp_path):
        hyp, ref, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "o.json"
        hyp.write_text("a\nb\n")  # one-token sentences: no bigrams anywhere
        ref.write_text("a\nb\n")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out)]) == EXIT_NUMERIC

    def test_pred_without_gold_is_config_error(self, tmp_path):
        hyp, ref, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "o.json"
        hyp.write_text("a b\n")
        ref.write_text("a b\n")
        pred = tmp_path / "p.txt"
        pred.write_text("x\n")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out), "--pred", str(pred)]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def matrix_out(synth_dir, tmp_path_factory):
    (synth_dir / "tiny.ini").write_text(TINY_MANIFEST)
    out = tmp_path_factory.mktemp("matrix")
    code = main(["matrix", "--config", str(synth_dir / "tiny.ini"),
                 "--out", str(out / "m")])
    assert code == EXIT_OK
    return out / "m"


class TestMatrixCommand:
    def test_all_variants_present(self, matrix_out):
        rows = json.loads((matrix_out / "report.json").read_text())
        assert [r["variant"] for r in rows] == ["R", "R+e6", "lambda(1)", "lambda(0.5)"]
        header = (matrix_out / "report.tsv").read_text().splitlines()[0]
        assert header.split("\t")[:2] == ["variant", "bleu"]

    def test_unit_lambda_row_equals_named_row(self, matrix_out):
        rows = {r["variant"]: r for r in json.loads((matrix_out / "report.json").read_text())}
        named = rows["R+e6"]
        lam = rows["lambda(1)"]
        for key in named:
            if key == "variant":
                continue
            assert named[key] == lam[key], key
        a = (matrix_out / "R+e6" / "best.ckpt").read_bytes()
        b = (matrix_out / "lambda(1)" / "best.ckpt").read_bytes()
        assert a == b

    def test_variants_share_test_split(self, matrix_out):
        a = (matrix_out / "R" / "test.src.txt").read_bytes()
        b = (matrix_out / "R+e6" / "test.src.txt").read_bytes()
        assert a == b

    def test_beam_longer_than_model_is_config_error(self, synth_dir, tmp_path, caplog):
        ini = synth_dir / "longbeam.ini"
        ini.write_text(TINY_MANIFEST.replace("beam_width = 3\nmax_len = 16",
                                             "beam_width = 3\nmax_len = 32"))
        assert main(["matrix", "--config", str(ini),
                     "--out", str(tmp_path / "m")]) == EXIT_CONFIG
        assert "[beam] max_len 32 exceeds [model] max_len 16" in caplog.text
        assert not (tmp_path / "m").exists()

    def test_empty_variant_list_is_config_error(self, synth_dir, tmp_path):
        text = TINY_MANIFEST.replace(
            "variants = R | R+e6 | lambda(1) | lambda(0.5)", "variants ="
        )
        ini = synth_dir / "novariants.ini"
        ini.write_text(text)
        assert main(["matrix", "--config", str(ini),
                     "--out", str(tmp_path / "m")]) == EXIT_CONFIG
