import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emogen
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

    def test_lines_are_written_as_their_trimmed_fields(self, tmp_path):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f" u {i} \t v {i}\n" for i in range(10)))
        out = tmp_path / "splits"
        assert main(["splits", "--input", str(src), "--out", str(out)]) == EXIT_OK
        written = [line for split in ("train", "valid", "test")
                   for line in (out / f"all.{split}.tsv").read_text().splitlines()]
        assert sorted(written) == sorted(f"u {i}\tv {i}" for i in range(10))

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

    def test_subsample_defaults_to_train_scope(self, tmp_path):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"u {i}\tv {i}\n" for i in range(100)))
        full, part = tmp_path / "full", tmp_path / "part"
        assert main(["splits", "--input", str(src), "--out", str(full), "--seed", "5"]) == EXIT_OK
        assert main(["splits", "--input", str(src), "--out", str(part), "--seed", "5",
                     "--subsample", "0.25"]) == EXIT_OK
        assert len((part / "all.train.tsv").read_text().splitlines()) == 20
        for split in ("valid", "test"):
            name = f"all.{split}.tsv"
            assert (part / name).read_bytes() == (full / name).read_bytes()

    @pytest.mark.parametrize("fraction", ["7", "0", "-0.5"])
    def test_subsample_outside_unit_interval_is_config_error(self, fraction, tmp_path, caplog):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"u {i}\tv {i}\n" for i in range(100)))
        assert main(["splits", "--input", str(src), "--out", str(tmp_path / "s"),
                     "--subsample", fraction]) == EXIT_CONFIG
        assert "--subsample" in caplog.text
        assert not (tmp_path / "s").exists()


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
        # the bare spelling of lambda(...) is not a variant
        with pytest.raises(ConfigError, match="must start with the generation task"):
            parse_variant("(1, 0.5, 0)", ["e6", "e2", "e12"])

    def test_missing_file_is_config_error(self, synth_dir, tmp_path):
        text = (synth_dir / "manifest.ini").read_text().replace(
            "gen.train.tsv", "missing.tsv"
        )
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="missing.tsv"):
            load_manifest(bad)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("### Manifest format"):]
        block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        (tmp_path / "manifest.ini").write_text(block)
        for name in re.findall(r"= (\S+\.tsv)$", block, re.M):
            (tmp_path / name).write_text("some text\tjoy\n")
        manifest = load_manifest(tmp_path / "manifest.ini")
        assert [t.name for t in manifest.tasks] == ["response", "e6"]
        assert manifest.train["grad_clip"] == 1.0
        assert [v.lambdas for v in manifest.variants] == [{}, {"e6": 1.0}, {"e6": 1.0},
                                                          {"e6": 0.5}]


# Each case edits TINY_MANIFEST once; the error must name the key or section.
MALFORMED = {
    "model_key": ("d_model = 16", "d_modle = 16", "'d_modle'"),
    "train_key": ("epochs = 2", "epoch = 2", "'epoch'"),
    "beam_key": ("beam_width = 3", "beam_widht = 3", "'beam_widht'"),
    "task_key": ("weight = 1.0", "weigth = 0.5", "[task e6] unknown key 'weigth'"),
    "matrix_key": ("[matrix]\n", "[matrix]\nvariant = R\n", "[matrix] unknown key 'variant'"),
    "section": ("[beam]", "[beams]", "unknown section [beams]"),
    "default_section": ("[model]", "[DEFAULT]\nseed = 3\n\n[model]", "[DEFAULT]"),
    "bad_int": ("batch_size = 16", "batch_size = sixteen", "'batch_size'"),
    "bad_float": ("lr = 0.001", "lr = fast", "'lr'"),
    "bad_bool": ("save_every_epoch = true", "save_every_epoch = maybe", "'save_every_epoch'"),
    "grad_clip": ("lr = 0.001", "lr = 0.001\ngrad_clip = abc", "'grad_clip'"),
    "vocab_min_count": ("lr = 0.001", "lr = 0.001\nvocab_min_count = two",
                        "'vocab_min_count'"),
    "n_heads_zero": ("n_heads = 2", "n_heads = 0", "n_heads=0 must be >= 1"),
    "dropout_one": ("dropout = 0.0", "dropout = 1.0", "dropout must be in [0, 1)"),
    "negative_lr": ("lr = 0.001", "lr = -0.001", "lr must be > 0"),
    "negative_grad_clip": ("lr = 0.001", "lr = 0.001\ngrad_clip = -1", "grad_clip must be > 0"),
    "label_smoothing": ("lr = 0.001", "lr = 0.001\nlabel_smoothing = 1.5",
                        "label_smoothing must be in [0, 1)"),
    "beta2_one": ("lr = 0.001", "lr = 0.001\nbeta2 = 1.0", "beta2 must be in [0, 1)"),
    "zero_eps": ("lr = 0.001", "lr = 0.001\neps = 0", "eps must be > 0"),
    "negative_weight_decay": ("lr = 0.001", "lr = 0.001\nweight_decay = -0.1",
                              "weight_decay must be >= 0"),
    "max_len_one": ("lr = 0.001", "lr = 0.001\nmax_len = 1", "max_len must be >= 2"),
}


class TestMalformedManifest:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_train_exits_config_naming_the_key(self, case, synth_dir, tmp_path, caplog):
        old, new, needle = MALFORMED[case]
        assert old in TINY_MANIFEST
        ini = synth_dir / f"malformed_{case}.ini"
        ini.write_text(TINY_MANIFEST.replace(old, new, 1))
        code = main(["train", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert needle in caplog.text
        assert not (tmp_path / "o").exists()

    def test_non_utf8_manifest_is_config_error(self, synth_dir, tmp_path, caplog):
        ini = synth_dir / "latin1.ini"
        ini.write_bytes(TINY_MANIFEST.replace("dropout", "drop\xf6ut").encode("latin-1"))
        code = main(["train", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{ini}: 'utf-8' codec can't decode" in caplog.text

    def test_none_disables_grad_clip(self, synth_dir):
        ini = synth_dir / "noclip.ini"
        ini.write_text(TINY_MANIFEST.replace("lr = 0.001", "lr = 0.001\ngrad_clip = none"))
        assert load_manifest(ini).build_plan().grad_clip is None


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

    @pytest.mark.parametrize("where", ["header", "body", "flipped_body_byte", "no_crc32"])
    def test_truncated_checkpoint_is_config_error(self, where, tiny_run_dir, utterances,
                                                  tmp_path, caplog):
        data = (tiny_run_dir / "best.ckpt").read_bytes()
        magic_and_length = data.index(b"\n", data.index(b"\n") + 1) + 1
        bad = tmp_path / "cut.ckpt"
        if where == "flipped_body_byte":
            data = bytearray(data)
            data[-100] ^= 0x01
            bad.write_bytes(data)
        elif where == "no_crc32":
            length = int(data[data.index(b"\n") + 1:magic_and_length])
            header = json.loads(data[magic_and_length:magic_and_length + length])
            del header["crc32"]
            payload = json.dumps(header).encode()
            bad.write_bytes(b"EMOGEN-CKPT-1\n%d\n" % len(payload) + payload
                            + data[magic_and_length + length:])
        else:
            cut = magic_and_length + 20 if where == "header" else len(data) - 100
            bad.write_bytes(data[:cut])
        code = self.generate(bad, utterances, tmp_path / "o.txt", "--max-len", "16",
                             "--vocab", str(tiny_run_dir / "vocab.txt"))
        assert code == EXIT_CONFIG
        needle = {"header": "truncated or corrupt checkpoint header",
                  "body": "checkpoint body holds",
                  "flipped_body_byte": "checkpoint body has crc32",
                  "no_crc32": "checkpoint header has no crc32"}[where]
        assert f"{bad}: {needle}" in caplog.text
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("change", ["extra_key_bias", "missing_final_ln_bias"])
    def test_checkpoint_not_matching_layout_is_config_error(self, change, tiny_run_dir,
                                                            utterances, tmp_path, caplog):
        model, meta = load_checkpoint(tiny_run_dir / "best.ckpt")
        params = {}
        for name, p in model.params.items():
            if change == "missing_final_ln_bias" and name == "dec.final_ln.b":
                continue
            params[name] = p.data
            if change == "extra_key_bias" and name == "enc.0.attn.k.w":
                # The layout of checkpoints written before K lost its bias.
                params["enc.0.attn.k.b"] = np.zeros(p.shape[1])
        # A bundle always holds its config's layout, so write the file by hand.
        entries, offset = [], 0
        for name, data in params.items():
            entries.append({"name": name, "shape": list(data.shape), "offset": offset,
                            "nbytes": data.nbytes})
            offset += data.nbytes
        header = json.dumps({"config": model.config.to_dict(), "meta": meta,
                             "params": entries}).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"EMOGEN-CKPT-1\n%d\n" % len(header) + header + b"\n"
                        + b"".join(data.astype("<f8").tobytes() for data in params.values()))
        code = self.generate(bad, utterances, tmp_path / "o.txt", "--max-len", "16",
                             "--vocab", str(tiny_run_dir / "vocab.txt"))
        assert code == EXIT_CONFIG
        assert f"{bad}: checkpoint tensor" in caplog.text
        assert {"extra_key_bias": "enc.0.attn.k.b",
                "missing_final_ln_bias": "dec.final_ln.b"}[change] in caplog.text
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


class TestUnreadableInputs:
    """A missing or non-UTF-8 input file exits 2 or 3 and names its path."""

    @pytest.fixture
    def utterances(self, tmp_path):
        path = tmp_path / "utt.txt"
        path.write_text("i feel glum about the news\n")
        return path

    def generate(self, checkpoint, src, out, *extra):
        return main(["generate", "--checkpoint", str(checkpoint), "--input", str(src),
                     "--output", str(out), "--max-len", "16", *extra])

    def test_missing_checkpoint_is_config_error(self, utterances, tmp_path, caplog):
        missing = tmp_path / "nope.ckpt"
        assert self.generate(missing, utterances, tmp_path / "o.txt") == EXIT_CONFIG
        assert f"{missing}: cannot read checkpoint" in caplog.text
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("case", ["missing_vocab_flag", "no_vocab_beside", "non_utf8_vocab"])
    def test_unreadable_vocab_is_data_error(self, case, tiny_run_dir, utterances, tmp_path,
                                            caplog):
        checkpoint, extra = tiny_run_dir / "best.ckpt", []
        if case == "missing_vocab_flag":
            vocab = tmp_path / "nope.txt"
            extra = ["--vocab", str(vocab)]
        elif case == "no_vocab_beside":
            checkpoint = tmp_path / "alone" / "best.ckpt"
            checkpoint.parent.mkdir()
            checkpoint.write_bytes((tiny_run_dir / "best.ckpt").read_bytes())
            vocab = checkpoint.parent / "vocab.txt"
        else:
            vocab = tmp_path / "vocab.txt"
            vocab.write_bytes((tiny_run_dir / "vocab.txt").read_bytes() + b"caf\xe9\n")
            extra = ["--vocab", str(vocab)]
        assert self.generate(checkpoint, utterances, tmp_path / "o.txt", *extra) == EXIT_DATA
        assert f"{vocab}: " in caplog.text
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("which", ["hyp", "ref", "pred", "gold"])
    @pytest.mark.parametrize("how", ["missing", "non_utf8"])
    def test_unreadable_evaluate_input_is_data_error(self, which, how, tmp_path, caplog):
        files = {"hyp": "a b c\n", "ref": "a b c\n", "pred": "joy\n", "gold": "x\tjoy\n",
                 "labels": "anger\njoy\n"}
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        if how == "missing":
            paths[which].unlink()
        else:
            paths[which].write_bytes(b"\xff\xfe\n")
        argv = ["evaluate", "--out", str(tmp_path / "rep.json")]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        assert main(argv) == EXIT_DATA
        assert f"{paths[which]}: " in caplog.text
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("case", ["missing", "malformed_line"])
    def test_unreadable_splits_input_is_data_error(self, case, tmp_path, caplog):
        src, out = tmp_path / "all.tsv", tmp_path / "sp"
        named = f"{src}: cannot read"
        if case == "malformed_line":
            src.write_text("".join(f"u {i}\tv {i}\n" for i in range(20)) + "no tab here\n")
            named = f"{src}:21: expected 2 tab-separated fields"
        assert main(["splits", "--input", str(src), "--out", str(out)]) == EXIT_DATA
        assert named in caplog.text
        assert not out.exists()

    def test_non_utf8_train_file_is_data_error(self, synth_dir, tmp_path, caplog):
        data = tmp_path / "synth"
        shutil.copytree(synth_dir, data)
        bad = data / "e6.train.tsv"
        bad.write_bytes(bad.read_bytes() + b"caf\xe9\tjoy\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(data / "manifest.ini"), "--out", str(out)]) == EXIT_DATA
        assert f"{bad}: not UTF-8 text" in caplog.text
        assert not out.exists()


class TestUnwritableOutputs:
    """An output path that cannot be made or written exits 2, names the path and leaves no file."""

    @pytest.mark.parametrize("command", ["synth", "splits", "train", "matrix"])
    def test_out_naming_a_file_is_config_error(self, command, synth_dir, tmp_path, caplog,
                                               capsys):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"u {i}\tv {i}\n" for i in range(20)))
        out = tmp_path / "afile"
        out.write_text("kept\n")
        argv = {"synth": ["synth", "--size", "20"],
                "splits": ["splits", "--input", str(src)],
                "train": ["train", "--config", str(synth_dir / "manifest.ini")],
                "matrix": ["matrix", "--config", str(synth_dir / "manifest.ini")]}[command]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert f"{out}: cannot make directory" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    @pytest.mark.parametrize("parent", ["missing", "a_file"])
    def test_output_under_an_unusable_directory_is_config_error(self, command, parent,
                                                                tiny_run_dir, tmp_path, caplog):
        src = tmp_path / "utt.txt"
        src.write_text("i feel glum about the news\n")
        nodir = tmp_path / "nodir"
        if parent == "a_file":
            nodir.write_text("kept\n")
        out = nodir / "x.txt"
        if command == "generate":
            argv = ["generate", "--checkpoint", str(tiny_run_dir / "best.ckpt"),
                    "--input", str(src), "--output", str(out), "--max-len", "16"]
        else:
            argv = ["evaluate", "--hyp", str(src), "--ref", str(src), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert f"{out}: cannot write" in caplog.text
        assert "Traceback" not in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["utt.txt"] + (["nodir"] if parent == "a_file" else []))
        if parent == "a_file":
            assert nodir.read_text() == "kept\n"

    def test_splits_writes_utf8_under_an_ascii_locale(self, tmp_path):
        src = tmp_path / "all.tsv"
        src.write_text("".join(f"café {i}\tnaïve {i}\n" for i in range(20)), encoding="utf-8")
        package_root = Path(emogen.__file__).resolve().parents[1]
        written = {}
        for name, env in (("ascii", {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}),
                          ("utf8", {"PYTHONUTF8": "1"})):
            out = tmp_path / name
            env = {**os.environ, **env, "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(
                filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run(
                [sys.executable, "-m", "emogen.cli", "splits", "--input", str(src),
                 "--out", str(out)], env=env, capture_output=True, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr.decode("utf-8", "replace")
            written[name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))}
        assert written["ascii"] == written["utf8"]
        assert len(written["utf8"]) == 3
        assert "café".encode("utf-8") in written["utf8"]["all.train.tsv"]


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

    def test_bad_model_value_is_config_error_before_any_output(self, synth_dir, tmp_path,
                                                                caplog):
        ini = synth_dir / "dropout_one.ini"
        ini.write_text(TINY_MANIFEST.replace("dropout = 0.0", "dropout = 1.0"))
        assert main(["matrix", "--config", str(ini),
                     "--out", str(tmp_path / "m")]) == EXIT_CONFIG
        assert "dropout must be in [0, 1)" in caplog.text
        assert not (tmp_path / "m").exists()

    def test_empty_variant_list_is_config_error(self, synth_dir, tmp_path):
        text = TINY_MANIFEST.replace(
            "variants = R | R+e6 | lambda(1) | lambda(0.5)", "variants ="
        )
        ini = synth_dir / "novariants.ini"
        ini.write_text(text)
        assert main(["matrix", "--config", str(ini),
                     "--out", str(tmp_path / "m")]) == EXIT_CONFIG
