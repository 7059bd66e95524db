"""The benchmark's workloads: seeded inputs, one timed round, and its checks.

Every workload builds its inputs in ``setup`` and then runs whole rounds of
identical work; each round starts from the same initial parameters, so
every round does the same operations and produces the same outputs.
``check`` runs after the timed rounds and returns failure messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_checks as checks
import bench_corpus as corpus
from bench_checks import BOS_ID, EOS_ID
from bench_trace import HypothesisCapture


def _fresh(model):
    """A copy of ``model`` with its own parameter buffers."""
    from emogen.model import ModelBundle
    from emogen.tensor import Tensor

    params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in model.params.items()}
    return ModelBundle(model.config, params)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


# -- desk_matrix ---------------------------------------------------------------


@dataclass(frozen=True)
class DeskShape:
    pairs: int = 2000
    e6: int = 1000
    d_model: int = 128
    n_heads: int = 4
    layers: int = 2
    d_ff: int = 512
    max_len: int = 64
    dropout: float = 0.1
    batch_size: int = 32
    epochs: int = 2
    lr: float = 1e-3
    beams: int = 5


_MANIFEST = """\
[model]
d_model = {s.d_model}
n_heads = {s.n_heads}
n_enc_layers = {s.layers}
n_dec_layers = {s.layers}
d_ff = {s.d_ff}
max_len = {s.max_len}
dropout = {s.dropout}

[train]
batch_size = {s.batch_size}
epochs = {s.epochs}
seed = {seed}
label_smoothing = 0.1
lr = {s.lr}
weight_decay = 0.01
grad_clip = 1.0

[beam]
beam_width = {s.beams}
max_len = {s.max_len}
no_repeat_ngram = 3
length_penalty = 1.0

[task response]
kind = generation
train = gen.train.tsv
valid = gen.valid.tsv
test = gen.test.tsv

[task e6]
kind = classification
labels = {labels}
weight = 1.0
train = e6.train.tsv
valid = e6.valid.tsv
test = e6.test.tsv

[matrix]
variants = R+e6
"""


class DeskMatrix:
    """One R+e6 matrix variant: train with checkpoints, then evaluate it."""

    def __init__(self, shape: DeskShape = DeskShape()):
        self.shape = shape

    def setup(self, workdir: Path, seed: int) -> None:
        from emogen.data import load_task
        from emogen.manifest import load_manifest
        from emogen.model import ModelConfig, init_parameters
        from emogen.trainer import build_shared_vocab

        s = self.shape
        rng = random.Random(seed)
        data = workdir / "data"
        data.mkdir()
        self.gen = corpus.write_splits(data, "gen", corpus.make_pairs(rng, s.pairs))
        self.e6 = corpus.write_splits(data, "e6", corpus.make_labelled(rng, s.e6))
        (data / "manifest.ini").write_text(
            _MANIFEST.format(s=s, seed=seed, labels=", ".join(corpus.E6_LABELS)))
        self.out = workdir / "R+e6"

        self.manifest = load_manifest(data / "manifest.ini")
        self.task_data = {spec.name: load_task(spec) for spec in self.manifest.tasks}
        self.plan = self.manifest.build_plan(self.manifest.variants[0])
        self.vocab = build_shared_vocab(self.task_data, self.manifest.tasks,
                                        self.manifest.vocab_min_count)
        config = ModelConfig(vocab_size=self.vocab.size, cls_heads=(("e6", 6),),
                             **self.manifest.model)
        self.plan.max_len = min(self.plan.max_len, config.max_len)
        self.initial = init_parameters(config, self.plan.seed)
        self.ops_per_round = self.expected_steps() + len(self.gen["test"])

    def round(self) -> None:
        from emogen.commands import evaluate_variant
        from emogen.trainer import train

        self.out.mkdir(exist_ok=True)
        self.vocab.save(self.out / "vocab.txt")
        self.model, _ = train(self.plan, self.task_data, _fresh(self.initial), self.vocab,
                              out_dir=self.out)
        self.row = evaluate_variant(self.model, self.manifest, self.task_data, self.vocab, self.out)

    def check(self, hypotheses: list[list[int]]) -> list[str]:
        from emogen.commands import predict_labels

        refs = [p.response for p in self.gen["test"]]
        hyps = _lines(self.out / "test.hyp.txt")
        if len(hyps) != len(refs) or len(hypotheses) < len(refs):
            return [f"{len(hyps)} hypotheses written, {len(hypotheses)} decoded, for {len(refs)} inputs"]
        ids = hypotheses[-len(refs):]
        failures = checks.check_bleu(self.row["bleu"], hyps, refs)
        failures += checks.check_no_repeated_trigram([[BOS_ID] + h for h in ids])
        failures += checks.check_max_len(ids, hyps, self.shape.max_len)
        spec = next(t for t in self.manifest.tasks if t.name == "e6")
        pred = predict_labels(self.model, spec, self.e6["test"], self.vocab, self.plan.max_len)
        gold = [ex.label for ex in self.e6["test"]]
        failures += checks.check_accuracy(pred, gold, 0.95)
        mine = sum(p == g for p, g in zip(pred, gold)) / len(gold)
        if abs(self.row["e6_accuracy"] - mine) > 1e-12:
            failures.append(f"reported e6 accuracy {self.row['e6_accuracy']!r} != {mine!r}")
        return failures

    def expected_steps(self) -> int:
        return self.shape.epochs * corpus.steps_per_epoch(
            [len(self.gen["train"]), len(self.e6["train"])], self.shape.batch_size)


# -- train_small -----------------------------------------------------------------


@dataclass(frozen=True)
class SmallShape:
    pairs: int = 600
    e6: int = 400
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 16
    batch_size: int = 32
    epochs: int = 2
    lr: float = 1e-3
    grad_entries: int = 3


class TrainSmall:
    """Joint training at the README quick-start shape, with no decoding."""

    def __init__(self, shape: SmallShape = SmallShape()):
        self.shape = shape

    def setup(self, workdir: Path, seed: int) -> None:
        from emogen.data import TaskSpec, load_task
        from emogen.model import ModelConfig, init_parameters
        from emogen.trainer import TrainPlan, build_shared_vocab

        s = self.shape
        rng = random.Random(seed)
        self.seed = seed
        gen = corpus.write_splits(workdir, "gen", corpus.make_pairs(rng, s.pairs))
        e6 = corpus.write_splits(workdir, "e6", corpus.make_labelled(rng, s.e6))
        self.train_sizes = [len(gen["train"]), len(e6["train"])]
        self.tasks = [
            TaskSpec(name="response", kind="generation", paths=corpus.split_paths(workdir, "gen")),
            TaskSpec(name="e6", kind="classification", labels=corpus.E6_LABELS, weight=0.5,
                     paths=corpus.split_paths(workdir, "e6")),
        ]
        self.task_data = {spec.name: load_task(spec) for spec in self.tasks}
        self.plan = TrainPlan(tasks=self.tasks, batch_size=s.batch_size, epochs=s.epochs,
                              seed=seed, max_len=s.max_len, lr=s.lr)
        self.vocab = build_shared_vocab(self.task_data, self.tasks)
        config = ModelConfig(vocab_size=self.vocab.size, d_model=s.d_model, n_heads=s.n_heads,
                             n_enc_layers=1, n_dec_layers=1, d_ff=s.d_ff, max_len=s.max_len,
                             dropout=0.0, cls_heads=(("e6", 6),))
        self.initial = init_parameters(config, seed)
        self.ops_per_round = self.expected_steps()
        self.valid_losses: list[list[dict]] = []

    def round(self) -> None:
        from emogen.trainer import train

        _, report = train(self.plan, self.task_data, _fresh(self.initial), self.vocab)
        self.valid_losses.append(report.epoch_valid)

    def gradient_sample(self) -> tuple[np.ndarray, np.ndarray]:
        """Analytic and central-difference gradients at the initial parameters.

        A few entries of every parameter, for a four-example batch of each task.
        """
        from emogen.trainer import TaskBatches, compute_task_loss

        model = _fresh(self.initial)
        model.eval()
        rng = np.random.default_rng(self.seed)
        analytic, numeric = [], []
        h = 1e-5
        for spec in self.tasks:
            batch = TaskBatches(spec, self.task_data[spec.name]["train"][:4], self.vocab,
                                self.plan).batches[0]

            def loss():
                return compute_task_loss(model, spec, batch, self.plan.label_smoothing)

            model.zero_grad()
            loss().backward()
            for p in model.params.values():
                flat = p.data.reshape(-1)
                for i in rng.choice(flat.size, size=min(self.shape.grad_entries, flat.size),
                                    replace=False):
                    old = flat[i]
                    flat[i] = old + h
                    up = loss().item()
                    flat[i] = old - h
                    down = loss().item()
                    flat[i] = old
                    analytic.append(p.grad.reshape(-1)[i])
                    numeric.append((up - down) / (2 * h))
        return np.array(analytic), np.array(numeric)

    def check(self, hypotheses: list[list[int]]) -> list[str]:
        failures = checks.check_gradients(*self.gradient_sample())
        for losses in self.valid_losses:
            failures += checks.check_falling(losses)
        return failures

    def expected_steps(self) -> int:
        return self.shape.epochs * corpus.steps_per_epoch(self.train_sizes, self.shape.batch_size)


# -- generate_long -----------------------------------------------------------------


UTTERANCES = 2  # decoded per generate_long round


@dataclass(frozen=True)
class LongShape:
    vocab_pairs: int = 400
    d_model: int = 128
    n_heads: int = 4
    layers: int = 2
    d_ff: int = 512
    max_len: int = 64
    beams: int = 5


class GenerateLong:
    """``emogen generate`` over a file, with an untrained default-shape model."""

    def __init__(self, shape: LongShape = LongShape()):
        self.shape = shape

    def setup(self, workdir: Path, seed: int) -> None:
        from emogen.model import ModelConfig, init_parameters, save_checkpoint
        from emogen.text import build_vocab

        s = self.shape
        rng = random.Random(seed)
        pairs = corpus.make_pairs(rng, s.vocab_pairs)
        self.vocab = build_vocab([p.utterance for p in pairs] + [p.response for p in pairs])
        self.inputs = [p.utterance for p in corpus.make_pairs(rng, UTTERANCES)]
        self.workdir = workdir
        self.src = workdir / "utterances.txt"
        self.src.write_text("".join(u + "\n" for u in self.inputs), encoding="utf-8")
        model = init_parameters(
            ModelConfig(vocab_size=self.vocab.size, d_model=s.d_model, n_heads=s.n_heads,
                        n_enc_layers=s.layers, n_dec_layers=s.layers, d_ff=s.d_ff,
                        max_len=s.max_len),
            seed)
        # With the EOS embedding row at zero, EOS scores about the median
        # logit and never reaches the beam, so every seed decodes to --max-len.
        model.params["emb.weight"].data[EOS_ID] = 0.0
        self.vocab.save(workdir / "vocab.txt")
        self.checkpoint = workdir / "untrained.ckpt"
        save_checkpoint(self.checkpoint, model, meta={"vocab": "vocab.txt"})
        self.ops_per_round = UTTERANCES

    def expected_steps(self) -> int:
        return 0

    def _generate(self, src: Path, out: Path, beams: int) -> None:
        from emogen.cli import main

        code = main(["generate", "--checkpoint", str(self.checkpoint), "--input", str(src),
                     "--output", str(out), "--beams", str(beams),
                     "--max-len", str(self.shape.max_len), "--no-repeat-ngram", "3"])
        if code != 0:
            raise RuntimeError(f"emogen generate exited with code {code}")

    def round(self) -> None:
        self._generate(self.src, self.workdir / "responses.txt", self.shape.beams)

    def oracle(self, model, utterance: str) -> list[int]:
        """Greedy ids from re-running ``forward_generation`` over each prefix."""
        from emogen.tensor import no_grad
        from emogen.text import encode

        enc = np.asarray([encode(utterance, self.vocab, self.shape.max_len).ids])
        mask = np.ones_like(enc, dtype=bool)
        model.eval()

        def logits(prefix):
            with no_grad():
                out = model.forward_generation(enc, mask, np.asarray([prefix]))
            return out.data[0, -1]

        return checks.greedy_decode(logits, self.shape.max_len)

    def check(self, hypotheses: list[list[int]]) -> list[str]:
        from emogen.model import load_checkpoint

        n = len(self.inputs)
        lines = _lines(self.workdir / "responses.txt")
        if len(lines) != n or len(hypotheses) < n:
            return [f"{len(lines)} responses written, {len(hypotheses)} decoded, for {n} inputs"]
        ids = hypotheses[-n:]
        failures = checks.check_no_repeated_trigram([[BOS_ID] + h for h in ids])
        failures += checks.check_max_len(ids, lines, self.shape.max_len)
        with HypothesisCapture() as greedy:
            self._generate(self.src, self.workdir / "greedy.txt", beams=1)
        model, _ = load_checkpoint(self.checkpoint)
        for i, (utterance, got) in enumerate(zip(self.inputs, greedy.ids)):
            want = self.oracle(model, utterance)
            if got != want:
                failures.append(f"input {i}: beam-1 ids {got} != greedy oracle {want}")
        return failures


WORKLOADS = {"desk_matrix": DeskMatrix, "generate_long": GenerateLong, "train_small": TrainSmall}
