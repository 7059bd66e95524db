"""Fast tests of the benchmark: a tiny run of every workload with its checks,
and every check fed a corrupted output.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_checks as checks  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

TINY = {
    "desk_matrix": lambda: bw.DeskMatrix(bw.DeskShape(
        pairs=200, e6=300, d_model=32, n_heads=2, layers=1, d_ff=64, max_len=16,
        epochs=8, lr=5e-3)),
    "train_small": lambda: bw.TrainSmall(bw.SmallShape(
        pairs=100, e6=300, d_model=16, n_heads=2, d_ff=32, epochs=4, lr=5e-3, grad_entries=2)),
    "generate_long": lambda: bw.GenerateLong(bw.LongShape(
        vocab_pairs=50, d_model=16, n_heads=2, layers=1, d_ff=32, max_len=12,
        beams=3)),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Each tiny workload after one traced round, with its result."""
    out = {}
    for name, make in TINY.items():
        workload = make()
        result, table = run.measure(workload, tmp_path_factory.mktemp(name), seed=3, seconds=0,
                                    trace=True)
        out[name] = (workload, result, table)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_passes_its_checks(tiny, name):
    workload, result, table = tiny[name]
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == workload.ops_per_round
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["trainer.steps"]["value"] == workload.expected_steps()
    assert table


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_untraced_run_reports_end_to_end_metrics(tmp_path, name):
    result, table = run.measure(TINY[name](), tmp_path, seed=5, seconds=0, trace=False)
    assert result["correct"], result
    assert table is None
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_repeated_trigram_fails_desk_and_generate_checks(tiny):
    for name in ("desk_matrix", "generate_long"):
        workload, _, _ = tiny[name]
        n = workload.ops_per_round - workload.expected_steps()
        ids = [[5, 6, 7, 5, 6, 7, 2]] * n
        assert any("repeats the trigram" in m for m in workload.check(ids)), name


def test_corrupted_hypothesis_file_fails_bleu_check(tiny):
    workload, _, _ = tiny["desk_matrix"]
    hyp = workload.out / "test.hyp.txt"
    original = hyp.read_text()
    try:
        hyp.write_text("".join("zzz " + line + "\n" for line in original.splitlines()))
        failures = workload.check([[2]] * workload.ops_per_round)
    finally:
        hyp.write_text(original)
    assert any("brute-force bleu" in m for m in failures)


def test_flipped_gold_label_fails_accuracy_check(tiny, monkeypatch):
    workload, _, _ = tiny["desk_matrix"]
    test = list(workload.e6["test"])
    first = test[0]
    wrong = next(label for label in bw.corpus.E6_LABELS if label != first.label)
    test[0] = bw.corpus.Labelled(first.text, wrong)
    monkeypatch.setitem(workload.e6, "test", test)
    failures = workload.check([[2]] * workload.ops_per_round)
    assert any("e6 accuracy" in m for m in failures)


def test_accuracy_floor():
    assert checks.check_accuracy(["a"] * 19 + ["b"], ["a"] * 20, 0.95) == []
    assert checks.check_accuracy(["a"] * 18 + ["b"] * 2, ["a"] * 20, 0.95)


def test_overlong_hypothesis_fails_max_len_check(tiny):
    workload, _, _ = tiny["generate_long"]
    limit = workload.shape.max_len
    ids = [list(range(10, 10 + limit)) + [2]] * workload.ops_per_round
    assert any("limit" in m for m in workload.check(ids))


def test_beam_one_differing_from_greedy_oracle_fails(tiny, monkeypatch):
    from emogen import decoding
    from emogen.text import TokenSeq

    workload, _, _ = tiny["generate_long"]
    good = decoding.beam_search

    def corrupted(model, utterance, config):
        out = good(model, utterance, config)
        return TokenSeq([out.ids[0] + 1] + out.ids[1:], out.role)

    ids = [[2]] * workload.ops_per_round
    assert workload.check(ids) == []
    monkeypatch.setattr(decoding, "beam_search", corrupted)
    assert any("greedy oracle" in m for m in workload.check(ids))


def test_perturbed_gradient_fails_gradient_check(tiny):
    workload, _, _ = tiny["train_small"]
    analytic, numeric = workload.gradient_sample()
    assert checks.check_gradients(analytic, numeric) == []
    bumped = analytic + 1e-3 * np.abs(analytic).max()
    assert checks.check_gradients(bumped, numeric)


def test_rising_validation_loss_fails():
    assert checks.check_falling([{"e6": 1.2, "response": 4.0}, {"e6": 1.1, "response": 3.0}]) == []
    assert checks.check_falling([{"e6": 1.2, "response": 4.0}, {"e6": 1.3, "response": 3.0}])


def test_brute_force_bleu_matches_package_bleu():
    from emogen.metrics import bleu

    rng = np.random.default_rng(0)
    words = ["a", "b", "c", "d", "e"]
    for _ in range(20):
        hyps = [" ".join(rng.choice(words, rng.integers(0, 8))) for _ in range(5)]
        refs = [" ".join(rng.choice(words, rng.integers(1, 8))) for _ in range(5)]
        assert abs(checks.brute_force_bleu(hyps, refs) - bleu(hyps, refs)) < 1e-9


def test_greedy_decode_follows_argmax_and_blocks_trigrams():
    table = {(1,): [0, 0, 0, 0, 5, 1], (1, 4): [0, 0, 0, 0, 1, 5], (1, 4, 5): [0, 0, 0, 0, 5, 1],
             (1, 4, 5, 4): [0, 0, 0, 0, 1, 5], (1, 4, 5, 4, 5): [0, 0, 1, 0, 9, 5],
             (1, 4, 5, 4, 5, 5): [0, 0, 9, 0, 0, 0]}
    # After 4 5 4 5 the best token 4 would repeat the trigram (4, 5, 4), so 5 is taken.
    assert checks.greedy_decode(lambda ids: table[tuple(ids)], 10) == [4, 5, 4, 5, 5, 2]
    assert checks.greedy_decode(lambda ids: table[tuple(ids)], 4) == [4, 5, 4, 2]


def test_main_cleans_up_on_success_and_failure(monkeypatch, capsys):
    out = HERE / "out"
    before = set(out.glob("run-*")) if out.exists() else set()
    monkeypatch.setitem(bw.WORKLOADS, "generate_long", TINY["generate_long"])
    assert run.main(["--workload", "generate_long", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2

    class Broken(bw.GenerateLong):
        def round(self):
            raise RuntimeError("broken round")

    monkeypatch.setitem(bw.WORKLOADS, "generate_long", Broken)
    assert run.main(["--workload", "generate_long", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["attempted"] == result["failed"] == 2
    assert set(out.glob("run-*")) == before


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "emogen" in proc.stderr
