import json
import logging
import math
import weakref

import numpy as np
import pytest

from emogen.cli import EXIT_OK, main
from emogen.data import E6_LABELS, TaskSpec, gen_synthetic, split_811
from emogen.errors import ConfigError, DataError, NumericError
from emogen.losses import label_smoothed_nll
from emogen.model import ModelConfig, init_parameters, load_checkpoint
from emogen import tensor as T
from emogen import trainer
from emogen.optim import AdamW, clip_global_norm
from emogen.trainer import (
    BatchTicket,
    TaskBatches,
    TrainPlan,
    build_schedule,
    build_shared_vocab,
    compute_task_loss,
    run_step,
    train,
    validate,
)

GEN_SPEC = TaskSpec(name="response", kind="generation")
E6_SPEC = TaskSpec(name="e6", kind="classification", labels=E6_LABELS)


def make_task_data(gen_size=120, cls_size=80, seed=0):
    gen = gen_synthetic("generation", gen_size, seed)
    e6 = gen_synthetic("e6", cls_size, seed + 1)
    gtr, gva, gte = split_811(gen, seed)
    ctr, cva, cte = split_811(e6, seed)
    return {
        "response": {"train": gtr, "valid": gva, "test": gte},
        "e6": {"train": ctr, "valid": cva, "test": cte},
    }


def make_setup(plan=None, seed=0, d_model=16, gen_size=120, cls_size=80,
               cls_heads=(("e6", 6),)):
    plan = plan or TrainPlan(
        tasks=[GEN_SPEC, E6_SPEC], batch_size=16, epochs=2, seed=seed,
        max_len=16, lr=1e-3,
    )
    task_data = make_task_data(gen_size, cls_size, seed)
    vocab = build_shared_vocab(task_data, plan.tasks)
    config = ModelConfig(
        vocab_size=vocab.size, d_model=d_model, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, d_ff=4 * d_model, max_len=16, dropout=0.0,
        cls_heads=cls_heads,
    )
    model = init_parameters(config, seed)
    return plan, task_data, vocab, model


class TestPlan:
    def test_requires_exactly_one_generation_task(self):
        with pytest.raises(ConfigError):
            TrainPlan(tasks=[E6_SPEC])
        with pytest.raises(ConfigError):
            TrainPlan(tasks=[GEN_SPEC, GEN_SPEC])

    def test_requires_positive_epochs(self):
        with pytest.raises(ConfigError):
            TrainPlan(tasks=[GEN_SPEC], epochs=0)


class TestSchedule:
    def test_pooled_counts(self):
        schedule = build_schedule({"a": 8, "b": 2}, epoch=0, seed=1)
        assert len(schedule) == 10
        assert sum(1 for t in schedule if t.task_name == "a") == 8
        assert sum(1 for t in schedule if t.task_name == "b") == 2

    def test_single_task_is_a_permutation(self):
        schedule = build_schedule({"solo": 6}, epoch=3, seed=1)
        assert sorted(t.batch_index for t in schedule) == list(range(6))

    def test_each_batch_exactly_once(self):
        schedule = build_schedule({"a": 5, "b": 3}, epoch=1, seed=2)
        seen = {(t.task_name, t.batch_index) for t in schedule}
        assert len(seen) == len(schedule) == 8

    def test_deterministic_in_seed_and_epoch(self):
        a = build_schedule({"a": 20, "b": 10}, epoch=4, seed=9)
        b = build_schedule({"a": 20, "b": 10}, epoch=4, seed=9)
        assert a == b
        c = build_schedule({"a": 20, "b": 10}, epoch=5, seed=9)
        assert a != c

    def test_empty_task_rejected(self):
        with pytest.raises(DataError):
            build_schedule({"a": 0}, epoch=0, seed=0)


class TestStepWeighting:
    def _fresh(self, seed=0):
        plan, task_data, vocab, model = make_setup(seed=seed)
        batches = TaskBatches(E6_SPEC, task_data["e6"]["train"], vocab, plan)
        return plan, model, batches.batches[0]

    def test_zero_weight_leaves_parameters_unchanged(self):
        plan, model, batch = self._fresh()
        opt = AdamW(model.params, lr=1e-3, weight_decay=0.0)
        model.zero_grad()
        before = {n: p.data.copy() for n, p in model.params.items()}
        run_step(model, opt, E6_SPEC, batch, weight=0.0,
                 label_smoothing=plan.label_smoothing, grad_clip=None)
        assert opt.step_count == 1
        for n, p in model.params.items():
            assert (p.data == before[n]).all(), n

    def test_unit_weight_equals_unweighted_step(self):
        results = []
        for weighted in (False, True):
            plan, model, batch = self._fresh()
            opt = AdamW(model.params, lr=1e-3, weight_decay=0.0)
            model.zero_grad()
            if weighted:
                run_step(model, opt, E6_SPEC, batch, weight=1.0,
                         label_smoothing=0.1, grad_clip=None)
            else:
                loss = compute_task_loss(model, E6_SPEC, batch, 0.1)
                loss.backward()
                opt.step()
                model.zero_grad()
            results.append({n: p.data.copy() for n, p in model.params.items()})
        for n in results[0]:
            assert (results[0][n] == results[1][n]).all(), n

    def test_half_weight_halves_every_gradient(self):
        grads = []
        for weight in (1.0, 0.5):
            plan, model, batch = self._fresh()
            model.zero_grad()
            loss = compute_task_loss(model, E6_SPEC, batch, 0.1)
            (loss * weight).backward()
            grads.append({n: p.grad.copy() for n, p in model.params.items()})
        for n in grads[0]:
            np.testing.assert_array_equal(grads[0][n] * 0.5, grads[1][n])

    def test_raw_loss_reported_regardless_of_weight(self):
        losses = []
        for weight in (1.0, 0.25):
            plan, model, batch = self._fresh()
            opt = AdamW(model.params, lr=1e-3)
            model.zero_grad()
            raw, _ = run_step(model, opt, E6_SPEC, batch, weight=weight,
                              label_smoothing=0.1, grad_clip=None)
            losses.append(raw)
        assert losses[0] == losses[1]

    def test_grad_norm_is_the_pre_clip_global_norm(self):
        plan, model, batch = self._fresh()
        model.zero_grad()
        compute_task_loss(model, E6_SPEC, batch, 0.1).backward()
        expected = clip_global_norm(model.params, math.inf)

        plan, model, batch = self._fresh()
        model.zero_grad()
        _, grad_norm = run_step(model, AdamW(model.params, lr=1e-3), E6_SPEC, batch,
                                weight=1.0, label_smoothing=0.1, grad_clip=1.0)
        assert grad_norm == expected > 1.0

        plan, model, batch = self._fresh()
        model.zero_grad()
        assert run_step(model, AdamW(model.params, lr=1e-3), E6_SPEC, batch,
                        weight=1.0, label_smoothing=0.1, grad_clip=None)[1] is None

    def test_stale_master_gradients_do_not_count(self):
        # e2 has a head but no place in the pool, so AdamW never sees it
        results = []
        for stale in (False, True):
            plan, task_data, vocab, model = make_setup(cls_heads=(("e6", 6), ("e2", 2)))
            batch = TaskBatches(E6_SPEC, task_data["e6"]["train"], vocab, plan).batches[0]
            opt = AdamW(trainer._pooled_parameters(model, plan), lr=1e-3)
            assert "cls.e2.w" in model.params and "cls.e2.w" not in opt.params
            for p in model.params.values():
                p.grad = np.ones_like(p.data) if stale else np.zeros_like(p.data)
            _, grad_norm = run_step(model, opt, E6_SPEC, batch, weight=1.0,
                                    label_smoothing=0.1, grad_clip=1.0)
            results.append((grad_norm, {n: p.data.copy() for n, p in model.params.items()}))
        (fresh_norm, fresh), (stale_norm, stale) = results
        assert stale_norm == fresh_norm > 1.0
        for n in fresh:
            assert (fresh[n] == stale[n]).all(), n


class TestStepBuffers:
    """A step's float64 gradients and its graph never coexist."""

    def _step_setup(self):
        plan, task_data, vocab, model = make_setup()
        batch = TaskBatches(E6_SPEC, task_data["e6"]["train"], vocab, plan).batches[0]
        return model, AdamW(model.params, lr=1e-3), batch

    def test_no_master_holds_a_gradient_while_the_loss_is_computed(self, monkeypatch):
        model, opt, batch = self._step_setup()
        model.zero_grad()
        seen = []

        def spy_loss(*args):
            seen.append(sorted(n for n, p in opt.params.items() if p.grad is not None))
            return compute_task_loss(*args)

        monkeypatch.setattr(trainer, "compute_task_loss", spy_loss)
        for _ in range(2):
            run_step(model, opt, E6_SPEC, batch, 1.0, 0.1, 1.0)
            assert {p.grad.dtype for p in opt.params.values()} == {np.dtype(np.float64)}
        assert seen == [[], []]

    def test_the_graph_is_freed_before_the_gradients_are_clipped(self, monkeypatch):
        model, opt, batch = self._step_setup()
        refs, alive = [], []

        def spy_loss(*args):
            loss = compute_task_loss(*args)
            refs.append(weakref.ref(loss._parents[0].data))
            return loss

        def spy_clip(params, max_norm):
            alive.append(refs[-1]() is not None)
            return clip_global_norm(params, max_norm)

        monkeypatch.setattr(trainer, "compute_task_loss", spy_loss)
        monkeypatch.setattr(trainer, "clip_global_norm", spy_clip)
        run_step(model, opt, E6_SPEC, batch, 1.0, 0.1, 1.0)
        assert alive == [False]


class TestTrain:
    def test_end_to_end_determinism(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            plan, task_data, vocab, model = make_setup()
            out = tmp_path / run
            train(plan, task_data, model, vocab, out_dir=out)
            outs.append(((out / "last.ckpt").read_bytes(), (out / "steps.jsonl").read_bytes()))
        assert outs[0] == outs[1]

    def test_ticket_conservation_and_ledger(self, tmp_path):
        plan, task_data, vocab, model = make_setup()
        _, report = train(plan, task_data, model, vocab, out_dir=tmp_path)
        steps = [json.loads(line) for line in (tmp_path / "steps.jsonl").read_text().splitlines()]
        gen_batches = int(np.ceil(len(task_data["response"]["train"]) / plan.batch_size))
        cls_batches = int(np.ceil(len(task_data["e6"]["train"]) / plan.batch_size))
        per_epoch = gen_batches + cls_batches
        assert len(steps) == per_epoch * plan.epochs
        assert [s["step"] for s in steps] == list(range(len(steps)))
        for epoch in range(plan.epochs):
            chunk = [s for s in steps if s["epoch"] == epoch]
            tickets = {(s["task"], s["batch"]) for s in chunk}
            assert len(chunk) == len(tickets) == per_epoch
            # the recorded raw losses are the ones the epoch means are made of
            for spec in plan.tasks:
                losses = [s["loss"] for s in chunk if s["task"] == spec.name]
                assert sum(losses) / len(losses) == report.epoch_train_mean[epoch][spec.name]
        # every step is attributable to exactly one ticket
        assert all(s["loss"] >= 0.0 and np.isfinite(s["loss"]) for s in steps)
        assert all(s["weight"] == 1.0 and s["grad_norm"] > 0.0 for s in steps)

    def test_validation_recorded_per_epoch(self):
        plan, task_data, vocab, model = make_setup()
        _, report = train(plan, task_data, model, vocab)
        assert len(report.epoch_valid) == plan.epochs
        for entry in report.epoch_valid:
            assert set(entry) == {"response", "e6"}
            assert all(np.isfinite(v) for v in entry.values())

    def test_checkpoints_written(self, tmp_path):
        plan, task_data, vocab, model = make_setup()
        out = tmp_path / "run"
        train(plan, task_data, model, vocab, out_dir=out)
        assert (out / "best.ckpt").exists()
        assert (out / "last.ckpt").exists()
        assert (out / "metrics.jsonl").exists()
        for epoch in range(plan.epochs):
            assert (out / f"epoch_{epoch:03d}.ckpt").exists()

    def test_out_dir_holds_the_vocab_its_checkpoints_name(self, tmp_path):
        plan, task_data, vocab, model = make_setup()
        out = tmp_path / "run"
        train(plan, task_data, model, vocab, out_dir=out)
        vocab.save(tmp_path / "saved.txt")
        assert (out / "vocab.txt").read_bytes() == (tmp_path / "saved.txt").read_bytes()
        assert load_checkpoint(out / "best.ckpt")[1]["vocab"] == "vocab.txt"
        src = tmp_path / "utt.txt"
        src.write_text("i feel glum about the news\n")
        assert main(["generate", "--checkpoint", str(out / "best.ckpt"), "--input", str(src),
                     "--output", str(tmp_path / "hyp.txt"), "--max-len", "16"]) == EXIT_OK
        assert len((tmp_path / "hyp.txt").read_text().splitlines()) == 1

    def test_metrics_streamed_as_each_epoch_ends(self, tmp_path, monkeypatch):
        plan = TrainPlan(tasks=[GEN_SPEC, E6_SPEC], batch_size=16, epochs=4, seed=0,
                         max_len=16, lr=1e-3, save_every_epoch=False)
        plan, task_data, vocab, model = make_setup(plan)
        full = tmp_path / "full"
        train(plan, task_data, model, vocab, out_dir=full)
        lines = (full / "metrics.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) == 4
        steps = (full / "steps.jsonl").read_text().splitlines(keepends=True)

        calls = []

        def validate_until_epoch_2(*args):
            calls.append(len(calls))
            if len(calls) == 3:
                raise RuntimeError("killed in epoch 2")
            return validate(*args)

        monkeypatch.setattr(trainer, "validate", validate_until_epoch_2)
        plan, task_data, vocab, model = make_setup(plan)
        cut = tmp_path / "cut"
        with pytest.raises(RuntimeError, match="epoch 2"):
            train(plan, task_data, model, vocab, out_dir=cut)
        assert (cut / "metrics.jsonl").read_text() == "".join(lines[:2])
        # validation ends an epoch, so all of epoch 2's steps finished
        assert (cut / "steps.jsonl").read_text() == "".join(steps[:len(steps) * 3 // 4])

    def test_steps_compute_in_float32_over_float64_masters(self, tmp_path, monkeypatch):
        loss_dtypes, optimizers = [], []

        def spy_loss(*args):
            loss = compute_task_loss(*args)
            loss_dtypes.append(loss.data.dtype)
            return loss

        class SpyAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(trainer, "compute_task_loss", spy_loss)
        monkeypatch.setattr(trainer, "AdamW", SpyAdamW)
        plan, task_data, vocab, model = make_setup()
        train(plan, task_data, model, vocab, out_dir=tmp_path)
        # every training step and every validation batch
        assert len(loss_dtypes) > plan.epochs and set(loss_dtypes) == {np.dtype(np.float32)}
        (opt,) = optimizers
        moments = [*opt.first_moment.values(), *opt.second_moment.values()]
        assert {m.dtype for m in moments} == {p.data.dtype for p in model.params.values()} \
            == {p.grad.dtype for p in model.params.values()} == {np.dtype(np.float64)}
        # the masters are not float32 values, and the checkpoint holds them bit for bit
        assert any((p.data != p.data.astype(np.float32)).any() for p in model.params.values())
        saved, _ = load_checkpoint(tmp_path / "last.ckpt")
        for name, p in model.params.items():
            assert saved.params[name].data.tobytes() == p.data.astype("<f8").tobytes(), name
        # outside train() a step computes in float64 again
        loss_dtypes.clear()
        batch = TaskBatches(E6_SPEC, task_data["e6"]["train"], vocab, plan).batches[0]
        run_step(model, opt, E6_SPEC, batch, 1.0, 0.1)
        assert loss_dtypes == [np.float64]

    def test_computing_restores_the_masters_when_the_block_raises(self):
        _, _, _, model = make_setup()
        masters = model.params
        with pytest.raises(RuntimeError, match="inside"), T.compute_dtype(np.float32), \
                model.computing() as copies:
            assert model.params is copies and list(copies) == list(masters)
            assert copies["emb.weight"].data.dtype == np.float32
            raise RuntimeError("inside")
        assert model.params is masters
        with model.computing() as copies:
            # under float64 the copies share the masters' buffers
            assert all(np.shares_memory(copies[n].data, p.data) for n, p in masters.items())
        assert model.params is masters

    def test_logs_one_line_per_epoch_and_none_per_step(self, caplog):
        plan, task_data, vocab, model = make_setup()
        with caplog.at_level(logging.INFO):
            train(plan, task_data, model, vocab)
        assert [r.getMessage().split(" train=")[0] for r in caplog.records] == [
            f"epoch={epoch} done" for epoch in range(plan.epochs)]

    def test_heads_left_out_of_pool_stay_at_initialization(self):
        plan = TrainPlan(
            tasks=[GEN_SPEC, E6_SPEC], batch_size=16, epochs=2, seed=0,
            max_len=16, lr=1e-3, weight_decay=0.01,
        )
        plan, task_data, vocab, model = make_setup(
            plan, cls_heads=(("e6", 6), ("e2", 2)))
        before = {n: model.params[n].data.copy() for n in ("cls.e2.w", "cls.e2.b", "cls.e6.w")}
        train(plan, task_data, model, vocab)
        assert (model.params["cls.e2.w"].data == before["cls.e2.w"]).all()
        assert (model.params["cls.e2.b"].data == before["cls.e2.b"]).all()
        assert not (model.params["cls.e6.w"].data == before["cls.e6.w"]).all()

    @pytest.mark.parametrize("training", [True, False])
    def test_validate_restores_previous_mode(self, training):
        plan, task_data, vocab, model = make_setup()
        batches = {spec.name: TaskBatches(spec, task_data[spec.name]["valid"], vocab, plan)
                   for spec in plan.tasks}
        model.training = training
        assert set(validate(model, plan, batches)) == {"response", "e6"}
        assert model.training is training

    def test_numeric_breakdown_aborts_with_diagnostic(self):
        plan, task_data, vocab, model = make_setup()
        model.params["pos.weight"].data[0, :] = np.nan
        with pytest.raises(NumericError, match="epoch"):
            train(plan, task_data, model, vocab)


class TestSubsample:
    """``TaskSpec.subsample_fraction`` thins one task's training examples, the same ones every run."""

    @staticmethod
    def _steps(fraction, monkeypatch):
        # The (task, encoded batch) of every step of a one-epoch run with e6 at ``fraction``.
        e6 = TaskSpec(name="e6", kind="classification", labels=E6_LABELS,
                      subsample_fraction=fraction)
        plan = TrainPlan(tasks=[GEN_SPEC, e6], batch_size=16, epochs=1, seed=0, max_len=16,
                         lr=1e-3)
        plan, task_data, vocab, model = make_setup(plan)
        seen = []

        def spy_step(model, optimizer, spec, batch, *args):
            seen.append((spec.name, [batch[key].tobytes() for key in sorted(batch)]))
            return run_step(model, optimizer, spec, batch, *args)

        monkeypatch.setattr(trainer, "run_step", spy_step)
        train(plan, task_data, model, vocab)
        return len(task_data["e6"]["train"]), seen

    def test_half_fraction_trains_half_the_examples_of_that_task_only(self, monkeypatch):
        n, half = self._steps(0.5, monkeypatch)
        _, again = self._steps(0.5, monkeypatch)
        _, full = self._steps(1.0, monkeypatch)

        def batches(steps, task):
            return sorted(arrays for name, arrays in steps if name == task)

        assert len(batches(half, "e6")) == math.ceil(round(0.5 * n) / 16) < len(batches(full, "e6"))
        assert again == half
        assert batches(half, "response") == batches(full, "response")


class TestConvergence:
    def test_generation_only_loss_falls_below_fifth_of_initial(self):
        plan = TrainPlan(
            tasks=[GEN_SPEC], batch_size=32, epochs=35, seed=1, max_len=16,
            lr=1e-3, save_every_epoch=False,
        )
        plan, task_data, vocab, model = make_setup(
            plan=plan, d_model=48, gen_size=400, cls_size=80
        )
        _, report = train(plan, task_data, model, vocab)
        initial = report.epoch_train_mean[0]["response"]
        final = report.epoch_train_mean[-1]["response"]
        assert final < 0.2 * initial, f"{final} !< 0.2 * {initial}"

    def test_joint_training_learns_e6_while_generation_improves(self):
        plan = TrainPlan(
            tasks=[GEN_SPEC, E6_SPEC], batch_size=32, epochs=12, seed=2,
            max_len=16, lr=1e-3, save_every_epoch=False,
        )
        plan, task_data, vocab, model = make_setup(
            plan=plan, d_model=32, gen_size=400, cls_size=300
        )
        model_out, report = train(plan, task_data, model, vocab)

        from emogen.commands import predict_labels

        test = task_data["e6"]["test"]
        pred = predict_labels(model_out, E6_SPEC, test, vocab, plan.max_len)
        accuracy = np.mean([p == ex.label for p, ex in zip(pred, test)])
        assert accuracy >= 0.95

        gen_valid = [entry["response"] for entry in report.epoch_valid]
        drops = sum(1 for a, b in zip(gen_valid, gen_valid[1:]) if b < a)
        assert drops >= 0.8 * (len(gen_valid) - 1)
