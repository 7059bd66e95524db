import numpy as np
import pytest

from emogen.data import E6_LABELS, TaskSpec, gen_synthetic, split_811
from emogen.errors import ConfigError, DataError, NumericError
from emogen.losses import label_smoothed_nll
from emogen.model import ModelConfig, init_parameters
from emogen.optim import AdamW
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
            losses.append(
                run_step(model, opt, E6_SPEC, batch, weight=weight,
                         label_smoothing=0.1, grad_clip=None)
            )
        assert losses[0] == losses[1]


class TestTrain:
    def test_end_to_end_determinism(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            plan, task_data, vocab, model = make_setup()
            out = tmp_path / run
            train(plan, task_data, model, vocab, out_dir=out)
            outs.append((out / "last.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_ticket_conservation_and_ledger(self):
        plan, task_data, vocab, model = make_setup()
        _, report = train(plan, task_data, model, vocab)
        gen_batches = int(np.ceil(len(task_data["response"]["train"]) / plan.batch_size))
        cls_batches = int(np.ceil(len(task_data["e6"]["train"]) / plan.batch_size))
        per_epoch = gen_batches + cls_batches
        assert len(report.steps) == per_epoch * plan.epochs
        for epoch in range(plan.epochs):
            chunk = [s for s in report.steps if s.epoch == epoch]
            tickets = {(s.task_name, s.batch_index) for s in chunk}
            assert len(tickets) == per_epoch
        # every step is attributable to exactly one ticket
        assert all(s.loss >= 0.0 and np.isfinite(s.loss) for s in report.steps)

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
