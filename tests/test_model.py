import json
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import FullPrefixModel, finite_difference, relative_error
from emogen import model as model_module
from emogen import tensor as T
from emogen.errors import ConfigError, DataError, NumericError
from emogen.losses import batch_classification_nll, classification_nll, label_smoothed_nll
from emogen.model import (
    ModelBundle,
    ModelConfig,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from emogen.tensor import Tensor
from emogen.text import BOS_ID, PAD_ID, TokenSeq, pad_batch, shift_right


class TestConfig:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=4)

    def test_duplicate_head_names_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, d_model=8, n_heads=2, cls_heads=(("a", 2), ("a", 3)))

    def test_round_trips_through_dict(self, tiny_config):
        assert ModelConfig.from_dict(tiny_config.to_dict()) == tiny_config


class TestInit:
    def test_same_seed_bit_identical(self, tiny_config):
        a = init_parameters(tiny_config, seed=5)
        b = init_parameters(tiny_config, seed=5)
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            assert (a.params[name].data == b.params[name].data).all()

    def test_different_seeds_differ(self, tiny_config):
        a = init_parameters(tiny_config, seed=5)
        b = init_parameters(tiny_config, seed=6)
        assert any((a.params[n].data != b.params[n].data).any() for n in a.params)

    def test_parameter_count_matches_closed_form(self):
        for cfg in (
            ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_enc_layers=1,
                        n_dec_layers=1, d_ff=16, max_len=8, cls_heads=(("e6", 6),)),
            ModelConfig(vocab_size=57, d_model=16, n_heads=4, n_enc_layers=2,
                        n_dec_layers=3, d_ff=32, max_len=10,
                        cls_heads=(("e6", 6), ("e2", 2), ("e12", 12))),
        ):
            model = init_parameters(cfg, seed=0)
            assert sum(p.size for p in model.params.values()) == parameter_count(cfg)
            assert parameter_count(cfg) == closed_form_count(cfg)

    def test_default_shape_count(self):
        assert parameter_count(ModelConfig(vocab_size=300, cls_heads=(("e6", 6),))) == 972_806

    @pytest.mark.parametrize("change", ["extra_key_bias", "missing_final_ln_bias"])
    def test_bundle_not_matching_layout_is_config_error(self, tiny_model, change):
        params = {}
        for name, p in tiny_model.params.items():
            if change == "missing_final_ln_bias" and name == "dec.final_ln.b":
                continue
            params[name] = p
            if change == "extra_key_bias" and name == "enc.0.attn.k.w":
                params["enc.0.attn.k.b"] = Tensor(np.zeros(p.shape[1]))
        with pytest.raises(ConfigError, match="differs from its config's layout") as err:
            ModelBundle(tiny_model.config, params)
        assert {"extra_key_bias": "enc.0.attn.k.b",
                "missing_final_ln_bias": "dec.final_ln.b"}[change] in str(err.value)


def closed_form_count(config):
    """Parameter count from the architecture; the LM head is tied, so free."""
    d, f = config.d_model, config.d_ff
    attn = 4 * d * d + 3 * d  # q, k, v, o weights; q, v, o biases (K has none)
    ln = 2 * d
    ffn = d * f + f + f * d + d
    enc_layer = attn + 2 * ln + ffn
    dec_layer = 2 * attn + 3 * ln + ffn
    total = config.vocab_size * d + config.max_len * d
    total += config.n_enc_layers * enc_layer + ln
    total += config.n_dec_layers * dec_layer + ln
    total += sum(d * n + n for _, n in config.cls_heads)
    return total


class TestForwardGeneration:
    def test_output_shape(self, tiny_model, tiny_batch):
        logits = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        )
        b, t = tiny_batch["dec_ids"].shape
        assert logits.shape == (b, t, tiny_model.config.vocab_size)

    def test_shape_mismatch_rejected(self, tiny_model, tiny_batch):
        with pytest.raises(NumericError):
            tiny_model.forward_generation(
                tiny_batch["enc_ids"], tiny_batch["enc_mask"][:2], tiny_batch["dec_ids"]
            )

    def test_causality_probe(self, tiny_model, tiny_batch):
        """Perturbing decoder position k moves logits only at positions >= k."""
        tiny_model.eval()
        base = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        ).data
        t = tiny_batch["dec_ids"].shape[1]
        for k in range(1, t):
            perturbed = tiny_batch["dec_ids"].copy()
            perturbed[0, k] = (perturbed[0, k] - 3) % 8 + 4
            out = tiny_model.forward_generation(
                tiny_batch["enc_ids"], tiny_batch["enc_mask"], perturbed
            ).data
            before = np.abs(out[0, :k] - base[0, :k]).max()
            after = np.abs(out[0, k:] - base[0, k:]).max()
            assert before == 0.0
            assert after > 0.0

    def test_sequence_loss_decomposes_per_position(self, tiny_model, tiny_batch):
        """Sum of -log p over positions equals per-position NLL terms."""
        tiny_model.eval()
        logits = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        )
        b, t, v = logits.shape
        targets = tiny_batch["targets"]
        flat = logits.reshape((b * t, v))
        mean_loss = label_smoothed_nll(flat, targets.reshape(-1), 0.0, ignore_index=PAD_ID)
        n_real = int((targets != PAD_ID).sum())
        total = mean_loss.item() * n_real
        oracle = 0.0
        for i in range(b):
            for j in range(t):
                if targets[i, j] == PAD_ID:
                    continue
                oracle += classification_nll(Tensor(logits.data[i, j]), int(targets[i, j])).item()
        assert abs(total - oracle) < 1e-9


class TestForwardClassification:
    def test_head_shapes(self, tiny_batch):
        cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_enc_layers=1,
                          n_dec_layers=1, d_ff=16, max_len=8, dropout=0.0,
                          cls_heads=(("e6", 6), ("e2", 2), ("e12", 12)))
        model = init_parameters(cfg, seed=1)
        for name, n_labels in cfg.cls_heads:
            logits = model.forward_classification(
                tiny_batch["enc_ids"], tiny_batch["enc_mask"], name
            )
            assert logits.shape == (3, n_labels)

    def test_unknown_task_lists_registered_heads(self, tiny_model, tiny_batch):
        with pytest.raises(ConfigError, match="e6"):
            tiny_model.forward_classification(
                tiny_batch["enc_ids"], tiny_batch["enc_mask"], "nope"
            )

    def test_identical_rows_give_identical_logits(self, tiny_model):
        row = np.array([[4, 5, 6, 2]])
        mask = np.ones_like(row, dtype=bool)
        enc = np.vstack([row, row])
        logits = tiny_model.forward_classification(enc, np.vstack([mask, mask]), "e6").data
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_decoder_input_matches_per_sequence_shift(self, tiny_model):
        """The batched internal shift agrees with shift_right on each row."""
        seqs = [TokenSeq([4, 7, 2], "utterance"), TokenSeq([5, 6, 8, 9, 2], "utterance")]
        enc_ids, enc_mask = pad_batch(seqs)
        shifted = [shift_right(s) for s in seqs]
        dec_ids, _ = pad_batch(shifted)

        lengths = enc_mask.sum(axis=1)
        internal = np.full_like(enc_ids, PAD_ID)
        internal[:, 0] = BOS_ID
        internal[:, 1:] = enc_ids[:, :-1]
        keep = np.arange(enc_ids.shape[1])[None, :] < lengths[:, None]
        internal = np.where(keep, internal, PAD_ID)
        np.testing.assert_array_equal(internal, dec_ids)


class TestHeadIsolation:
    def test_cls_loss_leaves_other_heads_untouched(self, tiny_model, tiny_batch):
        tiny_model.eval()
        tiny_model.zero_grad()
        logits = tiny_model.forward_classification(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], "e6"
        )
        loss = batch_classification_nll(logits, np.array([0, 3, 5]))
        loss.backward()
        assert (tiny_model.params["cls.e2.w"].grad == 0.0).all()
        assert (tiny_model.params["cls.e2.b"].grad == 0.0).all()
        assert np.abs(tiny_model.params["cls.e6.w"].grad).sum() > 0.0

    def test_generation_loss_touches_no_cls_head(self, tiny_model, tiny_batch):
        tiny_model.eval()
        tiny_model.zero_grad()
        logits = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        )
        b, t, v = logits.shape
        loss = label_smoothed_nll(
            logits.reshape((b * t, v)), tiny_batch["targets"].reshape(-1), 0.1, PAD_ID
        )
        loss.backward()
        for name in ("cls.e6.w", "cls.e6.b", "cls.e2.w", "cls.e2.b"):
            assert (tiny_model.params[name].grad == 0.0).all()

    def test_shared_trunk_gets_gradient_from_every_task(self, tiny_model, tiny_batch):
        shared = ["emb.weight", "enc.0.attn.q.w", "dec.0.self_attn.q.w"]
        tiny_model.eval()

        tiny_model.zero_grad()
        logits = tiny_model.forward_classification(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], "e2"
        )
        batch_classification_nll(logits, np.array([0, 1, 0])).backward()
        for name in shared:
            assert np.abs(tiny_model.params[name].grad).sum() > 0.0

        tiny_model.zero_grad()
        logits = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        )
        b, t, v = logits.shape
        label_smoothed_nll(
            logits.reshape((b * t, v)), tiny_batch["targets"].reshape(-1), 0.1, PAD_ID
        ).backward()
        for name in shared:
            assert np.abs(tiny_model.params[name].grad).sum() > 0.0


class TestNoDeadParameter:
    @staticmethod
    def losses(model, batch):
        # The generation loss, then one classification loss per head.
        logits = model.forward_generation(batch["enc_ids"], batch["enc_mask"], batch["dec_ids"])
        b, t, v = logits.shape
        yield label_smoothed_nll(logits.reshape((b * t, v)), batch["targets"].reshape(-1),
                                 0.1, PAD_ID)
        for name in model.cls_task_names():
            logits = model.forward_classification(batch["enc_ids"], batch["enc_mask"], name)
            yield batch_classification_nll(logits, np.array([1, 0, 1]))

    def test_every_tensor_moves_some_loss(self, tiny_model, tiny_batch):
        tiny_model.eval()
        largest = dict.fromkeys(tiny_model.params, 0.0)
        for loss in self.losses(tiny_model, tiny_batch):
            tiny_model.zero_grad()
            loss.backward()
            norms = {n: np.linalg.norm(p.grad) for n, p in tiny_model.params.items()}
            total = np.sqrt(sum(v ** 2 for v in norms.values()))
            for n, v in norms.items():
                largest[n] = max(largest[n], v / total)
        dead = [n for n, ratio in largest.items() if not ratio > 1e-10]
        assert not dead


class TestGradientCheck:
    """Analytic gradients against central finite differences (h=1e-4)."""

    def test_generation_loss_gradients(self, tiny_model, tiny_batch):
        tiny_model.eval()

        def loss_fn():
            logits = tiny_model.forward_generation(
                tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
            )
            b, t, v = logits.shape
            return label_smoothed_nll(
                logits.reshape((b * t, v)),
                tiny_batch["targets"].reshape(-1), 0.1, PAD_ID,
            ).item()

        logits = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        )
        b, t, v = logits.shape
        loss = label_smoothed_nll(
            logits.reshape((b * t, v)), tiny_batch["targets"].reshape(-1), 0.1, PAD_ID
        )
        tiny_model.zero_grad()
        loss.backward()
        rng = np.random.default_rng(0)
        analytic, numeric = finite_difference(
            loss_fn, tiny_model.params, h=1e-4, rng=rng, max_per_param=6
        )
        rel = relative_error(analytic, numeric)
        assert (rel < 1e-3).mean() >= 0.99

    def test_classification_loss_gradients(self, tiny_model, tiny_batch):
        tiny_model.eval()
        labels = np.array([1, 4, 2])

        def loss_fn():
            logits = tiny_model.forward_classification(
                tiny_batch["enc_ids"], tiny_batch["enc_mask"], "e6"
            )
            return batch_classification_nll(logits, labels).item()

        logits = tiny_model.forward_classification(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], "e6"
        )
        loss = batch_classification_nll(logits, labels)
        tiny_model.zero_grad()
        loss.backward()
        rng = np.random.default_rng(1)
        analytic, numeric = finite_difference(
            loss_fn, tiny_model.params, h=1e-4, rng=rng, max_per_param=6
        )
        rel = relative_error(analytic, numeric)
        assert (rel < 1e-3).mean() >= 0.99


UTTERANCE = [5, 9, 7, 12, 2]


@pytest.fixture
def decode_model():
    """Two decoder layers and live dropout, so a missed eval switch shows."""
    config = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_enc_layers=1,
                         n_dec_layers=2, d_ff=32, max_len=10, dropout=0.1)
    return init_parameters(config, seed=4)


def full_prefix_logits(model, prefixes):
    # A fresh bundle over the same parameters, without per-instance patches.
    reference = FullPrefixModel(ModelBundle(model.config, model.params))
    return reference.next_token_logits(reference.begin_decode(UTTERANCE), prefixes)


class TestIncrementalDecode:
    @pytest.fixture
    def widths(self, decode_model, monkeypatch):
        """Decoder positions each call runs, read off the embedding step."""
        seen = []
        embed = decode_model._embed

        def record(ids, start=0):
            seen.append(ids.shape[1])
            return embed(ids, start)

        monkeypatch.setattr(decode_model, "_embed", record)
        return seen

    def check(self, model, ctx, prefixes):
        got = model.next_token_logits(ctx, prefixes)
        np.testing.assert_allclose(got, full_prefix_logits(model, prefixes), rtol=0, atol=1e-12)

    def test_incremental_calls_match_full_prefix(self, decode_model, widths):
        ctx = decode_model.begin_decode(UTTERANCE)
        widths.clear()
        prefix = [BOS_ID]
        for token in (4, 8, 6, 11, 3, 9, 4, 13):
            self.check(decode_model, ctx, [prefix])
            prefix = prefix + [token]
        assert widths == [1] * 8
        assert decode_model.training

    def test_reordered_and_shared_parents(self, decode_model, widths):
        ctx = decode_model.begin_decode(UTTERANCE)
        widths.clear()
        steps = [
            [[BOS_ID]],
            [[BOS_ID, 4], [BOS_ID, 8], [BOS_ID, 6]],
            [[BOS_ID, 6, 3], [BOS_ID, 4, 3], [BOS_ID, 4, 9]],  # reordered, shared parent
            [[BOS_ID, 4, 9, 5], [BOS_ID, 6, 3, 5]],  # a beam dropped
            [[BOS_ID, 6, 3, 5, 7], [BOS_ID, 6, 3, 5, 8], [BOS_ID, 4, 9, 5, 7]],
        ]
        for prefixes in steps:
            self.check(decode_model, ctx, prefixes)
        assert widths == [1] * len(steps)

    def test_uncached_parent_runs_whole_prefix(self, decode_model, widths):
        ctx = decode_model.begin_decode(UTTERANCE)
        self.check(decode_model, ctx, [[BOS_ID]])
        self.check(decode_model, ctx, [[BOS_ID, 4]])
        widths.clear()
        self.check(decode_model, ctx, [[BOS_ID, 7, 7, 7]])
        # one row extends the cache, the other does not: the whole prefix runs
        self.check(decode_model, ctx, [[BOS_ID, 7, 7, 7, 3], [BOS_ID, 4, 4, 4, 4]])
        self.check(decode_model, ctx, [[BOS_ID, 4, 4, 4, 4, 5]])
        assert widths == [4, 5, 1]

    def test_repeated_identical_call(self, decode_model):
        ctx = decode_model.begin_decode(UTTERANCE)
        for prefixes in ([[BOS_ID]], [[BOS_ID, 4], [BOS_ID, 8]]):
            self.check(decode_model, ctx, prefixes)
            self.check(decode_model, ctx, prefixes)

    def test_overlong_utterance_is_a_data_error(self, decode_model):
        with pytest.raises(DataError, match="exceeds max_len 10"):
            decode_model.begin_decode([4] * 11)

    def test_non_finite_logits_rejected(self, decode_model):
        decode_model.params["emb.weight"].data[4] = np.nan
        ctx = decode_model.begin_decode(UTTERANCE)
        with pytest.raises(NumericError, match="non-finite"):
            decode_model.next_token_logits(ctx, [[BOS_ID]])


class TestEvaluating:
    @pytest.mark.parametrize("training", [True, False])
    def test_restores_previous_mode(self, tiny_model, training):
        tiny_model.training = training
        with tiny_model.evaluating():
            assert not tiny_model.training
            assert not T._grad_enabled
        assert tiny_model.training is training
        assert T._grad_enabled

    def test_restores_mode_after_an_error(self, tiny_model):
        tiny_model.train()
        with pytest.raises(RuntimeError):
            with tiny_model.evaluating():
                raise RuntimeError("boom")
        assert tiny_model.training
        assert T._grad_enabled


class TestCheckpoint:
    def test_round_trip(self, tiny_model, tiny_batch, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_model, meta={"vocab": "vocab.txt", "note": 1})
        loaded, meta = load_checkpoint(path)
        assert meta["note"] == 1
        assert loaded.config == tiny_model.config
        for name, p in tiny_model.params.items():
            assert (loaded.params[name].data == p.data).all()
        loaded.eval()
        tiny_model.eval()
        a = tiny_model.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        ).data
        b = loaded.forward_generation(
            tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
        ).data
        assert (a == b).all()

    def test_identical_bytes_for_identical_models(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, init_parameters(tiny_config, seed=9), meta={"vocab": "v"})
        save_checkpoint(b, init_parameters(tiny_config, seed=9), meta={"vocab": "v"})
        assert a.read_bytes() == b.read_bytes()

    def test_load_holds_the_parameters_once(self, tmp_path):
        config = ModelConfig(vocab_size=300, cls_heads=(("e6", 6),))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_parameters(config, seed=0))
        nbytes = 8 * parameter_count(config)
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(p.data.nbytes for p in loaded.params.values()) == nbytes
        assert peak < 1.25 * nbytes

    def test_body_shorter_than_its_size_is_config_error(self, tiny_config, tmp_path,
                                                       monkeypatch):
        # The file shrinks between the size check and the read.
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_parameters(tiny_config, seed=3))
        path.write_bytes(path.read_bytes()[:-8])
        fstat = os.fstat
        monkeypatch.setattr(model_module.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: checkpoint body ends"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world")
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_save_that_fails_midway_keeps_the_previous_file(self, tiny_config, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, init_parameters(tiny_config, seed=1), meta={"epoch": 0})
        before = path.read_bytes()

        class TornFile:
            """Writes the first three chunks, then fails like a full disk."""

            def __init__(self, *args):
                self.f = open(*args)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes > 3:
                    raise OSError("No space left on device")
                self.f.write(chunk)

        monkeypatch.setattr(model_module, "open", TornFile, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, init_parameters(tiny_config, seed=2), meta={"epoch": 1})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] == {"epoch": 0}
        assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]

    @staticmethod
    def resave_header(path, edit):
        data = path.read_bytes()
        start = data.index(b"\n", len(b"EMOGEN-CKPT-1\n")) + 1
        length = int(data[len(b"EMOGEN-CKPT-1\n"):start])
        header = json.loads(data[start:start + length])
        edit(header)
        payload = json.dumps(header).encode()
        path.write_bytes(b"EMOGEN-CKPT-1\n%d\n" % len(payload) + payload + data[start + length:])

    @pytest.mark.parametrize("edit, needle", [
        (lambda h: h.pop("config"), "KeyError('config')"),
        (lambda h: h.pop("params"), "KeyError('params')"),
        (lambda h: h["config"].update(n_layers=2), "n_layers"),
        (lambda h: h["config"].pop("vocab_size"), "vocab_size"),
        (lambda h: h["params"].pop(), "cls.e2.b"),
        (lambda h: h["params"].insert(0, h["params"].pop(1)), "pos.weight"),
        (lambda h: h["params"][0]["shape"].reverse(), "emb.weight"),
    ], ids=["no-config", "no-params", "unknown-key", "missing-key", "missing-tensor",
            "reordered", "bad-shape"])
    def test_header_not_matching_layout_is_config_error(self, tiny_model, tmp_path, edit,
                                                        needle):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_model)
        self.resave_header(path, edit)
        with pytest.raises(ConfigError, match=re.escape(str(path))) as err:
            load_checkpoint(path)
        assert needle in str(err.value)


class TestDropoutDeterminism:
    def test_seeded_dropout_reproduces(self, tiny_config, tiny_batch):
        outs = []
        for _ in range(2):
            model = init_parameters(
                ModelConfig.from_dict({**tiny_config.to_dict(), "dropout": 0.2}), seed=3
            )
            model.seed_dropout(11)
            model.train()
            outs.append(
                model.forward_generation(
                    tiny_batch["enc_ids"], tiny_batch["enc_mask"], tiny_batch["dec_ids"]
                ).data
            )
        assert (outs[0] == outs[1]).all()
