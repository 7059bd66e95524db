import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FullPrefixModel
from emogen.data import RESPONSE_TEMPLATES, TaskSpec, gen_synthetic, split_811
from emogen.decoding import (BeamConfig, banned_tokens, beam_search, generate_file,
                             top_candidates)
from emogen.errors import ConfigError, DataError
from emogen.model import ModelConfig, init_parameters
from emogen.text import BOS_ID, EOS_ID, ROLE_UTTERANCE, TokenSeq, tokenize
from emogen.trainer import TrainPlan, build_shared_vocab, train

NEG = -1e9


class TableModel:
    """Fixed next-token distributions keyed by prefix; vocab [PAD,BOS,EOS,a,b]."""

    def __init__(self, table, vocab_size=5):
        self.table = table
        self.vocab_size = vocab_size

    def begin_decode(self, utterance_ids):
        return {}

    def next_token_logits(self, ctx, prefixes):
        rows = []
        for prefix in prefixes:
            probs = self.table.get(tuple(prefix))
            if probs is None:
                probs = {EOS_ID: 1.0}
            row = np.full(self.vocab_size, NEG)
            for token, p in probs.items():
                row[token] = math.log(p)
            rows.append(row)
        return np.array(rows)


def greedy_decode(model, utterance, config):
    """Independent greedy reference with the same n-gram constraint."""
    ctx = model.begin_decode(utterance.ids)
    ids = [BOS_ID]
    while len(ids) < config.max_len:
        logits = np.asarray(model.next_token_logits(ctx, [ids])[0], dtype=np.float64)
        shifted = logits - logits.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        for t in banned_tokens(ids, config.no_repeat_ngram):
            logp[t] = -np.inf
        best = int(np.argmax(logp))  # first max: lowest id wins ties
        ids.append(best)
        if best == EOS_ID:
            break
    tokens = ids[1:]
    if not tokens or tokens[-1] != EOS_ID:
        tokens = tokens + [EOS_ID]
    return tokens


def enumerate_best(table, max_tokens, length_penalty=1.0):
    """Exhaustive search over every sequence of up to ``max_tokens`` tokens."""
    model = TableModel(table)
    best_score, best_seq = -np.inf, None
    for n in range(1, max_tokens + 1):
        for seq in itertools.product((EOS_ID, 3, 4), repeat=n):
            if EOS_ID in seq[:-1] or seq[-1] != EOS_ID:
                continue
            ids = [BOS_ID]
            logp = 0.0
            ok = True
            for token in seq:
                row = model.next_token_logits({}, [ids])[0]
                shifted = row - row.max()
                lsm = shifted - np.log(np.exp(shifted).sum())
                if lsm[token] < -1e8:
                    ok = False
                    break
                logp += lsm[token]
                ids.append(token)
            if not ok:
                continue
            score = logp / (len(seq) ** length_penalty)
            if score > best_score:
                best_score, best_seq = score, list(seq)
    return best_seq, best_score


@pytest.fixture(scope="module")
def converged():
    """A small generation-only model trained to reproduce the planted templates."""
    gen = gen_synthetic("generation", 400, seed=5)
    tr, va, te = split_811(gen, seed=5)
    task_data = {"response": {"train": tr, "valid": va, "test": te}}
    spec = TaskSpec(name="response", kind="generation")
    plan = TrainPlan(tasks=[spec], batch_size=32, epochs=30, seed=5, max_len=16,
                     lr=1e-3, save_every_epoch=False)
    vocab = build_shared_vocab(task_data, plan.tasks)
    config = ModelConfig(vocab_size=vocab.size, d_model=32, n_heads=2,
                         n_enc_layers=1, n_dec_layers=1, d_ff=128, max_len=16,
                         dropout=0.0)
    model = init_parameters(config, seed=5)
    model, _ = train(plan, task_data, model, vocab)
    model.eval()
    return model, vocab, te


class TestBannedTokens:
    def test_no_ban_below_window(self):
        assert banned_tokens([1, 5], 3) == set()

    def test_bans_completing_token(self):
        # trigram (5, 6, 7) exists; prefix ends with (5, 6) again
        assert banned_tokens([1, 5, 6, 7, 9, 5, 6], 3) == {7}

    def test_disabled_with_zero(self):
        assert banned_tokens([1, 5, 6, 5, 6], 0) == set()

    def test_unigram_blocking_bans_everything_seen(self):
        assert banned_tokens([1, 5, 6], 1) == {1, 5, 6}


class TestBeamSearch:
    def test_bad_beam_width(self):
        with pytest.raises(ConfigError):
            BeamConfig(beam_width=0)

    def test_beam_two_recovers_enumerated_optimum(self):
        # Greedy prefers token 3 first, but the 4-branch is globally better.
        table = {
            (BOS_ID,): {3: 0.6, 4: 0.4},
            (BOS_ID, 3): {EOS_ID: 0.55, 4: 0.45},
            (BOS_ID, 4): {EOS_ID: 0.9, 3: 0.1},
            (BOS_ID, 3, 4): {EOS_ID: 1.0},
            (BOS_ID, 4, 3): {EOS_ID: 1.0},
        }
        model = TableModel(table)
        # Rank by raw sequence probability: length_penalty=0 on both sides.
        config = BeamConfig(beam_width=2, max_len=6, no_repeat_ngram=0,
                            length_penalty=0.0)
        got = beam_search(model, TokenSeq([EOS_ID], ROLE_UTTERANCE), config)
        want, _ = enumerate_best(table, max_tokens=4, length_penalty=0.0)
        assert got.ids == want
        assert got.ids == [4, EOS_ID]
        greedy = greedy_decode(model, TokenSeq([EOS_ID], ROLE_UTTERANCE), config)
        assert greedy == [3, EOS_ID]  # confirms greedy is suboptimal here

    def test_beam_one_equals_greedy_on_table_models(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            table = {}
            for prefix in [(BOS_ID,), (BOS_ID, 3), (BOS_ID, 4),
                           (BOS_ID, 3, 3), (BOS_ID, 3, 4), (BOS_ID, 4, 3), (BOS_ID, 4, 4)]:
                raw = rng.dirichlet(np.ones(3))
                table[prefix] = {EOS_ID: raw[0], 3: raw[1], 4: raw[2]}
            model = TableModel(table)
            for n in (0, 2):
                config = BeamConfig(beam_width=1, max_len=5, no_repeat_ngram=n)
                beam = beam_search(model, TokenSeq([EOS_ID], ROLE_UTTERANCE), config)
                greedy = greedy_decode(model, TokenSeq([EOS_ID], ROLE_UTTERANCE), config)
                assert beam.ids == greedy, f"trial {trial} ngram {n}"

    def test_beam_one_equals_greedy_on_trained_model(self, converged):
        model, vocab, test_examples = converged
        config = BeamConfig(beam_width=1, max_len=16, no_repeat_ngram=3)
        for ex in test_examples[:25]:
            from emogen.text import encode

            seq = encode(ex.utterance, vocab, 16)
            beam = beam_search(model, seq, config)
            greedy = greedy_decode(model, seq, config)
            assert beam.ids == greedy

    def test_wider_beam_never_scores_worse(self, converged):
        model, vocab, test_examples = converged
        from emogen.text import encode

        def penalized(model, seq, width):
            config = BeamConfig(beam_width=width, max_len=16, no_repeat_ngram=0)
            out = beam_search(model, seq, config)
            # re-score the emitted tokens with the model
            ctx = model.begin_decode(seq.ids)
            ids = [BOS_ID]
            total = 0.0
            for token in out.ids:
                logits = model.next_token_logits(ctx, [ids])[0]
                shifted = logits - logits.max()
                lsm = shifted - np.log(np.exp(shifted).sum())
                total += lsm[token]
                ids.append(token)
            return total / len(out.ids)

        for ex in test_examples[:10]:
            seq = encode(ex.utterance, vocab, 16)
            assert penalized(model, seq, 5) >= penalized(model, seq, 1) - 1e-12


    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_cached_decoder_matches_full_prefix_reference(self, converged, width):
        model, vocab, test_examples = converged
        from emogen.text import encode

        reference = FullPrefixModel(model)
        config = BeamConfig(beam_width=width, max_len=16, no_repeat_ngram=3)
        for ex in test_examples:
            seq = encode(ex.utterance, vocab, 16)
            assert beam_search(model, seq, config).ids == beam_search(reference, seq, config).ids


score_cells = st.one_of(
    st.sampled_from([-np.inf, -1.0, -2.5, 0.0]),  # ties and banned entries
    st.floats(min_value=-50.0, max_value=0.0),
)


class TestTopCandidates:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda beams: st.integers(1, 6).flatmap(
            lambda vocab: st.lists(st.lists(score_cells, min_size=vocab, max_size=vocab),
                                   min_size=beams, max_size=beams))),
        st.integers(1, 12),
    )
    def test_matches_sorted_tuples(self, rows, limit):
        scores = np.array(rows, dtype=np.float64)
        flat = [
            (scores[bi, t], t, bi)
            for bi in range(scores.shape[0])
            for t in range(scores.shape[1])
            if scores[bi, t] > -np.inf
        ]
        flat.sort(key=lambda c: (-c[0], c[1], c[2]))
        assert top_candidates(scores, limit) == flat[:limit]


class TestGenerateFile:
    def test_empty_input_empty_output(self, converged, tmp_path):
        model, vocab, _ = converged
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("")
        n = generate_file(model, vocab, src, out, BeamConfig(max_len=16))
        assert n == 0 and out.read_text() == ""

    def test_deterministic_outputs(self, converged, tmp_path):
        model, vocab, test_examples = converged
        src = tmp_path / "in.txt"
        src.write_text("".join(ex.utterance + "\n" for ex in test_examples[:20]))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        generate_file(model, vocab, src, a, BeamConfig(max_len=16))
        generate_file(model, vocab, src, b, BeamConfig(max_len=16))
        assert a.read_bytes() == b.read_bytes()

    def test_converged_model_reproduces_planted_mapping(self, converged, tmp_path):
        model, vocab, test_examples = converged
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("".join(ex.utterance + "\n" for ex in test_examples) )
        generate_file(model, vocab, src, out, BeamConfig(max_len=16))
        hyps = out.read_text().splitlines()
        matches = total = 0
        for hyp, ex in zip(hyps, test_examples):
            got = hyp.split()
            want = tokenize(ex.response)
            total += max(len(got), len(want))
            matches += sum(1 for a, b in zip(got, want) if a == b)
        assert matches / total >= 0.9

    def test_no_repeated_trigrams_in_outputs(self, converged, tmp_path):
        model, vocab, test_examples = converged
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("".join(ex.utterance + "\n" for ex in test_examples))
        generate_file(model, vocab, src, out, BeamConfig(max_len=16, no_repeat_ngram=3))
        for line in out.read_text().splitlines():
            toks = line.split()
            grams = [tuple(toks[i : i + 3]) for i in range(len(toks) - 2)]
            assert len(grams) == len(set(grams)), line

    def test_failure_reports_line_number(self, converged, tmp_path):
        model, vocab, _ = converged
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        long_line = " ".join(["word"] * 30)  # exceeds the model's position table
        src.write_text("i feel glum about the news\n" + long_line + "\n")
        bad_config = BeamConfig(max_len=64)
        with pytest.raises(DataError, match=":2"):
            generate_file(model, vocab, src, out, bad_config)
