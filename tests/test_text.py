import errno

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen import text as text_module
from emogen.errors import ConfigError, DataError
from emogen.text import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    RESERVED_TOKENS,
    TokenSeq,
    Vocab,
    build_vocab,
    encode,
    pad_batch,
    shift_right,
    tokenize,
    write_text,
)


class TestBuildVocab:
    def test_counts_and_reserved(self):
        vocab = build_vocab(["a a b"], min_count=1)
        assert vocab.size == 6
        assert {"a", "b"} <= set(vocab.token_to_id)
        assert vocab.id_of("a") == 4  # most frequent gets the first free id

    def test_min_count_threshold(self):
        vocab = build_vocab(["a a b"], min_count=2)
        assert vocab.id_of("b") == UNK_ID
        assert vocab.id_of("a") != UNK_ID

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(DataError):
            build_vocab([])

    def test_reserved_ids_fixed(self):
        vocab = build_vocab(["x"])
        assert vocab.id_to_token[:4] == list(RESERVED_TOKENS)
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)

    def test_deterministic_across_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(40)]
        lines = [
            " ".join(words[j] for j in rng.integers(0, 40, size=8)) for _ in range(100)
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        build_vocab(lines).save(a)
        build_vocab(list(lines)).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["the cat sat on the mat"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.id_to_token == vocab.id_to_token

    def test_load_requires_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\nb\n")
        with pytest.raises(DataError):
            Vocab.load(path)


class TestWriteText:
    def test_write_that_fails_midway_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        write_text(path, "previous\n")

        class TornFile:
            """Writes the first half of the text, then fails like a full disk."""

            def __init__(self, *args, **kwargs):
                self.f = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(text_module, "open", TornFile, raising=False)
        with pytest.raises(ConfigError, match=f"{path}: cannot write: No space left on device"):
            write_text(path, "café\n" * 100)
        assert path.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["hello world how are you today"])

    def test_empty_text_is_just_eos(self, vocab):
        assert encode("", vocab).ids == [EOS_ID]

    def test_truncation_keeps_prefix_and_eos(self, vocab):
        text = " ".join(["hello"] * 100)
        seq = encode(text, vocab, max_len=64)
        assert len(seq.ids) == 64
        assert seq.ids[-1] == EOS_ID
        assert seq.ids[0] == vocab.id_of("hello")

    def test_oov_maps_to_unk(self, vocab):
        seq = encode("hello zzz", vocab)
        assert seq.ids == [vocab.id_of("hello"), UNK_ID, EOS_ID]

    def test_max_len_too_small(self, vocab):
        with pytest.raises(ConfigError):
            encode("hello", vocab, max_len=1)

    def test_round_trip_in_vocabulary(self, vocab):
        text = "hello world you"
        seq = encode(text, vocab)
        assert vocab.decode(seq.ids) == tokenize(text)

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="abc xyz.,!", max_size=80))
    def test_never_exceeds_max_len_and_ends_eos(self, text):
        vocab = build_vocab(["a b c x y z"])
        seq = encode(text, vocab, max_len=16)
        assert len(seq.ids) <= 16
        assert seq.ids[-1] == EOS_ID


class TestShiftRight:
    def test_response_shift(self):
        seq = TokenSeq([7, 8, EOS_ID], "response")
        out = shift_right(seq)
        assert out.ids == [BOS_ID, 7, 8]
        assert out.role == "decoder_input"

    def test_minimal_sequence(self):
        assert shift_right(TokenSeq([EOS_ID], "response")).ids == [BOS_ID]

    def test_length_preserved(self):
        seq = TokenSeq(list(range(4, 68)), "utterance")
        assert len(shift_right(seq).ids) == 64

    def test_empty_is_an_error(self):
        with pytest.raises(DataError):
            shift_right(TokenSeq([], "response"))

    def test_double_shift_is_an_error(self):
        once = shift_right(TokenSeq([5, EOS_ID], "response"))
        with pytest.raises(DataError):
            shift_right(once)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="ab c", max_size=40))
    def test_shifted_encoding_starts_with_bos(self, text):
        vocab = build_vocab(["a b c"])
        out = shift_right(encode(text, vocab, role="response"))
        assert out.ids[0] == BOS_ID


class TestPadBatch:
    def test_padding_shape_and_mask(self):
        seqs = [TokenSeq([4, 5, EOS_ID], "utterance"), TokenSeq([4, 5, 6, 7, EOS_ID], "utterance")]
        ids, mask = pad_batch(seqs)
        assert ids.shape == (2, 5)
        np.testing.assert_array_equal(mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        assert (ids[0, 3:] == PAD_ID).all()

    def test_single_sequence_identity(self):
        ids, mask = pad_batch([TokenSeq([4, EOS_ID], "utterance")])
        np.testing.assert_array_equal(ids, [[4, EOS_ID]])
        assert mask.all()

    def test_equal_lengths_all_real(self):
        seqs = [TokenSeq([4, EOS_ID], "utterance")] * 3
        _, mask = pad_batch(seqs)
        assert mask.all()

    def test_empty_batch_is_an_error(self):
        with pytest.raises(DataError):
            pad_batch([])
