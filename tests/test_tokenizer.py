"""Tokenizer: splitting rules, special ids, vocabulary file round-trip."""

import pytest

from kkt.tokenizer import SPECIALS, Tokenizer, VocabularyFileError, read_text, tokenize


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, World!") == ["hello", ",", "world", "!"]


def test_tokenize_keeps_apostrophes():
    assert tokenize("don't") == ["don't"]


def test_tokenize_digits():
    assert tokenize("room 42.") == ["room", "42", "."]


def test_specials_occupy_first_five_ids():
    tk = Tokenizer.build(["a b c"])
    assert tuple(tk.tokens[:5]) == SPECIALS
    assert (tk.pad_id, tk.unk_id, tk.bos_id, tk.sep_id, tk.eos_id) == (0, 1, 2, 3, 4)


def test_build_sorts_words():
    tk = Tokenizer.build(["zebra apple", "mango apple"])
    assert tk.tokens[5:] == ["apple", "mango", "zebra"]


def test_encode_unknown_maps_to_unk():
    tk = Tokenizer.build(["known words"])
    ids = tk.encode("known mystery")
    assert ids[0] == tk.ids["known"]
    assert ids[1] == tk.unk_id


def test_encode_adds_no_specials():
    tk = Tokenizer.build(["one two"])
    assert len(tk.encode("one two")) == 2


def test_has_excludes_specials():
    tk = Tokenizer.build(["word"])
    assert tk.has("word")
    assert not tk.has("[unk]")
    assert not tk.has("[UNK]")
    assert not tk.has("absent")


def test_duplicate_vocabulary_rejected():
    with pytest.raises(ValueError):
        Tokenizer(["dup", "dup"])


def test_save_load_round_trip(tmp_path):
    tk = Tokenizer.build(["some words to keep"])
    path = tmp_path / "vocab.txt"
    tk.save(path)
    back = Tokenizer.load(path)
    assert back.tokens == tk.tokens
    assert back.encode("words to keep") == tk.encode("words to keep")


def test_load_requires_special_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("just\nplain\nwords\nno\nheader\n", encoding="utf-8")
    with pytest.raises(ValueError):
        Tokenizer.load(path)


def test_read_text_names_the_path_and_offset_of_bad_bytes(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"[PAD]\n[UNK]\xff\n")
    with pytest.raises(VocabularyFileError, match=r"vocab.txt: not UTF-8 text: byte 0xff at offset 11 "):
        Tokenizer.load(path)
    good = tmp_path / "good.txt"
    good.write_bytes("caf\u00e9\n".encode("utf-8"))
    assert read_text(good, VocabularyFileError) == (good.read_bytes(), "caf\u00e9\n")
