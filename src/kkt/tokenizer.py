"""Deterministic word-level tokenizer with a fixed special-token header.

Text is lowercased and split into alphanumeric runs (apostrophes kept, so
"don't" stays one token) and single punctuation marks. The vocabulary file
is UTF-8, one token per line, line number = id; the five specials always
occupy ids 0-4.
"""

from __future__ import annotations

import re
import stat
from pathlib import Path

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^a-z0-9'\s]")

PAD, UNK, BOS, SEP, EOS = "[PAD]", "[UNK]", "[BOS]", "[SEP]", "[EOS]"
SPECIALS = (PAD, UNK, BOS, SEP, EOS)


class InputError(ValueError):
    """Bad input (a file, flag or config value), not a kkt defect: the CLI
    prints it as `error: ...` and exits 2, and any other exception is a defect."""


class VocabularyFileError(InputError):
    """Raised for a vocabulary file that cannot be read as one."""


def read_input(path, error) -> bytes:
    """An input file's bytes; an unreadable file raises `error`, an `InputError` class, naming the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None


class OutputPathError(InputError):
    """Raised for an output path (`--out`) that cannot be written."""


def write_output(path, data: bytes, mode: str = "wb") -> None:
    """Write an output file, making its directory first; an `OSError` of
    the writing raises `OutputPathError` naming the path. Mode "ab" with
    empty data checks that the path can be written and leaves a file
    there as it is."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open(mode) as f:
            f.write(data)
    except OSError as exc:
        raise OutputPathError(f"{path}: cannot write: {exc}") from None


def check_output_dir(path) -> None:
    """Raise `OutputPathError` naming `path` when no directory can be made there
    (a non-directory on the way, a name too long, a parent that cannot be searched)."""
    for d in (Path(path), *Path(path).parents):
        try:
            if stat.S_ISDIR(d.stat().st_mode):
                return
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            raise OutputPathError(f"{path}: cannot write: {exc}") from None
        raise OutputPathError(f"{path}: cannot write: {d} is not a directory")


def read_text(path, error) -> tuple[bytes, str]:
    """A text input file's bytes and their UTF-8 decoding; bytes that are not
    UTF-8 also raise `error`, naming the path and the byte offset."""
    raw = read_input(path, error)
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start} ({exc.reason})") from None


def tokenize(text: str) -> list[str]:
    """Split lowercased text into word and punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


class Tokenizer:
    """Maps tokens to ids over a fixed vocabulary."""

    def __init__(self, words):
        self.tokens = list(SPECIALS) + list(words)
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.ids = {t: i for i, t in enumerate(self.tokens)}
        self.pad_id, self.unk_id, self.bos_id, self.sep_id, self.eos_id = range(5)

    @classmethod
    def build(cls, texts) -> "Tokenizer":
        """Build a vocabulary from an iterable of texts, words sorted for determinism."""
        words = set()
        for text in texts:
            words.update(tokenize(text))
        return cls(sorted(words))

    def __len__(self):
        return len(self.tokens)

    def has(self, token: str) -> bool:
        """True if the (already lowercased) token is a known non-special word."""
        i = self.ids.get(token)
        return i is not None and i >= len(SPECIALS)

    def encode(self, text: str) -> list[int]:
        """Token ids for the text; unknown tokens map to [UNK]. No specials added."""
        return [self.ids.get(t, self.unk_id) for t in tokenize(text)]

    def save(self, path):
        write_output(path, ("\n".join(self.tokens) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Tokenizer":
        lines = read_text(path, VocabularyFileError)[1].splitlines()
        if tuple(lines[:5]) != SPECIALS:
            raise VocabularyFileError(f"vocabulary file {path} does not start with the five reserved specials")
        first = {}
        for lineno, token in enumerate(lines, start=1):
            if first.setdefault(token, lineno) != lineno:
                raise VocabularyFileError(f"{path}:{lineno}: token {token!r} repeats line {first[token]}")
        return cls(lines[5:])
