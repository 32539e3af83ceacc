"""Tokenizer for .ov source text.

One `findall` over the source gives, for each token, the whitespace and
comments skipped before it and the token's text: a word, a number, an
operator, any other character (an error), or the empty text at the end of
input. One loop then files each token into four parallel lists, keeping a
running line and column; no token text holds a newline, so only the
skipped text moves the line.
"""
from __future__ import annotations

import re

from .ast import Record
from .diagnostics import OvError

KEYWORDS = {
    "class", "extends", "where", "inv", "final", "main", "new", "this",
    "null", "true", "false", "int", "bool", "uint", "uint256", "void",
    "atomic", "fork", "valid", "require", "emit", "return", "throw",
    "public", "private", "var", "top", "bot",
}

# two-character operators first, so that the longest one matches
OPERATORS = ("<< <= >= == != && || += -= *= /= %= "
             "{ } ( ) [ ] < > , ; . = ! + - * / %").split()

# (skipped whitespace and comments, token text); a token is a word, a
# number, an operator, the end of input or any other character
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)"
    r"([A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:[eE][0-9]+)?|"
    + "|".join(map(re.escape, OPERATORS)) + r"|\Z|.)",
    re.DOTALL,
)

# A keyword or operator is its own kind; any other token's kind follows
# from its first character.
_KIND = {text: text for text in (*KEYWORDS, *OPERATORS)}
_FIRST = {c: "id" for c in
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"}
_FIRST.update((c, "num") for c in "0123456789")


class Tokens(Record):
    """The tokens of one source text as parallel lists, eof last. A kind is
    'num', 'id', 'eof', a keyword or an operator's text."""

    __slots__ = ("kinds", "texts", "lines", "cols")

    def __init__(self, kinds: list[str], texts: list[str], lines: list[int],
                 cols: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.lines = lines
        self.cols = cols

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(src: str) -> Tokens:
    toks = Tokens([], [], [], [])
    kinds, texts, lines, cols = toks.kinds, toks.texts, toks.lines, toks.cols
    kind_of, first_of = _KIND.get, _FIRST.get
    line = col = 1
    for skip, text in _TOKEN_RE.findall(src):
        if skip:
            newlines = skip.count("\n")
            if newlines:
                line += newlines
                col = len(skip) - skip.rfind("\n")
            else:
                col += len(skip)
        kind = kind_of(text) or first_of(text[:1])
        if kind is None:
            if not text:
                break
            raise OvError("E-PARSE", f"unexpected character {text!r}",
                          line, col)
        kinds.append(kind)
        texts.append(text)
        lines.append(line)
        cols.append(col)
        col += len(text)
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    cols.append(col)
    return toks


def num_value(text: str) -> int:
    """Integer value of a numeric literal, including 1e30-style spellings."""
    if "e" in text or "E" in text:
        mant, _, exp = text.replace("E", "e").partition("e")
        return int(mant) * 10 ** int(exp)
    return int(text)
