"""Tokenizer for .ov source text.

One `finditer` pass over the source. Every match is the whitespace and
comment before a token, skipped so that they make no object, followed by
one of: a newline, an operator, a word, a number, the end of input, or
any other character, which is an error. A newline is its own alternative,
so the line is a running count and the column is measured from the start
of the current line; no matched text is rescanned for newlines.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import OvError

KEYWORDS = {
    "class", "extends", "where", "inv", "final", "main", "new", "this",
    "null", "true", "false", "int", "bool", "uint", "uint256", "void",
    "atomic", "fork", "valid", "require", "emit", "return", "throw",
    "public", "private", "var", "top", "bot",
}

# The alternatives start with disjoint characters; operators are longest
# match first.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*(?://[^\n]*)?
    (?: (?P<nl>\n)
      | (?P<op><<|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=
          |[{}()\[\]<>,;.=!+\-*/%])
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>[0-9]+(?:[eE][0-9]+)?)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# A word's kind: a keyword is its own kind, any other word is "id".
_KIND = {kw: kw for kw in KEYWORDS}


@dataclass(slots=True)
class Token:
    kind: str  # 'num', 'id', keyword text, or operator text
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r},{self.text!r},{self.line}:{self.col})"


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    kind_of = _KIND.get
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN_RE.finditer(src):
        group = m.lastgroup
        if group == "nl":
            line += 1
            line_start = m.end()
            continue
        if group == "eof":
            break
        text = m.group(group)
        col = m.start(group) - line_start + 1
        if group == "op":
            kind = text
        elif group == "id":
            kind = kind_of(text, "id")
        elif group == "num":
            kind = "num"
        else:
            raise OvError("E-PARSE", f"unexpected character {text!r}",
                          line, col)
        append(Token(kind, text, line, col))
    append(Token("eof", "", line, len(src) - line_start + 1))
    return toks


def num_value(text: str) -> int:
    """Integer value of a numeric literal, including 1e30-style spellings."""
    if "e" in text or "E" in text:
        mant, _, exp = text.replace("E", "e").partition("e")
        return int(mant) * 10 ** int(exp)
    return int(text)
