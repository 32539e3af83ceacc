"""Tokenizer: the one-pass lexer against a regex-per-token reference."""
import random
import re

import pytest

from ovlang.diagnostics import OvError
from ovlang.lexer import KEYWORDS, tokenize

from conftest import CORPUS, bench_module

# The reference: one re.match per token, whitespace run or comment, with
# the newlines of each matched text counted to move line and column.
_REF_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<num>[0-9]+(?:[eE][0-9]+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><<|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=
      |[{}()\[\]<>,;.=!+\-*/%])
    """,
    re.VERBOSE,
)


def reference(src: str):
    toks, pos, line, col = [], 0, 1, 1
    while pos < len(src):
        m = _REF_RE.match(src, pos)
        if m is None:
            return ("E-PARSE", f"unexpected character {src[pos]!r}", line, col)
        text, group = m.group(0), m.lastgroup
        if group == "num":
            toks.append(("num", text, line, col))
        elif group == "id":
            toks.append((text if text in KEYWORDS else "id", text, line, col))
        elif group == "op":
            toks.append((text, text, line, col))
        if "\n" in text:
            line += text.count("\n")
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


def lexed(src: str):
    """Tokens as (kind, text, line, col), read from the four parallel
    lists, or the E-PARSE diagnostic."""
    try:
        toks = tokenize(src)
    except OvError as err:
        d = err.diagnostic
        return (d.code, d.msg, d.line, d.col)
    kinds, texts, lines, cols = toks.kinds, toks.texts, toks.lines, toks.cols
    # the lists are parallel, and len() counts every token, eof included
    assert len(toks) == len(kinds) == len(texts) == len(lines) == len(cols)
    # exactly one eof token, just past the last character
    assert kinds.count("eof") == 1
    assert (kinds[-1], texts[-1]) == ("eof", "")
    assert lines[-1] == src.count("\n") + 1
    assert cols[-1] == len(src) - src.rfind("\n")
    return list(zip(kinds, texts, lines, cols))


def assert_matches_reference(src: str):
    got, want = lexed(src), reference(src)
    assert got == want, repr(src)
    if isinstance(want, list):
        # the benchmark's tracer counts len(tokenize(src)) - 1 tokens
        assert len(tokenize(src)) - 1 == len(want) - 1
    return want


CORPUS_SOURCES = {p.relative_to(CORPUS).as_posix(): p.read_text(encoding="utf-8")
                  for p in sorted(CORPUS.glob("**/*.ov"))}

# inserted or written over a character; every byte value is drawn too
_SPECIALS = ["\r", "\t", "\n", "\r\n", " ", "//", "/", "é", "€", "\x00",
             "1e", "e5", "<<", "=", "_", "{", "}"]


def mutations(count: int, seed: int):
    rng = random.Random(seed)
    bases = list(CORPUS_SOURCES.values())
    for _ in range(count):
        src = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(src) + 1)
            piece = rng.choice(_SPECIALS) if rng.random() < 0.6 \
                else chr(rng.randrange(256))
            kind = rng.randrange(4)
            if kind == 0:
                src = src[:pos] + piece + src[pos:]
            elif kind == 1:
                src = src[:pos] + piece + src[pos + 1:]
            elif kind == 2:
                src = src[:pos] + src[pos + 1:]
            else:  # cut, ending the input in a comment or mid-token
                src = src[:pos] + rng.choice(["//", "// x", "", "\r"])
        yield src


@pytest.mark.parametrize("name", sorted(CORPUS_SOURCES))
def test_corpus_matches_reference(name):
    assert_matches_reference(CORPUS_SOURCES[name])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_programs_match_reference(seed):
    for _stem, src in bench_module("workloads").programs(seed):
        assert_matches_reference(src)


def test_mutations_match_reference():
    outcomes = set()
    for src in mutations(3000, seed=7):
        want = assert_matches_reference(src)
        outcomes.add(want[0] if isinstance(want, tuple) else "tokens")
    assert outcomes == {"E-PARSE", "tokens"}  # both kinds really occurred


@pytest.mark.parametrize("src, last", [
    ("", ("eof", "", 1, 1)),
    ("x // tail", ("eof", "", 1, 10)),
    ("a\r\n\tb\n", ("eof", "", 3, 1)),
    ("1e5e", ("eof", "", 1, 5)),
])
def test_edges(src, last):
    toks = assert_matches_reference(src)
    assert toks[-1] == last


def test_bad_character_position():
    assert lexed("class A {\n  \t@") == (
        "E-PARSE", "unexpected character '@'", 2, 4)
