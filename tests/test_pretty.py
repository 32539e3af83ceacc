"""Printing core programs back to parseable text."""
import random

import pytest

from ovlang import ast
from ovlang.desugar import desugar
from ovlang.parser import parse_program
from pretty import fmt_expr, pretty_print

from conftest import POSITIVE_FILES


def roundtrip(core: ast.Program) -> ast.Program:
    text = pretty_print(core)
    reparsed, diags = parse_program(text)
    assert not diags.has_errors(), text
    return desugar(reparsed)


@pytest.mark.parametrize("path", POSITIVE_FILES, ids=lambda p: p.name)
def test_corpus_roundtrip(path):
    surface, _ = parse_program(path.read_text(encoding="utf-8"))
    core = desugar(surface)
    assert roundtrip(core) == core


def test_temporaries_survive():
    # compiler-introduced locals have no declared type; they print as `var`
    core = ast.Program([ast.ClassDecl(
        "C", ["o"], None, [], [], [ast.FieldDecl(ast.IntType(), "v")], [],
        [ast.MethodDecl("m", ast.VoidType(), [],
                        ast.Contract(ast.CtxThis(), ast.CtxThis()),
                        ast.Seq(ast.Let("__t0", None, ast.Const(7)),
                                ast.FieldSet(ast.This(), "v",
                                             ast.Var("__t0"))))])], None)
    assert roundtrip(core) == core
    assert "var __t0 = 7;" in pretty_print(core)


@pytest.mark.parametrize("expr,text", [
    (ast.PrimOp("+", [ast.Const(1),
                      ast.PrimOp("*", [ast.Const(2), ast.Const(3)])]),
     "1 + 2 * 3"),
    (ast.PrimOp("*", [ast.PrimOp("+", [ast.Const(1), ast.Const(2)]),
                      ast.Const(3)]),
     "(1 + 2) * 3"),
    (ast.PrimOp("-", [ast.PrimOp("-", [ast.Const(1), ast.Const(2)]),
                      ast.Const(3)]),
     "1 - 2 - 3"),
    (ast.PrimOp("-", [ast.Const(1),
                      ast.PrimOp("-", [ast.Const(2), ast.Const(3)])]),
     "1 - (2 - 3)"),
    (ast.PrimOp("!", [ast.Var("b")]), "!b"),
    (ast.FieldGet(ast.Var("a"), "f"), "a.f"),
])
def test_expression_layout(expr, text):
    assert fmt_expr(expr) == text


def test_expression_roundtrip_by_precedence():
    # left-nested vs right-nested subtraction must print distinctly
    left = ast.PrimOp("-", [ast.PrimOp("-", [ast.Const(9), ast.Const(4)]),
                            ast.Const(2)])
    right = ast.PrimOp("-", [ast.Const(9),
                             ast.PrimOp("-", [ast.Const(4), ast.Const(2)])])
    assert fmt_expr(left) != fmt_expr(right)


def test_contract_printed_on_atomic():
    core = desugar(parse_program(
        "main { atomic <top,bot> { var x = 1; } }")[0])
    assert "atomic <top,bot> {" in pretty_print(core)


def test_deduced_atomic_prints_without_contract():
    src = """\
class C[o] { void a() <this,this> { } }
main {
    C<top> c = new C<top>();
    atomic c.a();
}
"""
    core = desugar(parse_program(src)[0])
    printed = pretty_print(core)
    assert "atomic c.a();" in printed
    assert roundtrip(core) == core


def _random_expr(rng: random.Random, depth: int) -> ast.Expr:
    """A random expression over every operator in ast.BINARY_PREC, unary
    `!`/`-`, `valid`, field reads and calls, with Const/Var/This leaves."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(3)
        if kind == 0:
            return ast.Const(rng.choice([0, 7, 42, True, False, None]))
        if kind == 1:
            return ast.Var(rng.choice("abc"))
        return ast.This()
    kind = rng.randrange(6)
    sub = depth - 1
    if kind <= 1:
        op = rng.choice(sorted(ast.BINARY_PREC))
        return ast.PrimOp(op, [_random_expr(rng, sub), _random_expr(rng, sub)])
    if kind == 2:
        return ast.PrimOp(rng.choice("!-"), [_random_expr(rng, sub)])
    if kind == 3:
        return ast.Valid(_random_expr(rng, sub))
    if kind == 4:
        return ast.FieldGet(_random_expr(rng, sub), rng.choice("fg"))
    args = [_random_expr(rng, sub) for _ in range(rng.randrange(3))]
    return ast.Call(_random_expr(rng, sub), "m", args)


def test_random_expressions_reparse_to_the_same_tree():
    # every precedence level and left-associativity, against the one table
    # the parser and the printer share
    rng = random.Random(20260105)
    for _ in range(2000):
        e = _random_expr(rng, rng.randint(1, 5))
        text = fmt_expr(e)
        p, _ = parse_program(f"main {{ var x = {text}; }}")
        assert p.main.stmts[0].init == e, text
