"""Surface syntax: structure, contract normalization, rejection cases."""
import hashlib
import json

import pytest

from ovlang import ast, parser
from ovlang.diagnostics import OvError
from ovlang.parser import parse_program

from conftest import CORPUS, GOLDENS, bench_module


def parse_fail(src: str) -> OvError:
    with pytest.raises(OvError) as exc:
        parse_program(src)
    assert exc.value.code == "E-PARSE"
    return exc.value

ACCOUNT = """\
class Account[o] {
    uint256 balance;
    inv balance > 0 && balance < 1e30;

    public void deposit(uint256 amount) <this,this> {
        balance += amount;
    }

    public uint256 get() <this,top> {
        return balance;
    }
}
"""


def test_class_structure():
    p, diags = parse_program(ACCOUNT)
    assert not diags.has_errors()
    (cls,) = p.classes
    assert cls.name == "Account"
    assert cls.ctx_params == ["o"]
    assert [f.name for f in cls.fields] == ["balance"]
    assert len(cls.invariants) == 1
    assert [m.name for m in cls.methods] == ["deposit", "get"]
    assert p.main is None


def test_contract_positions():
    p, _ = parse_program(ACCOUNT)
    dep, get = p.classes[0].methods
    assert dep.contract == ast.Contract(ast.CtxThis(), ast.CtxThis())
    # invalidity `top` is normalized away at parse time
    assert get.contract == ast.Contract(ast.CtxThis(), ast.CtxBot())


def test_top_invalidity_warns():
    _, diags = parse_program(ACCOUNT)
    assert diags.codes() == ["W-TOP-INVALIDITY"]
    assert not diags.has_errors()


def test_star_rejected_in_contract():
    err = parse_fail("class C[o] { void m() <*,bot> { } }")
    assert "validity position" in err.msg


def test_star_allowed_in_type_argument():
    src = """\
class Box[o] { int v; }
class C[o] {
    void m(Box<*> b) <this,bot> { }
}
"""
    p, diags = parse_program(src)
    assert not diags.has_errors()
    param_t = p.classes[1].methods[0].params[0].type
    assert param_t == ast.ClassType("Box", [ast.CtxAny()])


def test_existential_is_not_surface_syntax():
    parse_fail("class C[o] { void m() <?,bot> { } }")


def test_parse_error_has_position():
    err = parse_fail("class C[o] {\n    int x = ;\n}")
    assert err.diagnostic.line == 2


def test_operator_precedence():
    p, _ = parse_program("main { var x = 1 + 2 * 3 == 7 && true; }")
    let = p.main.stmts[0]
    cmp = let.init.args[0]
    assert cmp.op == "=="
    assert cmp.args[0] == ast.PrimOp("+", [
        ast.Const(1), ast.PrimOp("*", [ast.Const(2), ast.Const(3)])])


def parse_expr(text: str) -> ast.Expr:
    p, _ = parse_program(f"main {{ var x = {text}; }}")
    return p.main.stmts[0].init


@pytest.mark.parametrize("loose,tight", [
    ("||", "&&"), ("&&", "=="), ("==", "<"), ("!=", ">="), ("<=", "+"),
    (">", "-"), ("+", "*"), ("-", "/"), ("+", "%"),
])
def test_precedence_levels(loose, tight):
    # the Solidity order of these operators, loosest to tightest
    a, b, c = ast.Var("a"), ast.Var("b"), ast.Var("c")
    assert parse_expr(f"a {loose} b {tight} c") == ast.PrimOp(
        loose, [a, ast.PrimOp(tight, [b, c])])
    assert parse_expr(f"a {tight} b {loose} c") == ast.PrimOp(
        loose, [ast.PrimOp(tight, [a, b]), c])


def test_valid_binds_at_unary_level():
    a, b = ast.Var("a"), ast.Var("b")
    assert parse_expr("valid a && b") == ast.PrimOp("&&", [ast.Valid(a), b])
    assert parse_expr("valid a.f") == ast.Valid(ast.FieldGet(a, "f"))


def test_operators_keep_their_token_positions():
    p, _ = parse_program("main {\n  var x = a -\n    b * c - d || !e;\n}")
    alt = p.main.stmts[0].init
    assert (alt.op, alt.line, alt.col) == ("||", 3, 15)
    outer = alt.args[0]
    assert (outer.op, outer.line, outer.col) == ("-", 3, 11)
    inner = outer.args[0]
    assert (inner.op, inner.line, inner.col) == ("-", 2, 13)
    mul = inner.args[1]
    assert (mul.op, mul.line, mul.col) == ("*", 3, 7)
    neg = alt.args[1]
    assert (neg.op, neg.line, neg.col) == ("!", 3, 18)


def test_compound_assignment_survives_parsing():
    p, _ = parse_program(ACCOUNT)
    stmt = p.classes[0].methods[0].body.stmts[0]
    assert isinstance(stmt, ast.OpAssign)
    assert stmt.op == "+"


def test_numeric_lexeme_preserved():
    p, _ = parse_program(ACCOUNT)
    inv = p.classes[0].invariants[0]
    bound = inv.args[1].args[1]
    assert bound.value == 10 ** 30
    assert bound.lexeme == "1e30"


def test_where_constraints():
    src = "class C[o,p] where p << top, o <= p { int v; }"
    p, diags = parse_program(src)
    assert not diags.has_errors()
    c1, c2 = p.classes[0].constraints
    assert c1 == ast.Constraint(ast.CtxParam("p"), True, ast.CtxTop())
    assert c2 == ast.Constraint(ast.CtxParam("o"), False, ast.CtxParam("p"))


def test_main_statements():
    src = """\
class Cell[o] { int v; void set(int x) <this,this> { v = x; } }
main {
    Cell<top> c = new Cell<top>();
    atomic c.set(4);
    fork atomic c.set(5);
}
"""
    p, diags = parse_program(src)
    assert not diags.has_errors()
    decl, atomic, fork = p.main.stmts
    assert isinstance(decl, ast.Let) and decl.name == "c"
    assert isinstance(atomic, ast.Atomic) and atomic.contract is None
    assert isinstance(fork, ast.Fork)


def test_atomic_block_with_contract():
    src = "main { atomic <top,bot> { var x = 1; } }"
    p, diags = parse_program(src)
    assert not diags.has_errors()
    atomic = p.main.stmts[0]
    assert atomic.contract == ast.Contract(ast.CtxTop(), ast.CtxBot())


def test_return_must_be_last():
    parse_fail("class C[o] { int m() <this,bot> { return 1; return 2; } }")


def test_parse_contract_helper():
    # a method's contract, parsed through the program parser
    p, diags = parse_program("class C[o] { void m() <this,bot> { } }")
    assert not diags.has_errors()
    d = p.classes[0].methods[0].contract
    assert d == ast.Contract(ast.CtxThis(), ast.CtxBot())


@pytest.mark.parametrize("src", [
    "class {",
    "class C[] { }",
    "main { 1 + ; }",
    "class C[o] { void m() { } }",  # methods need a contract
])
def test_rejects(src):
    parse_fail(src)


# -- pinned trees -------------------------------------------------------------
# goldens/parse_trees.json holds, for every corpus/**/*.ov file and every
# benchmark program of seeds 1 to 3, the sha256 of repr(parse_program(src))
# (positions and warnings included), or the E-PARSE diagnostic as
# [code, msg, line, col] when the file does not parse.

def pinned_sources():
    for path in sorted(CORPUS.glob("**/*.ov")):
        yield path.relative_to(CORPUS).as_posix(), path.read_text(
            encoding="utf-8")
    workloads = bench_module("workloads")
    for seed in (1, 2, 3):
        for stem, src in workloads.programs(seed):
            yield f"{seed}/{stem}", src


def parse_outcome(src: str):
    try:
        tree = parse_program(src)
    except OvError as err:
        d = err.diagnostic
        return [d.code, d.msg, d.line, d.col]
    return hashlib.sha256(repr(tree).encode("utf-8")).hexdigest()


def test_parse_trees_are_pinned():
    pinned = json.loads((GOLDENS / "parse_trees.json").read_text())
    got = {name: parse_outcome(src) for name, src in pinned_sources()}
    assert sorted(got) == sorted(pinned)
    for name in pinned:
        assert got[name] == pinned[name], name
    assert got["negative/parse_error.ov"] == [
        "E-PARSE", "unexpected ';' in expression", 3, 13]


# -- declarations by lookahead ------------------------------------------------

def test_accepted_input_raises_no_parse_fail(monkeypatch):
    made = []

    class Counted(parser.ParseFail):
        def __init__(self, msg, i):
            made.append(msg)
            super().__init__(msg, i)

    monkeypatch.setattr(parser, "ParseFail", Counted)
    accepted = 0
    for name, src in pinned_sources():
        if not name.startswith("negative/"):
            parse_program(src)
            accepted += 1
    assert accepted == 9 + 3 * 45
    assert made == []
    # the count sees a real fault
    parse_fail("main { int x = ; }")
    assert made == ["unexpected ';' in expression"]


@pytest.mark.parametrize("stmt, is_decl", [
    ("int x;", True),
    ("uint256 x = 1;", True),
    ("C c;", True),
    ("C<top> c = null;", True),
    ("C<this, o, *, bot> c;", True),
    ("a < b > c;", True),
    ("a < b;", False),
    ("a < b > (c);", False),
    ("a < b >= c;", False),
    ("x = y;", False),
    ("a.b = 1;", False),
    ("f(x);", False),
])
def test_declaration_lookahead(stmt, is_decl):
    p, _ = parse_program(f"main {{ {stmt} }}")
    assert isinstance(p.main.stmts[0], ast.Let) == is_decl


def test_comparison_chain_is_a_declaration():
    p, _ = parse_program("main { a < b > c; }")
    assert p.main.stmts[0] == ast.Let(
        "c", ast.ClassType("a", [ast.CtxParam("b")]), ast.Const(None))


@pytest.mark.parametrize("src, msg, line, col", [
    # the fault inside a declaration is reported where it is
    ("main { int x = ; }", "unexpected ';' in expression", 1, 16),
    ("main {\n  C<top> c = new C<top>()\n  c.f();\n}",
     "expected ';', found 'c'", 3, 3),
    ("main { C x += 1; }", "expected ';', found '+='", 1, 12),
    ("main { a < b > c += 1; }", "expected ';', found '+='", 1, 18),
    ("main { C<top> c = ; }", "unexpected ';' in expression", 1, 19),
    ("main { C<top> c", "expected ';', found 'end of input'", 1, 16),
    # a malformed type argument list in a member or parameter
    ("class K[o] { Foo<this x; }", "expected '>', found 'x'", 1, 23),
    ("class K[o] { Foo< }", "expected a context", 1, 19),
    ("class K[o] { void m(Foo<this q) <this,bot> { } }",
     "expected '>', found 'q'", 1, 30),
])
def test_malformed_declaration_reports_its_fault(src, msg, line, col):
    err = parse_fail(src)
    assert (err.msg, err.diagnostic.line, err.diagnostic.col) == (
        msg, line, col)


@pytest.mark.parametrize("src", [
    "main { Foo <", "main { Foo<this,", "main { int", "main { x",
    "main { a < b >", "class K[o] { Foo<this,",
])
def test_input_ending_mid_lookahead(src):
    parse_fail(src)
