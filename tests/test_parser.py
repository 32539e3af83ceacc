"""Surface syntax: structure, contract normalization, rejection cases."""
import pytest

from ovlang import ast
from ovlang.diagnostics import OvError
from ovlang.parser import parse_contract, parse_program


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
    d, diags = parse_contract("<this,bot>")
    assert not diags.has_errors()
    assert d == ast.Contract(ast.CtxThis(), ast.CtxBot())


@pytest.mark.parametrize("src", [
    "class {",
    "class C[] { }",
    "main { 1 + ; }",
    "class C[o] { void m() { } }",  # methods need a contract
])
def test_rejects(src):
    parse_fail(src)
