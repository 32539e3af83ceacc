"""Lowering to core form: name resolution, statement chains, expansions."""
import importlib
from collections import Counter

from ovlang import ast
from ovlang.desugar import desugar
from ovlang.parser import parse_program

# the package's `desugar` attribute is the function, not the module
desugar_module = importlib.import_module("ovlang.desugar")


def lower(src: str) -> ast.Program:
    p, diags = parse_program(src)
    assert not diags.has_errors()
    return desugar(p)


def method_body(p: ast.Program, cls: str, name: str) -> ast.Expr:
    [decl] = [c for c in p.classes if c.name == cls]
    for m in decl.methods:
        if m.name == name:
            return m.body
    raise AssertionError(name)


def test_field_reads_resolve_to_this():
    p = lower("class C[o] { int v; int m() <this,bot> { return v; } }")
    body = method_body(p, "C", "m")
    assert body == ast.FieldGet(ast.This(), "v")


def test_locals_shadow_fields():
    p = lower("""\
class C[o] {
    int v;
    int m() <this,bot> {
        int v = 3;
        return v;
    }
}
""")
    body = method_body(p, "C", "m")
    assert body == ast.Seq(ast.Let("v", ast.IntType(), ast.Const(3)),
                           ast.Var("v"))


def test_shadowing_ends_with_its_block():
    p = lower("""\
class C[o] {
    int v;
    void m() <this,this> {
        { int v = 3; v = 4; };
        v = 5;
    }
}
""")
    this = ast.This()
    assert method_body(p, "C", "m") == ast.Seq(
        ast.Seq(ast.Let("v", ast.IntType(), ast.Const(3)),
                ast.Assign("v", ast.Const(4))),
        ast.FieldSet(this, "v", ast.Const(5)))


def test_one_let_block_ends_with_its_block():
    # a bare Let heading the enclosing chain would scope over the rest of
    # it, so a block of one let keeps a tail of its own
    p = lower("""\
class C[o] {
    int v;
    void m() <this,this> {
        { int v = 3; };
        v = 5;
    }
}
""")
    body = method_body(p, "C", "m")
    assert body == ast.Seq(
        ast.Seq(ast.Let("v", ast.IntType(), ast.Const(3)), ast.Const(None)),
        ast.FieldSet(ast.This(), "v", ast.Const(5)))
    assert method_body(desugar(p), "C", "m") == body


def test_params_shadow_fields():
    p = lower("class C[o] { int v; int m(int v) <this,bot> { return v; } }")
    assert method_body(p, "C", "m") == ast.Var("v")


def test_field_assignment_becomes_fieldset():
    p = lower("class C[o] { int v; void m() <this,this> { v = 4; } }")
    assert method_body(p, "C", "m") == ast.FieldSet(ast.This(), "v",
                                                    ast.Const(4))


def test_compound_assignment_expands():
    p = lower("class C[o] { int v; void m(int x) <this,this> { v += x; } }")
    expected = ast.FieldSet(
        ast.This(), "v",
        ast.PrimOp("+", [ast.FieldGet(ast.This(), "v"), ast.Var("x")]))
    assert method_body(p, "C", "m") == expected


def test_compound_assignment_reads_receiver_once():
    p = lower("""\
class Inner[o] { int v; }
class C[o] {
    Inner<this> box = new Inner<this>();
    void m() <this,this> {
        box.v += 1;
    }
}
""")
    body = method_body(p, "C", "m")
    # receiver is hoisted into a temporary so it is evaluated a single time
    assert isinstance(body, ast.Seq)
    assert isinstance(body.first, ast.Let)
    tmp = body.first.name
    fs = body.second
    assert fs == ast.FieldSet(
        ast.Var(tmp), "v",
        ast.PrimOp("+", [ast.FieldGet(ast.Var(tmp), "v"), ast.Const(1)]))


def test_throw_becomes_require_false():
    p = lower("class C[o] { void m() <this,bot> { throw; } }")
    assert method_body(p, "C", "m") == ast.Require(ast.Const(False))


def test_implicit_call_receiver_is_this():
    p = lower("""\
class C[o] {
    void a() <this,this> { }
    void m() <this,this> { a(); }
}
""")
    assert method_body(p, "C", "m") == ast.Call(ast.This(), "a", [])


def test_deduced_atomic_body_stays_a_plain_call():
    p = lower("""\
class C[o] { void a() <this,this> { } }
main {
    C<top> c = new C<top>();
    atomic c.a();
}
""")
    atomic = p.main.second
    assert isinstance(atomic, ast.Atomic)
    assert atomic.contract is None
    assert atomic.body == ast.Call(ast.Var("c"), "a", [])


def test_empty_block_is_null():
    p = lower("class C[o] { void m() <this,bot> { } }")
    assert method_body(p, "C", "m") == ast.Const(None)


def test_inherited_fields_resolve():
    p = lower("""\
class A[o] { int v; }
class B[o] extends A<o> {
    int m() <this,bot> { return v; }
}
""")
    assert method_body(p, "B", "m") == ast.FieldGet(ast.This(), "v")


def test_idempotent_on_core():
    src = """\
class C[o] {
    int v;
    inv v >= 0;
    void m(int x) <this,this> { v += x; v = v * 2; }
}
main {
    C<top> c = new C<top>();
    atomic c.m(3);
}
"""
    once = lower(src)
    assert desugar(once) == once


class TestLinearWork:
    """Lowering a block does work linear in its length: one scope serves a
    whole body, so no let or nested block copies the names in scope."""

    def test_lets_copy_no_scope(self, monkeypatch):
        n = 300
        src = "main {\n" + "".join(
            f"    int x{i} = {i};\n    fork {{ int y{i} = x{i}; }};\n"
            for i in range(n)) + "}\n"
        surface, _ = parse_program(src)
        copied = Counter()
        init = desugar_module._Scope.__init__

        def counted(self, fields, names):
            copied["scopes"] += 1
            copied["names"] += len(names)
            init(self, fields, names)

        monkeypatch.setattr(desugar_module._Scope, "__init__", counted)
        desugar(surface)
        assert copied["scopes"] >= 1  # the counter really counted
        assert copied["names"] <= n, f"{copied['names']} names copied"


class TestFreshTemporaries:
    SRC = """\
class C[o] {
    int v;
    C<o> nxt;
    void m(int __t0) <this,this> {
        nxt.v += __t0;
        int __t1 = 2;
        nxt.v -= 1;
    }
    void plain(int x) <this,this> { v += x; }
}
"""

    def test_temporaries_avoid_parameters_and_later_locals(self):
        lets, stack = [], [method_body(lower(self.SRC), "C", "m")]
        while stack:
            x = stack.pop()
            if isinstance(x, ast.Let) and x.type is None:
                lets.append(x.name)
            stack.extend(ast.children(x))
        assert sorted(lets) == ["__t2", "__t3"]

    def test_names_collected_only_for_a_body_needing_one(self, monkeypatch):
        walked = []
        collect = desugar_module._collect_names

        def counted(e, acc):
            walked.append(e)
            collect(e, acc)

        monkeypatch.setattr(desugar_module, "_collect_names", counted)
        surface, _ = parse_program(self.SRC)
        desugar(surface)
        assert len(walked) == 1
        [c] = [c for c in surface.classes if c.name == "C"]
        assert walked[0] is c.methods[0].body
