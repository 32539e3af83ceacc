"""Static checking: contracts, effects, ownership rules, diagnostics."""
import random
import re
from collections import Counter

import pytest

from ovlang import ast, typecheck
from ovlang.ast import Contract, CtxBot, CtxParam, CtxThis, CtxTop
from ovlang.desugar import desugar
from ovlang.diagnostics import OvError
from ovlang.lexer import KEYWORDS
from ovlang.ownership import ContextEnv
from ovlang.parser import parse_program
from ovlang.transpile import transpile_program
from ovlang.typecheck import TypeEnv, check_program, subcontract

from conftest import (CORPUS, NEGATIVE, NEGATIVE_FILES, POSITIVE_FILES,
                      compile_source, expected_code)

THIS, TOP, BOT = CtxThis(), CtxTop(), CtxBot()


def error_codes(src: str) -> set:
    _, diags = compile_source(src)
    return {d.code for d in diags.errors()}


def assert_clean(src: str):
    _, diags = compile_source(src)
    assert not diags.has_errors(), [
        f"{d.code}@{d.line}:{d.col} {d.msg}" for d in diags.errors()]


# -- corpus ------------------------------------------------------------------

@pytest.mark.parametrize("path", POSITIVE_FILES, ids=lambda p: p.name)
def test_positive_corpus_has_zero_errors(path):
    assert_clean(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", NEGATIVE_FILES, ids=lambda p: p.name)
def test_negative_corpus_exact_code(path):
    want = expected_code(path)
    src = path.read_text(encoding="utf-8")
    if want.startswith("E-TRANSPILE"):
        # rejected by the emitter, not the checker
        assert_clean(src)
        surface, _ = parse_program(src)
        with pytest.raises(OvError) as exc:
            transpile_program(surface)
        assert exc.value.code == want
    else:
        assert error_codes(src) == {want}, path.name


# -- subcontract algebra ------------------------------------------------------

class TestSubcontract:
    env = ContextEnv("C", ["o", "p"],
                     [ast.Constraint(CtxParam("p"), False, CtxParam("o"))],
                     has_this=True)

    def cases(self):
        P, O = CtxParam("p"), CtxParam("o")
        yield Contract(BOT, BOT), Contract(TOP, TOP), True
        yield Contract(THIS, THIS), Contract(THIS, THIS), True
        yield Contract(THIS, BOT), Contract(THIS, THIS), True
        yield Contract(THIS, THIS), Contract(THIS, BOT), False
        yield Contract(TOP, BOT), Contract(THIS, BOT), False
        yield Contract(THIS, THIS), Contract(O, O), True      # this <= owner
        yield Contract(P, P), Contract(O, O), True             # constraint
        yield Contract(O, O), Contract(P, P), False
        yield Contract(THIS, P), Contract(O, TOP), True

    def test_componentwise_inside(self):
        for d1, d2, want in self.cases():
            assert subcontract(self.env, d1, d2) is want, (str(d1), str(d2))

    def test_reflexive(self):
        for d1, _d2, _ in self.cases():
            assert subcontract(self.env, d1, d1)


# -- rule-level programs -------------------------------------------------------

BOX = "class Box[o] { int v; inv v >= 0; void fill() <this,this> { v = 1; } }\n"


class TestEffects:
    def test_write_needs_invalidity(self):
        src = "class C[o] { int v; void m() <this,bot> { v = 1; } }"
        assert error_codes(src) == {"E-EFFECT"}

    def test_write_within_invalidity_ok(self):
        assert_clean("class C[o] { int v; void m() <this,this> { v = 1; } }")

    def test_foreign_write_checks_owner_context(self):
        # writing a top-owned parameter's field needs invalidity top
        src = BOX + """\
class C[o] {
    void m(Box<top> b) <this,this> { b.v = 2; }
}
"""
        assert error_codes(src) == {"E-EFFECT"}

    def test_write_through_a_parameter_owned_object(self):
        # b lives in o, outside subtree(this): the write escapes the frame
        # invalidity this, and only the checker can tell before it runs
        src = """\
class Acc[o] {
    int v = 0;
    inv v >= 0;

    void poke(Acc<o> b) <this,this> {
        b.v = -1;
    }
}
"""
        _, diags = compile_source(src)
        assert [(d.code, d.line, d.col) for d in diags.errors()] == [
            ("E-EFFECT", 6, 13)]

    def test_owned_write_inside_this_frame(self):
        src = BOX + """\
class C[o] {
    Box<this> b = new Box<this>();
    void m() <this,this> { b.v = 2; }
}
"""
        assert_clean(src)


class TestCalls:
    def test_call_must_be_subcontract(self):
        src = """\
class C[o] {
    int v;
    void bump() <this,this> { v = v + 1; }
    void m() <this,bot> { bump(); }
}
"""
        assert error_codes(src) == {"E-SUBCONTRACT"}

    def test_mutating_call_needs_owner_origin(self):
        src = BOX + """\
class Holder[o,p] {
    void poke(Box<p> b) <p,p> { b.fill(); }
}
"""
        assert error_codes(src) == {"E-OWNER-CALL"}

    def test_top_owned_receiver_callable_from_main(self):
        src = BOX + """\
main {
    Box<top> b = new Box<top>();
    atomic b.fill();
}
"""
        assert_clean(src)

    def test_override_must_redeclare_contract(self):
        src = """\
class A[o] { void m() <this,this> { } }
class B[o] extends A<o> { void m() <this,bot> { } }
"""
        assert error_codes(src) == {"E-SUBCONTRACT"}

    def test_override_with_same_contract_ok(self):
        src = """\
class A[o] { void m() <this,this> { } }
class B[o] extends A<o> { void m() <this,this> { } }
"""
        assert_clean(src)

    def test_ctor_cannot_call_this_methods(self):
        src = """\
class C[o] {
    int v;
    void init() <this,this> { v = 5; }
    C() { init(); }
}
"""
        assert error_codes(src) == {"E-SUBCONTRACT"}


class TestAtomic:
    def test_bare_atomic_call_gets_callee_contract(self):
        src = BOX + """\
main {
    Box<top> b = new Box<top>();
    atomic b.fill();
}
"""
        core, diags = compile_source(src)
        assert not diags.has_errors()
        atomic = core.main.second
        assert isinstance(atomic, ast.Atomic)
        # marked, not elaborated: the runtime resolves the callee's
        # contract against the receiver object
        assert atomic.deduced
        assert atomic.contract is None
        # the deduced contract is the callee's, <this,this> seen through a
        # top-owned receiver
        _, diags = compile_source(BOX + """\
main {
    Box<top> b = new Box<top>();
    atomic <top,bot> { atomic b.fill(); }
}
""")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-SUBCONTRACT", "atomic contract <top,top> is not a "
             "subcontract of the frame <top,bot>")]

    def test_bare_atomic_needs_deducible_body(self):
        src = "main { atomic { var x = 1; var y = 2; } }"
        assert error_codes(src) == {"E-NEED-CONTRACT"}

    def test_compound_body_reports_need_contract(self):
        src = (NEGATIVE / "need_contract.ov").read_text(encoding="utf-8")
        _, diags = compile_source(src)
        assert [(d.code, d.msg, d.line) for d in diags.errors()] == [
            ("E-NEED-CONTRACT",
             "atomic needs an explicit contract for a compound body", 12)]

    @pytest.mark.parametrize("decl, body, fault", [
        ("int k = 3;", "atomic k.n = 1;", "int is not an object type"),
        ("int k = 3;", "atomic k.get();", "int is not an object type"),
        ("", "atomic null.n = 1;", "field write on null"),
        ("", "atomic null.fill();", "call on null"),
        ("Box<top> b = new Box<top>();", "atomic b.nope();",
         "Box has no method nope"),
    ])
    def test_undeducible_bare_atomic_reports_one_fault(self, decl, body,
                                                       fault):
        # a bare call or field write is never a compound body: the fault
        # that stops deduction is its receiver's or method's, reported once
        _, diags = compile_source(BOX + f"main {{ {decl} {body} }}")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", fault)]

    def test_two_undeducible_atomics_two_diagnostics(self):
        _, diags = compile_source(
            "main { int k = 3; atomic k.n = 1; atomic k.get(); }")
        assert [(d.code, d.msg, d.col) for d in diags.errors()] == [
            ("E-TYPE", "int is not an object type", 30),
            ("E-TYPE", "int is not an object type", 42)]

    # Sub's `extends` passes `this` for Base's p, so through a receiver
    # variable touch's validity is the unknown context ?
    THIS_IN_EXTENDS = """\
class Base[o, p] {
    int v = 0;
    inv v >= 0;

    void touch() <p,this> {
        v = v + 1;
    }
}

class Sub[o] extends Base<o, this> {
    Base<this, this> inner = null;
}

main {
    Sub<top> s = new Sub<top>();
"""

    @pytest.mark.parametrize("body, want", [
        ("atomic s.touch();",
         "cannot deduce a contract for atomic call touch: its contract "
         "<?,top> mentions the unknown context ?"),
        ("atomic s.inner.v = 1;",
         "cannot deduce a contract for atomic write to v: its contract "
         "<bot,?> mentions the unknown context ?"),
    ], ids=["call", "write"])
    def test_deduced_unknown_context_one_diagnostic(self, body, want):
        # no frame contains ?, not even the deduced contract itself: the
        # fault is the deduction, reported once at the atomic
        _, diags = compile_source(self.THIS_IN_EXTENDS + f"    {body}\n}}\n")
        assert [(d.code, d.msg, d.line, d.col) for d in diags] == [
            ("E-NEED-CONTRACT", want, 16, 5)]

    def test_plain_call_with_unknown_context_checks_clean(self):
        assert_clean(self.THIS_IN_EXTENDS + "    s.touch();\n}\n")

    def test_explicit_atomic_subcontract(self):
        src = "class C[o] { void m() <this,this> { atomic <top,this> { } } }"
        assert error_codes(src) == {"E-SUBCONTRACT"}

    def test_fork_inside_atomic_rejected(self):
        src = BOX + """\
main {
    Box<top> b = new Box<top>();
    atomic <top,bot> { fork atomic b.fill(); }
}
"""
        assert error_codes(src) == {"E-FORK-IN-ATOMIC"}

    def test_fork_at_top_level_ok(self):
        src = BOX + """\
main {
    Box<top> b = new Box<top>();
    fork atomic b.fill();
}
"""
        assert_clean(src)

    def test_fork_in_a_method_rejected_whatever_its_contract(self):
        # the parser rewrites an invalidity `top` to `bot`, so only a
        # hand-built tree has a <top,top> method; a method body is never
        # the top level, so its fork is rejected all the same
        src = """\
class Counter[o] {
    int v;
    inv v >= 0;
    void bump() <this,this> { v = v + 1; }
    void go() <top,bot> { fork this.bump(); }
}
"""
        core = desugar(parse_program(src)[0])
        go = core.classes[0].methods[1]
        assert go.name == "go"
        go.contract = Contract(TOP, TOP)
        assert [d.code for d in check_program(core).errors()] == [
            "E-FORK-IN-ATOMIC"]


class TestBindings:
    def test_existential_binding_rejected(self):
        # put's parameter type substitutes to Inner<?> through a non-this
        # receiver; nothing can be passed for it
        src = """\
class Inner[p] { int v; }
class Outer[o] {
    Inner<this> slot;
    void put(Inner<this> x) <this,this> { slot = x; }
}
main {
    Outer<top> out = new Outer<top>();
    Inner<top> mine = new Inner<top>();
    out.put(mine);
}
"""
        assert error_codes(src) == {"E-BIND-EXIST"}

    def test_reading_through_foreign_receiver_ok(self):
        src = """\
class Inner[o] { int v; }
class Outer[o] { int n; }
class C[o] {
    int m(Outer<top> out) <this,bot> { return out.n; }
}
"""
        assert_clean(src)


class TestInvariants:
    def test_escape_through_unowned_reference(self):
        src = """\
class Peer[o] { int v; }
class C[o] {
    Peer<top> peer;
    inv peer.v > 0;
}
"""
        assert error_codes(src) == {"E-INV-ESCAPE"}

    def test_owned_reference_readable(self):
        src = """\
class Peer[o] { int v; }
class C[o] {
    Peer<this> peer = new Peer<this>();
    inv peer != null && peer.v >= 0;
}
"""
        assert_clean(src)

    def test_impure_clause_single_diagnostic(self):
        src = """\
class C[o] {
    int probe() <this,bot> { return 1; }
    inv probe() > 0;
}
"""
        assert error_codes(src) == {"E-INV-IMPURE"}

    def test_clause_must_be_boolean(self):
        src = "class C[o] { int v; inv v + 1; }"
        assert error_codes(src) == {"E-TYPE"}


class TestContextWf:
    def test_new_with_bot_owner(self):
        src = "class Cell[o] { int v; }\nmain { Cell<bot> c = new Cell<bot>(); }"
        assert error_codes(src) == {"E-CTX-WF"}

    def test_context_arity(self):
        src = "class Cell[o] { int v; }\nmain { Cell<top,top> c = new Cell<top,top>(); }"
        assert error_codes(src) == {"E-CTX-ARITY"}

    def test_unknown_parameter_in_contract(self):
        src = "class C[o] { void m() <q,bot> { } }"
        assert error_codes(src) == {"E-CTX-WF"}

    def test_type_mismatch(self):
        assert error_codes("main { int x = true; }") == {"E-TYPE"}

    def test_second_ctor_rejected(self):
        src = "class C[o] { int v; C() { } C(int x) { } }"
        assert "E-TYPE" in error_codes(src)


class TestLetScope:
    def test_binding_ends_with_its_block(self):
        _, diags = compile_source("main { { int a = 1; a = 2; }; int b = a; }")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", "unknown variable a")]

    def test_one_let_block_ends_its_binding(self):
        # a block of one let lowers to a let that must not head the
        # enclosing chain
        _, diags = compile_source("main { { int a = 1; }; int b = a; }")
        assert [(d.code, d.msg, d.col) for d in diags.errors()] == [
            ("E-TYPE", "unknown variable a", 32)]
        _, diags = compile_source(
            "main { int a = 1; { bool a = true; }; int b = a; }")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", "variable a is already declared")]

    def test_redeclaration_hides_until_block_end(self):
        _, diags = compile_source(
            "main { int a = 1; { bool a = true; bool c = a; }; int b = a; }")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", "variable a is already declared")]


    def test_parameters_stay_in_their_method(self):
        _, diags = compile_source("""\
class C[o] {
    int v;
    void a(int x) <this,this> { v = x; }
    void b() <this,this> { int x = 1; v = x; }
    int c() <this,bot> { return x; }
}
""")
        assert [(d.code, d.msg, d.line) for d in diags.errors()] == [
            ("E-TYPE", "unknown variable x", 5)]


class TestOneDiagnosticPerFault:
    """An unknown name has the error type, which binds anywhere and is a
    fine operand, so its fault is reported once, where the name is."""

    @pytest.mark.parametrize("body", [
        "int x = q;", "b = q;", "int x = q + 1;", "bool x = !q;",
        "bool x = q == 1;", "require(q);", "bool x = valid(q);",
        "int x = q.n;", "int x = q.get();", "C<top> c = q;",
        "C<top> c = new C<top>(q);", "int x = -q * 2;",
        "atomic q.get();", "atomic q.n = 1;",
    ])
    def test_unknown_name_is_reported_once(self, body):
        src = ("class C[o] { int n; C(int v) { n = v; }"
               " int get() <this,bot> { return n; } }\n"
               "main { int b = 0; " + body + " }")
        _, diags = compile_source(src)
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", "unknown variable q")]

    def test_deduced_atomic_types_its_parts_once(self):
        # the receiver is typed once, before deduction; the arguments and
        # the written value once, in the body
        src = ("class C[o] { int n; void put(int v) <this,this> { n = v; } }\n"
               "main { atomic q.put(r); atomic q.n = s; }")
        _, diags = compile_source(src)
        assert [d.msg for d in diags.errors()] == [
            "unknown variable q", "unknown variable r",
            "unknown variable q", "unknown variable s"]

    def test_method_returning_an_unknown_name(self):
        _, diags = compile_source(
            "class A[o] {\n  int f() <bot,bot> { return zz; }\n}\n")
        assert [(d.code, d.msg, d.line, d.col) for d in diags.errors()] == [
            ("E-TYPE", "unknown variable zz", 2, 30)]

    def test_other_faults_still_reported(self):
        # the error type does not hide a fault of its own
        _, diags = compile_source("main { int b = true; bool c = 1 + q; }")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", "cannot bind bool where int is expected"),
            ("E-TYPE", "unknown variable q"),
            ("E-TYPE", "cannot bind int where bool is expected")]

    @pytest.mark.parametrize("body, fault", [
        ("int x = true + q;", "operator + needs int operands"),
        ("int x = q - false;", "operator - needs int operands"),
        ("bool x = q < true;", "operator < needs int operands"),
        ("bool x = 3 && q;", "operator && needs bool operands"),
    ])
    def test_other_operand_still_checked(self, body, fault):
        # an error-typed operand meets the operator's requirement; the
        # other operand's own fault is still reported
        _, diags = compile_source("main { " + body + " }")
        assert sorted(d.msg for d in diags.errors()) == sorted(
            ["unknown variable q", fault])

    def test_invariant_of_an_unknown_name(self):
        _, diags = compile_source(
            "class A[o] { int n; inv zz; A() { n = 0; } }\n")
        assert [(d.code, d.msg) for d in diags.errors()] == [
            ("E-TYPE", "unknown variable zz")]

    @pytest.mark.parametrize("src, at", [
        # a local, a parameter and a field of an unknown class
        ("main { Gone<top> u = null; u.get(); int w = u.v; A<top> a = u; }",
         (2, 8)),
        ("class C[o] {\n  void f(Gone<top> g) <bot,bot> { g.get(); "
         "int w = g.v; }\n}", (3, 10)),
        ("class C[o] {\n  Gone<top> g;\n  void f() <bot,bot> { this.g.get(); "
         "int w = this.g.v; A<top> a = this.g; } }", (3, 3)),
    ], ids=["local", "parameter", "field"])
    def test_unknown_class_is_reported_once(self, src, at):
        # every type is checked where it is declared; a receiver of an
        # unknown class is then an error already reported
        _, diags = compile_source("class A[o] { }\n" + src)
        assert [(d.code, d.msg, d.line, d.col) for d in diags.errors()] == [
            ("E-TYPE", "unknown class Gone", *at)]


ARITY = ("class C[o,p] { int v; void set() <this,this> { v = 1; } }\n"
         "main { C<top> x = null; ")
ARITY_FAULT = ("E-CTX-ARITY", "C expects 2 context arguments, got 1", 2, 8)


class TestOneFaultOneDiagnostic:
    """Each fault is reported once, where it is: a member use on a receiver
    of an ill-formed class type, `this` in main, a missing member, a null
    receiver, an unknown class and a compound atomic body all type as the
    error type, which starts no cascade."""

    @pytest.mark.parametrize("src, want", [
        (ARITY + "int y = x.v; }", [ARITY_FAULT]),
        (ARITY + "x.v = 2; }", [ARITY_FAULT]),
        (ARITY + "x.set(); }", [ARITY_FAULT]),
        (ARITY + "atomic x.set(); }", [ARITY_FAULT]),
        ("class A[o,p] { int v; }\nclass B[o] extends A<o> { }\n"
         "main { B<top> b = null; int y = b.v; }",
         [("E-CTX-ARITY", "A expects 2 context arguments, got 1", 2, 20)]),
        ("class P[o] { int v; }\nclass C[o] { P q; inv q.v > 0; }",
         [("E-CTX-ARITY", "P expects 1 context arguments, got 0", 2, 14)]),
        ("main { int y = this.x; }",
         [("E-TYPE", "this is not available in main", 1, 16)]),
        ("class C[o] { int v; }\nmain { C<top> c = null; "
         "int y = c.nope + 1; bool b = c.nope(); int z = null.v; }",
         [("E-TYPE", "C has no field nope", 2, 33),
          ("E-TYPE", "C has no method nope", 2, 54),
          ("E-TYPE", "field access on null", 2, 72)]),
        ("class C[o] { Gone<o> g() <bot,bot> { return 1; } }",
         [("E-TYPE", "unknown class Gone", 1, 14)]),
        ("class C[o] { int v; int h() <this,this> "
         "{ atomic { v = 1; v = 2; } } }",
         [("E-NEED-CONTRACT",
           "atomic needs an explicit contract for a compound body", 1, 43)]),
        ("class C[o] { int v; inv this.q.v > 0; }",
         [("E-TYPE", "C has no field q", 1, 25)]),
        ("class A[o] { int x; }\n"
         "class A[o] { int y; int f() <bot,bot> { return y; } }",
         [("E-TYPE", "duplicate class A", 2, 1)]),
        ("class C[o] {\n  int v;\n"
         "  void m() <this,this> { w += 1; this.w -= 2; }\n}",
         [("E-TYPE", "unknown variable w", 3, 28),
          ("E-TYPE", "C has no field w", 3, 41)]),
    ], ids=["arity-read", "arity-write", "arity-call", "arity-atomic",
            "arity-extends", "arity-invariant-path", "this-in-main",
            "three-faults", "unknown-target", "compound-atomic",
            "invariant-missing-field", "duplicate-class", "compound-assign"])
    def test_exact_diagnostics(self, src, want):
        _, diags = compile_source(src)
        assert [(d.code, d.msg, d.line, d.col) for d in diags] == want


class TestInheritanceCycles:
    """Each class on an inheritance cycle of any length is reported once; a
    class that only extends into a cycle is not."""

    @pytest.mark.parametrize("src, want", [
        ("class C[o] extends C<o> { }", [("C", 1)]),
        ("class A[o] extends B<o> { }\nclass B[o] extends A<o> { }",
         [("A", 1), ("B", 2)]),
        ("class A[o] extends B<o> { int x; }\n"
         "class B[o] extends C<o> { }\n"
         "class C[o] extends A<o> { void m() <this,this> { x = 1; } }\n"
         "class D[o] extends A<o> { }\n"
         "main { D<top> d = new D<top>(); atomic d.m(); }",
         [("A", 1), ("B", 2), ("C", 3)]),
    ], ids=["self", "two", "three-and-a-tail"])
    def test_every_class_on_the_cycle(self, src, want):
        _, diags = compile_source(src)
        assert [(d.code, d.msg, d.line, d.col) for d in diags] == [
            ("E-TYPE", f"inheritance cycle at {name}", line, 1)
            for name, line in want]


REDECLARE_BASE = "class Base[o] { int v = 0; inv v >= 0; }\n"


class TestFieldRedeclaration:
    """A field may not redeclare a field of a superclass, at any distance:
    the two would share the object's one slot of that name."""

    @pytest.mark.parametrize("src, at", [
        (REDECLARE_BASE + "class Sub[o] extends Base<o> { bool v = false; }",
         (2, 32)),
        (REDECLARE_BASE + "class Mid[o] extends Base<o> { int w = 0; }\n"
         "class Low[o] extends Mid<o> { int v = 1; }", (3, 31)),
    ], ids=["parent", "grandparent"])
    def test_reported_at_the_field(self, src, at):
        _, diags = compile_source(src)
        assert [(d.code, d.msg, d.line, d.col) for d in diags] == [
            ("E-TYPE", "field v redeclares Base.v", *at)]

    def test_siblings_may_share_a_new_name(self):
        assert_clean(REDECLARE_BASE
                     + "class A[o] extends Base<o> { int w = 0; }\n"
                     "class B[o] extends Base<o> { bool w = false; }")


class TestCheckerFaultFuzz:
    """Seeded mutations of the corpus that keep it parsing but break it for
    the checker: a context argument too many, an unknown name, a null or
    `this` receiver. The checker reports them and never raises, and no
    diagnostic appears twice."""

    SOURCES = [p.read_text(encoding="utf-8") for p in POSITIVE_FILES]
    NAME = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
    # a class type's or a contract's context list: `, top` goes before `>`
    CTX_LIST = re.compile(r"(?:\b[A-Z][A-Za-z0-9_]*|\))\s*<[\w\s,*]*(>)")
    RECEIVER = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\.")

    def mutations(self, count: int, seed: int):
        rng = random.Random(seed)
        for _ in range(count):
            src = rng.choice(self.SOURCES)
            for _ in range(rng.randint(1, 2)):
                op = rng.randrange(3)
                if op == 0:
                    spans = [(m.start(1), m.start(1))
                             for m in self.CTX_LIST.finditer(src)]
                    piece = ", top"
                elif op == 1:
                    spans = [m.span() for m in self.NAME.finditer(src)
                             if m.group() not in KEYWORDS]
                    piece = rng.choice(["Gone", "q", "nope"])
                else:
                    spans = [m.span(1) for m in self.RECEIVER.finditer(src)]
                    piece = rng.choice(["null", "this"])
                if spans:
                    start, end = rng.choice(spans)
                    src = src[:start] + piece + src[end:]
            yield src

    def test_mutants_check_without_raising_or_repeating(self):
        parsed = 0
        codes = set()
        for src in self.mutations(3000, seed=1):
            try:
                surface, _ = parse_program(src)
            except OvError:
                continue
            parsed += 1
            diags = check_program(desugar(surface))
            keys = [(d.code, d.msg, d.line, d.col) for d in diags]
            assert len(set(keys)) == len(keys), (src, keys)
            codes.update(d.code for d in diags)
        # most mutants parse, and the faults they carry reach the checker
        assert parsed > 1500
        assert {"E-CTX-ARITY", "E-TYPE"} <= codes


class TestLinearWork:
    """Checking a block does work linear in its length: the lets of a chain
    bind in one shared variable map, which no let, atomic or fork copies."""

    def test_lets_copy_no_env(self, monkeypatch):
        n = 300
        surface, _ = parse_program("main {\n" + "".join(
            f"    int x{i} = {i};\n    fork {{ int y{i} = x{i}; }};\n"
            for i in range(n)) + "}\n")
        core = desugar(surface)
        seen = {}  # id -> the map itself, kept alive so ids stay distinct
        copied = Counter()
        init = TypeEnv.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            copied["envs"] += 1
            if id(self.vars) not in seen:
                seen[id(self.vars)] = self.vars
                copied["entries"] += len(self.vars)

        monkeypatch.setattr(TypeEnv, "__init__", counted)
        assert not check_program(core).has_errors()
        assert copied["envs"] >= 1  # the counter really counted
        assert copied["entries"] <= n, f"{copied['entries']} entries copied"


def _quadratic_check_invariant_clause(checker, env, cls, e):
    """The invariant rule as it was before each path prefix was typed once:
    the reference its diagnostics are compared against."""
    from ovlang.ast import THIS as THIS_CTX
    from ovlang.ownership import owner_bound
    diags = checker.diags

    def pure(x):
        if isinstance(x, (ast.Call, ast.New, ast.Assign, ast.FieldSet,
                          ast.Atomic, ast.Fork, ast.Valid, ast.Require,
                          ast.EmitEvent, ast.Let, ast.Seq)):
            diags.add("E-INV-IMPURE",
                      f"invariant clauses cannot contain "
                      f"{type(x).__name__.lower()} expressions", x.line, x.col)
            return
        for sub in ast.children(x):
            pure(sub)

    def owned_path(x):
        if isinstance(x, ast.FieldGet):
            recv = x.receiver
            if isinstance(recv, ast.This):
                return
            if isinstance(recv, ast.FieldGet):
                owned_path(recv)
                rt = checker.type_expr(env, recv)
                if (not isinstance(rt, ast.ClassType)
                        or checker.table.of_type(rt) is None
                        or owner_bound(rt) == THIS_CTX):
                    return
                diags.add("E-INV-ESCAPE",
                          f"invariant reads {x.field_name} through a field "
                          f"not owned by this", x.line, x.col)
                return
            diags.add("E-INV-ESCAPE",
                      "invariant field paths must start at this",
                      x.line, x.col)
            return
        for sub in ast.children(x):
            owned_path(sub)

    before = len(diags)
    pure(e)
    if len(diags) != before:
        return
    t = checker.type_expr(env, e)
    if len(diags) == before:
        owned_path(e)
    if not isinstance(t, (ast.BoolType, ast.ErrorType)):
        diags.add("E-TYPE", "invariant clause must be boolean", e.line, e.col)


def path_source(depth: int, owner: str = "this") -> str:
    """A class whose invariant reads a field through a path of `depth`
    field reads, each step through a field owned by `owner`."""
    return (f"class Node[o] {{\n    Node<{owner}> a = null;\n    int v = 0;\n"
            f"    inv this{'.a' * (depth - 1)}.v >= 0;\n}}\n")


class TestInvariantPaths:
    """The path rule of invariant clauses types each prefix of a field path
    once, from its receiver's type, and reports what it always reported."""

    def test_type_calls_grow_linearly_with_depth(self, monkeypatch):
        calls = Counter()
        type_expr = typecheck.Checker.type_expr

        def counted(checker, env, e):
            calls["type_expr"] += 1
            return type_expr(checker, env, e)

        monkeypatch.setattr(typecheck.Checker, "type_expr", counted)
        counts = {}
        for depth in (2, 4, 8, 16):
            calls.clear()
            check_program(desugar(parse_program(path_source(depth))[0]))
            counts[depth] = calls["type_expr"]
        # one more step costs a constant number of calls (before, when
        # every prefix was typed again: 9, 18, 48 and 156 calls)
        steps = [counts[2 * d] - counts[d] for d in (2, 4, 8)]
        assert steps[1] == 2 * steps[0] and steps[2] == 2 * steps[1], counts
        assert counts[16] <= 2 * 16, counts

    def test_diagnostics_match_the_quadratic_rule(self, monkeypatch):
        sources = [p.read_text(encoding="utf-8")
                   for p in sorted(CORPUS.glob("**/*.ov"))]
        sources += [path_source(d, owner) for d in (1, 2, 3, 5)
                    for owner in ("this", "o", "top")]
        sources += list(TestCheckerFaultFuzz().mutations(3000, seed=1))
        compared = 0
        for src in sources:
            try:
                surface, _ = parse_program(src)
            except OvError:
                continue
            got = check_program(desugar(surface))
            with monkeypatch.context() as m:
                m.setattr(typecheck, "check_invariant_clause",
                          _quadratic_check_invariant_clause)
                want = check_program(desugar(parse_program(src)[0]))
            assert [(d.code, d.msg, d.line, d.col) for d in got] == [
                (d.code, d.msg, d.line, d.col) for d in want], src
            compared += 1
        assert compared > 1500
