"""Solidity emission: goldens, modifier mapping, rejection cases."""
import pytest

from ovlang import ast
from ovlang.ast import Contract, CtxBot, CtxParam, CtxThis, CtxTop
from ovlang.diagnostics import OvError
from ovlang.parser import parse_program
from ovlang.transpile import (STYLE_OVVALIDITY, STYLE_PRE_POST,
                              _modifier_text, bundle_api, checks_for,
                              transpile_class, transpile_program,
                              write_outputs)

from conftest import CORPUS, GOLDENS

THIS, BOT, TOP = CtxThis(), CtxBot(), CtxTop()


def surface(name: str) -> ast.Program:
    p, diags = parse_program((CORPUS / name).read_text(encoding="utf-8"))
    assert not diags.has_errors()
    return p


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


class TestGoldens:
    def test_account_modifier_style(self):
        files = transpile_program(surface("account.ov"))
        assert files["Account.sol"] == golden("Account.sol")

    def test_storage_pre_post_style(self):
        files = transpile_program(surface("storage.ov"),
                                  STYLE_PRE_POST)
        assert files["Storage_OV.sol"] == golden("Storage_OV.sol")

    @pytest.mark.parametrize("name", ["Ownable.sol", "Validity.sol",
                                      "OVValidity.sol"])
    def test_bundle_files(self, name):
        assert bundle_api()[name] == golden(name)

    def test_bundle_check_messages(self):
        api = bundle_api()
        assert 'require(this.isValid(), "Validity fails pre-check");' \
            in api["Validity.sol"]
        assert '"Validity fails post-check"' in api["Validity.sol"]
        assert '"Validity fails pre-check"' in api["OVValidity.sol"]
        for name in ("preValid", "postValid", "thisThis", "botThis",
                     "thisTop", "botTop"):
            assert f"modifier {name}" in api["OVValidity.sol"], name


class TestModifierMapping:
    @pytest.mark.parametrize("d,mod", [
        (Contract(THIS, THIS), "thisThis"),
        (Contract(THIS, BOT), "thisTop"),
        # V∩I is empty, so commit revalidates nothing: no modifier; the
        # post-only shape exists solely via the constructor emission
        (Contract(BOT, THIS), None),
        (Contract(BOT, BOT), None),
    ])
    def test_table(self, d, mod):
        assert _modifier_text(d, STYLE_OVVALIDITY) == (
            "" if mod is None else f" {mod}()")

    def test_checks_pairs(self):
        assert checks_for(Contract(THIS, THIS)) == (True, True)
        assert checks_for(Contract(THIS, BOT)) == (True, False)
        assert checks_for(Contract(BOT, THIS)) == (False, False)
        assert checks_for(Contract(BOT, BOT)) == (False, False)

    def test_checks_agree_with_runtime(self):
        # cross-module property: the static (pre, post) pair equals what the
        # interpreter actually does for that contract shape on a live object
        import ovlang.ast as a
        from ovlang.runtime import Machine
        from conftest import check_clean

        core = check_clean(
            "class Cell[o] { int v = 1; inv v > 0; "
            "void set(int x) <this,this> { v = x; } }")
        for v_static, i_static in [(THIS, THIS), (THIS, BOT),
                                   (BOT, THIS), (BOT, BOT)]:
            m = Machine(core)
            loc = m.run_expression(
                a.New(a.ClassType("Cell", [a.CtxTop()]), []))
            def to_loc(k):
                return a.CtxLoc(loc.index) if k == THIS else a.CtxBot()

            d = a.Contract(to_loc(v_static), to_loc(i_static))
            body = (a.Call(a.Var("c"), "set", [a.Const(2)])
                    if i_static == THIS else a.Const(True))
            m.sigma.clear()  # cold start so a pre-check is observable
            pre0, post0 = m.pre_checks, m.post_checks
            out = m.run_expression(a.Atomic(d, body),
                                   {"c": loc, "#ctx": {}})
            assert not isinstance(out, a.Expr)
            ran_pre = m.pre_checks - pre0 > 0
            ran_post = m.post_checks - post0 > 0
            assert (ran_pre, ran_post) == checks_for(
                Contract(v_static, i_static)), (str(v_static), str(i_static))

    @pytest.mark.parametrize("d", [
        Contract(TOP, BOT),
        Contract(CtxParam("o"), THIS),
        Contract(THIS, CtxParam("p")),
    ])
    def test_other_contexts_rejected(self, d):
        with pytest.raises(OvError) as exc:
            checks_for(d)
        assert exc.value.code == "E-TRANSPILE-CTX"


class TestEmission:
    def test_view_on_write_free_methods(self):
        text = transpile_program(surface("account.ov"))["Account.sol"]
        assert "function get() thisTop() public view returns (uint256) {" in text
        assert "function deposit(uint256 amount) thisThis() public {" in text

    def test_is_valid_is_unguarded(self):
        text = transpile_program(surface("account.ov"))["Account.sol"]
        assert "function isValid() external view returns (bool) {" in text

    def test_invariants_join_with_and(self):
        src = "class C[o] { int v; inv v >= 0; inv v < 10; void m() <this,this> { v = 1; } }"
        p, _ = parse_program(src)
        text = transpile_class(p.classes[0])
        assert "return v >= 0 && v < 10;" in text

    def test_no_invariant_means_true(self):
        p, _ = parse_program("class C[o] { int v; void m() <this,this> { v = 1; } }")
        assert "return true;" in transpile_class(p.classes[0])

    def test_ctor_requires_validity_on_exit(self):
        src = "class C[o] { int v; inv v > 0; C(int x) { v = x; } }"
        p, _ = parse_program(src)
        text = transpile_class(p.classes[0])
        assert ('require(this.isValid(), "Validity fails post-check");'
                in text)

    def test_bot_this_method_is_unguarded(self):
        p, _ = parse_program(
            "class C[o] { int v; void reset() <bot,this> { v = 0; } }")
        assert "function reset() public {" in transpile_class(p.classes[0])

    def test_pre_post_names_and_imports(self):
        text = transpile_program(surface("storage.ov"),
                                 STYLE_PRE_POST)["Storage_OV.sol"]
        assert "contract Storage_OV is Ownable, Validity {" in text
        assert "import '../Validity.sol';" in text
        assert "preValid() postValid() public" in text

    def test_compound_assignment_preserved(self):
        text = transpile_program(surface("account.ov"))["Account.sol"]
        assert "balance += amount;" in text
        assert "balance -= amount;" in text

    def test_deterministic(self):
        a = transpile_program(surface("account.ov"))
        b = transpile_program(surface("account.ov"))
        assert a == b

    def test_outputs_are_lf_terminated(self):
        for name, text in transpile_program(surface("account.ov")).items():
            assert "\r" not in text, name
            assert text.endswith("\n"), name
            assert text.count("{") == text.count("}"), name


class TestRejections:
    def test_two_owner_params(self):
        p, _ = parse_program("class P[o,p] { int v; void m() <this,this> { v = 1; } }")
        with pytest.raises(OvError) as exc:
            transpile_class(p.classes[0])
        assert exc.value.code == "E-TRANSPILE-CTX"

    def test_inheritance(self):
        p, _ = parse_program("""\
class A[o] { int v; }
class B[o] extends A<o> { int w; }
""")
        with pytest.raises(OvError) as exc:
            transpile_class(p.classes[1])
        assert exc.value.code == "E-TRANSPILE-CTX"

    @pytest.mark.parametrize("body", [
        "emit Ping(1);",
        "atomic <this,bot> { }",
        "valid this;",
    ])
    def test_untranslatable_statements(self, body):
        src = "class C[o] { int v; void m() <this,this> { %s } }" % body
        p, _ = parse_program(src)
        with pytest.raises(OvError) as exc:
            transpile_class(p.classes[0])
        assert exc.value.code == "E-TRANSPILE-EXPR"

    def test_reference_fields_rejected(self):
        src = """\
class Inner[o] { int v; }
class C[o] {
    Inner<this> box;
    void m() <this,this> { box = null; }
}
"""
        p, _ = parse_program(src)
        with pytest.raises(OvError) as exc:
            transpile_class(p.classes[1])
        assert exc.value.code == "E-TRANSPILE-EXPR"

    def test_foreign_field_access_rejected(self):
        src = """\
class C[o] {
    int v;
    int m(C<top> other) <this,bot> { return other.v; }
}
"""
        p, _ = parse_program(src)
        with pytest.raises(OvError) as exc:
            transpile_class(p.classes[0])
        assert exc.value.code == "E-TRANSPILE-EXPR"


class TestWriteOutputs:
    def test_files_round_trip(self, tmp_path):
        files = transpile_program(surface("account.ov"))
        written = write_outputs(files, str(tmp_path / "out"))
        assert len(written) == len(files)
        for path in written:
            name = path.rsplit("/", 1)[1]
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == files[name]
