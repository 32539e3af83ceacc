"""Records are hand-written slotted classes (`ast.Record`): they must keep
what `@dataclass` gave them (repr, equality, hashability, pickling), and
a fresh `ov` must load no module that only generated code, hashing or
JSON output needs."""
import json
import os
import pickle
import subprocess
import sys

import pytest

from ovlang import ast, blocksched, lexer, regions
from ovlang.blocksched import MinedBlock, parse_block
from ovlang.desugar import desugar
from ovlang.diagnostics import Diagnostic, Diagnostics, OvError
from ovlang.parser import parse_program
from ovlang.runtime import FailureValue, Loc

from conftest import CORPUS, ROOT, check_clean

# The same check runs on the Python 3.10 floor in CI (.github/workflows/
# tier1.yml, smoke-floor): keep the two in step. Importing every module of
# the package must add none of these modules to a bare interpreter's.
IMPORT_CHECK = """
import sys
before = set(sys.modules)
import ovlang.cli, ovlang.closures, ovlang.regions
added = ({"dataclasses", "inspect", "hashlib", "json", "string"}
         & (set(sys.modules) - before))
sys.exit(f"importing ovlang loads {sorted(added)}" if added else None)
"""


def test_a_fresh_ov_loads_no_code_generation_or_hashing():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _records():
    """Every record class of the package."""
    found, todo = [], [ast.Record]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in found if c.__module__.startswith("ovlang.")]


def test_every_record_is_slotted():
    records = _records()
    assert {"Node", "Diagnostic", "Diagnostics", "TypeEnv", "Tokens", "Loc",
            "FailureValue", "FinalReport", "Sct", "Block", "MinedBlock",
            "ValidationReport"} <= {c.__name__ for c in records}
    assert len([c for c in records if c.__module__ == "ovlang.ast"]) == 46
    for cls in records:
        assert cls.__dictoffset__ == 0 and cls.__weakrefoffset__ == 0, cls


def _core_tree():
    return ast.Seq(
        ast.Let("x", ast.IntType("uint"),
                ast.Const(10 ** 30, "1e30", line=2, col=9), line=2, col=1),
        ast.Atomic(ast.Contract(ast.THIS, ast.CtxParam("o")),
                   ast.FieldSet(ast.This(), "f",
                                ast.Var("x", line=3, col=20), line=3, col=5),
                   deduced=True, line=3, col=5),
        line=2, col=1)


def test_repr_is_the_dataclass_repr():
    assert repr(_core_tree()) == (
        "Seq(line=2, col=1, first=Let(line=2, col=1, name='x', "
        "type=IntType(line=0, col=0, alias='uint'), init=Const(line=2, "
        "col=9, value=1000000000000000000000000000000, lexeme='1e30')), "
        "second=Atomic(line=3, col=5, contract=Contract(line=0, col=0, "
        "validity=CtxThis(line=0, col=0), invalidity=CtxParam(line=0, "
        "col=0, name='o')), body=FieldSet(line=3, col=5, "
        "receiver=This(line=0, col=0), field_name='f', value=Var(line=3, "
        "col=20, name='x')), deduced=True))")
    assert repr(Loc(3)) == "l3"
    assert repr(FailureValue("R-NULL", "null dereference")) == \
        "failure(R-NULL)"
    mined = MinedBlock([(0, 1)], ["committed", "post-fail"], "ab", 2, 1)
    assert repr(mined) == (
        "MinedBlock(edges=[(0, 1)], status=['committed', 'post-fail'], "
        "final_state_hash='ab', pre_checks=2, post_checks=1)")
    diags = Diagnostics()
    diags.add("E-TYPE", "bad", 1, 2)
    assert repr(diags) == \
        "Diagnostics(items=[Diagnostic(code='E-TYPE', msg='bad', line=1, col=2)])"


def test_report_json_keeps_the_field_order():
    mined = MinedBlock([(0, 1)], ["committed"], "ab", 2, 1)
    assert json.dumps(mined.to_json()) == (
        '{"edges": [[0, 1]], "status": ["committed"], '
        '"final_state_hash": "ab", "pre_checks": 2, "post_checks": 1}')
    report = blocksched.ValidationReport(True, "ab", ["committed"], [(0, 1)],
                                         True, False)
    assert list(report.to_json()) == [
        "accepted", "final_state_hash", "status", "edges", "hash_matches",
        "statuses_match"]
    assert report.to_json()["edges"] == [[0, 1]]


def test_equality_ignores_positions_alias_deduced_and_added():
    moved = _core_tree()
    for node in (moved, moved.first, moved.second, moved.second.body):
        node.line, node.col = 40, 1
    moved.first.type.alias = "int"
    moved.second.deduced = False
    assert moved == _core_tree()
    assert ast.IntType("uint256") == ast.INT
    one, two = Diagnostics(), Diagnostics()
    one.add("E-TYPE", "bad", 1, 2)
    two.items.append(Diagnostic("E-TYPE", "bad", 1, 2))
    assert one == two and one._added != two._added
    # every other field counts, and so does the class
    moved.first.name = "y"
    assert moved != _core_tree()
    assert ast.Const(1, "1") != ast.Const(1)
    assert ast.CtxTop() != ast.CtxBot() and ast.CtxTop() == ast.TOP
    assert Diagnostic("E-TYPE", "bad", 1, 2) != Diagnostic("E-TYPE", "bad", 1, 3)

    class Sub(ast.Var):
        __slots__ = ()

    assert Sub("x") != ast.Var("x") and Sub("x") == Sub("x")


def test_nodes_are_unhashable_and_values_hash_by_value():
    for cls in _records():
        if issubclass(cls, ast.Node) or cls in (Diagnostics, Diagnostic):
            assert cls.__hash__ is None, cls
    with pytest.raises(TypeError):
        hash(ast.Var("x"))
    assert Loc(4) == Loc(4) and Loc(4) != Loc(5) and Loc(4) != 4
    assert len({Loc(4), Loc(4), Loc(5)}) == 2
    assert hash(Loc(4)) == hash((4,))
    fail = FailureValue("R-NULL", "null dereference")
    assert fail == FailureValue("R-NULL", "null dereference")
    assert hash(fail) == hash(("R-NULL", "null dereference"))
    assert fail != FailureValue("R-NULL", "other")
    with pytest.raises(AttributeError):
        Loc(4).index = 5
    with pytest.raises(AttributeError):
        del fail.code


def _round_trip(x):
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is type(x) and back == x and repr(back) == repr(x)
    return back


@pytest.mark.parametrize("path", sorted(CORPUS.glob("**/*.ov")),
                         ids=lambda p: p.relative_to(CORPUS).as_posix())
def test_corpus_trees_pickle(path):
    try:
        surface, _diags = parse_program(path.read_text(encoding="utf-8"))
    except OvError:
        return  # nothing parsed
    _round_trip(surface)
    _round_trip(desugar(surface))


def test_blocks_and_shard_runs_pickle():
    program = check_clean((CORPUS / "bank.ov").read_text(encoding="utf-8"))
    raw = json.loads((CORPUS / "blocks" / "transfers.json").read_text(
        encoding="utf-8"))
    block = _round_trip(parse_block(raw))
    creators = blocksched._creators(block, range(len(block.deploys)),
                                    range(len(block.txns)))
    shard = regions._run_shard(program, block, creators)
    assert shard is not None and shard.status
    _round_trip(shard)
    for value in (Loc(7), FailureValue("R-NULL", "null dereference"),
                  lexer.tokenize("class A {}"),
                  MinedBlock([(0, 1)], ["committed"], "ab", 2, 1),
                  blocksched.Sct("m", [1], 3, ast.CtxTop, 7, 2)):
        _round_trip(value)

