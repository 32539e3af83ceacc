"""Compiled bodies against the small-step machine, the reference: on every
block, the same statuses, edges, state hash, counters and steps, with no
run sent back to the small-step machine; and where a run is sent back
(fuel, nesting, recursion), the same result still."""
import contextlib
import gc
import json
import sys
import threading
import time
import weakref
from collections import Counter

import pytest

from ovlang import ast, blocksched, closures, runtime
from ovlang.blocksched import (_bind_scts, _creators, _deploy, _execute,
                               _prepare, build_conflict_graph, mine_block,
                               parse_block, validate_block)
from ovlang.desugar import desugar
from ovlang.diagnostics import OvError
from ovlang.parser import parse_program
from ovlang.runtime import Code, Machine
from ovlang.typecheck import ClassInfo, check_program

from conftest import CORPUS, bench_module, check_clean
from test_acceptance import (ACCOUNT_SRC, block_program,  # noqa: F401
                             fuzzed_blocks)
from test_blocksched import (PROGRAM, _naive_replay, block_of,
                             count_inits, outputs, split_run)


@contextlib.contextmanager
def small_step_only():
    """Every deploy and transaction reduced step by step, as if each
    compiled run had stopped at once: every list passes the compiled
    evaluator's one guard, `Compiled.run`, which hands back each unit it
    is given at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closures.Compiled, "run",
                   lambda self, m, units, fuel, start: [])
        yield


# the kind of each unit of a list, by its entry node
KINDS = {ast.New: "deploy", ast.Atomic: "txn"}


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the units of the guard's lists that the compiled evaluator
    finishes ("done") and hands back ("back"), and those of each kind:
    deploys and transactions."""
    count = Counter()
    run = closures.Compiled.run

    def counted(self, m, units, fuel, start):
        done = run(self, m, units, fuel, start)
        ran = units[start:start + len(done) + 1]  # and the one handed back
        count["done"] += len(done)
        count["back"] += len(ran) - len(done)
        for node, _arg, _creator in ran:
            count[KINDS[type(node)]] += 1
        return done
    monkeypatch.setattr(closures.Compiled, "run", counted)
    return count


def record(program, block) -> tuple:
    """One process: statuses, edges, state hash, the counters, steps,
    failures and events; or the error the block raises."""
    try:
        machine, scts = _prepare(program, block)
        edges = build_conflict_graph(scts, machine.tree)
        status = _execute(machine, scts, range(len(scts)))
    except (ValueError, OvError) as err:
        return type(err).__name__, str(err)
    return (status, edges, machine.state_hash(), machine.pre_checks,
            machine.post_checks, machine.invariant_evals, machine.steps,
            machine.failures, machine.events)


def mined(run, program, block):
    """The outputs of run(program, block), a MinedBlock or None, or the
    error it raises."""
    try:
        got = run(program, block)
    except (ValueError, OvError) as err:
        return type(err).__name__, str(err)
    return None if got is None else outputs(got)


def assert_same(program, blocks, split=False) -> None:
    """Each block, compiled, gives the reference's record, and split into
    regions, the reference's mined outputs."""
    got = [record(program, b) for b in blocks]
    splits = [mined(split_run, program, b) if split else None
              for b in blocks]
    with small_step_only():
        want = [record(program, b) for b in blocks]
        whole = [mined(mine_block, program, b) for b in blocks]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, k
    for k, (s, w) in enumerate(zip(splits, whole)):
        assert s is None or s == w, k


def test_corpus_blocks(fallbacks):
    blocks = [parse_block(json.loads(p.read_text(encoding="utf-8")))
              for p in sorted((CORPUS / "blocks").glob("*.json"))]
    assert_same(PROGRAM, blocks, split=True)
    assert fallbacks["done"] > 0 and fallbacks["back"] == 0
    # every deploy and transaction of the compiled record passed the guard
    assert fallbacks["deploy"] >= sum(len(b.deploys) for b in blocks)
    assert fallbacks["txn"] >= sum(len(b.txns) for b in blocks)


def test_acceptance_fuzz(block_program, fuzzed_blocks,  # noqa: F811
                         fallbacks):
    assert_same(block_program, fuzzed_blocks, split=True)
    assert fallbacks["done"] > 4000 and fallbacks["back"] == 0


@pytest.mark.parametrize("workload", ["custody_blocks", "bank_blocks"])
def test_seed_one_workload_blocks(workload, fallbacks):
    raw = getattr(bench_module("workloads"), workload)(1)
    assert len(raw) in (48, 12)
    assert_same(PROGRAM, [parse_block(b) for b in raw], split=True)
    assert fallbacks["back"] == 0
    assert fallbacks["deploy"] >= sum(len(b["deploy"]) for b in raw)
    assert fallbacks["txn"] >= sum(len(b["txns"]) for b in raw)


def test_bound_work_builds_no_contract(monkeypatch):
    # the compiled evaluator is handed a deploy's class and arguments and a
    # bound transaction, binding reads each method's contract straight to
    # tree nodes, and frames and the conflict graph hold nodes: on the
    # first seed-1 bank block, deploying, binding, the graph and executing
    # build no Contract and no CtxLoc, and no object keeps a contract
    assert "contracts" not in runtime.ObjectRec.__slots__
    block = parse_block(bench_module("workloads").bank_blocks(1)[0])
    record(PROGRAM, block)  # makes the program's code and entry nodes
    made = count_inits(monkeypatch, ast.Contract, ast.CtxLoc)
    ast.Contract(ast.CtxLoc(0))
    assert made == {"Contract": 1, "CtxLoc": 1}  # the counter counts
    made.clear()
    machine, scts = _prepare(PROGRAM, block)
    assert len(machine.heap) == len(scts) == 500
    edges = build_conflict_graph(scts, machine.tree)
    status = _execute(machine, scts, range(len(scts)))
    assert made == {} and edges and "committed" in status
    assert not hasattr(machine.heap[0], "contracts")


def test_deduced_replays_and_naive_counts(fallbacks):
    # bench's naive_lead replays blocks as deduced atomics on a naive
    # machine: the counts are the reference's
    raw = bench_module("workloads").custody_blocks(1)[:8]
    got = [_naive_replay(b) for b in raw]
    with small_step_only():
        want = [_naive_replay(b) for b in raw]
    assert got == want
    assert fallbacks["back"] == 0


# every compile rule, and each way a strict position meets a failure, a
# null receiver or an operator error, on a class built in two parts
LAB_SRC = """\
class Cell[o] {
    int v = 0;
    inv v >= 0;

    void set(int x) <this,this> {
        v = x;
    }

    int get() <this,bot> {
        return v;
    }
}

class Base[o] {
    int b = 1;
    Cell<this> bc = new Cell<this>();
}

class Lab[o] extends Base<o> {
    int n = 0;
    Cell<this> c = new Cell<this>();
    Cell<this> none;
    inv n >= 0;

    Lab(int k) {
        n = k;
    }

    void nullRead() <this,this> {
        Cell<this> z = null;
        n = z.v;
    }

    void nullWrite() <this,this> {
        Cell<this> z = null;
        z.v = 1;
    }

    void nullWriteField() <this,this> {
        none.v = n;
    }

    void nullCall() <this,this> {
        Cell<this> z = null;
        z.set(1);
    }

    void nullCallField() <this,this> {
        none.set(n);
    }

    void div(int x) <this,this> {
        n = 10 / x;
    }

    void neg(int x) <this,this> {
        n = -x;
    }

    bool logic(int x) <this,bot> {
        return x > 1 && true;
    }

    bool logic2(int x) <this,bot> {
        return !(x > 1) || false;
    }

    void inner(int x) <this,this> {
        atomic c.set(x);
        n = 5;
    }

    void innerWrite(int x) <this,this> {
        atomic c.v = x;
        n = n + 1;
    }

    int failing() <this,bot> {
        atomic <this,bot> {
            require(false);
        }
        return 1;
    }

    void bindFail() <this,this> {
        int y = failing();
        n = y;
    }

    void assignFail() <this,this> {
        int y = 0;
        y = failing();
        n = y;
    }

    void passFail() <this,this> {
        failing();
        n = 3;
    }

    void emitIt(int x) <this,this> {
        emit Ev(x, n);
        n = n - x;
    }

    bool validNull() <this,bot> {
        Cell<this> z = null;
        return valid z;
    }

    bool validLive() <this,bot> {
        return valid c;
    }

    void fresh(int x) <this,this> {
        Cell<this> d = new Cell<this>();
        d.set(x);
    }

    void dangling() <this,this> {
        Cell<this> d = null;
        atomic <this,this> {
            d = new Cell<this>();
            require(false);
        }
        d.set(1);
    }

    void danglingAtomic() <this,this> {
        Cell<this> d = null;
        atomic <this,this> {
            d = new Cell<this>();
            require(false);
        }
        atomic d.set(1);
    }

    void breakThenCall() <this,this> {
        n = 0 - 1;
        atomic touch();
        n = 1;
    }

    void touch() <this,this> {
        n = n + 1;
    }

    void nullAtomic() <this,this> {
        Cell<this> z = null;
        atomic z.set(1);
    }

    void nullAtomicWrite() <this,this> {
        Cell<this> z = null;
        atomic z.v = 1;
    }

    Cell<this> failingCell() <this,bot> {
        atomic <this,bot> {
            require(false);
        }
        return c;
    }

    bool failingBool() <this,bot> {
        atomic <this,bot> {
            require(false);
        }
        return true;
    }

    void opFail() <this,this> {
        n = failing() + 1;
    }

    void unaryFail() <this,this> {
        n = -failing();
    }

    void argFail() <this,this> {
        c.set(failing());
    }

    void recvFail() <this,this> {
        failingCell().set(1);
    }

    void fieldFail() <this,this> {
        n = failingCell().v;
    }

    void writeFail() <this,this> {
        failingCell().v = 1;
    }

    bool validFail() <this,bot> {
        return valid failingCell();
    }

    void requireFail() <this,this> {
        require(failingBool());
    }

    bool andFail() <this,bot> {
        return failingBool() && true;
    }

    void emitFail() <this,this> {
        emit Ev(failing());
    }

    void atomicFail() <this,this> {
        atomic failingCell().set(1);
    }

    void wrap(int x) <this,this> {
        atomic <this,this> {
            fresh(x);
            emit Wrapped(x);
        }
        n = n + 2;
    }
}
"""

LAB_CALLS = [
    ("nullRead", []), ("nullWrite", []), ("nullWriteField", []),
    ("nullCall", []), ("nullCallField", []), ("div", [0]), ("div", [3]),
    ("neg", [2]), ("neg", [0]), ("logic", [3]), ("logic", [0]),
    ("logic2", [3]), ("logic2", [0]), ("inner", [-1]), ("inner", [4]),
    ("innerWrite", [-2]), ("innerWrite", [2]), ("bindFail", []),
    ("assignFail", []), ("passFail", []), ("emitIt", [1]),
    ("emitIt", [100]), ("validNull", []), ("validLive", []),
    ("fresh", [1]), ("fresh", [-1]), ("dangling", []),
    ("danglingAtomic", []), ("breakThenCall", []), ("touch", []),
    ("nullAtomic", []), ("nullAtomicWrite", []), ("wrap", [1]),
    ("wrap", [-1]), ("opFail", []), ("unaryFail", []), ("argFail", []),
    ("recvFail", []), ("fieldFail", []), ("writeFail", []),
    ("validFail", []), ("requireFail", []), ("andFail", []),
    ("emitFail", []), ("atomicFail", []),
]


def test_every_rule_and_fault(fallbacks):
    program = check_clean(LAB_SRC)
    lab = block_of([{"id": "l", "class": "Lab", "args": [2]},
                    {"id": "m", "class": "Lab", "args": [50]}],
                   [{"target": t, "method": m, "args": a}
                    for m, a in LAB_CALLS for t in ("l", "m")])
    refused = block_of([{"id": "l", "class": "Lab", "args": [-1]}], [])
    assert_same(program, [lab, refused], split=True)
    assert fallbacks["back"] == 0
    status = record(program, lab)[0]
    assert {s.split(":")[-1] for s in status} == {
        "committed", "R-NULL", "R-DIV0", "R-POST-FAIL", "R-REQUIRE"}
    assert record(program, refused)[0] == "ValueError"


# -- runs the compiled evaluator hands back -----------------------------------

FUEL_SRC = ACCOUNT_SRC + """\
class Spin[o] {
    int n = 0;

    bool spin() <this,bot> {
        return spin();
    }
}

class Deep[o] {
    int n = 0;

    bool down(int k) <this,bot> {
        return k <= 0 || down(k - 1);
    }
}

class Guard[o] {
    int n = 0;
    inv n >= 0;

    void check(int x) <this,this> {
        n += 1;
        require(x > 5);
    }
}
"""

FUEL_BLOCK = {
    "deploy": [{"id": "a", "class": "Account", "args": [10]},
               {"id": "s", "class": "Spin"},
               {"id": "d", "class": "Deep"},
               {"id": "g", "class": "Guard"}],
    "txns": [{"target": "a", "method": "deposit", "args": [5]},
             {"target": "d", "method": "down", "args": [150]},
             {"target": "s", "method": "spin", "args": []},
             {"target": "a", "method": "withdraw", "args": [100]},
             {"target": "g", "method": "check", "args": [1]},
             {"target": "g", "method": "check", "args": [9]},
             {"target": "a", "method": "balance", "args": []}],
}


def test_fuel_sweep(monkeypatch):
    # every boundary a transaction can meet its fuel at: R-GAS at the
    # reference's step, whatever the fuel
    program = check_clean(FUEL_SRC)
    block = parse_block(FUEL_BLOCK)
    statuses = set()
    for fuel in [*range(1, 300), 1_000, 5_000, 100_000]:
        monkeypatch.setattr(blocksched, "TXN_STEPS", fuel)
        got = record(program, block)
        with small_step_only():
            assert got == record(program, block), fuel
        statuses.add(tuple(got[0]))
    assert ("committed", "committed", "aborted:R-GAS", "aborted:R-POST-FAIL",
            "aborted:R-REQUIRE", "committed", "committed") in statuses
    assert all(s[2] == "aborted:R-GAS" for s in statuses)


def test_recursion_past_the_nesting_limit(fallbacks):
    program = check_clean(FUEL_SRC)
    block = parse_block({"deploy": [{"id": "d", "class": "Deep"}],
                         "txns": [{"target": "d", "method": "down",
                                   "args": [closures.MAX_NESTING * 2]}]})
    got = record(program, block)
    assert got[0] == ["committed"]
    # the call went to the small-step machine, the deploy did not
    assert fallbacks["back"] == 1 and fallbacks["txn"] == 1
    with small_step_only():
        assert record(program, block) == got


# a constructor that recurses as deep as it is told
TALL_SRC = FUEL_SRC + """\
class Tall[o] {
    bool ok = false;

    Tall(int k) {
        ok = down(k);
    }

    bool down(int k) <bot,bot> {
        return k <= 0 || down(k - 1);
    }
}
"""


def _units_seen(monkeypatch) -> list:
    """(kind, creator, whether it ran compiled) of each unit the guard
    runs or hands back, in order."""
    seen = []
    run = closures.Compiled.run

    def spy(self, m, units, fuel, start):
        done = run(self, m, units, fuel, start)
        for k, (node, _arg, creator) in enumerate(
                units[start:start + len(done) + 1]):
            seen.append((KINDS[type(node)], creator, k < len(done)))
        return done
    monkeypatch.setattr(closures.Compiled, "run", spy)
    return seen


def test_hand_back_in_the_middle_of_a_list(monkeypatch):
    # the middle deploy and the middle transaction recurse past the
    # nesting limit: each goes to the small-step machine alone, and the
    # list goes on compiled from the unit after it
    program = check_clean(TALL_SRC)
    deep = closures.MAX_NESTING * 2
    block = parse_block({
        "deploy": [{"id": "a", "class": "Account", "args": [10]},
                   {"id": "t", "class": "Tall", "args": [deep]},
                   {"id": "d", "class": "Deep"},
                   {"id": "b", "class": "Account", "args": [20]}],
        "txns": [{"target": "a", "method": "deposit", "args": [5]},
                 {"target": "d", "method": "down", "args": [deep]},
                 {"target": "b", "method": "withdraw", "args": [5]},
                 {"target": "a", "method": "balance", "args": []}]})
    assert_same(program, [block], split=True)
    seen = _units_seen(monkeypatch)
    got = record(program, block)
    assert got[0] == ["committed"] * 4
    assert seen == [("deploy", 0, True), ("deploy", 1, False),
                    ("deploy", 2, True), ("deploy", 3, True),
                    ("txn", 4, True), ("txn", 5, False),
                    ("txn", 6, True), ("txn", 7, True)]


def test_first_deploy_fault_in_index_order(monkeypatch):
    # deploy a1 fails as it runs and a2's argument is of another type:
    # a1's fault is the block's, on both evaluators
    program = check_clean(TALL_SRC)

    def account(i: int, amount) -> dict:
        return {"id": f"a{i}", "class": "Account", "args": [amount]}
    block = parse_block({"deploy": [account(0, 5), account(1, -1),
                                    account(2, None)], "txns": []})
    assert record(program, block) == (
        "ValueError", "deploy a1 failed: Validity fails post-check")
    assert_same(program, [block], split=True)
    # a deploy handed back after one that failed is never reduced
    block = parse_block({"deploy": [account(0, -1), {
        "id": "t", "class": "Tall", "args": [closures.MAX_NESTING * 2]}],
        "txns": []})
    seen = _units_seen(monkeypatch)
    reduced = []
    reduce = Machine.run_expression
    monkeypatch.setattr(Machine, "run_expression",
                        lambda self, *a: reduced.append(1) or reduce(self, *a))
    assert record(program, block) == (
        "ValueError", "deploy a0 failed: Validity fails post-check")
    assert seen == [("deploy", 0, True), ("deploy", 1, False)]
    assert reduced == []


def _nested_program(depth: int):
    """A class whose method body nests `depth` parenthesised sums, or
    None when the front end refuses it."""
    expr = "1"
    for _ in range(depth):
        expr = f"(1 + {expr})"
    src = ("class Nest[o] {\n    int v;\n\n    int f() <this,bot> {\n"
           f"        return {expr};\n    }}\n}}\n")
    try:
        surface, diags = parse_program(src)
        core = desugar(surface)
        diags.extend(check_program(core))
    except (RecursionError, OvError):
        return None
    return None if diags.has_errors() else core


def test_body_nested_as_deep_as_the_front_end_accepts(fallbacks):
    lo, hi = 1, 4000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _nested_program(mid) is None:
            hi = mid - 1
        else:
            lo = mid
    assert lo > closures.MAX_NESTING // 2
    block = parse_block({"deploy": [{"id": "n", "class": "Nest"}],
                         "txns": [{"target": "n", "method": "f",
                                   "args": []}]})
    # the deepest, and one whose closures fit under the nesting limit
    for depth in sorted({lo, min(lo, closures.MAX_NESTING - 8)}):
        program = _nested_program(depth)
        got = record(program, block)
        assert got[0] == ["committed"]
        with small_step_only():
            assert record(program, block) == got


def test_same_class_name_in_another_program(monkeypatch):
    # a compiled body is kept per program: a class of one program that
    # shares its name, not its arity, with one of a block run earlier
    first = check_clean("""\
class Box[o] {
    int v;

    Box(int x) {
        v = x;
    }

    void put(int x) <this,this> {
        v = x;
    }
}
""")
    second = check_clean("""\
class Box[o] {
    int v;

    Box() {
        v = 7;
    }

    void put(int x, int y) <this,this> {
        v = x + y;
    }
}
""")
    one = block_of([{"id": "b", "class": "Box", "args": [3]}],
                   [{"target": "b", "method": "put", "args": [4]}])
    two = block_of([{"id": "b", "class": "Box", "args": []}],
                   [{"target": "b", "method": "put", "args": [1, 2]}])
    runs = [(first, one), (second, two), (first, one)]
    got = [record(*run) for run in runs]
    with small_step_only():
        assert got == [record(*run) for run in runs]
    assert got[1][0] == ["committed"]
    # the programs in turn, each block as a fresh process runs it: with
    # no code kept from the block before
    fresh = []
    for run in runs:
        monkeypatch.setattr(blocksched, "_CODE", None)
        fresh.append(record(*run))
    assert got == fresh


def test_failure_outside_every_transaction(fallbacks):
    # a deduced atomic call on null fails before its transaction begins:
    # the thread ends in that step. `run_expression` is the small-step
    # machine alone, so no compiled run is made
    call = ast.Atomic(None, ast.Call(ast.Var("x"), "deposit",
                                     [ast.Const(1)]), deduced=True)
    m = Machine(PROGRAM)
    out = m.run_expression(call, {"x": None, "#ctx": {}})
    assert out.code == "R-NULL" and m.failures[0]["thread"] == -1
    assert (m.steps, m.pre_checks) == (3, 0)
    assert fallbacks == {}


def test_non_entries_run_step_by_step(fallbacks):
    # a `new` of a non-plain argument, which may commit outside one
    # transaction, runs on the small-step machine, as every
    # `run_expression` does
    m = Machine(PROGRAM)
    loc = m.run_expression(ast.New(
        ast.ClassType("Account", [ast.CtxTop()]),
        [ast.PrimOp("+", [ast.Const(1), ast.Const(2)])]))
    assert m.heap[loc.index].fields["amount"] == 3
    assert fallbacks == {}


class TestSharedCode:
    """One program's code is compiled once and shared by every machine
    that runs it: the miner, the validator, each shard and each block."""

    @pytest.fixture
    def custody(self):
        raw = bench_module("workloads").custody_blocks(1)
        assert len(raw) == 48
        return [parse_block(b) for b in raw]

    def test_custody_blocks_compile_once(self, custody, fresh_code,
                                         monkeypatch):
        bodies, walks = Counter(), Counter()
        body, build = closures._body, ClassInfo.__init__

        def counted_body(cx, e):
            bodies[(id(cx), id(e))] += 1
            return body(cx, e)

        def counted_build(info, table, decl):
            walks[(id(table), decl.name)] += 1
            build(info, table, decl)

        monkeypatch.setattr(closures, "_body", counted_body)
        monkeypatch.setattr(ClassInfo, "__init__", counted_build)
        # blocks run in this process alone, and split into regions
        monkeypatch.setattr(blocksched, "SHARD_MIN_WORK", 10 ** 9)

        def sizes() -> tuple:
            code = blocksched._CODE[1]
            return (len(code.entries), len(code.plans),
                    len(code.compiled.entries), len(code.compiled.bodies))

        seen = []
        for _round in range(3):
            for block in custody:
                mined = mine_block(PROGRAM, block)
                assert validate_block(PROGRAM, mined, block).accepted
                assert outputs(split_run(PROGRAM, block)) == outputs(mined)
            seen.append((sizes(), sum(bodies.values()),
                         sum(walks.values())))
        assert max(bodies.values()) == 1
        assert max(walks.values()) == 1
        assert len({cx for cx, _e in bodies}) == 1
        assert len({table for table, _name in walks}) == 1
        # round 2 on compiles nothing and builds no entry
        assert seen[0] == seen[1] == seen[2]

    @staticmethod
    def _bound(machine: Machine, block) -> list:
        """The block's deploys run on machine and its txns bound."""
        n = len(block.deploys)
        creators = _creators(block, range(n), range(len(block.txns)))
        targets = _deploy(machine, block.deploys, creators[:n])
        return _bind_scts(machine, targets, block.txns, creators[n:])

    @staticmethod
    def _outcome(machine: Machine, statuses: list) -> tuple:
        return (statuses, machine.state_hash(), machine.pre_checks,
                machine.post_checks, machine.invariant_evals, machine.steps,
                machine.failures, machine.events)

    def test_naive_and_directed_machines_on_one_code(self, custody):
        # the two run turn about on one code, a list of one transaction
        # each: each gets the counters it gets on code of its own
        block = custody[0]
        code = Code(ast.Program(PROGRAM.classes, None))
        pair = [Machine(code.program, naive=naive, code=code)
                for naive in (True, False)]
        scts = [self._bound(m, block) for m in pair]
        statuses: list = [[], []]
        for i in range(len(block.txns)):
            for k, m in enumerate(pair):
                statuses[k].append(_execute(m, scts[k], [i])[i])
        got = [self._outcome(m, st) for m, st in zip(pair, statuses)]
        want = []
        for naive in (True, False):
            m = Machine(ast.Program(PROGRAM.classes, None), naive=naive)
            want.append(self._outcome(m, _execute(
                m, self._bound(m, block), range(len(block.txns)))))
        assert got == want
        assert got[0][2] > got[1][2]  # naive checks more

    def test_a_dropped_machine_is_freed_at_once(self, custody):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for block in custody[:4]:
                machine, scts = _prepare(PROGRAM, block)
                _execute(machine, scts, range(len(scts)))
                ref = weakref.ref(machine)
                del machine, scts
                # neither the kept code nor its compiled bodies hold it
                assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_one_compiled_code_for_machines_on_host_threads(
            self, monkeypatch):
        # two machines on one code, on two host threads, ask for its
        # compiled bodies at once: both get the one the first made, since
        # a plan's compiled parts read the state of the maker's run
        code = Code(ast.Program(PROGRAM.classes, None))
        pair = [Machine(code.program, code=code) for _ in range(2)]
        made, got = [], [None, None]
        making = threading.Event()
        init = closures.Compiled.__init__

        def slow(self, table):
            made.append(self)
            making.set()
            time.sleep(0.05)  # the other thread asks meanwhile
            init(self, table)
        monkeypatch.setattr(closures.Compiled, "__init__", slow)

        def ask(k: int) -> None:
            got[k] = pair[k].compiled()
        first = threading.Thread(target=ask, args=(0,))
        first.start()
        assert making.wait(10)
        ask(1)
        first.join(10)
        assert len(made) == 1
        assert got[0] is got[1] is code.compiled is made[0]

    def test_blocks_on_host_threads(self, custody):
        # four threads on two CPUs run blocks of two programs at once,
        # switching every microsecond: each block gives what it gives
        # alone, though the threads share each program's code
        lab = block_of([{"id": "l", "class": "Lab", "args": [2]}],
                       [{"target": "l", "method": m, "args": a}
                        for m, a in LAB_CALLS])
        jobs = [(PROGRAM, b) for b in custody[:4]] + \
            [(check_clean(LAB_SRC), lab)] * 2
        want = [record(*job) for job in jobs]
        got: dict = {}

        def work(k: int) -> None:
            order = [(k + i) % len(jobs) for i in range(len(jobs))]
            got[k] = [(i, record(*jobs[i])) for i in order]

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for runs in got.values():
            for i, out in runs:
                assert out == want[i], i
