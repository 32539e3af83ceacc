"""Block execution: interference, conflict graphs, miner, validator."""
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from ovlang import ast, blocksched, closures, regions, runtime
from ovlang.ast import Contract, CtxBot, CtxLoc, CtxTop
from ovlang.blocksched import (Block, MinedBlock, Sct, _execute, _prepare,
                               build_conflict_graph, interferes, mine_block,
                               parse_block, serial_execute, validate_block)
from ovlang.diagnostics import OvError
from ovlang.ownership import OwnershipTree
from ovlang.runtime import Machine
from ovlang.typecheck import ClassInfo

from conftest import CORPUS, ROOT, bench_module, check_clean
from test_acceptance import ACCOUNT_SRC, CALLS, NEST_SRC, TOKEN_SRC

BOT, TOP = CtxBot(), CtxTop()

PROGRAM = check_clean((CORPUS / "bank.ov").read_text(encoding="utf-8"))


def flat_tree(n: int) -> OwnershipTree:
    tree = OwnershipTree()
    for i in range(n):
        tree.add(i, None)
    return tree


def block_of(deploys, txns) -> Block:
    return parse_block({"deploy": deploys, "txns": txns})


def accounts(n, amount=100):
    return [{"id": f"a{i}", "class": "Account", "args": [amount]}
            for i in range(n)]


class TestInterferes:
    def test_sibling_roots_disjoint(self):
        tree = flat_tree(2)
        d1 = Contract(CtxLoc(0), CtxLoc(0))
        d2 = Contract(CtxLoc(1), CtxLoc(1))
        assert not interferes(d1, d2, tree)

    def test_read_read_never_conflicts(self):
        tree = flat_tree(2)
        d1 = Contract(CtxLoc(0), BOT)
        d2 = Contract(CtxLoc(0), BOT)
        assert not interferes(d1, d2, tree)
        assert not interferes(Contract(TOP, BOT), Contract(TOP, BOT), tree)

    def test_read_under_write(self):
        tree = flat_tree(1)
        writer = Contract(CtxLoc(0), CtxLoc(0))
        reader = Contract(CtxLoc(0), BOT)
        assert interferes(writer, reader, tree)

    def test_nested_ownership_conflicts(self):
        tree = OwnershipTree()
        tree.add(0, None)
        tree.add(1, 0)
        d_parent = Contract(CtxLoc(0), CtxLoc(0))
        d_child = Contract(CtxLoc(1), CtxLoc(1))
        assert interferes(d_parent, d_child, tree)

    def test_symmetry_and_self(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 8)
            tree = OwnershipTree()
            for i in range(n):
                tree.add(i, rng.choice([None] + list(range(i))))
            pool = [TOP, BOT] + [CtxLoc(i) for i in range(n)]
            d1 = Contract(rng.choice(pool), rng.choice(pool))
            d2 = Contract(rng.choice(pool), rng.choice(pool))
            assert interferes(d1, d2, tree) == interferes(d2, d1, tree)
            if d1.invalidity != BOT:
                assert interferes(d1, d1, tree)

    def test_bot_invalidity_never_edges(self):
        # a contract with I = bot cannot end up in any conflict pair
        # unless the opponent writes into its validity set
        tree = flat_tree(1)
        reader = Contract(CtxLoc(0), BOT)
        assert not interferes(reader, Contract(CtxLoc(0), BOT), tree)


class TestGraph:
    def test_three_disjoint_deposits(self):
        b = block_of(accounts(3),
                     [{"target": f"a{i}", "method": "deposit", "args": [5]}
                      for i in range(3)])
        assert mine_block(PROGRAM, b).edges == []

    def test_same_account_conflicts(self):
        b = block_of(accounts(1),
                     [{"target": "a0", "method": "deposit", "args": [5]},
                      {"target": "a0", "method": "deposit", "args": [7]}])
        assert mine_block(PROGRAM, b).edges == [(0, 1)]

    def test_read_only_txns_edge_free(self):
        b = block_of(accounts(1),
                     [{"target": "a0", "method": "balance", "args": []},
                      {"target": "a0", "method": "balance", "args": []}])
        assert mine_block(PROGRAM, b).edges == []

    def test_empty_block(self):
        b = block_of(accounts(1), [])
        mined = mine_block(PROGRAM, b)
        assert mined.edges == [] and mined.status == []


def all_pairs(contracts, tree):
    """The reference graph: every pair, in index order, through interferes."""
    n = len(contracts)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if interferes(contracts[i], contracts[j], tree)]


def bound(contracts, tree):
    """Transactions whose V and I are the nodes the contracts' contexts
    denote, as `_bind_scts` leaves them."""
    return [Sct(method="", args=[], validity=tree.node(d.validity),
                invalidity=tree.node(d.invalidity)) for d in contracts]


def random_forest(rng):
    """A forest of 3 to 30 locations whose first three form a chain, so it
    is at least three deep; returns the tree and its locations."""
    n = rng.randrange(3, 31)
    tree = OwnershipTree()
    for i in range(n):
        owner = i - 1 if 0 < i < 3 else rng.choice([None] + list(range(i)))
        tree.add(i, owner)
    return tree, list(range(n))


class TestConflictGraphOracle:
    def test_candidate_pairs_match_all_pairs(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(600):
            tree, locs = random_forest(rng)
            # few hot locations, so several transactions share each one
            hot = rng.sample(locs, rng.randrange(1, min(len(locs), 6) + 1))
            pool = ([TOP, BOT] * rng.randrange(0, 2)
                    + [BOT] + [CtxLoc(i) for i in hot] * 3)
            contracts = [Contract(rng.choice(pool), rng.choice(pool))
                         for _ in range(rng.randrange(0, 25))]
            want = all_pairs(contracts, tree)
            assert build_conflict_graph(bound(contracts, tree), tree) == want
            checked += len(want)
        assert checked > 1000  # the forests really produced edges

    def test_top_context_pairs_with_everyone(self):
        tree, _ = random_forest(random.Random(2))
        contracts = [Contract(CtxLoc(2), CtxLoc(2)), Contract(TOP, BOT),
                     Contract(BOT, CtxLoc(0)), Contract(CtxLoc(1), BOT)]
        # the Top reader meets both writers but not the other reader
        assert build_conflict_graph(bound(contracts, tree), tree) == \
            all_pairs(contracts, tree) == [
                (0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]


def bank_txns(rng, n):
    """n deposit, withdraw and balance calls on random accounts of n."""
    txns = []
    for _ in range(n):
        method = rng.choice(("deposit", "withdraw", "balance"))
        args = [] if method == "balance" else [rng.randrange(1, 80)]
        txns.append({"target": f"a{rng.randrange(n)}", "method": method,
                     "args": args})
    return txns


class TestLinearWork:
    """Mining a sparse block does work linear in its transactions and
    edges: no all-pairs interference loop, no heap-wide subtree scans."""

    def test_call_counts_stay_linear(self, monkeypatch):
        n = 2000
        txns = bank_txns(random.Random(5), n)
        writes = Counter(t["target"] for t in txns if t["method"] != "balance")
        reads = Counter(t["target"] for t in txns if t["method"] == "balance")
        # pairs on one account with at least one writer
        edges = sum(w * (w - 1) // 2 + w * reads[a] for a, w in writes.items())
        calls = Counter()

        def counted(name, fn, bound):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name] += 1
                # fail at once rather than after a quadratic run
                assert calls[name] <= bound, f"{name}: over {bound}"
                return out
            return wrapper

        block = block_of(accounts(n), txns)  # before the graph's set counts
        bound = 2 * (n + edges)

        class Candidates(set):
            """The graph's pair set: every candidate pair, a transaction
            a bucket gives for another's context, is one `add`."""

            def add(self, pair):
                super().add(pair)
                calls["candidates"] += 1
                assert calls["candidates"] <= bound, f"over {bound}"

        # build_conflict_graph's `set()` finds this one before the builtin
        monkeypatch.setattr(blocksched, "set", Candidates, raising=False)
        monkeypatch.setattr(blocksched, "interferes",
                            counted("interferes", interferes, 0))
        monkeypatch.setattr(OwnershipTree, "runtime_inside",
                            counted("runtime_inside",
                                    OwnershipTree.runtime_inside, 4 * n))
        # the hooks count in this process only: mine in one process
        monkeypatch.setattr(regions, "usable_cpus", lambda: 1)
        mined = mine_block(PROGRAM, block)
        assert len(mined.edges) == edges
        assert calls["candidates"] >= edges  # the counter really counted
        # every contract is located: no pair needs confirming
        assert calls["interferes"] == 0


    def test_superclass_walks_once_per_class(self, monkeypatch, fresh_code):
        # a 500-account block evaluates thousands of invariants, looks up
        # a method per call and lists fields per hash; each class's record,
        # and so its superclass walk, must still be built once per program
        walks = Counter()
        build = ClassInfo.__init__

        def counted(info, table, decl):
            walks[(table, decl.name)] += 1
            assert walks[(table, decl.name)] <= 1, f"{decl.name} walked twice"
            build(info, table, decl)

        monkeypatch.setattr(ClassInfo, "__init__", counted)
        txns = bank_txns(random.Random(7), 500)
        mined = mine_block(PROGRAM, block_of(accounts(500), txns))
        assert len(mined.status) == 500
        assert {name for _table, name in walks} >= {"Account"}

    def test_deploys_walk_no_subtree(self, monkeypatch):
        # a constructor runs under <bot,this>: subtree(bot) is empty, so
        # neither its begin nor its commit needs a subtree
        calls = Counter()
        subtree = OwnershipTree.runtime_subtree

        def counted(tree, k):
            calls["runtime_subtree"] += 1
            return subtree(tree, k)

        monkeypatch.setattr(OwnershipTree, "runtime_subtree", counted)
        machine, _ = _prepare(PROGRAM, block_of(accounts(1000), []))
        assert len(machine.dom()) == 1000 and len(machine.sigma) == 1000
        assert calls["runtime_subtree"] == 0

    # three levels: B passes `this` to A, and C passes its parameters to
    # B in another order
    THREE_LEVELS = """\
class A[o, p] {
    int a = 0;
}

class B[o, q] extends A<o, this> {
    int b = 0;
}

class C[o, r, s] extends B<s, r> {
    int c = 0;
}
"""

    def test_superclass_args_once_per_object(self, monkeypatch):
        # an object's binding maps are its class's recorded superclass
        # types with its arguments put in: allocating builds no record
        # beyond one per class and reads no `extends` clause
        program = check_clean(self.THREE_LEVELS)
        builds, stray = Counter(), []
        building = []
        build = ClassInfo.__init__

        def counted(info, table, decl):
            builds[decl.name] += 1
            building.append(decl.name)
            build(info, table, decl)
            building.pop()

        slot = ast.ClassDecl.superclass  # the field's slot descriptor

        class Watched(ast.ClassDecl):
            __slots__ = ()  # ClassDecl's layout, so __class__ can move

            @property
            def superclass(self):
                if not building:
                    stray.append(self.name)
                return slot.__get__(self)

        monkeypatch.setattr(ClassInfo, "__init__", counted)
        for decl in program.classes:
            decl.__class__ = Watched
        m = Machine(program)
        locs = {}
        for _ in range(20):
            for name, args in (("A", [TOP, BOT]), ("B", [TOP, BOT]),
                               ("C", [TOP, BOT, TOP])):
                locs[name] = m.run_expression(
                    ast.New(ast.ClassType(name, args), [])).index
        assert builds == {"A": 1, "B": 1, "C": 1}
        assert stray == []
        c = locs["C"]
        # the maps hold tree nodes: the class of Top or Bot, or a location
        assert m.heap[c].bindings == {
            "C": {"o": CtxTop, "r": CtxBot, "s": CtxTop},
            "B": {"o": CtxTop, "q": CtxBot},
            "A": {"o": CtxTop, "p": c}}


def count_inits(monkeypatch, *classes) -> Counter:
    """The instances of classes made from now on, counted by class name."""
    made = Counter()
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return made


def _pinned_inputs() -> dict:
    out = {f"blocks/{p.name}": json.loads(p.read_text(encoding="utf-8"))
           for p in sorted((CORPUS / "blocks").glob("*.json"))}
    workloads = bench_module("workloads")
    out.update((f"bank:{i}", b)
               for i, b in enumerate(workloads.bank_blocks(1)[:2]))
    out.update((f"custody:{i}", b)
               for i, b in enumerate(workloads.custody_blocks(1)[:8]))
    return out


def _naive_replay(data: dict) -> tuple[int, int]:
    """(pre_checks, post_checks) of the block's transactions run once each
    in index order, as deduced atomics, on a naive machine."""
    m = Machine(ast.Program(PROGRAM.classes, None), naive=True)
    locs = {}
    for d in data["deploy"]:
        typ = ast.ClassType(d["class"], [CtxTop()])
        locs[d["id"]] = m.run_expression(
            ast.New(typ, [ast.Const(a) for a in d.get("args", [])]))
    for t in data["txns"]:
        call = ast.Call(ast.Var("target"), t["method"],
                        [ast.Const(a) for a in t.get("args", [])])
        m.run_expression(ast.Atomic(contract=None, body=call, deduced=True),
                         {"target": locs[t["target"]], "#ctx": {}})
    return m.pre_checks, m.post_checks


# The paper's counters on corpus/blocks and on seed-1 bank_large and
# custody_hot blocks, recorded before ancestor chains were stored and
# constructor frames stopped building subtrees; the transaction machinery
# may get cheaper, but none of these may move. Per block: edge count,
# digest of the statuses and edges, state hash prefix, the mining machine's
# (pre_checks, post_checks, invariant_evals, Machine.steps) after deploys
# and transactions, and a naive replay's (pre_checks, post_checks). The
# hash prefixes were re-recorded once, when objects came to be named by
# their creator rather than their heap index, and the custody post_checks
# and invariant_evals once, when commits stopped re-checking what the
# valid set holds; nothing else moved.
PINNED_BLOCKS = {
    "blocks/conflict.json": (1, "cb1ed28b588a2b30", "c5873ed02038cd2e",
                             (0, 3, 3, 57), (4, 5)),
    "blocks/transfers.json": (0, "6f1ec1c733b183fe", "89b3d50764528468",
                              (0, 6, 6, 111), (6, 9)),
    "bank:0": (210, "ba353fc15bc12af2", "b67042922d8edd47",
               (0, 834, 834, 16840), (1000, 1500)),
    "bank:1": (232, "43a0e38bd27ac495", "4a8f169c3b7e863e",
               (0, 834, 834, 16840), (1000, 1500)),
    "custody:0": (137, "fbb11685874ef5f6", "e8274cf3c79c8660",
                  (7, 52, 59, 1584), (260, 284)),
    "custody:1": (140, "bdc9ffc7b6f572fc", "4089c22e505a5c20",
                  (9, 52, 61, 1584), (260, 284)),
    "custody:2": (137, "e32ad7f40765b4eb", "61a6494e4d51340e",
                  (6, 52, 58, 1584), (260, 284)),
    "custody:3": (119, "06e09148fae43bf7", "e65ad5e825eb6e84",
                  (7, 52, 59, 1584), (260, 284)),
    "custody:4": (135, "1100843027f7c526", "e6ce1dcea3f37c57",
                  (6, 52, 58, 1584), (260, 284)),
    "custody:5": (126, "505dc4f368355b5c", "511e9af48646f7dc",
                  (7, 52, 59, 1584), (260, 284)),
    "custody:6": (141, "86ce3abf978b90e9", "6815460d5bc3ac0c",
                  (7, 52, 59, 1584), (260, 284)),
    "custody:7": (128, "6b2b050d5be55fed", "adb4dfdd81cbb72a",
                  (7, 52, 59, 1584), (260, 284)),
}


PINNED_INPUTS = _pinned_inputs()


class TestChecksPerTransaction:
    # What each transaction on one corpus/bank.ov Customer spends, as
    # (pre_checks, post_checks, invariant_evals), with its status. A
    # commit checks only what the valid set does not hold: the deploy
    # checks the Customer but not the Account its inner construction
    # validated, and each safeWithdraw the Customer, which verifyLogin's
    # write invalidated, and the Account once, in its inner commit, but
    # not again in the outer one.
    STEPS = [
        ("safeWithdraw", [5], "committed", (0, 2, 2)),
        # the inner withdraw aborts alone and the outer call commits
        ("safeWithdraw", [25], "committed", (0, 2, 2)),
        # leaves 0, below the Customer's 10: the outer post-check fails
        ("safeWithdraw", [15], "aborted:R-POST-FAIL", (0, 2, 2)),
        ("audit", [], "committed", (0, 0, 0)),
        ("verifyLogin", [], "committed", (0, 0, 0)),
    ]

    def test_bank_customer(self):
        block = block_of([{"id": "c", "class": "Customer", "args": []}],
                         [{"target": "c", "method": method, "args": args}
                          for method, args, _status, _spent in self.STEPS])
        machine, scts = _prepare(PROGRAM, block)

        def counters():
            return (machine.pre_checks, machine.post_checks,
                    machine.invariant_evals)

        assert counters() == (0, 2, 2)  # the deploy
        for i, (_method, _args, status, spent) in enumerate(self.STEPS):
            before = counters()
            assert blocksched._execute(machine, scts, [i])[i] == status
            assert tuple(b - a for a, b in zip(before, counters())) == spent


class TestPinnedCounters:
    @pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
    def test_block_outputs_are_pinned(self, name):
        data = PINNED_INPUTS[name]
        block = parse_block(data)
        machine, scts = _prepare(PROGRAM, block)
        edges = build_conflict_graph(scts, machine.tree)
        status = _execute(machine, scts, range(len(scts)))
        digest = hashlib.sha256(json.dumps(
            [status, [list(e) for e in edges]]).encode()).hexdigest()[:16]
        got = (len(edges), digest, machine.state_hash()[:16],
               (machine.pre_checks, machine.post_checks,
                machine.invariant_evals, machine.steps),
               _naive_replay(data))
        assert got == PINNED_BLOCKS[name]
        row = (machine.state_hash(), status, edges, machine.pre_checks,
               machine.post_checks)
        mined = mine_block(PROGRAM, block)
        assert outputs(mined) == row
        assert validate_block(PROGRAM, mined, block).accepted
        # the sharded path, pinned on a host with one usable CPU too
        sharded = split_run(PROGRAM, block)
        if len(block.deploys) > 1:
            assert outputs(sharded) == row
        else:
            assert sharded is None  # one region: nothing to split

    @pytest.mark.parametrize("name", sorted(
        n for n in PINNED_INPUTS if n.startswith("custody:")))
    def test_contracts_resolved_to_nodes(self, name, monkeypatch):
        # custody blocks call the same few targets again and again, with
        # explicit and deduced atomics in their methods: binding and every
        # begin read a contract on its object straight to tree nodes, and
        # build no Contract and no CtxLoc
        block = parse_block(PINNED_INPUTS[name])
        machine, scts = _prepare(PROGRAM, block)
        _execute(machine, scts, range(len(scts)))  # the code's entry nodes
        made = count_inits(monkeypatch, ast.Contract, ast.CtxLoc)
        begun = []
        begin = Machine._begin

        def spy_begin(self, thread, validity, invalidity):
            begun.append((validity, invalidity))
            return begin(self, thread, validity, invalidity)

        monkeypatch.setattr(Machine, "_begin", spy_begin)
        machine, scts = _prepare(PROGRAM, block)
        status = _execute(machine, scts, range(len(scts)))
        assert made == {} and "committed" in status
        assert len(begun) > len(scts)  # nested atomics began too
        assert all(x in (CtxTop, CtxBot) or type(x) is int
                   for pair in begun for x in pair)
        # each transaction's own frame is begun on the nodes it was bound to
        assert {(s.validity, s.invalidity) for s in scts} <= set(begun)

    @pytest.mark.parametrize("name", sorted(
        n for n in PINNED_INPUTS if n.startswith("custody:")))
    def test_invariants_compiled_once_per_class(self, name, monkeypatch,
                                                fresh_code):
        # custody blocks evaluate the invariants of two classes dozens of
        # times; each clause, and each part of it, is compiled once per
        # program, when its class is first allocated
        compiles = Counter()
        compile_ = runtime._compile

        def counted(e):
            compiles[id(e)] += 1
            assert compiles[id(e)] == 1, f"{e} compiled twice"
            return compile_(e)

        monkeypatch.setattr(runtime, "_compile", counted)
        machine, scts = _prepare(PROGRAM, parse_block(PINNED_INPUTS[name]))
        _execute(machine, scts, range(len(scts)))
        clauses = {id(c) for cls in ("Account", "Customer")
                   for c in machine.table.info(cls).invariants}
        assert clauses <= set(compiles)
        assert machine.invariant_evals > 10 * len(clauses)


class TestRunaway:
    SRC = (CORPUS / "bank.ov").read_text(encoding="utf-8").split("main {")[0] \
        + """
class Spinner[o] {
    int n = 0;
    inv n >= 0;

    void spin() <this,this> {
        n += 1;
        atomic <this,this> {
            n += 1;
            spin();
        }
    }
}
"""
    DEPLOY = [{"id": "a", "class": "Account", "args": [1]},
              {"id": "s", "class": "Spinner"}]

    def test_runaway_transaction_aborts_alone(self, monkeypatch):
        monkeypatch.setattr(blocksched, "TXN_STEPS", 20_000)
        program = check_clean(self.SRC)
        deposit = [{"target": "a", "method": "deposit", "args": [2]},
                   {"target": "a", "method": "deposit", "args": [3]}]
        spin = {"target": "s", "method": "spin"}
        b = block_of(self.DEPLOY, [deposit[0], spin, deposit[1]])
        mined = mine_block(program, b)
        assert mined.status == ["committed", "aborted:R-GAS", "committed"]
        report = validate_block(program, mined, b)
        assert report.accepted
        assert serial_execute(program, b) == (mined.final_state_hash,
                                              mined.status)
        # the spin left no trace: same state as the block without it
        without = mine_block(program, block_of(self.DEPLOY, deposit))
        assert mined.final_state_hash == without.final_state_hash


class TestMine:
    def test_statuses_and_abort_isolation(self):
        b = block_of(accounts(2, amount=10),
                     [{"target": "a0", "method": "withdraw", "args": [50]},
                      {"target": "a1", "method": "deposit", "args": [5]}])
        mined = mine_block(PROGRAM, b)
        assert mined.status == ["aborted:R-POST-FAIL", "committed"]
        # the aborted overdraw left no trace: same state as deposit alone
        b2 = block_of(accounts(2, amount=10),
                      [{"target": "a1", "method": "deposit", "args": [5]}])
        assert mined.final_state_hash == mine_block(PROGRAM, b2).final_state_hash

    def test_hash_matches_index_order_serial(self):
        b = block_of(accounts(2, amount=10),
                     [{"target": "a0", "method": "deposit", "args": [3]},
                      {"target": "a0", "method": "withdraw", "args": [8]}])
        mined = mine_block(PROGRAM, b)
        h, statuses = serial_execute(PROGRAM, b)
        assert mined.final_state_hash == h
        assert mined.status == statuses

    def test_machine_counts_block_steps(self):
        b = block_of(accounts(2),
                     [{"target": "a0", "method": "deposit", "args": [5]}])
        machine, scts = _prepare(PROGRAM, b)
        deployed = machine.steps
        assert deployed > 0
        _execute(machine, scts, [0])
        assert machine.steps > deployed

    def test_empty_block_hashes_deployed_heap(self):
        b = block_of(accounts(1), [])
        h, _ = serial_execute(PROGRAM, b)
        assert mine_block(PROGRAM, b).final_state_hash == h

    def test_unknown_target(self):
        b = block_of(accounts(1),
                     [{"target": "zz", "method": "deposit", "args": [1]}])
        with pytest.raises(OvError) as exc:
            mine_block(PROGRAM, b)
        assert exc.value.code == "E-TARGET"

    def test_unknown_method_and_arity(self):
        for txn in ({"target": "a0", "method": "nope", "args": []},
                    {"target": "a0", "method": "deposit", "args": []}):
            with pytest.raises(OvError) as exc:
                mine_block(PROGRAM, block_of(accounts(1), [txn]))
            assert exc.value.code == "E-TARGET"

    def test_deploy_argument_of_another_type(self, monkeypatch):
        # refused before its constructor runs, as an arity mismatch is:
        # every deploy passes the compiled evaluator's one guard, which
        # is given the deploys before it
        ran = []
        run = closures.Compiled.run

        def spy(self, m, units, fuel, start):
            done = run(self, m, units, fuel, start)
            ran.extend(arg for _node, arg, _creator in
                       units[start:start + len(done)])
            return done
        monkeypatch.setattr(closures.Compiled, "run", spy)
        b = block_of(accounts(1) + [{"id": "bad", "class": "Account",
                                     "args": [None]}], [])
        with pytest.raises(ValueError) as exc:
            mine_block(PROGRAM, b)
        assert str(exc.value) == ("deploy bad: Account constructor "
                                  "parameter amt is int, got null")
        assert ran == [[100]]  # a0's constructor alone

    TYPED = check_clean("""\
class Flag[o] {
    bool on;

    Flag(bool b) {
        on = b;
    }

    void set(int n, bool b, Flag<top> f) <this,this> {
        on = b;
    }
}
""")

    @pytest.mark.parametrize("args, fault", [
        ([0, True, None], None),
        ([-3, False, None], None),
        ([True, True, None], "parameter n is int, got true"),
        ([0, 1, None], "parameter b is bool, got 1"),
        ([0, None, None], "parameter b is bool, got null"),
        ([0, True, 0], "parameter f is Flag<top>, got 0"),
        ([0, True, False], "parameter f is Flag<top>, got false"),
    ])
    def test_each_parameter_type_takes_its_values(self, args, fault):
        # an int parameter takes an int, not a bool; a bool parameter a
        # bool; a class-typed parameter null alone
        b = block_of([{"id": "f", "class": "Flag", "args": [True]}],
                     [{"target": "f", "method": "set", "args": args}])
        deploy = block_of([{"id": "f", "class": "Flag", "args": args[1:2]}],
                          [])
        if fault is None:
            assert mine_block(self.TYPED, b).status == ["committed"]
            assert mine_block(self.TYPED, deploy).status == []
            return
        with pytest.raises(OvError) as exc:
            mine_block(self.TYPED, b)
        assert exc.value.msg == f"txn 0: set {fault}"
        if " b " in fault:
            with pytest.raises(ValueError) as bad:
                mine_block(self.TYPED, deploy)
            assert str(bad.value) == f"deploy f: Flag constructor {fault}"

    def test_deploy_failure(self):
        b = block_of([{"id": "bad", "class": "Account", "args": [-5]}], [])
        with pytest.raises(ValueError):
            mine_block(PROGRAM, b)

    def test_unknown_deploy_class(self):
        b = block_of([{"id": "x", "class": "Nothing", "args": []}], [])
        with pytest.raises(ValueError):
            mine_block(PROGRAM, b)


class TestValidate:
    def block(self):
        return block_of(accounts(2, amount=10),
                        [{"target": "a0", "method": "deposit", "args": [3]},
                         {"target": "a0", "method": "withdraw", "args": [8]},
                         {"target": "a1", "method": "balance", "args": []}])

    def test_accepts_honest_miner(self):
        b = self.block()
        mined = mine_block(PROGRAM, b)
        rep = validate_block(PROGRAM, mined, b)
        assert rep.accepted and rep.hash_matches and rep.statuses_match
        assert rep.final_state_hash == mined.final_state_hash

    def test_rejects_tampered_hash(self):
        b = self.block()
        mined = mine_block(PROGRAM, b)
        forged = MinedBlock(mined.edges, mined.status,
                            "0" * 64, mined.pre_checks, mined.post_checks)
        rep = validate_block(PROGRAM, forged, b)
        assert not rep.accepted and not rep.hash_matches

    def test_rejects_tampered_status(self):
        b = self.block()
        mined = mine_block(PROGRAM, b)
        forged = MinedBlock(mined.edges,
                            ["aborted:R-POST-FAIL"] + mined.status[1:],
                            mined.final_state_hash,
                            mined.pre_checks, mined.post_checks)
        rep = validate_block(PROGRAM, forged, b)
        assert not rep.accepted and not rep.statuses_match

    def test_dropped_edge_is_a_protocol_violation(self):
        b = self.block()
        mined = mine_block(PROGRAM, b)
        assert mined.edges, "fixture must conflict"
        forged = MinedBlock(mined.edges[1:], mined.status,
                            mined.final_state_hash,
                            mined.pre_checks, mined.post_checks)
        with pytest.raises(OvError) as exc:
            validate_block(PROGRAM, forged, b)
        assert exc.value.code == "E-BG-MISMATCH"

    def test_extra_edges_tolerated(self):
        b = self.block()
        mined = mine_block(PROGRAM, b)
        padded = MinedBlock(mined.edges + [(1, 2)], mined.status,
                            mined.final_state_hash,
                            mined.pre_checks, mined.post_checks)
        assert validate_block(PROGRAM, padded, b).accepted


class TestSerialOracle:
    def test_permutations_agree_when_edge_free(self):
        b = block_of(accounts(3, amount=10),
                     [{"target": f"a{i}", "method": "deposit", "args": [i + 1]}
                      for i in range(3)])
        assert mine_block(PROGRAM, b).edges == []
        hashes = {serial_execute(PROGRAM, b, list(perm))[0]
                  for perm in itertools.permutations(range(3))}
        assert len(hashes) == 1

    def test_conflicting_orders_may_differ_but_index_matches_miner(self):
        b = block_of(accounts(1, amount=10),
                     [{"target": "a0", "method": "withdraw", "args": [8]},
                      {"target": "a0", "method": "withdraw", "args": [8]}])
        mined = mine_block(PROGRAM, b)
        h_index, statuses = serial_execute(PROGRAM, b)
        assert mined.final_state_hash == h_index
        assert statuses == ["committed", "aborted:R-POST-FAIL"]

    def test_bad_order_rejected(self):
        b = block_of(accounts(1), [{"target": "a0", "method": "balance",
                                    "args": []}])
        with pytest.raises(ValueError):
            serial_execute(PROGRAM, b, [1])


HOLDER = check_clean("""\
class Box[o] {
    int v = 0;
}

class Holder[o] {
    Box<this> b = null;

    void make(int x) <this,this> {
        b = new Box<this>();
        require(x > 0);
    }
}
""")

OUTER = check_clean("""\
class Inner[o] {
    int v = 0;
    inv v >= 0;

    void dec(int x) <this,this> {
        v -= x;
    }
}

class Outer[o] {
    Inner<this> i = new Inner<this>();
    int n = 0;

    void go(int x) <this,this> {
        n += 1;
        atomic i.dec(x);
    }
}
""")


# Sub passes `this` for Base's p, so touch's contract <p,this> is the
# object itself on both sides, as `ov check` types go's call
THIS_IN_EXTENDS = """\
class Base[o, p] {
    int v = 0;
    inv v >= 0;

    void touch() <p,this> {
        v = v + 1;
    }
}

class Sub[o] extends Base<o, this> {
    void go() <this,this> {
        this.touch();
    }
}

class Cell[o] {
    int v = 0;
    inv v >= 0;

    void set(int x) <this,this> {
        v = x;
    }
}
"""


class TestOnePath:
    """Miner, validator and serial oracle run each transaction once and
    end in the same state."""

    def agree(self, program, b):
        mined = mine_block(program, b)
        rep = validate_block(program, mined, b)
        h, statuses = serial_execute(program, b)
        assert rep.accepted
        assert mined.final_state_hash == rep.final_state_hash == h
        assert mined.status == rep.status == statuses
        return mined

    def test_aborted_allocation_does_not_shift_later_locations(self):
        b = block_of([{"id": "h0", "class": "Holder"},
                      {"id": "h1", "class": "Holder"}],
                     [{"target": "h0", "method": "make", "args": [0]},
                      {"target": "h1", "method": "make", "args": [1]}])
        mined = self.agree(HOLDER, b)
        assert mined.status == ["aborted:R-REQUIRE", "committed"]

    def test_edge_free_allocations_hash_alike_in_either_order(self):
        # each Box is named by the transaction that made it, not by the
        # heap slot it took, so the two orders reach one state
        b = block_of([{"id": "h0", "class": "Holder"},
                      {"id": "h1", "class": "Holder"}],
                     [{"target": "h0", "method": "make", "args": [1]},
                      {"target": "h1", "method": "make", "args": [2]}])
        mined = self.agree(HOLDER, b)
        assert mined.edges == [] and mined.status == ["committed"] * 2
        want = (mined.final_state_hash, mined.status)
        assert serial_execute(HOLDER, b, [1, 0]) == want
        sharded = split_run(HOLDER, b)
        assert (sharded.final_state_hash, sharded.status) == want

    def test_contained_abort_leaves_the_txn_committed(self):
        b = block_of([{"id": "o", "class": "Outer"}],
                     [{"target": "o", "method": "go", "args": [5]}])
        mined = self.agree(OUTER, b)
        assert mined.status == ["committed"]
        machine, scts = _prepare(OUTER, b)
        assert _execute(machine, scts, [0]) == ["committed"]
        outer = machine.heap[scts[0].loc]
        assert outer.fields["n"] == 1
        assert machine.heap[outer.fields["i"].index].fields["v"] == 0
        assert machine.state_hash() == mined.final_state_hash

    def test_this_in_extends_is_the_object(self):
        b = block_of([{"id": "s", "class": "Sub"},
                      {"id": "c", "class": "Cell"}],
                     [{"target": "s", "method": "touch"},
                      {"target": "c", "method": "set", "args": [1]},
                      {"target": "c", "method": "set", "args": [2]}])
        program = check_clean(THIS_IN_EXTENDS)
        mined = self.agree(program, b)
        assert mined.to_json()["edges"] == [[1, 2]]
        assert mined.status == ["committed"] * 3
        sharded = split_run(program, b)
        assert (sharded.final_state_hash, sharded.status, sharded.edges) == (
            mined.final_state_hash, mined.status, mined.edges)



class TestSharedBindings:
    """An object whose every context argument is Top, as every deployed
    object's is, shares its class's binding maps, made once per program,
    unless a superclass argument of the class is `this`; every other
    object has maps of its own."""

    def test_this_in_extends_keeps_maps_per_object(self, fresh_code):
        b = block_of([{"id": t, "class": "Sub"} for t in ("s", "t")],
                     [{"target": t, "method": "touch"} for t in ("s", "t")])
        machine, scts = _prepare(check_clean(THIS_IN_EXTENDS), b)
        s, t = machine.heap
        assert s.bindings["Base"] == {"o": CtxTop, "p": 0}
        assert t.bindings["Base"] == {"o": CtxTop, "p": 1}
        assert s.bindings["Sub"] == t.bindings["Sub"] == {"o": CtxTop}
        assert [(x.validity, x.invalidity) for x in scts] == [(0, 0), (1, 1)]
        assert machine.code.plan("Sub").shared is False
        assert _execute(machine, scts, range(2)) == ["committed"] * 2

    def test_deployed_accounts_share_one_map(self, fresh_code):
        block = parse_block(bench_module("workloads").bank_blocks(1)[0])
        machine, _scts = _prepare(PROGRAM, block)
        assert len(machine.heap) == 500
        shared = machine.code.plan("Account").shared
        assert shared == {"Account": {"o": CtxTop}}
        assert all(obj.bindings is shared for obj in machine.heap)

    def test_custody_children_keep_their_own_maps(self, fresh_code,
                                                  monkeypatch):
        # each Customer is deployed, so Top-owned: the Customers of every
        # block share one map. Each owns an Account<this>, whose map names
        # its owner. After all 48 blocks the code keeps that one map and
        # no other
        monkeypatch.setattr(regions, "usable_cpus", lambda: 1)
        raw = bench_module("workloads").custody_blocks(1)
        assert len(raw) == 48
        for data in raw[:4]:
            machine, scts = _prepare(PROGRAM, parse_block(data))
            _execute(machine, scts, range(len(scts)))
            shared = machine.code.plan("Customer").shared
            assert shared == {"Customer": {"o": CtxTop}}
            owned = []
            for loc, obj in enumerate(machine.heap):
                if obj.class_name == "Customer":
                    assert obj.bindings is shared
                else:
                    owner = machine.tree.chains[loc][1]
                    assert obj.bindings == {"Account": {"o": owner}}
                    owned.append(obj.bindings)
            assert len(owned) == 8 and len({id(x) for x in owned}) == 8
        for data in raw:
            mine_block(PROGRAM, parse_block(data))
        code = blocksched._CODE[1]
        assert {name: plan.shared for name, plan in code.plans.items()} == {
            "Customer": {"Customer": {"o": CtxTop}}, "Account": None}

class TestParseBlock:
    def test_defaults(self):
        b = parse_block({})
        assert b.deploys == [] and b.txns == []

    @pytest.mark.parametrize("data", [
        [],
        {"deploy": {}, "txns": []},
        {"deploy": [{"id": "a"}], "txns": []},
        {"deploy": [{"id": "a", "class": "C"},
                    {"id": "a", "class": "C"}], "txns": []},
        {"deploy": [], "txns": [{"target": "a"}]},
        {"deploy": [], "txns": [], "workers": 0},
        {"deploy": [], "txns": [], "workers": True},
        {"deploy": [], "txns": [], "seed": "x"},
        {"deploy": [{"id": "a", "class": "C", "args": ["str"]}], "txns": []},
        {"deploy": [], "txns": [], "workers": 2},
        {"deploy": [], "txns": [], "gas": 1},
        {"deploy": [{"id": "a0", "class": "Account", "args": [5],
                     "owner": "x"}], "txns": []},
        {"deploy": [{"id": "a0", "class": "Account", "args": [5]}],
         "txns": [{"target": "a0", "method": "balance", "argz": [1],
                   "gas": 7}]},
        {"deploy": [], "txns": [{"target": "a0", "method": "deposit",
                                 "args": [1], "seed": 3}]},
    ])
    def test_schema_violations(self, data):
        with pytest.raises(ValueError):
            parse_block(data)

    @pytest.mark.parametrize("data, msg", [
        ({"deploy": [{"id": "a0", "class": "Account", "owner": "x"}]},
         "deploy a0: unknown fields: owner"),
        ({"txns": [{"target": "a0", "method": "balance", "argz": [1],
                    "gas": 7}]},
         "txn 0: unknown fields: argz, gas"),
    ])
    def test_unknown_entry_fields_are_named(self, data, msg):
        # a field is accepted and used, or refused: never ignored
        with pytest.raises(ValueError) as exc:
            parse_block(data)
        assert str(exc.value) == msg


# -- regions run in parallel ---------------------------------------------------

FUZZ_PROGRAM = check_clean(ACCOUNT_SRC + TOKEN_SRC + NEST_SRC)


def outputs(mined: MinedBlock) -> tuple:
    return (mined.final_state_hash, mined.status, mined.edges,
            mined.pre_checks, mined.post_checks)


def one_process(program, block) -> MinedBlock:
    """mine_block as it runs on a host with one usable CPU."""
    saved = regions.usable_cpus
    regions.usable_cpus = lambda: 1
    try:
        return mine_block(program, block)
    finally:
        regions.usable_cpus = saved


def fuzz_blocks(seed: int, count: int):
    """Blocks in the acceptance fuzz's shape, widened to five deploys and
    eight transactions."""
    rng = random.Random(seed)
    for _ in range(count):
        deploys, classes = [], []
        for i in range(rng.randrange(1, 6)):
            cls = rng.choice(sorted(CALLS))
            deploys.append({"id": f"o{i}", "class": cls,
                            "args": [rng.randrange(0, 50)]})
            classes.append(cls)
        txns = []
        for _ in range(rng.randrange(0, 9)):
            t = rng.randrange(len(deploys))
            method, hi = rng.choice(CALLS[classes[t]])
            args = [] if hi is None else [rng.randrange(0, hi + 1)]
            txns.append({"target": f"o{t}", "method": method, "args": args})
        yield parse_block({"deploy": deploys, "txns": txns})


class InProcessPool:
    """A stand-in for regions.POOL that runs every shard in this process,
    one after another."""

    def run(self, program, jobs):
        return [regions._run_shard_or_none(program, job) for job in jobs]


IN_PROCESS = InProcessPool()


def split_run(program, block, shards=2, pool=IN_PROCESS):
    """regions.run with `shards` usable CPUs and no size threshold, so that
    any block with enough regions splits, its shards run by `pool`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "usable_cpus", lambda: shards)
        mp.setattr(blocksched, "SHARD_MIN_WORK", 1)
        mp.setattr(regions, "POOL", pool)
        return regions.run(program, block)


def two_cpus():
    if regions.usable_cpus() < 2:
        pytest.skip("one usable CPU: every block runs in one process")


@pytest.fixture(autouse=True)
def fresh_pool():
    """No worker before a test, and none left after it: a worker forked
    during a test keeps that test's monkeypatches."""
    regions.POOL.close()
    yield regions.POOL
    regions.POOL.close()


OWNER_CONTRACT = check_clean("""\
class Cell[o] {
    int v = 0;

    void poke() <o,this> {
        v += 1;
    }
}
""")

# a deploy would bind p to top, which breaks `p <= this`: the nested atomic
# would then revalidate the whole heap, other regions included, so the
# class cannot be deployed
BROKEN_WHERE_SRC = """\
class Cell[o, p] where p <= this {
    int v = 0;
    inv v >= 0;

    void bump(int x) <this,this> {
        v = v + x;
        atomic <p,p> {
            x;
        }
    }
}
"""

# bank's classes, and one whose deploy breaks its `where` constraint
FAULT_PROGRAM = check_clean(
    (CORPUS / "bank.ov").read_text(encoding="utf-8").split("main {")[0]
    + BROKEN_WHERE_SRC)


class TestRegions:
    """A block split into regions, run shard by shard and merged, gives
    exactly what one process gives."""

    def test_fuzzed_blocks_merge_to_the_serial_result(self, fresh_pool):
        merged = allocating = on_workers = 0
        for n, b in enumerate(fuzz_blocks(2027, 1000)):
            mined = mine_block(FUZZ_PROGRAM, b)
            assert serial_execute(FUZZ_PROGRAM, b) == (mined.final_state_hash,
                                                  mined.status)
            # every fourth block goes through the worker pool
            pool = fresh_pool if n % 4 == 0 else IN_PROCESS
            for shards in (2, 3):
                got = split_run(FUZZ_PROGRAM, b, shards, pool)
                if got is None:
                    assert len(b.deploys) == 1  # nothing to split
                    continue
                assert outputs(got) == outputs(mined), (shards, b)
                merged += 1
                allocating += sum(t["method"] == "make" for t in b.txns) > 1
            on_workers += pool is fresh_pool and len(b.deploys) > 1
        assert merged > 1400 and allocating > 200 and on_workers >= 100

    def test_aborted_allocation_and_contained_abort(self):
        holder = block_of([{"id": "h0", "class": "Holder"},
                           {"id": "h1", "class": "Holder"}],
                          [{"target": "h0", "method": "make", "args": [0]},
                           {"target": "h1", "method": "make", "args": [1]},
                           {"target": "h0", "method": "make", "args": [2]}])
        outer = block_of([{"id": "o", "class": "Outer"},
                          {"id": "p", "class": "Outer"}],
                         [{"target": "o", "method": "go", "args": [5]},
                          {"target": "p", "method": "go", "args": [0]}])
        for program, b in ((HOLDER, holder), (OUTER, outer)):
            mined = mine_block(program, b)
            got = split_run(program, b)
            assert got is not None and outputs(got) == outputs(mined)
        assert mine_block(HOLDER, holder).status == [
            "aborted:R-REQUIRE", "committed", "committed"]

    def test_runaway_transaction(self, monkeypatch):
        monkeypatch.setattr(blocksched, "TXN_STEPS", 20_000)
        program = check_clean(TestRunaway.SRC)
        b = block_of(TestRunaway.DEPLOY,
                     [{"target": "a", "method": "deposit", "args": [2]},
                      {"target": "s", "method": "spin"},
                      {"target": "a", "method": "deposit", "args": [3]}])
        mined = mine_block(program, b)
        assert mined.status[1] == "aborted:R-GAS"
        got = split_run(program, b)
        assert got is not None and outputs(got) == outputs(mined)

    @pytest.mark.parametrize("program, txns", [
        (OWNER_CONTRACT, [{"target": "a", "method": "poke"},
                          {"target": "b", "method": "poke"}]),
    ], ids=["top-context"])
    def test_regions_that_may_meet_run_in_one_process(self, program, txns):
        b = block_of([{"id": "a", "class": "Cell"},
                      {"id": "b", "class": "Cell"}], txns)
        assert split_run(program, b) is None
        mined = mine_block(program, b)
        assert serial_execute(program, b) == (mined.final_state_hash,
                                              mined.status)
        assert validate_block(program, mined, b).accepted

    FAULTS = {
        "unknown target": lambda d, t: t[150].update(target="zz"),
        "unknown method": lambda d, t: t[150].update(method="nope"),
        "arity": lambda d, t: t[150].update(args=[]),
        "deploy failure": lambda d, t: d[120].update(args=[-5]),
        "unknown class": lambda d, t: d[120].update({"class": "Nothing"}),
        "broken where": lambda d, t: (
            d[120].update({"class": "Cell", "args": []}),
            t[120].update(method="bump")),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_faults_raise_as_in_one_process(self, fault):
        deploys = accounts(200)
        txns = [{"target": f"a{i}", "method": "deposit", "args": [1]}
                for i in range(200)]
        self.FAULTS[fault](deploys, txns)
        b = block_of(deploys, txns)
        assert split_run(FAULT_PROGRAM, b) is None
        with pytest.raises((OvError, ValueError)) as sharded:
            mine_block(FAULT_PROGRAM, b)
        with pytest.raises((OvError, ValueError)) as one:
            one_process(FAULT_PROGRAM, b)
        assert type(sharded.value) is type(one.value)
        assert str(sharded.value) == str(one.value)

    @pytest.mark.parametrize("fault", ["txn bool", "txn null", "deploy null"])
    def test_argument_types_checked_as_in_one_process(self, fault):
        # a block big enough to split, with one argument of the wrong type:
        # the shard that holds it raises, and the block runs again in one
        # process, which reports it
        n = blocksched.SHARD_MIN_WORK // 2
        deploys = accounts(n)
        txns = [{"target": f"a{i}", "method": "deposit", "args": [1]}
                for i in range(n)]
        bad = deploys if fault.startswith("deploy") else txns
        bad[n // 2]["args"] = [True if fault.endswith("bool") else None]
        b = block_of(deploys, txns)
        assert regions._split(b, 2) is not None
        assert split_run(PROGRAM, b) is None
        with pytest.raises((OvError, ValueError)) as sharded:
            mine_block(PROGRAM, b)
        with pytest.raises((OvError, ValueError)) as one:
            one_process(PROGRAM, b)
        assert type(sharded.value) is type(one.value)
        assert str(sharded.value) == str(one.value)
        assert (type(one.value) is ValueError) == (bad is deploys)

    def test_dropped_edge_in_a_large_block(self):
        b = block_of(accounts(150), bank_txns(random.Random(13), 150))
        mined = mine_block(PROGRAM, b)
        forged = MinedBlock(mined.edges[1:], mined.status,
                            mined.final_state_hash,
                            mined.pre_checks, mined.post_checks)
        with pytest.raises(OvError) as exc:
            validate_block(PROGRAM, forged, b)
        assert exc.value.code == "E-BG-MISMATCH"
        assert f"[{mined.edges[0][0]}, {mined.edges[0][1]}]" in str(exc.value)

    def test_large_block_runs_on_a_worker(self, fresh_pool, monkeypatch):
        two_cpus()
        merges = []
        merge = regions.merge
        monkeypatch.setattr(regions, "merge",
                            lambda *a: merges.append(1) or merge(*a))
        b = block_of(accounts(150), bank_txns(random.Random(11), 150))
        mined = mine_block(PROGRAM, b)
        report = validate_block(PROGRAM, mined, b)
        assert merges == [1, 1]  # both ran in shards
        assert [w.proc.is_alive() for w in fresh_pool.workers] == [True]
        assert report.accepted and report.edges == mined.edges
        assert serial_execute(PROGRAM, b) == (mined.final_state_hash,
                                              mined.status)
        assert outputs(one_process(PROGRAM, b)) == outputs(mined)
        # another program travels to the worker that already runs
        [worker] = fresh_pool.workers
        other = mine_block(FUZZ_PROGRAM, b)
        assert fresh_pool.workers == [worker] and worker.program is FUZZ_PROGRAM
        assert merges == [1, 1, 1]
        assert outputs(other) == outputs(one_process(FUZZ_PROGRAM, b))

    @pytest.mark.parametrize("kind", ["custody", "bank"])
    def test_blocks_at_the_threshold_run_on_a_worker(self, fresh_pool,
                                                     monkeypatch, kind):
        # the smallest blocks that split: seed-1 custody_hot blocks, and a
        # bank block of exactly SHARD_MIN_WORK deploys plus transactions
        two_cpus()
        if kind == "custody":
            blocks = [parse_block(b) for b in
                      bench_module("workloads").custody_blocks(1)]
        else:
            n = blocksched.SHARD_MIN_WORK // 2
            blocks = [block_of(accounts(blocksched.SHARD_MIN_WORK - n),
                               bank_txns(random.Random(19), n))]
        merges = []
        merge = regions.merge
        monkeypatch.setattr(regions, "merge",
                            lambda *a: merges.append(1) or merge(*a))
        for b in blocks:
            mined = mine_block(PROGRAM, b)
            report = validate_block(PROGRAM, mined, b)
            want = one_process(PROGRAM, b)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regions, "usable_cpus", lambda: 1)
                want_report = validate_block(PROGRAM, want, b)
            assert outputs(mined) == outputs(want)
            assert report == want_report and report.accepted
        assert merges == [1, 1] * len(blocks)  # mine and validate split
        assert [w.proc.is_alive() for w in fresh_pool.workers] == [True]

    def test_heaviest_shard_first(self):
        # the caller runs jobs[0], and a worker wakes a little after the
        # caller starts: the caller gets the heaviest shard
        def units(part):
            return len(part[0]) + len(part[1])

        custody = [parse_block(b) for b in
                   bench_module("workloads").custody_blocks(1)[:8]]
        for b in [*custody, *fuzz_blocks(2029, 300)]:
            for shards in (2, 3):
                parts = regions._split(b, shards)
                if parts is not None:
                    got = [units(p) for p in parts]
                    assert got == sorted(got, reverse=True), (shards, b)

        class RecordingPool(InProcessPool):
            def __init__(self):
                self.units = []

            def run(self, program, jobs):
                self.units.append([len(blk.deploys) + len(blk.txns)
                                   for blk, _creators in jobs])
                return super().run(program, jobs)

        pool = RecordingPool()
        for b in custody:
            assert outputs(split_run(PROGRAM, b, 2, pool)) == \
                outputs(one_process(PROGRAM, b))
        # custody regions weigh 15, 10, 6, 5, 4, 3, 3 and 2: no even split
        assert pool.units == [[25, 23]] * len(custody)


WORKER_SCRIPT = """\
import os, sys
from ovlang import blocksched, regions
from ovlang.desugar import desugar
from ovlang.parser import parse_program
from ovlang.typecheck import check_program

program = desugar(parse_program(open(sys.argv[1]).read())[0])
check_program(program)
block = blocksched.parse_block({
    "deploy": [{"id": f"a{i}", "class": "Account", "args": [50]}
               for i in range(150)],
    "txns": [{"target": f"a{i}", "method": "deposit", "args": [1]}
             for i in range(150)]})
blocksched.mine_block(program, block)
print(" ".join(str(w.proc.pid) for w in regions.POOL.workers), flush=True)
if sys.argv[2] == "abrupt":
    os._exit(0)  # no exit handlers: the worker sees its pipe close
"""


def _env() -> dict:
    """This environment, with ovlang's sources importable."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def _exited(pid: int) -> bool:
    """The process is gone, or a zombie its parent has yet to reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestWorkers:
    """Workers start only for large blocks, end with the process that
    started them, and a dead one costs one block its parallelism, not its
    result."""

    def test_small_work_starts_no_worker(self, fresh_pool, capsys):
        from ovlang import cli
        bank, conflict = str(CORPUS / "bank.ov"), str(CORPUS / "blocks" /
                                                      "conflict.json")
        assert cli.main(["check", bank]) == 0
        assert cli.main(["run", bank]) == 0
        assert cli.main(["simulate", bank, conflict]) == 0
        n = blocksched.SHARD_MIN_WORK // 2 - 1
        b = block_of(accounts(n), bank_txns(random.Random(3), n))
        validate_block(PROGRAM, mine_block(PROGRAM, b), b)
        assert multiprocessing.active_children() == []
        assert fresh_pool.workers == []

    def test_corpus_blocks_are_small(self):
        # the CLI smoke tests and the test below run these blocks to show
        # that small work starts and imports no worker machinery
        for path in sorted((CORPUS / "blocks").glob("*.json")):
            b = parse_block(json.loads(path.read_text(encoding="utf-8")))
            assert len(b.deploys) + len(b.txns) < blocksched.SHARD_MIN_WORK, \
                path.name

    def test_no_fork_runs_in_one_process(self, fresh_pool, monkeypatch):
        # where there is no fork (Windows) a large block starts no worker
        # and gives what one process gives
        b = block_of(accounts(150), bank_txns(random.Random(11), 150))
        want = outputs(one_process(PROGRAM, b))
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(regions, "usable_cpus", lambda: 2)
        assert outputs(mine_block(PROGRAM, b)) == want
        assert multiprocessing.active_children() == []
        assert fresh_pool.workers == []

    def test_small_work_imports_no_worker_machinery(self):
        # the import alone costs a process that never splits a block memory
        script = (
            "import io, sys, contextlib\n"
            "from ovlang.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['check', {str(CORPUS / 'bank.ov')!r}])\n"
            f"    main(['run', {str(CORPUS / 'bank.ov')!r}])\n"
            f"    main(['simulate', {str(CORPUS / 'bank.ov')!r}, "
            f"{str(CORPUS / 'blocks' / 'transfers.json')!r}])\n"
            "print(sorted({'ovlang.regions', 'multiprocessing'}"
            " & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

    @pytest.mark.parametrize("how", ["exit", "abrupt"])
    def test_no_worker_outlives_its_process(self, how):
        two_cpus()
        done = subprocess.run(
            [sys.executable, "-c", WORKER_SCRIPT, str(CORPUS / "bank.ov"),
             how], env=_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) == 1
        deadline = time.monotonic() + 10
        while not all(map(_exited, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_exited, pids))

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_split_that_fails_says_so(self, fresh_pool, monkeypatch,
                                        capsys, tmp_path, where):
        # a shard that raises what one process never raises is a fault of
        # the split, on a worker's shard as on the caller's: it reaches
        # cli.main as it would from one process, and nothing is reported
        two_cpus()
        from ovlang import cli
        fresh_pool.close()  # a worker forked from here inherits the patch
        parent, run_shard = os.getpid(), regions._run_shard

        def broken(*args):
            if (os.getpid() == parent) == (where == "caller"):
                raise RuntimeError(f"a fault on the {where}'s shard")
            return run_shard(*args)

        monkeypatch.setattr(regions, "_run_shard", broken)
        n = blocksched.SHARD_MIN_WORK // 2
        path = tmp_path / "block.json"
        path.write_text(json.dumps({
            "deploy": accounts(n),
            "txns": bank_txns(random.Random(19), n)}), encoding="utf-8")
        with pytest.raises(RuntimeError, match=f"on the {where}'s shard"):
            cli.main(["simulate", str(CORPUS / "bank.ov"), str(path)])
        assert capsys.readouterr().out == ""
        assert fresh_pool.workers == []  # the failed split closed the pool

    def test_killed_worker_costs_one_block_its_parallelism(self, fresh_pool):
        two_cpus()
        b = block_of(accounts(150), bank_txns(random.Random(17), 150))
        first = mine_block(PROGRAM, b)
        [worker] = fresh_pool.workers
        os.kill(worker.proc.pid, signal.SIGKILL)
        worker.proc.join(10)
        assert not worker.proc.is_alive()
        began = time.monotonic()
        assert outputs(mine_block(PROGRAM, b)) == outputs(first)
        assert time.monotonic() - began < 10
        assert fresh_pool.workers == []  # the dead worker was dropped
        assert outputs(mine_block(PROGRAM, b)) == outputs(first)
        assert [w.proc.is_alive() for w in fresh_pool.workers] == [True]
