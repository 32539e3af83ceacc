"""Block execution: interference, conflict graphs, miner, validator."""
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from ovlang import ast, blocksched, ownership, runtime
from ovlang.ast import Contract, CtxBot, CtxLoc, CtxTop
from ovlang.blocksched import (Block, MinedBlock, Sct, _execute, _prepare,
                               build_conflict_graph, interferes, mine_block,
                               parse_block, serial_execute, validate_block)
from ovlang.diagnostics import OvError
from ovlang.ownership import OwnershipTree
from ovlang.runtime import Machine
from ovlang.typecheck import ClassTable

from conftest import CORPUS, bench_module, check_clean

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


def all_pairs(scts, tree):
    """The reference graph: every pair, in index order, through interferes."""
    return [(i, j) for i in range(len(scts)) for j in range(i + 1, len(scts))
            if interferes(scts[i].contract, scts[j].contract, tree)]


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
            scts = [Sct(index=i, target="", method="", args=[],
                        contract=Contract(rng.choice(pool), rng.choice(pool)))
                    for i in range(rng.randrange(0, 25))]
            want = all_pairs(scts, tree)
            assert build_conflict_graph(scts, tree) == want
            checked += len(want)
        assert checked > 1000  # the forests really produced edges

    def test_top_context_pairs_with_everyone(self):
        tree, _ = random_forest(random.Random(2))
        scts = [Sct(index=i, target="", method="", args=[], contract=d)
                for i, d in enumerate([Contract(CtxLoc(2), CtxLoc(2)),
                                       Contract(TOP, BOT),
                                       Contract(BOT, CtxLoc(0)),
                                       Contract(CtxLoc(1), BOT)])]
        # the Top reader meets both writers but not the other reader
        assert build_conflict_graph(scts, tree) == all_pairs(scts, tree) == [
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
                calls[name] += 1
                # fail at once rather than after a quadratic run
                assert calls[name] <= bound, f"{name}: over {bound} calls"
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(blocksched, "interferes",
                            counted("interferes", interferes, 2 * (n + edges)))
        monkeypatch.setattr(OwnershipTree, "runtime_inside",
                            counted("runtime_inside",
                                    OwnershipTree.runtime_inside, 4 * n))
        mined = mine_block(PROGRAM, block_of(accounts(n), txns))
        assert len(mined.edges) == edges
        assert calls["interferes"] >= edges  # the counter really counted


    def test_superclass_walks_once_per_class(self, monkeypatch):
        # a 500-account block evaluates thousands of invariants, looks up
        # a method per call and lists fields per hash; each class's
        # superclass chain must still be walked once per machine
        walks = Counter()
        walk = ClassTable._walk

        def counted(table, name):
            walks[(table, name)] += 1
            assert walks[(table, name)] <= 1, f"{name} walked twice"
            return walk(table, name)

        monkeypatch.setattr(ClassTable, "_walk", counted)
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

    def test_superclass_args_once_per_object(self, monkeypatch):
        # binding a transaction to its target reads the contract's context
        # arguments at the target's own class, which needs no walk of its
        # classes; only its kept context bindings walk them, once
        walks = Counter()
        views = ClassTable.views

        def counted(table, name, args, this_image):
            # an object's walk starts from its own context arguments
            walks[id(args)] += 1
            assert walks[id(args)] <= 1, "an object's classes walked twice"
            return views(table, name, args, this_image)

        monkeypatch.setattr(ClassTable, "views", counted)
        txns = bank_txns(random.Random(9), 500)
        mined = mine_block(PROGRAM, block_of(accounts(500), txns))
        assert len(mined.status) == 500
        assert walks  # the counter really counted


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
# and transactions, and a naive replay's (pre_checks, post_checks).
PINNED_BLOCKS = {
    "blocks/conflict.json": (1, "cb1ed28b588a2b30", "c5873ed02038cd2e",
                             (0, 3, 3, 57), (4, 5)),
    "blocks/transfers.json": (0, "6f1ec1c733b183fe", "a815b4520a8502c2",
                              (0, 6, 6, 111), (6, 9)),
    "bank:0": (210, "ba353fc15bc12af2", "582fb3120a3f07d9",
               (0, 834, 834, 16840), (1000, 1500)),
    "bank:1": (232, "43a0e38bd27ac495", "68e17dbc308965d2",
               (0, 834, 834, 16840), (1000, 1500)),
    "custody:0": (137, "fbb11685874ef5f6", "98924c69e7a3fd88",
                  (7, 78, 85, 1584), (260, 284)),
    "custody:1": (140, "bdc9ffc7b6f572fc", "a44054870e09aa05",
                  (9, 78, 87, 1584), (260, 284)),
    "custody:2": (137, "e32ad7f40765b4eb", "be338e680119a0d7",
                  (6, 78, 84, 1584), (260, 284)),
    "custody:3": (119, "06e09148fae43bf7", "1076f0692d5ed511",
                  (7, 78, 85, 1584), (260, 284)),
    "custody:4": (135, "1100843027f7c526", "5fe8136fac6dafb8",
                  (6, 78, 84, 1584), (260, 284)),
    "custody:5": (126, "505dc4f368355b5c", "655539cbc8726cc7",
                  (7, 78, 85, 1584), (260, 284)),
    "custody:6": (141, "86ce3abf978b90e9", "8ac241b4cd469d6c",
                  (7, 78, 85, 1584), (260, 284)),
    "custody:7": (128, "6b2b050d5be55fed", "10af502b9fd90de9",
                  (7, 78, 85, 1584), (260, 284)),
}


PINNED_INPUTS = _pinned_inputs()


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
        mined = mine_block(PROGRAM, block)
        assert mined.edges == edges and mined.status == status
        assert validate_block(PROGRAM, mined, block).accepted

    @pytest.mark.parametrize("name", sorted(
        n for n in PINNED_INPUTS if n.startswith("custody:")))
    def test_contracts_substituted_once_per_object_method(self, name,
                                                          monkeypatch):
        # a transaction's contract and a deduced atomic's depend only on
        # the target object and the method: custody blocks call the same
        # few targets again and again, yet each (object, method) pair is
        # substituted once per machine
        calls = Counter()

        def counted(x, formals, actuals, this_image):
            key = (id(x), str(this_image))
            calls[key] += 1
            assert calls[key] == 1, f"{x} substituted twice at {this_image}"
            return ownership.substitute(x, formals, actuals, this_image)

        monkeypatch.setattr(runtime, "substitute", counted)
        # where a caller imported the function itself
        monkeypatch.setattr(blocksched, "substitute", counted, raising=False)
        machine, scts = _prepare(PROGRAM, parse_block(PINNED_INPUTS[name]))
        _execute(machine, scts, range(len(scts)))
        assert sum(calls.values()) >= len({s.loc for s in scts})


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
    ])
    def test_schema_violations(self, data):
        with pytest.raises(ValueError):
            parse_block(data)
