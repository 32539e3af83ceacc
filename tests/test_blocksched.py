"""Block execution: interference, conflict graphs, miner, validator."""
import itertools
import random

import pytest

from ovlang.ast import Contract, CtxBot, CtxLoc, CtxTop
from ovlang.blocksched import (Block, MinedBlock, _execute, _prepare,
                               build_conflict_graph, interferes, mine_block,
                               parse_block, serial_execute, validate_block)
from ovlang.diagnostics import OvError
from ovlang.ownership import OwnershipTree

from conftest import CORPUS, check_clean

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
