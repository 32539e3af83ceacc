"""Transactional interpreter: counters, rollback, failure flow, reports."""
import copy
import json
import random

import pytest

from ovlang import ast, blocksched, closures, runtime
from ovlang.ast import Contract, CtxBot, CtxLoc, CtxTop
from ovlang.desugar import desugar
from ovlang.diagnostics import OvError
from ovlang.ownership import substitute
from ovlang.parser import parse_program
from ovlang.runtime import FailureValue, Loc, Machine, Thread
from ovlang.typecheck import check_program

from conftest import (CORPUS, POSITIVE_FILES, RUNNABLE_FILES, check_clean,
                      run_source)

ACCOUNT = """\
class Account[o] {
    int amount = 0;
    inv amount >= 0;

    Account(int amt) {
        amount = amt;
    }

    int balance() <this,bot> {
        return amount;
    }

    void deposit(int x) <this,this> {
        amount += x;
    }

    void withdraw(int x) <this,this> {
        amount -= x;
    }
}
"""

CELL = """\
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
"""


def machine_for(src: str, **kw) -> Machine:
    return Machine(check_clean(src), **kw)


class TestCounters:
    SRC = CELL + """\
main {
    Cell<top> c = new Cell<top>();
    atomic c.set(5);
    atomic c.get();
}
"""

    def test_contract_directed_exact(self):
        rep = run_source(self.SRC)
        # constructor commit revalidates the creation; the set-commit
        # revalidates the cell; the get-commit revalidates nothing; the
        # root commit covers the one live object
        assert rep.pre_checks == 0
        assert rep.post_checks == 3
        assert rep.invariant_evals == 3
        assert rep.lemma3

    def test_naive_exact(self):
        rep = run_source(self.SRC, naive=True)
        # begin charges |subtree(V)|, every invoke/return charges the
        # receiver subtree, every commit charges |subtree(V)| + creations
        assert rep.pre_checks == 4
        assert rep.post_checks == 6
        assert rep.lemma3

    def test_contract_mode_never_costlier(self):
        a = run_source(self.SRC)
        b = run_source(self.SRC, naive=True)
        assert a.pre_checks + a.post_checks <= b.pre_checks + b.post_checks

    def test_read_path_commit_free(self):
        # a read-only transaction (I = bot) revalidates nothing at commit:
        # total post checks = ctor creation + root commit only
        src = ACCOUNT + """\
main {
    Account<top> a = new Account<top>(50);
    atomic a.balance();
}
"""
        rep = run_source(src)
        assert rep.post_checks == 2
        naive = run_source(src, naive=True)
        assert naive.post_checks == 4


class TestRollback:
    OVERDRAW = ACCOUNT + """\
main {
    Account<top> a = new Account<top>(10);
    atomic a.withdraw(25);
    a.deposit(100);
}
"""

    def test_abort_restores_state(self):
        m = machine_for(ACCOUNT)
        loc = m.run_expression(ast.New(ast.ClassType("Account",
                                                     [ast.CtxTop()]),
                                       [ast.Const(10)]))
        assert isinstance(loc, Loc)
        before = m.state_hash()
        out = m.run_expression(
            ast.Atomic(None, ast.Call(ast.Var("a"), "withdraw",
                                      [ast.Const(25)]), deduced=True),
            {"a": loc, "#ctx": {}})
        assert out == FailureValue("R-POST-FAIL", "Validity fails post-check")
        assert m.state_hash() == before
        assert m.heap[loc.index].fields["amount"] == 10

    def test_failure_poisons_the_rest_of_main(self):
        rep = run_source(self.OVERDRAW)
        assert [f["code"] for f in rep.failures] == ["R-POST-FAIL"]
        assert rep.lemma3  # the aborted write never landed
        # deposit(100) was skipped: the state equals the post-constructor one
        plain = run_source(ACCOUNT + "main { Account<top> a = new Account<top>(10); }")
        assert rep.state_hash == plain.state_hash

    def test_raw_write_flags_lemma3(self):
        src = ACCOUNT + """\
main {
    Account<top> a = new Account<top>(10);
    a.withdraw(25);
}
"""
        rep = run_source(src)
        assert not rep.lemma3
        assert rep.objects == 1 and rep.valid == 0
        (fail,) = rep.failures
        assert fail["code"] == "R-POST-FAIL"
        assert fail["msg"] == "invalid at end of run: l0"

    def test_ctor_failure_deallocates(self):
        rep = run_source(ACCOUNT + "main { Account<top> a = new Account<top>(0 - 5); }")
        assert rep.objects == 0
        assert rep.lemma3
        assert [f["code"] for f in rep.failures] == ["R-POST-FAIL"]

    def test_inner_abort_contained_by_outer_commit(self):
        src = ACCOUNT + """\
class Wallet[o] {
    Account<this> a = new Account<this>(10);
    inv a != null;

    void risky() <this,this> {
        a.deposit(5);
        atomic a.withdraw(100);
    }
}
main {
    Wallet<top> w = new Wallet<top>();
    atomic w.risky();
}
"""
        rep = run_source(src)
        # the inner overdraw rolled back alone; the outer transaction kept
        # its deposit and committed carrying the failure as a value
        assert [f["code"] for f in rep.failures] == ["R-POST-FAIL"]
        assert rep.lemma3
        assert rep.objects == 2

        m = machine_for(src)
        m.run(100000)
        accounts = [o for o in m.heap if o and o.class_name == "Account"]
        assert accounts[0].fields["amount"] == 15


class TestFailures:
    def test_require_terminates_thread(self):
        rep = run_source("main { require(1 > 2); }")
        assert [f["code"] for f in rep.failures] == ["R-REQUIRE"]
        assert rep.lemma3

    def test_valid_expression(self):
        src = ACCOUNT + """\
main {
    Account<top> a = new Account<top>(5);
    require(valid a);
}
"""
        rep = run_source(src)
        assert not rep.failures

    def test_valid_detects_breakage(self):
        src = ACCOUNT + """\
main {
    Account<top> a = new Account<top>(5);
    a.withdraw(9);
    require(valid a);
}
"""
        rep = run_source(src)
        assert "R-REQUIRE" in [f["code"] for f in rep.failures]
        assert not rep.lemma3

    @pytest.mark.parametrize("naive", [False, True])
    def test_valid_evaluates_only_what_the_valid_set_lacks(self, naive):
        # a fresh account is in the valid set, which vouches for it: `valid`
        # evaluates nothing; a write drops it, and `valid` evaluates it
        # again and finds it broken. --naive evaluates it either way.
        m = machine_for(ACCOUNT, naive=naive)
        a = m.run_expression(ast.New(ast.ClassType("Account", [CtxTop()]),
                                     [ast.Const(5)]))
        env = {"a": a, "#ctx": {}}
        valid = ast.Valid(ast.Var("a"))
        assert a.index in m.sigma
        before = m.invariant_evals
        assert m.run_expression(valid, env) is True
        assert m.invariant_evals - before == (1 if naive else 0)
        m.run_expression(ast.FieldSet(ast.Var("a"), "amount",
                                      ast.Const(-4)), env)
        assert a.index not in m.sigma
        before = m.invariant_evals
        assert m.run_expression(valid, env) is False
        assert m.invariant_evals - before == 1
        assert a.index not in m.sigma

    def test_fuel_exhaustion(self):
        with pytest.raises(OvError) as exc:
            run_source(CELL + "main { Cell<top> c = new Cell<top>(); }",
                       fuel=1)
        assert exc.value.code == "E-FUEL"

    def test_dangling_write_fails_softly(self):
        m = machine_for(CELL)
        loc = m.run_expression(ast.New(ast.ClassType("Cell", [ast.CtxTop()]),
                                       []))
        m.heap[loc.index] = None
        m.tree.remove(loc.index)
        out = m.run_expression(
            ast.Call(ast.Var("c"), "set", [ast.Const(1)]),
            {"c": loc, "#ctx": {}})
        assert isinstance(out, FailureValue)
        assert out.code == "E-DANGLING"

    def test_contract_naming_a_removed_location_is_dangling(self):
        # a begin whose V or I is a location no longer in the tree is
        # E-DANGLING, naming V's location first, a bot V's I included,
        # before it checks anything
        m = machine_for(CELL)
        live = m.run_expression(ast.New(ast.ClassType("Cell", [CtxTop()]),
                                        [])).index
        gone = len(m.heap)
        m.run_expression(ast.Atomic(Contract(CtxTop(), CtxTop()), ast.Seq(
            ast.New(ast.ClassType("Cell", [CtxTop()]), []),
            ast.Require(ast.Const(False)))))
        assert m.heap[gone] is None
        evals = m.invariant_evals
        for v, i in [(CtxLoc(gone), CtxLoc(live)), (CtxLoc(live), CtxLoc(gone)),
                     (CtxBot(), CtxLoc(gone)), (CtxTop(), CtxLoc(gone)),
                     (CtxLoc(gone), CtxLoc(gone + 5))]:
            with pytest.raises(OvError) as exc:
                m.run_expression(ast.Atomic(Contract(v, i), ast.Const(1)))
            assert (exc.value.code, exc.value.msg) == (
                "E-DANGLING", f"location l{gone} is not in the heap")
            assert m.alpha is None and m.invariant_evals == evals

    # C binds B's p to `*`, which denotes no subtree: what of B reads p
    # fails where it is used, and the rest of B runs on a C as it would
    STAR_SUPER = CELL + """\
class Pair[o, q] {
    int v = 0;
}

class B[o, p] {
    int v = 0;
    inv v >= 0;

    int get() <this,bot> {
        return v;
    }

    void set(int x) <this,this> {
        v = x;
    }

    int peek() <p,bot> {
        return 7;
    }

    void own() <this,this> {
        Cell<p> c = new Cell<p>();
    }

    void pair() <this,this> {
        Pair<this, p> q = new Pair<this, p>();
        v = 5;
    }
}

class C[o] extends B<o, *> {
    int w = 0;
}
"""

    @pytest.mark.parametrize("naive, counts", [
        (False, (1, 0, 4, 4, 0, 4, 4)), (True, (1, 5, 7, 5, 1, 6, 4))])
    def test_star_in_extends_fails_only_where_used(self, naive, counts):
        def run(main: str):
            return run_source(self.STAR_SUPER + main, naive=naive)

        rep = run("""\
main {
    C<top> c = new C<top>();
    atomic c.set(3);
    int r = c.get();
    atomic c.set(r + 1);
    require(valid c);
}
""")
        paired = run("""\
main {
    C<top> c = new C<top>();
    c.pair();
}
""")
        assert not rep.failures and not paired.failures
        assert rep.lemma3 and paired.lemma3
        assert (rep.objects, rep.pre_checks, rep.post_checks,
                rep.invariant_evals, paired.pre_checks, paired.post_checks,
                paired.invariant_evals) == counts
        assert paired.objects == 2
        # an object owned by `*`
        with pytest.raises(OvError) as exc:
            run("main {\n    C<top> c = new C<top>();\n    c.own();\n}\n")
        assert (exc.value.code, exc.value.msg) == (
            "E-STUCK", "object owner resolved to *")

    def test_star_in_extends_begins_no_frame(self):
        m = machine_for(self.STAR_SUPER)
        c = m.run_expression(ast.New(ast.ClassType("C", [CtxTop()]), []))
        env = {"this": c, "#ctx": m.heap[c.index].bindings["B"]}
        evals = m.invariant_evals
        for v, i in [(ast.CtxParam("p"), CtxBot()),
                     (CtxTop(), ast.CtxParam("p"))]:
            with pytest.raises(OvError) as exc:
                m.run_expression(ast.Atomic(Contract(v, i), ast.Const(1)),
                                 env)
            assert (exc.value.code, exc.value.msg) == (
                "E-DANGLING", "location * is not in the heap")
            assert m.alpha is None and m.invariant_evals == evals
        # a block transaction on a method whose contract reads p; one that
        # does not commits
        program = check_clean(self.STAR_SUPER)

        def block(*methods):
            return blocksched.parse_block({
                "deploy": [{"id": "c", "class": "C", "args": []}],
                "txns": [{"target": "c", "method": name, "args": args}
                         for name, args in methods]})

        with pytest.raises(OvError) as exc:
            blocksched.mine_block(program, block(("set", [4]), ("peek", [])))
        assert (exc.value.code, exc.value.msg) == (
            "E-DANGLING", "location * is not in the heap")
        mined = blocksched.mine_block(program, block(("set", [4]),
                                                     ("pair", [])))
        assert mined.status == ["committed", "committed"]
        assert mined.edges == [(0, 1)]


class TestReceiverFaults:
    """A null or removed receiver, for each use of a receiver, inside an
    outer <top,top> transaction: the outer value (a failure's code) and
    whether the outer transaction committed."""

    SRC = CELL + """\
main {
    Cell<top> c = null;
    int w = c.v;
    c.v = 1;
    c.set(1);
    atomic c.set(1);
    atomic c.v = 1;
    bool b = valid c;
}
"""
    USES = ("read", "write", "call", "atomic call", "atomic write", "valid")

    WANT = {
        ("null", "read"): ("R-NULL", False),
        ("null", "write"): ("R-NULL", False),
        ("null", "call"): ("R-NULL", False),
        ("null", "atomic call"): ("R-NULL", False),
        ("null", "atomic write"): ("R-NULL", False),
        ("null", "valid"): (None, True),  # valid null is false, no fault
        ("removed", "read"): ("E-DANGLING", False),
        ("removed", "write"): ("E-DANGLING", False),
        ("removed", "call"): ("E-DANGLING", False),
        ("removed", "atomic call"): ("E-DANGLING", False),
        # a deduced write checks its receiver before it begins, as a
        # deduced call does, so the fault aborts the outer transaction
        ("removed", "atomic write"): ("E-DANGLING", False),
        ("removed", "valid"): ("E-DANGLING", False),
    }

    def test_faults_by_receiver_and_use(self):
        core = check_clean(self.SRC)
        m = Machine(ast.Program(core.classes, None))
        # the statements after the declaration of c, each the body of an
        # outer <top,top> transaction (written in source, it would be
        # normalized to <top,bot>)
        stmts, x = [], core.main.second
        while isinstance(x, ast.Seq):
            stmts.append(x.first)
            x = x.second
        stmts.append(x)
        assert len(stmts) == len(self.USES)
        top_top = Contract(CtxTop(), CtxTop())
        # an object created in an aborted transaction is removed
        n = len(m.heap)
        out = m.run_expression(ast.Atomic(
            top_top, ast.Seq(ast.New(ast.ClassType("Cell", [CtxTop()]), []),
                             ast.Require(ast.Const(False)))))
        assert out.code == "R-REQUIRE" and m.heap[n] is None
        receivers = {"null": None, "removed": m.locs[n]}
        got = {}
        for rname, recv in receivers.items():
            for use, stmt in zip(self.USES, stmts):
                before = m.root_commits
                v = m.run_expression(ast.Atomic(top_top, stmt),
                                     {"c": recv, "#ctx": {}})
                got[rname, use] = (v.code if isinstance(v, FailureValue)
                                   else v, m.root_commits > before)
                assert m.alpha is None and len(m.heap) == n + 1
        assert got == self.WANT


class TestEvents:
    def test_commit_merges_events_in_order(self):
        src = """\
class Log[o] {
    int n = 0;
    void go() <this,this> {
        emit Started(n);
        n = n + 1;
        emit Finished(n);
    }
}
main {
    Log<top> g = new Log<top>();
    atomic g.go();
    emit Outside(9);
}
"""
        rep = run_source(src)
        assert rep.events == [
            {"name": "Started", "args": [0]},
            {"name": "Finished", "args": [1]},
            {"name": "Outside", "args": [9]},
        ]

    def test_abort_discards_events(self):
        src = ACCOUNT + """\
class Teller[o] {
    Account<this> a = new Account<this>(10);
    inv a != null;

    void drain() <this,this> {
        emit Draining(0);
        a.withdraw(99);
    }
}
main {
    Teller<top> t = new Teller<top>();
    atomic t.drain();
}
"""
        rep = run_source(src)
        assert rep.events == []
        assert [f["code"] for f in rep.failures] == ["R-POST-FAIL"]

    def test_event_args_serialize_locations(self):
        src = CELL + """\
main {
    Cell<top> c = new Cell<top>();
    emit Made(c);
}
"""
        rep = run_source(src)
        assert rep.events == [{"name": "Made", "args": ["l0"]}]


class TestThreads:
    SPAWN = CELL + """\
main {
    Cell<top> c = new Cell<top>();
    fork atomic c.set(1);
    fork atomic c.set(1);
    atomic c.set(1);
}
"""

    def test_forked_threads_all_run(self):
        m = machine_for(self.SPAWN)
        rep = m.run()
        assert rep.lemma3
        assert len(m.threads) == 3
        assert all(t.done for t in m.threads)

    def test_deterministic_for_a_seed(self):
        a = run_source(self.SPAWN, seed=0)
        b = run_source(self.SPAWN, seed=0)
        assert a.to_json() == b.to_json()

    def test_commutative_effects_agree_across_seeds(self):
        hashes = {run_source(self.SPAWN, seed=s).state_hash
                  for s in range(4)}
        assert len(hashes) == 1

    COUNTER = (CORPUS / "spawn.ov").read_text(encoding="utf-8") \
        .split("main {")[0]

    @classmethod
    def fork_program(cls, rng: random.Random) -> str:
        lines = ["main {", "    Counter<top> c = new Counter<top>();",
                 "    Counter<top> d = new Counter<top>();"]
        for _ in range(rng.randrange(1, 30)):
            r, x = rng.random(), rng.choice("cd")
            if r < 0.4:
                lines.append(f"    fork atomic {x}.tick();")
            elif r < 0.55:
                lines.append(f"    fork {{ atomic {x}.tick(); {x}.total(); "
                             f"atomic c.tick(); }};")
            elif r < 0.65:
                lines.append(f"    fork {{ fork atomic {x}.tick(); "
                             f"{x}.total(); }};")
            elif r < 0.85:
                lines.append(f"    atomic {x}.tick();")
            else:
                lines.append(f"    {x}.total();")
        return cls.COUNTER + "\n".join(lines) + "\n}\n"

    @staticmethod
    def reference_pick(cursor: int, done: list, alpha):
        """Round robin as a scan: the thread inside a transaction, else the
        first thread not done from the cursor on, wrapping around. Returns
        the pick and the next cursor."""
        if alpha is not None:
            return alpha, cursor
        n = len(done)
        for i in range(n):
            idx = (cursor + i) % n
            if not done[idx]:
                return idx, idx + 1
        return None, cursor

    def test_schedule_matches_round_robin_reference(self):
        rng = random.Random(41)
        for _ in range(40):
            core = check_clean(self.fork_program(rng))
            for seed in (0, 1, 2, 5, 17):
                m = Machine(core, seed=seed)
                picked, expected, cursor = [], [], [seed]
                reduce = m._reduce

                def recorded(t, m=m, reduce=reduce, picked=picked,
                             expected=expected, cursor=cursor):
                    want, cursor[0] = self.reference_pick(
                        cursor[0], [th.done for th in m.threads], m.alpha)
                    expected.append(want)
                    picked.append(t.tid)
                    reduce(t)

                m._reduce = recorded
                m.run()
                assert picked == expected
                assert all(t.done for t in m.threads) and not m.live

    def test_fuel_runs_out_only_with_live_threads(self):
        core = check_clean(self.fork_program(random.Random(3)))
        m = Machine(core)
        m.run()
        needed = m.steps
        # the last step may use the last unit of fuel
        assert Machine(core).run(fuel=needed).lemma3
        with pytest.raises(OvError) as exc:
            Machine(core).run(fuel=needed - 1)
        assert exc.value.code == "E-FUEL"


class TestArguments:
    """A call's, a `new`'s, a binary operator's and an `emit`'s arguments
    run left to right, and one that fails stops the ones after it."""

    COUNTER = """\
class Counter[o] {
    int n = 0;
    inv n >= 0;

    int bump() <this,this> {
        n = n + 1;
        return n;
    }

    int take(int a, int b, int c) <this,bot> {
        return a * 100 + b * 10 + c;
    }
}

class Triple[o] {
    int x;
    int y;
    int z;

    Triple(int a, int b, int c) {
        x = a;
        y = b;
        z = c;
    }
}
"""

    def run(self, body: str) -> tuple[Machine, object]:
        m = machine_for(self.COUNTER + "main {\n"
                        "    Counter<top> c = new Counter<top>();\n"
                        + body + "}\n")
        return m, m.run()

    def test_left_to_right(self):
        m, rep = self.run("""\
    int t = c.take(c.bump(), c.bump(), c.bump());
    Triple<top> p = new Triple<top>(c.bump(), c.bump(), c.bump());
    int d = c.bump() - c.bump();
    emit Order(c.bump(), c.bump(), t, d);
""")
        assert not rep.failures
        assert rep.events == [{"name": "Order", "args": [9, 10, 123, -1]}]
        assert [obj.fields for obj in m.heap] == [
            {"n": 10}, {"x": 4, "y": 5, "z": 6}]

    @pytest.mark.parametrize("stmt, count", [
        ("c.take(c.bump(), 1 / 0, c.bump());", 1),
        ("new Triple<top>(c.bump(), 1 / 0, c.bump());", 1),
        ("int d = (1 / 0) - c.bump();", 0),
        ("emit Order(c.bump(), 1 / 0, c.bump());", 1),
    ], ids=["call", "new", "operator", "emit"])
    def test_a_failed_argument_stops_the_rest(self, stmt, count):
        m, rep = self.run(f"    {stmt}\n    c.bump();\n")
        assert [f["code"] for f in rep.failures] == ["R-DIV0"]
        assert [obj.fields for obj in m.heap] == [{"n": count}]
        assert rep.events == [] and rep.lemma3


class TestReport:
    def test_json_schema(self):
        rep = run_source(CELL + "main { Cell<top> c = new Cell<top>(); }")
        assert set(rep.to_json()) == {
            "lemma3", "objects", "valid", "pre_checks", "post_checks",
            "invariant_evals", "events", "state_hash"}

    def test_state_hash_tracks_fields_and_validity(self):
        m1 = machine_for(CELL)
        m2 = machine_for(CELL)
        new = ast.New(ast.ClassType("Cell", [ast.CtxTop()]), [])
        m1.run_expression(new)
        m2.run_expression(new)
        assert m1.state_hash() == m2.state_hash()
        m2.heap[0].fields["v"] = 3
        assert m1.state_hash() != m2.state_hash()
        m2.heap[0].fields["v"] = 0
        assert m1.state_hash() == m2.state_hash()
        m2.sigma.discard(0)
        assert m1.state_hash() != m2.state_hash()


@pytest.mark.parametrize("path", RUNNABLE_FILES, ids=lambda p: p.name)
def test_corpus_counter_dominance(path):
    src = path.read_text(encoding="utf-8")
    direct = run_source(src)
    naive = run_source(src, naive=True)
    assert (direct.pre_checks + direct.post_checks
            <= naive.pre_checks + naive.post_checks)
    assert direct.state_hash == naive.state_hash


# What every corpus run reports, pinned: state hash, (pre, post, evals)
# counters in both modes, events and reduction steps. A change to any
# reduction rule that alters behaviour or step counts shows here.
PINNED_RUNS = {
    'auction.ov': {
        'state_hash': 'a4b7434ec94bf17928b81be12266eb70dd1ca56814e900ba809c43201b1b8431',
        'checks': (0, 9, 9),
        'naive_checks': (12, 17),
        'events': [{'name': 'AuctionEnded', 'args': [9]}],
        'steps': 161,
    },
    'ballot.ov': {
        'state_hash': 'b785b271e17394187410a0c980d7fabaf8176a7cfcb0a8f3ffa6c4365bb55afe',
        'checks': (0, 15, 15),
        'naive_checks': (20, 31),
        'events': [],
        'steps': 271,
    },
    'bank.ov': {
        'state_hash': '744b1c74037beea8f1bdc7359ffbcef3e0213f653ba5057713d34fa4199b9ea7',
        'checks': (1, 7, 8),
        'naive_checks': (20, 25),
        'events': [],
        'steps': 153,
    },
    'overdraw.ov': {
        'state_hash': '3f9a4c8a156adce9fe878fcf90d08d956e2924408935f017887447209ae3d3a7',
        'checks': (0, 2, 2),
        'naive_checks': (1, 3),
        'events': [],
        'steps': 38,
    },
    'purchase.ov': {
        'state_hash': 'b1ead4ade6db159df700d1bb937538799b7494b014b1f0337550ca821eb30c74',
        'checks': (0, 4, 4),
        'naive_checks': (4, 6),
        'events': [{'name': 'PurchaseConfirmed', 'args': []}, {'name': 'ItemReceived', 'args': []}],
        'steps': 77,
    },
    'spawn.ov': {
        'state_hash': '5c4e91e7ea2727dd1e2aed3093734e0b8262ac270ce48d22c152ad74ef494e1f',
        'checks': (0, 5, 5),
        'naive_checks': (7, 9),
        'events': [],
        'steps': 80,
    },
    'token.ov': {
        'state_hash': '484018295c0013519f8e00253dd36480ade1c037ee13ceb51496673d5fe3d1aa',
        'checks': (0, 4, 4),
        'naive_checks': (7, 9),
        'events': [{'name': 'Transfer', 'args': [30]}, {'name': 'Approval', 'args': [5]}],
        'steps': 183,
    },
}

# the thread reduced at each step of corpus/spawn.ov (thread ids)
SPAWN_SCHEDULE = ("0000000000000000101011111111111111012020222222222222220200"
                  "0000000000000000000000")


@pytest.mark.parametrize("path", RUNNABLE_FILES, ids=lambda p: p.name)
def test_corpus_runs_are_pinned(path):
    core = check_clean(path.read_text(encoding="utf-8"))
    m = Machine(core)
    rep = m.run()
    naive = Machine(core, naive=True).run()
    assert {
        "state_hash": rep.state_hash,
        "checks": (rep.pre_checks, rep.post_checks, rep.invariant_evals),
        "naive_checks": (naive.pre_checks, naive.post_checks),
        "events": rep.events,
        "steps": m.steps,
    } == PINNED_RUNS[path.name]


def test_round_robin_schedule_is_pinned(monkeypatch):
    order = []
    reduce = Machine._reduce

    def recorded(self, t):
        order.append(t.tid)
        reduce(self, t)

    monkeypatch.setattr(Machine, "_reduce", recorded)
    Machine(check_clean((CORPUS / "spawn.ov").read_text(encoding="utf-8"))
            ).run()
    assert "".join(map(str, order)) == SPAWN_SCHEDULE


class TestRuleTables:
    SURFACE = (ast.OpAssign, ast.Block, ast.Return, ast.Throw)

    @staticmethod
    def _expr_classes():
        return {c for c in vars(ast).values()
                if isinstance(c, type) and issubclass(c, ast.Expr)
                and c is not ast.Expr}

    def test_every_core_node_has_a_rule(self):
        core = self._expr_classes() - set(self.SURFACE)
        assert core <= set(runtime._EXPR_RULES)
        # and the desugared corpus meets no node class outside the table
        seen = set()

        def walk(x):
            if isinstance(x, ast.Node):
                seen.add(type(x))
                for v in (getattr(x, f) for f in x._fields):
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        for path in POSITIVE_FILES:
            walk(desugar(parse_program(path.read_text(encoding="utf-8"))[0]))
        assert {c for c in seen if issubclass(c, ast.Expr)} <= set(
            runtime._EXPR_RULES)

    @pytest.mark.parametrize("node", [
        ast.OpAssign(ast.Var("x"), "+", ast.Const(1)),
        ast.Block([ast.Const(1)]),
        ast.Return(ast.Const(1)),
        ast.Throw(),
    ], ids=lambda n: type(n).__name__)
    def test_surface_nodes_are_stuck(self, node):
        m = machine_for(CELL)
        with pytest.raises(OvError) as exc:
            m.run_expression(node, {"x": 0, "#ctx": {}})
        assert exc.value.code == "E-STUCK"
        assert type(node).__name__ in exc.value.msg

    def test_unknown_continuation_is_stuck(self):
        m = machine_for(CELL)
        t = Thread(-1, ast.Const(1), {"#ctx": {}})
        t.konts.append(("no-such-tag",))
        m._reduce(t)
        with pytest.raises(OvError) as exc:
            m._reduce(t)
        assert exc.value.code == "E-STUCK"

    # what the corpus mains and blocks do not do: assign a declared
    # variable, test validity, write through a deduced atomic, construct
    # a class whose superclass has a field initialiser; and Probe, mined
    # as a block, does the first three, emits and calls a method in
    # compiled bodies
    REST = CELL + """\
class Tally[o] {
    Cell<o> c = new Cell<o>();
}

class Counted[p] extends Tally<p> {
    int n = 1;
}

class Probe[o] {
    Cell<this> c = new Cell<this>();

    void poke(int x) <this,this> {
        int y = -x;
        y = y + 1 + c.get();
        emit Poked(y);
        require(valid c && !(y > 100));
        atomic c.v = x;
    }
}

main {
    Cell<top> c = new Cell<top>();
    int x = 1;
    x = 2;
    require(valid c);
    atomic c.v = x;
    Counted<top> k = new Counted<top>();
}
"""

    def test_every_rule_is_reached(self, monkeypatch):
        # a rule that no input reaches is dead: every rule of the four
        # tables must be reached by the corpus mains, the corpus blocks
        # and REST, its main and a block of its Probe. A compile rule is
        # reached when a clause or a body is compiled, once per class and
        # machine, not at each evaluation.
        reached = set()

        def counted(key, rule):
            def wrapper(*args):
                reached.add(key)
                return rule(*args)
            return wrapper

        tables = {"expr": runtime._EXPR_RULES, "kont": runtime._KONT_RULES,
                  "pure": runtime._PURE_RULES, "body": closures._BODY_RULES}
        for name, table in tables.items():
            for key, rule in list(table.items()):
                monkeypatch.setitem(table, key, counted((name, key), rule))
        for path in RUNNABLE_FILES:
            Machine(check_clean(path.read_text(encoding="utf-8"))).run()
        bank = check_clean((CORPUS / "bank.ov").read_text(encoding="utf-8"))
        for path in sorted((CORPUS / "blocks").glob("*.json")):
            blocksched.mine_block(bank, blocksched.parse_block(
                json.loads(path.read_text(encoding="utf-8"))))
        rest_program = check_clean(self.REST)
        rest = Machine(rest_program).run()
        assert not rest.failures
        probed = blocksched.mine_block(rest_program, blocksched.parse_block(
            {"deploy": [{"id": "p", "class": "Probe"}],
             "txns": [{"target": "p", "method": "poke", "args": [3]}]}))
        assert probed.status == ["committed"]
        every = {(name, key) for name, table in tables.items()
                 for key in table}
        assert every - reached == set()


class TestRunaway:
    def test_fuel_aborts_every_open_frame(self):
        src = CELL + """class Spin[o] {
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
        m = machine_for(src)
        cell = m.run_expression(ast.New(ast.ClassType("Cell", [ast.CtxTop()]),
                                        []))
        spin = m.run_expression(ast.New(ast.ClassType("Spin", [ast.CtxTop()]),
                                        []))
        before = m.state_hash()
        steps = m.steps
        call = ast.Atomic(ast.Contract(ast.CtxLoc(spin.index),
                                       ast.CtxLoc(spin.index)),
                          ast.Call(ast.Var("s"), "spin", []))
        with pytest.raises(OvError) as exc:
            m.run_expression(call, {"s": spin, "#ctx": {}}, fuel=500)
        assert exc.value.code == "E-FUEL"
        assert m.steps == steps + 500
        assert m.state_hash() == before
        assert m.alpha is None
        # the machine stays usable
        m.run_expression(ast.Atomic(ast.Contract(ast.CtxLoc(cell.index),
                                                 ast.CtxLoc(cell.index)),
                                    ast.Call(ast.Var("c"), "set",
                                             [ast.Const(4)])),
                         {"c": cell, "#ctx": {}})
        assert m.heap[cell.index].fields["v"] == 4


def _atomics(x) -> list:
    """The Atomic nodes under x, in tree order."""
    if isinstance(x, list):
        return [a for v in x for a in _atomics(v)]
    if not isinstance(x, ast.Node):
        return []
    found = [x] if isinstance(x, ast.Atomic) else []
    return found + [a for v in (getattr(x, f) for f in x._fields)
                   for a in _atomics(v)]


def _new(m: Machine, name: str, *ctxs) -> Loc:
    return m.run_expression(ast.New(ast.ClassType(name, list(ctxs)), []))


class TestResolvedOnce:
    """Method contracts and the contracts of `atomic` blocks in method
    bodies are resolved once per bind or begin, straight to ownership-tree
    nodes, from the object's binding maps; nothing is kept on the object,
    and every begun frame holds what that resolution gave, which equals a
    fresh resolution."""

    # Sub renames its context parameters on the way up: Base's p is Sub's
    # r, so resolving touch against q instead would give another contract
    HIERARCHY = """\
class Base[o, p] {
    int v = 0;
    inv v >= 0;

    void touch() <p,this> {
        v = v + 1;
    }
}

class Sub[o, q, r] extends Base<o, r> {
    int w = 0;
}

class Holder[o] {
    Sub<this, top, this> s = new Sub<this, top, this>();

    void poke() <this,this> {
        atomic s.touch();
    }
}
"""

    # A constructor runs under <bot,this>, so an atomic block in it must
    # have a bot validity: <p,this> cannot typecheck there
    PROBE = """\
class Probe[o, p] {
    int n = 0;
    inv n >= 0;

    Probe() {
        atomic <bot,this> {
            n = 1;
        }
    }

    void run() <p,this> {
        atomic <p,this> {
            n = n + 1;
        }
    }
}
"""

    @staticmethod
    def _frame(m: Machine, d: Contract) -> tuple:
        """The resolved contract d as a begun frame holds it: its V and I
        as ownership-tree nodes."""
        return m.tree.node(d.validity), m.tree.node(d.invalidity)

    @staticmethod
    def _spy(monkeypatch, m: Machine) -> tuple[list, list]:
        """Record the contract of every begun transaction frame, as the
        frame holds it, and every resolution of a contract, as (contract,
        nodes). A construction's frame does not begin here: `_allocate`
        pushes it."""
        begun, fresh = [], []
        begin, resolve = Machine._begin, Machine._contract_nodes

        def spy_begin(self, thread, validity, invalidity):
            begun.append((validity, invalidity))
            return begin(self, thread, validity, invalidity)

        def spy_resolve(self, d, this, ctx):
            out = resolve(self, d, this, ctx)
            fresh.append((d, out))
            return out

        monkeypatch.setattr(Machine, "_begin", spy_begin)
        monkeypatch.setattr(Machine, "_contract_nodes", spy_resolve)
        return begun, fresh

    def test_inherited_method_with_renamed_parameters(self, monkeypatch):
        m = Machine(ast.Program(check_clean(self.HIERARCHY).classes, None))
        h = _new(m, "Holder", CtxTop())
        t = _new(m, "Sub", CtxTop(), CtxBot(), CtxTop())
        s = m.heap[h.index].fields["s"]
        owner_cls, touch = m.table.find_method("Sub", "touch")
        assert owner_cls.name == "Base"

        def fresh(loc: int, args: list) -> Contract:
            # touch's contract on the Sub<args> at loc, through Sub's
            # `extends` clause, resolved here rather than read from the
            # class record or the object
            sub = m.table.get("Sub")
            at_base = substitute(sub.superclass, sub.ctx_params, args,
                                 CtxLoc(loc)).args
            return substitute(touch.contract, owner_cls.ctx_params, at_base,
                              CtxLoc(loc))

        want_s = Contract(CtxLoc(h.index), CtxLoc(s.index))
        want_t = Contract(CtxTop(), CtxLoc(t.index))
        s_args = [CtxLoc(h.index), CtxTop(), CtxLoc(h.index)]
        t_args = [CtxTop(), CtxBot(), CtxTop()]
        assert (fresh(s.index, s_args), fresh(t.index, t_args)) == (
            want_s, want_t)
        # a deduced atomic in a block transaction calls the inherited method
        begun, resolved = self._spy(monkeypatch, m)
        [poke] = blocksched._bind_scts(m, {"h": h.index},
                                       [{"target": "h", "method": "poke"}],
                                       [1])
        assert blocksched._execute(m, [poke], [0]) == ["committed"]
        poke_h = self._frame(m, Contract(CtxLoc(h.index), CtxLoc(h.index)))
        assert begun == [poke_h, self._frame(m, want_s)]
        poke_decl = m.table.find_method("Holder", "poke")[1]
        assert resolved == [(poke_decl.contract, poke_h),
                            (touch.contract, self._frame(m, want_s))]
        # block transactions call it directly, on both objects, each
        # beginning on the nodes its binding resolved
        scts = blocksched._bind_scts(
            m, {"s": s.index, "t": t.index},
            [{"target": "s", "method": "touch"},
             {"target": "t", "method": "touch"}], [2, 3])
        assert [(x.validity, x.invalidity) for x in scts] == [
            self._frame(m, want_s), self._frame(m, want_t)]
        del begun[:]
        assert blocksched._execute(m, scts, range(2)) == ["committed"] * 2
        assert begun == [(x.validity, x.invalidity) for x in scts]
        assert [m.heap[x.index].fields["v"] for x in (s, t)] == [2, 1]

    def test_method_contract_read_under_the_declaring_class(
            self, monkeypatch):
        # a bind and a deduced atomic call read the method's contract on
        # the target, under the binding map of the class that declares
        # the method, each time: two look-ups, with nothing kept
        m = Machine(ast.Program(check_clean(self.HIERARCHY).classes, None))
        h = _new(m, "Holder", CtxTop())
        reads = []
        resolve = Machine._contract_nodes
        monkeypatch.setattr(Machine, "_contract_nodes",
                            lambda self, d, this, ctx:
                            reads.append((d, this, ctx)) or
                            resolve(self, d, this, ctx))
        txns = [{"target": "h", "method": "poke"}] * 3
        scts = blocksched._bind_scts(m, {"h": h.index}, txns, [1, 2, 3])
        poke = m.table.find_method("Holder", "poke")[1]
        touch = m.table.find_method("Sub", "touch")[1]
        holder = m.heap[h.index].bindings["Holder"]
        assert reads == [(poke.contract, h, holder)] * 3
        assert all(x is holder for _d, _this, x in reads)
        del reads[:]
        assert blocksched._execute(m, scts, range(3)) == ["committed"] * 3
        # each poke runs `atomic s.touch()`, whose contract is read on s
        # under the declaring class Base's bindings, Sub's r as Base's p
        s = m.heap[h.index].fields["s"]
        base = m.heap[s.index].bindings["Base"]
        assert base == {"o": h.index, "p": h.index}
        assert m.heap[s.index].bindings["Sub"] == {
            "o": h.index, "q": CtxTop, "r": h.index}
        assert reads == [(touch.contract, s, base)] * 3
        assert all(x is base for _d, _this, x in reads)

    def test_atomic_in_a_method_resolves_per_object(self, monkeypatch):
        m = Machine(ast.Program(check_clean(self.PROBE).classes, None))
        a = _new(m, "Probe", CtxTop(), CtxTop())
        b = _new(m, "Probe", CtxTop(), CtxBot())
        run = m.table.find_method("Probe", "run")[1]
        [node] = _atomics(run.body)
        begun, fresh = self._spy(monkeypatch, m)
        call = ast.Atomic(contract=None, deduced=True,
                          body=ast.Call(ast.Var("x"), "run", []))
        for _ in range(3):
            for x in (a, b):
                m.run_expression(call, {"x": x, "#ctx": {}})
        want = {a.index: self._frame(m, Contract(CtxTop(), CtxLoc(a.index))),
                b.index: self._frame(m, Contract(CtxBot(), CtxLoc(b.index)))}
        for loc in want:
            assert m.heap[loc].fields["n"] == 4
        # each run resolves run's own contract, then the block's, on its
        # object, which gives its object's nodes
        assert fresh == 3 * [(run.contract, want[a.index]),
                             (node.contract, want[a.index]),
                             (run.contract, want[b.index]),
                             (node.contract, want[b.index])]
        # run's own contract is <p,this> as well: each run begins it twice,
        # each time on the nodes just resolved
        assert begun == [nodes for _d, nodes in fresh]
        assert begun == 3 * ([want[a.index]] * 2 + [want[b.index]] * 2)

    def test_atomic_in_a_constructor_resolves_once_per_object(
            self, monkeypatch):
        m = Machine(ast.Program(check_clean(self.PROBE).classes, None))
        [node] = _atomics(m.table.info("Probe").ctor.body)
        begun, fresh = self._spy(monkeypatch, m)
        locs = [_new(m, "Probe", CtxTop(), p).index
                for p in (CtxTop(), CtxBot(), CtxTop())]
        # a constructor reads its class's bindings on its object, as a
        # method does: each object's one construction resolves the block
        # once, and its frame holds what that gave
        want = [self._frame(m, Contract(CtxBot(), CtxLoc(loc)))
                for loc in locs]
        assert fresh == [(node.contract, d) for d in want]
        assert begun == want
        for loc, d in zip(locs, want):
            obj = m.heap[loc]
            # a fresh resolution on the object gives the same nodes
            assert m._contract_nodes(node.contract, m.locs[loc],
                                     obj.bindings["Probe"]) == d
            assert obj.fields["n"] == 1


def _ctx_params(x, found: dict) -> dict:
    """The CtxParam nodes under x, by id, each once."""
    if isinstance(x, ast.CtxParam):
        found[id(x)] = x
    elif isinstance(x, ast.Node):
        for v in (getattr(x, f) for f in x._fields):
            _ctx_params(v, found)
    elif isinstance(x, (list, tuple)):
        for v in x:
            _ctx_params(v, found)
    return found


def _alpha_renamed(src: str, index: int, rename) -> ast.Program:
    """The desugared program of src with the context parameters of its
    class at index renamed, in the class's parameter list and in every
    CtxParam inside the class; rename maps the list to the new names."""
    core = desugar(parse_program(src)[0])
    cls = copy.deepcopy(core.classes[index])
    names = dict(zip(cls.ctx_params, rename(cls.ctx_params)))
    for k in _ctx_params(cls, {}).values():
        k.name = names.get(k.name, k.name)
    cls.ctx_params = [names[p] for p in cls.ctx_params]
    core.classes[index] = cls
    return core


# an alpha-renaming: fresh names, and a rotation of the class's own names,
# which may meet a superclass's parameter names at other positions
RENAMINGS = {
    "fresh": lambda ps: [f"{p}_{i}" for i, p in enumerate(ps)],
    "rotated": lambda ps: ps[1:] + ps[:1],
}


class TestAlphaRenaming:
    """A body declared in class C reads C's parameters as the object's
    arguments at C, so renaming one class's context parameters changes
    neither what `ov check` reports nor what a run does."""

    # Sub's p is not Base's p: Base's touch reads Base's p, Sub's r
    RENAMED_PARAM = """\
class Base[o, p] {
    int v = 0;
    inv v >= 0;

    void touch() <p,this> {
        v = -1;
        atomic <p,this> {
            v = 0;
        }
    }
}

class Sub[o, p, r] extends Base<o, r> {
}

main {
    Sub<top, top, bot> s = new Sub<top, top, bot>();
    atomic s.touch();
}
"""

    # Base's field initialiser reads Base's o, which Sub calls x
    SUPER_INIT = """\
class Acc[o] {
    int n = 0;
}

class Base[o] {
    Acc<o> a = new Acc<o>();
}

class Sub[x] extends Base<x> {
}

main {
    Sub<top> s = new Sub<top>();
}
"""

    # `this` in Sub's `extends` clause is the object itself, so Base's p
    # is the object in go's call as it is when go runs
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

main {
    Sub<top> s = new Sub<top>();
    atomic s.go();
}
"""

    HIERARCHY_MAIN = TestResolvedOnce.HIERARCHY + """
main {
    Holder<top> h = new Holder<top>();
    atomic h.poke();
    Sub<top, bot, top> t = new Sub<top, bot, top>();
    atomic t.touch();
}
"""

    SOURCES = {**{p.name: p.read_text(encoding="utf-8")
                  for p in POSITIVE_FILES},
               "HIERARCHY": HIERARCHY_MAIN,
               "RENAMED_PARAM": RENAMED_PARAM,
               "SUPER_INIT": SUPER_INIT,
               "THIS_IN_EXTENDS": THIS_IN_EXTENDS}

    @staticmethod
    def _outcome(program: ast.Program) -> tuple:
        codes = check_program(program).codes()
        report = Machine(program).run()
        return codes, report.to_json(), report.failures

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_renaming_a_class_changes_nothing(self, name):
        src = self.SOURCES[name]
        core = desugar(parse_program(src)[0])
        want = self._outcome(core)
        # every program checks clean; those written here also end valid
        assert want[0] == [], want
        assert name.endswith(".ov") or want[1]["lemma3"], want
        for index in range(len(core.classes)):
            for how, rename in RENAMINGS.items():
                got = self._outcome(_alpha_renamed(src, index, rename))
                assert got == want, (index, how)

    # a deploy binds Sub's o and p to top, and Sub passes bot for Base's p
    BLOCK_SRC = """\
class Base[o, p] {
    int v = 0;
    inv v >= 0;

    void touch() <p,this> {
        v = -1;
        atomic <p,this> {
            v = 0;
        }
    }
}

class Sub[o, p] extends Base<o, bot> {
}
"""

    def test_inherited_method_in_a_block(self):
        block = blocksched.parse_block({
            "deploy": [{"id": "s", "class": "Sub"}],
            "txns": [{"target": "s", "method": "touch"}] * 2})
        rows = []
        for how, rename in [("as written", list), *RENAMINGS.items()]:
            program = _alpha_renamed(self.BLOCK_SRC, 1, rename)
            assert not check_program(program).codes(), how
            mined = blocksched.mine_block(program, block)
            assert blocksched.validate_block(program, mined, block).accepted
            assert blocksched.serial_execute(program, block) == (
                mined.final_state_hash, mined.status), how
            rows.append((mined.final_state_hash, mined.status, mined.edges))
        # touch's atomic reads Base's p, bot: it needs no pre-check
        assert rows[0][1] == ["committed"] * 2
        assert rows == [rows[0]] * len(rows)


def _reference_apply_op(op: str, vals: list):
    """_apply_op as an if-chain, kept as the reference for its table."""
    if len(vals) == 1:
        a = vals[0]
        if op == "-":
            if isinstance(a, bool) or not isinstance(a, int):
                raise TypeError(op)
            return -a
        if op == "!":
            if not isinstance(a, bool):
                raise TypeError(op)
            return not a
        raise TypeError(op)
    a, b = vals
    if op in ("==", "!="):
        eq = runtime._value_eq(a, b)
        return eq if op == "==" else not eq
    if op in ("&&", "||"):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise TypeError(op)
        return (a and b) if op == "&&" else (a or b)
    if isinstance(a, bool) or isinstance(b, bool) or \
            not isinstance(a, int) or not isinstance(b, int):
        raise TypeError(op)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":  # toward zero, as Solidity divides
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q
    if op == "%":  # what / leaves, so a == (a / b) * b + a % b
        return a - b * _reference_apply_op("/", [a, b])
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise TypeError(op)


class TestApplyOp:
    OPERANDS = [-7, -1, 0, 1, 7, True, False, None, Loc(0), Loc(1)]
    BINARY = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
              "&&", "||"]

    @staticmethod
    def _outcome(fn, op, vals):
        try:
            v = fn(op, vals)
        except (TypeError, ZeroDivisionError) as exc:
            return type(exc)
        return (type(v), v)

    # Solidity's integer division truncates toward zero, and the remainder
    # takes the dividend's sign: one row per sign case
    SIGNS = [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)]

    @pytest.mark.parametrize("a,b,quotient,remainder", SIGNS)
    def test_division_truncates(self, a, b, quotient, remainder):
        assert runtime._apply_op("/", [a, b]) == quotient
        assert runtime._apply_op("%", [a, b]) == remainder
        assert quotient * b + remainder == a

    RATIO = """\
class Ratio[o] {
    int d = 2;
    int q = 0;
    int r = 0;
    inv -7 / d >= -3;

    void split(int a) <this,this> {
        q = a / d;
        r = a % d;
    }

    void set(int x) <this,this> {
        d = x;
    }

    void zero(int a) <this,this> {
        q = a % (a - a);
    }
}
"""

    def test_division_in_a_program(self):
        # the step rules and the invariant checks divide alike (with floor
        # division the invariant would fail at construction); by zero, a
        # transaction aborts with R-DIV0 and an invariant is false
        m = machine_for(self.RATIO)
        p = _new(m, "Ratio", ast.CtxTop())
        fields = m.heap[p.index].fields

        def call(method, arg):
            body = ast.Call(ast.Var("p"), method, [ast.Const(arg)])
            out = m.run_expression(ast.Atomic(None, body, deduced=True),
                                   {"p": p, "#ctx": {}})
            return out.code if isinstance(out, FailureValue) else out

        assert call("split", -7) is None
        assert (fields["q"], fields["r"]) == (-3, -1)
        assert call("set", 0) == "R-POST-FAIL"
        assert call("zero", 5) == "R-DIV0"
        assert fields == {"d": 2, "q": -3, "r": -1}
        assert call("set", -2) is None
        assert call("split", 7) is None
        assert fields == {"d": -2, "q": -3, "r": 1}

    # every operand pair, bools and locations included: True + 1 stays a
    # TypeError and 7 / 0 a ZeroDivisionError
    @pytest.mark.parametrize("op", BINARY + ["!"])
    def test_matches_the_reference(self, op):
        cases = [[a, b] for a in self.OPERANDS for b in self.OPERANDS]
        if op in ("-", "!"):
            cases += [[a] for a in self.OPERANDS]
        for vals in cases:
            assert self._outcome(runtime._apply_op, op, vals) == \
                self._outcome(_reference_apply_op, op, vals), (op, vals)


class _RefFail(Exception):
    """The reference's "the invariant is false"."""


def _reference_pure(m: Machine, e: ast.Expr, this_loc: int):
    """The value of invariant clause part e at this_loc by a walk over its
    tree: how invariants were evaluated before they were compiled, kept as
    the compiled checks' reference. _RefFail makes the invariant false."""
    if type(e) is ast.Const:
        return e.value
    if type(e) is ast.This:
        return m.locs[this_loc]
    if type(e) is ast.FieldGet:
        recv = _reference_pure(m, e.receiver, this_loc)
        if not isinstance(recv, Loc):
            raise _RefFail
        obj = m.heap[recv.index] if recv.index < len(m.heap) else None
        if obj is None or e.field_name not in obj.fields:
            raise _RefFail
        return obj.fields[e.field_name]
    if type(e) is not ast.PrimOp:
        raise _RefFail
    if e.op in ("&&", "||"):
        left = _reference_pure(m, e.args[0], this_loc)
        if not isinstance(left, bool):
            raise _RefFail
        if left is (e.op == "||"):
            return left
        right = _reference_pure(m, e.args[1], this_loc)
        if not isinstance(right, bool):
            raise _RefFail
        return right
    vals = [_reference_pure(m, a, this_loc) for a in e.args]
    try:
        return runtime._apply_op(e.op, vals)
    except (ZeroDivisionError, TypeError):
        raise _RefFail from None


class TestCompiledInvariants:
    SRC = """\
class Node[o] {
    Node<o> next;
    Node<o> peer;
    int n;
    bool b;
}

class Bare[o] {
}
"""
    FIELDS = ["n", "b", "next", "peer", "gone"]
    CONSTS = [-7, -1, 0, 1, 2, 7, True, False, None]

    def _heap(self, rng: random.Random) -> Machine:
        """Nodes and a fieldless Bare, some removed, with fields of every
        kind: null, a live node, the Bare, a removed node, and ints and
        bools of either kind, so reads meet each failure."""
        m = machine_for(self.SRC)
        locs = [_new(m, "Node", ast.CtxTop()) for _ in range(6)]
        locs.append(_new(m, "Bare", ast.CtxTop()))
        for loc in locs[4:6]:
            m.heap[loc.index] = None  # removed
        for obj in m.heap:
            if obj is not None and obj.class_name == "Node":
                for name in self.FIELDS[:4]:
                    obj.fields[name] = rng.choice(
                        [None] + locs + self.CONSTS)
        return m

    def _clause(self, rng: random.Random, depth: int) -> ast.Expr:
        kind = rng.choice(["const", "this", "get", "get", "prim", "prim"]
                          if depth else ["const", "this", "get"])
        if kind == "const":
            return ast.Const(rng.choice(self.CONSTS))
        if kind == "this":
            return ast.This()
        if kind == "get":
            recv = self._clause(rng, depth - 1) if depth and \
                rng.random() < 0.4 else ast.This()
            return ast.FieldGet(recv, rng.choice(self.FIELDS))
        op = rng.choice(TestApplyOp.BINARY + ["!", "-"])
        arity = 1 if op == "!" or (op == "-" and rng.random() < 0.5) else 2
        return ast.PrimOp(op, [self._clause(rng, depth - 1)
                               for _ in range(arity)])

    @staticmethod
    def _outcome(fn, *args):
        try:
            v = fn(*args)
        except (runtime._InvFail, _RefFail):
            return "false"
        return (type(v), v)

    def test_compiled_checks_match_the_tree_walk(self):
        rng = random.Random(41)
        outcomes = set()
        for _ in range(40):
            m = self._heap(rng)
            live = [i for i, obj in enumerate(m.heap) if obj is not None]
            for _ in range(60):
                clause = self._clause(rng, 4)
                check = runtime._compile(clause)
                for loc in live:
                    want = self._outcome(_reference_pure, m, clause, loc)
                    assert self._outcome(check, m, loc) == want, (clause, loc)
                    outcomes.add(want if want == "false" else want[0])
        # every kind of result was met, failure included
        assert outcomes >= {"false", int, bool, Loc, type(None)}

    def test_a_node_without_a_rule_fails_only_where_evaluated(self):
        m = self._heap(random.Random(3))
        stray = ast.Var("x")
        assert self._outcome(runtime._compile(stray), m, 0) == "false"
        decided = ast.PrimOp("||", [ast.Const(True), stray])
        assert self._outcome(runtime._compile(decided), m, 0) == (bool, True)
