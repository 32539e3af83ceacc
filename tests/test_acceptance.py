"""Release gate: every shipping requirement as a single test with one
pass/fail line. Budgets are asserted with a wall clock where a requirement
carries one."""
import itertools
import random
import time

import pytest

from ovlang import ast
from ovlang.ast import Contract, CtxBot, CtxLoc, CtxThis, CtxTop
from ovlang.blocksched import (interferes, mine_block, parse_block,
                               serial_execute, validate_block)
from ovlang.diagnostics import OvError
from ovlang.ownership import OwnershipTree
from ovlang.parser import parse_program
from ovlang.runtime import FailureValue, Machine
from ovlang.transpile import (EmitterConfig, STYLE_PRE_POST, bundle_api,
                              transpile_program)

from conftest import (CORPUS, GOLDENS, NEGATIVE_FILES, POSITIVE_FILES,
                      RUNNABLE_FILES, check_clean, compile_source,
                      expected_code, run_source)

BOT, TOP, THIS = CtxBot(), CtxTop(), CtxThis()

ACCOUNT_SRC = """\
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

CELL_SRC = """\
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

TOKEN_SRC = """\
class Token[o] {
    int supply = 0;
    int balanceA = 0;
    int balanceB = 0;
    int allowance = 0;
    inv balanceA + balanceB == supply;
    inv balanceA >= 0 && balanceB >= 0;

    Token(int initial) {
        supply = initial;
        balanceA = initial;
    }

    void move(int amount) <this,this> {
        require(balanceA >= amount);
        balanceA -= amount;
        balanceB += amount;
    }

    bool transfer(int amount) <this,this> {
        move(amount);
        emit Transfer(amount);
        return true;
    }

    bool approve(int tokens) <this,bot> {
        require(allowance == 0);
        emit Approval(tokens);
        return true;
    }

    int balanceOf() <this,bot> {
        return balanceA;
    }
}
"""


# -- golden outputs -----------------------------------------------------------

def test_transpiled_goldens_byte_identical():
    t0 = time.monotonic()
    account, d1 = parse_program((CORPUS / "account.ov").read_text("utf-8"))
    storage, d2 = parse_program((CORPUS / "storage.ov").read_text("utf-8"))
    assert not d1.has_errors() and not d2.has_errors()

    out = transpile_program(account)
    assert out["Account.sol"].encode("utf-8") == \
        (GOLDENS / "Account.sol").read_bytes()

    out = transpile_program(storage, EmitterConfig(style=STYLE_PRE_POST))
    assert out["Storage_OV.sol"].encode("utf-8") == \
        (GOLDENS / "Storage_OV.sol").read_bytes()

    api = bundle_api()
    for name in ("Ownable.sol", "Validity.sol", "OVValidity.sol"):
        assert api[name].encode("utf-8") == (GOLDENS / name).read_bytes(), name
    assert 'require(this.isValid(), "Validity fails pre-check");' \
        in api["Validity.sol"]
    assert '"Validity fails post-check"' in api["Validity.sol"]
    assert time.monotonic() - t0 < 1.0


# -- corpus -------------------------------------------------------------------

def test_positive_corpus_typechecks_clean():
    assert len(POSITIVE_FILES) >= 9
    for path in POSITIVE_FILES:
        core, diags = compile_source(path.read_text(encoding="utf-8"))
        errs = [f"{d.code} {d.msg}" for d in diags.errors()]
        assert core is not None and not errs, (path.name, errs)

    # spot-check two annotations the corpus is required to carry
    token, _ = parse_program((CORPUS / "token.ov").read_text(encoding="utf-8"))
    approve = next(m for c in token.classes for m in c.methods
                   if c.name == "Token" and m.name == "approve")
    assert approve.contract == Contract(THIS, BOT)
    ballot, _ = parse_program((CORPUS / "ballot.ov").read_text(encoding="utf-8"))
    vote = next(m for c in ballot.classes for m in c.methods
                if c.name == "Ballot" and m.name == "vote")
    assert vote.contract == Contract(THIS, THIS)


REQUIRED_REJECTIONS = frozenset([
    "E-EFFECT", "E-SUBCONTRACT", "E-OWNER-CALL", "E-FORK-IN-ATOMIC",
    "E-BIND-EXIST", "E-INV-ESCAPE", "E-NEED-CONTRACT", "E-TRANSPILE-CTX",
])


def test_negative_corpus_rejected_with_exact_codes():
    assert len(NEGATIVE_FILES) >= 12
    seen = set()
    for path in NEGATIVE_FILES:
        want = expected_code(path)
        src = path.read_text(encoding="utf-8")
        if want.startswith("E-TRANSPILE"):
            # rejected by the emitter; the checker must stay silent first
            _, diags = compile_source(src)
            assert not diags.has_errors(), path.name
            surface, _ = parse_program(src)
            with pytest.raises(OvError) as exc:
                transpile_program(surface)
            got = {exc.value.code}
        else:
            _, diags = compile_source(src)
            got = {d.code for d in diags.errors()}
        assert got == {want}, (path.name, got)
        seen |= got
    assert REQUIRED_REJECTIONS <= seen, sorted(REQUIRED_REJECTIONS - seen)


# -- runtime ------------------------------------------------------------------

def test_valid_set_equals_live_heap_after_clean_runs():
    # the tracked valid set must coincide with the objects whose invariants
    # actually hold at the end of every run that reported no validity
    # failure; the overdraw program must end flagged instead
    t0 = time.monotonic()
    seen_seeded = False
    for path in RUNNABLE_FILES:
        src = path.read_text(encoding="utf-8")
        for naive in (False, True):
            rep = run_source(src, naive=naive)
            validity_failures = [f for f in rep.failures
                                 if f["code"] in ("R-PRE-FAIL", "R-POST-FAIL")]
            if path.name == "overdraw.ov":
                assert validity_failures and not rep.lemma3
                seen_seeded = True
            elif not validity_failures:
                assert rep.lemma3, path.name
    assert seen_seeded
    assert time.monotonic() - t0 < 5.0


def test_aborted_transactions_restore_state_hash():
    t0 = time.monotonic()
    core = check_clean(ACCOUNT_SRC)
    rng = random.Random(20260818)
    for trial in range(1000):
        m = Machine(core, seed=trial)
        k = rng.randrange(1, 5)
        nested = k > 1 and rng.random() < 0.25
        locs, balances = [], []
        for i in range(k):
            owner = CtxLoc(locs[0].index) if nested and i > 0 else CtxTop()
            amt = rng.randrange(0, 100)
            locs.append(m.run_expression(
                ast.New(ast.ClassType("Account", [owner]), [ast.Const(amt)])))
            balances.append(amt)

        stmts = []
        for _ in range(rng.randrange(0, 6)):
            t = rng.randrange(k)
            x = rng.randrange(1, 50)
            stmts.append(ast.Call(ast.Var(f"a{t}"), "deposit", [ast.Const(x)]))
            balances[t] += x
        victim = rng.randrange(k)
        stmts.append(ast.Call(ast.Var(f"a{victim}"), "withdraw",
                              [ast.Const(balances[victim] +
                                         rng.randrange(1, 50))]))
        body = stmts[0]
        for s in stmts[1:]:
            body = ast.Seq(body, s)

        scope = CtxLoc(locs[0].index) if nested else CtxTop()
        env = {f"a{i}": locs[i] for i in range(k)}
        env["#ctx"] = {}
        before = m.state_hash()
        out = m.run_expression(ast.Atomic(Contract(scope, scope), body), env)
        assert isinstance(out, FailureValue), trial
        assert out.code == "R-POST-FAIL", trial
        assert m.state_hash() == before, trial
    assert time.monotonic() - t0 < 10.0


# -- scheduling ---------------------------------------------------------------

def subtree_nodes(ctx, owners):
    """Reference enumeration: every node whose owner chain passes through
    the context's root."""
    if isinstance(ctx, CtxTop):
        return set(owners)
    if isinstance(ctx, CtxBot):
        return set()
    out = set()
    for node in owners:
        walk = node
        while walk is not None:
            if walk == ctx.index:
                out.add(node)
                break
            walk = owners[walk]
    return out


def test_symbolic_interference_matches_enumeration():
    t0 = time.monotonic()
    rng = random.Random(6)
    for _ in range(10_000):
        n = rng.randrange(1, 21)
        owners = {}
        tree = OwnershipTree()
        for i in range(n):
            parent = rng.choice([None] + list(range(i)))
            owners[i] = parent
            tree.add(i, parent)
        pool = [TOP, BOT] + [CtxLoc(i) for i in range(n)]
        d1 = Contract(rng.choice(pool), rng.choice(pool))
        d2 = Contract(rng.choice(pool), rng.choice(pool))
        v1 = subtree_nodes(d1.validity, owners)
        i1 = subtree_nodes(d1.invalidity, owners)
        v2 = subtree_nodes(d2.validity, owners)
        i2 = subtree_nodes(d2.invalidity, owners)
        want = bool((v1 & i2) or (v2 & i1) or (i1 & i2))
        assert interferes(d1, d2, tree) == want, (owners, d1, d2)
    assert time.monotonic() - t0 < 10.0


# Holder allocates before it can abort; Outer commits its own write even
# when its nested atomic aborts alone
NEST_SRC = """\
class Box[o] {
    int v = 0;
    inv v >= 0;

    Box(int x) {
        v = x;
    }
}

class Holder[o] {
    Box<this> b = null;
    int cap = 0;

    Holder(int c) {
        cap = c;
    }

    void make(int x) <this,this> {
        b = new Box<this>(x);
        require(x <= cap);
    }

    int peek() <this,bot> {
        return cap;
    }
}

class Inner[o] {
    int v = 0;
    inv v >= 0;

    Inner(int x) {
        v = x;
    }

    void dec(int x) <this,this> {
        v -= x;
    }
}

class Outer[o] {
    Inner<this> i = null;
    int n = 0;
    inv i != null;

    Outer(int x) {
        i = new Inner<this>(x);
    }

    void go(int x) <this,this> {
        n += 1;
        atomic i.dec(x);
    }
}
"""

ACCOUNT_CALLS = [("deposit", 40), ("withdraw", 60), ("balance", None)]
TOKEN_CALLS = [("move", 60), ("transfer", 60), ("approve", 10),
               ("balanceOf", None)]
HOLDER_CALLS = [("make", 60), ("peek", None)]
OUTER_CALLS = [("go", 60)]
CALLS = {"Account": ACCOUNT_CALLS, "Token": TOKEN_CALLS,
         "Holder": HOLDER_CALLS, "Outer": OUTER_CALLS}


@pytest.fixture(scope="module")
def block_program():
    return check_clean(ACCOUNT_SRC + TOKEN_SRC + NEST_SRC)


@pytest.fixture(scope="module")
def fuzzed_blocks():
    rng = random.Random(1789)
    blocks = []
    for _ in range(1000):
        deploys, classes = [], []
        for i in range(rng.randrange(1, 4)):
            cls = rng.choice(sorted(CALLS))
            deploys.append({"id": f"o{i}", "class": cls,
                            "args": [rng.randrange(0, 50)]})
            classes.append(cls)
        txns = []
        for _ in range(rng.randrange(0, 5)):
            t = rng.randrange(len(deploys))
            method, hi = rng.choice(CALLS[classes[t]])
            args = [] if hi is None else [rng.randrange(0, hi + 1)]
            txns.append({"target": f"o{t}", "method": method, "args": args})
        blocks.append(parse_block({"deploy": deploys, "txns": txns}))
    return blocks


def test_mined_blocks_match_serial_order(block_program, fuzzed_blocks):
    t0 = time.monotonic()
    permuted = 0
    for b in fuzzed_blocks:
        mined = mine_block(block_program, b)
        h, statuses = serial_execute(block_program, b)
        assert mined.final_state_hash == h
        assert mined.status == statuses
        n = len(statuses)
        # the state hash names objects by allocation index, so two
        # allocating txns give equal states only up to renaming in
        # another order; the permutation half leaves those blocks out
        allocating = sum(t["method"] == "make" for t in b.txns)
        if not mined.edges and n > 1 and allocating < 2:
            permuted += 1
            hashes = {serial_execute(block_program, b, list(order))[0]
                      for order in itertools.permutations(range(n))}
            assert len(hashes) == 1
    assert permuted > 50  # the permutation half of the property really ran
    assert time.monotonic() - t0 < 60.0


def test_validators_accept_mined_blocks(block_program, fuzzed_blocks):
    for b in fuzzed_blocks:
        mined = mine_block(block_program, b)
        report = validate_block(block_program, mined, b)
        assert report.accepted


# -- check-count optimization -------------------------------------------------

def test_contract_checks_never_exceed_naive_counts():
    for path in RUNNABLE_FILES:
        src = path.read_text(encoding="utf-8")
        direct = run_source(src)
        naive = run_source(src, naive=True)
        assert (direct.pre_checks + direct.post_checks
                <= naive.pre_checks + naive.post_checks), path.name

    read_path = ACCOUNT_SRC + """\
main {
    Account<top> a = new Account<top>(50);
    atomic a.balance();
}
"""
    direct = run_source(read_path)
    naive = run_source(read_path, naive=True)
    # directed: the read transaction revalidates nothing at commit; the only
    # post checks are the constructor creation and the final root commit
    assert (direct.pre_checks, direct.post_checks) == (0, 2)
    # blanket rechecking pays begin+invoke up front and return+commit after
    assert (naive.pre_checks, naive.post_checks) == (2, 4)
    assert direct.post_checks < naive.post_checks


# -- progress fuzz ------------------------------------------------------------

FUZZ_CLASSES = CELL_SRC + ACCOUNT_SRC


def _int_expr(rng, ints):
    def atom():
        if ints and rng.random() < 0.5:
            return rng.choice(ints)
        return str(rng.randrange(0, 30))
    e = atom()
    for _ in range(rng.randrange(0, 3)):
        e = f"{e} {rng.choice(('+', '-', '*'))} {atom()}"
    return e


def _cond(rng, ints):
    if ints and rng.random() < 0.7:
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return f"{rng.choice(ints)} {op} {rng.randrange(0, 25)}"
    return rng.choice(("true", "1 < 2", "0 > 1", "2 + 2 == 4"))


def _gen_program(rng):
    cells, accounts, ints = [], [], []
    lines = []
    for j in range(rng.randrange(4, 10)):
        roll = rng.random()
        if roll < 0.25 or not (cells or accounts):
            if rng.random() < 0.5:
                name = f"c{j}"
                cells.append(name)
                lines.append(f"    Cell<top> {name} = new Cell<top>();")
            else:
                name = f"a{j}"
                accounts.append(name)
                lines.append(f"    Account<top> {name} = "
                             f"new Account<top>({rng.randrange(0, 40)});")
        elif roll < 0.60:
            if cells and (not accounts or rng.random() < 0.5):
                recv = rng.choice(cells)
                call = rng.choice((f"set({rng.randrange(-10, 30)})", "get()"))
            else:
                recv = rng.choice(accounts)
                call = rng.choice((f"deposit({rng.randrange(1, 20)})",
                                   f"withdraw({rng.randrange(0, 60)})",
                                   "balance()"))
            lines.append(f"    atomic {recv}.{call};")
        elif roll < 0.78:
            name = f"t{j}"
            lines.append(f"    int {name} = {_int_expr(rng, ints)};")
            ints.append(name)
        elif roll < 0.90:
            lines.append(f"    require({_cond(rng, ints)});")
        elif cells:
            lines.append(f"    fork atomic "
                         f"{rng.choice(cells)}.set({rng.randrange(0, 9)});")
        else:
            lines.append(f"    int t{j} = {_int_expr(rng, ints)};")
            ints.append(f"t{j}")
    return FUZZ_CLASSES + "main {\n" + "\n".join(lines) + "\n}\n"


def test_generated_programs_run_to_completion():
    t0 = time.monotonic()
    rng = random.Random(41)
    failing_runs = clean_runs = 0
    for i in range(10_000):
        src = _gen_program(rng)
        core, diags = compile_source(src)
        errs = [f"{d.code} {d.msg}" for d in diags.errors()]
        assert core is not None and not errs, (errs, src)
        try:
            rep = Machine(core, seed=i).run(100_000)
        except OvError as err:
            pytest.fail(f"run raised {err.code}:\n{src}")
        codes = {f["code"] for f in rep.failures}
        assert "E-STUCK" not in codes, src
        if codes:
            failing_runs += 1
        else:
            clean_runs += 1
    assert failing_runs and clean_runs  # both outcomes actually exercised
    assert time.monotonic() - t0 < 120.0
