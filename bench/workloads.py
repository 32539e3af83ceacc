"""Seeded inputs for the three workloads. Nothing here imports ovlang: the
generators produce plain block dicts (the `ov simulate` schema) and OV
source text, so the program under test only ever sees finished inputs.

Every generator takes its own `random.Random`, seeded from the workload
name and the run's seed, so the same seed always yields the same inputs.
"""
from __future__ import annotations

import random

# -- bank_large ---------------------------------------------------------------
# Flat, top-owned accounts; uniform targets keep conflicts sparse, so the
# quadratic conflict-graph and heap-scan terms dominate.
#
# Blocks hold 500 accounts and 500 transactions. Both quadratic terms grow
# as n^2, so their shares of the time are those at 1,000, while twelve
# blocks fit in a run of about 40 s and its medians rest on twelve items
# (twelve blocks of 1,000 take about 90 s).
#
# Each block holds the same multiset of methods in a seeded order, so that
# the mix, and with it the cost of a round, barely moves between seeds.
BANK_BLOCKS = 12
BANK_ACCOUNTS = 500
BANK_TXNS = 500


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def bank_block(rng: random.Random, accounts: int = BANK_ACCOUNTS,
               txns: int = BANK_TXNS) -> dict:
    deploy = [{"id": f"a{i}", "class": "Account",
               "args": [rng.randrange(0, 100)]} for i in range(accounts)]
    methods = _shuffled(rng, [("deposit", "withdraw", "balance")[k % 3]
                              for k in range(txns)])
    out = []
    for method in methods:
        target = f"a{rng.randrange(accounts)}"
        if method == "deposit":
            args = [rng.randrange(1, 50)]
        elif method == "withdraw":
            args = [rng.randrange(1, 80)]
        else:
            args = []
        out.append({"target": target, "method": method, "args": args})
    return {"deploy": deploy, "txns": out}


def bank_blocks(seed: int) -> list[dict]:
    rng = random.Random(f"bank_large:{seed}")
    return [bank_block(rng) for _ in range(BANK_BLOCKS)]


# -- custody_hot --------------------------------------------------------------
# Customers each own an Account (depth-2 tree). Few customers and skewed
# targets make the conflict graph dense; the method mix exercises nested
# atomics, contained inner aborts, read-only and bot-validity writes.
#
# Every block draws from the same multisets of targets, methods and
# amounts; only their order and pairing depend on the seed.
CUSTODY_BLOCKS = 48
CUSTODY_CUSTOMERS = 8
# transactions per customer: the two hottest take 23 of 40
CUSTODY_TARGETS = (14, 9, 5, 4, 3, 2, 2, 1)
CUSTODY_METHODS = (("safeWithdraw", 18), ("audit", 12), ("verifyLogin", 10))
# safeWithdraw amounts spread over 1..25: above the balance the inner
# atomic aborts alone; leaving less than 10 aborts the whole transaction
CUSTODY_AMOUNTS = tuple(1 + (24 * k) // 17 for k in range(18))


def custody_block(rng: random.Random) -> dict:
    deploy = [{"id": f"c{i}", "class": "Customer", "args": []}
              for i in range(CUSTODY_CUSTOMERS)]
    targets = _shuffled(rng, [c for c, n in enumerate(CUSTODY_TARGETS)
                              for _ in range(n)])
    methods = _shuffled(rng, [m for m, n in CUSTODY_METHODS
                              for _ in range(n)])
    amounts = _shuffled(rng, CUSTODY_AMOUNTS)
    out = []
    for c, method in zip(targets, methods):
        args = [amounts.pop()] if method == "safeWithdraw" else []
        out.append({"target": f"c{c}", "method": method, "args": args})
    return {"deploy": deploy, "txns": out}


def custody_blocks(seed: int) -> list[dict]:
    rng = random.Random(f"custody_hot:{seed}")
    return [custody_block(rng) for _ in range(CUSTODY_BLOCKS)]


# -- compile_run --------------------------------------------------------------
# Fixed counts per round keep the mix, and so the median item, the same on
# every seed; only the programs' contents vary.
SMALL_PROGRAMS = 40
MEDIUM_PROGRAMS = 4
LARGE_PROGRAMS = 1

PRELUDE = """\
class Slot[o] {
    int v = 0;
    inv v >= 0;

    void set(int x) <this,this> {
        v = x;
    }

    int get() <this,bot> {
        return v;
    }
}

class Purse[o] {
    int amount = 0;
    inv amount >= 0;

    Purse(int amt) {
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


class _Ints:
    """Constant int locals of a main block with their known values, so
    that every generated `require` holds and the main thread runs on."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.values: dict[str, int] = {}

    def expr(self) -> tuple[str, int]:
        rng = self.rng

        def atom() -> str:
            if self.values and rng.random() < 0.5:
                return rng.choice(sorted(self.values))
            return str(rng.randrange(0, 30))
        parts = [atom()]
        for _ in range(rng.randrange(0, 3)):
            parts += [rng.choice("+-*"), atom()]
        text = " ".join(parts)
        return text, _eval_flat(text, self.values)

    def let(self, name: str) -> str:
        text, val = self.expr()
        self.values[name] = val
        return f"int {name} = {text};"

    def true_require(self) -> str:
        name = self.rng.choice(sorted(self.values))
        v = self.values[name]
        op = self.rng.choice(("<=", ">=", "=="))
        return f"require({name} {op} {v});"


def _eval_flat(text: str, env: dict[str, int]) -> int:
    """Value of a flat `a op b op c` sum of products over ints and names."""
    terms: list[int] = []
    sign = 1
    prod = None
    toks = text.split()
    i = 0
    while i < len(toks):
        tok = toks[i]
        val = env[tok] if tok in env else int(tok)
        prod = val if prod is None else prod * val
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        if nxt in ("+", "-", None):
            terms.append(sign * prod)
            prod = None
            sign = -1 if nxt == "-" else 1
        i += 2
    return sum(terms)


# statement kinds of a small main, by position; the first always creates
# an object and the rest are shuffled, so every seed has the same mix
SMALL_KINDS = ("new", "call", "let", "fork", "new", "call", "require", "let",
               "call", "fork")


def small_program(rng: random.Random, stmts: int) -> str:
    """A short main over the Slot/Purse prelude, shaped like the acceptance
    suite's progress fuzz. The classes are renamed so that no output
    shares a name with a file in goldens/."""
    ints = _Ints(rng)
    objects: list[tuple[str, str]] = []
    lines: list[str] = []
    kinds = ["new"] + _shuffled(rng, SMALL_KINDS[1:stmts])
    for j, kind in enumerate(kinds):
        if kind == "new":
            if rng.random() < 0.5:
                objects.append(("Slot", f"c{j}"))
                lines.append(f"Slot<top> c{j} = new Slot<top>();")
            else:
                objects.append(("Purse", f"a{j}"))
                lines.append(f"Purse<top> a{j} = "
                             f"new Purse<top>({rng.randrange(0, 40)});")
            continue
        cls, recv = rng.choice(objects)
        writes = rng.random() < 0.5
        if kind == "call" and cls == "Slot":
            call = f"set({rng.randrange(0, 30)})" if writes else "get()"
            lines.append(f"atomic {recv}.{call};")
        elif kind == "call":
            call = f"deposit({rng.randrange(1, 20)})" if writes else "balance()"
            lines.append(f"atomic {recv}.{call};")
        elif kind == "fork":
            # calls that may abort run on their own thread, so an abort
            # ends that thread and not the main block
            call = (f"set({rng.randrange(-10, 10)})" if cls == "Slot"
                    else f"withdraw({rng.randrange(0, 60)})")
            lines.append(f"fork atomic {recv}.{call};")
        elif kind == "require" and ints.values:
            lines.append(ints.true_require())
        else:
            lines.append(ints.let(f"t{j}"))
    return PRELUDE + "\nmain {\n" + "".join(f"    {ln}\n" for ln in lines) + "}\n"


def _gen_class(rng: random.Random, name: str,
               nfields: int) -> tuple[str, list[tuple]]:
    """One transpilable class: a single owner parameter, no inheritance,
    own-field reads and writes only. Returns the source and the methods
    a main may call as (name, kind)."""
    fields = [f"f{i}" for i in range(nfields)]
    lines = [f"class {name}[o] {{"]
    for f in fields:
        lines.append(f"    int {f} = 0;")
    lines.append("    bool flag = false;")
    for f in fields:
        lines.append(f"    inv {f} >= 0;")
    lines.append("")
    lines.append(f"    {name}(int s) {{")
    for i, f in enumerate(fields):
        lines.append(f"        {f} = s + {i};")
    lines.append("    }")
    methods = []
    kinds = _shuffled(rng, ("add", "add", "sub", "sub", "get", "get", "touch",
                            "scale"))
    for j, kind in enumerate(kinds):
        a, b = rng.sample(fields, 2)
        m = f"{kind}{j}"
        lines.append("")
        if kind == "add":
            lines += [f"    void {m}(int x) <this,this> {{",
                      "        require(x >= 0);",
                      f"        {a} += x;",
                      f"        int t = {a} * 2 + x;",
                      f"        {b} = t - {a};",
                      "    }"]
        elif kind == "sub":
            lines += [f"    void {m}(int x) <this,this> {{",
                      f"        {a} -= x;",
                      "    }"]
        elif kind == "get":
            lines += [f"    int {m}() <this,bot> {{",
                      f"        int s = {a} + {b};",
                      "        return s * 2 - s;",
                      "    }"]
        elif kind == "touch":
            lines += [f"    void {m}() <bot,this> {{",
                      "        flag = true;",
                      "    }"]
        else:
            lines += [f"    void {m}(int k) <this,this> {{",
                      "        require(k >= 0 && k < 5);",
                      f"        {a} = {a} * k + {b};",
                      "    }"]
        methods.append((m, kind))
    lines.append("}")
    return "\n".join(lines) + "\n", methods


def class_program(rng: random.Random, classes: int, stmts: int,
                  tag: str) -> str:
    """Several generated classes and a main that instantiates and drives
    them; `classes` and `stmts` set the size."""
    parts = []
    table = []
    for k in range(classes):
        name = f"{tag}{k}"
        src, methods = _gen_class(rng, name, 2 + k % 4)
        parts.append(src)
        table.append((name, methods))
    ints = _Ints(rng)
    lines = []
    live: list[tuple[str, list]] = []
    for k, (name, methods) in enumerate(table):
        var = f"v{k}"
        lines.append(f"{name}<top> {var} = new {name}<top>"
                     f"({rng.randrange(0, 20)});")
        live.append((var, methods))
    for j in range(stmts):
        var, methods = rng.choice(live)
        m, kind = rng.choice(methods)
        # one statement in ten binds an int, one in twenty checks one
        if j % 10 == 0:
            lines.append(ints.let(f"t{j}"))
        elif j % 20 == 5:
            lines.append(ints.true_require())
        elif kind == "sub":
            lines.append(f"fork atomic {var}.{m}({rng.randrange(0, 30)});")
        elif kind == "add":
            lines.append(f"atomic {var}.{m}({rng.randrange(0, 20)});")
        elif kind == "scale":
            lines.append(f"atomic {var}.{m}({rng.randrange(0, 5)});")
        else:
            lines.append(f"atomic {var}.{m}();")
    body = "".join(f"    {ln}\n" for ln in lines)
    return "\n".join(parts) + "\nmain {\n" + body + "}\n"


def programs(seed: int) -> list[tuple[str, str]]:
    """(file stem, source) of one round's generated programs. Sizes are
    fixed by position; only the contents depend on the seed."""
    rng = random.Random(f"compile_run:{seed}")
    out = []
    for i in range(SMALL_PROGRAMS):
        out.append((f"small{i:02d}", small_program(rng, 4 + i % 7)))
    for i in range(MEDIUM_PROGRAMS):
        out.append((f"medium{i}", class_program(rng, 8, 50, f"M{i}x")))
    for i in range(LARGE_PROGRAMS):
        out.append((f"large{i}", class_program(rng, 60, 220, f"L{i}x")))
    return out
