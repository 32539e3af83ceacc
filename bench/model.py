"""Independent reference model of block execution for the classes of
corpus/bank.ov. It predicts each transaction's status from the account
arithmetic and the conflict edges from the methods' validity contracts
and the deployed ownership tree. It shares no code with ovlang and never
imports it, so agreement with the miner is evidence, not tautology.

The contract table and the arithmetic are transcribed by hand from
corpus/bank.ov:

    Account:  inv amount >= 0
              balance() <this,bot>, deposit(x) <this,this>,
              withdraw(x) <this,this>
    Customer: owns an Account created with 20; inv a.amount >= 10
              safeWithdraw(amt) <this,this>: verifyLogin(); atomic a.withdraw(amt)
              verifyLogin() <bot,this>, audit() <this,bot>
"""
from __future__ import annotations

CONTRACTS = {
    "Account": {"balance": ("this", "bot"),
                "deposit": ("this", "this"),
                "withdraw": ("this", "this")},
    "Customer": {"safeWithdraw": ("this", "this"),
                 "verifyLogin": ("bot", "this"),
                 "audit": ("this", "bot")},
}

COMMITTED = "committed"
POST_FAIL = "aborted:R-POST-FAIL"
CUSTOMER_FLOOR = 10
CUSTOMER_OPENING = 20


class Tree:
    """Deployed objects as nodes; an Account owned by a Customer is the
    Customer's only child. subtree(x) is x plus what it owns."""

    def __init__(self, deploys: list[dict]):
        self.owner: dict[str, str | None] = {}
        self.cls: dict[str, str] = {}
        self.children: dict[str, list[str]] = {}
        for d in deploys:
            self.owner[d["id"]] = None
            self.cls[d["id"]] = d["class"]
            if d["class"] == "Customer":
                child = d["id"] + "/a"
                self.owner[child] = d["id"]
                self.cls[child] = "Account"
                self.children[d["id"]] = [child]

    def subtree(self, ctx: str, target: str) -> frozenset:
        if ctx == "bot":
            return frozenset()
        if ctx == "top":
            return frozenset(self.owner)
        assert ctx == "this", ctx
        out = {target}
        frontier = [target]
        while frontier:
            node = frontier.pop()
            for kid in self.children.get(node, ()):
                out.add(kid)
                frontier.append(kid)
        return frozenset(out)


def contract_sets(tree: Tree, txn: dict) -> tuple[frozenset, frozenset]:
    v, i = CONTRACTS[tree.cls[txn["target"]]][txn["method"]]
    return tree.subtree(v, txn["target"]), tree.subtree(i, txn["target"])


def edges(block: dict) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, whose contracts interfere: a validity set
    meets the other's invalidity set, or the invalidity sets meet."""
    tree = Tree(block["deploy"])
    sets = [contract_sets(tree, t) for t in block["txns"]]
    out = []
    for i, (v1, i1) in enumerate(sets):
        for j in range(i + 1, len(sets)):
            v2, i2 = sets[j]
            if (v1 & i2) or (v2 & i1) or (i1 & i2):
                out.append((i, j))
    return out


def _replay(block: dict) -> tuple[list[str], list[int]]:
    """Each transaction's status when the block runs in index order, and
    the indices of the safeWithdraw calls whose inner atomic aborted."""
    amount: dict[str, int] = {}
    for d in block["deploy"]:
        if d["class"] == "Account":
            amount[d["id"]] = d["args"][0]
        else:
            amount[d["id"]] = CUSTOMER_OPENING
    out = []
    contained = []
    for k, t in enumerate(block["txns"]):
        target, method = t["target"], t["method"]
        args = t.get("args", [])
        bal = amount[target]
        if method in ("balance", "audit", "verifyLogin"):
            out.append(COMMITTED)
        elif method == "deposit":
            ok = bal + args[0] >= 0
            amount[target] = bal + args[0] if ok else bal
            out.append(COMMITTED if ok else POST_FAIL)
        elif method == "withdraw":
            ok = bal - args[0] >= 0
            amount[target] = bal - args[0] if ok else bal
            out.append(COMMITTED if ok else POST_FAIL)
        elif method == "safeWithdraw":
            left = bal - args[0]
            if left >= CUSTOMER_FLOOR:
                amount[target] = left
                out.append(COMMITTED)
            elif left < 0:
                # the inner `atomic a.withdraw` aborts alone; the balance
                # stays, the invariant holds and the outer frame commits
                contained.append(k)
                out.append(COMMITTED)
            else:
                # 0 <= left < 10: the Customer invariant fails and the
                # whole transaction aborts
                out.append(POST_FAIL)
        else:
            raise ValueError(f"model has no method {method}")
    return out, contained


def statuses(block: dict) -> list[str]:
    """Each transaction's status when the block runs in index order."""
    return _replay(block)[0]


def compare(block: dict, got: list[str]) -> tuple[list[int], list[int]]:
    """Indices where the statuses `got` differ from the model's, split
    into (wrong, misreported). Misreported are contained inner aborts
    reported as POST_FAIL: blocksched reports a transaction as aborted
    whenever its method's last value is a failure, even though the outer
    frame committed. That is a known fault of the program, counted apart
    so that it stays visible and so that a fix does not read as wrong."""
    want, contained = _replay(block)
    wrong, misreported = [], []
    for k, (w, g) in enumerate(zip(want, got)):
        if w == g:
            continue
        if k in contained and g == POST_FAIL:
            misreported.append(k)
        else:
            wrong.append(k)
    if len(want) != len(got):
        wrong.append(min(len(want), len(got)))
    return wrong, misreported
