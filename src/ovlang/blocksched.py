"""Block-level execution: validity-interference between transaction
contracts, conflict-graph construction, mining, and validator re-execution.

Each transaction runs once, as a single top-level transaction whose
contract is the target method's contract with this bound to the target
location. Two transactions may run in either order only when their
contracts do not interfere, so index order honours every conflict graph.
The miner, the validator and the serial oracle share one path (`_prepare`,
then `_execute`), which makes the observable results (statuses, hash,
counters) a pure function of the block and the order.

A block of at least SHARD_MIN_WORK deploys plus transactions runs split
into regions, one per deploy with the transactions sent to it, on every
usable CPU (`regions`), through this same path, and gives exactly what one
process gives. `serial_execute` always runs in one process: it is the
oracle the split is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import ast
from .ast import Contract, CtxBot, CtxLoc, CtxTop
from .diagnostics import OvError
from .ownership import OwnershipTree, subtrees_intersect
from .runtime import DEFAULT_FUEL, FailureValue, Loc, Machine

# interpreter steps one transaction may take before it aborts as R-GAS
TXN_STEPS = DEFAULT_FUEL

# A block with fewer deploys plus transactions than this runs in one
# process, and each shard of a larger one (`regions`) gets at least half
# of it. Waking an idle worker costs about 0.6 ms at the median and 3.3 ms
# at p90, so on bank blocks of n accounts and n transactions two shards
# break even between n = 50 and n = 100. Mining with the worker idle for
# 5 ms before each block ran, against one process, 0.89x as fast at
# n = 25, 0.94x at 50, 1.12x at 75, 1.18x at 100 and 1.41x at 200 (medians
# of 120 blocks each, on a 2-vCPU host). custody_hot's blocks (48) stay
# below it, bank_large's (1,000) are above.
SHARD_MIN_WORK = 200


@dataclass
class Sct:
    index: int
    target: str
    method: str
    args: list
    loc: int = -1
    contract: Optional[Contract] = None
    status: str = "pending"
    slots: int = 0  # heap slots its execution took, aborted allocations too


@dataclass
class Block:
    deploys: list  # of {"id","class","args"}
    txns: list     # of {"target","method","args"}


@dataclass
class MinedBlock:
    edges: list
    status: list
    final_state_hash: str
    pre_checks: int
    post_checks: int

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "status": list(self.status),
            "final_state_hash": self.final_state_hash,
            "pre_checks": self.pre_checks,
            "post_checks": self.post_checks,
        }


@dataclass
class ValidationReport:
    accepted: bool
    final_state_hash: str
    status: list
    edges: list
    hash_matches: bool
    statuses_match: bool

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "final_state_hash": self.final_state_hash,
            "status": list(self.status),
            "edges": [list(e) for e in self.edges],
            "hash_matches": self.hash_matches,
            "statuses_match": self.statuses_match,
        }


def parse_block(data: dict) -> Block:
    """Validate the block JSON shape. Schema problems raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError("block must be a JSON object")
    unknown = sorted(set(data) - {"deploy", "txns"})
    if unknown:
        raise ValueError("unknown block fields: " + ", ".join(unknown))
    deploys = data.get("deploy", [])
    txns = data.get("txns", [])
    if not isinstance(deploys, list) or not isinstance(txns, list):
        raise ValueError("deploy and txns must be arrays")
    seen: set = set()
    for d in deploys:
        if not isinstance(d, dict) or not {"id", "class"} <= set(d):
            raise ValueError("each deploy needs id and class")
        if not isinstance(d["id"], str) or not isinstance(d["class"], str):
            raise ValueError("deploy id and class must be strings")
        if d["id"] in seen:
            raise ValueError(f"duplicate deploy id {d['id']}")
        seen.add(d["id"])
        _check_args(d.get("args", []))
    for t in txns:
        if not isinstance(t, dict) or not {"target", "method"} <= set(t):
            raise ValueError("each txn needs target and method")
        if not isinstance(t["target"], str) or not isinstance(t["method"], str):
            raise ValueError("txn target and method must be strings")
        _check_args(t.get("args", []))
    return Block(deploys=list(deploys), txns=list(txns))


def _check_args(args) -> None:
    if not isinstance(args, list):
        raise ValueError("args must be an array")
    for a in args:
        if not (a is None or isinstance(a, (int, bool))):
            raise ValueError(f"unsupported argument value {a!r}")


def interferes(d1: Contract, d2: Contract, tree: OwnershipTree) -> bool:
    """Contracts interfere unless both validity sets avoid the other's
    invalidity set and the invalidity sets are disjoint."""
    return not (not subtrees_intersect(tree, d1.validity, d2.invalidity)
                and not subtrees_intersect(tree, d2.validity, d1.invalidity)
                and not subtrees_intersect(tree, d1.invalidity, d2.invalidity))


def _located(d: Contract) -> bool:
    """Both contexts of d are bot or a location."""
    return (isinstance(d.validity, (CtxLoc, CtxBot))
            and isinstance(d.invalidity, (CtxLoc, CtxBot)))


def build_conflict_graph(scts: list[Sct], tree: OwnershipTree) -> list[tuple]:
    """The interfering pairs (i, j), i < j, in sorted order.

    Two location contexts meet iff one lies on the other's ancestor chain,
    so candidates come from buckets over the deployed tree: `writers[a]`
    holds the transactions whose invalidity is l_a, `under[a]` those whose
    invalidity lies in subtree(a). A context l_x meets the invalidity of
    every transaction in `under[x]` and in `writers[a]` for each strict
    ancestor a of x. A transaction with a context that is neither Bot nor
    a location is paired with every other one. `interferes`, the one
    definition of interference, confirms each candidate."""
    writers: dict[int, list[int]] = {}
    under: dict[int, list[int]] = {}
    located: list[tuple[int, set[int]]] = []
    pairs: set[tuple[int, int]] = set()
    for i, sct in enumerate(scts):
        d = sct.contract
        if not _located(d):
            pairs.update((min(i, j), max(i, j))
                         for j in range(len(scts)) if j != i)
            continue
        located.append((i, {k.index for k in (d.validity, d.invalidity)
                            if isinstance(k, CtxLoc)}))
        if isinstance(d.invalidity, CtxLoc):
            writers.setdefault(d.invalidity.index, []).append(i)
            for a in tree.chain(d.invalidity.index):
                under.setdefault(a, []).append(i)
    for j, locs in located:
        for x in locs:
            hits = list(under.get(x, ()))
            for a in tree.chain(x)[1:]:
                hits.extend(writers.get(a, ()))
            pairs.update((min(i, j), max(i, j)) for i in hits if i != j)
    return [(i, j) for i, j in sorted(pairs)
            if interferes(scts[i].contract, scts[j].contract, tree)]


def _library(program: ast.Program) -> ast.Program:
    return ast.Program(program.classes, None)


def _deploy(machine: Machine, deploys: list) -> dict[str, int]:
    """Run the deploy list serially; returns id -> location."""
    targets: dict[str, int] = {}
    # class name -> (top-owned type, constructor arity), once per class
    classes: dict[str, tuple[ast.ClassType, int]] = {}
    for d in deploys:
        cname = d["class"]
        known = classes.get(cname)
        if known is None:
            decl = machine.table.get(cname)
            if decl is None:
                raise ValueError(f"deploy {d['id']}: unknown class {cname}")
            ctor = machine.table.ctor_of(cname)
            known = classes[cname] = (
                ast.ClassType(cname, [CtxTop()] * len(decl.ctx_params)),
                len(ctor.params) if ctor else 0)
        typ, expected = known
        args = d.get("args", [])
        if len(args) != expected:
            raise ValueError(
                f"deploy {d['id']}: {cname} constructor takes {expected} "
                f"arguments, got {len(args)}")
        expr = ast.New(typ, [ast.Const(a) for a in args])
        val = machine.run_expression(expr)
        if isinstance(val, FailureValue):
            raise ValueError(f"deploy {d['id']} failed: {val.msg}")
        assert isinstance(val, Loc)
        targets[d["id"]] = val.index
    return targets


def _bind_scts(machine: Machine, targets: dict, txns: list) -> list[Sct]:
    scts = []
    for i, t in enumerate(txns):
        if t["target"] not in targets:
            raise OvError("E-TARGET", f"txn {i}: unknown target {t['target']}")
        loc = targets[t["target"]]
        obj = machine.heap[loc]
        hit = machine.table.find_method(obj.class_name, t["method"])
        if hit is None:
            raise OvError("E-TARGET",
                          f"txn {i}: {obj.class_name} has no method "
                          f"{t['method']}")
        owner_cls, m = hit
        args = t.get("args", [])
        if len(args) != len(m.params):
            raise OvError("E-TARGET",
                          f"txn {i}: {t['method']} takes {len(m.params)} "
                          f"arguments, got {len(args)}")
        scts.append(Sct(index=i, target=t["target"], method=t["method"],
                        args=list(args), loc=loc,
                        contract=machine._method_contract(obj, loc,
                                                          owner_cls, m)))
    return scts


def _prepare(program: ast.Program, block: Block) -> tuple[Machine, list[Sct]]:
    """A fresh machine with the block's deploys run and its txns bound."""
    machine = Machine(_library(program))
    targets = _deploy(machine, block.deploys)
    return machine, _bind_scts(machine, targets, block.txns)


def _execute_sct(machine: Machine, sct: Sct) -> str:
    """Run one transaction. Its status is whether its own top-level frame
    committed: a contained inner abort whose failure value the method
    returns still leaves the transaction committed. A transaction that
    runs past TXN_STEPS steps is aborted, as R-GAS, and the block goes on."""
    expr = ast.Atomic(sct.contract,
                      ast.Call(ast.Var("__target"), sct.method,
                               [ast.Const(a) for a in sct.args]))
    commits = machine.root_commits
    try:
        val = machine.run_expression(
            expr, {"__target": machine.locs[sct.loc], "#ctx": {}},
            fuel=TXN_STEPS)
    except OvError as err:
        if err.code != "E-FUEL":
            raise
        return "aborted:R-GAS"
    if machine.root_commits > commits:
        return "committed"
    assert isinstance(val, FailureValue)
    return f"aborted:{val.code}"


def _execute(machine: Machine, scts: list[Sct],
             order: Iterable[int]) -> list[str]:
    """Run the transactions one at a time in `order`; statuses by index."""
    heap = machine.heap
    for i in order:
        sct = scts[i]
        before = len(heap)
        sct.status = _execute_sct(machine, sct)
        sct.slots = len(heap) - before
    return [s.status for s in scts]


def _run_in_regions(program: ast.Program,
                    block: Block) -> Optional[MinedBlock]:
    """The block's output from its regions run in parallel, or None when
    it runs in one process. A small block never imports `regions`, nor
    what that module imports."""
    if len(block.deploys) + len(block.txns) < SHARD_MIN_WORK:
        return None
    from . import regions
    return regions.run(program, block)


def mine_block(program: ast.Program, block: Block) -> MinedBlock:
    """Execute a block in index order and report its conflict graph,
    statuses, and final state."""
    mined = _run_in_regions(program, block)
    if mined is not None:
        return mined
    machine, scts = _prepare(program, block)
    edges = build_conflict_graph(scts, machine.tree)
    status = _execute(machine, scts, range(len(scts)))
    return MinedBlock(
        edges=edges,
        status=status,
        final_state_hash=machine.state_hash(),
        pre_checks=machine.pre_checks,
        post_checks=machine.post_checks,
    )


def validate_block(program: ast.Program, mined: MinedBlock,
                   block: Block) -> ValidationReport:
    """Re-execute the block on a fresh heap, honoring the miner's graph,
    and check the miner's claims. A real conflict edge missing from the
    miner's graph is a protocol violation (E-BG-MISMATCH)."""
    sharded = _run_in_regions(program, block)
    if sharded is None:
        machine, scts = _prepare(program, block)
        real_edges = set(build_conflict_graph(scts, machine.tree))
    else:
        real_edges = set(sharded.edges)
    miner_edges = {tuple(e) for e in mined.edges}
    missing = sorted(real_edges - miner_edges)
    if missing:
        raise OvError("E-BG-MISMATCH",
                      "miner's graph omits conflicting pairs: " +
                      ", ".join(str(list(e)) for e in missing))
    if sharded is None:
        # execution honors the union graph; index order satisfies any graph
        statuses = _execute(machine, scts, range(len(scts)))
        h = machine.state_hash()
    else:
        statuses, h = sharded.status, sharded.final_state_hash
    hash_ok = h == mined.final_state_hash
    status_ok = statuses == list(mined.status)
    return ValidationReport(
        accepted=hash_ok and status_ok,
        final_state_hash=h,
        status=statuses,
        edges=sorted(real_edges),
        hash_matches=hash_ok,
        statuses_match=status_ok,
    )


def serial_execute(program: ast.Program, block: Block,
                   order: Optional[list[int]] = None) -> tuple[str, list]:
    """Oracle: run the block's transactions one at a time in the given
    index order and return (state hash, statuses)."""
    n = len(block.txns)
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the txn indices")
    machine, scts = _prepare(program, block)
    statuses = _execute(machine, scts, order)
    return machine.state_hash(), statuses
