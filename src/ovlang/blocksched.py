"""Block-level execution: validity-interference between transaction
contracts, conflict-graph construction, mining, and validator re-execution.

Each transaction runs once, as a single top-level transaction whose
contract is the target method's contract with this bound to the target
location. Two transactions may run in either order only when their
contracts do not interfere, so index order honours every conflict graph.
`interferes` defines interference; `build_conflict_graph` finds the same
pairs from buckets over the ownership tree, Top, its root, and every
location alike, without testing a pair.
The miner, the validator and the serial oracle share one path (`_prepare`,
then `_execute`), which makes the observable results (statuses, hash,
counters) a pure function of the block and the order. The validator
re-mines the block in index order, rejects a miner's graph that omits a
real edge (E-BG-MISMATCH), and compares the state hash and the statuses.
Each runs on a fresh machine, but all of them, and every later block of the
same program, share the program's one `runtime.Code` (`_code`): the class
table, the plans, the entry nodes and the compiled bodies are made once.

Each deploy and each transaction is a creator (`_creators`) that names
the heap slots it allocates (`Machine.set_creator`), so slot names do not
depend on the order in which the transactions ran.

A block of at least SHARD_MIN_WORK deploys plus transactions runs split
into regions, one per deploy with the transactions sent to it, on every
usable CPU (`regions`), through this same path and with the same creator
numbers, and gives exactly what one process gives. `serial_execute`
always runs in one process: it is the oracle the split is tested against.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from . import ast
from .ast import Contract, CtxBot, CtxParam, CtxThis, CtxTop
from .diagnostics import OvError
from .ownership import OwnershipTree, subtrees_intersect
from .runtime import DEFAULT_FUEL, Code, FailureValue, Loc, Machine, Value

# interpreter steps one transaction may take before it aborts as R-GAS
TXN_STEPS = DEFAULT_FUEL

# A block with fewer deploys plus transactions than this runs in one
# process, and each shard of a larger one (`regions`) gets at least half
# of it. Waking a worker idle for 5 ms costs about 0.6 ms at the median
# and 0.8 ms at p90. Mining plus validating in two shards ran this many
# times as fast as in one process on bank blocks of n accounts and n
# transactions, back to back and with the worker idle for 5 ms before
# each block (medians of 12 blocks a size in 25 interleaved trials; the
# lower of two runs at each size; a 2-vCPU host):
#
#     units (2n)      10    20    30    40    50    60    80   100
#     back to back  0.83  1.02  1.04  1.18  1.23  1.25  1.17  1.34
#     worker idle   0.65  0.80  0.92  1.03  1.03  1.07  1.12  1.23
#
# so two shards stop losing at 40 units. Bank units are the cheapest of
# any workload; custody_hot's blocks (48 units, each about twice a bank
# unit) ran 1.43x and 1.23x as fast, and bank_large's (1,000) are far
# above it.
SHARD_MIN_WORK = 40


class Sct(ast.Record):
    """A bound transaction: its contract's V and I as tree nodes."""
    __slots__ = ("method", "args", "loc", "validity", "invalidity",
                 "creator")

    def __init__(self, method: str, args: list, loc: int = -1,
                 validity=None, invalidity=None,
                 creator: int = 0):  # names the heap slots its run allocates
        self.method = method
        self.args = args
        self.loc = loc
        self.validity = validity
        self.invalidity = invalidity
        self.creator = creator


class Block(ast.Record):
    __slots__ = ("deploys",  # of {"id","class","args"}
                 "txns")     # of {"target","method","args"}

    def __init__(self, deploys: list, txns: list):
        self.deploys = deploys
        self.txns = txns


class _Report(ast.Record):
    __slots__ = ()

    def to_json(self) -> dict:
        """The fields in declaration order, each edge as a list."""
        out = {f: getattr(self, f) for f in self._fields}
        out["edges"] = [list(e) for e in self.edges]
        return out


class MinedBlock(_Report):
    __slots__ = ("edges", "status", "final_state_hash", "pre_checks",
                 "post_checks")

    def __init__(self, edges: list, status: list, final_state_hash: str,
                 pre_checks: int, post_checks: int):
        self.edges = edges
        self.status = status
        self.final_state_hash = final_state_hash
        self.pre_checks = pre_checks
        self.post_checks = post_checks


class ValidationReport(_Report):
    __slots__ = ("accepted", "final_state_hash", "status", "edges",
                 "hash_matches", "statuses_match")

    def __init__(self, accepted: bool, final_state_hash: str, status: list,
                 edges: list, hash_matches: bool, statuses_match: bool):
        self.accepted = accepted
        self.final_state_hash = final_state_hash
        self.status = status
        self.edges = edges
        self.hash_matches = hash_matches
        self.statuses_match = statuses_match


# the fields a block, a deploy and a transaction may have; any other is a
# schema error, never ignored
_BLOCK_FIELDS = {"deploy", "txns"}
_DEPLOY_FIELDS = {"id", "class", "args"}
_TXN_FIELDS = {"target", "method", "args"}


def _unknown(entry: dict, known: set) -> str:
    """The fields of entry outside known, named in sorted order."""
    return ", ".join(sorted(set(entry) - known))


def parse_block(data: dict) -> Block:
    """Validate the block JSON shape. Schema problems, an unknown field
    among them, raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError("block must be a JSON object")
    if not _BLOCK_FIELDS.issuperset(data):
        raise ValueError("unknown block fields: " +
                         _unknown(data, _BLOCK_FIELDS))
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
        if not _DEPLOY_FIELDS.issuperset(d):
            raise ValueError(f"deploy {d['id']}: unknown fields: " +
                             _unknown(d, _DEPLOY_FIELDS))
        _check_args(d.get("args", []))
    for i, t in enumerate(txns):
        if not isinstance(t, dict) or not {"target", "method"} <= set(t):
            raise ValueError("each txn needs target and method")
        if not isinstance(t["target"], str) or not isinstance(t["method"], str):
            raise ValueError("txn target and method must be strings")
        if not _TXN_FIELDS.issuperset(t):
            raise ValueError(f"txn {i}: unknown fields: " +
                             _unknown(t, _TXN_FIELDS))
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


def build_conflict_graph(scts: list[Sct], tree: OwnershipTree) -> list[tuple]:
    """The interfering pairs (i, j), i < j, in sorted order.

    Each transaction's V and I are nodes of the tree (`_bind_scts`): a
    location, Top, the root above every top-owned location, or Bot, whose
    chain is empty. Two subtrees meet iff one node lies on the other's
    ancestor chain, so the pairs come from buckets over `tree.chains`:
    `writers[a]` holds the transactions whose invalidity is node a, and
    `under[a]` those whose invalidity lies in subtree(a). So for a context
    x of j, each i in under[x] or among the writers at x's strict
    ancestors has I_i meeting V_j or I_j, which is interference by
    definition (`interferes`): no pair needs confirming. A V or I outside
    the tree is E-DANGLING, the invalidities' first."""
    chains = tree.chains
    writers: dict = {}
    under: dict = {}
    for i, sct in enumerate(scts):
        w = sct.invalidity
        chain = chains.get(w)
        if chain is None:
            tree.chain(w)  # E-DANGLING
        if chain:
            writers.setdefault(w, []).append(i)
            for a in chain:
                under.setdefault(a, []).append(i)
    pairs: set[tuple[int, int]] = set()
    add = pairs.add
    for j, sct in enumerate(scts):
        v, w = sct.validity, sct.invalidity
        for x in (v, w) if v != w else (w,):
            chain = chains.get(x)
            if chain is None:
                tree.chain(x)  # E-DANGLING
            if not chain:
                continue
            for i in under.get(x, ()):
                if i != j:
                    add((i, j) if i < j else (j, i))
            for a in chain[1:]:
                for i in writers.get(a, ()):
                    if i != j:
                        add((i, j) if i < j else (j, i))
    return sorted(pairs)


# A context's place under the binding `_deploy` gives a deployed object:
# every context parameter is top, and this is a root, strictly between bot
# and top.
_DEPLOY_RANK = {CtxBot: 0, CtxThis: 1, CtxParam: 2, CtxTop: 2}


def _deploy_keeps(c: ast.Constraint) -> bool:
    """The `where` constraint c holds of every deployed object."""
    lo = _DEPLOY_RANK.get(type(c.lhs))
    hi = _DEPLOY_RANK.get(type(c.rhs))
    return lo is not None and hi is not None and (
        lo < hi or (lo == hi and not c.strict))


# the type of the block argument values a parameter of each type takes; a
# class-typed parameter takes only null
_ARG_TYPES = {ast.IntType: int, ast.BoolType: bool}


def _arg_fault(params: list, args: list) -> Optional[str]:
    """Why args cannot be passed to params, or None: a count that differs,
    or the first value its parameter's type does not take (`_ARG_TYPES`).
    A deploy is checked before its constructor runs, and every
    transaction before any of them runs."""
    if len(args) != len(params):
        return f"takes {len(params)} arguments, got {len(args)}"
    for p, a in zip(params, args):
        if type(a) is not _ARG_TYPES.get(type(p.type), type(None)):
            import json
            return f"parameter {p.name} is {p.type}, got {json.dumps(a)}"
    return None


def _deploy(machine: Machine, deploys: list,
            creators: Iterable[int]) -> dict[str, int]:
    """Run the deploy list serially, each as the creator `creators` numbers
    it; returns id -> location. A deploy binds every context parameter of
    its class to top, so a class with a `where` constraint that this
    binding breaks cannot be deployed.

    The deploys before the first that cannot start (`_deploy_unit`) run
    as one list (`_run`); the first of them to fail, else that one, is the
    block's fault."""
    units, fault = [], None
    try:
        for d, creator in zip(deploys, creators):
            units.append(_deploy_unit(machine, d, creator))
    except ValueError as err:
        fault = err
    targets: dict[str, int] = {}
    for d, (val, _) in zip(deploys, _run(machine, units, DEFAULT_FUEL)):
        if isinstance(val, FailureValue):
            raise ValueError(f"deploy {d['id']} failed: {val.msg}")
        assert isinstance(val, Loc)
        targets[d["id"]] = val.index
    if fault is not None:
        raise fault
    return targets


def _deploy_unit(machine: Machine, d: dict, creator: int) -> tuple:
    """The deploy d as a unit (`closures.Compiled.run`): its class's entry
    node, a `new` with its context arguments resolved whose `Var` slots
    read the arguments, the arguments and its creator; or ValueError."""
    cname = d["class"]
    # (the entry node, the constructor's parameters), made at the class's
    # first deploy of this program, which names itself in any fault; a
    # deploy of another arity stops at _arg_fault
    entries = machine.code.entries
    hit = entries.get(cname)
    if hit is None:
        info = machine.table.info(cname)
        if info is None:
            raise ValueError(f"deploy {d['id']}: unknown class {cname}")
        typ = ast.ClassType(cname, [CtxTop()] * len(info.decl.ctx_params))
        for c in info.decl.constraints:
            if not _deploy_keeps(c):
                raise ValueError(f"deploy {d['id']}: {typ} violates the "
                                 f"constraint {c} of {cname}")
        params = info.ctor.params if info.ctor else []
        hit = entries[cname] = (ast.New(typ, _slots(len(params))), params)
    expr, params = hit
    args = d.get("args", [])
    fault = _arg_fault(params, args)
    if fault is not None:
        raise ValueError(f"deploy {d['id']}: {cname} constructor {fault}")
    return expr, args, creator


def _bind_scts(machine: Machine, targets: dict, txns: list,
               creators: Iterable[int]) -> list[Sct]:
    """The txns bound to their targets and their methods' V and I nodes."""
    scts = []
    for (i, t), creator in zip(enumerate(txns), creators):
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
        fault = _arg_fault(m.params, args)
        if fault is not None:
            raise OvError("E-TARGET", f"txn {i}: {t['method']} {fault}")
        validity, invalidity = machine._method_contract(obj, loc,
                                                        owner_cls, m)
        scts.append(Sct(t["method"], list(args), loc, validity, invalidity,
                        creator))
    return scts


def _creators(block: Block, deploys: Iterable[int],
              txns: Iterable[int]) -> list[int]:
    """The creator numbers of the block's deploys, then txns, at these
    indices: deploy d is creator d, and txn i creator len(deploys) + i."""
    first_txn = len(block.deploys)
    return [*deploys, *(first_txn + i for i in txns)]


# (program, its code) of the last program `_prepare` was passed, kept by
# the program's identity: every block of one program shares one `Code`,
# compiled once. It is never pickled: a worker is sent the program only when
# it changed (`regions._Worker.send`), makes its own code on its first shard
# and keeps it while it keeps the program.
_CODE: Optional[tuple] = None


def _code(program: ast.Program) -> Code:
    """The code of program's classes, run with no main; the last program's
    is kept."""
    global _CODE
    hit = _CODE
    if hit is None or hit[0] is not program:
        hit = _CODE = (program, Code(ast.Program(program.classes, None)))
    return hit[1]


def _prepare(program: ast.Program, block: Block,
             creators: Optional[Sequence[int]] = None
             ) -> tuple[Machine, list[Sct]]:
    """A fresh machine, on the program's shared code, with the block's
    deploys run and its txns bound, numbered as creators by `creators`, by
    default the block's own."""
    n = len(block.deploys)
    if creators is None:
        creators = _creators(block, range(n), range(len(block.txns)))
    code = _code(program)
    machine = Machine(code.program, code=code)  # runs no main
    targets = _deploy(machine, block.deploys, creators[:n])
    return machine, _bind_scts(machine, targets, block.txns, creators[n:])


# The entry nodes read a block's arguments from `Var` slots of the env,
# `__arg0`, `__arg1` and so on: a variable takes one step, as a constant
# does. A transaction's env holds its target as `this`.
def _slots(n: int) -> list[ast.Var]:
    return [ast.Var(f"__arg{k}") for k in range(n)]


def _arg_env(slots: list, args: list, ctx: dict) -> dict:
    """The env of an entry node: args in its slots, ctx as its context
    map."""
    env = {"#ctx": ctx}
    for slot, a in zip(slots, args):
        env[slot.name] = a
    return env


def _run(machine: Machine, units: list, fuel: int) -> Iterator:
    """(value, whether it committed a root frame) of each unit, in order,
    through the compiled evaluator's one guard (`closures.Compiled.run`);
    each unit it hands back is reduced (`_reduce`) only when asked for, so
    a caller that stops at a fault reduces nothing after it."""
    compiled = machine.compiled()
    k = 0
    while k < len(units):
        done = compiled.run(machine, units, fuel, k)
        yield from done
        k += len(done)
        if k < len(units):
            expr, arg, creator = units[k]
            machine.set_creator(creator)
            commits = machine.root_commits
            yield _reduce(machine, expr, arg), machine.root_commits > commits
            k += 1


def _reduce(machine: Machine, expr: ast.Expr, arg) -> Value:
    """A unit on the small-step machine: its entry node, in an env that
    binds its slots to a deploy's arguments arg, or to a bound
    transaction's, with `this` the target and its context parameters the
    V and I nodes; a transaction past TXN_STEPS steps fails as R-GAS."""
    if type(expr) is ast.New:
        return machine.run_expression(expr, _arg_env(expr.args, arg, {}))
    env = _arg_env(expr.body.args, arg.args, {"__validity": arg.validity,
                                              "__invalidity": arg.invalidity})
    env["this"] = machine.locs[arg.loc]
    try:
        return machine.run_expression(expr, env, TXN_STEPS)
    except OvError as err:
        if err.code != "E-FUEL":
            raise
        return FailureValue("R-GAS", err.msg)


def _execute(machine: Machine, scts: list[Sct],
             order: Iterable[int]) -> list[str]:
    """Run the transactions in `order` as one list (`_run`), each unit the
    bound transaction with its method's and arity's `atomic` call node,
    made once per program; statuses by index. A status is whether its own
    top-level frame committed: a contained inner abort whose failure value
    the method returns leaves it committed. A transaction that runs past
    TXN_STEPS steps is aborted, as R-GAS, and the block goes on."""
    entries = machine.code.entries
    order = list(order)
    units = []
    for i in order:
        sct = scts[i]
        key = (sct.method, len(sct.args))
        expr = entries.get(key)
        if expr is None:
            expr = entries[key] = ast.Atomic(
                Contract(CtxParam("__validity"), CtxParam("__invalidity")),
                ast.Call(ast.This(), sct.method, _slots(len(sct.args))))
        units.append((expr, sct, sct.creator))
    status = [""] * len(scts)
    for i, (val, committed) in zip(order, _run(machine, units, TXN_STEPS)):
        status[i] = "committed" if committed else f"aborted:{val.code}"
    return status


def mine_block(program: ast.Program, block: Block) -> MinedBlock:
    """Execute a block in index order and report its conflict graph,
    statuses, and final state."""
    return _mine(program, block)


def _mine(program: ast.Program, block: Block) -> MinedBlock:
    """mine_block's path. validate_block calls it directly, so that a hook
    on mine_block times mining alone. A large block runs in regions when
    it can; a small one never imports `regions`."""
    if len(block.deploys) + len(block.txns) >= SHARD_MIN_WORK:
        from . import regions
        mined = regions.run(program, block)
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
    """Re-mine the block on a fresh heap, in index order, and check the
    miner's claims against what it gives: a real conflict edge missing
    from the miner's graph is a protocol violation (E-BG-MISMATCH), and
    the block is accepted when the state hash and the statuses match.
    The miner's graph orders nothing here: index order honours every
    graph, its own included."""
    real = _mine(program, block)
    missing = sorted(set(real.edges) - {tuple(e) for e in mined.edges})
    if missing:
        raise OvError("E-BG-MISMATCH",
                      "miner's graph omits conflicting pairs: " +
                      ", ".join(str(list(e)) for e in missing))
    hash_ok = real.final_state_hash == mined.final_state_hash
    status_ok = real.status == list(mined.status)
    return ValidationReport(
        accepted=hash_ok and status_ok,
        final_state_hash=real.final_state_hash,
        status=real.status,
        edges=real.edges,
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
