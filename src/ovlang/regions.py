"""Large blocks on every usable CPU: mining and validation split into
regions run in parallel, merged into exactly the one-process result.

A block is split into regions, one per deploy with the transactions sent
to it. Block arguments are scalars and every deploy is top-owned, so an
object is reachable only from the region whose constructor or
transactions allocated it; and while each transaction's contract binds its
contexts to bot or to its target's location, and no deployed class has a
`where` constraint that the all-top deploy breaks, no edge, read or write
crosses regions. `run` balances the regions into one shard per usable CPU
and runs each shard through blocksched's one-process path (`_deploy`,
`_bind_scts`, `build_conflict_graph`, `_execute`), on a heap of its own:
one shard in this process, the others in worker processes (`_Pool`).
`merge` turns the shards' outputs into exactly those of one process: heap
slots are taken deploys first, then transactions by index, with aborted
allocations keeping theirs, so each shard's locations map onto the serial
ones. A block whose regions may meet, a shard that raises, a dead worker,
a process with other threads and a host with one usable CPU all fall back
to one process.

blocksched imports this module on the first block of at least
`blocksched.SHARD_MIN_WORK` deploys plus transactions, and this module
imports `multiprocessing` on the first block it splits. It calls
blocksched's functions through that module, so hooks patched into
blocksched see the shards this process runs.
"""
from __future__ import annotations

import gc
import heapq
import os
import signal
import threading
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Optional

from . import ast, blocksched
from .ast import CtxBot, CtxParam, CtxThis, CtxTop
from .blocksched import Block, MinedBlock
from .runtime import Loc, Machine, object_text, state_digest

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


def _split(program: ast.Program, block: Block,
           shards: int) -> Optional[list[tuple[list[int], list[int]]]]:
    """The block's regions balanced into at most `shards` shards, each as
    its deploy and transaction indices, ascending, the lightest shard
    first. None when the block must run in one process: two deploys share
    an id, a transaction's target is not deployed, a deployed class is
    unknown or has a constraint that its deploy breaks, or fewer than two
    shards get work."""
    where = {d["id"]: k for k, d in enumerate(block.deploys)}
    if len(where) < len(block.deploys):
        return None
    sent: list[list[int]] = [[] for _ in block.deploys]
    for t, txn in enumerate(block.txns):
        k = where.get(txn["target"])
        if k is None:
            return None
        sent[k].append(t)
    classes = {c.name: c for c in program.classes}
    for name in {d["class"] for d in block.deploys}:
        decl = classes.get(name)
        if decl is None or not all(map(_deploy_keeps, decl.constraints)):
            return None
    # the busiest region first, each to the least loaded shard; a deploy
    # weighs as much as a transaction
    loads = [(0, s) for s in range(shards)]
    shard_of = [0] * len(sent)
    for k in sorted(range(len(sent)), key=lambda k: -len(sent[k])):
        load, s = heapq.heappop(loads)
        shard_of[k] = s
        heapq.heappush(loads, (load + 1 + len(sent[k]), s))
    parts: list[tuple[list[int], list[int]]] = [([], []) for _ in loads]
    for k, s in enumerate(shard_of):
        parts[s][0].append(k)
    for t, txn in enumerate(block.txns):
        parts[shard_of[where[txn["target"]]]][1].append(t)
    parts = sorted((p for p in parts if p[0]),
                   key=lambda p: len(p[0]) + len(p[1]))
    return parts if len(parts) > 1 else None


class _ShardRun(NamedTuple):
    """What one shard's run reports, in the shard's own numbering."""
    edges: list        # (i, j) over the shard's transactions
    status: list
    pre_checks: int
    post_checks: int
    deploy_slots: list  # heap slots each deploy took
    txn_slots: list     # heap slots each transaction took
    texts: list         # (location, object_text) of objects without a Loc
    linked: list        # (location, class, fields, field names) of the rest
    valid: list         # the valid set, ascending


def _run_shard(program: ast.Program, deploys: list,
               txns: list) -> Optional[_ShardRun]:
    """A shard through the one-process path, on a heap of its own. None
    when a transaction's contract binds a context to neither bot nor a
    location, so that its region may meet the others."""
    machine = Machine(blocksched._library(program))
    targets = blocksched._deploy(machine, deploys)
    firsts = [*targets.values(), len(machine.heap)]
    scts = blocksched._bind_scts(machine, targets, txns)
    if not all(blocksched._located(s.contract) for s in scts):
        return None
    edges = blocksched.build_conflict_graph(scts, machine.tree)
    status = blocksched._execute(machine, scts, range(len(scts)))
    # objects whose fields hold a location are spelled after the merge has
    # renamed it; the others here, in parallel with the other shards
    texts, linked = [], []
    for i, name, fields in machine.live_objects():
        names = machine.field_names(name)
        if Loc in map(type, fields.values()):
            linked.append((i, name, fields, names))
        else:
            texts.append((i, object_text(name, fields, names)))
    return _ShardRun(
        edges, status, machine.pre_checks, machine.post_checks,
        [b - a for a, b in zip(firsts, firsts[1:])],
        [s.slots for s in scts], texts, linked, sorted(machine.sigma))


def merge(block: Block, parts: list, runs: list) -> MinedBlock:
    """The block's output in one process, from its shards' runs."""
    deploy_slots = [0] * len(block.deploys)
    txn_slots = [0] * len(block.txns)
    for (dix, tix), shard in zip(parts, runs):
        for k, n in zip(dix, shard.deploy_slots):
            deploy_slots[k] = n
        for t, n in zip(tix, shard.txn_slots):
            txn_slots[t] = n
    # the serial location of each deploy's first slot, then each txn's
    slots = deploy_slots + txn_slots
    firsts = list(accumulate(slots, initial=0))
    txn_base = len(deploy_slots)
    status = [""] * len(txn_slots)
    edges: list[tuple[int, int]] = []
    texts: list[tuple[int, str]] = []
    valid: list[int] = []
    pre = post = 0
    for (dix, tix), shard in zip(parts, runs):
        serial: list[int] = []  # shard location -> serial location
        for u in dix + [txn_base + t for t in tix]:
            serial.extend(range(firsts[u], firsts[u] + slots[u]))
        for t, st in zip(tix, shard.status):
            status[t] = st
        edges.extend((tix[i], tix[j]) for i, j in shard.edges)
        pre += shard.pre_checks
        post += shard.post_checks
        texts.extend((serial[i], text) for i, text in shard.texts)
        for i, name, f, names in shard.linked:
            f = {n: Loc(serial[v.index]) if type(v) is Loc else v
                 for n, v in f.items()}
            texts.append((serial[i], object_text(name, f, names)))
        valid.extend(serial[i] for i in shard.valid)
    texts.sort(key=itemgetter(0))
    return MinedBlock(sorted(edges), status,
                      state_digest(texts, sorted(valid)), pre, post)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(program: ast.Program, block: Block,
        inline_shards: Optional[int] = None) -> Optional[MinedBlock]:
    """The block's output from its regions run in parallel, or None when
    it must run in one process (see the module docstring). Tests pass
    `inline_shards` to run that many shards one after another in this
    process, whatever the block's size."""
    if inline_shards is None:
        # each shard gets at least half of SHARD_MIN_WORK
        work = len(block.deploys) + len(block.txns)
        shards = min(usable_cpus(), 2 * work // blocksched.SHARD_MIN_WORK)
    else:
        shards = inline_shards
    parts = _split(program, block, shards) if shards > 1 else None
    if parts is None:
        return None
    jobs = [([block.deploys[k] for k in dix], [block.txns[t] for t in tix])
            for dix, tix in parts]
    if inline_shards is None:
        runs = POOL.run(program, jobs)
    else:
        runs = [_run_shard_or_none(program, job) for job in jobs]
    if runs is None or None in runs:
        return None
    return merge(block, parts, runs)


def _run_shard_or_none(program: ast.Program, job: tuple) -> Optional[_ShardRun]:
    """_run_shard, with None for a shard that raised: the block then runs
    again in one process, which raises the error as it always has."""
    try:
        return _run_shard(program, *job)
    except Exception:
        return None


def _serve(conn, program: ast.Program, inherited: list) -> None:
    """A worker's loop: run each shard it receives and send back its run;
    exit when the pipe reads EOF, as it does once the parent has closed its
    end or exited."""
    # what the worker inherited stays out of its collections, so they do
    # not copy the parent's pages; only this process's GC is changed
    gc.freeze()
    for other in inherited:  # the parent's ends of the pipes, this one's too
        other.close()
    # an interrupt is the parent's to handle; this worker ends with its pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            sent, steps, deploys, txns = conn.recv()
        except (EOFError, OSError):
            return
        if sent is not None:
            program = sent
        blocksched.TXN_STEPS = steps  # this worker's copy of the module
        try:
            conn.send(_run_shard_or_none(program, (deploys, txns)))
        except OSError:
            return


class _Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, program: ast.Program, inherited: list) -> None:
        # imported here, on the first block that needs a worker: the
        # import alone adds 1 to 2 MB to a process that never shards
        import multiprocessing
        # fork: the worker starts in a few milliseconds with the program
        # already in memory (callers with other threads never get here)
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, daemon=True,
                                name="ovlang-shard",
                                args=(child, program, inherited + [self.conn]))
        try:
            self.proc.start()
        finally:
            child.close()
        self.program = program  # the last one the worker was given

    def send(self, program: ast.Program, job: tuple) -> None:
        """Start a shard; the program travels only when it changed."""
        self.conn.send((None if program is self.program else program,
                        blocksched.TXN_STEPS, *job))
        self.program = program

    def close(self) -> None:
        """Close the pipe, on which the worker exits, and reap it."""
        self.conn.close()
        self.proc.join(1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


class _Pool:
    """The worker processes of this process, one per shard after the
    first. A worker starts on the first block that needs it and serves the
    blocks after it. Shards are sent and received on the calling thread:
    no helper thread waits for the interpreter lock while the caller runs
    its own shard."""

    def __init__(self) -> None:
        self.workers: list[_Worker] = []

    def run(self, program: ast.Program, jobs: list) -> Optional[list]:
        """jobs[0] run here and the others on workers; their runs, or None
        when the block must run in one process: this process has other
        threads, which make forking it unsafe, or a worker could not start
        or died."""
        if threading.active_count() > 1:
            return None
        done = False
        try:
            while len(self.workers) < len(jobs) - 1:
                self.workers.append(_Worker(
                    program, [w.conn for w in self.workers]))
            for worker, job in zip(self.workers, jobs[1:]):
                worker.send(program, job)
            runs = [_run_shard_or_none(program, jobs[0])]
            runs += [w.conn.recv() for w in self.workers[:len(jobs) - 1]]
            done = True
            return runs
        except (OSError, EOFError):  # a worker could not start or died
            return None
        finally:
            # after a failure, or an interrupt with replies still to read
            # that would answer the next block, start afresh
            if not done:
                self.close()

    def close(self) -> None:
        """Stop every worker."""
        for worker in self.workers:
            worker.close()
        self.workers.clear()


POOL = _Pool()
