"""Large blocks on every usable CPU: mining and validation split into
regions run in parallel, merged into exactly the one-process result.

A block is split into regions, one per deploy with the transactions sent
to it. Block arguments are scalars and every deploy is top-owned, binding
every context parameter to top (`_deploy` refuses a class whose `where`
constraints that breaks), so an object is reachable only from the region
whose constructor or transactions allocated it; and while no transaction's
V or I is Top's node, each is Bot's or a location of its own region, so no
edge, read or write crosses regions.
`run` balances the regions into one shard per usable CPU and runs each
shard through blocksched's one-process path (`_prepare`,
`build_conflict_graph`, `_execute`), on a heap of its own and with the
block's own creator numbers: the heaviest shard in this process, the
others in worker processes (`_Pool`), which start on theirs a wake-up
later. Each shard thus names its heap slots as one process does and spells
its own objects; `merge` only concatenates the shards' outputs and sorts
them. A block whose regions may meet (a transaction's V or I is Top,
whose subtree holds every region), a shard that raises an error one
process raises too (`OvError`, `ValueError`), a dead worker, a platform
without fork, a process with other threads and a host with one usable CPU
all fall back to one process. Any other exception a shard raises, here or
on a worker, is a fault of the split: it closes the pool and reaches the
caller, as it would from one process.

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
from typing import NamedTuple, Optional

from . import ast, blocksched
from .ast import CtxTop
from .blocksched import Block, MinedBlock
from .diagnostics import OvError
from .runtime import state_digest


def _split(block: Block,
           shards: int) -> Optional[list[tuple[list[int], list[int]]]]:
    """The block's regions balanced into at most `shards` shards, each as
    its deploy and transaction indices, ascending, the heaviest shard
    first: the caller runs it while the workers wake. None when the block
    must run in one process: two deploys share an id, a transaction's
    target is not deployed, or fewer than two shards get work."""
    where = {d["id"]: k for k, d in enumerate(block.deploys)}
    if len(where) < len(block.deploys):
        return None
    sent: list[list[int]] = [[] for _ in block.deploys]
    for t, txn in enumerate(block.txns):
        k = where.get(txn["target"])
        if k is None:
            return None
        sent[k].append(t)
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
                   key=lambda p: len(p[0]) + len(p[1]), reverse=True)
    return parts if len(parts) > 1 else None


class _ShardRun(NamedTuple):
    """What one shard's run reports. Edges and statuses are over the
    shard's own transactions; objects and the valid set are spelled
    through the block's slot names."""
    edges: list        # (i, j) over the shard's transactions
    status: list
    pre_checks: int
    post_checks: int
    texts: list        # (name, text) of each live object
    valid: list        # the valid set's names


def _run_shard(program: ast.Program, block: Block,
               creators: list) -> Optional[_ShardRun]:
    """A shard through the one-process path, on a heap of its own, its
    deploys and transactions numbered as creators in the whole block. None
    when a transaction's V or I is Top, whose subtree holds the other
    regions too."""
    machine, scts = blocksched._prepare(program, block, creators)
    if any(CtxTop in (s.validity, s.invalidity) for s in scts):
        return None
    edges = blocksched.build_conflict_graph(scts, machine.tree)
    status = blocksched._execute(machine, scts, range(len(scts)))
    return _ShardRun(edges, status, machine.pre_checks, machine.post_checks,
                     machine.object_texts(), machine.valid_names())


def merge(block: Block, parts: list, runs: list) -> MinedBlock:
    """The block's output in one process, from its shards' runs."""
    status = [""] * len(block.txns)
    edges: list[tuple[int, int]] = []
    texts: list[tuple[int, str]] = []
    valid: list[int] = []
    pre = post = 0
    for (_dix, tix), shard in zip(parts, runs):
        for t, st in zip(tix, shard.status):
            status[t] = st
        edges.extend((tix[i], tix[j]) for i, j in shard.edges)
        pre += shard.pre_checks
        post += shard.post_checks
        texts += shard.texts
        valid += shard.valid
    return MinedBlock(sorted(edges), status, state_digest(texts, valid),
                      pre, post)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(program: ast.Program, block: Block) -> Optional[MinedBlock]:
    """The block's output from its regions run in parallel, or None when
    it must run in one process (see the module docstring)."""
    # each shard gets at least half of SHARD_MIN_WORK
    work = len(block.deploys) + len(block.txns)
    shards = min(usable_cpus(), 2 * work // blocksched.SHARD_MIN_WORK)
    parts = _split(block, shards) if shards > 1 else None
    if parts is None:
        return None
    jobs = [(Block([block.deploys[k] for k in dix],
                   [block.txns[t] for t in tix]),
             blocksched._creators(block, dix, tix)) for dix, tix in parts]
    runs = POOL.run(program, jobs)
    if runs is None or None in runs:
        return None
    return merge(block, parts, runs)


def _run_shard_or_none(program: ast.Program, job: tuple) -> Optional[_ShardRun]:
    """_run_shard, with None for a shard that raised an error one process
    raises too: the block then runs again in one process, which raises it
    as it always has. Any other exception is a fault of the split and
    propagates."""
    try:
        return _run_shard(program, *job)
    except (OvError, ValueError):
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
            sent, steps, *job = conn.recv()
        except (EOFError, OSError):
            return
        if sent is not None:
            program = sent
        blocksched.TXN_STEPS = steps  # this worker's copy of the module
        try:
            run = _run_shard_or_none(program, job)
        except Exception as err:  # the parent raises it
            run = err
        try:
            conn.send(run)
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
        """jobs[0], the heaviest, run here and the others on workers, which
        start a wake-up later; their runs, or None when the block must run
        in one process: the platform has no fork (Windows), this process
        has other threads, which make forking it unsafe, or a worker could
        not start or died. What a shard raises past `_run_shard_or_none`,
        here or on a worker, closes the pool and is raised here."""
        if not hasattr(os, "fork") or threading.active_count() > 1:
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
            faults = [run for run in runs if isinstance(run, Exception)]
            done = not faults
        except (OSError, EOFError):  # a worker could not start or died
            return None
        finally:
            # after a failure, or an interrupt with replies still to read
            # that would answer the next block, start afresh
            if not done:
                self.close()
        if faults:
            raise faults[0]
        return runs

    def close(self) -> None:
        """Stop every worker."""
        for worker in self.workers:
            worker.close()
        self.workers.clear()


POOL = _Pool()
