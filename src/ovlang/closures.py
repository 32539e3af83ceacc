"""Compiled bodies: the second evaluator, which runs deploys and block
transactions as Python closures.

Each method body and each class's construction part (`_Plan.parts`) is
compiled once per program, by the rules of `_BODY_RULES`, into a closure
of the env (the small-step machine's own env dict) that returns the
node's value. A deploy and a block transaction are handed over bound, not
as an expression in an env: a deploy as its class's entry node and its
arguments (`_deployment`), which allocates through `Machine._allocate`
with its context arguments resolved to tree nodes, and a transaction as
a `blocksched.Sct`, whose V and I nodes binding resolved
(`_transaction`), which begins its frame on those nodes and calls the
method body on the target. Each charges the steps, and keeps the bounds,
that its entry node takes on the small-step machine.

The closures belong to the program's `runtime.Code` and serve every
machine that runs it, naive or not: they read the machine and its heap
from `_Run`, which each run fills at its start, and through the machine
its locations, its ownership tree and whether it is `--naive`; never
from what they captured. A closure charges exactly the steps the
small-step machine takes on its node (`_Run.steps`), in one sum where no
call or failure comes between them, so `Machine.steps`, every counter,
every status and every hash are the small-step machine's. Both
evaluators share one transaction machinery: `_begin`, `_commit`,
`_abort` and `write_field`, here on one thread reused for every run.
Every run passes one guard, `Compiled.run`, which runs a block's deploys,
or its transactions, as one list, and for each names its slots, marks
the machine, bounds the fuel, undoes a run that stops, records a failure
and adds the steps; it is also the one switch that hands units back.

A failure value flows as a value, as on the small-step machine, until a
strict position meets it; there it unwinds as `_Signal` to the innermost
compiled transaction, which aborts (a deploy's construction or a block
transaction's frame is always one). Nothing tests the fuel at each node.
A body is entered only if its steps outside the bodies it calls (at most
`_Body.bound`, a count of its nodes) fit in the fuel left, and a body that
gets control back from one it called, or from an aborted transaction,
tests that again: so a run that goes on never passes its fuel. A run
stops (`_Bail`) there, past MAX_NESTING closure frames, at a node with no
rule (such as `fork`), at an unbound variable or a missing field (a
`KeyError`), on an error (`OvError`) and on a `RecursionError`. Then
every frame it opened is aborted, the heap, the names, the counters, the
events and the failures are put back, and the caller reduces the entry
node on the small-step machine (`Machine.run_expression`), which meets
the same end at the same step, and goes on with the rest of the list.

`Machine.compiled` imports this module on a program's first compiled
run, as `blocksched` imports `regions` on the first large block.
"""
from __future__ import annotations

import operator
import threading

from . import ast
from .ast import CtxBot
from .diagnostics import OvError
from .runtime import (FailureValue, Loc, Thread, Value, _apply_op,
                      not_live, pair_op, resolve)

# Closure frames a compiled run may nest, counting each entered body's
# height (`_Body.height`): past it the run stops and goes to the
# small-step machine. A runaway recursion stops here, long before its fuel
# runs out, and the Python stack keeps room for the machinery's own calls
# and for compiling a body met this deep.
MAX_NESTING = 160


class _Bail(Exception):
    """This run cannot go on here: undo it and reduce it step by step."""


class _Signal(Exception):
    """A failure delivered at a strict position: it aborts the innermost
    transaction, whose value it becomes."""

    def __init__(self, fv: FailureValue):
        super().__init__()
        self.fv = fv


def _fault(v: Value, use: str) -> Exception:
    """What a strict use of v that is not a live object raises: the
    failure v itself, R-NULL or E-DANGLING (`not_live`), or a stop for the
    small-step machine to find stuck."""
    if type(v) is FailureValue:
        return _Signal(v)
    fv = not_live(v, use)
    return _Bail() if fv is None else _Signal(fv)


def _stop(env: dict) -> Value:
    """The closure of a node with no rule, and of a body nested past
    MAX_NESTING."""
    raise _Bail


class _Run:
    """The state of the compiled runs of one program, which every closure
    reads: while the guard holds it for a list, the machine the list runs
    on and its heap, and the compiled code; the thread the runs reuse; the
    steps the current unit has taken, its fuel and the closure frames it
    nests."""
    __slots__ = ("m", "heap", "code", "thread", "steps", "fuel", "depth")

    def __init__(self) -> None:
        self.m = self.heap = self.code = None
        self.thread = Thread(-1, None, {})
        self.steps = self.fuel = self.depth = 0


class Compiled:
    """One program's compiled entries (of deploys and transactions) and
    method bodies, by node, kept in its `runtime.Code`; each memo holds the
    node it keys, so no id is reused while the code lives. Nothing it holds
    refers to a machine between lists, so a dropped machine is freed at
    once, not at the next collection of reference cycles. One list at a
    time holds `_Run`: a unit that finds it held, by a machine on another
    host thread, goes to the small-step machine, which shares nothing
    between machines, and the next unit tries again."""

    def __init__(self, table) -> None:
        self.table = table  # the program's `typecheck.ClassTable`
        self.cx = _Run()
        self.busy = threading.Lock()
        self.entries: dict[int, tuple] = {}  # id -> (node, closure)
        self.bodies: dict[int, tuple] = {}

    def run(self, m, units: list, fuel: int, start: int) -> list:
        """The one guard of every compiled run, and so the one switch that
        hands work back to the small-step machine: the units from start,
        each (entry node, argument, creator), run in order on machine m,
        each within fuel, in one hold of `_Run`. Returns (value, whether it
        committed a root frame) of each up to the first that stops, which
        is undone and handed back; the first is at once when a thread of m
        is inside a transaction or another host thread holds `_Run`. A
        node's entry is compiled on its first run and kept."""
        done: list = []
        if m.alpha is not None or not self.busy.acquire(blocking=False):
            return done
        cx = self.cx
        cx.m, cx.heap, cx.code = m, m.heap, self
        entries, thread = self.entries, cx.thread
        try:
            for k in range(start, len(units)):
                node, arg, creator = units[k]
                hit = entries.get(id(node))
                if hit is None:  # a `new` is a deploy, an `atomic` a txn
                    make = _deployment if type(node) is ast.New else \
                        _transaction
                    hit = entries[id(node)] = (node, make(cx, node))
                m.set_creator(creator)
                marks = (len(m.heap), m.next_name, m.pre_checks,
                         m.post_checks, m.invariant_evals, m.root_commits,
                         len(m.events), len(m.failures))
                # no thread is inside a transaction, so the log is not read
                # again before the next begin clears it: from here it logs
                # this unit only
                m.sigma_log.clear()
                cx.steps = cx.depth = 0
                cx.fuel = fuel
                try:
                    v = hit[1](arg)
                    cx.steps += 1  # the step that finds no continuation left
                except (_Bail, KeyError, OvError, RecursionError):
                    _undo(m, thread, *marks)
                    break
                if type(v) is FailureValue:
                    m.failures.append({"code": v.code, "msg": v.msg,
                                       "thread": -1})
                m.steps += cx.steps
                done.append((v, m.root_commits > marks[5]))
            return done
        except BaseException:
            # the thread serves the next machine: a run cut short by an
            # exception not caught above leaves it no frame of this one
            del thread.frames[1:]
            raise
        finally:
            cx.m = cx.heap = cx.code = None
            self.busy.release()

    def method(self, class_name: str, name: str) -> tuple:
        """(declaring class name, parameter names, compiled body) of the
        method a call of name on an object of class_name runs."""
        hit = self.table.find_method(class_name, name)
        if hit is None:
            raise _Bail
        owner, decl = hit
        got = self.bodies.get(id(decl))
        if got is None:
            got = self.bodies[id(decl)] = (
                decl, owner.name, tuple(p.name for p in decl.params),
                _body(self.cx, decl.body))
        return got[1:]

    def parts(self, plan) -> tuple:
        """plan's construction parts compiled, as (class name, body, the
        steps that enter it): one `init` step for every part but the
        first."""
        if plan.compiled is None:
            plan.compiled = tuple((name, _body(self.cx, e), int(k > 0))
                                  for k, (name, e) in enumerate(plan.parts))
        return plan.compiled


def _deployment(cx: _Run, node: ast.New):
    """The compiled deploy of node, a `new` whose context arguments need
    no env and whose arguments are `Var` slots: a closure of the values
    in the slots, which charges the steps node takes on the small-step
    machine and keeps the bounds `_body` sets a body of its nodes."""
    info = cx.code.table.info(node.type.name)
    resolved = [resolve(k, None, None) for k in node.type.args]
    n = len(node.args)
    rec = _Body()
    rec.seal(1 + n)  # node and its slots
    height = (2 if n else 1) + 3
    thread = cx.thread

    def deploy(args: list) -> Value:
        if rec.bound > cx.fuel:
            raise _Bail
        cx.depth = height
        cx.steps += 1 + 2 * n  # node, and a slot and `args` an argument
        this, bindings, plan = cx.m._allocate(thread, node, info, resolved,
                                              n)
        return _built(cx, this, bindings, plan, args, rec)
    return deploy


def _transaction(cx: _Run, node: ast.Atomic):
    """The compiled block transaction of node, the `atomic` call of `this`
    a method and arity run (`blocksched._execute`): a closure of the
    bound transaction (`blocksched.Sct`), which begins its frame on the
    transaction's V and I nodes and calls its method on its target
    with its arguments, charging the steps node takes on the small-step
    machine and keeping the bounds `_body` sets a body of its nodes."""
    call = node.body
    n = len(call.args)
    rec = _Body()
    rec.seal(3 + n)  # node, the call, `this` and the slots
    invoke = _invoker(cx, call.method, rec)
    thread = cx.thread
    height = 3 + 3
    # the call, `this`, `call_recv`, and a slot and `args` an argument
    pre = 3 + 2 * n

    def transaction(sct) -> Value:
        if rec.bound > cx.fuel:
            raise _Bail
        cx.depth = height
        m = cx.m
        cx.steps += 1  # node's own step
        fv = m._begin(thread, sct.validity, sct.invalidity)
        if fv is not None:
            return fv
        cx.steps += pre
        try:
            v = invoke(sct.loc, sct.args)
        except _Signal as s:
            return _aborted(cx, s, rec)
        cx.steps += 1  # `commit`
        fv = m._commit(thread)
        return v if fv is None else fv
    return transaction


def _undo(m, t: Thread, heap: int, next_name: int, pre: int, post: int,
          evals: int, commits: int, events: int, failures: int) -> None:
    """Put machine m back as the stopped run on thread t found it."""
    while len(t.frames) > 1:
        m._abort(t)
    # what a begin that never pushed its frame marked valid
    sigma = m.sigma
    for loc, added in reversed(m.sigma_log):
        if added:
            sigma.discard(loc)
        else:
            sigma.add(loc)
    m.sigma_log.clear()
    # an allocation that never reached its frame's created set
    for loc in range(len(m.heap) - 1, heap - 1, -1):
        if loc in m.tree.chains:
            m.tree.remove(loc)
    del m.heap[heap:], m.locs[heap:], m.names[heap:]
    del m.events[events:], m.failures[failures:]
    m.next_name = next_name
    m.pre_checks, m.post_checks, m.invariant_evals = pre, post, evals
    m.root_commits = commits
    m.alpha = None


def _body(cx: _Run, e: ast.Expr):
    """e compiled as a body: entered only when its steps fit in the fuel
    left and its height in MAX_NESTING."""
    rec = _Body()
    try:
        fn, leaf = _compile(cx, e, rec)
    except _Bail:  # nested too deep
        return _stop
    bound = rec.seal(rec.nodes)
    height = rec.height + 3  # and a call's frames around it

    def body(env: dict) -> Value:
        if cx.steps + bound > cx.fuel:
            raise _Bail
        depth = cx.depth + height
        if depth > MAX_NESTING:
            raise _Bail
        cx.depth = depth
        try:
            if leaf:
                cx.steps += 1
            return fn(env)
        finally:
            cx.depth = depth - height
    return body


class _Body:
    """What compiling one body counts: its nodes, of which each takes at
    most four steps plus one per child, so that the body takes at most
    `bound` steps outside the bodies it calls, counting those that return
    from it, commit it or enter the next part; and how deep its closures
    nest, a chain of `;` counting once."""
    __slots__ = ("nodes", "depth", "height", "bound")

    def __init__(self) -> None:
        self.nodes = self.depth = self.height = self.bound = 0

    def seal(self, nodes: int) -> int:
        """The bound of a body of this many nodes, kept."""
        self.bound = 5 * nodes + 3
        return self.bound


def _compile(cx: _Run, e: ast.Expr, rec: _Body) -> tuple:
    """(closure, leaf) of e in the body rec counts, by the rule _BODY_RULES
    holds for its node class. A leaf (a constant, a variable, `this`)
    takes one step, which its parent charges; any other closure charges
    its own. A body nested past MAX_NESTING stops compiling (`_Bail`)."""
    rule = _BODY_RULES.get(type(e))
    rec.nodes += 1
    depth = rec.depth = rec.depth + 1
    if depth > rec.height:
        if depth > MAX_NESTING:
            raise _Bail
        rec.height = depth
    try:
        return (_stop, False) if rule is None else rule(cx, e, rec)
    finally:
        rec.depth = depth - 1


def _b_const(cx: _Run, e: ast.Const, rec: _Body) -> tuple:
    value = e.value
    return (lambda env: value), True


def _b_var(cx: _Run, e: ast.Var, rec: _Body) -> tuple:
    # an unbound variable is stuck: its KeyError stops the run
    return operator.itemgetter(e.name), True


def _b_this(cx: _Run, e: ast.This, rec: _Body) -> tuple:
    return _THIS, True


_THIS = operator.methodcaller("get", "this")


def _b_seq(cx: _Run, e: ast.Seq, rec: _Body) -> tuple:
    """A chain of `;` as one loop: each Seq node's step, the statement's,
    and the `seq` continuation's, which stops at a failure value."""
    stmts = []
    while type(e) is ast.Seq:
        stmts.append(e.first)
        e = e.second
    rec.nodes += len(stmts) - 1  # the chain's other Seq nodes
    last, last_leaf = _compile(cx, e, rec)
    heads = [_compile(cx, s, rec) for s in stmts]
    # going on after a statement: its own step if a leaf, the `seq`
    # continuation's, and the next Seq node's or the last statement's own
    plan = tuple((fn, 2 + leaf if k + 1 < len(heads) else 1 + leaf + last_leaf)
                 for k, (fn, leaf) in enumerate(heads))

    def seq(env: dict) -> Value:
        cx.steps += 1
        for fn, go in plan:
            v = fn(env)
            if type(v) is FailureValue:  # never a leaf's
                cx.steps += 1
                return v
            cx.steps += go
        return last(env)
    return seq, False


def _b_bind(cx: _Run, e, rec: _Body) -> tuple:
    """`let` and assignment: the node, its value and the `bind`
    continuation."""
    name = e.name
    init, leaf = _compile(cx, e.init if type(e) is ast.Let else e.value,
                          rec)
    pre, post = (3, 0) if leaf else (1, 1)

    def bind(env: dict) -> Value:
        cx.steps += pre
        v = init(env)
        if post:
            cx.steps += post
        if type(v) is FailureValue:
            raise _Signal(v)
        env[name] = v
        return None
    return bind, False


def _b_field_get(cx: _Run, e: ast.FieldGet, rec: _Body) -> tuple:
    recv, leaf = _compile(cx, e.receiver, rec)
    name = e.field_name
    pre, post = (3, 0) if leaf else (1, 1)

    def field_get(env: dict) -> Value:
        cx.steps += pre
        r = recv(env)
        if post:
            cx.steps += post
        if type(r) is Loc:
            obj = cx.heap[r.index]
            if obj is not None:
                return obj.fields[name]  # a KeyError: stuck
        raise _fault(r, "read from")
    return field_get, False


def _b_field_set(cx: _Run, e: ast.FieldSet, rec: _Body) -> tuple:
    recv, rleaf = _compile(cx, e.receiver, rec)
    value, vleaf = _compile(cx, e.value, rec)
    thread, name = cx.thread, e.field_name
    pre, mid, early, post = _two_operands(rleaf, vleaf)

    def field_set(env: dict) -> Value:
        cx.steps += pre
        r = recv(env)
        if mid:
            cx.steps += mid
        if type(r) is not Loc:
            cx.steps -= early
            raise _fault(r, "write to")
        v = value(env)
        if post:
            cx.steps += post
        if type(v) is FailureValue:
            raise _Signal(v)
        if cx.heap[r.index] is None:
            raise _fault(r, "write to")
        cx.m.write_field(thread, r.index, name, v)
        return None
    return field_set, False


def _two_operands(first: bool, second: bool) -> tuple:
    """(pre, mid, early, post): the charges of a node whose two operands,
    leaves or not, are each followed by a strict continuation. pre comes
    first, mid after the first operand, post after the second; a leaf's
    steps join the next charge, and `early`, a leaf second operand's steps,
    are given back when the first fails."""
    return (1 + 2 * first + 2 * (first and second),
            (1 - first) + 2 * (second and not first),
            2 * second, 1 - second)


def _args(cx: _Run, exprs: list, rec: _Body) -> tuple:
    """(collect, flat) for argument list exprs: collect(env) gives their
    values left to right, each followed by the `args` continuation. When
    every argument is a leaf, collect charges nothing and its caller
    charges `flat`, two steps an argument; else collect charges its own
    and flat is 0."""
    code = [_compile(cx, a, rec) for a in exprs]
    fns = tuple(fn for fn, _leaf in code)
    if all(leaf for _fn, leaf in code):
        return (lambda env: [fn(env) for fn in fns]), 2 * len(fns)
    plan = tuple((fn, 1 + leaf) for fn, leaf in code)

    def collect(env: dict) -> list:
        vals = []
        for fn, post in plan:
            v = fn(env)
            cx.steps += post
            if type(v) is FailureValue:
                raise _Signal(v)
            vals.append(v)
        return vals
    return collect, 0


def _invoker(cx: _Run, name: str, rec: _Body):
    """invoke(loc, vals): call method name on the object at loc with
    vals, as `Machine._invoke` and the `ret` continuation do, `--naive`
    counts included; then test the fuel left for the rest of the calling
    body."""
    targets: dict[str, tuple] = {}  # class name -> `Compiled.method`

    def invoke(loc: int, vals: list) -> Value:
        m, heap = cx.m, cx.heap
        obj = heap[loc]
        if obj is None:
            raise _fault(m.locs[loc], "call on")
        hit = targets.get(obj.class_name)
        if hit is None:
            hit = targets[obj.class_name] = cx.code.method(obj.class_name,
                                                           name)
        owner, params, body = hit
        naive = m.naive
        if naive:
            m.pre_checks += len(m.tree.runtime_subtree(loc))
        if len(vals) != len(params):
            raise _Bail
        env = {"this": m.locs[loc], "#ctx": obj.bindings.get(owner)}
        env.update(zip(params, vals))
        v = body(env)
        cx.steps += 1  # `ret`
        if naive and heap[loc] is not None:
            m.post_checks += len(m.tree.runtime_subtree(loc))
        if cx.steps + rec.bound > cx.fuel:
            raise _Bail
        return v
    return invoke


def _b_call(cx: _Run, e: ast.Call, rec: _Body) -> tuple:
    recv, rleaf = _compile(cx, e.receiver, rec)
    collect, flat = _args(cx, e.args, rec)
    invoke = _invoker(cx, e.method, rec)
    # the node, the receiver, `call_recv`, then leaf arguments
    pre = 1 + (2 + flat) * rleaf
    mid = (1 + flat) * (1 - rleaf)

    def call(env: dict) -> Value:
        cx.steps += pre
        r = recv(env)
        if mid:
            cx.steps += mid
        if type(r) is not Loc:
            cx.steps -= flat
            raise _fault(r, "call on")
        return invoke(r.index, collect(env))
    return call, False


def _b_new(cx: _Run, e: ast.New, rec: _Body) -> tuple:
    collect, flat = _args(cx, e.args, rec)
    thread = cx.thread

    def new(env: dict) -> Value:
        cx.steps += 1 + flat
        vals = collect(env)
        this, bindings, plan = cx.m._construct(thread, e, env, len(vals))
        return _built(cx, this, bindings, plan, vals, rec)
    return new, False


def _built(cx: _Run, this: Loc, bindings: dict, plan, vals: list,
           rec: _Body) -> Value:
    """The construction `Machine._allocate` began of the object this, its
    binding map per class bindings and its class's plan, run on with the
    constructor arguments vals: each part of the plan, then the commit.
    Its value is the object, or the failure that aborted it; the body rec
    counts, in which it is, goes on if the fuel left allows."""
    m = cx.m
    penv = {"this": this, "#ctx": None}
    penv.update(zip(plan.params, vals))
    try:
        for name, part, init in cx.code.parts(plan):
            cx.steps += init
            penv["#ctx"] = bindings.get(name)
            part(penv)
    except _Signal as s:
        m._abort(cx.thread)
        v = s.fv
    else:
        cx.steps += 1  # `commit`
        fv = m._commit(cx.thread)
        v = this if fv is None else fv
    if cx.steps + rec.bound > cx.fuel:
        raise _Bail
    return v


def _b_atomic(cx: _Run, e: ast.Atomic, rec: _Body) -> tuple:
    if e.deduced:
        if type(e.body) is ast.Call:
            return _deduced_call(cx, e, rec)
        return _deduced_write(cx, e, rec)
    if e.contract is None:
        return _stop, False
    body, leaf = _compile(cx, e.body, rec)
    thread, contract = cx.thread, e.contract
    post = 1 + leaf

    def atomic(env: dict) -> Value:
        cx.steps += 1
        m = cx.m
        fv = m._begin(thread, *m._contract_nodes(
            contract, env.get("this"), env.get("#ctx")))
        if fv is not None:
            return fv
        try:
            v = body(env)
        except _Signal as s:
            return _aborted(cx, s, rec)
        cx.steps += post
        fv = m._commit(thread)
        return v if fv is None else fv
    return atomic, False


def _aborted(cx: _Run, s: _Signal, rec: _Body) -> Value:
    """Abort the innermost transaction, which s reached: its value is s's
    failure, and the body it is in goes on if the fuel left allows."""
    cx.m._abort(cx.thread)
    if cx.steps + rec.bound > cx.fuel:
        raise _Bail
    return s.fv


def _deduced_call(cx: _Run, e: ast.Atomic, rec: _Body) -> tuple:
    call = e.body
    rec.nodes += 1  # the call, whose parts compile alone
    recv, rleaf = _compile(cx, call.receiver, rec)
    collect, flat = _args(cx, call.args, rec)
    invoke = _invoker(cx, call.method, rec)
    thread, name = cx.thread, call.method
    find = cx.code.table.find_method
    pre, mid = (3, 0) if rleaf else (1, 1)

    def atomic_call(env: dict) -> Value:
        cx.steps += pre
        r = recv(env)
        if mid:
            cx.steps += mid
        obj = cx.heap[r.index] if type(r) is Loc else None
        if obj is None:
            raise _fault(r, "call on")
        hit = find(obj.class_name, name)
        if hit is None:
            raise _Bail
        m = cx.m
        fv = m._begin(thread, *m._method_contract(obj, r.index, *hit))
        if fv is not None:
            return fv
        try:
            if flat:
                cx.steps += flat
            v = invoke(r.index, collect(env))
        except _Signal as s:
            return _aborted(cx, s, rec)
        cx.steps += 1  # `commit`
        fv = m._commit(thread)
        return v if fv is None else fv
    return atomic_call, False


def _deduced_write(cx: _Run, e: ast.Atomic, rec: _Body) -> tuple:
    fset = e.body
    rec.nodes += 1  # the write, whose parts compile alone
    recv, rleaf = _compile(cx, fset.receiver, rec)
    value, vleaf = _compile(cx, fset.value, rec)
    thread, name = cx.thread, fset.field_name
    pre, mid = (3, 0) if rleaf else (1, 1)
    post = 1 + vleaf

    def atomic_write(env: dict) -> Value:
        cx.steps += pre
        r = recv(env)
        if mid:
            cx.steps += mid
        heap = cx.heap
        if type(r) is not Loc or heap[r.index] is None:
            raise _fault(r, "write to")
        loc = r.index
        m = cx.m
        fv = m._begin(thread, CtxBot, loc)  # <bot, l>
        if fv is not None:
            return fv
        try:
            v = value(env)
            cx.steps += post
            if type(v) is FailureValue:
                raise _Signal(v)
            if heap[loc] is None:
                raise _fault(r, "write to")
            m.write_field(thread, loc, name, v)
        except _Signal as s:
            return _aborted(cx, s, rec)
        cx.steps += 1  # `commit`
        return m._commit(thread)
    return atomic_write, False


def _b_prim(cx: _Run, e: ast.PrimOp, rec: _Body) -> tuple:
    op = e.op
    code = [_compile(cx, a, rec) for a in e.args]
    if op in ("&&", "||"):
        return _andor(cx, op, code)
    if len(code) != 2:
        (arg, leaf), = code
        pre, post = (3, 0) if leaf else (1, 1)

        def unary(env: dict) -> Value:
            cx.steps += pre
            a = arg(env)
            if post:
                cx.steps += post
            if type(a) is FailureValue:
                raise _Signal(a)
            try:
                return _apply_op(op, [a])
            except TypeError:  # stuck
                raise _Bail from None
        return unary, False
    (left, lleaf), (right, rleaf) = code
    apply = pair_op(op)
    pre, mid, early, post = _two_operands(lleaf, rleaf)

    def binary(env: dict) -> Value:
        cx.steps += pre
        a = left(env)
        if mid:
            cx.steps += mid
        if type(a) is FailureValue:
            cx.steps -= early
            raise _Signal(a)
        b = right(env)
        if post:
            cx.steps += post
        if type(b) is FailureValue:
            raise _Signal(b)
        try:
            return apply(a, b)
        except ZeroDivisionError:
            raise _Signal(FailureValue("R-DIV0", "division by zero")) \
                from None
        except TypeError:  # stuck
            raise _Bail from None
    return binary, False


def _andor(cx: _Run, op: str, code: list) -> tuple:
    """`&&` and `||`: the node, the left operand and the `andor`
    continuation, then the right operand only if the left does not
    decide."""
    (left, lleaf), (right, rleaf) = code
    decides = op == "||"  # the left value that is the result
    pre, post = (3, 0) if lleaf else (1, 1)

    def andor(env: dict) -> Value:
        cx.steps += pre
        a = left(env)
        if post:
            cx.steps += post
        if type(a) is not bool:
            raise _Signal(a) if type(a) is FailureValue else _Bail
        if a is decides:
            return a
        if rleaf:
            cx.steps += 1
        return right(env)
    return andor, False


def _b_valid(cx: _Run, e: ast.Valid, rec: _Body) -> tuple:
    arg, leaf = _compile(cx, e.value, rec)
    pre, post = (3, 0) if leaf else (1, 1)

    def valid(env: dict) -> Value:
        cx.steps += pre
        v = arg(env)
        if post:
            cx.steps += post
        if type(v) is Loc and cx.heap[v.index] is not None:
            return cx.m.assert_valid(v.index)
        if v is None:
            return False
        raise _fault(v, "valid on")
    return valid, False


def _b_require(cx: _Run, e: ast.Require, rec: _Body) -> tuple:
    cond, leaf = _compile(cx, e.cond, rec)
    pre, post = (3, 0) if leaf else (1, 1)

    def require(env: dict) -> Value:
        cx.steps += pre
        v = cond(env)
        if post:
            cx.steps += post
        if v is True:
            return True
        if v is False:
            raise _Signal(FailureValue("R-REQUIRE", "requirement failed"))
        raise _Signal(v) if type(v) is FailureValue else _Bail
    return require, False


def _b_emit(cx: _Run, e: ast.EmitEvent, rec: _Body) -> tuple:
    collect, flat = _args(cx, e.args, rec)
    thread = cx.thread

    def emit(env: dict) -> Value:
        cx.steps += 1 + flat
        cx.m._emit(thread, e, collect(env))
        return None
    return emit, False


# The compile rules, by node class. A node class with none (`fork`, and
# the surface nodes desugaring removes) compiles to a closure that stops
# the run.
_BODY_RULES = {
    ast.Const: _b_const,
    ast.Var: _b_var,
    ast.This: _b_this,
    ast.Seq: _b_seq,
    ast.Let: _b_bind,
    ast.Assign: _b_bind,
    ast.FieldGet: _b_field_get,
    ast.FieldSet: _b_field_set,
    ast.Call: _b_call,
    ast.New: _b_new,
    ast.PrimOp: _b_prim,
    ast.Atomic: _b_atomic,
    ast.Valid: _b_valid,
    ast.Require: _b_require,
    ast.EmitEvent: _b_emit,
}
