"""Small-step transactional interpreter.

Machine state: a lock flag, a heap, the set of locations currently known
valid, per-thread frame stacks, and a thread list reduced by deterministic
round-robin interleaving over the threads still live. Transactions nest
linearly; each keeps a write log, a creation list, and a mark into the
machine's undo log of valid-set changes, so aborts restore exactly the
pre-transaction state. The root frame at the bottom of every thread never
aborts and keeps none of these. Constructors run as implicit <bot,this>
transactions: a bot validity needs no subtree at begin, and the commit
revalidates exactly what the constructor created.

`Machine._reduce` is the one step function, behind both `Machine.step`
(whole programs) and `Machine.run_expression` (deploys and block
transactions). A thread's control holds an expression or a value. An
expression is reduced by the rule `_EXPR_RULES` maps its node class to; a
value goes to the rule `_KONT_RULES` maps the innermost continuation's tag
to. Both tables are built once, below the Machine class; a node class or
tag with no rule is E-STUCK. Invariant clauses are evaluated apart from
the step function, through a third table, `_PURE_RULES`; a node class
with no rule there makes the invariant false. Class metadata (superclass
chains, fields, method lookups, default field values, invariant clauses)
is worked out once per class and kept; an object's context arguments at a
superclass come from the class table's one walk, `ClassTable.views`. What
depends only on an object, which is fixed at its allocation, is kept on
the object: its `Loc`, its context bindings, and each method contract and
`atomic` contract resolved against it.

Every use of a receiver (field read, field write, call, `valid`, deduced
`atomic`) meets a null or removed receiver through one helper,
`Machine._not_live`: R-NULL or E-DANGLING aborts the innermost
transaction. A deduced `atomic` call or field write checks its receiver
before its transaction begins, then goes on as the plain call or write.
"""
from __future__ import annotations

import hashlib
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from . import ast
from .ast import Contract, CtxBot, CtxLoc, CtxParam, CtxThis, CtxTop
from .diagnostics import OvError
from .ownership import OwnershipTree, substitute
from .typecheck import ClassTable

DEFAULT_FUEL = 1_000_000


@dataclass(frozen=True)
class Loc:
    index: int

    def __repr__(self) -> str:
        return f"l{self.index}"


@dataclass(frozen=True)
class FailureValue:
    code: str
    msg: str

    def __repr__(self) -> str:
        return f"failure({self.code})"


Value = Union[int, bool, None, Loc, FailureValue]


class ObjectRec:
    __slots__ = ("class_name", "ctx_args", "fields", "bindings", "contracts")

    def __init__(self, class_name: str, ctx_args: list, fields: dict):
        self.class_name = class_name
        self.ctx_args = ctx_args  # runtime contexts, one per class parameter
        self.fields = fields
        # Machine._ctx_bindings, kept: ctx_args never change after allocation
        self.bindings: Optional[dict] = None
        # id of a MethodDecl or Atomic node -> its contract resolved against
        # this object (Machine._method_contract, Machine._x_atomic); made on
        # first use. The nodes belong to Machine.program, which outlives it.
        self.contracts: Optional[dict] = None


class Frame:
    __slots__ = ("kind", "contract", "log", "created", "created_set",
                 "sigma_mark", "events")

    def __init__(self, kind: str, contract: Contract, sigma_mark: int):
        self.kind = kind  # "root" | "txn" | "ctor"
        self.contract = contract
        self.log: list[tuple[int, str, Value]] = []
        self.created: list[int] = []
        self.created_set: set[int] = set()
        self.sigma_mark = sigma_mark  # length of Machine.sigma_log at begin
        self.events: list[dict] = []


ROOT_CONTRACT = Contract(CtxTop(), CtxTop())
# The bottom frame of every thread, shared. It never aborts, so it keeps no
# undo state: its containers are empty and immutable, and the events of a
# frame committed into it go straight to Machine.events.
ROOT_FRAME = Frame("root", ROOT_CONTRACT, 0)
ROOT_FRAME.log = ROOT_FRAME.created = ROOT_FRAME.events = ()
ROOT_FRAME.created_set = frozenset()
# contexts that already denote a runtime subtree
_RESOLVED = (CtxTop, CtxBot, CtxLoc)

# continuation tags that consume their incoming value: a failure value
# arriving here aborts the enclosing transaction (or kills the thread)
_STRICT = {"bind", "fget", "fset_recv", "fset_val", "call_recv",
           "call_args", "new_args", "prim", "andor", "valid", "require",
           "emit", "atom_recv"}


class Thread:
    __slots__ = ("tid", "control", "env", "konts", "frames", "done", "failure")

    def __init__(self, tid: int, expr: ast.Expr, env: dict):
        self.tid = tid
        self.control: tuple = ("expr", expr)
        self.env = env
        self.konts: list[tuple] = []
        self.frames: list[Frame] = [ROOT_FRAME]
        self.done = False
        self.failure: Optional[FailureValue] = None


@dataclass
class FinalReport:
    lemma3: bool
    objects: int
    valid: int
    pre_checks: int
    post_checks: int
    invariant_evals: int
    events: list
    state_hash: str
    failures: list = field(default_factory=list)  # not part of the schema

    def to_json(self) -> dict:
        return {
            "lemma3": self.lemma3,
            "objects": self.objects,
            "valid": self.valid,
            "pre_checks": self.pre_checks,
            "post_checks": self.post_checks,
            "invariant_evals": self.invariant_evals,
            "events": self.events,
            "state_hash": self.state_hash,
        }


class _InvFail(Exception):
    """Internal: invariant evaluation hit null/dangling/division by zero."""


def _serialize_value(v: Value) -> Any:
    if isinstance(v, Loc):
        return f"l{v.index}"
    return v


def _value_text(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Loc):
        return f"l{v.index}"
    return "null"


def object_text(class_name: str, fields: dict, names) -> str:
    """A live object as the state hash spells it, without its location:
    its class and its field values, in the declaration order `names`."""
    body = ",".join([f"{name}={_value_text(fields.get(name))}"
                     for name in names])
    return f"{class_name}{{{body}}}"


def state_digest(texts, valid) -> str:
    """The state hash: SHA-256 over the live objects, as (location,
    `object_text`) pairs in location order, then the valid set in
    ascending order. `Machine.state_hash` and the merge of a block run in
    regions (blocksched) both hash through here."""
    blob = "".join([f"l{i}={text};" for i, text in texts]) + "|valid=" + \
        ",".join(map(str, valid))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Machine:
    """One interpreter state; OV threads are interleaved deterministically,
    never run on host threads."""

    def __init__(self, program: ast.Program, seed: int = 0,
                 naive: bool = False):
        self.program = program
        self.table = ClassTable(program)
        self.heap: list[Optional[ObjectRec]] = []
        # the one Loc of each heap slot, made at allocation
        self.locs: list[Loc] = []
        self.sigma: set[int] = set()
        # membership changes to sigma, as (loc, added), since the outermost
        # begin; one log serves every thread, since alpha admits one thread
        # at a time into a transaction
        self.sigma_log: list[tuple[int, bool]] = []
        self.tree = OwnershipTree()
        self.threads: list[Thread] = []
        # ids of the threads not yet done, ascending: the round-robin order
        self.live: list[int] = []
        self.cursor = seed
        self.alpha: Optional[int] = None
        self.naive = naive
        self.pre_checks = 0
        self.post_checks = 0
        self.invariant_evals = 0
        self.root_commits = 0  # frames committed straight into a root frame
        self.events: list[dict] = []
        self.failures: list[dict] = []
        self.steps = 0
        self._ctor_exprs: dict[str, ast.Expr] = {}
        self._field_defaults: dict[str, dict[str, Value]] = {}
        self._field_names: dict[str, tuple[str, ...]] = {}
        self._invariants: dict[str, tuple[ast.Expr, ...]] = {}
        if program.main is not None:
            self._spawn(program.main, {"#ctx": {}})

    # -- static helpers -------------------------------------------------------
    def _ctor_expr(self, class_name: str) -> ast.Expr:
        cached = self._ctor_exprs.get(class_name)
        if cached is not None:
            return cached
        stmts: list[ast.Expr] = []
        for cls, f in self.table.fields_of(class_name):
            if f.init is not None:
                stmts.append(ast.FieldSet(ast.This(), f.name, f.init))
        ctor = self.table.ctor_of(class_name)
        stmts.append(ctor.body if ctor is not None else ast.Const(None))
        expr = stmts[-1]
        for s in reversed(stmts[:-1]):
            expr = ast.Seq(s, expr)
        self._ctor_exprs[class_name] = expr
        return expr

    def _default_fields(self, class_name: str) -> dict:
        """A fresh copy of the class's default field values."""
        template = self._field_defaults.get(class_name)
        if template is None:
            template = self._field_defaults[class_name] = {}
            for _cls, f in self.table.fields_of(class_name):
                if isinstance(f.type, ast.BoolType):
                    template[f.name] = False
                elif isinstance(f.type, ast.IntType):
                    template[f.name] = 0
                else:
                    template[f.name] = None
        return dict(template)

    def _ctx_bindings(self, obj: ObjectRec) -> dict:
        """Parameter name -> runtime context, across the object's classes
        (nearest declaration wins on a name collision), with the object's
        owner for this in `extends` clauses. Computed once per object;
        callers share the dict and must not change it."""
        if obj.bindings is None:
            args = obj.ctx_args
            merged: dict = {}
            for cls, a in reversed(list(
                    self.table.views(obj.class_name, args, args[0]))):
                merged.update(zip(cls.ctx_params, a))
            obj.bindings = merged
        return obj.bindings

    def _method_contract(self, obj: ObjectRec, loc: int,
                         owner_cls: ast.ClassDecl,
                         m: ast.MethodDecl) -> Contract:
        """m's contract with the object's context arguments for the owner
        class's parameters and l_loc for this: resolved once per (object,
        method) and kept on the object."""
        cache = obj.contracts
        if cache is None:
            cache = obj.contracts = {}
        d = cache.get(id(m))
        if d is None:
            args = obj.ctx_args
            d = cache[id(m)] = substitute(
                m.contract, owner_cls.ctx_params,
                self.table.args_at(obj.class_name, args, args[0], owner_cls),
                CtxLoc(loc))
        return d

    def _resolve_ctx(self, k, env: dict):
        if isinstance(k, CtxThis):
            this = env.get("this")
            if not isinstance(this, Loc):
                raise OvError("E-STUCK", "this-context outside an object")
            return CtxLoc(this.index)
        if isinstance(k, CtxParam):
            bindings = env.get("#ctx") or {}
            if k.name not in bindings:
                raise OvError("E-STUCK", f"unbound context parameter {k.name}")
            return bindings[k.name]
        if isinstance(k, _RESOLVED):
            return k
        raise OvError("E-STUCK", f"context {k} cannot be resolved at runtime")

    def _resolve_contract(self, d: Contract, env: dict) -> Contract:
        if isinstance(d.validity, _RESOLVED) and \
                isinstance(d.invalidity, _RESOLVED):
            return d
        return Contract(self._resolve_ctx(d.validity, env),
                        self._resolve_ctx(d.invalidity, env))

    # -- heap / valid set ------------------------------------------------------
    def dom(self) -> list[int]:
        return list(self.tree.chains)

    def _meet(self, k1, k2) -> set[int]:
        """subtree(k1) ∩ subtree(k2), as a fresh set. Two location subtrees
        meet in the lower one (OwnershipTree.lower_of), so at most one
        subtree is walked."""
        if isinstance(k1, CtxBot) or isinstance(k2, CtxBot):
            return set()
        if isinstance(k2, CtxTop):
            return self.tree.runtime_subtree(k1)
        if isinstance(k1, CtxTop):
            return self.tree.runtime_subtree(k2)
        if isinstance(k1, CtxLoc) and isinstance(k2, CtxLoc):
            low = self.tree.lower_of(k1, k2)
            return set() if low is None else self.tree.runtime_subtree(low)
        return self.tree.runtime_subtree(k1) & self.tree.runtime_subtree(k2)

    def _invariant_clauses(self, class_name: str) -> tuple[ast.Expr, ...]:
        """The invariant clauses of a class and its superclasses, nearest
        class first, collected once per class."""
        clauses = self._invariants.get(class_name)
        if clauses is None:
            clauses = self._invariants[class_name] = tuple(
                clause for cls in self.table.chain(class_name)
                for clause in cls.invariants)
        return clauses

    def eval_invariant(self, loc: int) -> bool:
        self.invariant_evals += 1
        obj = self.heap[loc]
        if obj is None:
            return False
        try:
            for clause in self._invariant_clauses(obj.class_name):
                if self._eval_pure(clause, loc) is not True:
                    return False
        except _InvFail:
            return False
        return True

    def _eval_pure(self, e: ast.Expr, this_loc: int) -> Value:
        """Value of an invariant clause (or part of one) at object this_loc,
        by the rule _PURE_RULES holds for the node class. A node with no
        rule, like a failed read, makes the invariant false (_InvFail)."""
        rule = _PURE_RULES.get(type(e))
        if rule is None:
            raise _InvFail
        return rule(self, e, this_loc)

    def _p_const(self, e: ast.Const, this_loc: int) -> Value:
        return e.value

    def _p_this(self, e: ast.This, this_loc: int) -> Value:
        return self.locs[this_loc]

    def _p_field_get(self, e: ast.FieldGet, this_loc: int) -> Value:
        recv = self._eval_pure(e.receiver, this_loc)
        if not isinstance(recv, Loc):
            raise _InvFail
        obj = self.heap[recv.index] if recv.index < len(self.heap) else None
        if obj is None or e.field_name not in obj.fields:
            raise _InvFail
        return obj.fields[e.field_name]

    def _p_prim(self, e: ast.PrimOp, this_loc: int) -> Value:
        op = e.op
        if op in ("&&", "||"):
            left = self._eval_pure(e.args[0], this_loc)
            if not isinstance(left, bool):
                raise _InvFail
            if op == "&&" and left is False:
                return False
            if op == "||" and left is True:
                return True
            right = self._eval_pure(e.args[1], this_loc)
            if not isinstance(right, bool):
                raise _InvFail
            return right
        vals = [self._eval_pure(a, this_loc) for a in e.args]
        try:
            return _apply_op(op, vals)
        except (OvError, ZeroDivisionError, TypeError):
            raise _InvFail from None

    def _mark_valid(self, loc: int) -> None:
        if loc not in self.sigma:
            self.sigma.add(loc)
            self.sigma_log.append((loc, True))

    def _mark_invalid(self, loc: int) -> None:
        if loc in self.sigma:
            self.sigma.remove(loc)
            self.sigma_log.append((loc, False))

    def assert_valid(self, loc: int) -> bool:
        members = sorted(self.tree.runtime_subtree(CtxLoc(loc)))
        result = True
        for m in members:
            if self.eval_invariant(m):
                self._mark_valid(m)
            else:
                self._mark_invalid(m)
                result = False
        return result

    def write_field(self, thread: Thread, loc: int, fname: str,
                    value: Value) -> None:
        """Write to the live object at loc, inside the active frame."""
        obj = self.heap[loc]
        frame = thread.frames[-1]
        inv = frame.contract.invalidity
        chain = self.tree.chain(loc)
        if not (isinstance(inv, CtxTop)
                or (isinstance(inv, CtxLoc) and inv.index in chain)):
            raise OvError("E-EFFECT",
                          f"write to l{loc}.{fname} escapes the active frame")
        # the root frame never aborts, so its writes need no undo entry
        if frame.kind != "root" and loc not in frame.created_set:
            frame.log.append((loc, fname, obj.fields.get(fname)))
        obj.fields[fname] = value
        for anc in chain:
            self._mark_invalid(anc)

    # -- transactions -----------------------------------------------------------
    def _begin(self, thread: Thread, kind: str,
               contract: Contract) -> Optional[FailureValue]:
        parent = thread.frames[-1]
        if parent.kind == "root":
            self.sigma_log.clear()
        # mark before the pre-checks: an abort must restore the exact
        # pre-begin state hash, so validity knowledge recovered at begin
        # may not outlive the transaction
        mark = len(self.sigma_log)
        validity = contract.validity
        if isinstance(validity, CtxBot):
            start: list[int] = []  # subtree(bot) is empty: nothing to check
        else:
            start = sorted(self._meet(validity, parent.contract.invalidity))
            if self.naive:
                self.pre_checks += len(self.tree.runtime_subtree(validity))
        for loc in start:
            if loc in self.sigma:
                continue
            if not self.naive:
                self.pre_checks += 1
            if self.eval_invariant(loc):
                self._mark_valid(loc)
            else:
                return FailureValue("R-PRE-FAIL", "Validity fails pre-check")
        thread.frames.append(Frame(kind, contract, mark))
        if len(thread.frames) == 2:
            self.alpha = thread.tid
        return None

    def _commit(self, thread: Thread) -> Optional[FailureValue]:
        frame = thread.frames[-1]
        validity = frame.contract.validity
        if isinstance(validity, CtxBot):
            # V ∩ I = ∅: only what the frame created is revalidated
            reval = frame.created_set
            self.post_checks += len(reval)
        else:
            reval = self._meet(validity, frame.contract.invalidity)
            reval |= frame.created_set
            if self.naive:
                self.post_checks += len(self.tree.runtime_subtree(validity)
                                        | frame.created_set)
            else:
                self.post_checks += len(reval)
        ok = True
        for loc in sorted(reval):
            if not self.eval_invariant(loc):
                ok = False
        if not ok:
            self._abort(thread)
            return FailureValue("R-POST-FAIL", "Validity fails post-check")
        for loc in reval:
            self._mark_valid(loc)
        thread.frames.pop()
        parent = thread.frames[-1]
        if parent.kind == "root":
            # the root frame never aborts: it keeps no undo state
            self.events.extend(frame.events)
            self.alpha = None
            self.root_commits += 1
        else:
            parent.log.extend(frame.log)
            parent.created.extend(frame.created)
            parent.created_set |= frame.created_set
            parent.events.extend(frame.events)
        return None

    def _abort(self, thread: Thread) -> None:
        frame = thread.frames.pop()
        for loc, fname, old in reversed(frame.log):
            obj = self.heap[loc]
            if obj is not None:
                obj.fields[fname] = old
        for loc in reversed(frame.created):
            self.heap[loc] = None
            self.tree.remove(loc)
        log = self.sigma_log
        while len(log) > frame.sigma_mark:
            loc, added = log.pop()
            if added:
                self.sigma.remove(loc)
            else:
                self.sigma.add(loc)
        if len(thread.frames) == 1:
            self.alpha = None

    def _signal(self, thread: Thread, fv: FailureValue) -> None:
        """Deliver a failure: abort the innermost transaction, or, with no
        live transaction, terminate the thread."""
        if len(thread.frames) == 1:
            thread.konts.clear()
            thread.control = ("val", fv)
            thread.done = True
            thread.failure = fv
            self.failures.append({"code": fv.code, "msg": fv.msg,
                                  "thread": thread.tid})
            return
        saved_env = None
        while thread.konts:
            k = thread.konts.pop()
            if k[0] in ("commit", "ctor"):
                saved_env = k[1]
                break
        if saved_env is None:
            raise OvError("E-STUCK", "transaction frame without a commit mark")
        self._abort(thread)
        thread.env = saved_env
        thread.control = ("val", fv)

    # -- scheduling ---------------------------------------------------------------
    def _spawn(self, expr: ast.Expr, env: dict) -> None:
        tid = len(self.threads)
        self.threads.append(Thread(tid, expr, env))
        self.live.append(tid)

    def step(self) -> bool:
        """Reduce one thread: the one inside a transaction if there is one,
        else the first live thread at or after the cursor, in id order,
        wrapping around. False when no thread is live."""
        live = self.live
        if self.alpha is not None:
            t = self.threads[self.alpha]
        elif live:
            pos = bisect_left(live, self.cursor % len(self.threads))
            t = self.threads[live[pos] if pos < len(live) else live[0]]
            self.cursor = t.tid + 1
        else:
            return False
        self._reduce(t)
        self.steps += 1
        if t.done:
            del live[bisect_left(live, t.tid)]
        return True

    def run(self, fuel: int = DEFAULT_FUEL) -> FinalReport:
        while self.steps < fuel:
            if not self.step():
                return self._finish()
        if self.live:
            raise OvError("E-FUEL", f"step budget of {fuel} exhausted")
        return self._finish()

    def _finish(self) -> FinalReport:
        # root commit: global revalidation under the <top,top> frame
        live = self.dom()
        self.post_checks += len(live)
        final_sigma = {loc for loc in live if self.eval_invariant(loc)}
        self.sigma = final_sigma
        lemma3 = final_sigma == set(live)
        if not lemma3:
            bad = sorted(set(live) - final_sigma)
            self.failures.append({
                "code": "R-POST-FAIL",
                "msg": "invalid at end of run: " + ", ".join(
                    f"l{i}" for i in bad),
                "thread": None,
            })
        return FinalReport(
            lemma3=lemma3,
            objects=len(live),
            valid=len(final_sigma),
            pre_checks=self.pre_checks,
            post_checks=self.post_checks,
            invariant_evals=self.invariant_evals,
            events=[{"name": ev["name"],
                     "args": [_serialize_value(a) for a in ev["args"]]}
                    for ev in self.events],
            state_hash=self.state_hash(),
            failures=list(self.failures),
        )

    def run_expression(self, expr: ast.Expr, env: Optional[dict] = None,
                       fuel: int = DEFAULT_FUEL) -> Value:
        """Reduce one expression on a private thread to completion. Used for
        deployments and block transactions; the heap and counters are shared
        with the machine. Past `fuel` steps every transaction the expression
        opened is aborted and E-FUEL raised."""
        t = Thread(-1, expr, dict(env) if env else {"#ctx": {}})
        reduce = self._reduce
        steps = 0
        try:
            while not t.done:
                if steps >= fuel:
                    # a runaway expression leaves no trace: undo every open
                    # transaction of its thread before giving up
                    while len(t.frames) > 1:
                        self._abort(t)
                    raise OvError("E-FUEL", f"step budget of {fuel} exhausted")
                reduce(t)
                steps += 1
        finally:
            self.steps += steps
        return t.control[1]

    def field_names(self, class_name: str) -> tuple[str, ...]:
        """The class's field names in declaration order, superclass fields
        first; listed once per class."""
        names = self._field_names.get(class_name)
        if names is None:
            names = self._field_names[class_name] = tuple(
                f.name for _cls, f in self.table.fields_of(class_name))
        return names

    def live_objects(self) -> list[tuple[int, str, dict]]:
        """(location, class name, fields) of each live object, in location
        order."""
        return [(i, obj.class_name, obj.fields)
                for i, obj in enumerate(self.heap) if obj is not None]

    def state_hash(self) -> str:
        return state_digest(
            [(i, object_text(name, fields, self.field_names(name)))
             for i, name, fields in self.live_objects()],
            sorted(self.sigma))

    # -- reduction -------------------------------------------------------------
    def _reduce(self, t: Thread) -> None:
        """One step of thread t. An expression in control reduces by the rule
        _EXPR_RULES holds for its node class; a value is consumed by the rule
        _KONT_RULES holds for the tag of the innermost continuation."""
        tag, x = t.control
        if tag == "expr":
            rule = _EXPR_RULES.get(type(x))
            if rule is None:
                raise OvError("E-STUCK", f"no reduction for {type(x).__name__}",
                              x.line, x.col)
            rule(self, t, x)
            return
        if not t.konts:
            t.done = True
            if isinstance(x, FailureValue):
                t.failure = x
                self.failures.append({"code": x.code, "msg": x.msg,
                                      "thread": t.tid})
            return
        k = t.konts.pop()
        if isinstance(x, FailureValue) and k[0] in _STRICT:
            self._signal(t, x)
            return
        rule = _KONT_RULES.get(k[0])
        if rule is None:
            raise OvError("E-STUCK", f"unknown continuation {k[0]}")
        rule(self, t, x, k)

    # -- expression rules: (thread, node) ----------------------------------------
    # The argument continuations (call_args, new_args, prim, emit) hold the
    # node's own argument list and the values gathered so far; the count of
    # gathered values is the index of the next argument.
    def _x_const(self, t: Thread, e: ast.Const) -> None:
        t.control = ("val", e.value)

    def _x_var(self, t: Thread, e: ast.Var) -> None:
        if e.name not in t.env:
            raise OvError("E-STUCK", f"unbound variable {e.name}",
                          e.line, e.col)
        t.control = ("val", t.env[e.name])

    def _x_this(self, t: Thread, e: ast.This) -> None:
        t.control = ("val", t.env.get("this"))

    def _x_seq(self, t: Thread, e: ast.Seq) -> None:
        t.konts.append(("seq", e.second))
        t.control = ("expr", e.first)

    def _x_let(self, t: Thread, e: ast.Let) -> None:
        t.konts.append(("bind", e.name))
        t.control = ("expr", e.init)

    def _x_assign(self, t: Thread, e: ast.Assign) -> None:
        t.konts.append(("bind", e.name))
        t.control = ("expr", e.value)

    def _x_field_get(self, t: Thread, e: ast.FieldGet) -> None:
        t.konts.append(("fget", e.field_name, e))
        t.control = ("expr", e.receiver)

    def _x_field_set(self, t: Thread, e: ast.FieldSet) -> None:
        t.konts.append(("fset_recv", e.field_name, e.value, e))
        t.control = ("expr", e.receiver)

    def _x_call(self, t: Thread, e: ast.Call) -> None:
        t.konts.append(("call_recv", e.method, e.args, e))
        t.control = ("expr", e.receiver)

    def _x_new(self, t: Thread, e: ast.New) -> None:
        if e.args:
            t.konts.append(("new_args", e.type, [], e.args, e))
            t.control = ("expr", e.args[0])
        else:
            self._do_new(t, e.type, [], e)

    def _x_prim(self, t: Thread, e: ast.PrimOp) -> None:
        if e.op in ("&&", "||"):
            t.konts.append(("andor", e.op, e.args[1]))
        else:
            t.konts.append(("prim", e.op, [], e.args, e))
        t.control = ("expr", e.args[0])

    def _x_atomic(self, t: Thread, e: ast.Atomic) -> None:
        if e.deduced:
            t.konts.append(("atom_recv", e))
            t.control = ("expr", e.body.receiver)
            return
        if e.contract is None:
            raise OvError("E-STUCK", "atomic without a contract", e.line, e.col)
        env = t.env
        this = env.get("this")
        obj = self.heap[this.index] if isinstance(this, Loc) else None
        if obj is not None and obj.bindings is not None \
                and env.get("#ctx") is obj.bindings:
            # a method body: the contract depends only on the object
            cache = obj.contracts
            if cache is None:
                cache = obj.contracts = {}
            d = cache.get(id(e))
            if d is None:
                d = cache[id(e)] = self._resolve_contract(e.contract, env)
        else:
            d = self._resolve_contract(e.contract, env)
        fv = self._begin(t, "txn", d)
        if fv is not None:
            t.control = ("val", fv)
            return
        t.konts.append(("commit", t.env))
        t.control = ("expr", e.body)

    def _x_fork(self, t: Thread, e: ast.Fork) -> None:
        self._spawn(e.body, dict(t.env))
        t.control = ("val", None)

    def _x_valid(self, t: Thread, e: ast.Valid) -> None:
        t.konts.append(("valid", e))
        t.control = ("expr", e.value)

    def _x_require(self, t: Thread, e: ast.Require) -> None:
        t.konts.append(("require", e))
        t.control = ("expr", e.cond)

    def _x_emit(self, t: Thread, e: ast.EmitEvent) -> None:
        if e.args:
            t.konts.append(("emit", e.name, [], e.args))
            t.control = ("expr", e.args[0])
        else:
            self._emit(t, e.name, [])
            t.control = ("val", None)

    def _invoke(self, t: Thread, loc: int, method: str, args: list,
                node: ast.Expr) -> None:
        obj = self.heap[loc]
        if obj is None:
            self._not_live(t, self.locs[loc], "call on", node)
            return
        hit = self.table.find_method(obj.class_name, method)
        if hit is None:
            raise OvError("E-STUCK", f"no method {method} on {obj.class_name}",
                          node.line, node.col)
        owner_cls, m = hit
        if self.naive:
            self.pre_checks += len(self.tree.runtime_subtree(CtxLoc(loc)))
        if len(args) != len(m.params):
            raise OvError("E-STUCK", f"arity mismatch calling {method}",
                          node.line, node.col)
        t.konts.append(("ret", t.env, loc))
        env = {"this": self.locs[loc], "#ctx": self._ctx_bindings(obj)}
        for p, v in zip(m.params, args):
            env[p.name] = v
        t.env = env
        t.control = ("expr", m.body)

    def _do_new(self, t: Thread, typ: ast.ClassType, args: list,
                node: ast.Expr) -> None:
        decl = self.table.get(typ.name)
        if decl is None or len(typ.args) != len(decl.ctx_params):
            raise OvError("E-STUCK", f"cannot instantiate {typ}",
                          node.line, node.col)
        resolved = [self._resolve_ctx(a, t.env) for a in typ.args]
        owner_ctx = resolved[0] if resolved else CtxTop()
        if isinstance(owner_ctx, CtxLoc):
            owner: Optional[int] = owner_ctx.index
        elif isinstance(owner_ctx, CtxTop):
            owner = None
        else:
            raise OvError("E-STUCK", f"object owner resolved to {owner_ctx}",
                          node.line, node.col)
        loc = len(self.heap)
        this = Loc(loc)
        self.heap.append(ObjectRec(typ.name, resolved,
                                   self._default_fields(typ.name)))
        self.locs.append(this)
        self.tree.add(loc, owner)
        fv = self._begin(t, "ctor", Contract(CtxBot(), CtxLoc(loc)))
        assert fv is None  # bot validity: the start set is empty
        frame = t.frames[-1]
        frame.created.append(loc)
        frame.created_set.add(loc)
        ctor = self.table.ctor_of(typ.name)
        params = ctor.params if ctor is not None else []
        if len(args) != len(params):
            raise OvError("E-STUCK", f"constructor arity mismatch for {typ.name}",
                          node.line, node.col)
        t.konts.append(("ctor", t.env, loc))
        env = {"this": this, "#ctx": dict(zip(decl.ctx_params, resolved))}
        for p, v in zip(params, args):
            env[p.name] = v
        t.env = env
        t.control = ("expr", self._ctor_expr(typ.name))

    def _emit(self, t: Thread, name: str, args: list) -> None:
        frame = t.frames[-1]
        event = {"name": name, "args": args}
        if frame.kind == "root":
            self.events.append(event)
        else:
            frame.events.append(event)

    # -- continuation rules: (thread, incoming value, continuation) ---------------
    def _k_seq(self, t: Thread, v: Value, k: tuple) -> None:
        t.control = ("val", v) if isinstance(v, FailureValue) \
            else ("expr", k[1])

    def _k_bind(self, t: Thread, v: Value, k: tuple) -> None:
        t.env[k[1]] = v
        t.control = ("val", None)

    def _not_live(self, t: Thread, v: Value, use: str,
                  node: ast.Node) -> None:
        """The fault of a receiver v that is not a live object, for the
        given use ("read from", "write to", "call on", "valid on"): R-NULL
        for null and E-DANGLING for a removed object, both delivered to t;
        E-STUCK, which typing rules out, for any other value."""
        if v is None:
            self._signal(t, FailureValue("R-NULL", "null dereference"))
        elif type(v) is Loc:
            self._signal(t, FailureValue(
                "E-DANGLING", f"{use} a removed object l{v.index}"))
        else:
            raise OvError("E-STUCK", f"{use} a non-object",
                          node.line, node.col)

    def _k_fget(self, t: Thread, v: Value, k: tuple) -> None:
        _, fname, node = k
        obj = self.heap[v.index] if type(v) is Loc else None
        if obj is None:
            self._not_live(t, v, "read from", node)
            return
        if fname not in obj.fields:
            raise OvError("E-STUCK", f"no field {fname} on {obj.class_name}",
                          node.line, node.col)
        t.control = ("val", obj.fields[fname])

    def _k_fset_recv(self, t: Thread, v: Value, k: tuple) -> None:
        _, fname, value_expr, node = k
        if type(v) is not Loc:
            self._not_live(t, v, "write to", node)
            return
        t.konts.append(("fset_val", v.index, fname, node))
        t.control = ("expr", value_expr)

    def _k_fset_val(self, t: Thread, v: Value, k: tuple) -> None:
        _, loc, fname, node = k
        if self.heap[loc] is None:
            self._not_live(t, self.locs[loc], "write to", node)
            return
        self.write_field(t, loc, fname, v)
        t.control = ("val", None)

    def _k_call_recv(self, t: Thread, v: Value, k: tuple) -> None:
        _, method, args, node = k
        if type(v) is not Loc:
            self._not_live(t, v, "call on", node)
            return
        if args:
            t.konts.append(("call_args", v.index, method, [], args, node))
            t.control = ("expr", args[0])
        else:
            self._invoke(t, v.index, method, [], node)

    def _k_call_args(self, t: Thread, v: Value, k: tuple) -> None:
        _, loc, method, done, args, node = k
        done.append(v)
        if len(done) < len(args):
            t.konts.append(k)
            t.control = ("expr", args[len(done)])
        else:
            self._invoke(t, loc, method, done, node)

    def _k_new_args(self, t: Thread, v: Value, k: tuple) -> None:
        _, typ, done, args, node = k
        done.append(v)
        if len(done) < len(args):
            t.konts.append(k)
            t.control = ("expr", args[len(done)])
        else:
            self._do_new(t, typ, done, node)

    def _k_prim(self, t: Thread, v: Value, k: tuple) -> None:
        _, op, done, args, node = k
        done.append(v)
        if len(done) < len(args):
            t.konts.append(k)
            t.control = ("expr", args[len(done)])
            return
        try:
            t.control = ("val", _apply_op(op, done))
        except ZeroDivisionError:
            self._signal(t, FailureValue("R-DIV0", "division by zero"))
        except TypeError:
            raise OvError("E-STUCK", f"operator {op} on unexpected operands",
                          node.line, node.col) from None

    def _k_andor(self, t: Thread, v: Value, k: tuple) -> None:
        _, op, right = k
        if not isinstance(v, bool):
            raise OvError("E-STUCK", f"{op} on a non-boolean")
        if (op == "&&" and v is False) or (op == "||" and v is True):
            t.control = ("val", v)
        else:
            t.control = ("expr", right)

    def _k_valid(self, t: Thread, v: Value, k: tuple) -> None:
        if type(v) is Loc and self.heap[v.index] is not None:
            t.control = ("val", self.assert_valid(v.index))
        elif v is None:
            t.control = ("val", False)
        else:
            self._not_live(t, v, "valid on", k[1])

    def _k_require(self, t: Thread, v: Value, k: tuple) -> None:
        if v is True:
            t.control = ("val", True)
        elif v is False:
            self._signal(t, FailureValue("R-REQUIRE", "requirement failed"))
        else:
            raise OvError("E-STUCK", "require on a non-boolean")

    def _k_emit(self, t: Thread, v: Value, k: tuple) -> None:
        _, name, done, args = k
        done.append(v)
        if len(done) < len(args):
            t.konts.append(k)
            t.control = ("expr", args[len(done)])
        else:
            self._emit(t, name, done)
            t.control = ("val", None)

    def _k_ret(self, t: Thread, v: Value, k: tuple) -> None:
        _, saved_env, recv_loc = k
        if self.naive and self.heap[recv_loc] is not None:
            self.post_checks += len(
                self.tree.runtime_subtree(CtxLoc(recv_loc)))
        t.env = saved_env
        t.control = ("val", v)

    def _k_commit(self, t: Thread, v: Value, k: tuple) -> None:
        fv = self._commit(t)
        t.env = k[1]
        t.control = ("val", v if fv is None else fv)

    def _k_ctor(self, t: Thread, v: Value, k: tuple) -> None:
        fv = self._commit(t)
        t.env = k[1]
        t.control = ("val", self.locs[k[2]] if fv is None else fv)

    def _k_atom_recv(self, t: Thread, v: Value, k: tuple) -> None:
        """The receiver v of a deduced `atomic` call or field write. The
        transaction begins only on a live receiver, with the called
        method's contract resolved against it, or <bot, l_v> for a write;
        the body then goes on as a plain call or write on v."""
        node: ast.Atomic = k[1]
        body = node.body
        call = type(body) is ast.Call
        obj = self.heap[v.index] if type(v) is Loc else None
        if obj is None:
            self._not_live(t, v, "call on" if call else "write to", node)
            return
        if call:
            hit = self.table.find_method(obj.class_name, body.method)
            if hit is None:
                raise OvError("E-STUCK", f"no method {body.method}",
                              node.line, node.col)
            d = self._method_contract(obj, v.index, *hit)
        else:
            d = Contract(CtxBot(), CtxLoc(v.index))
        fv = self._begin(t, "txn", d)
        if fv is not None:
            t.control = ("val", fv)
            return
        t.konts.append(("commit", t.env))
        if call:
            self._k_call_recv(t, v, ("call_recv", body.method, body.args,
                                     body))
        else:
            self._k_fset_recv(t, v, ("fset_recv", body.field_name,
                                     body.value, body))


# The reduction rules, built once. Surface-only nodes (Block, Return, Throw,
# OpAssign) have no rule: desugaring removes them, and meeting one is E-STUCK.
_EXPR_RULES = {
    ast.Const: Machine._x_const,
    ast.Var: Machine._x_var,
    ast.This: Machine._x_this,
    ast.Seq: Machine._x_seq,
    ast.Let: Machine._x_let,
    ast.Assign: Machine._x_assign,
    ast.FieldGet: Machine._x_field_get,
    ast.FieldSet: Machine._x_field_set,
    ast.Call: Machine._x_call,
    ast.New: Machine._x_new,
    ast.PrimOp: Machine._x_prim,
    ast.Atomic: Machine._x_atomic,
    ast.Fork: Machine._x_fork,
    ast.Valid: Machine._x_valid,
    ast.Require: Machine._x_require,
    ast.EmitEvent: Machine._x_emit,
}
# The invariant rules: a clause that typechecks holds no other node class.
_PURE_RULES = {
    ast.Const: Machine._p_const,
    ast.This: Machine._p_this,
    ast.FieldGet: Machine._p_field_get,
    ast.PrimOp: Machine._p_prim,
}
_KONT_RULES = {
    "seq": Machine._k_seq,
    "bind": Machine._k_bind,
    "fget": Machine._k_fget,
    "fset_recv": Machine._k_fset_recv,
    "fset_val": Machine._k_fset_val,
    "call_recv": Machine._k_call_recv,
    "call_args": Machine._k_call_args,
    "new_args": Machine._k_new_args,
    "prim": Machine._k_prim,
    "andor": Machine._k_andor,
    "valid": Machine._k_valid,
    "require": Machine._k_require,
    "emit": Machine._k_emit,
    "ret": Machine._k_ret,
    "commit": Machine._k_commit,
    "ctor": Machine._k_ctor,
    "atom_recv": Machine._k_atom_recv,
}


# the binary operators on two integers; OV integers are exact ints (bool,
# a subclass of int, is not one)
_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.floordiv, "%": operator.mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _apply_op(op: str, vals: list) -> Value:
    """The value of operator op on vals. Operands of the wrong kind raise
    TypeError; integer division or remainder by zero, ZeroDivisionError."""
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
    if type(a) is int and type(b) is int:
        fn = _INT_OPS.get(op)
        if fn is not None:
            return fn(a, b)
    if op in ("==", "!="):
        eq = _value_eq(a, b)
        return eq if op == "==" else not eq
    if op in ("&&", "||"):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise TypeError(op)
        return (a and b) if op == "&&" else (a or b)
    raise TypeError(op)


def _value_eq(a: Value, b: Value) -> bool:
    if isinstance(a, Loc) or isinstance(b, Loc):
        return a == b
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        raise TypeError("==")
    return a == b
