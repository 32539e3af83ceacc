"""Small-step transactional interpreter.

Machine state: a lock flag, a heap, the set of locations currently known
valid, per-thread frame stacks, and a thread list reduced by deterministic
round-robin interleaving. Transactions nest linearly; each keeps a write
log, a creation list, and a valid-set snapshot so aborts restore exactly
the pre-transaction state. Constructors run as implicit <bot,this>
transactions whose commit revalidates everything they created.
"""
from __future__ import annotations

import hashlib
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
    __slots__ = ("class_name", "ctx_args", "fields")

    def __init__(self, class_name: str, ctx_args: list, fields: dict):
        self.class_name = class_name
        self.ctx_args = ctx_args  # runtime contexts, one per class parameter
        self.fields = fields


class Frame:
    __slots__ = ("kind", "contract", "log", "created", "created_set",
                 "sigma_snapshot", "events")

    def __init__(self, kind: str, contract: Contract,
                 sigma_snapshot: set[int]):
        self.kind = kind  # "root" | "txn" | "ctor"
        self.contract = contract
        self.log: list[tuple[int, str, Value]] = []
        self.created: list[int] = []
        self.created_set: set[int] = set()
        self.sigma_snapshot = sigma_snapshot
        self.events: list[dict] = []


ROOT_CONTRACT = Contract(CtxTop(), CtxTop())

# continuation tags that consume their incoming value: a failure value
# arriving here aborts the enclosing transaction (or kills the thread)
_STRICT = {"bind", "assign", "fget", "fset_recv", "fset_val", "call_recv",
           "call_args", "new_args", "prim", "andor", "valid", "require",
           "emit", "atom_recv", "atomfs_recv"}


class Thread:
    __slots__ = ("tid", "control", "env", "konts", "frames", "done", "failure")

    def __init__(self, tid: int, expr: ast.Expr, env: dict):
        self.tid = tid
        self.control: tuple = ("expr", expr)
        self.env = env
        self.konts: list[tuple] = []
        self.frames: list[Frame] = [Frame("root", ROOT_CONTRACT, set())]
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


class Machine:
    """One interpreter state; OV threads are interleaved deterministically,
    never run on host threads."""

    def __init__(self, program: ast.Program, seed: int = 0,
                 naive: bool = False):
        self.program = program
        self.table = ClassTable(program)
        self.heap: list[Optional[ObjectRec]] = []
        self.sigma: set[int] = set()
        self.tree = OwnershipTree()
        self.threads: list[Thread] = []
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
        if program.main is not None:
            self.threads.append(Thread(0, program.main, {"#ctx": {}}))

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
        out: dict[str, Value] = {}
        for _cls, f in self.table.fields_of(class_name):
            if isinstance(f.type, ast.BoolType):
                out[f.name] = False
            elif isinstance(f.type, ast.IntType):
                out[f.name] = 0
            else:
                out[f.name] = None
        return out

    def _ctx_bindings(self, obj: ObjectRec) -> dict:
        """Parameter name -> runtime context, across the superclass chain
        (nearest declaration wins on a name collision)."""
        pairs: list[tuple[ast.ClassDecl, list]] = []
        cls = self.table.get(obj.class_name)
        args = list(obj.ctx_args)
        seen: set[str] = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            pairs.append((cls, args))
            if cls.superclass is None or len(cls.ctx_params) != len(args):
                break
            sup = substitute(cls.superclass, cls.ctx_params, args, args[0])
            cls = self.table.get(sup.name)
            args = list(sup.args)
        merged: dict = {}
        for cls, args in reversed(pairs):
            merged.update(zip(cls.ctx_params, args))
        return merged

    def _args_at(self, obj: ObjectRec, ancestor: str) -> list:
        """The object's runtime context arguments viewed at a superclass."""
        cls = self.table.get(obj.class_name)
        args = list(obj.ctx_args)
        seen: set[str] = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            if cls.name == ancestor:
                return args
            if cls.superclass is None or len(cls.ctx_params) != len(args):
                break
            sup = substitute(cls.superclass, cls.ctx_params, args, args[0])
            cls = self.table.get(sup.name)
            args = list(sup.args)
        return args

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
        if isinstance(k, (CtxTop, CtxBot, CtxLoc)):
            return k
        raise OvError("E-STUCK", f"context {k} cannot be resolved at runtime")

    def _resolve_contract(self, d: Contract, env: dict) -> Contract:
        return Contract(self._resolve_ctx(d.validity, env),
                        self._resolve_ctx(d.invalidity, env))

    # -- heap / valid set ------------------------------------------------------
    def dom(self) -> list[int]:
        return [i for i, o in enumerate(self.heap) if o is not None]

    def _subtree(self, k) -> set[int]:
        if isinstance(k, CtxBot):
            return set()
        if isinstance(k, CtxTop):
            return set(self.dom())
        if isinstance(k, CtxLoc):
            return self.tree.runtime_subtree(k)
        raise OvError("E-STUCK", f"no subtree for context {k}")

    def eval_invariant(self, loc: int) -> bool:
        self.invariant_evals += 1
        obj = self.heap[loc]
        if obj is None:
            return False
        try:
            for cls in self.table.chain(obj.class_name):
                for clause in cls.invariants:
                    if self._eval_pure(clause, loc) is not True:
                        return False
        except _InvFail:
            return False
        return True

    def _eval_pure(self, e: ast.Expr, this_loc: int) -> Value:
        if isinstance(e, ast.Const):
            return e.value
        if isinstance(e, ast.This):
            return Loc(this_loc)
        if isinstance(e, ast.FieldGet):
            recv = self._eval_pure(e.receiver, this_loc)
            if not isinstance(recv, Loc):
                raise _InvFail
            obj = self.heap[recv.index] if recv.index < len(self.heap) else None
            if obj is None or e.field_name not in obj.fields:
                raise _InvFail
            return obj.fields[e.field_name]
        if isinstance(e, ast.PrimOp):
            return self._eval_pure_op(e, this_loc)
        raise _InvFail

    def _eval_pure_op(self, e: ast.PrimOp, this_loc: int) -> Value:
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

    def assert_valid(self, loc: int) -> bool:
        members = sorted(self.tree.runtime_subtree(CtxLoc(loc)))
        result = True
        for m in members:
            if self.eval_invariant(m):
                self.sigma.add(m)
            else:
                self.sigma.discard(m)
                result = False
        return result

    def write_field(self, thread: Thread, loc: int, fname: str,
                    value: Value) -> Optional[FailureValue]:
        obj = self.heap[loc] if loc < len(self.heap) else None
        if obj is None:
            return FailureValue("E-DANGLING", f"write to a removed object l{loc}")
        frame = thread.frames[-1]
        inv = frame.contract.invalidity
        ok = (isinstance(inv, CtxTop)
              or (isinstance(inv, CtxLoc)
                  and self.tree.runtime_inside(loc, inv)))
        if not ok:
            raise OvError("E-EFFECT",
                          f"write to l{loc}.{fname} escapes the active frame")
        if loc not in frame.created_set:
            frame.log.append((loc, fname, obj.fields.get(fname)))
        obj.fields[fname] = value
        for anc in self.tree.ancestors(loc):
            self.sigma.discard(anc)
        return None

    # -- transactions -----------------------------------------------------------
    def _begin(self, thread: Thread, kind: str,
               contract: Contract) -> Optional[FailureValue]:
        parent = thread.frames[-1]
        # snapshot before the pre-checks: an abort must restore the exact
        # pre-begin state hash, so validity knowledge recovered at begin
        # may not outlive the transaction
        snapshot = set(self.sigma)
        sub_v = self._subtree(contract.validity)
        p_inv = parent.contract.invalidity
        if isinstance(p_inv, CtxTop):
            start = sub_v
        elif isinstance(p_inv, CtxBot):
            start = set()
        else:
            start = sub_v & self._subtree(p_inv)
        if self.naive:
            self.pre_checks += len(sub_v)
        for loc in sorted(start):
            if loc in self.sigma:
                continue
            if not self.naive:
                self.pre_checks += 1
            if self.eval_invariant(loc):
                self.sigma.add(loc)
            else:
                return FailureValue("R-PRE-FAIL", "Validity fails pre-check")
        thread.frames.append(Frame(kind, contract, snapshot))
        if len(thread.frames) == 2:
            self.alpha = thread.tid
        return None

    def _commit(self, thread: Thread) -> Optional[FailureValue]:
        frame = thread.frames[-1]
        sub_v = self._subtree(frame.contract.validity)
        sub_i = self._subtree(frame.contract.invalidity)
        reval = (sub_v & sub_i) | frame.created_set
        if self.naive:
            self.post_checks += len(sub_v | frame.created_set)
        else:
            self.post_checks += len(reval)
        ok = True
        for loc in sorted(reval):
            if not self.eval_invariant(loc):
                ok = False
        if not ok:
            self._abort(thread)
            return FailureValue("R-POST-FAIL", "Validity fails post-check")
        self.sigma |= reval
        thread.frames.pop()
        parent = thread.frames[-1]
        parent.log.extend(frame.log)
        parent.created.extend(frame.created)
        parent.created_set |= frame.created_set
        if parent.kind == "root":
            self.events.extend(frame.events)
        else:
            parent.events.extend(frame.events)
        if len(thread.frames) == 1:
            self.alpha = None
            self.root_commits += 1
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
        self.sigma.clear()
        self.sigma |= frame.sigma_snapshot
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
    def step(self) -> bool:
        if self.alpha is not None:
            t = self.threads[self.alpha]
            self._reduce(t)
            self.steps += 1
            return True
        n = len(self.threads)
        for i in range(n):
            idx = (self.cursor + i) % n
            t = self.threads[idx]
            if not t.done:
                self.cursor = idx + 1
                self._reduce(t)
                self.steps += 1
                return True
        return False

    def run(self, fuel: int = DEFAULT_FUEL) -> FinalReport:
        while any(not t.done for t in self.threads):
            if self.steps >= fuel:
                raise OvError("E-FUEL", f"step budget of {fuel} exhausted")
            self.step()
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
        with the machine."""
        t = Thread(-1, expr, dict(env) if env else {"#ctx": {}})
        steps = 0
        while not t.done:
            if steps >= fuel:
                raise OvError("E-FUEL", f"step budget of {fuel} exhausted")
            self._reduce(t)
            steps += 1
        val = t.control[1]
        return val

    def state_hash(self) -> str:
        parts: list[str] = []
        for i, obj in enumerate(self.heap):
            if obj is None:
                continue
            fields = []
            for _cls, f in self.table.fields_of(obj.class_name):
                v = obj.fields.get(f.name)
                if isinstance(v, bool):
                    txt = "true" if v else "false"
                elif isinstance(v, int):
                    txt = str(v)
                elif isinstance(v, Loc):
                    txt = f"l{v.index}"
                else:
                    txt = "null"
                fields.append(f"{f.name}={txt}")
            parts.append(f"l{i}={obj.class_name}{{{','.join(fields)}}};")
        blob = "".join(parts) + "|valid=" + ",".join(
            str(i) for i in sorted(self.sigma))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- reduction -------------------------------------------------------------
    def _reduce(self, t: Thread) -> None:
        tag = t.control[0]
        if tag == "expr":
            self._reduce_expr(t, t.control[1])
        else:
            self._reduce_val(t, t.control[1])

    def _reduce_expr(self, t: Thread, e: ast.Expr) -> None:
        if isinstance(e, ast.Const):
            t.control = ("val", e.value)
        elif isinstance(e, ast.Var):
            if e.name not in t.env:
                raise OvError("E-STUCK", f"unbound variable {e.name}",
                              e.line, e.col)
            t.control = ("val", t.env[e.name])
        elif isinstance(e, ast.This):
            t.control = ("val", t.env.get("this"))
        elif isinstance(e, ast.Seq):
            t.konts.append(("seq", e.second))
            t.control = ("expr", e.first)
        elif isinstance(e, ast.Let):
            t.konts.append(("bind", e.name))
            t.control = ("expr", e.init)
        elif isinstance(e, ast.Assign):
            t.konts.append(("assign", e.name))
            t.control = ("expr", e.value)
        elif isinstance(e, ast.FieldGet):
            t.konts.append(("fget", e.field_name, e))
            t.control = ("expr", e.receiver)
        elif isinstance(e, ast.FieldSet):
            t.konts.append(("fset_recv", e.field_name, e.value, e))
            t.control = ("expr", e.receiver)
        elif isinstance(e, ast.Call):
            t.konts.append(("call_recv", e.method, list(e.args), e))
            t.control = ("expr", e.receiver)
        elif isinstance(e, ast.New):
            if e.args:
                t.konts.append(("new_args", e.type, [], list(e.args[1:]), e))
                t.control = ("expr", e.args[0])
            else:
                self._do_new(t, e.type, [], e)
        elif isinstance(e, ast.PrimOp):
            if e.op in ("&&", "||"):
                t.konts.append(("andor", e.op, e.args[1]))
                t.control = ("expr", e.args[0])
            else:
                t.konts.append(("prim", e.op, [], list(e.args[1:]), e))
                t.control = ("expr", e.args[0])
        elif isinstance(e, ast.Atomic):
            self._enter_atomic(t, e)
        elif isinstance(e, ast.Fork):
            nt = Thread(len(self.threads), e.body, dict(t.env))
            self.threads.append(nt)
            t.control = ("val", None)
        elif isinstance(e, ast.Valid):
            t.konts.append(("valid", e))
            t.control = ("expr", e.value)
        elif isinstance(e, ast.Require):
            t.konts.append(("require", e))
            t.control = ("expr", e.cond)
        elif isinstance(e, ast.EmitEvent):
            if e.args:
                t.konts.append(("emit", e.name, [], list(e.args[1:])))
                t.control = ("expr", e.args[0])
            else:
                self._emit(t, e.name, [])
                t.control = ("val", None)
        else:
            raise OvError("E-STUCK",
                          f"no reduction for {type(e).__name__}",
                          e.line, e.col)

    def _enter_atomic(self, t: Thread, e: ast.Atomic) -> None:
        if e.deduced and isinstance(e.body, ast.Call):
            t.konts.append(("atom_recv", e))
            t.control = ("expr", e.body.receiver)
            return
        if e.deduced and isinstance(e.body, ast.FieldSet):
            t.konts.append(("atomfs_recv", e.body.field_name, e.body.value, e))
            t.control = ("expr", e.body.receiver)
            return
        if e.contract is None:
            raise OvError("E-STUCK", "atomic without a contract", e.line, e.col)
        d = self._resolve_contract(e.contract, t.env)
        fv = self._begin(t, "txn", d)
        if fv is not None:
            t.control = ("val", fv)
            return
        t.konts.append(("commit", t.env))
        t.control = ("expr", e.body)

    def _invoke(self, t: Thread, loc: int, method: str, args: list,
                node: ast.Expr) -> None:
        obj = self.heap[loc]
        if obj is None:
            self._signal(t, FailureValue("E-DANGLING",
                                         f"call on a removed object l{loc}"))
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
        env = {"this": Loc(loc), "#ctx": self._ctx_bindings(obj)}
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
        self.heap.append(ObjectRec(typ.name, resolved,
                                   self._default_fields(typ.name)))
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
        env = {"this": Loc(loc), "#ctx": dict(zip(decl.ctx_params, resolved))}
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

    def _reduce_val(self, t: Thread, v: Value) -> None:
        if not t.konts:
            t.done = True
            if isinstance(v, FailureValue):
                t.failure = v
                self.failures.append({"code": v.code, "msg": v.msg,
                                      "thread": t.tid})
            return
        k = t.konts.pop()
        tag = k[0]
        if isinstance(v, FailureValue) and tag in _STRICT:
            self._signal(t, v)
            return
        if tag == "seq":
            if isinstance(v, FailureValue):
                t.control = ("val", v)
            else:
                t.control = ("expr", k[1])
        elif tag == "bind":
            t.env[k[1]] = v
            t.control = ("val", None)
        elif tag == "assign":
            t.env[k[1]] = v
            t.control = ("val", None)
        elif tag == "fget":
            self._k_fget(t, v, k)
        elif tag == "fset_recv":
            self._k_fset_recv(t, v, k)
        elif tag == "fset_val":
            fv = self.write_field(t, k[1], k[2], v)
            if fv is not None:
                self._signal(t, fv)
            else:
                t.control = ("val", None)
        elif tag == "call_recv":
            self._k_call_recv(t, v, k)
        elif tag == "call_args":
            _, loc, method, done, remaining, node = k
            done.append(v)
            if remaining:
                t.konts.append(("call_args", loc, method, done,
                                remaining[1:], node))
                t.control = ("expr", remaining[0])
            else:
                self._invoke(t, loc, method, done, node)
        elif tag == "new_args":
            _, typ, done, remaining, node = k
            done.append(v)
            if remaining:
                t.konts.append(("new_args", typ, done, remaining[1:], node))
                t.control = ("expr", remaining[0])
            else:
                self._do_new(t, typ, done, node)
        elif tag == "prim":
            _, op, done, remaining, node = k
            done.append(v)
            if remaining:
                t.konts.append(("prim", op, done, remaining[1:], node))
                t.control = ("expr", remaining[0])
            else:
                self._k_prim(t, op, done, node)
        elif tag == "andor":
            _, op, right = k
            if not isinstance(v, bool):
                raise OvError("E-STUCK", f"{op} on a non-boolean")
            if (op == "&&" and v is False) or (op == "||" and v is True):
                t.control = ("val", v)
            else:
                t.control = ("expr", right)
        elif tag == "valid":
            if v is None:
                t.control = ("val", False)
            elif isinstance(v, Loc):
                if v.index >= len(self.heap) or self.heap[v.index] is None:
                    self._signal(t, FailureValue(
                        "E-DANGLING", f"valid on a removed object l{v.index}"))
                else:
                    t.control = ("val", self.assert_valid(v.index))
            else:
                raise OvError("E-STUCK", "valid on a non-object")
        elif tag == "require":
            if v is True:
                t.control = ("val", True)
            elif v is False:
                self._signal(t, FailureValue("R-REQUIRE", "requirement failed"))
            else:
                raise OvError("E-STUCK", "require on a non-boolean")
        elif tag == "emit":
            _, name, done, remaining = k
            done.append(v)
            if remaining:
                t.konts.append(("emit", name, done, remaining[1:]))
                t.control = ("expr", remaining[0])
            else:
                self._emit(t, name, done)
                t.control = ("val", None)
        elif tag == "ret":
            _, saved_env, recv_loc = k
            if self.naive and self.heap[recv_loc] is not None:
                self.post_checks += len(
                    self.tree.runtime_subtree(CtxLoc(recv_loc)))
            t.env = saved_env
            t.control = ("val", v)
        elif tag == "commit":
            fv = self._commit(t)
            t.env = k[1]
            t.control = ("val", v if fv is None else fv)
        elif tag == "ctor":
            fv = self._commit(t)
            t.env = k[1]
            t.control = ("val", Loc(k[2]) if fv is None else fv)
        elif tag == "atom_recv":
            self._k_atom_recv(t, v, k)
        elif tag == "atomfs_recv":
            self._k_atomfs_recv(t, v, k)
        else:
            raise OvError("E-STUCK", f"unknown continuation {tag}")

    # -- continuation helpers ---------------------------------------------------
    def _k_fget(self, t: Thread, v: Value, k: tuple) -> None:
        _, fname, node = k
        if v is None:
            self._signal(t, FailureValue("R-NULL", "null dereference"))
            return
        if not isinstance(v, Loc):
            raise OvError("E-STUCK", "field read on a non-object",
                          node.line, node.col)
        obj = self.heap[v.index]
        if obj is None:
            self._signal(t, FailureValue(
                "E-DANGLING", f"read from a removed object l{v.index}"))
            return
        if fname not in obj.fields:
            raise OvError("E-STUCK", f"no field {fname} on {obj.class_name}",
                          node.line, node.col)
        t.control = ("val", obj.fields[fname])

    def _k_fset_recv(self, t: Thread, v: Value, k: tuple) -> None:
        _, fname, value_expr, node = k
        if v is None:
            self._signal(t, FailureValue("R-NULL", "null dereference"))
            return
        if not isinstance(v, Loc):
            raise OvError("E-STUCK", "field write on a non-object",
                          node.line, node.col)
        t.konts.append(("fset_val", v.index, fname, node))
        t.control = ("expr", value_expr)

    def _k_call_recv(self, t: Thread, v: Value, k: tuple) -> None:
        _, method, args, node = k
        if v is None:
            self._signal(t, FailureValue("R-NULL", "null dereference"))
            return
        if not isinstance(v, Loc):
            raise OvError("E-STUCK", "call on a non-object",
                          node.line, node.col)
        if args:
            t.konts.append(("call_args", v.index, method, [], args[1:], node))
            t.control = ("expr", args[0])
        else:
            self._invoke(t, v.index, method, [], node)

    def _k_prim(self, t: Thread, op: str, vals: list, node: ast.Expr) -> None:
        try:
            t.control = ("val", _apply_op(op, vals))
        except ZeroDivisionError:
            self._signal(t, FailureValue("R-DIV0", "division by zero"))
        except TypeError:
            raise OvError("E-STUCK", f"operator {op} on unexpected operands",
                          node.line, node.col) from None

    def _k_atom_recv(self, t: Thread, v: Value, k: tuple) -> None:
        node: ast.Atomic = k[1]
        call = node.body
        assert isinstance(call, ast.Call)
        if v is None:
            self._signal(t, FailureValue("R-NULL", "null dereference"))
            return
        if not isinstance(v, Loc):
            raise OvError("E-STUCK", "atomic call on a non-object",
                          node.line, node.col)
        obj = self.heap[v.index]
        if obj is None:
            self._signal(t, FailureValue(
                "E-DANGLING", f"call on a removed object l{v.index}"))
            return
        hit = self.table.find_method(obj.class_name, call.method)
        if hit is None:
            raise OvError("E-STUCK", f"no method {call.method}",
                          node.line, node.col)
        owner_cls, m = hit
        d = substitute(m.contract, owner_cls.ctx_params,
                       self._args_at(obj, owner_cls.name), CtxLoc(v.index))
        fv = self._begin(t, "txn", d)
        if fv is not None:
            t.control = ("val", fv)
            return
        t.konts.append(("commit", t.env))
        if call.args:
            t.konts.append(("call_args", v.index, call.method, [],
                            list(call.args[1:]), node))
            t.control = ("expr", call.args[0])
        else:
            self._invoke(t, v.index, call.method, [], node)

    def _k_atomfs_recv(self, t: Thread, v: Value, k: tuple) -> None:
        _, fname, value_expr, node = k
        if v is None:
            self._signal(t, FailureValue("R-NULL", "null dereference"))
            return
        if not isinstance(v, Loc):
            raise OvError("E-STUCK", "atomic write on a non-object",
                          node.line, node.col)
        fv = self._begin(t, "txn", Contract(CtxBot(), CtxLoc(v.index)))
        if fv is not None:
            t.control = ("val", fv)
            return
        t.konts.append(("commit", t.env))
        t.konts.append(("fset_val", v.index, fname, node))
        t.control = ("expr", value_expr)


def _apply_op(op: str, vals: list) -> Value:
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
        eq = _value_eq(a, b)
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
    if op == "/":
        return a // b
    if op == "%":
        return a % b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise TypeError(op)


def _value_eq(a: Value, b: Value) -> bool:
    if isinstance(a, Loc) or isinstance(b, Loc):
        return a == b
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        raise TypeError("==")
    return a == b
