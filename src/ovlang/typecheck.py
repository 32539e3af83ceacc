"""Static checking of core programs: contract well-formedness, subcontracts,
effects, owner-originated calls, existential confinement, invariant purity.

check_program also elaborates bare `atomic e` nodes with their deduced
contracts so the runtime never has to re-deduce them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ast
from .ast import (BOT, EXIST, THIS, TOP, Context, Contract, CtxAny, CtxBot,
                  CtxExist, CtxParam, CtxThis, CtxTop)
from .diagnostics import Diagnostics, OvError
from .ownership import ContextEnv, owner_bound, substitute

TOP_TOP = Contract(CtxTop(), CtxTop())
CTOR_CONTRACT = Contract(CtxBot(), CtxThis())


class ClassTable:
    """Classes by name with superclass-chain lookups."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.classes: dict[str, ast.ClassDecl] = {}
        for c in program.classes:
            self.classes.setdefault(c.name, c)

    def get(self, name: str) -> Optional[ast.ClassDecl]:
        return self.classes.get(name)

    def chain(self, name: str) -> list[ast.ClassDecl]:
        """The class and its superclasses, nearest first; cycles cut off."""
        out: list[ast.ClassDecl] = []
        seen: set[str] = set()
        cur = self.get(name)
        while cur is not None and cur.name not in seen:
            seen.add(cur.name)
            out.append(cur)
            cur = self.get(cur.superclass.name) if cur.superclass else None
        return out

    def fields_of(self, name: str) -> list[tuple[ast.ClassDecl, ast.FieldDecl]]:
        """Declaration order: superclass fields first."""
        out: list[tuple[ast.ClassDecl, ast.FieldDecl]] = []
        for cls in reversed(self.chain(name)):
            for f in cls.fields:
                out.append((cls, f))
        return out

    def find_field(self, name: str, fname: str) -> Optional[tuple[ast.ClassDecl, ast.FieldDecl]]:
        for cls in self.chain(name):
            for f in cls.fields:
                if f.name == fname:
                    return cls, f
        return None

    def find_method(self, name: str, mname: str) -> Optional[tuple[ast.ClassDecl, ast.MethodDecl]]:
        for cls in self.chain(name):
            for m in cls.methods:
                if m.name == mname:
                    return cls, m
        return None

    def ctor_of(self, name: str) -> Optional[ast.CtorDecl]:
        cls = self.get(name)
        if cls is not None and cls.ctors:
            return cls.ctors[0]
        return None


@dataclass
class TypeEnv:
    table: ClassTable
    ctx: ContextEnv
    this_type: Optional[ast.ClassType]  # None in main
    frame: Contract
    vars: dict[str, ast.TypeExpr] = field(default_factory=dict)
    fork_ok: bool = False

    def child(self, **overrides) -> "TypeEnv":
        merged = dict(table=self.table, ctx=self.ctx, this_type=self.this_type,
                      frame=self.frame, vars=dict(self.vars),
                      fork_ok=self.fork_ok)
        merged.update(overrides)
        return TypeEnv(**merged)

    def origin_ctx(self) -> Context:
        """The context mutating calls must originate from: this inside a
        class body, top in main (main is the root context)."""
        return THIS if self.this_type is not None else TOP


# ---------------------------------------------------------------------------
# Contract and binding relations

def contract_wf(env: ContextEnv, d: Contract) -> bool:
    return env.ctx_wf(d.validity) and env.ctx_wf(d.invalidity)


def subcontract(env: ContextEnv, d1: Contract, d2: Contract) -> bool:
    """d1 refines d2: smaller validity requirement and smaller effect."""
    return (env.inside(d1.validity, d2.validity)
            and env.inside(d1.invalidity, d2.invalidity))


def abstracts(env: ContextEnv, k1: Context, k2: Context) -> bool:
    """Context abstraction: anything abstracts to Any; otherwise only a
    well-formed context abstracts to itself."""
    if isinstance(k2, CtxAny):
        return True
    return k1 == k2 and env.ctx_wf(k1)


def _contains_exist(t: ast.TypeExpr) -> bool:
    return isinstance(t, ast.ClassType) and any(
        isinstance(a, CtxExist) for a in t.args)


def bindable(env: TypeEnv, t1: ast.TypeExpr, t2: ast.TypeExpr,
             diags: Diagnostics, line: int = 0, col: int = 0,
             what: str = "value") -> bool:
    """Can a value of type t1 be bound at a declaration of type t2?
    Existential contexts may only appear on the left."""
    if _contains_exist(t2):
        diags.add("E-BIND-EXIST",
                  f"{what} target type {t2} mentions an existential context",
                  line, col)
        return False
    if isinstance(t1, ast.NullType) and isinstance(t2, ast.ClassType):
        return True
    if isinstance(t1, ast.ClassType) and isinstance(t2, ast.ClassType):
        # find the superclass-chain instance of t1 at t2's class
        cur: Optional[ast.ClassType] = t1
        seen: set[str] = set()
        while cur is not None and cur.name not in seen:
            seen.add(cur.name)
            if cur.name == t2.name:
                if len(cur.args) == len(t2.args) and all(
                        abstracts(env.ctx, a, b)
                        for a, b in zip(cur.args, t2.args)):
                    return True
                diags.add("E-TYPE", f"cannot bind {t1} where {t2} is expected",
                          line, col)
                return False
            decl = env.table.get(cur.name)
            if decl is None or decl.superclass is None:
                break
            if len(decl.ctx_params) != len(cur.args):
                break
            cur = substitute(decl.superclass, decl.ctx_params, cur.args, EXIST)
        diags.add("E-TYPE", f"cannot bind {t1} where {t2} is expected", line, col)
        return False
    if type(t1) is type(t2):
        return True
    diags.add("E-TYPE", f"cannot bind {t1} where {t2} is expected", line, col)
    return False


def check_type(env: TypeEnv, t: ast.TypeExpr, diags: Diagnostics) -> None:
    """Well-formedness of a declared type in the current environment."""
    if not isinstance(t, ast.ClassType):
        return
    decl = env.table.get(t.name)
    if decl is None:
        diags.add("E-TYPE", f"unknown class {t.name}", t.line, t.col)
        return
    if len(t.args) != len(decl.ctx_params):
        diags.add("E-CTX-ARITY",
                  f"{t.name} expects {len(decl.ctx_params)} context arguments, "
                  f"got {len(t.args)}", t.line, t.col)
        return
    for a in t.args:
        if not (env.ctx.ctx_wf(a) or isinstance(a, CtxAny)):
            diags.add("E-CTX-WF", f"context {a} is not available here",
                      t.line, t.col)
            return
    for c in decl.constraints:
        lhs = substitute(c.lhs, decl.ctx_params, t.args, EXIST)
        rhs = substitute(c.rhs, decl.ctx_params, t.args, EXIST)
        ok = (env.ctx.strictly_inside(lhs, rhs) if c.strict
              else env.ctx.inside(lhs, rhs))
        if not ok:
            diags.add("E-CTX-WF",
                      f"{t} violates the constraint {c} of {t.name}",
                      t.line, t.col)


# ---------------------------------------------------------------------------
# Expression typing

class Checker:
    def __init__(self, table: ClassTable):
        self.table = table
        self.diags = Diagnostics()

    # -- helpers -------------------------------------------------------------
    def _class_of(self, env: TypeEnv, t: ast.TypeExpr, line: int,
                  col: int) -> Optional[ast.ClassDecl]:
        if not isinstance(t, ast.ClassType):
            self.diags.add("E-TYPE", f"{t} is not an object type", line, col)
            return None
        decl = env.table.get(t.name)
        if decl is None:
            self.diags.add("E-TYPE", f"unknown class {t.name}", line, col)
        return decl

    def _lookup_images(self, receiver: ast.Expr,
                       recv_t: ast.ClassType) -> tuple[Context, Context]:
        """(signature this-image, contract this-image) for member lookup.
        Through this both are This; through any other receiver, signatures
        get the existential and contracts get the receiver's owner bound."""
        if isinstance(receiver, ast.This):
            return THIS, THIS
        try:
            owner = owner_bound(recv_t)
        except OvError:
            owner = EXIST
        return EXIST, owner

    # -- main entry ----------------------------------------------------------
    def type_expr(self, env: TypeEnv, e: ast.Expr) -> ast.TypeExpr:
        if isinstance(e, ast.Const):
            if e.value is None:
                return ast.NULL_T
            if isinstance(e.value, bool):
                return ast.BOOL
            return ast.INT
        if isinstance(e, ast.Var):
            t = env.vars.get(e.name)
            if t is None:
                self.diags.add("E-TYPE", f"unknown variable {e.name}",
                               e.line, e.col)
                return ast.VOID
            return t
        if isinstance(e, ast.This):
            if env.this_type is None:
                self.diags.add("E-TYPE", "this is not available in main",
                               e.line, e.col)
                return ast.VOID
            return env.this_type
        if isinstance(e, ast.Seq):
            if isinstance(e.first, ast.Let):
                env = self._bind_let(env, e.first)
            else:
                self.type_expr(env, e.first)
            return self.type_expr(env, e.second)
        if isinstance(e, ast.Let):
            self._bind_let(env, e)
            return ast.VOID
        if isinstance(e, ast.Assign):
            t = env.vars.get(e.name)
            if t is None:
                self.diags.add("E-TYPE", f"unknown variable {e.name}",
                               e.line, e.col)
                self.type_expr(env, e.value)
                return ast.VOID
            vt = self.type_expr(env, e.value)
            bindable(env, vt, t, self.diags, e.line, e.col, "assignment")
            return ast.VOID
        if isinstance(e, ast.FieldGet):
            return self._field_get(env, e)
        if isinstance(e, ast.FieldSet):
            return self._field_set(env, e)
        if isinstance(e, ast.Call):
            return self._call(env, e)
        if isinstance(e, ast.New):
            return self._new(env, e)
        if isinstance(e, ast.PrimOp):
            return self._prim(env, e)
        if isinstance(e, ast.Atomic):
            return self._atomic(env, e)
        if isinstance(e, ast.Fork):
            if not env.fork_ok:
                self.diags.add("E-FORK-IN-ATOMIC",
                               "fork is only allowed at top level",
                               e.line, e.col)
            body_env = env.child(frame=TOP_TOP, fork_ok=True)
            self.type_expr(body_env, e.body)
            return ast.VOID
        if isinstance(e, ast.Valid):
            t = self.type_expr(env, e.value)
            if not isinstance(t, (ast.ClassType, ast.NullType)):
                self.diags.add("E-TYPE", "valid needs an object", e.line, e.col)
            return ast.BOOL
        if isinstance(e, ast.Require):
            t = self.type_expr(env, e.cond)
            if not isinstance(t, ast.BoolType):
                self.diags.add("E-TYPE", "require needs a bool condition",
                               e.line, e.col)
            return ast.BOOL
        if isinstance(e, ast.EmitEvent):
            for a in e.args:
                self.type_expr(env, a)
            return ast.VOID
        raise AssertionError(f"not core form: {type(e).__name__}")

    def _bind_let(self, env: TypeEnv, e: ast.Let) -> TypeEnv:
        it = self.type_expr(env, e.init)
        if e.name in env.vars:
            self.diags.add("E-TYPE", f"variable {e.name} is already declared",
                           e.line, e.col)
        if e.type is None:
            declared = it  # compiler temporary: inferred, no binding check
        else:
            check_type(env, e.type, self.diags)
            bindable(env, it, e.type, self.diags, e.line, e.col, "declaration")
            declared = e.type
        env2 = env.child()
        env2.vars[e.name] = declared
        return env2

    def _field_get(self, env: TypeEnv, e: ast.FieldGet) -> ast.TypeExpr:
        rt = self.type_expr(env, e.receiver)
        if isinstance(rt, ast.NullType):
            self.diags.add("E-TYPE", "field access on null", e.line, e.col)
            return ast.VOID
        decl = self._class_of(env, rt, e.line, e.col)
        if decl is None:
            return ast.VOID
        hit = env.table.find_field(decl.name, e.field_name)
        if hit is None:
            self.diags.add("E-TYPE",
                           f"{decl.name} has no field {e.field_name}",
                           e.line, e.col)
            return ast.VOID
        owner_cls, fdecl = hit
        sig_image, _ = self._lookup_images(e.receiver, rt)
        actuals = self._chain_args(env, rt, owner_cls.name)
        return substitute(fdecl.type, owner_cls.ctx_params, actuals, sig_image)

    def _chain_args(self, env: TypeEnv, t: ast.ClassType,
                    ancestor: str) -> list[Context]:
        """Context arguments of t viewed at the (super)class `ancestor`."""
        cur: Optional[ast.ClassType] = t
        seen: set[str] = set()
        while cur is not None and cur.name not in seen:
            seen.add(cur.name)
            if cur.name == ancestor:
                return cur.args
            decl = env.table.get(cur.name)
            if decl is None or decl.superclass is None:
                break
            if len(decl.ctx_params) != len(cur.args):
                break
            cur = substitute(decl.superclass, decl.ctx_params, cur.args, EXIST)
        return t.args

    def _field_set(self, env: TypeEnv, e: ast.FieldSet) -> ast.TypeExpr:
        rt = self.type_expr(env, e.receiver)
        if isinstance(rt, ast.NullType):
            self.diags.add("E-TYPE", "field write on null", e.line, e.col)
            self.type_expr(env, e.value)
            return ast.VOID
        decl = self._class_of(env, rt, e.line, e.col)
        if decl is None:
            self.type_expr(env, e.value)
            return ast.VOID
        hit = env.table.find_field(decl.name, e.field_name)
        if hit is None:
            self.diags.add("E-TYPE",
                           f"{decl.name} has no field {e.field_name}",
                           e.line, e.col)
            self.type_expr(env, e.value)
            return ast.VOID
        owner_cls, fdecl = hit
        # effect rule: the written object must lie inside the frame's
        # invalidity set
        target_ctx = self._target_owner_ctx(e.receiver, rt)
        if not env.ctx.inside(target_ctx, env.frame.invalidity):
            self.diags.add(
                "E-EFFECT",
                f"write to {fdecl.name} modifies {target_ctx}, outside the "
                f"frame invalidity {env.frame.invalidity}", e.line, e.col)
        if fdecl.final and env.frame != CTOR_CONTRACT:
            self.diags.add("E-TYPE", f"field {fdecl.name} is final",
                           e.line, e.col)
        sig_image, _ = self._lookup_images(e.receiver, rt)
        actuals = self._chain_args(env, rt, owner_cls.name)
        ft = substitute(fdecl.type, owner_cls.ctx_params, actuals, sig_image)
        vt = self.type_expr(env, e.value)
        bindable(env, vt, ft, self.diags, e.line, e.col, "field write")
        return ast.VOID

    def _target_owner_ctx(self, receiver: ast.Expr, rt: ast.ClassType) -> Context:
        """The context the written/deduced target object is known to live in:
        this itself for this, otherwise the receiver type's owner."""
        if isinstance(receiver, ast.This):
            return THIS
        try:
            return owner_bound(rt)
        except OvError:
            return EXIST

    def _call(self, env: TypeEnv, e: ast.Call) -> ast.TypeExpr:
        rt = self.type_expr(env, e.receiver)
        if isinstance(rt, ast.NullType):
            self.diags.add("E-TYPE", "call on null", e.line, e.col)
            return ast.VOID
        decl = self._class_of(env, rt, e.line, e.col)
        if decl is None:
            for a in e.args:
                self.type_expr(env, a)
            return ast.VOID
        hit = env.table.find_method(decl.name, e.method)
        if hit is None:
            self.diags.add("E-TYPE", f"{decl.name} has no method {e.method}",
                           e.line, e.col)
            for a in e.args:
                self.type_expr(env, a)
            return ast.VOID
        owner_cls, m = hit
        sig_image, con_image = self._lookup_images(e.receiver, rt)
        actuals = self._chain_args(env, rt, owner_cls.name)
        d = substitute(m.contract, owner_cls.ctx_params, actuals, con_image)
        if not subcontract(env.ctx, d, env.frame):
            self.diags.add(
                "E-SUBCONTRACT",
                f"call {e.method} has contract {d}, not a subcontract of the "
                f"frame {env.frame}", e.line, e.col)
        if not isinstance(d.invalidity, CtxBot):
            # mutating calls must originate from the owner
            if not isinstance(e.receiver, ast.This):
                owner = self._target_owner_ctx(e.receiver, rt)
                if not env.ctx.inside(owner, env.origin_ctx()):
                    self.diags.add(
                        "E-OWNER-CALL",
                        f"mutating call {e.method} on a receiver owned by "
                        f"{owner} does not originate from its owner",
                        e.line, e.col)
        if len(e.args) != len(m.params):
            self.diags.add("E-TYPE",
                           f"{e.method} expects {len(m.params)} arguments",
                           e.line, e.col)
        for a, p in zip(e.args, m.params):
            at = self.type_expr(env, a)
            pt = substitute(p.type, owner_cls.ctx_params, actuals, sig_image)
            bindable(env, at, pt, self.diags, a.line, a.col,
                     f"argument {p.name}")
        return substitute(m.return_type, owner_cls.ctx_params, actuals,
                          sig_image)

    def _new(self, env: TypeEnv, e: ast.New) -> ast.TypeExpr:
        t = e.type
        check_type(env, t, self.diags)
        decl = env.table.get(t.name)
        if decl is None or len(t.args) != len(decl.ctx_params):
            for a in e.args:
                self.type_expr(env, a)
            return t
        if t.args and isinstance(t.args[0], (CtxBot, CtxAny)):
            self.diags.add("E-CTX-WF",
                           f"cannot create an object owned by {t.args[0]}",
                           e.line, e.col)
        ctor = env.table.ctor_of(t.name)
        params = ctor.params if ctor is not None else []
        if len(e.args) != len(params):
            self.diags.add("E-TYPE",
                           f"{t.name} constructor expects {len(params)} "
                           f"arguments", e.line, e.col)
        for a, p in zip(e.args, params):
            at = self.type_expr(env, a)
            pt = substitute(p.type, decl.ctx_params, t.args, EXIST)
            bindable(env, at, pt, self.diags, a.line, a.col,
                     f"argument {p.name}")
        return t

    def _prim(self, env: TypeEnv, e: ast.PrimOp) -> ast.TypeExpr:
        ts = [self.type_expr(env, a) for a in e.args]
        op = e.op
        if len(e.args) == 1:
            want = ast.BoolType if op == "!" else ast.IntType
            if not isinstance(ts[0], want):
                self.diags.add("E-TYPE", f"operator {op} needs {want().__str__()}",
                               e.line, e.col)
            return ast.BOOL if op == "!" else ast.INT
        a, b = ts
        if op in ("+", "-", "*", "/", "%"):
            if not (isinstance(a, ast.IntType) and isinstance(b, ast.IntType)):
                self.diags.add("E-TYPE", f"operator {op} needs int operands",
                               e.line, e.col)
            return ast.INT
        if op in ("<", "<=", ">", ">="):
            if not (isinstance(a, ast.IntType) and isinstance(b, ast.IntType)):
                self.diags.add("E-TYPE", f"operator {op} needs int operands",
                               e.line, e.col)
            return ast.BOOL
        if op in ("&&", "||"):
            if not (isinstance(a, ast.BoolType) and isinstance(b, ast.BoolType)):
                self.diags.add("E-TYPE", f"operator {op} needs bool operands",
                               e.line, e.col)
            return ast.BOOL
        if op in ("==", "!="):
            ok = (isinstance(a, ast.IntType) and isinstance(b, ast.IntType)) or \
                 (isinstance(a, ast.BoolType) and isinstance(b, ast.BoolType)) or \
                 (isinstance(a, (ast.ClassType, ast.NullType))
                  and isinstance(b, (ast.ClassType, ast.NullType)))
            if not ok:
                self.diags.add("E-TYPE", f"operator {op} on mismatched operands",
                               e.line, e.col)
            return ast.BOOL
        raise AssertionError(f"unknown operator {op}")

    def deduce_contract(self, env: TypeEnv, e: ast.Expr) -> Contract:
        """Contract of a bare atomic expression: a call takes the callee's
        substituted contract, a field write takes <bot, owner of target>."""
        if isinstance(e, ast.Call):
            rt = self.type_expr(env.child(), e.receiver)
            if isinstance(rt, ast.ClassType):
                decl = env.table.get(rt.name)
                if decl is not None:
                    hit = env.table.find_method(decl.name, e.method)
                    if hit is not None:
                        owner_cls, m = hit
                        _, con_image = self._lookup_images(e.receiver, rt)
                        actuals = self._chain_args(env, rt, owner_cls.name)
                        return substitute(m.contract, owner_cls.ctx_params,
                                          actuals, con_image)
            raise OvError("E-NEED-CONTRACT",
                          "cannot deduce a contract for this call",
                          e.line, e.col)
        if isinstance(e, ast.FieldSet):
            rt = self.type_expr(env.child(), e.receiver)
            if isinstance(rt, ast.ClassType):
                return Contract(BOT, self._target_owner_ctx(e.receiver, rt),
                                line=e.line, col=e.col)
        raise OvError("E-NEED-CONTRACT",
                      "atomic needs an explicit contract for a compound body",
                      e.line, e.col)

    def _atomic(self, env: TypeEnv, e: ast.Atomic) -> ast.TypeExpr:
        d = e.contract
        if d is None:
            try:
                d = self.deduce_contract(env, e.body)
            except OvError as exc:
                self.diags.add(exc.code, exc.msg, e.line, e.col)
                self.type_expr(env.child(fork_ok=False), e.body)
                return ast.VOID
            e.contract = d  # elaborate for the runtime
            e.deduced = True
        else:
            if not contract_wf(env.ctx, d):
                self.diags.add("E-CTX-WF",
                               f"contract {d} is not well formed here",
                               e.line, e.col)
        if not subcontract(env.ctx, d, env.frame):
            self.diags.add("E-SUBCONTRACT",
                           f"atomic contract {d} is not a subcontract of the "
                           f"frame {env.frame}", e.line, e.col)
        body_env = env.child(frame=d, fork_ok=False)
        return self.type_expr(body_env, e.body)


# ---------------------------------------------------------------------------
# Declaration-level checks

def _params_env(base: TypeEnv, params: list[ast.Param],
                diags: Diagnostics) -> TypeEnv:
    env = base.child()
    seen: set[str] = set()
    for p in params:
        if p.name in seen:
            diags.add("E-TYPE", f"duplicate parameter {p.name}", p.line, p.col)
        seen.add(p.name)
        check_type(env, p.type, diags)
        env.vars[p.name] = p.type
    return env


def check_invariant_clause(checker: Checker, env: TypeEnv, cls: ast.ClassDecl,
                           e: ast.Expr) -> None:
    diags = checker.diags

    def pure(x: ast.Expr) -> None:
        if isinstance(x, (ast.Call, ast.New, ast.Assign, ast.FieldSet,
                          ast.Atomic, ast.Fork, ast.Valid, ast.Require,
                          ast.EmitEvent, ast.Let, ast.Seq)):
            diags.add("E-INV-IMPURE",
                      f"invariant clauses cannot contain "
                      f"{type(x).__name__.lower()} expressions", x.line, x.col)
            return
        for attr in vars(x).values():
            if isinstance(attr, ast.Expr):
                pure(attr)
            elif isinstance(attr, list):
                for item in attr:
                    if isinstance(item, ast.Expr):
                        pure(item)

    def owned_path(x: ast.Expr) -> None:
        """Field reads may only step through chains of this-owned fields."""
        if isinstance(x, ast.FieldGet):
            recv = x.receiver
            if isinstance(recv, ast.This):
                return
            if isinstance(recv, ast.FieldGet):
                owned_path(recv)
                rt = checker.type_expr(env.child(), recv)
                if isinstance(rt, ast.ClassType):
                    try:
                        if owner_bound(rt) == THIS:
                            return
                    except OvError:
                        pass
                diags.add("E-INV-ESCAPE",
                          f"invariant reads {x.field_name} through a field "
                          f"not owned by this", x.line, x.col)
                return
            diags.add("E-INV-ESCAPE",
                      "invariant field paths must start at this",
                      x.line, x.col)
            return
        for attr in vars(x).values():
            if isinstance(attr, ast.Expr):
                owned_path(attr)
            elif isinstance(attr, list):
                for item in attr:
                    if isinstance(item, ast.Expr):
                        owned_path(item)

    before = len(diags)
    pure(e)
    if len(diags) != before:
        return
    owned_path(e)
    t = checker.type_expr(env, e)
    if not isinstance(t, ast.BoolType):
        diags.add("E-TYPE", "invariant clause must be boolean", e.line, e.col)


def check_method(checker: Checker, base: TypeEnv, cls: ast.ClassDecl,
                 m: ast.MethodDecl) -> None:
    diags = checker.diags
    if not contract_wf(base.ctx, m.contract):
        diags.add("E-CTX-WF", f"contract {m.contract} of {m.name} is not "
                  f"well formed", m.line, m.col)
    # overriding methods must declare the identical contract
    for sup in checker.table.chain(cls.name)[1:]:
        for sm in sup.methods:
            if sm.name == m.name:
                if sm.contract != m.contract:
                    diags.add("E-SUBCONTRACT",
                              f"override {m.name} must declare the inherited "
                              f"contract {sm.contract}", m.line, m.col)
                if len(sm.params) != len(m.params):
                    diags.add("E-TYPE",
                              f"override {m.name} changes the parameter count",
                              m.line, m.col)
                break
    check_type(base, m.return_type, diags)
    env = _params_env(base, m.params, diags)
    env = env.child(frame=m.contract, fork_ok=(m.contract == TOP_TOP))
    t = checker.type_expr(env, m.body)
    if not isinstance(m.return_type, ast.VoidType):
        bindable(env, t, m.return_type, diags, m.line, m.col, "return")


def check_ctor(checker: Checker, base: TypeEnv, cls: ast.ClassDecl,
               ctor: ast.CtorDecl) -> None:
    env = _params_env(base, ctor.params, checker.diags)
    env = env.child(frame=CTOR_CONTRACT, fork_ok=False)
    checker.type_expr(env, ctor.body)


def check_class(checker: Checker, cls: ast.ClassDecl) -> None:
    diags = checker.diags
    table = checker.table
    if len(set(cls.ctx_params)) != len(cls.ctx_params):
        diags.add("E-CTX-WF", f"duplicate context parameters on {cls.name}",
                  cls.line, cls.col)
    ctx = ContextEnv.for_class(cls)
    this_type = ast.ClassType(cls.name, [CtxParam(p) for p in cls.ctx_params])
    base = TypeEnv(table, ctx, this_type, CTOR_CONTRACT)
    for c in cls.constraints:
        for side in (c.lhs, c.rhs):
            if not ctx.ctx_wf(side):
                diags.add("E-CTX-WF",
                          f"constraint {c} mentions {side}, which is not "
                          f"declared", c.line, c.col)
    if cls.superclass is not None:
        sup = table.get(cls.superclass.name)
        if sup is None:
            diags.add("E-TYPE", f"unknown superclass {cls.superclass.name}",
                      cls.line, cls.col)
        else:
            check_type(base, cls.superclass, diags)
            chain_names = [c.name for c in table.chain(cls.name)]
            if len(chain_names) != len(set(chain_names)) or (
                    sup.name == cls.name):
                diags.add("E-TYPE", f"inheritance cycle at {cls.name}",
                          cls.line, cls.col)
    seen_fields: set[str] = set()
    for f in cls.fields:
        if f.name in seen_fields:
            diags.add("E-TYPE", f"duplicate field {f.name}", f.line, f.col)
        seen_fields.add(f.name)
        check_type(base, f.type, diags)
    seen_methods: set[str] = set()
    for m in cls.methods:
        if m.name in seen_methods:
            diags.add("E-TYPE", f"duplicate method {m.name}", m.line, m.col)
        seen_methods.add(m.name)
    if len(cls.ctors) > 1:
        diags.add("E-TYPE", f"{cls.name} declares more than one constructor",
                  cls.line, cls.col)
    init_env = base.child(frame=CTOR_CONTRACT)
    for f in cls.fields:
        if f.init is not None:
            it = checker.type_expr(init_env, f.init)
            bindable(init_env, it, f.type, diags, f.line, f.col,
                     f"initializer of {f.name}")
    for inv in cls.invariants:
        check_invariant_clause(checker, base.child(frame=Contract(BOT, BOT)),
                               cls, inv)
    for ctor in cls.ctors[:1]:
        check_ctor(checker, base, cls, ctor)
    for m in cls.methods:
        check_method(checker, base, cls, m)


def check_program(p: ast.Program) -> Diagnostics:
    """Check a core program; elaborates bare atomic contracts in place."""
    table = ClassTable(p)
    checker = Checker(table)
    seen: set[str] = set()
    for c in p.classes:
        if c.name in seen:
            checker.diags.add("E-TYPE", f"duplicate class {c.name}",
                              c.line, c.col)
        seen.add(c.name)
    for c in p.classes:
        check_class(checker, c)
    if p.main is not None:
        env = TypeEnv(table, ContextEnv.for_main(), None, TOP_TOP,
                      fork_ok=True)
        checker.type_expr(env, p.main)
    return checker.diags
