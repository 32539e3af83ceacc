"""Static checking of core programs: contract well-formedness, subcontracts,
effects, owner-originated calls, existential confinement, invariant purity.

Every use of a member through a receiver (field read, field write, call, and
the bare `atomic` call or write whose contract is deduced from its callee)
resolves it through one lookup, `Checker._member`. A rule that reports a
fault, or meets an operand whose fault is already reported, types as
`ast.ERROR_T`, which binds anywhere and meets every operator's requirement,
so one fault gives one diagnostic.

check_program marks each bare `atomic` call or field write as `deduced`; the
deduced contract checks it here, and the runtime resolves the contract
against the receiver object itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from . import ast
from .ast import (BOT, EXIST, THIS, TOP, Context, Contract, CtxAny, CtxBot,
                  CtxExist, CtxParam, CtxThis, CtxTop)
from .diagnostics import Diagnostics
from .ownership import ContextEnv, owner_bound, substitute

TOP_TOP = Contract(CtxTop(), CtxTop())
CTOR_CONTRACT = Contract(CtxBot(), CtxThis())

# What Checker._member finds: the declaring class, the field or method, and
# the receiver type's context arguments at that class.
Member = tuple[ast.ClassDecl, Union[ast.FieldDecl, ast.MethodDecl],
               list[Context]]


class ClassTable:
    """Classes by name with superclass-chain lookups. Each lookup is worked
    out once per class (and method name) and kept; results are tuples, so
    no caller can change what later callers see."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.classes: dict[str, ast.ClassDecl] = {}
        for c in program.classes:
            self.classes.setdefault(c.name, c)
        self._chains: dict[str, tuple[ast.ClassDecl, ...]] = {}
        self._fields: dict[str, tuple[tuple[ast.ClassDecl, ast.FieldDecl], ...]] = {}
        self._methods: dict[tuple[str, str],
                            Optional[tuple[ast.ClassDecl, ast.MethodDecl]]] = {}

    def get(self, name: str) -> Optional[ast.ClassDecl]:
        return self.classes.get(name)

    def of_type(self, t: ast.ClassType) -> Optional[ast.ClassDecl]:
        """The class of t, or None when it is unknown or t has the wrong
        number of context arguments: check_type reports either where t is
        declared, so every later use of t takes it as reported."""
        decl = self.classes.get(t.name)
        if decl is None or len(t.args) != len(decl.ctx_params):
            return None
        return decl

    def chain(self, name: str) -> tuple[ast.ClassDecl, ...]:
        """The class and its superclasses, nearest first; cycles cut off."""
        hit = self._chains.get(name)
        if hit is None:
            hit = self._chains[name] = self._walk(name)
        return hit

    def _walk(self, name: str) -> tuple[ast.ClassDecl, ...]:
        """The superclass walk behind `chain`, uncached."""
        out: list[ast.ClassDecl] = []
        seen: set[str] = set()
        cur = self.get(name)
        while cur is not None and cur.name not in seen:
            seen.add(cur.name)
            out.append(cur)
            cur = self.get(cur.superclass.name) if cur.superclass else None
        return tuple(out)

    def views(self, name: str, args: list[Context], this_image: Context
              ) -> Iterator[tuple[ast.ClassDecl, list[Context]]]:
        """The class type name<args> seen at its class and at each
        superclass: yields (class, context arguments) pairs, nearest
        first. A superclass's arguments are its `extends` clause with args
        for the class's parameters and this_image for this. This is the
        one superclass walk with arguments; it follows `chain` and stops
        after an arity mismatch."""
        for cls in self.chain(name):
            yield cls, args
            if cls.superclass is None or len(cls.ctx_params) != len(args):
                return
            args = substitute(cls.superclass, cls.ctx_params, args,
                              this_image).args

    def args_at(self, name: str, args: list[Context], this_image: Context,
                cls: ast.ClassDecl) -> list[Context]:
        """The context arguments of name<args> seen at cls, one of its
        classes: args itself at its own class, with no walk, and where the
        walk stops short of cls (only an ill-formed `extends` makes it)."""
        if cls.name != name:
            for c, a in self.views(name, args, this_image):
                if c is cls:
                    return a
        return args

    def fields_of(self, name: str
                  ) -> tuple[tuple[ast.ClassDecl, ast.FieldDecl], ...]:
        """Declaration order: superclass fields first."""
        hit = self._fields.get(name)
        if hit is None:
            hit = self._fields[name] = tuple(
                (cls, f) for cls in reversed(self.chain(name))
                for f in cls.fields)
        return hit

    def find_field(self, name: str, fname: str) -> Optional[tuple[ast.ClassDecl, ast.FieldDecl]]:
        for cls in self.chain(name):
            for f in cls.fields:
                if f.name == fname:
                    return cls, f
        return None

    def find_method(self, name: str, mname: str) -> Optional[tuple[ast.ClassDecl, ast.MethodDecl]]:
        key = (name, mname)
        if key not in self._methods:
            self._methods[key] = next(
                ((cls, m) for cls in self.chain(name) for m in cls.methods
                 if m.name == mname), None)
        return self._methods[key]

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

    def child(self, *, frame: Optional[Contract] = None,
              fork_ok: Optional[bool] = None,
              vars: Optional[dict[str, ast.TypeExpr]] = None) -> "TypeEnv":
        """A copy with the given fields replaced. `vars` is shared unless
        replaced: a let binds in it, and its chain unbinds it at the end."""
        return TypeEnv(self.table, self.ctx, self.this_type,
                       self.frame if frame is None else frame,
                       self.vars if vars is None else vars,
                       self.fork_ok if fork_ok is None else fork_ok)

    def unbind(self, undo: list[tuple[str, Optional[ast.TypeExpr]]]) -> None:
        """Undoes the bindings Checker._bind_let made, last first: each
        entry is a name and the binding it hid, or None."""
        for name, hidden in reversed(undo):
            if hidden is None:
                del self.vars[name]
            else:
                self.vars[name] = hidden

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
    table = env.table
    if isinstance(t1, ast.ErrorType) or (
            isinstance(t2, ast.ClassType) and table.of_type(t2) is None):
        return True  # an ill-formed target is reported at its declaration
    if isinstance(t1, ast.NullType) and isinstance(t2, ast.ClassType):
        return True
    if isinstance(t1, ast.ClassType) and isinstance(t2, ast.ClassType):
        if table.of_type(t1) is None:
            return True  # so is an ill-formed source
        inst = next((a for c, a in table.views(t1.name, t1.args, EXIST)
                     if c.name == t2.name), None)
        if inst is not None and len(inst) == len(t2.args) and all(
                abstracts(env.ctx, a, b) for a, b in zip(inst, t2.args)):
            return True
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

    # -- main entry ----------------------------------------------------------
    def type_expr(self, env: TypeEnv, e: ast.Expr) -> ast.TypeExpr:
        rule = _TYPE_RULES.get(type(e))
        if rule is None:
            raise AssertionError(f"not core form: {type(e).__name__}")
        return rule(self, env, e)

    # -- one rule per node class: (checker, env, node) -> type ----------------
    def _const(self, env: TypeEnv, e: ast.Const) -> ast.TypeExpr:
        if e.value is None:
            return ast.NULL_T
        if isinstance(e.value, bool):
            return ast.BOOL
        return ast.INT

    def _var(self, env: TypeEnv, e: ast.Var) -> ast.TypeExpr:
        t = env.vars.get(e.name)
        if t is None:
            self.diags.add("E-TYPE", f"unknown variable {e.name}",
                           e.line, e.col)
            return ast.ERROR_T
        return t

    def _this(self, env: TypeEnv, e: ast.This) -> ast.TypeExpr:
        if env.this_type is None:
            self.diags.add("E-TYPE", "this is not available in main",
                           e.line, e.col)
            return ast.ERROR_T
        return env.this_type

    def _seq(self, env: TypeEnv, e: ast.Seq) -> ast.TypeExpr:
        """The chain is walked in a loop, so its length costs no recursion.
        Each let binds in env.vars from the next link to the chain's end,
        where the bindings it hid come back."""
        undo: list[tuple[str, Optional[ast.TypeExpr]]] = []
        try:
            while isinstance(e, ast.Seq):
                if isinstance(e.first, ast.Let):
                    undo.append(self._bind_let(env, e.first))
                else:
                    self.type_expr(env, e.first)
                e = e.second
            return self.type_expr(env, e)
        finally:
            env.unbind(undo)

    def _let(self, env: TypeEnv, e: ast.Let) -> ast.TypeExpr:
        # a Let outside a Seq scopes over nothing
        env.unbind([self._bind_let(env, e)])
        return ast.VOID

    def _assign(self, env: TypeEnv, e: ast.Assign) -> ast.TypeExpr:
        t = env.vars.get(e.name)
        if t is None:
            self.diags.add("E-TYPE", f"unknown variable {e.name}",
                           e.line, e.col)
            self.type_expr(env, e.value)
            return ast.VOID
        vt = self.type_expr(env, e.value)
        bindable(env, vt, t, self.diags, e.line, e.col, "assignment")
        return ast.VOID

    def _fork(self, env: TypeEnv, e: ast.Fork) -> ast.TypeExpr:
        if not env.fork_ok:
            self.diags.add("E-FORK-IN-ATOMIC",
                           "fork is only allowed at top level",
                           e.line, e.col)
        body_env = env.child(frame=TOP_TOP, fork_ok=True)
        self.type_expr(body_env, e.body)
        return ast.VOID

    def _valid(self, env: TypeEnv, e: ast.Valid) -> ast.TypeExpr:
        t = self.type_expr(env, e.value)
        if not isinstance(t, (ast.ClassType, ast.NullType, ast.ErrorType)):
            self.diags.add("E-TYPE", "valid needs an object", e.line, e.col)
        return ast.BOOL

    def _require(self, env: TypeEnv, e: ast.Require) -> ast.TypeExpr:
        t = self.type_expr(env, e.cond)
        if not isinstance(t, (ast.BoolType, ast.ErrorType)):
            self.diags.add("E-TYPE", "require needs a bool condition",
                           e.line, e.col)
        return ast.BOOL

    def _emit(self, env: TypeEnv, e: ast.EmitEvent) -> ast.TypeExpr:
        for a in e.args:
            self.type_expr(env, a)
        return ast.VOID

    def _bind_let(self, env: TypeEnv, e: ast.Let
                  ) -> tuple[str, Optional[ast.TypeExpr]]:
        """Binds e's name in env.vars; returns the name and the binding it
        hides (None if none), for TypeEnv.unbind."""
        it = self.type_expr(env, e.init)
        hidden = env.vars.get(e.name)
        if e.name in env.vars:
            self.diags.add("E-TYPE", f"variable {e.name} is already declared",
                           e.line, e.col)
        if e.type is None:
            declared = it  # compiler temporary: inferred, no binding check
        else:
            check_type(env, e.type, self.diags)
            bindable(env, it, e.type, self.diags, e.line, e.col, "declaration")
            declared = e.type
        env.vars[e.name] = declared
        return e.name, hidden

    def _member(self, env: TypeEnv, e: ast.FieldGet | ast.FieldSet | ast.Call,
                rt: ast.TypeExpr) -> Optional[Member]:
        """The member e names on a receiver of type rt, or None after a
        fault. A null receiver, a non-object receiver and a missing member
        are reported here, once; an error-typed or ill-formed receiver type
        (ClassTable.of_type) and an ill-formed `extends` were reported
        where they arose."""
        if not isinstance(rt, ast.ClassType):
            if isinstance(rt, ast.NullType):
                self.diags.add("E-TYPE", f"{_ON_NULL[type(e)]} on null",
                               e.line, e.col)
            elif not isinstance(rt, ast.ErrorType):
                self.diags.add("E-TYPE", f"{rt} is not an object type",
                               e.line, e.col)
            return None
        table = env.table
        if table.of_type(rt) is None:
            return None
        if isinstance(e, ast.Call):
            kind, name = "method", e.method
            hit = table.find_method(rt.name, name)
        else:
            kind, name = "field", e.field_name
            hit = table.find_field(rt.name, name)
        if hit is None:
            self.diags.add("E-TYPE", f"{rt.name} has no {kind} {name}",
                           e.line, e.col)
            return None
        cls, decl = hit
        args = table.args_at(rt.name, rt.args, EXIST, cls)
        if len(args) != len(cls.ctx_params):
            return None  # the walk stopped at an ill-formed `extends`
        return cls, decl, args

    def _field_get(self, env: TypeEnv, e: ast.FieldGet) -> ast.TypeExpr:
        return self._field_get_on(env, e, self.type_expr(env, e.receiver))

    def _field_get_on(self, env: TypeEnv, e: ast.FieldGet,
                      rt: ast.TypeExpr) -> ast.TypeExpr:
        """A field read whose receiver has been typed as rt."""
        hit = self._member(env, e, rt)
        if hit is None:
            return ast.ERROR_T
        cls, f, args = hit
        return substitute(f.type, cls.ctx_params, args,
                          THIS if isinstance(e.receiver, ast.This) else EXIST)

    def _field_set(self, env: TypeEnv, e: ast.FieldSet) -> ast.TypeExpr:
        rt = self.type_expr(env, e.receiver)
        return self._field_set_on(env, e, rt, self._member(env, e, rt))

    def _field_set_on(self, env: TypeEnv, e: ast.FieldSet, rt: ast.TypeExpr,
                      hit: Optional[Member]) -> ast.TypeExpr:
        """A field write whose receiver has been typed as rt and whose
        field has been looked up as hit."""
        if hit is None:
            self.type_expr(env, e.value)
            return ast.ERROR_T
        cls, f, args = hit
        # effect rule: the written object must lie inside the frame's
        # invalidity set
        target_ctx = self._target_owner_ctx(e.receiver, rt)
        if not env.ctx.inside(target_ctx, env.frame.invalidity):
            self.diags.add(
                "E-EFFECT",
                f"write to {f.name} modifies {target_ctx}, outside the "
                f"frame invalidity {env.frame.invalidity}", e.line, e.col)
        if f.final and env.frame != CTOR_CONTRACT:
            self.diags.add("E-TYPE", f"field {f.name} is final",
                           e.line, e.col)
        ft = substitute(f.type, cls.ctx_params, args,
                        THIS if isinstance(e.receiver, ast.This) else EXIST)
        vt = self.type_expr(env, e.value)
        bindable(env, vt, ft, self.diags, e.line, e.col, "field write")
        return ast.VOID

    def _target_owner_ctx(self, receiver: ast.Expr, rt: ast.ClassType) -> Context:
        """The context the receiver object is known to live in, which is the
        image of this in its members' contracts: this itself through this,
        otherwise the receiver type's owner."""
        return THIS if isinstance(receiver, ast.This) else owner_bound(rt)

    def _call(self, env: TypeEnv, e: ast.Call) -> ast.TypeExpr:
        rt = self.type_expr(env, e.receiver)
        return self._call_on(env, e, rt, self._member(env, e, rt))

    def _call_on(self, env: TypeEnv, e: ast.Call, rt: ast.TypeExpr,
                 hit: Optional[Member]) -> ast.TypeExpr:
        """A call whose receiver has been typed as rt and whose method has
        been looked up as hit."""
        if hit is None:
            for a in e.args:
                self.type_expr(env, a)
            return ast.ERROR_T
        cls, m, args = hit
        through_this = isinstance(e.receiver, ast.This)
        owner = self._target_owner_ctx(e.receiver, rt)
        d = substitute(m.contract, cls.ctx_params, args, owner)
        if not subcontract(env.ctx, d, env.frame):
            self.diags.add(
                "E-SUBCONTRACT",
                f"call {e.method} has contract {d}, not a subcontract of the "
                f"frame {env.frame}", e.line, e.col)
        # mutating calls must originate from the owner
        if not (isinstance(d.invalidity, CtxBot) or through_this
                or env.ctx.inside(owner, env.origin_ctx())):
            self.diags.add(
                "E-OWNER-CALL",
                f"mutating call {e.method} on a receiver owned by "
                f"{owner} does not originate from its owner", e.line, e.col)
        sig_image = THIS if through_this else EXIST
        self._bind_args(env, e, e.method, m.params, cls, args, sig_image)
        return substitute(m.return_type, cls.ctx_params, args, sig_image)

    def _bind_args(self, env: TypeEnv, e: ast.Call | ast.New, what: str,
                   params: list[ast.Param], cls: ast.ClassDecl,
                   args: list[Context], this_image: Context) -> None:
        """Types e's arguments and binds each at its parameter's type, seen
        through cls<args> with this_image for this."""
        if len(e.args) != len(params):
            self.diags.add("E-TYPE", f"{what} expects {len(params)} arguments",
                           e.line, e.col)
        for a, p in zip(e.args, params):
            at = self.type_expr(env, a)
            pt = substitute(p.type, cls.ctx_params, args, this_image)
            bindable(env, at, pt, self.diags, a.line, a.col,
                     f"argument {p.name}")

    def _new(self, env: TypeEnv, e: ast.New) -> ast.TypeExpr:
        t = e.type
        check_type(env, t, self.diags)
        decl = env.table.of_type(t)
        if decl is None:
            for a in e.args:
                self.type_expr(env, a)
            return t
        if isinstance(t.args[0], (CtxBot, CtxAny)):
            self.diags.add("E-CTX-WF",
                           f"cannot create an object owned by {t.args[0]}",
                           e.line, e.col)
        ctor = env.table.ctor_of(t.name)
        self._bind_args(env, e, f"{t.name} constructor",
                        ctor.params if ctor is not None else [], decl, t.args,
                        EXIST)
        return t

    def _prim(self, env: TypeEnv, e: ast.PrimOp) -> ast.TypeExpr:
        # an error-typed operand's fault is already reported: it meets every
        # operator's requirement, and the other operands are still checked
        ts = [self.type_expr(env, a) for a in e.args]
        want, result, wording = _OPERATORS[e.op, len(ts)]
        if want is None:  # == and !=: two operands of one kind
            a, b = ts
            ok = (isinstance(a, ast.ErrorType) or isinstance(b, ast.ErrorType)
                  or (type(a) is type(b)
                      and isinstance(a, (ast.IntType, ast.BoolType)))
                  or (isinstance(a, (ast.ClassType, ast.NullType))
                      and isinstance(b, (ast.ClassType, ast.NullType))))
        else:
            ok = all(isinstance(t, (want, ast.ErrorType)) for t in ts)
        if not ok:
            self.diags.add("E-TYPE", f"operator {e.op} {wording}",
                           e.line, e.col)
        return result

    def _atomic(self, env: TypeEnv, e: ast.Atomic) -> ast.TypeExpr:
        body = e.body
        if e.contract is not None:
            if not contract_wf(env.ctx, e.contract):
                self.diags.add("E-CTX-WF",
                               f"contract {e.contract} is not well formed here",
                               e.line, e.col)
            return self.type_expr(self._atomic_env(env, e, e.contract), body)
        if not isinstance(body, (ast.Call, ast.FieldSet)):
            self.diags.add("E-NEED-CONTRACT", "atomic needs an explicit "
                           "contract for a compound body", e.line, e.col)
            self.type_expr(env.child(fork_ok=False), body)
            return ast.ERROR_T
        # a bare call or field write: the receiver is evaluated before the
        # transaction begins, so it is typed once, in the enclosing frame,
        # and the contract is deduced from the member it names
        e.deduced = True
        rt = self.type_expr(env, body.receiver)
        hit = self._member(env, body, rt)
        rule = (self._call_on if isinstance(body, ast.Call)
                else self._field_set_on)
        if hit is None:
            return rule(env.child(fork_ok=False), body, rt, None)
        owner = self._target_owner_ctx(body.receiver, rt)
        if isinstance(body, ast.Call):
            cls, m, args = hit
            d = substitute(m.contract, cls.ctx_params, args, owner)
        else:  # a field write: <bot, owner of the written object>
            d = Contract(BOT, owner, line=body.line, col=body.col)
        return rule(self._atomic_env(env, e, d), body, rt, hit)

    def _atomic_env(self, env: TypeEnv, e: ast.Atomic,
                    d: Contract) -> TypeEnv:
        """The environment of an atomic body with contract d, after checking
        d against the enclosing frame."""
        if not subcontract(env.ctx, d, env.frame):
            self.diags.add("E-SUBCONTRACT",
                           f"atomic contract {d} is not a subcontract of the "
                           f"frame {env.frame}", e.line, e.col)
        return env.child(frame=d, fork_ok=False)


# What a member use on a null receiver is called in its diagnostic.
_ON_NULL = {ast.FieldGet: "field access", ast.FieldSet: "field write",
            ast.Call: "call"}

# Operator typing: (operator, arity) -> (operand type, result type, what the
# diagnostic says of the operands). == and != have no operand type: they take
# two operands of one kind.
_OPERATORS = {
    ("!", 1): (ast.BoolType, ast.BOOL, "needs bool"),
    ("-", 1): (ast.IntType, ast.INT, "needs int"),
    **{(op, 2): (ast.IntType, ast.INT, "needs int operands")
       for op in ("+", "-", "*", "/", "%")},
    **{(op, 2): (ast.IntType, ast.BOOL, "needs int operands")
       for op in ("<", "<=", ">", ">=")},
    **{(op, 2): (ast.BoolType, ast.BOOL, "needs bool operands")
       for op in ("&&", "||")},
    **{(op, 2): (None, ast.BOOL, "on mismatched operands")
       for op in ("==", "!=")},
}


# The typing rules, built once: node class -> rule. Surface-only nodes
# (Block, Return, Throw, OpAssign) have none: desugaring removes them.
_TYPE_RULES = {
    ast.Const: Checker._const,
    ast.Var: Checker._var,
    ast.This: Checker._this,
    ast.Seq: Checker._seq,
    ast.Let: Checker._let,
    ast.Assign: Checker._assign,
    ast.FieldGet: Checker._field_get,
    ast.FieldSet: Checker._field_set,
    ast.Call: Checker._call,
    ast.New: Checker._new,
    ast.PrimOp: Checker._prim,
    ast.Atomic: Checker._atomic,
    ast.Fork: Checker._fork,
    ast.Valid: Checker._valid,
    ast.Require: Checker._require,
    ast.EmitEvent: Checker._emit,
}


# ---------------------------------------------------------------------------
# Declaration-level checks

def _params_env(base: TypeEnv, params: list[ast.Param],
                diags: Diagnostics) -> TypeEnv:
    env = base.child(vars=dict(base.vars))
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
        for sub in ast.children(x):
            pure(sub)

    def owned_path(x: ast.Expr) -> Optional[ast.TypeExpr]:
        """Field reads may only step through chains of this-owned fields.
        Returns the type of x when x is a field read, so that each prefix
        of a path is typed once, from its receiver's type. The clause typed
        without a diagnostic, so that typing is silent."""
        if isinstance(x, ast.FieldGet):
            recv = x.receiver
            if isinstance(recv, ast.FieldGet):
                rt = owned_path(recv)
                # a receiver of the error type or an ill-formed class type
                # was reported where that type arose
                if (isinstance(rt, ast.ClassType)
                        and checker.table.of_type(rt) is not None
                        and owner_bound(rt) != THIS):
                    diags.add("E-INV-ESCAPE",
                              f"invariant reads {x.field_name} through a "
                              f"field not owned by this", x.line, x.col)
                return checker._field_get_on(env, x, rt)
            if not isinstance(recv, ast.This):
                diags.add("E-INV-ESCAPE",
                          "invariant field paths must start at this",
                          x.line, x.col)
            return checker.type_expr(env, x)
        for sub in ast.children(x):
            owned_path(sub)
        return None

    before = len(diags)
    pure(e)
    if len(diags) != before:
        return
    t = checker.type_expr(env, e)
    if len(diags) == before:
        owned_path(e)
    if not isinstance(t, (ast.BoolType, ast.ErrorType)):
        diags.add("E-TYPE", "invariant clause must be boolean", e.line, e.col)


def check_method(checker: Checker, base: TypeEnv, cls: ast.ClassDecl,
                 m: ast.MethodDecl) -> None:
    diags = checker.diags
    if not contract_wf(base.ctx, m.contract):
        diags.add("E-CTX-WF", f"contract {m.contract} of {m.name} is not "
                  f"well formed", m.line, m.col)
    # overriding methods must declare the identical contract
    hit = cls.superclass and checker.table.find_method(cls.superclass.name,
                                                       m.name)
    if hit:
        sm = hit[1]
        if sm.contract != m.contract:
            diags.add("E-SUBCONTRACT",
                      f"override {m.name} must declare the inherited "
                      f"contract {sm.contract}", m.line, m.col)
        if len(sm.params) != len(m.params):
            diags.add("E-TYPE",
                      f"override {m.name} changes the parameter count",
                      m.line, m.col)
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
    """Check a core program; marks each bare atomic call or field write as
    deduced."""
    table = ClassTable(p)
    checker = Checker(table)
    for c in p.classes:
        if table.get(c.name) is c:
            check_class(checker, c)
        else:  # checked against the first declaration, so not at all
            checker.diags.add("E-TYPE", f"duplicate class {c.name}",
                              c.line, c.col)
    if p.main is not None:
        env = TypeEnv(table, ContextEnv.for_main(), None, TOP_TOP,
                      fork_ok=True)
        checker.type_expr(env, p.main)
    return checker.diags
