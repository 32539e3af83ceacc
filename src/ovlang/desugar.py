"""Lowering of surface programs to core form.

Core form guarantees:
  * bare identifiers are resolved (field references become this.f);
  * blocks/returns/throws/compound assignments are gone (Seq/Let chains,
    require(false), expanded operator assignments reading the receiver once);
  * already-core expressions come back unchanged.
"""
from __future__ import annotations

from . import ast
from .typecheck import ClassTable


class _Scope:
    """Names visible to identifier resolution while lowering one body. The
    names bound by parameters and enclosing lets are counted, so a
    shadowing declaration and its end are one increment and one decrement:
    one scope serves the whole body, and a chain of lets copies nothing."""

    def __init__(self, fields: set[str], params: list[str]):
        self.fields = fields
        self.bound: dict[str, int] = {}
        for name in params:
            self.bind(name)

    def bind(self, name: str) -> None:
        self.bound[name] = self.bound.get(name, 0) + 1

    def unbind(self, names: list[str]) -> None:
        bound = self.bound
        for name in names:
            left = bound[name] - 1
            if left:
                bound[name] = left
            else:
                del bound[name]

    def is_field(self, name: str) -> bool:
        """A bare name that no local declaration shadows names a field."""
        return name not in self.bound and name in self.fields


class _Lowerer:
    def __init__(self, scope: _Scope, body: ast.Expr, params: list[str]):
        self.scope = scope
        self.body = body
        self.params = params
        self.used: set[str] | None = None  # collected on the first fresh()
        self.counter = 0

    def fresh(self) -> str:
        if self.used is None:
            self.used = set(self.params)
            _collect_names(self.body, self.used)
        while True:
            name = f"__t{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return name

    # -- statement chains ---------------------------------------------------
    # Both walk the chain in a loop, so a block's length costs no recursion;
    # each let is in scope from the next statement to the end of the chain.
    def block(self, stmts: list[ast.Expr]) -> ast.Expr:
        lowered: list[ast.Expr] = []
        names: list[str] = []
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                # the parser only lets return appear in tail position
                lowered.append(self.expr(stmt.value))
                break
            if isinstance(stmt, ast.Let):
                lowered.append(self._let(stmt))
                self.scope.bind(stmt.name)
                names.append(stmt.name)
            else:
                low = self.expr(stmt)
                if isinstance(low, ast.Let):
                    # a nested block of one let: a bare Let would scope
                    # over the rest of this chain, so the block gets a tail
                    low = ast.Seq(low, ast.Const(None, line=low.line,
                                                 col=low.col),
                                  line=low.line, col=low.col)
                lowered.append(low)
        self.scope.unbind(names)
        if not lowered:
            return ast.Const(None)
        tail = lowered[-1]
        for head in reversed(lowered[:-1]):
            tail = ast.Seq(head, tail, line=head.line, col=head.col)
        return tail

    def _seq(self, e: ast.Seq) -> ast.Expr:
        links: list[tuple[ast.Seq, ast.Expr]] = []
        names: list[str] = []
        while isinstance(e, ast.Seq):
            first = e.first
            if isinstance(first, ast.Let):
                links.append((e, self._let(first)))
                self.scope.bind(first.name)
                names.append(first.name)
            else:
                links.append((e, self.expr(first)))
            e = e.second
        tail = self.expr(e)
        self.scope.unbind(names)
        for node, head in reversed(links):
            tail = ast.Seq(head, tail, line=node.line, col=node.col)
        return tail

    # -- expressions ----------------------------------------------------------
    def hoist(self, e: ast.Expr, build) -> ast.Expr:
        """Ensure e is a value; wraps build(value) in a Let when it is not."""
        if ast.is_value(e):
            return build(e)
        tmp = self.fresh()
        var = ast.Var(tmp, line=e.line, col=e.col)
        return ast.Seq(ast.Let(tmp, None, e, line=e.line, col=e.col),
                       build(var), line=e.line, col=e.col)

    def expr(self, e: ast.Expr) -> ast.Expr:
        rule = _LOWER_RULES.get(type(e))
        if rule is None:
            raise AssertionError(f"unhandled expression {type(e).__name__}")
        return rule(self, e)

    def _args(self, args: list[ast.Expr]) -> list[ast.Expr]:
        return [self.expr(a) for a in args]

    # -- one rule per node class: (lowerer, node) -> core node ----------------
    def _same(self, e: ast.Expr) -> ast.Expr:
        return e

    def _var(self, e: ast.Var) -> ast.Expr:
        if self.scope.is_field(e.name):
            return ast.FieldGet(ast.This(line=e.line, col=e.col), e.name,
                                line=e.line, col=e.col)
        return e

    def _block(self, e: ast.Block) -> ast.Expr:
        return self.block(e.stmts)

    def _return(self, e: ast.Return) -> ast.Expr:
        return self.expr(e.value)

    def _throw(self, e: ast.Throw) -> ast.Expr:
        return ast.Require(ast.Const(False), line=e.line, col=e.col)

    def _assign(self, e: ast.Assign) -> ast.Expr:
        value = self.expr(e.value)
        if self.scope.is_field(e.name):
            return ast.FieldSet(ast.This(line=e.line, col=e.col), e.name,
                                value, line=e.line, col=e.col)
        return ast.Assign(e.name, value, line=e.line, col=e.col)

    def _field_get(self, e: ast.FieldGet) -> ast.Expr:
        return ast.FieldGet(self.expr(e.receiver), e.field_name,
                            line=e.line, col=e.col)

    def _field_set(self, e: ast.FieldSet) -> ast.Expr:
        return ast.FieldSet(self.expr(e.receiver), e.field_name,
                            self.expr(e.value), line=e.line, col=e.col)

    def _call(self, e: ast.Call) -> ast.Expr:
        return ast.Call(self.expr(e.receiver), e.method, self._args(e.args),
                        line=e.line, col=e.col)

    def _new(self, e: ast.New) -> ast.Expr:
        return ast.New(e.type, self._args(e.args), line=e.line, col=e.col)

    def _prim(self, e: ast.PrimOp) -> ast.Expr:
        return ast.PrimOp(e.op, self._args(e.args), line=e.line, col=e.col)

    def _let(self, e: ast.Let) -> ast.Let:
        # binds nothing: a chain binds the name over the rest of the chain
        return ast.Let(e.name, e.type, self.expr(e.init),
                       line=e.line, col=e.col)

    def _atomic(self, e: ast.Atomic) -> ast.Expr:
        return ast.Atomic(e.contract, self.expr(e.body),
                          line=e.line, col=e.col)

    def _fork(self, e: ast.Fork) -> ast.Expr:
        return ast.Fork(self.expr(e.body), line=e.line, col=e.col)

    def _valid(self, e: ast.Valid) -> ast.Expr:
        return ast.Valid(self.expr(e.value), line=e.line, col=e.col)

    def _require(self, e: ast.Require) -> ast.Expr:
        return ast.Require(self.expr(e.cond), line=e.line, col=e.col)

    def _emit(self, e: ast.EmitEvent) -> ast.Expr:
        return ast.EmitEvent(e.name, self._args(e.args),
                             line=e.line, col=e.col)

    def _op_assign(self, e: ast.OpAssign) -> ast.Expr:
        value = self.expr(e.value)
        target = e.target
        if isinstance(target, ast.Var):
            if self.scope.is_field(target.name):
                this = ast.This(line=target.line, col=target.col)
                read = ast.FieldGet(this, target.name, line=e.line, col=e.col)
                combined = ast.PrimOp(e.op, [read, value], line=e.line, col=e.col)
                return ast.FieldSet(this, target.name, combined,
                                    line=e.line, col=e.col)
            read = ast.Var(target.name, line=e.line, col=e.col)
            combined = ast.PrimOp(e.op, [read, value], line=e.line, col=e.col)
            return ast.Assign(target.name, combined, line=e.line, col=e.col)
        assert isinstance(target, ast.FieldGet)
        recv = self.expr(target.receiver)

        def build(v: ast.Expr) -> ast.Expr:
            read = ast.FieldGet(v, target.field_name, line=e.line, col=e.col)
            combined = ast.PrimOp(e.op, [read, value], line=e.line, col=e.col)
            return ast.FieldSet(v, target.field_name, combined,
                                line=e.line, col=e.col)

        return self.hoist(recv, build)


# The lowering rules, built once: node class -> rule.
_LOWER_RULES = {
    ast.Const: _Lowerer._same,
    ast.This: _Lowerer._same,
    ast.Var: _Lowerer._var,
    ast.Block: _Lowerer._block,
    ast.Return: _Lowerer._return,
    ast.Throw: _Lowerer._throw,
    ast.OpAssign: _Lowerer._op_assign,
    ast.Assign: _Lowerer._assign,
    ast.FieldGet: _Lowerer._field_get,
    ast.FieldSet: _Lowerer._field_set,
    ast.Call: _Lowerer._call,
    ast.New: _Lowerer._new,
    ast.PrimOp: _Lowerer._prim,
    ast.Seq: _Lowerer._seq,
    ast.Let: _Lowerer._let,
    ast.Atomic: _Lowerer._atomic,
    ast.Fork: _Lowerer._fork,
    ast.Valid: _Lowerer._valid,
    ast.Require: _Lowerer._require,
    ast.EmitEvent: _Lowerer._emit,
}


def _collect_names(e: ast.Expr, acc: set[str]) -> None:
    """Every name a Var reads or a Let declares anywhere in e, so that
    fresh temporaries avoid them."""
    stack = [e]
    while stack:
        x = stack.pop()
        if type(x) is ast.Var or type(x) is ast.Let:
            acc.add(x.name)
        stack.extend(ast.children(x))


def _lower_body(body: ast.Expr, fields: set[str], params: list[str]) -> ast.Expr:
    return _Lowerer(_Scope(fields, params), body, params).expr(body)


def desugar(p: ast.Program) -> ast.Program:
    """Lower a parsed program to core form. Idempotent on core programs."""
    classes: list[ast.ClassDecl] = []
    table = ClassTable(p)
    for cls in p.classes:
        fields = set(table.info(cls.name).field_names)
        new_fields = [
            ast.FieldDecl(f.type, f.name,
                          _lower_body(f.init, fields, []) if f.init is not None else None,
                          f.final, line=f.line, col=f.col)
            for f in cls.fields
        ]
        new_invs = [_lower_body(inv, fields, []) for inv in cls.invariants]
        new_ctors = [
            ast.CtorDecl(c.params,
                         _lower_body(c.body, fields, [pm.name for pm in c.params]),
                         line=c.line, col=c.col)
            for c in cls.ctors
        ]
        new_methods = [
            ast.MethodDecl(m.name, m.return_type, m.params, m.contract,
                           _lower_body(m.body, fields, [pm.name for pm in m.params]),
                           line=m.line, col=m.col)
            for m in cls.methods
        ]
        classes.append(ast.ClassDecl(
            cls.name, cls.ctx_params, cls.superclass, cls.constraints,
            new_invs, new_fields, new_ctors, new_methods,
            line=cls.line, col=cls.col))
    main = _lower_body(p.main, set(), []) if p.main is not None else None
    return ast.Program(classes, main, line=p.line, col=p.col)
