"""Recursive-descent parser for the OV dialect; binary operators are parsed
by precedence climbing over ast.BINARY_PREC.

parse_program normalizes surface contracts as it goes: an invalidity written
as `top` means "pre-check only" and is rewritten to `bot` with a
W-TOP-INVALIDITY warning.
"""
from __future__ import annotations

from . import ast
from .diagnostics import Diagnostics, OvError
from .lexer import Token, num_value, tokenize

BASE_TYPES = {"int", "uint", "uint256", "bool", "void"}
CTX_TOKENS = {"this", "top", "bot", "*"}


class ParseFail(Exception):
    def __init__(self, msg: str, tok: Token):
        super().__init__(msg)
        self.msg = msg
        self.tok = tok


class Parser:
    def __init__(self, toks: list[Token], diags: Diagnostics):
        self.toks = toks
        self.i = 0
        self.diags = diags

    # -- token plumbing -----------------------------------------------------
    # `next` never moves past the final eof token, so the current token is
    # always toks[i]; only a look-ahead needs clamping.
    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.toks[min(self.i + ahead, len(self.toks) - 1)]
        return self.toks[self.i]

    def at(self, kind: str, ahead: int = 0) -> bool:
        if ahead:
            return self.peek(ahead).kind == kind
        return self.toks[self.i].kind == kind

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        if self.at(kind):
            return self.next()
        t = self.peek()
        want = what or f"'{kind}'"
        raise ParseFail(f"expected {want}, found {t.text or 'end of input'!r}", t)

    # -- program ------------------------------------------------------------
    def program(self) -> ast.Program:
        first = self.peek()
        classes: list[ast.ClassDecl] = []
        main: ast.Expr | None = None
        while not self.at("eof"):
            if self.at("class"):
                classes.append(self.class_decl())
            elif self.at("main"):
                if main is not None:
                    raise ParseFail("duplicate main block", self.peek())
                self.next()
                main = self.block()
            else:
                raise ParseFail("expected a class declaration or main block", self.peek())
        return ast.Program(classes, main, line=first.line, col=first.col)

    def class_decl(self) -> ast.ClassDecl:
        kw = self.expect("class")
        name = self.expect("id", "class name").text
        self.expect("[")
        params = [self.expect("id", "context parameter").text]
        while self.accept(","):
            params.append(self.expect("id", "context parameter").text)
        self.expect("]")
        superclass = None
        if self.accept("extends"):
            t = self.type_expr()
            if not isinstance(t, ast.ClassType):
                raise ParseFail("superclass must be a class type", self.peek())
            superclass = t
        constraints: list[ast.Constraint] = []
        if self.accept("where"):
            constraints.append(self.constraint())
            while self.accept(","):
                constraints.append(self.constraint())
        self.expect("{")
        decl = ast.ClassDecl(name, params, superclass, constraints,
                             line=kw.line, col=kw.col)
        while not self.accept("}"):
            self.member(decl)
        return decl

    def constraint(self) -> ast.Constraint:
        lhs = self.context()
        tok = self.peek()
        if self.accept("<<"):
            strict = True
        elif self.accept("<="):
            strict = False
        else:
            raise ParseFail("expected '<<' or '<=' in where clause", tok)
        rhs = self.context()
        return ast.Constraint(lhs, strict, rhs, line=tok.line, col=tok.col)

    def member(self, decl: ast.ClassDecl) -> None:
        tok = self.peek()
        if self.accept("inv"):
            e = self.assign()
            self.expect(";")
            decl.invariants.append(e)
            return
        # visibility keywords are accepted and discarded
        while self.at("public") or self.at("private"):
            self.next()
        is_final = bool(self.accept("final"))
        if (not is_final and self.at("id") and self.peek().text == decl.name
                and self.at("(", 1)):
            self.next()
            params = self.param_list()
            body = self.block()
            decl.ctors.append(ast.CtorDecl(params, body, line=tok.line, col=tok.col))
            return
        ty = self.type_expr()
        name = self.expect("id", "member name").text
        if self.at("("):
            if is_final:
                raise ParseFail("methods cannot be final", tok)
            params = self.param_list()
            contract = self.contract()
            body = self.block()
            decl.methods.append(ast.MethodDecl(name, ty, params, contract, body,
                                               line=tok.line, col=tok.col))
        else:
            init = None
            if self.accept("="):
                init = self.assign()
            self.expect(";")
            decl.fields.append(ast.FieldDecl(ty, name, init, is_final,
                                             line=tok.line, col=tok.col))

    def param_list(self) -> list[ast.Param]:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                tok = self.peek()
                ty = self.type_expr()
                name = self.expect("id", "parameter name").text
                params.append(ast.Param(ty, name, line=tok.line, col=tok.col))
                if not self.accept(","):
                    break
        self.expect(")")
        return params

    # -- types / contexts / contracts ----------------------------------------
    def type_expr(self) -> ast.TypeExpr:
        tok = self.peek()
        if tok.kind in ("int", "uint", "uint256"):
            self.next()
            return ast.IntType(tok.kind, line=tok.line, col=tok.col)
        if self.accept("bool"):
            return ast.BoolType(line=tok.line, col=tok.col)
        if self.accept("void"):
            return ast.VoidType(line=tok.line, col=tok.col)
        name = self.expect("id", "type name").text
        args: list[ast.Context] = []
        if self.at("<"):
            mark = self.i
            try:
                self.next()
                args.append(self.context())
                while self.accept(","):
                    args.append(self.context())
                self.expect(">")
            except ParseFail:
                # `x < y` in an expression position, not a generic type
                self.i = mark
                args = []
        return ast.ClassType(name, args, line=tok.line, col=tok.col)

    def context(self) -> ast.Context:
        tok = self.peek()
        if self.accept("this"):
            return ast.CtxThis(line=tok.line, col=tok.col)
        if self.accept("top"):
            return ast.CtxTop(line=tok.line, col=tok.col)
        if self.accept("bot"):
            return ast.CtxBot(line=tok.line, col=tok.col)
        if self.accept("*"):
            return ast.CtxAny(line=tok.line, col=tok.col)
        if self.at("id"):
            t = self.next()
            return ast.CtxParam(t.text, line=t.line, col=t.col)
        raise ParseFail("expected a context", tok)

    def contract(self) -> ast.Contract:
        start = self.expect("<", "a contract")
        v = self.context()
        self.expect(",")
        i = self.context()
        self.expect(">")
        for k, pos in ((v, "validity"), (i, "invalidity")):
            if isinstance(k, ast.CtxAny):
                raise ParseFail(f"'*' cannot appear in a contract's {pos} position", start)
        if isinstance(i, ast.CtxTop):
            self.diags.add("W-TOP-INVALIDITY",
                           "invalidity `top` means pre-check only; normalized to `bot`",
                           start.line, start.col)
            i = ast.CtxBot(line=i.line, col=i.col)
        return ast.Contract(v, i, line=start.line, col=start.col)

    # -- statements -----------------------------------------------------------
    def block(self) -> ast.Block:
        start = self.expect("{")
        stmts: list[ast.Expr] = []
        while not self.at("}"):
            stmts.append(self.stmt())
            if isinstance(stmts[-1], ast.Return) and not self.at("}"):
                raise ParseFail("return must be the last statement of a block",
                                self.peek())
        self.expect("}")
        return ast.Block(stmts, line=start.line, col=start.col)

    def stmt(self) -> ast.Expr:
        tok = self.peek()
        if self.accept("return"):
            e = self.assign()
            self.expect(";")
            return ast.Return(e, line=tok.line, col=tok.col)
        if self.accept("throw"):
            self.expect(";")
            return ast.Throw(line=tok.line, col=tok.col)
        if self.accept("var"):
            name = self.expect("id", "variable name").text
            self.expect("=")
            init = self.assign()
            self.expect(";")
            return ast.Let(name, None, init, line=tok.line, col=tok.col)
        decl = self.try_local_decl()
        if decl is not None:
            return decl
        e = self.assign()
        # an atomic-with-block statement needs no trailing semicolon
        if not (isinstance(e, ast.Atomic) and isinstance(e.body, ast.Block)
                and not self.at(";")):
            self.expect(";")
        else:
            self.accept(";")
        return e

    def try_local_decl(self) -> ast.Let | None:
        if self.peek().kind not in BASE_TYPES and not self.at("id"):
            return None
        mark = self.i
        try:
            tok = self.peek()
            ty = self.type_expr()
            name = self.expect("id").text
            if self.accept("="):
                init = self.assign()
            else:
                init = default_init(ty)
            self.expect(";")
            return ast.Let(name, ty, init, line=tok.line, col=tok.col)
        except ParseFail:
            self.i = mark
            return None

    # -- expressions ----------------------------------------------------------
    def assign(self) -> ast.Expr:
        lhs = self.binary()
        tok = self.peek()
        if tok.kind == "=":
            self.next()
            value = self.assign()
            if isinstance(lhs, ast.Var):
                return ast.Assign(lhs.name, value, line=tok.line, col=tok.col)
            if isinstance(lhs, ast.FieldGet):
                return ast.FieldSet(lhs.receiver, lhs.field_name, value,
                                    line=tok.line, col=tok.col)
            raise ParseFail("assignment target must be a variable or field", tok)
        if tok.kind in ("+=", "-=", "*=", "/=", "%="):
            self.next()
            value = self.assign()
            if not isinstance(lhs, (ast.Var, ast.FieldGet)):
                raise ParseFail("assignment target must be a variable or field", tok)
            return ast.OpAssign(lhs, tok.kind[0], value, line=tok.line, col=tok.col)
        return lhs

    def binary(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing over ast.BINARY_PREC: parse operators that bind
        at least as tightly as min_prec; every level is left-associative."""
        e = self.unary()
        while True:
            tok = self.peek()
            prec = ast.BINARY_PREC.get(tok.kind, 0)
            if prec < min_prec:
                return e
            self.next()
            e = ast.PrimOp(tok.kind, [e, self.binary(prec + 1)],
                           line=tok.line, col=tok.col)

    def unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind in ("!", "-"):
            self.next()
            return ast.PrimOp(tok.kind, [self.unary()], line=tok.line,
                              col=tok.col)
        return self.postfix()

    def postfix(self) -> ast.Expr:
        # the primary expression's rule is called from here, not through a
        # `primary` method, so each nesting level costs no extra frame
        tok = self.peek()
        rule = _PRIMARY.get(tok.kind)
        if rule is None:
            raise ParseFail(f"unexpected {tok.text or 'end of input'!r} in expression", tok)
        e = rule(self, tok)
        while self.at("."):
            self.next()
            name = self.expect("id", "member name").text
            if self.at("("):
                args = self.arg_list()
                e = ast.Call(e, name, args, line=e.line, col=e.col)
            else:
                e = ast.FieldGet(e, name, line=e.line, col=e.col)
        return e

    def arg_list(self) -> list[ast.Expr]:
        self.expect("(")
        args: list[ast.Expr] = []
        if not self.at(")"):
            args.append(self.assign())
            while self.accept(","):
                args.append(self.assign())
        self.expect(")")
        return args

    # -- primary expressions: one rule per leading token kind, in _PRIMARY ----
    def _num(self, tok: Token) -> ast.Expr:
        self.next()
        lex = tok.text if ("e" in tok.text or "E" in tok.text) else None
        return ast.Const(num_value(tok.text), lex, line=tok.line, col=tok.col)

    def _literal(self, tok: Token) -> ast.Expr:
        self.next()
        return ast.Const(_LITERALS[tok.kind], line=tok.line, col=tok.col)

    def _this(self, tok: Token) -> ast.Expr:
        self.next()
        return ast.This(line=tok.line, col=tok.col)

    def _paren(self, tok: Token) -> ast.Expr:
        self.next()
        e = self.assign()
        self.expect(")")
        return e

    def _block_expr(self, tok: Token) -> ast.Expr:
        # block expression: value is the last statement's value
        return self.block()

    def _new(self, tok: Token) -> ast.Expr:
        self.next()
        name = self.expect("id", "class name").text
        args: list[ast.Context] = []
        if self.accept("<"):
            args.append(self.context())
            while self.accept(","):
                args.append(self.context())
            self.expect(">")
        ty = ast.ClassType(name, args, line=tok.line, col=tok.col)
        call_args = self.arg_list()
        return ast.New(ty, call_args, line=tok.line, col=tok.col)

    def _atomic(self, tok: Token) -> ast.Expr:
        self.next()
        contract = None
        if self.at("<"):
            contract = self.contract()
        body = self.block() if self.at("{") else self.assign()
        return ast.Atomic(contract, body, line=tok.line, col=tok.col)

    def _fork(self, tok: Token) -> ast.Expr:
        self.next()
        return ast.Fork(self.assign(), line=tok.line, col=tok.col)

    def _valid(self, tok: Token) -> ast.Expr:
        self.next()
        return ast.Valid(self.unary(), line=tok.line, col=tok.col)

    def _require(self, tok: Token) -> ast.Expr:
        self.next()
        self.expect("(")
        cond = self.assign()
        self.expect(")")
        return ast.Require(cond, line=tok.line, col=tok.col)

    def _emit(self, tok: Token) -> ast.Expr:
        self.next()
        name = self.expect("id", "event name").text
        args = self.arg_list()
        return ast.EmitEvent(name, args, line=tok.line, col=tok.col)

    def _name(self, tok: Token) -> ast.Expr:
        self.next()
        if self.at("("):
            args = self.arg_list()
            return ast.Call(ast.This(line=tok.line, col=tok.col), tok.text, args,
                            line=tok.line, col=tok.col)
        return ast.Var(tok.text, line=tok.line, col=tok.col)


_LITERALS = {"true": True, "false": False, "null": None}
_PRIMARY = {
    "num": Parser._num,
    "true": Parser._literal,
    "false": Parser._literal,
    "null": Parser._literal,
    "this": Parser._this,
    "(": Parser._paren,
    "{": Parser._block_expr,
    "new": Parser._new,
    "atomic": Parser._atomic,
    "fork": Parser._fork,
    "valid": Parser._valid,
    "require": Parser._require,
    "emit": Parser._emit,
    "id": Parser._name,
}


def default_init(ty: ast.TypeExpr) -> ast.Expr:
    if isinstance(ty, ast.IntType):
        return ast.Const(0)
    if isinstance(ty, ast.BoolType):
        return ast.Const(False)
    return ast.Const(None)


def parse_program(src: str) -> tuple[ast.Program, Diagnostics]:
    """Parse source text into a surface Program. Raises OvError(E-PARSE) on
    syntax errors; warnings (contract normalization) land in the returned
    Diagnostics."""
    diags = Diagnostics()
    parser = Parser(tokenize(src), diags)
    try:
        prog = parser.program()
    except ParseFail as exc:
        raise OvError("E-PARSE", exc.msg, exc.tok.line, exc.tok.col) from None
    return prog, diags


def parse_contract(src: str) -> tuple[ast.Contract, Diagnostics]:
    """Parse a standalone contract such as `<this,bot>`."""
    diags = Diagnostics()
    parser = Parser(tokenize(src), diags)
    try:
        c = parser.contract()
        parser.expect("eof", "end of contract")
    except ParseFail as exc:
        raise OvError("E-PARSE", exc.msg, exc.tok.line, exc.tok.col) from None
    return c, diags
