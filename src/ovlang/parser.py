"""Recursive-descent parser for the OV dialect; binary operators are parsed
by precedence climbing over ast.BINARY_PREC.

Token tests read the lexer's `kinds[i]` directly, and nodes take positions
from `lines[i]` and `cols[i]`. A lookahead over the kinds tells a local
declaration from an expression, so no parse is undone: `ParseFail`, with
the offending token's index, is raised only to report a syntax error.

parse_program normalizes surface contracts as it goes: an invalidity written
as `top` means "pre-check only" and is rewritten to `bot` with a
W-TOP-INVALIDITY warning.
"""
from __future__ import annotations

from . import ast
from .diagnostics import Diagnostics, OvError
from .lexer import Tokens, num_value, tokenize

BASE_TYPES = {"int", "uint", "uint256", "bool", "void"}
# the contexts written as keywords; any "id" names a context parameter
_CONTEXTS = {"this": ast.CtxThis, "top": ast.CtxTop, "bot": ast.CtxBot,
             "*": ast.CtxAny}
CTX_KINDS = {*_CONTEXTS, "id"}


class ParseFail(Exception):
    def __init__(self, msg: str, i: int):
        super().__init__(msg)
        self.msg = msg
        self.i = i  # index of the offending token


class Parser:
    def __init__(self, toks: Tokens, diags: Diagnostics):
        self.kinds, self.texts = toks.kinds, toks.texts
        self.lines, self.cols = toks.lines, toks.cols
        self.i = 0
        self.diags = diags

    # -- token plumbing -----------------------------------------------------
    # The current token is kinds[i]. Only `expect("eof")` matches the final
    # eof, and it does not move past it, so kinds[i + 1] exists whenever
    # kinds[i] is not eof.
    def accept(self, kind: str) -> bool:
        if self.kinds[self.i] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, what: str = "") -> int:
        """Consume a token of this kind and return its index."""
        i = self.i
        if self.kinds[i] == kind:
            if kind != "eof":
                self.i = i + 1
            return i
        want = what or f"'{kind}'"
        raise ParseFail(
            f"expected {want}, found {self.texts[i] or 'end of input'!r}", i)

    def ident(self, what: str) -> str:
        return self.texts[self.expect("id", what)]

    # -- program ------------------------------------------------------------
    def program(self) -> ast.Program:
        kinds = self.kinds
        classes: list[ast.ClassDecl] = []
        main: ast.Expr | None = None
        while kinds[self.i] != "eof":
            if kinds[self.i] == "class":
                classes.append(self.class_decl())
            elif kinds[self.i] == "main":
                if main is not None:
                    raise ParseFail("duplicate main block", self.i)
                self.i += 1
                main = self.block()
            else:
                raise ParseFail("expected a class declaration or main block", self.i)
        return ast.Program(classes, main, line=self.lines[0], col=self.cols[0])

    def class_decl(self) -> ast.ClassDecl:
        kw = self.expect("class")
        name = self.ident("class name")
        self.expect("[")
        params = [self.ident("context parameter")]
        while self.accept(","):
            params.append(self.ident("context parameter"))
        self.expect("]")
        superclass = None
        if self.accept("extends"):
            t = self.type_expr()
            if not isinstance(t, ast.ClassType):
                raise ParseFail("superclass must be a class type", self.i)
            superclass = t
        constraints: list[ast.Constraint] = []
        if self.accept("where"):
            constraints.append(self.constraint())
            while self.accept(","):
                constraints.append(self.constraint())
        self.expect("{")
        decl = ast.ClassDecl(name, params, superclass, constraints,
                             line=self.lines[kw], col=self.cols[kw])
        while not self.accept("}"):
            self.member(decl)
        return decl

    def constraint(self) -> ast.Constraint:
        lhs = self.context()
        i = self.i
        if self.accept("<<"):
            strict = True
        elif self.accept("<="):
            strict = False
        else:
            raise ParseFail("expected '<<' or '<=' in where clause", i)
        rhs = self.context()
        return ast.Constraint(lhs, strict, rhs, line=self.lines[i],
                              col=self.cols[i])

    def member(self, decl: ast.ClassDecl) -> None:
        kinds = self.kinds
        i = self.i
        line, col = self.lines[i], self.cols[i]
        if self.accept("inv"):
            e = self.assign()
            self.expect(";")
            decl.invariants.append(e)
            return
        # visibility keywords are accepted and discarded
        while kinds[self.i] == "public" or kinds[self.i] == "private":
            self.i += 1
        is_final = self.accept("final")
        if (not is_final and kinds[self.i] == "id"
                and self.texts[self.i] == decl.name
                and kinds[self.i + 1] == "("):
            self.i += 1
            params = self.param_list()
            body = self.block()
            decl.ctors.append(ast.CtorDecl(params, body, line=line, col=col))
            return
        ty = self.type_expr()
        name = self.ident("member name")
        if kinds[self.i] == "(":
            if is_final:
                raise ParseFail("methods cannot be final", i)
            params = self.param_list()
            contract = self.contract()
            body = self.block()
            decl.methods.append(ast.MethodDecl(name, ty, params, contract, body,
                                               line=line, col=col))
        else:
            init = None
            if self.accept("="):
                init = self.assign()
            self.expect(";")
            decl.fields.append(ast.FieldDecl(ty, name, init, is_final,
                                             line=line, col=col))

    def param_list(self) -> list[ast.Param]:
        self.expect("(")
        params: list[ast.Param] = []
        if self.kinds[self.i] != ")":
            while True:
                i = self.i
                ty = self.type_expr()
                name = self.ident("parameter name")
                params.append(ast.Param(ty, name, line=self.lines[i],
                                        col=self.cols[i]))
                if not self.accept(","):
                    break
        self.expect(")")
        return params

    # -- types / contexts / contracts ----------------------------------------
    def type_expr(self) -> ast.TypeExpr:
        i = self.i
        kind = self.kinds[i]
        line, col = self.lines[i], self.cols[i]
        if kind == "int" or kind == "uint" or kind == "uint256":
            self.i += 1
            return ast.IntType(kind, line=line, col=col)
        if self.accept("bool"):
            return ast.BoolType(line=line, col=col)
        if self.accept("void"):
            return ast.VoidType(line=line, col=col)
        name = self.ident("type name")
        return ast.ClassType(name, self.ctx_args(), line=line, col=col)

    def ctx_args(self) -> list[ast.Context]:
        """A class type's context arguments `<k1, ..., kn>`, if written."""
        args: list[ast.Context] = []
        if self.accept("<"):
            args.append(self.context())
            while self.accept(","):
                args.append(self.context())
            self.expect(">")
        return args

    def context(self) -> ast.Context:
        i = self.i
        kind = self.kinds[i]
        if kind == "id":
            self.i += 1
            return ast.CtxParam(self.texts[i], line=self.lines[i],
                                col=self.cols[i])
        make = _CONTEXTS.get(kind)
        if make is None:
            raise ParseFail("expected a context", i)
        self.i += 1
        return make(line=self.lines[i], col=self.cols[i])

    def contract(self) -> ast.Contract:
        start = self.expect("<", "a contract")
        line, col = self.lines[start], self.cols[start]
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
                           line, col)
            i = ast.CtxBot(line=i.line, col=i.col)
        return ast.Contract(v, i, line=line, col=col)

    # -- statements -----------------------------------------------------------
    def block(self) -> ast.Block:
        start = self.expect("{")
        kinds = self.kinds
        stmts: list[ast.Expr] = []
        while kinds[self.i] != "}":
            stmts.append(self.stmt())
            if isinstance(stmts[-1], ast.Return) and kinds[self.i] != "}":
                raise ParseFail("return must be the last statement of a block",
                                self.i)
        self.i += 1
        return ast.Block(stmts, line=self.lines[start], col=self.cols[start])

    def stmt(self) -> ast.Expr:
        line, col = self.lines[self.i], self.cols[self.i]
        if self.accept("return"):
            e = self.assign()
            self.expect(";")
            return ast.Return(e, line=line, col=col)
        if self.accept("throw"):
            self.expect(";")
            return ast.Throw(line=line, col=col)
        if self.accept("var"):
            name = self.ident("variable name")
            self.expect("=")
            init = self.assign()
            self.expect(";")
            return ast.Let(name, None, init, line=line, col=col)
        if self.starts_local_decl():
            ty = self.type_expr()
            name = self.ident("variable name")
            init = self.assign() if self.accept("=") else ast.default_init(ty)
            self.expect(";")
            return ast.Let(name, ty, init, line=line, col=col)
        e = self.assign()
        # an atomic-with-block statement needs no trailing semicolon
        if not (isinstance(e, ast.Atomic) and isinstance(e.body, ast.Block)
                and self.kinds[self.i] != ";"):
            self.expect(";")
        else:
            self.accept(";")
        return e

    def starts_local_decl(self) -> bool:
        """A local declaration starts `BaseType id`, `id id` or
        `id < ctx (, ctx)* > id`; so does no expression statement that
        typechecks (a chain `a < b > c` is a declaration)."""
        kinds, j = self.kinds, self.i
        kind = kinds[j]
        if kind in BASE_TYPES:
            return kinds[j + 1] == "id"
        if kind != "id":
            return False
        if kinds[j + 1] != "<":
            return kinds[j + 1] == "id"
        j += 2
        while kinds[j] in CTX_KINDS:
            if kinds[j + 1] != ",":
                return kinds[j + 1] == ">" and kinds[j + 2] == "id"
            j += 2
        return False

    # -- expressions ----------------------------------------------------------
    def assign(self) -> ast.Expr:
        lhs = self.binary()
        i = self.i
        kind = self.kinds[i]
        if kind != "=" and kind not in ("+=", "-=", "*=", "/=", "%="):
            return lhs
        self.i = i + 1
        value = self.assign()
        line, col = self.lines[i], self.cols[i]
        if isinstance(lhs, ast.Var) and kind == "=":
            return ast.Assign(lhs.name, value, line=line, col=col)
        if isinstance(lhs, ast.FieldGet) and kind == "=":
            return ast.FieldSet(lhs.receiver, lhs.field_name, value,
                                line=line, col=col)
        if not isinstance(lhs, (ast.Var, ast.FieldGet)):
            raise ParseFail("assignment target must be a variable or field", i)
        return ast.OpAssign(lhs, kind[0], value, line=line, col=col)

    def binary(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing over ast.BINARY_PREC: parse operators that bind
        at least as tightly as min_prec; every level is left-associative."""
        e = self.unary()
        kinds = self.kinds
        while True:
            i = self.i
            prec = ast.BINARY_PREC.get(kinds[i], 0)
            if prec < min_prec:
                return e
            self.i = i + 1
            e = ast.PrimOp(kinds[i], [e, self.binary(prec + 1)],
                           line=self.lines[i], col=self.cols[i])

    def unary(self) -> ast.Expr:
        i = self.i
        kind = self.kinds[i]
        if kind == "!" or kind == "-":
            self.i = i + 1
            return ast.PrimOp(kind, [self.unary()], line=self.lines[i],
                              col=self.cols[i])
        return self.postfix()

    def postfix(self) -> ast.Expr:
        # the primary expression's rule is called from here, not through a
        # `primary` method, so each nesting level costs no extra frame
        i = self.i
        rule = _PRIMARY.get(self.kinds[i])
        if rule is None:
            raise ParseFail(f"unexpected {self.texts[i] or 'end of input'!r} in expression", i)
        e = rule(self, i)
        kinds = self.kinds
        while kinds[self.i] == ".":
            self.i += 1
            name = self.ident("member name")
            if kinds[self.i] == "(":
                args = self.arg_list()
                e = ast.Call(e, name, args, line=e.line, col=e.col)
            else:
                e = ast.FieldGet(e, name, line=e.line, col=e.col)
        return e

    def arg_list(self) -> list[ast.Expr]:
        self.expect("(")
        args: list[ast.Expr] = []
        if self.kinds[self.i] != ")":
            args.append(self.assign())
            while self.accept(","):
                args.append(self.assign())
        self.expect(")")
        return args

    # -- primary expressions: one rule per leading token kind, in _PRIMARY ----
    # Each rule gets the index i of its leading token, the current one.
    def _num(self, i: int) -> ast.Expr:
        self.i = i + 1
        text = self.texts[i]
        lex = text if ("e" in text or "E" in text) else None
        return ast.Const(num_value(text), lex, line=self.lines[i],
                         col=self.cols[i])

    def _literal(self, i: int) -> ast.Expr:
        self.i = i + 1
        return ast.Const(_LITERALS[self.kinds[i]], line=self.lines[i],
                         col=self.cols[i])

    def _this(self, i: int) -> ast.Expr:
        self.i = i + 1
        return ast.This(line=self.lines[i], col=self.cols[i])

    def _paren(self, i: int) -> ast.Expr:
        self.i = i + 1
        e = self.assign()
        self.expect(")")
        return e

    def _block_expr(self, i: int) -> ast.Expr:
        # block expression: value is the last statement's value
        return self.block()

    def _new(self, i: int) -> ast.Expr:
        self.i = i + 1
        line, col = self.lines[i], self.cols[i]
        name = self.ident("class name")
        ty = ast.ClassType(name, self.ctx_args(), line=line, col=col)
        return ast.New(ty, self.arg_list(), line=line, col=col)

    def _atomic(self, i: int) -> ast.Expr:
        self.i = i + 1
        contract = self.contract() if self.kinds[i + 1] == "<" else None
        body = self.block() if self.kinds[self.i] == "{" else self.assign()
        return ast.Atomic(contract, body, line=self.lines[i], col=self.cols[i])

    def _fork(self, i: int) -> ast.Expr:
        self.i = i + 1
        return ast.Fork(self.assign(), line=self.lines[i], col=self.cols[i])

    def _valid(self, i: int) -> ast.Expr:
        self.i = i + 1
        return ast.Valid(self.unary(), line=self.lines[i], col=self.cols[i])

    def _require(self, i: int) -> ast.Expr:
        self.i = i + 1
        self.expect("(")
        cond = self.assign()
        self.expect(")")
        return ast.Require(cond, line=self.lines[i], col=self.cols[i])

    def _emit(self, i: int) -> ast.Expr:
        self.i = i + 1
        name = self.ident("event name")
        args = self.arg_list()
        return ast.EmitEvent(name, args, line=self.lines[i], col=self.cols[i])

    def _name(self, i: int) -> ast.Expr:
        self.i = i + 1
        line, col = self.lines[i], self.cols[i]
        if self.kinds[i + 1] == "(":
            args = self.arg_list()
            return ast.Call(ast.This(line=line, col=col), self.texts[i], args,
                            line=line, col=col)
        return ast.Var(self.texts[i], line=line, col=col)


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


def parse_program(src: str) -> tuple[ast.Program, Diagnostics]:
    """Parse source text into a surface Program. Raises OvError(E-PARSE) on
    syntax errors; warnings (contract normalization) land in the returned
    Diagnostics."""
    diags = Diagnostics()
    toks = tokenize(src)
    try:
        prog = Parser(toks, diags).program()
    except ParseFail as exc:
        i = exc.i
        raise OvError("E-PARSE", exc.msg, toks.lines[i], toks.cols[i]) from None
    return prog, diags

