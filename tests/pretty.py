"""Canonical text form of core programs.

parse_program(pretty_print(p)) followed by desugar reproduces p for any core
program (temporary names are literal in the text, so they survive).
"""
from __future__ import annotations

from ovlang import ast

IND = "    "

# levels above ast.BINARY_PREC's; higher binds tighter
_UNARY = 7
_POSTFIX = 8
_ATOM = 9


def _prec(e: ast.Expr) -> int:
    if isinstance(e, (ast.Assign, ast.FieldSet, ast.OpAssign)):
        return 0
    if isinstance(e, ast.PrimOp):
        if len(e.args) == 1:
            return _UNARY
        return ast.BINARY_PREC[e.op]
    if isinstance(e, (ast.FieldGet, ast.Call)):
        return _POSTFIX
    if isinstance(e, (ast.Atomic, ast.Fork, ast.Valid)):
        return 0
    return _ATOM


def fmt_expr(e: ast.Expr, min_prec: int = 0) -> str:
    text = _fmt(e)
    if _prec(e) < min_prec:
        return f"({text})"
    return text


def _fmt(e: ast.Expr) -> str:
    if isinstance(e, ast.Const):
        return str(e)
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.This):
        return "this"
    if isinstance(e, ast.FieldGet):
        return f"{fmt_expr(e.receiver, _POSTFIX)}.{e.field_name}"
    if isinstance(e, ast.FieldSet):
        return (f"{fmt_expr(e.receiver, _POSTFIX)}.{e.field_name} = "
                f"{fmt_expr(e.value)}")
    if isinstance(e, ast.Assign):
        return f"{e.name} = {fmt_expr(e.value)}"
    if isinstance(e, ast.OpAssign):
        return f"{fmt_expr(e.target, _POSTFIX)} {e.op}= {fmt_expr(e.value)}"
    if isinstance(e, ast.Call):
        args = ", ".join(fmt_expr(a) for a in e.args)
        return f"{fmt_expr(e.receiver, _POSTFIX)}.{e.method}({args})"
    if isinstance(e, ast.New):
        args = ", ".join(fmt_expr(a) for a in e.args)
        return f"new {e.type}({args})"
    if isinstance(e, ast.PrimOp):
        if len(e.args) == 1:
            return f"{e.op}{fmt_expr(e.args[0], _UNARY)}"
        p = ast.BINARY_PREC[e.op]
        lhs = fmt_expr(e.args[0], p)
        rhs = fmt_expr(e.args[1], p + 1)
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, ast.Valid):
        return f"valid {fmt_expr(e.value, _UNARY)}"
    if isinstance(e, ast.Require):
        return f"require({fmt_expr(e.cond)})"
    if isinstance(e, ast.EmitEvent):
        args = ", ".join(fmt_expr(a) for a in e.args)
        return f"emit {e.name}({args})"
    if isinstance(e, ast.Fork):
        return f"fork {fmt_expr(e.body)}"
    if isinstance(e, ast.Atomic):
        header = "atomic " if e.contract is None else f"atomic {e.contract} "
        if isinstance(e.body, (ast.Seq, ast.Let)):
            return header + _braced_chain(e.body, 0)
        return header + fmt_expr(e.body)
    if isinstance(e, (ast.Seq, ast.Let)):
        return _braced_chain(e, 0)
    raise AssertionError(f"cannot print {type(e).__name__}")


def _chain(e: ast.Expr) -> list[ast.Expr]:
    out: list[ast.Expr] = []
    while isinstance(e, ast.Seq):
        out.append(e.first)
        e = e.second
    out.append(e)
    return out


def _stmt(e: ast.Expr, depth: int) -> str:
    pad = IND * depth
    if isinstance(e, ast.Let):
        ty = "var" if e.type is None else str(e.type)
        return f"{pad}{ty} {e.name} = {fmt_expr(e.init)};"
    if isinstance(e, ast.Atomic) and isinstance(e.body, (ast.Seq, ast.Let)):
        header = "atomic " if e.contract is None else f"atomic {e.contract} "
        return pad + header + _braced_chain(e.body, depth)
    return f"{pad}{fmt_expr(e)};"


def _braced_chain(e: ast.Expr, depth: int) -> str:
    lines = [_stmt(s, depth + 1) for s in _chain(e)]
    pad = IND * depth
    return "{\n" + "\n".join(lines) + f"\n{pad}}}"


def _params(ps: list[ast.Param]) -> str:
    return ", ".join(f"{p.type} {p.name}" for p in ps)


def pretty_print(p: ast.Program) -> str:
    out: list[str] = []
    for cls in p.classes:
        header = f"class {cls.name}[{', '.join(cls.ctx_params)}]"
        if cls.superclass is not None:
            header += f" extends {cls.superclass}"
        if cls.constraints:
            header += " where " + ", ".join(str(c) for c in cls.constraints)
        out.append(header + " {")
        for inv in cls.invariants:
            out.append(f"{IND}inv {fmt_expr(inv)};")
        for f in cls.fields:
            fin = "final " if f.final else ""
            init = f" = {fmt_expr(f.init)}" if f.init is not None else ""
            out.append(f"{IND}{fin}{f.type} {f.name}{init};")
        for c in cls.ctors:
            out.append(f"{IND}{cls.name}({_params(c.params)}) "
                       + _braced_chain(c.body, 1))
        for m in cls.methods:
            out.append(f"{IND}{m.return_type} {m.name}({_params(m.params)}) "
                       f"{m.contract} " + _braced_chain(m.body, 1))
        out.append("}")
        out.append("")
    if p.main is not None:
        out.append("main " + _braced_chain(p.main, 0))
        out.append("")
    return "\n".join(out)
