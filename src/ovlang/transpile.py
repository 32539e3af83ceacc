"""Solidity emission: validity contracts become function modifiers.

A class's methods carry normalized contracts whose contexts must be drawn
from {this, bot}; each maps to one of the four shorthand modifiers
(thisThis/thisTop/botThis/botTop) or, in pre-post style, to a
preValid()/postValid() pair. The invariant clause becomes isValid().
Emission works on the surface AST so compound assignments survive.
"""
from __future__ import annotations

import os

from . import ast
from .diagnostics import OvError

IND = "    "

PRAGMA = "pragma solidity >=0.5.16 <0.7.0;"
# emitted contracts import the support bundle from the parent directory
IMPORT_PREFIX = "../"

STYLE_OVVALIDITY = "ovvalidity"
STYLE_PRE_POST = "pre-post"


# ---------------------------------------------------------------------------
# Bundled support contracts. These are fixed texts; goldens/ mirrors them.

OWNABLE_SOL = """\
pragma solidity >=0.5.16 <0.7.0;

/**
* @title Ownable
* @dev Set and get owner
*/
contract Ownable {
    // modifier to check if caller is owner
    modifier isOwner() {
        require(msg.sender == owner, "Caller is not owner");
        _;
    }

    // modifier to check if caller is owner
    modifier isCalledBy(address addr) {
        require(msg.sender == addr, "Caller is not the specified address");
        _;
    }

    // @dev Set contract deployer as owner
    constructor() public {
        owner = msg.sender; // 'msg.sender' is sender of current call
    }

    /**
    * @dev Return owner address
    * @return address of owner
    */
    function getOwner() external view returns (address) {
        return owner;
    }

    address private owner;
}
"""

VALIDITY_SOL = """\
pragma solidity >=0.5.16 <0.7.0;

/**
* @title Validity
* @dev define validity of an object
*/
interface Validity {
    /**
    * The invariant condition of an object.
    * Subclass must implement this method speciyfing its invariant.
    */
    function isValid() external view returns (bool);

    // modifier to check object's validity prior a function call
    modifier preValid() {
        require(this.isValid(), "Validity fails pre-check");
        _;
    }

    // modifier to check object's validity immediately after a function call
    modifier postValid() {
        _;
        require(this.isValid(), "Validity fails post-check");
    }
}
"""

OVVALIDITY_SOL = """\
pragma solidity >=0.5.16 <0.7.0;

/**
* @title OVValidity
* @dev define validity of an object
*/
interface OVValidity {
    /**
    * The invariant condition of an object.
    * Subclass must implement this method speciyfing its invariant.
    */
    function isValid() external view returns (bool);

    // modifier to check object's validity prior a function call
    modifier preValid() {
        require(this.isValid(), "Validity fails pre-check");
        _;
    }

    // modifier to  object's validity immediately after a function call
    modifier postValid() {
        _;
        require(this.isValid(), "Validity fails post-check");
    }

    // The following modifiers are short-hand for OV language

    // modifier to check object's validity before and after a function call
    modifier thisThis() {
        require(this.isValid(), "Validity fails pre-check");
        _;
        require(this.isValid(), "Validity fails post-check");
    }

    // modifier to check object's validity after a function call
    modifier botThis() {
        _;
        require(this.isValid(), "Validity fails post-check");
    }

    // modifier to check object's validity before a function call
    modifier thisTop() {
        require(this.isValid(), "Validity fails pre-check");
        _;
    }

    // modifier that is simply not checking object's validity at all
    modifier botTop() {
        _;
    }
}
"""


def bundle_api() -> dict[str, str]:
    """The three support files every emitted contract imports from."""
    return {
        "Ownable.sol": OWNABLE_SOL,
        "Validity.sol": VALIDITY_SOL,
        "OVValidity.sol": OVVALIDITY_SOL,
    }


# ---------------------------------------------------------------------------
# Contract -> modifier

def checks_for(d: ast.Contract) -> tuple[bool, bool]:
    """(pre-check needed, post-check needed) for a normalized contract."""
    for k in (d.validity, d.invalidity):
        if not isinstance(k, (ast.CtxThis, ast.CtxBot)):
            raise OvError("E-TRANSPILE-CTX",
                          f"context `{k}` has no single-object check",
                          d.line, d.col)
    pre = isinstance(d.validity, ast.CtxThis)
    # this ∩ this is the only non-empty overlap once both sides are this/bot
    post = pre and isinstance(d.invalidity, ast.CtxThis)
    return pre, post


_MODIFIERS = {
    (True, True): "thisThis",
    (True, False): "thisTop",
    (False, True): "botThis",
    (False, False): None,
}


def _modifier_text(d: ast.Contract, style: str) -> str:
    """Text between the parameter list and `public`, with leading space."""
    pre, post = checks_for(d)
    if style == STYLE_PRE_POST:
        parts = []
        if pre:
            parts.append("preValid()")
        if post:
            parts.append("postValid()")
        return ("" if not parts else " " + " ".join(parts))
    name = _MODIFIERS[(pre, post)]
    return "" if name is None else f" {name}()"


# ---------------------------------------------------------------------------
# Expression / statement emission

_UNARY = 7  # above every level of ast.BINARY_PREC


def _reject(e: ast.Expr, why: str) -> OvError:
    return OvError("E-TRANSPILE-EXPR", why, e.line, e.col)


def _expr(e: ast.Expr, min_prec: int = 0) -> str:
    if isinstance(e, ast.Const):
        if e.value is None:
            raise _reject(e, "null has no Solidity counterpart here")
        return str(e)
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.FieldGet):
        if not isinstance(e.receiver, ast.This):
            raise _reject(e, "field access through another object")
        return e.field_name
    if isinstance(e, ast.PrimOp):
        if len(e.args) == 1:
            text = f"{e.op}{_expr(e.args[0], _UNARY)}"
            return f"({text})" if _UNARY < min_prec else text
        p = ast.BINARY_PREC[e.op]
        text = f"{_expr(e.args[0], p)} {e.op} {_expr(e.args[1], p + 1)}"
        return f"({text})" if p < min_prec else text
    if isinstance(e, ast.Call):
        if not isinstance(e.receiver, ast.This):
            raise _reject(e, "call through another object")
        args = ", ".join(_expr(a) for a in e.args)
        return f"{e.method}({args})"
    if isinstance(e, ast.This):
        raise _reject(e, "bare object reference")
    raise _reject(e, f"{type(e).__name__} is not expressible in Solidity")


def _stmt_lines(e: ast.Expr, depth: int) -> list[str]:
    pad = IND * depth
    if isinstance(e, ast.Block):
        out: list[str] = []
        for s in e.stmts:
            out.extend(_stmt_lines(s, depth))
        return out
    if isinstance(e, ast.Let):
        if e.type is None or isinstance(e.type, (ast.ClassType, ast.NullType)):
            raise _reject(e, "reference-typed local")
        return [f"{pad}{e.type} {e.name} = {_expr(e.init)};"]
    if isinstance(e, ast.Assign):
        return [f"{pad}{e.name} = {_expr(e.value)};"]
    if isinstance(e, ast.FieldSet):
        if not isinstance(e.receiver, ast.This):
            raise _reject(e, "write through another object")
        return [f"{pad}{e.field_name} = {_expr(e.value)};"]
    if isinstance(e, ast.OpAssign):
        if isinstance(e.target, ast.Var):
            tgt = e.target.name
        elif (isinstance(e.target, ast.FieldGet)
              and isinstance(e.target.receiver, ast.This)):
            tgt = e.target.field_name
        else:
            raise _reject(e, "write through another object")
        return [f"{pad}{tgt} {e.op}= {_expr(e.value)};"]
    if isinstance(e, ast.Return):
        return [f"{pad}return {_expr(e.value)};"]
    if isinstance(e, ast.Require):
        return [f"{pad}require({_expr(e.cond)});"]
    if isinstance(e, ast.Call):
        return [f"{pad}{_expr(e)};"]
    raise _reject(e, f"{type(e).__name__} is not expressible in Solidity")


def _sol_type(t: ast.TypeExpr, where: ast.Node) -> str:
    if isinstance(t, ast.IntType):
        return t.alias
    if isinstance(t, ast.BoolType):
        return "bool"
    raise OvError("E-TRANSPILE-EXPR",
                  f"type `{t}` is not expressible in Solidity",
                  where.line, where.col)


# ---------------------------------------------------------------------------
# Class emission

def emit_is_valid(c: ast.ClassDecl) -> str:
    if not c.invariants:
        body = "true"
    else:
        body = " && ".join(_expr(inv, ast.BINARY_PREC["&&"])
                           for inv in c.invariants)
    return (f"{IND}function isValid() external view returns (bool) {{\n"
            f"{IND}{IND}return {body};\n"
            f"{IND}}}\n")


def _check_class_shape(c: ast.ClassDecl) -> None:
    if len(c.ctx_params) != 1:
        raise OvError("E-TRANSPILE-CTX",
                      "only single-owner classes are expressible",
                      c.line, c.col)
    if c.superclass is not None:
        raise OvError("E-TRANSPILE-CTX",
                      "inheritance is not expressible",
                      c.line, c.col)


def _emit_method(m: ast.MethodDecl, style: str) -> str:
    params = ", ".join(f"{_sol_type(p.type, p)} {p.name}" for p in m.params)
    mods = _modifier_text(m.contract, style)
    # no writes allowed ==> Solidity view
    view = " view" if isinstance(m.contract.invalidity, ast.CtxBot) else ""
    rets = ""
    if not isinstance(m.return_type, ast.VoidType):
        rets = f" returns ({_sol_type(m.return_type, m)})"
    lines = [f"{IND}function {m.name}({params}){mods} public{view}{rets} {{"]
    lines.extend(_stmt_lines(m.body, 2))
    lines.append(f"{IND}}}")
    return "\n".join(lines) + "\n"


def _emit_ctor(ct: ast.CtorDecl, style: str) -> str:
    params = ", ".join(f"{_sol_type(p.type, p)} {p.name}" for p in ct.params)
    lines = [f"{IND}constructor({params}) public {{"]
    lines.extend(_stmt_lines(ct.body, 2))
    lines.append(f'{IND}{IND}require(this.isValid(), "Validity fails post-check");')
    lines.append(f"{IND}}}")
    return "\n".join(lines) + "\n"


def contract_name(c: ast.ClassDecl, style: str = STYLE_OVVALIDITY) -> str:
    return f"{c.name}_OV" if style == STYLE_PRE_POST else c.name


def transpile_class(c: ast.ClassDecl, style: str = STYLE_OVVALIDITY) -> str:
    _check_class_shape(c)
    validity_iface = "Validity" if style == STYLE_PRE_POST else "OVValidity"
    out = [
        PRAGMA,
        "",
        f"import '{IMPORT_PREFIX}Ownable.sol';",
        f"import '{IMPORT_PREFIX}{validity_iface}.sol';",
        "",
        f"contract {contract_name(c, style)} is Ownable, {validity_iface} {{",
    ]
    for f in c.fields:
        init = ""
        if f.init is not None:
            if not isinstance(f.init, ast.Const):
                raise _reject(f.init, "computed field initializer")
            init = f" = {_expr(f.init)}"
        out.append(f"{IND}{_sol_type(f.type, f)} {f.name}{init};")
    for ct in c.ctors:
        out.append("")
        out.append(_emit_ctor(ct, style).rstrip("\n"))
    for m in c.methods:
        out.append("")
        out.append(_emit_method(m, style).rstrip("\n"))
    out.append("")
    # the validity function itself is never guarded: guarding it would recurse
    out.append(emit_is_valid(c).rstrip("\n"))
    out.append("}")
    return "\n".join(out) + "\n"


def transpile_program(p: ast.Program,
                      style: str = STYLE_OVVALIDITY) -> dict[str, str]:
    """File name -> contents for every class plus the support bundle."""
    files = bundle_api()
    for c in p.classes:
        files[f"{contract_name(c, style)}.sol"] = transpile_class(c, style)
    return files


def write_outputs(files: dict[str, str], out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in sorted(files):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(files[name])
        written.append(path)
    return written
