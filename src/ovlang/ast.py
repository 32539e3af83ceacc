"""AST for the OV dialect: contexts, contracts, types, expressions, declarations.

Source positions ride along on every node but are excluded from equality so
that desugared/pretty-printed round trips compare structurally.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass
class Node:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


# ---------------------------------------------------------------------------
# Contexts

@dataclass
class Context(Node):
    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class CtxThis(Context):
    def __str__(self) -> str:
        return "this"


@dataclass
class CtxTop(Context):
    def __str__(self) -> str:
        return "top"


@dataclass
class CtxBot(Context):
    def __str__(self) -> str:
        return "bot"


@dataclass
class CtxAny(Context):
    def __str__(self) -> str:
        return "*"


@dataclass
class CtxExist(Context):
    """Unknown owner produced by lookup through a non-this receiver."""

    def __str__(self) -> str:
        return "?"


@dataclass
class CtxParam(Context):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class CtxLoc(Context):
    """A runtime location used as a context (resolved contracts only)."""

    index: int

    def __str__(self) -> str:
        return f"l{self.index}"


THIS = CtxThis()
TOP = CtxTop()
BOT = CtxBot()
ANY = CtxAny()
EXIST = CtxExist()


# ---------------------------------------------------------------------------
# Contracts

@dataclass
class Contract(Node):
    validity: Context = field(default_factory=CtxBot)
    invalidity: Context = field(default_factory=CtxBot)

    def __str__(self) -> str:
        return f"<{self.validity},{self.invalidity}>"


# ---------------------------------------------------------------------------
# Types

@dataclass
class TypeExpr(Node):
    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class IntType(TypeExpr):
    # Surface spelling (int/uint/uint256) is kept for emission but does not
    # affect typing: the dialect has one arbitrary-precision integer type.
    alias: str = field(default="int", compare=False)

    def __str__(self) -> str:
        return self.alias


@dataclass
class BoolType(TypeExpr):
    def __str__(self) -> str:
        return "bool"


@dataclass
class VoidType(TypeExpr):
    def __str__(self) -> str:
        return "void"


@dataclass
class NullType(TypeExpr):
    """Type of the null literal; bindable to any class type."""

    def __str__(self) -> str:
        return "null"


@dataclass
class ClassType(TypeExpr):
    name: str = ""
    args: list[Context] = field(default_factory=list)

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}<{','.join(str(a) for a in self.args)}>"


@dataclass
class ErrorType(TypeExpr):
    """Type of an expression whose fault is already reported, such as an
    unknown name. It binds anywhere, so each fault is reported once."""

    def __str__(self) -> str:
        return "<error>"


INT = IntType()
BOOL = BoolType()
VOID = VoidType()
NULL_T = NullType()
ERROR_T = ErrorType()


# ---------------------------------------------------------------------------
# Expressions

@dataclass
class Expr(Node):
    pass


@dataclass
class Const(Expr):
    value: Union[int, bool, None] = None
    lexeme: Optional[str] = field(default=None)  # preserves 1e30-style spellings

    def __str__(self) -> str:
        if self.lexeme is not None:
            return self.lexeme
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)


def default_init(ty: TypeExpr) -> Const:
    """The value a field or local of type ty holds before any assignment."""
    if isinstance(ty, IntType):
        return Const(0)
    if isinstance(ty, BoolType):
        return Const(False)
    return Const(None)


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class This(Expr):
    pass


@dataclass
class New(Expr):
    type: ClassType = field(default_factory=ClassType)
    args: list[Expr] = field(default_factory=list)


@dataclass
class Assign(Expr):
    name: str = ""
    value: Expr = field(default_factory=Expr)


@dataclass
class FieldGet(Expr):
    receiver: Expr = field(default_factory=Expr)
    field_name: str = ""


@dataclass
class FieldSet(Expr):
    receiver: Expr = field(default_factory=Expr)
    field_name: str = ""
    value: Expr = field(default_factory=Expr)


@dataclass
class OpAssign(Expr):
    """Surface `target op= value` (target is a Var or FieldGet); desugars to
    Assign/FieldSet with a PrimOp, but survives parsing for faithful emission."""

    target: Expr = field(default_factory=Expr)
    op: str = "+"
    value: Expr = field(default_factory=Expr)


@dataclass
class Call(Expr):
    receiver: Expr = field(default_factory=Expr)
    method: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class PrimOp(Expr):
    op: str = "+"
    args: list[Expr] = field(default_factory=list)


# Binary operator precedence, loosest to tightest; every level is
# left-associative. The parser, the printer and the Solidity emitter all read
# this one table (Solidity orders this subset the same way).
BINARY_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


@dataclass
class Seq(Expr):
    first: Expr = field(default_factory=Expr)
    second: Expr = field(default_factory=Expr)


@dataclass
class Let(Expr):
    """Local declaration; scopes over the rest of the enclosing Seq chain.
    type is None for compiler-introduced temporaries (inferred)."""

    name: str = ""
    type: Optional[TypeExpr] = None
    init: Expr = field(default_factory=Expr)


@dataclass
class Atomic(Expr):
    contract: Optional[Contract] = None
    body: Expr = field(default_factory=Expr)
    deduced: bool = field(default=False, compare=False)


@dataclass
class Fork(Expr):
    body: Expr = field(default_factory=Expr)


@dataclass
class Valid(Expr):
    value: Expr = field(default_factory=Expr)


@dataclass
class Require(Expr):
    cond: Expr = field(default_factory=Expr)


@dataclass
class EmitEvent(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Throw(Expr):
    """Surface `throw;` -- desugars to require(false)."""


@dataclass
class Return(Expr):
    """Surface `return e;` (tail position only); desugar strips it."""

    value: Expr = field(default_factory=Expr)


@dataclass
class Block(Expr):
    """Surface statement block; desugars to a Seq/Let chain."""

    stmts: list[Expr] = field(default_factory=list)


def is_value(e: Expr) -> bool:
    return isinstance(e, (Const, Var, This))


# The sub-expressions of each expression class, in field order, built once.
_CHILDREN = {
    Const: lambda e: (),
    Var: lambda e: (),
    This: lambda e: (),
    Throw: lambda e: (),
    New: lambda e: e.args,
    Assign: lambda e: (e.value,),
    FieldGet: lambda e: (e.receiver,),
    FieldSet: lambda e: (e.receiver, e.value),
    OpAssign: lambda e: (e.target, e.value),
    Call: lambda e: (e.receiver, *e.args),
    PrimOp: lambda e: e.args,
    Seq: lambda e: (e.first, e.second),
    Let: lambda e: (e.init,),
    Atomic: lambda e: (e.body,),
    Fork: lambda e: (e.body,),
    Valid: lambda e: (e.value,),
    Require: lambda e: (e.cond,),
    EmitEvent: lambda e: e.args,
    Return: lambda e: (e.value,),
    Block: lambda e: e.stmts,
}


def children(e: Expr):
    """The direct sub-expressions of e, in field order."""
    return _CHILDREN[type(e)](e)


# ---------------------------------------------------------------------------
# Declarations

@dataclass
class FieldDecl(Node):
    type: TypeExpr = field(default_factory=TypeExpr)
    name: str = ""
    init: Optional[Expr] = None
    final: bool = False


@dataclass
class Param(Node):
    type: TypeExpr = field(default_factory=TypeExpr)
    name: str = ""


@dataclass
class MethodDecl(Node):
    name: str = ""
    return_type: TypeExpr = field(default_factory=VoidType)
    params: list[Param] = field(default_factory=list)
    contract: Contract = field(default_factory=Contract)
    body: Expr = field(default_factory=Expr)


@dataclass
class CtorDecl(Node):
    params: list[Param] = field(default_factory=list)
    body: Expr = field(default_factory=Expr)


@dataclass
class Constraint(Node):
    lhs: Context = field(default_factory=CtxBot)
    strict: bool = False  # True for <<, False for <=
    rhs: Context = field(default_factory=CtxBot)

    def __str__(self) -> str:
        rel = "<<" if self.strict else "<="
        return f"{self.lhs} {rel} {self.rhs}"


@dataclass
class ClassDecl(Node):
    name: str = ""
    ctx_params: list[str] = field(default_factory=list)
    superclass: Optional[ClassType] = None
    constraints: list[Constraint] = field(default_factory=list)
    invariants: list[Expr] = field(default_factory=list)
    fields: list[FieldDecl] = field(default_factory=list)
    ctors: list[CtorDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)


@dataclass
class Program(Node):
    classes: list[ClassDecl] = field(default_factory=list)
    main: Optional[Expr] = None
