"""AST for the OV dialect: contexts, contracts, types, expressions, declarations.

Source positions ride along on every node but are excluded from equality so
that desugared/pretty-printed round trips compare structurally.

Nodes, and the package's other records, are plain classes with `__slots__`
and a written-out `__init__`; `Record` gives them one `__eq__` and one
`__repr__`, which behave as `@dataclass` would generate them. Do not bring
`@dataclass` back: every `ov` call is a fresh process, and generating and
compiling the methods of 56 record classes at import, and loading the
`dataclasses` and `inspect` modules that do it, was most of importing
`ovlang.cli` from a current bytecode cache (45.5 ms with them, 10.4 ms
without, on a 2-vCPU host), while checking `corpus/bank.ov` takes 1 ms.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A record's fields are its slots, base class first. Two records are
    equal when they are of one class and agree on every field except those
    in `_loose` and the private ones (a leading underscore); repr shows the
    public fields as `Name(field=value, ...)`. A record is unhashable
    unless its class says otherwise."""

    __slots__ = ()
    _fields = _shown = _loose = ()
    _key = None  # the compared fields' getter; None when there are none

    def __init_subclass__(cls) -> None:
        cls._fields += cls.__dict__.get("__slots__", ())
        cls._shown = tuple(f for f in cls._fields if f[0] != "_")
        keyed = [f for f in cls._shown if f not in cls._loose]
        cls._key = attrgetter(*keyed) if keyed else None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key is None or key(self) == key(other)

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"


class Node(Record):
    """A tree node. Its position is keyword-only and never compared. A node
    or list field left out of a constructor call, or passed None, holds a
    new default node of its type (a bare `Expr()` for an expression) or a
    new empty list; an optional field holds None."""

    __slots__ = ("line", "col")
    _loose = ("line", "col")

    def __init__(self, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Contexts

class Context(Node):
    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class CtxThis(Context):
    __slots__ = ()

    def __str__(self) -> str:
        return "this"


class CtxTop(Context):
    __slots__ = ()

    def __str__(self) -> str:
        return "top"


class CtxBot(Context):
    __slots__ = ()

    def __str__(self) -> str:
        return "bot"


class CtxAny(Context):
    __slots__ = ()

    def __str__(self) -> str:
        return "*"


class CtxExist(Context):
    """Unknown owner produced by lookup through a non-this receiver."""

    __slots__ = ()

    def __str__(self) -> str:
        return "?"


class CtxParam(Context):
    __slots__ = ("name",)

    def __init__(self, name: str, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name

    def __str__(self) -> str:
        return self.name


class CtxLoc(Context):
    """A runtime location used as a context (resolved contracts only)."""

    __slots__ = ("index",)

    def __init__(self, index: int, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.index = index

    def __str__(self) -> str:
        return f"l{self.index}"


THIS = CtxThis()
TOP = CtxTop()
BOT = CtxBot()
ANY = CtxAny()
EXIST = CtxExist()


# ---------------------------------------------------------------------------
# Contracts

class Contract(Node):
    __slots__ = ("validity", "invalidity")

    def __init__(self, validity: Context = None, invalidity: Context = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.validity = CtxBot() if validity is None else validity
        self.invalidity = CtxBot() if invalidity is None else invalidity

    def __str__(self) -> str:
        return f"<{self.validity},{self.invalidity}>"


# ---------------------------------------------------------------------------
# Types

class TypeExpr(Node):
    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class IntType(TypeExpr):
    # Surface spelling (int/uint/uint256) is kept for emission but does not
    # affect typing: the dialect has one arbitrary-precision integer type.
    __slots__ = ("alias",)
    _loose = ("line", "col", "alias")

    def __init__(self, alias: str = "int", *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.alias = alias

    def __str__(self) -> str:
        return self.alias


class BoolType(TypeExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "bool"


class VoidType(TypeExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "void"


class NullType(TypeExpr):
    """Type of the null literal; bindable to any class type."""

    __slots__ = ()

    def __str__(self) -> str:
        return "null"


class ClassType(TypeExpr):
    __slots__ = ("name", "args")

    def __init__(self, name: str = "", args: list[Context] = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name
        self.args = [] if args is None else args

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}<{','.join(str(a) for a in self.args)}>"


class ErrorType(TypeExpr):
    """Type of an expression whose fault is already reported, such as an
    unknown name. It binds anywhere, so each fault is reported once."""

    __slots__ = ()

    def __str__(self) -> str:
        return "<error>"


INT = IntType()
BOOL = BoolType()
VOID = VoidType()
NULL_T = NullType()
ERROR_T = ErrorType()


# ---------------------------------------------------------------------------
# Expressions

class Expr(Node):
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value", "lexeme")

    def __init__(self, value: int | bool | None = None,
                 lexeme: str | None = None,  # preserves 1e30-style spellings
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.value = value
        self.lexeme = lexeme

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


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str = "", *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name


class This(Expr):
    __slots__ = ()


class New(Expr):
    __slots__ = ("type", "args")

    def __init__(self, type: ClassType = None, args: list[Expr] = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.type = ClassType() if type is None else type
        self.args = [] if args is None else args


class Assign(Expr):
    __slots__ = ("name", "value")

    def __init__(self, name: str = "", value: Expr = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name
        self.value = Expr() if value is None else value


class FieldGet(Expr):
    __slots__ = ("receiver", "field_name")

    def __init__(self, receiver: Expr = None, field_name: str = "",
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.receiver = Expr() if receiver is None else receiver
        self.field_name = field_name


class FieldSet(Expr):
    __slots__ = ("receiver", "field_name", "value")

    def __init__(self, receiver: Expr = None, field_name: str = "",
                 value: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.receiver = Expr() if receiver is None else receiver
        self.field_name = field_name
        self.value = Expr() if value is None else value


class OpAssign(Expr):
    """Surface `target op= value` (target is a Var or FieldGet); desugars to
    Assign/FieldSet with a PrimOp, but survives parsing for faithful emission."""

    __slots__ = ("target", "op", "value")

    def __init__(self, target: Expr = None, op: str = "+", value: Expr = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.target = Expr() if target is None else target
        self.op = op
        self.value = Expr() if value is None else value


class Call(Expr):
    __slots__ = ("receiver", "method", "args")

    def __init__(self, receiver: Expr = None, method: str = "",
                 args: list[Expr] = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.receiver = Expr() if receiver is None else receiver
        self.method = method
        self.args = [] if args is None else args


class PrimOp(Expr):
    __slots__ = ("op", "args")

    def __init__(self, op: str = "+", args: list[Expr] = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.op = op
        self.args = [] if args is None else args


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


class Seq(Expr):
    __slots__ = ("first", "second")

    def __init__(self, first: Expr = None, second: Expr = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.first = Expr() if first is None else first
        self.second = Expr() if second is None else second


class Let(Expr):
    """Local declaration; scopes over the rest of the enclosing Seq chain.
    type is None for compiler-introduced temporaries (inferred)."""

    __slots__ = ("name", "type", "init")

    def __init__(self, name: str = "", type: TypeExpr | None = None,
                 init: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name
        self.type = type
        self.init = Expr() if init is None else init


class Atomic(Expr):
    __slots__ = ("contract", "body", "deduced")
    _loose = ("line", "col", "deduced")

    def __init__(self, contract: Contract | None = None, body: Expr = None,
                 deduced: bool = False, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.contract = contract
        self.body = Expr() if body is None else body
        self.deduced = deduced


class Fork(Expr):
    __slots__ = ("body",)

    def __init__(self, body: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.body = Expr() if body is None else body


class Valid(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.value = Expr() if value is None else value


class Require(Expr):
    __slots__ = ("cond",)

    def __init__(self, cond: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.cond = Expr() if cond is None else cond


class EmitEvent(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str = "", args: list[Expr] = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name
        self.args = [] if args is None else args


class Throw(Expr):
    """Surface `throw;` -- desugars to require(false)."""

    __slots__ = ()


class Return(Expr):
    """Surface `return e;` (tail position only); desugar strips it."""

    __slots__ = ("value",)

    def __init__(self, value: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.value = Expr() if value is None else value


class Block(Expr):
    """Surface statement block; desugars to a Seq/Let chain."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: list[Expr] = None, *, line: int = 0,
                 col: int = 0):
        self.line = line
        self.col = col
        self.stmts = [] if stmts is None else stmts


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

class FieldDecl(Node):
    __slots__ = ("type", "name", "init", "final")

    def __init__(self, type: TypeExpr = None, name: str = "",
                 init: Expr | None = None, final: bool = False,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.type = TypeExpr() if type is None else type
        self.name = name
        self.init = init
        self.final = final


class Param(Node):
    __slots__ = ("type", "name")

    def __init__(self, type: TypeExpr = None, name: str = "",
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.type = TypeExpr() if type is None else type
        self.name = name


class MethodDecl(Node):
    __slots__ = ("name", "return_type", "params", "contract", "body")

    def __init__(self, name: str = "", return_type: TypeExpr = None,
                 params: list[Param] = None, contract: Contract = None,
                 body: Expr = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name
        self.return_type = VoidType() if return_type is None else return_type
        self.params = [] if params is None else params
        self.contract = Contract() if contract is None else contract
        self.body = Expr() if body is None else body


class CtorDecl(Node):
    __slots__ = ("params", "body")

    def __init__(self, params: list[Param] = None, body: Expr = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.params = [] if params is None else params
        self.body = Expr() if body is None else body


class Constraint(Node):
    __slots__ = ("lhs", "strict", "rhs")

    def __init__(self, lhs: Context = None,
                 strict: bool = False,  # True for <<, False for <=
                 rhs: Context = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.lhs = CtxBot() if lhs is None else lhs
        self.strict = strict
        self.rhs = CtxBot() if rhs is None else rhs

    def __str__(self) -> str:
        rel = "<<" if self.strict else "<="
        return f"{self.lhs} {rel} {self.rhs}"


class ClassDecl(Node):
    __slots__ = ("name", "ctx_params", "superclass", "constraints",
                 "invariants", "fields", "ctors", "methods")

    def __init__(self, name: str = "", ctx_params: list[str] = None,
                 superclass: ClassType | None = None,
                 constraints: list[Constraint] = None,
                 invariants: list[Expr] = None,
                 fields: list[FieldDecl] = None, ctors: list[CtorDecl] = None,
                 methods: list[MethodDecl] = None,
                 *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.name = name
        self.ctx_params = [] if ctx_params is None else ctx_params
        self.superclass = superclass
        self.constraints = [] if constraints is None else constraints
        self.invariants = [] if invariants is None else invariants
        self.fields = [] if fields is None else fields
        self.ctors = [] if ctors is None else ctors
        self.methods = [] if methods is None else methods


class Program(Node):
    __slots__ = ("classes", "main")

    def __init__(self, classes: list[ClassDecl] = None,
                 main: Expr | None = None, *, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.classes = [] if classes is None else classes
        self.main = main
