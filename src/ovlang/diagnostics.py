"""Diagnostic records shared by every pipeline stage."""
from __future__ import annotations

from .ast import Record

# Registry of every diagnostic code the toolchain can emit, with its severity.
ERROR_CODES = {
    "E-PARSE": "syntax error",
    "E-CTX-WF": "context not well formed in this environment",
    "E-CTX-ARITY": "wrong number of context arguments",
    "E-NOT-CLASS": "context operation applied to a non-class type",
    "E-DANGLING": "location not present in the heap",
    "E-SUBCONTRACT": "contract is not a subcontract of the enclosing frame",
    "E-EFFECT": "write outside the declared invalidity set",
    "E-OWNER-CALL": "mutating call does not originate from the owner context",
    "E-FORK-IN-ATOMIC": "fork is only allowed at top level",
    "E-BIND-EXIST": "existential context cannot be the target of a binding",
    "E-TYPE": "type error",
    "E-NEED-CONTRACT": "atomic block needs an explicit contract",
    "E-INV-IMPURE": "invariant clause must be pure",
    "E-INV-ESCAPE": "invariant reads a field outside the owned subtree",
    "E-TARGET": "unknown transaction target",
    "E-BG-MISMATCH": "block graph omits an interfering pair",
    "E-TRANSPILE-CTX": "contract context not expressible in the target",
    "E-TRANSPILE-EXPR": "expression not expressible in the target",
    "E-STUCK": "no reduction rule applies",
    "E-FUEL": "fuel exhausted",
    "E-DEPTH": "input nests past the recursion limit",
}
WARNING_CODES = {
    "W-TOP-INVALIDITY": "invalidity position `top` normalized to `bot`",
}
ALL_CODES = {**ERROR_CODES, **WARNING_CODES}


class Diagnostic(Record):
    __slots__ = ("code", "msg", "line", "col")

    def __init__(self, code: str, msg: str, line: int = 0, col: int = 0):
        assert code in ALL_CODES, f"unknown diagnostic code {code}"
        self.code = code
        self.msg = msg
        self.line = line
        self.col = col

    @property
    def severity(self) -> str:
        return "warning" if self.code in WARNING_CODES else "error"

    def is_error(self) -> bool:
        return self.severity == "error"

    def to_json(self) -> str:
        import json
        return json.dumps(
            {
                "code": self.code,
                "severity": self.severity,
                "line": self.line,
                "col": self.col,
                "msg": self.msg,
            }
        )

    def render(self, color: bool = False) -> str:
        tag = self.severity
        if color:
            hue = "\x1b[31m" if self.is_error() else "\x1b[33m"
            tag = f"{hue}{tag}\x1b[0m"
        return f"{self.line}:{self.col}: {tag} {self.code}: {self.msg}"


class Diagnostics(Record):
    """Accumulator passed through the checker stages. `add` drops a
    diagnostic identical in code, message and position to one already
    added: a fault reached twice, such as the read and the write of a
    compound assignment, is reported once."""

    __slots__ = ("items", "_added")

    def __init__(self, items: list[Diagnostic] = None,
                 _added: set[tuple[str, str, int, int]] = None):
        self.items = [] if items is None else items
        self._added = set() if _added is None else _added

    def add(self, code: str, msg: str, line: int = 0, col: int = 0) -> None:
        key = (code, msg, line, col)
        if key not in self._added:
            self._added.add(key)
            self.items.append(Diagnostic(code, msg, line, col))

    def extend(self, other: "Diagnostics") -> None:
        self.items.extend(other.items)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.items if d.is_error()]

    def has_errors(self) -> bool:
        return any(d.is_error() for d in self.items)

    def codes(self) -> list[str]:
        return [d.code for d in self.items]

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


class OvError(Exception):
    """Raised for failures that abort an operation outright (I/O level, or
    internal ops whose spec names an error code rather than a diagnostic list)."""

    def __init__(self, code: str, msg: str, line: int = 0, col: int = 0):
        assert code in ALL_CODES, f"unknown diagnostic code {code}"
        super().__init__(f"{code}: {msg}")
        self.diagnostic = Diagnostic(code, msg, line, col)
        self.code = code
        self.msg = msg
