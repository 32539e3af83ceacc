"""Small-step transactional interpreter.

Machine state: a lock flag, a heap, the set of locations currently known
valid, per-thread frame stacks, and a thread list reduced by deterministic
round-robin interleaving over the threads still live. Transactions nest
linearly; each keeps a write log, the locations it created (one
insertion-ordered dict), and a mark into the machine's undo log of
valid-set changes, so aborts restore exactly the pre-transaction state.
The root frame at the bottom of every thread never aborts and keeps none
of these. Constructors run as implicit <bot,this> transactions: a bot
validity needs no subtree at begin, so the allocation pushes the frame
itself (`_allocate`), and the commit checks what the constructor created
and no inner construction's commit already validated.

There are two evaluators and one transaction machinery: `_begin`,
`_commit`, `_abort`, `write_field` and allocation (`_allocate`).
`Machine.step` runs whole programs on the small-step machine, whose
threads interleave step by step. Deploys and block transactions run as
compiled closures (`closures.Compiled`), which charge exactly the steps
reduction takes: `blocksched` hands them the bound work itself. The
small-step machine is their reference, and it runs the entry node of
what the closures hand back undone (`Machine.run_expression`): a run that
could pass its fuel, one nested past their depth limit, a node with no
compile rule, an error.

`Machine._reduce` is the small-step machine's one step function. A
thread's control holds an expression node or a value itself, untagged: a
node with a rule in `_EXPR_RULES` (node class -> rule) is reduced by it,
any other node is E-STUCK, and anything else is a value, which goes to
the rule `_KONT_RULES` maps the innermost continuation's tag to. Both
tables are built once, below the Machine class; a tag with no rule is
E-STUCK too. One `args` continuation (`Machine._gather`) reduces the
arguments of a call, a `new`, an `emit` and an operator other than `&&`
and `||`, left to right; one `commit` continuation closes every
transaction, a construction's too, and is the one tag a failure unwinds
to (`_signal`).

What depends on the program alone is one `Code`, made once and shared by
every machine that runs the program: the class table, each class's plan,
`blocksched`'s entry nodes and the compiled bodies. Nothing compiled holds
a machine; each check and closure reads the machine it runs on.

Invariant clauses are not interpreted: each class's clauses are compiled
once per program, when the class is first allocated, into closures of the
machine and the location (`_compile`, by the compile rules of
`_PURE_RULES`), and `Machine.eval_invariant` calls them. A null, removed
or fieldless receiver, a non-bool `&&` or `||` operand, an operator error
such as division by zero, or a node class with no compile rule makes the
invariant false. What the runtime reads of a class (fields, method
lookups, constructor, invariant clauses) comes from the class table's one
record per class, `ClassTable.info`; the code keeps only what allocation
and the checks need, once per class (`Code.plan`).

Every runtime context is an ownership-tree node: a location's index, or
the class CtxTop or CtxBot (`resolve`). Binding maps, the `#ctx` env map
and a frame's V and I hold nodes, so resolving a contract is two look-ups
that build nothing (but see `_superclass_node`); a construction's frame
is <bot, l>, made from the new location alone. A frame's pre-check and
post-check sets are read, not computed: subtree(V) ∩ subtree(I) is
`OwnershipTree.meet`, a subtree the ownership tree stores in ascending
order, for any pair of nodes, and Bot, whose subtree is empty, is not
asked; a write escapes its frame unless `OwnershipTree.runtime_inside`
puts it in subtree(I). Only the tree knows what Top and Bot denote.

One rule spends every check: a location's invariant is evaluated only if
the location is not in the valid set. A begin checks meet(V, I_parent), a
commit meet(V, I) and what its transaction created, `valid x` subtree(x),
each less the valid set. This is sound because the valid set only ever
holds live objects whose invariants hold: a write drops the whole
ownership chain of its location, a location enters only after its
invariant is evaluated true, an abort restores the set exactly through
`sigma_log`, and invariants read only owned state (`E-INV-ESCAPE`). So a
commit re-checks exactly what its transaction invalidated or created.
`--naive` keeps blanket rechecking at commit and in `valid`, and the end
of a run (`_finish`) evaluates every live object, trusting nothing, to
report Lemma 3.

A body declared in class C reads C's parameters as the object's arguments
at C. At allocation an object gets one binding map per class on its
chain, keyed by class name: its own arguments at its class, and at each
superclass the type its class's record holds (`ClassInfo.supertypes`)
with the arguments put in and the object itself for `this`, so
allocation walks no chain. A method, a constructor and each class's
field initialisers run with `#ctx` set to their own class's map. So what
depends only on an object is fixed at its allocation and kept on it: its
`Loc` and those maps, from which each method and `atomic` contract is
read at its begin. Objects whose context arguments are all Top, as a
deployed object's are, share their class's maps (`_Plan.shared`).

Every use of a receiver (field read, field write, call, `valid`, deduced
`atomic`) meets a null or removed receiver through one helper,
`Machine._not_live`: R-NULL or E-DANGLING aborts the innermost
transaction. A deduced `atomic` call or field write checks its receiver
before its transaction begins, then goes on as the plain call or write.
An explicit and a deduced `atomic` begin through one helper,
`Machine._enter`.

Each heap slot is named at allocation by its creator (`set_creator`) and a
count of that creator's earlier allocations. The state hash spells objects,
locations and the valid set through these names, so it does not depend on
the order in which independent creators ran. A whole program is creator 0:
its names are its heap indices.
"""
from __future__ import annotations

import operator
import threading
from bisect import bisect_left
from typing import Any, Collection, Optional, Union

from . import ast
from .ast import (BOT, Contract, CtxAny, CtxBot, CtxLoc, CtxParam, CtxThis,
                  CtxTop)
from .diagnostics import OvError
from .ownership import OwnershipTree
from .typecheck import ClassTable

DEFAULT_FUEL = 1_000_000

# Held while a code's compiled bodies are made (`Machine.compiled`): machines
# on other host threads that share the code must get the same ones, since a
# plan's compiled parts read the state of the `closures.Compiled` that made
# them
_COMPILING = threading.Lock()

# A heap slot's name is its creator's number shifted left by NAME_BITS,
# plus the count of slots that creator allocated before it
NAME_BITS = 32


class _Frozen(ast.Record):
    """A record that never changes once made: hashable, equal by value, and
    pickled through its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])


class Loc(_Frozen):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)

    def __repr__(self) -> str:
        return f"l{self.index}"


class FailureValue(_Frozen):
    __slots__ = ("code", "msg")

    def __init__(self, code: str, msg: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "msg", msg)

    def __repr__(self) -> str:
        return f"failure({self.code})"


# a string, read only by annotations: an alias evaluated at import would be
# kept in typing's caches, and with it every copy of the package imported
Value = "Union[int, bool, None, Loc, FailureValue]"


class ObjectRec:
    __slots__ = ("class_name", "fields", "bindings")

    def __init__(self, class_name: str, fields: dict, bindings: dict):
        self.class_name = class_name
        self.fields = fields
        # class name -> {parameter: ownership-tree node}, per class on the
        # chain: what a body declared in that class reads as `#ctx`
        self.bindings = bindings


class _Plan:
    """One class's construction and checks, worked out once per class and
    program (`Code.plan`): its default field values, for each
    construction to copy; its construction as (class name, body) parts,
    superclass first: each class's field initialisers, the class's own
    followed by its constructor body; its constructor's parameter names;
    its invariant clauses, compiled (`_compile`); its parts compiled to
    closures, made on its first compiled construction
    (`closures.Compiled.parts`); and `shared`, the binding maps, never
    written, of every object allocated with only Top context arguments:
    None until the first, False if a superclass argument is `this`."""
    __slots__ = ("defaults", "parts", "params", "checks", "compiled",
                 "shared")

    def __init__(self, defaults: dict, parts: list, params: tuple,
                 checks: tuple, per_object: bool):
        self.defaults = defaults
        self.parts = parts
        self.params = params
        self.checks = checks
        self.compiled: Optional[tuple] = None
        self.shared = False if per_object else None


class Code:
    """What running a program needs that depends on the program alone,
    made once and shared by every machine that runs it: the class table,
    each class's `_Plan`, made on the class's first allocation (`plan`),
    the entry nodes of deploys and block transactions, which `blocksched`
    builds once per class or method and arity, and the compiled bodies
    (`closures.Compiled`), made on the first compiled run
    (`Machine.compiled`). Nothing here holds a machine: a compiled check
    or body is given the machine it runs on, so a dropped machine is freed
    at once, and nothing here grows with the heap."""
    __slots__ = ("program", "table", "plans", "entries", "compiled")

    def __init__(self, program: ast.Program):
        self.program = program
        self.table = ClassTable(program)
        self.plans: dict[str, _Plan] = {}
        self.entries: dict = {}
        self.compiled = None

    def plan(self, class_name: str) -> _Plan:
        """What allocating the class and checking its objects need."""
        hit = self.plans.get(class_name)
        if hit is None:
            info = self.table.info(class_name)
            defaults = {f.name: ast.default_init(f.type).value
                        for f in info.fields}
            parts = []
            expr = info.ctor.body if info.ctor is not None else ast.Const(None)
            for cls in info.chain:
                for f in reversed(cls.fields):
                    if f.init is not None:
                        init = ast.FieldSet(ast.This(), f.name, f.init)
                        expr = init if expr is None else ast.Seq(init, expr)
                if expr is not None:
                    parts.append((cls.name, expr))
                expr = None  # a superclass's part: its initialisers alone
            params = tuple(p.name for p in info.ctor.params) \
                if info.ctor is not None else ()
            checks = tuple(_compile(c) for c in info.invariants)
            per_object = any(type(a) is CtxThis
                             for sup in info.supertypes.values()
                             for a in sup.args)
            hit = self.plans[class_name] = _Plan(
                defaults, parts[::-1], params, checks, per_object)
        return hit


class Frame:
    __slots__ = ("kind", "validity", "invalidity", "log", "created",
                 "sigma_mark", "events")

    def __init__(self, kind: str, validity, invalidity, sigma_mark: int):
        self.kind = kind  # "root" | "txn" | "ctor"
        # the contract's V and I as ownership-tree nodes (`resolve`)
        self.validity = validity
        self.invalidity = invalidity
        self.log: list[tuple[int, str, Value]] = []
        # the locations the frame allocated, oldest first, as dict keys
        self.created: dict[int, None] = {}
        self.sigma_mark = sigma_mark  # length of Machine.sigma_log at begin
        self.events: list[dict] = []


# The bottom frame of every thread, shared: <top,top>. It never aborts, so
# it keeps no undo state: its containers are empty and immutable, and the
# events of a frame committed into it go straight to Machine.events.
ROOT_FRAME = Frame("root", CtxTop, CtxTop, 0)
ROOT_FRAME.log = ROOT_FRAME.created = ROOT_FRAME.events = ()

# continuation tags that consume their incoming value: a failure value
# arriving here aborts the enclosing transaction (or kills the thread)
_STRICT = {"bind", "fget", "fset_recv", "fset_val", "call_recv", "args",
           "andor", "valid", "require", "atom_recv"}


class Thread:
    __slots__ = ("tid", "control", "env", "konts", "frames", "done")

    def __init__(self, tid: int, expr: ast.Expr, env: dict):
        self.tid = tid
        self.control: Union[ast.Expr, Value] = expr
        self.env = env
        self.konts: list[tuple] = []
        self.frames: list[Frame] = [ROOT_FRAME]
        self.done = False


class FinalReport(ast.Record):
    __slots__ = ("lemma3", "objects", "valid", "pre_checks", "post_checks",
                 "invariant_evals", "events", "state_hash", "failures")

    def __init__(self, lemma3: bool, objects: int, valid: int,
                 pre_checks: int, post_checks: int, invariant_evals: int,
                 events: list, state_hash: str,
                 failures: list = None):  # not part of the schema
        self.lemma3 = lemma3
        self.objects = objects
        self.valid = valid
        self.pre_checks = pre_checks
        self.post_checks = post_checks
        self.invariant_evals = invariant_evals
        self.events = events
        self.state_hash = state_hash
        self.failures = [] if failures is None else failures

    def to_json(self) -> dict:
        return {
            "lemma3": self.lemma3,
            "objects": self.objects,
            "valid": self.valid,
            "pre_checks": self.pre_checks,
            "post_checks": self.post_checks,
            "invariant_evals": self.invariant_evals,
            "events": self.events,
            "state_hash": self.state_hash,
        }


class _InvFail(Exception):
    """Internal: invariant evaluation hit null/dangling/division by zero."""


def resolve(k: ast.Context, this: Value, ctx: Optional[dict]):
    """The ownership-tree node the context k denotes in a body run on
    `this` whose context parameters ctx binds: `this`'s index, a
    parameter's node, the class CtxTop or CtxBot, or a location's index.
    Anything else is E-STUCK."""
    kind = type(k)
    if kind is CtxThis:
        if type(this) is not Loc:
            raise OvError("E-STUCK", "this-context outside an object")
        return this.index
    if kind is CtxParam:
        if not ctx or k.name not in ctx:
            raise OvError("E-STUCK", f"unbound context parameter {k.name}")
        return ctx[k.name]
    if kind is CtxTop or kind is CtxBot:
        return kind
    if kind is CtxLoc:
        return k.index
    raise OvError("E-STUCK", f"context {k} cannot be resolved at runtime")


def _superclass_node(k: ast.Context, this: Loc, own: dict):
    """The node the superclass argument k denotes on `this`, whose class's
    parameters own binds; `*`, which denotes none, is kept as its text."""
    return str(k) if type(k) is CtxAny else resolve(k, this, own)


def not_live(v: Value, use: str) -> Optional[FailureValue]:
    """The failure a receiver v that is not a live object raises for the
    given use ("read from", "write to", "call on", "valid on"): R-NULL for
    null, E-DANGLING for a removed object; None for any other value."""
    if v is None:
        return FailureValue("R-NULL", "null dereference")
    if type(v) is Loc:
        return FailureValue("E-DANGLING", f"{use} a removed object l{v.index}")
    return None


def _serialize_value(v: Value) -> Any:
    if isinstance(v, Loc):
        return f"l{v.index}"
    return v


def _value_text(v: Value, names: list[int]) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Loc):
        return f"l{names[v.index]}"
    return "null"


def state_digest(texts: list, valid: list) -> str:
    """The state hash: SHA-256 over the live objects' texts
    (`Machine.object_texts`) in name order, then the names of the valid
    set in ascending order. Both come in any order. `Machine.state_hash`
    and the merge of a block run in regions both hash through here."""
    import hashlib  # here, not at the top: `ov check` never hashes
    texts = sorted(texts, key=operator.itemgetter(0))
    blob = "".join([text for _name, text in texts]) + "|valid=" + \
        ",".join(map(str, sorted(valid)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Machine:
    """One interpreter state; OV threads are interleaved deterministically,
    never run on host threads."""

    def __init__(self, program: ast.Program, seed: int = 0,
                 naive: bool = False, code: Optional[Code] = None):
        self.program = program
        # what depends on the program alone: the given code, which must be
        # the program's, or the program's own
        self.code = Code(program) if code is None else code
        self.table = self.code.table
        self.heap: list[Optional[ObjectRec]] = []
        # the one Loc of each heap slot, made at allocation
        self.locs: list[Loc] = []
        # the name of each heap slot, fixed at allocation (`set_creator`)
        self.names: list[int] = []
        self.next_name = 0
        self.sigma: set[int] = set()
        # membership changes to sigma, as (loc, added), since the outermost
        # begin; one log serves every thread, since alpha admits one thread
        # at a time into a transaction
        self.sigma_log: list[tuple[int, bool]] = []
        self.tree = OwnershipTree()
        self.threads: list[Thread] = []
        # ids of the threads not yet done, ascending: the round-robin order
        self.live: list[int] = []
        self.cursor = seed
        self.alpha: Optional[int] = None
        self.naive = naive
        self.pre_checks = 0
        self.post_checks = 0
        self.invariant_evals = 0
        self.root_commits = 0  # frames committed straight into a root frame
        self.events: list[dict] = []
        self.failures: list[dict] = []
        self.steps = 0
        if program.main is not None:
            self._spawn(program.main, {"#ctx": {}})

    # -- static helpers -------------------------------------------------------
    def _method_contract(self, obj: ObjectRec, loc: int,
                         owner_cls: ast.ClassDecl,
                         m: ast.MethodDecl) -> tuple:
        """m's V and I as nodes, as m's body reads them on obj at loc:
        under obj's binding map at m's declaring class."""
        return self._contract_nodes(m.contract, self.locs[loc],
                                    obj.bindings.get(owner_cls.name))

    def _contract_nodes(self, d: Contract, this: Value,
                        ctx: Optional[dict]) -> tuple:
        """d's V and I as the nodes they denote in a body run on `this`
        whose context parameters ctx binds (`resolve`), as a frame holds
        them."""
        return resolve(d.validity, this, ctx), resolve(d.invalidity, this, ctx)

    # -- heap / valid set ------------------------------------------------------
    def dom(self) -> list[int]:
        """The live locations, ascending."""
        return list(self.tree.live)

    def eval_invariant(self, loc: int) -> bool:
        self.invariant_evals += 1
        obj = self.heap[loc]
        if obj is None:
            return False
        try:
            for check in self.code.plan(obj.class_name).checks:
                if check(self, loc) is not True:
                    return False
        except _InvFail:
            return False
        return True

    def _mark_valid(self, loc: int) -> None:
        if loc not in self.sigma:
            self.sigma.add(loc)
            self.sigma_log.append((loc, True))

    def _mark_invalid(self, loc: int) -> None:
        if loc in self.sigma:
            self.sigma.remove(loc)
            self.sigma_log.append((loc, False))

    def assert_valid(self, loc: int) -> bool:
        """`valid loc`: does every invariant in subtree(loc) hold? A
        member of the valid set is known to hold and is not evaluated
        again, except under `--naive`."""
        result = True
        sigma = self.sigma
        for m in self.tree.runtime_subtree(loc):
            if m in sigma and not self.naive:
                continue
            if self.eval_invariant(m):
                self._mark_valid(m)
            else:
                self._mark_invalid(m)
                result = False
        return result

    def write_field(self, thread: Thread, loc: int, fname: str,
                    value: Value) -> None:
        """Write to the live object at loc, inside the active frame."""
        obj = self.heap[loc]
        frame = thread.frames[-1]
        chain = self.tree.runtime_inside(loc, frame.invalidity)
        if chain is None:
            raise OvError("E-EFFECT",
                          f"write to l{loc}.{fname} escapes the active frame")
        # the root frame never aborts, so its writes need no undo entry
        if frame.kind != "root" and loc not in frame.created:
            frame.log.append((loc, fname, obj.fields.get(fname)))
        obj.fields[fname] = value
        sigma = self.sigma
        for anc in chain:
            if anc in sigma:  # Top, which ends the chain, never is
                self._mark_invalid(anc)

    # -- transactions -----------------------------------------------------------
    def _begin(self, thread: Thread, validity,
               invalidity) -> Optional[FailureValue]:
        """Begin a transaction frame whose contract's V and I are the
        ownership-tree nodes validity and invalidity: check meet(V,
        I_parent) less the valid set, or fail with R-PRE-FAIL. A bot
        validity checks nothing and cannot fail. A location not in the
        tree is E-DANGLING, V's first."""
        chains = self.tree.chains
        if validity not in chains or invalidity not in chains:
            self.tree.chain(validity)
            self.tree.chain(invalidity)
        parent = thread.frames[-1]
        if parent.kind == "root":
            self.sigma_log.clear()
        # mark before the pre-checks: an abort must restore the exact
        # pre-begin state hash, so validity knowledge recovered at begin
        # may not outlive the transaction
        mark = len(self.sigma_log)
        if validity is not CtxBot:
            start = self.tree.meet(validity, parent.invalidity)
            if self.naive:
                self.pre_checks += len(self.tree.runtime_subtree(validity))
            for loc in start:
                if loc in self.sigma:
                    continue
                if not self.naive:
                    self.pre_checks += 1
                if self.eval_invariant(loc):
                    self._mark_valid(loc)
                else:
                    return FailureValue("R-PRE-FAIL",
                                        "Validity fails pre-check")
        thread.frames.append(Frame("txn", validity, invalidity, mark))
        if len(thread.frames) == 2:
            self.alpha = thread.tid
        return None

    def _commit(self, thread: Thread) -> Optional[FailureValue]:
        """Commit the innermost frame: check meet(V, I) and what it
        created, less the valid set, or abort it with R-POST-FAIL."""
        frame = thread.frames[-1]
        validity = frame.validity
        created = frame.created
        reval: Collection[int] = () if validity is CtxBot else \
            self.tree.meet(validity, frame.invalidity)
        if created:
            reval = created.keys() | reval if reval else created
        if self.naive:
            self.post_checks += len(
                created.keys() | self.tree.runtime_subtree(validity))
        else:
            # the valid set vouches for its members: check only what the
            # transaction invalidated or created and has not yet validated
            sigma = self.sigma
            reval = [loc for loc in reval if loc not in sigma]
            self.post_checks += len(reval)
        # every check runs, in any order: a check changes nothing
        ok = True
        for loc in reval:
            if not self.eval_invariant(loc):
                ok = False
        if not ok:
            self._abort(thread)
            return FailureValue("R-POST-FAIL", "Validity fails post-check")
        for loc in reval:
            self._mark_valid(loc)
        thread.frames.pop()
        parent = thread.frames[-1]
        if parent.kind == "root":
            # the root frame never aborts: it keeps no undo state
            self.events.extend(frame.events)
            self.alpha = None
            self.root_commits += 1
        else:
            parent.log.extend(frame.log)
            parent.created.update(frame.created)
            parent.events.extend(frame.events)
        return None

    def _abort(self, thread: Thread) -> None:
        frame = thread.frames.pop()
        for loc, fname, old in reversed(frame.log):
            obj = self.heap[loc]
            if obj is not None:
                obj.fields[fname] = old
        for loc in reversed(frame.created):
            self.heap[loc] = None
            self.tree.remove(loc)
        log = self.sigma_log
        while len(log) > frame.sigma_mark:
            loc, added = log.pop()
            if added:
                self.sigma.remove(loc)
            else:
                self.sigma.add(loc)
        if len(thread.frames) == 1:
            self.alpha = None

    def _signal(self, thread: Thread, fv: FailureValue) -> None:
        """Deliver a failure: abort the innermost transaction, or, with no
        live transaction, terminate the thread."""
        if len(thread.frames) == 1:
            thread.konts.clear()
            thread.control = fv
            thread.done = True
            self.failures.append({"code": fv.code, "msg": fv.msg,
                                  "thread": thread.tid})
            return
        saved_env = None
        while thread.konts:
            k = thread.konts.pop()
            if k[0] == "commit":
                saved_env = k[1]
                break
        if saved_env is None:
            raise OvError("E-STUCK", "transaction frame without a commit mark")
        self._abort(thread)
        thread.env = saved_env
        thread.control = fv

    # -- scheduling ---------------------------------------------------------------
    def _spawn(self, expr: ast.Expr, env: dict) -> None:
        tid = len(self.threads)
        self.threads.append(Thread(tid, expr, env))
        self.live.append(tid)

    def step(self) -> bool:
        """Reduce one thread: the one inside a transaction if there is one,
        else the first live thread at or after the cursor, in id order,
        wrapping around. False when no thread is live."""
        live = self.live
        if self.alpha is not None:
            t = self.threads[self.alpha]
        elif live:
            pos = bisect_left(live, self.cursor % len(self.threads))
            t = self.threads[live[pos] if pos < len(live) else live[0]]
            self.cursor = t.tid + 1
        else:
            return False
        self._reduce(t)
        self.steps += 1
        if t.done:
            del live[bisect_left(live, t.tid)]
        return True

    def run(self, fuel: int = DEFAULT_FUEL) -> FinalReport:
        while self.steps < fuel:
            if not self.step():
                return self._finish()
        if self.live:
            raise OvError("E-FUEL", f"step budget of {fuel} exhausted")
        return self._finish()

    def _finish(self) -> FinalReport:
        # root commit: global revalidation under the <top,top> frame
        live = self.dom()
        self.post_checks += len(live)
        final_sigma = {loc for loc in live if self.eval_invariant(loc)}
        self.sigma = final_sigma
        lemma3 = final_sigma == set(live)
        if not lemma3:
            bad = sorted(set(live) - final_sigma)
            self.failures.append({
                "code": "R-POST-FAIL",
                "msg": "invalid at end of run: " + ", ".join(
                    f"l{i}" for i in bad),
                "thread": None,
            })
        return FinalReport(
            lemma3=lemma3,
            objects=len(live),
            valid=len(final_sigma),
            pre_checks=self.pre_checks,
            post_checks=self.post_checks,
            invariant_evals=self.invariant_evals,
            events=[{"name": ev["name"],
                     "args": [_serialize_value(a) for a in ev["args"]]}
                    for ev in self.events],
            state_hash=self.state_hash(),
            failures=list(self.failures),
        )

    def compiled(self):
        """The program's compiled bodies (`closures.Compiled`), kept in its
        code and made on the first compiled run of any of its machines."""
        compiled = self.code.compiled
        if compiled is None:
            with _COMPILING:
                compiled = self.code.compiled
                if compiled is None:
                    from . import closures
                    compiled = self.code.compiled = closures.Compiled(
                        self.table)
        return compiled

    def run_expression(self, expr: ast.Expr, env: Optional[dict] = None,
                       fuel: int = DEFAULT_FUEL) -> Value:
        """Run one expression to completion on a private thread of the
        small-step machine; the heap and counters are shared with the
        machine. Past `fuel` steps every transaction the expression opened
        is aborted and E-FUEL raised. It is the reference of every compiled
        run, and it runs the entry node of whatever deploy or transaction
        the compiled evaluator hands back."""
        env = dict(env) if env else {"#ctx": {}}
        t = Thread(-1, expr, env)
        reduce = self._reduce
        steps = 0
        try:
            while not t.done:
                if steps >= fuel:
                    # a runaway expression leaves no trace: undo every open
                    # transaction of its thread before giving up
                    while len(t.frames) > 1:
                        self._abort(t)
                    raise OvError("E-FUEL", f"step budget of {fuel} exhausted")
                reduce(t)
                steps += 1
        finally:
            self.steps += steps
        return t.control

    def set_creator(self, creator: int) -> None:
        """Name the slots allocated from now on as the creator numbered
        `creator`: see NAME_BITS. A machine starts as creator 0, so a whole
        program's slots are named by their heap indices."""
        self.next_name = creator << NAME_BITS

    def object_texts(self) -> list[tuple[int, str]]:
        """(name, text) of each live object, in heap order. The text is
        `l<name>=`, the object's class and its field values in declaration
        order, with a location spelled as its slot's name."""
        names = self.names
        info = self.table.info
        out = []
        for i, obj in enumerate(self.heap):
            if obj is not None:
                body = ",".join([f"{f}={_value_text(obj.fields.get(f), names)}"
                                 for f in info(obj.class_name).field_names])
                text = f"l{names[i]}={obj.class_name}{{{body}}};"
                out.append((names[i], text))
        return out

    def valid_names(self) -> list[int]:
        """The names of the valid set's slots, in no order."""
        names = self.names
        return [names[i] for i in self.sigma]

    def state_hash(self) -> str:
        return state_digest(self.object_texts(), self.valid_names())

    # -- reduction -------------------------------------------------------------
    def _reduce(self, t: Thread) -> None:
        """One step of thread t. Control holding a node with a rule in
        _EXPR_RULES reduces by that rule; any other node is stuck. A value
        is consumed by the rule _KONT_RULES holds for the tag of the
        innermost continuation."""
        x = t.control
        rule = _EXPR_RULES.get(type(x))
        if rule is not None:
            rule(self, t, x)
            return
        if isinstance(x, ast.Node):
            raise OvError("E-STUCK", f"no reduction for {type(x).__name__}",
                          x.line, x.col)
        if not t.konts:
            t.done = True
            if type(x) is FailureValue:
                self.failures.append({"code": x.code, "msg": x.msg,
                                      "thread": t.tid})
            return
        k = t.konts.pop()
        if type(x) is FailureValue and k[0] in _STRICT:
            self._signal(t, x)
            return
        rule = _KONT_RULES.get(k[0])
        if rule is None:
            raise OvError("E-STUCK", f"unknown continuation {k[0]}")
        rule(self, t, x, k)

    # -- expression rules: (thread, node) ----------------------------------------
    def _x_const(self, t: Thread, e: ast.Const) -> None:
        t.control = e.value

    def _x_var(self, t: Thread, e: ast.Var) -> None:
        if e.name not in t.env:
            raise OvError("E-STUCK", f"unbound variable {e.name}",
                          e.line, e.col)
        t.control = t.env[e.name]

    def _x_this(self, t: Thread, e: ast.This) -> None:
        t.control = t.env.get("this")

    def _x_seq(self, t: Thread, e: ast.Seq) -> None:
        t.konts.append(("seq", e.second))
        t.control = e.first

    def _x_let(self, t: Thread, e: ast.Let) -> None:
        t.konts.append(("bind", e.name))
        t.control = e.init

    def _x_assign(self, t: Thread, e: ast.Assign) -> None:
        t.konts.append(("bind", e.name))
        t.control = e.value

    def _x_field_get(self, t: Thread, e: ast.FieldGet) -> None:
        t.konts.append(("fget", e.field_name, e))
        t.control = e.receiver

    def _x_field_set(self, t: Thread, e: ast.FieldSet) -> None:
        t.konts.append(("fset_recv", e))
        t.control = e.receiver

    def _x_call(self, t: Thread, e: ast.Call) -> None:
        t.konts.append(("call_recv", e))
        t.control = e.receiver

    def _x_new(self, t: Thread, e: ast.New) -> None:
        self._gather(t, e.args, Machine._do_new, e)

    def _x_prim(self, t: Thread, e: ast.PrimOp) -> None:
        if e.op in ("&&", "||"):
            t.konts.append(("andor", e.op, e.args[1]))
            t.control = e.args[0]
        else:
            self._gather(t, e.args, Machine._do_op, e)

    def _x_atomic(self, t: Thread, e: ast.Atomic) -> None:
        if e.deduced:
            t.konts.append(("atom_recv", e))
            t.control = e.body.receiver
            return
        if e.contract is None:
            raise OvError("E-STUCK", "atomic without a contract", e.line, e.col)
        env = t.env
        if self._enter(t, *self._contract_nodes(e.contract, env.get("this"),
                                                env.get("#ctx"))):
            t.control = e.body

    def _x_fork(self, t: Thread, e: ast.Fork) -> None:
        self._spawn(e.body, dict(t.env))
        t.control = None

    def _x_valid(self, t: Thread, e: ast.Valid) -> None:
        t.konts.append(("valid", e))
        t.control = e.value

    def _x_require(self, t: Thread, e: ast.Require) -> None:
        t.konts.append(("require", e))
        t.control = e.cond

    def _x_emit(self, t: Thread, e: ast.EmitEvent) -> None:
        self._gather(t, e.args, Machine._emit, e)

    def _gather(self, t: Thread, args: list, finish, head) -> None:
        """Reduce args left to right, then call finish(self, t, head,
        values): the `args` continuation counts the values gathered."""
        if args:
            t.konts.append(("args", args, [], finish, head))
            t.control = args[0]
        else:
            finish(self, t, head, [])

    def _enter(self, t: Thread, validity, invalidity) -> bool:
        """Begin a transaction whose contract's V and I are these
        ownership-tree nodes and mark its commit; False, with the failure
        as t's control, when the pre-check fails."""
        fv = self._begin(t, validity, invalidity)
        if fv is not None:
            t.control = fv
            return False
        t.konts.append(("commit", t.env))
        return True

    def _invoke(self, t: Thread, target: tuple[int, ast.Call],
                args: list) -> None:
        """Call target, the receiver's location and the call node."""
        loc, node = target
        method = node.method
        obj = self.heap[loc]
        if obj is None:
            self._not_live(t, self.locs[loc], "call on", node)
            return
        hit = self.table.find_method(obj.class_name, method)
        if hit is None:
            raise OvError("E-STUCK", f"no method {method} on {obj.class_name}",
                          node.line, node.col)
        owner_cls, m = hit
        if self.naive:
            self.pre_checks += len(self.tree.runtime_subtree(loc))
        if len(args) != len(m.params):
            raise OvError("E-STUCK", f"arity mismatch calling {method}",
                          node.line, node.col)
        t.konts.append(("ret", t.env, loc))
        # the env of a body declared in owner_cls, run on obj at loc
        env = {"this": self.locs[loc],
               "#ctx": obj.bindings.get(owner_cls.name)}
        for p, v in zip(m.params, args):
            env[p.name] = v
        t.env = env
        t.control = m.body

    def _do_new(self, t: Thread, node: ast.New, args: list) -> None:
        this, bindings, plan = self._construct(t, node, t.env, len(args))
        # the construction's value is the new object, not its body's
        t.konts.append(("commit", t.env, this))
        for name, body in plan.parts[:0:-1]:
            t.konts.append(("init", bindings.get(name), body))
        name, body = plan.parts[0]
        env = {"this": this, "#ctx": bindings.get(name)}
        env.update(zip(plan.params, args))
        t.env = env
        t.control = body

    def _construct(self, t: Thread, node: ast.New, env: dict,
                   nargs: int) -> tuple[Loc, dict, _Plan]:
        """Allocate the object of `node` with nargs constructor arguments,
        its context arguments resolved in env, and begin its construction
        frame on t (`_allocate`). An unknown class and a wrong number of
        context arguments are E-STUCK."""
        typ = node.type
        info = self.table.info(typ.name)
        if info is None or len(typ.args) != len(info.decl.ctx_params):
            raise OvError("E-STUCK", f"cannot instantiate {typ}",
                          node.line, node.col)
        this, ctx = env.get("this"), env.get("#ctx")
        return self._allocate(t, node, info,
                              [resolve(a, this, ctx) for a in typ.args],
                              nargs)

    def _allocate(self, t: Thread, node: ast.New, info, resolved: list,
                  nargs: int) -> tuple[Loc, dict, _Plan]:
        """Allocate an object of node's class, whose record is info, with
        the context arguments resolved to the nodes `resolved` and nargs
        constructor arguments, and push its construction frame on t,
        <bot, l>, which checks nothing: the allocation both evaluators
        make, a deploy's too. Returns the new object, its binding map per
        class, shared if it can be (`_Plan.shared`), and its class's plan.
        A wrong number of constructor arguments and an owner that is
        neither a location nor Top are E-STUCK."""
        typ = node.type
        owner = resolved[0] if resolved else CtxTop
        if owner is CtxTop:
            owner = None
        elif type(owner) is not int:  # Bot, or a name kept for `*`
            raise OvError("E-STUCK", "object owner resolved to "
                          f"{BOT if owner is CtxBot else owner}",
                          node.line, node.col)
        loc = len(self.heap)
        this = Loc(loc)
        plan = self.code.plan(typ.name)
        shared = plan.shared is not False and \
            resolved.count(CtxTop) == len(resolved)
        bindings = plan.shared if shared else None
        if bindings is None:
            own = dict(zip(info.decl.ctx_params, resolved))
            bindings = {typ.name: own}
            for name, sup in info.supertypes.items():
                bindings[name] = dict(zip(self.table.get(name).ctx_params,
                                          [_superclass_node(a, this, own)
                                           for a in sup.args]))
            if shared:
                plan.shared = bindings
        self.heap.append(ObjectRec(typ.name, dict(plan.defaults), bindings))
        self.locs.append(this)
        self.names.append(self.next_name)
        self.next_name += 1
        self.tree.add(loc, owner)
        if len(t.frames) == 1:  # the log starts at an outermost frame
            self.sigma_log.clear()
            self.alpha = t.tid
        t.frames.append(Frame("ctor", CtxBot, loc, len(self.sigma_log)))
        t.frames[-1].created[loc] = None
        if nargs != len(plan.params):
            raise OvError("E-STUCK", f"constructor arity mismatch for {typ.name}",
                          node.line, node.col)
        return this, bindings, plan

    def _do_op(self, t: Thread, node: ast.PrimOp, vals: list) -> None:
        op = node.op
        try:
            t.control = _apply_op(op, vals)
        except ZeroDivisionError:
            self._signal(t, FailureValue("R-DIV0", "division by zero"))
        except TypeError:
            raise OvError("E-STUCK", f"operator {op} on unexpected operands",
                          node.line, node.col) from None

    def _emit(self, t: Thread, node: ast.EmitEvent, args: list) -> None:
        frame = t.frames[-1]
        event = {"name": node.name, "args": args}
        if frame.kind == "root":
            self.events.append(event)
        else:
            frame.events.append(event)
        t.control = None

    # -- continuation rules: (thread, incoming value, continuation) ---------------
    def _k_seq(self, t: Thread, v: Value, k: tuple) -> None:
        t.control = v if type(v) is FailureValue else k[1]

    def _k_bind(self, t: Thread, v: Value, k: tuple) -> None:
        t.env[k[1]] = v
        t.control = None

    def _not_live(self, t: Thread, v: Value, use: str,
                  node: ast.Node) -> None:
        """The fault of a receiver v that is not a live object, for the
        given use ("read from", "write to", "call on", "valid on"): R-NULL
        for null and E-DANGLING for a removed object, both delivered to t;
        E-STUCK, which typing rules out, for any other value."""
        fv = not_live(v, use)
        if fv is None:
            raise OvError("E-STUCK", f"{use} a non-object",
                          node.line, node.col)
        self._signal(t, fv)

    def _k_fget(self, t: Thread, v: Value, k: tuple) -> None:
        _, fname, node = k
        obj = self.heap[v.index] if type(v) is Loc else None
        if obj is None:
            self._not_live(t, v, "read from", node)
            return
        if fname not in obj.fields:
            raise OvError("E-STUCK", f"no field {fname} on {obj.class_name}",
                          node.line, node.col)
        t.control = obj.fields[fname]

    def _k_fset_recv(self, t: Thread, v: Value, k: tuple) -> None:
        node = k[1]
        if type(v) is not Loc:
            self._not_live(t, v, "write to", node)
            return
        t.konts.append(("fset_val", v.index, node))
        t.control = node.value

    def _k_fset_val(self, t: Thread, v: Value, k: tuple) -> None:
        _, loc, node = k
        if self.heap[loc] is None:
            self._not_live(t, self.locs[loc], "write to", node)
            return
        self.write_field(t, loc, node.field_name, v)
        t.control = None

    def _k_call_recv(self, t: Thread, v: Value, k: tuple) -> None:
        node = k[1]
        if type(v) is not Loc:
            self._not_live(t, v, "call on", node)
            return
        self._gather(t, node.args, Machine._invoke, (v.index, node))

    def _k_args(self, t: Thread, v: Value, k: tuple) -> None:
        _, args, done, finish, head = k
        done.append(v)
        if len(done) < len(args):
            t.konts.append(k)
            t.control = args[len(done)]
        else:
            finish(self, t, head, done)

    def _k_andor(self, t: Thread, v: Value, k: tuple) -> None:
        _, op, right = k
        if not isinstance(v, bool):
            raise OvError("E-STUCK", f"{op} on a non-boolean")
        if (op == "&&" and v is False) or (op == "||" and v is True):
            t.control = v
        else:
            t.control = right

    def _k_valid(self, t: Thread, v: Value, k: tuple) -> None:
        if type(v) is Loc and self.heap[v.index] is not None:
            t.control = self.assert_valid(v.index)
        elif v is None:
            t.control = False
        else:
            self._not_live(t, v, "valid on", k[1])

    def _k_require(self, t: Thread, v: Value, k: tuple) -> None:
        if v is True:
            t.control = True
        elif v is False:
            self._signal(t, FailureValue("R-REQUIRE", "requirement failed"))
        else:
            raise OvError("E-STUCK", "require on a non-boolean")

    def _k_ret(self, t: Thread, v: Value, k: tuple) -> None:
        _, saved_env, recv_loc = k
        if self.naive and self.heap[recv_loc] is not None:
            self.post_checks += len(self.tree.runtime_subtree(recv_loc))
        t.env = saved_env
        t.control = v

    def _k_commit(self, t: Thread, v: Value, k: tuple) -> None:
        """Close the innermost transaction. Its value is v, its body's, or
        for a construction the new object the continuation holds."""
        fv = self._commit(t)
        t.env = k[1]
        t.control = fv if fv is not None else k[2] if len(k) > 2 else v

    def _k_init(self, t: Thread, v: Value, k: tuple) -> None:
        """The next class's part of a construction (`Code.plan`), under its
        bindings; v is None, from the previous part's last field write."""
        t.env["#ctx"] = k[1]
        t.control = k[2]

    def _k_atom_recv(self, t: Thread, v: Value, k: tuple) -> None:
        """The receiver v of a deduced `atomic` call or field write. The
        transaction begins only on a live receiver, with the called
        method's contract read on it, or <bot, l_v> for a write;
        the body then goes on as a plain call or write on v."""
        node: ast.Atomic = k[1]
        body = node.body
        call = type(body) is ast.Call
        obj = self.heap[v.index] if type(v) is Loc else None
        if obj is None:
            self._not_live(t, v, "call on" if call else "write to", node)
            return
        if call:
            hit = self.table.find_method(obj.class_name, body.method)
            if hit is None:
                raise OvError("E-STUCK", f"no method {body.method}",
                              node.line, node.col)
            nodes = self._method_contract(obj, v.index, *hit)
        else:
            nodes = (CtxBot, v.index)  # <bot, l_v>
        if not self._enter(t, *nodes):
            return
        if call:
            self._gather(t, body.args, Machine._invoke, (v.index, body))
        else:
            t.konts.append(("fset_val", v.index, body))
            t.control = body.value


# The reduction rules, built once. Surface-only nodes (Block, Return, Throw,
# OpAssign) have no rule: desugaring removes them, and meeting one is E-STUCK.
_EXPR_RULES = {
    ast.Const: Machine._x_const,
    ast.Var: Machine._x_var,
    ast.This: Machine._x_this,
    ast.Seq: Machine._x_seq,
    ast.Let: Machine._x_let,
    ast.Assign: Machine._x_assign,
    ast.FieldGet: Machine._x_field_get,
    ast.FieldSet: Machine._x_field_set,
    ast.Call: Machine._x_call,
    ast.New: Machine._x_new,
    ast.PrimOp: Machine._x_prim,
    ast.Atomic: Machine._x_atomic,
    ast.Fork: Machine._x_fork,
    ast.Valid: Machine._x_valid,
    ast.Require: Machine._x_require,
    ast.EmitEvent: Machine._x_emit,
}
_KONT_RULES = {
    "seq": Machine._k_seq,
    "bind": Machine._k_bind,
    "fget": Machine._k_fget,
    "fset_recv": Machine._k_fset_recv,
    "fset_val": Machine._k_fset_val,
    "call_recv": Machine._k_call_recv,
    "args": Machine._k_args,
    "andor": Machine._k_andor,
    "valid": Machine._k_valid,
    "require": Machine._k_require,
    "ret": Machine._k_ret,
    "commit": Machine._k_commit,
    "init": Machine._k_init,
    "atom_recv": Machine._k_atom_recv,
}


# -- invariant compilation ---------------------------------------------------
# A clause part compiles to a check: a function of the machine and the
# location of the object whose invariant is evaluated, returning the part's
# value there, or raising _InvFail where the whole invariant is false: a
# null, removed or fieldless receiver, a non-bool && or || operand, an
# _apply_op error, or a node with no compile rule. A check reads the heap of
# the machine it is given, so one compiled check serves every machine.
Check = "Callable[[Machine, int], Value]"


def _compile(e: ast.Expr) -> Check:
    """e compiled by the rule _PURE_RULES holds for its node class."""
    rule = _PURE_RULES.get(type(e))
    return _no_rule if rule is None else rule(e)


def _no_rule(m: Machine, this_loc: int) -> Value:
    raise _InvFail


def _c_const(e: ast.Const) -> Check:
    value = e.value
    return lambda m, this_loc: value


def _c_this(e: ast.This) -> Check:
    return lambda m, this_loc: m.locs[this_loc]


def _c_field_get(e: ast.FieldGet) -> Check:
    receiver = _compile(e.receiver)
    name = e.field_name

    def field_get(m: Machine, this_loc: int) -> Value:
        recv = receiver(m, this_loc)
        if type(recv) is not Loc:
            raise _InvFail
        heap = m.heap
        obj = heap[recv.index] if recv.index < len(heap) else None
        if obj is None or name not in obj.fields:
            raise _InvFail
        return obj.fields[name]
    return field_get


def _c_prim(e: ast.PrimOp) -> Check:
    op = e.op
    args = [_compile(a) for a in e.args]
    if op in ("&&", "||"):
        left, right = args
        decides = op == "||"  # the left value that is the result

        def andor(m: Machine, this_loc: int) -> Value:
            a = left(m, this_loc)
            if type(a) is not bool:
                raise _InvFail
            if a is decides:
                return a
            b = right(m, this_loc)
            if type(b) is not bool:
                raise _InvFail
            return b
        return andor

    if len(args) == 2:
        left, right = args
        pair = pair_op(op)

        def binary(m: Machine, this_loc: int) -> Value:
            a = left(m, this_loc)
            b = right(m, this_loc)
            try:
                return pair(a, b)
            except (ZeroDivisionError, TypeError):
                raise _InvFail from None
        return binary

    def apply(m: Machine, this_loc: int) -> Value:
        vals = [a(m, this_loc) for a in args]
        try:
            return _apply_op(op, vals)
        except (ZeroDivisionError, TypeError):
            raise _InvFail from None
    return apply


# The compile rules: a clause that typechecks holds no other node class.
_PURE_RULES = {
    ast.Const: _c_const,
    ast.This: _c_this,
    ast.FieldGet: _c_field_get,
    ast.PrimOp: _c_prim,
}


def _div(a: int, b: int) -> int:
    """a / b rounded toward zero, as Solidity divides."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _mod(a: int, b: int) -> int:
    """The remainder of _div, with the sign of a: a == _div(a, b) * b +
    _mod(a, b)."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# the binary operators on two integers; OV integers are exact ints (bool,
# a subclass of int, is not one). / and % truncate toward zero.
_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _div, "%": _mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


# the binary operators whose value on two integers is that of one function
# call: the integer operators and equality
_INT_PAIR_OPS = {**_INT_OPS, "==": operator.eq, "!=": operator.ne}


def pair_op(op: str):
    """Binary operator op as a function of its two operands: two integers
    take one call, any other pair `_apply_op`, whose errors it raises."""
    fn = _INT_PAIR_OPS.get(op)

    def apply(a: Value, b: Value) -> Value:
        if fn is not None and type(a) is int and type(b) is int:
            return fn(a, b)
        return _apply_op(op, [a, b])
    return apply


def _apply_op(op: str, vals: list) -> Value:
    """The value of operator op on vals. Operands of the wrong kind raise
    TypeError; integer division or remainder by zero, ZeroDivisionError."""
    if len(vals) == 1:
        a = vals[0]
        if op == "-":
            if isinstance(a, bool) or not isinstance(a, int):
                raise TypeError(op)
            return -a
        if op == "!":
            if not isinstance(a, bool):
                raise TypeError(op)
            return not a
        raise TypeError(op)
    a, b = vals
    if type(a) is int and type(b) is int:
        fn = _INT_OPS.get(op)
        if fn is not None:
            return fn(a, b)
    if op in ("==", "!="):
        eq = _value_eq(a, b)
        return eq if op == "==" else not eq
    if op in ("&&", "||"):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise TypeError(op)
        return (a and b) if op == "&&" else (a or b)
    raise TypeError(op)


def _value_eq(a: Value, b: Value) -> bool:
    if isinstance(a, Loc) or isinstance(b, Loc):
        return a == b
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        raise TypeError("==")
    return a == b
