"""Ownership contexts: the static inside preorder, substitution, and the
runtime ownership tree.

A context denotes the subtree of the ownership tree rooted at it: Top is the
whole tree, Bot the empty set, This the current object, a parameter whatever
it was bound to. inside(k1,k2) means subtree(k1) is contained in subtree(k2).

The runtime tree (`OwnershipTree`) is the one place that knows what a
resolved context denotes. Top is its root, a node above every top-owned
location, so Top, Bot and locations are all nodes with an ancestor chain
and a subtree kept as an ascending list. The runtime resolves each
context straight to its node (`runtime.resolve`): a location's index, or
the class CtxTop or CtxBot. Every query takes nodes: "subtree(k1)
meets subtree(k2)" is a membership test on a stored chain, their meet
(`OwnershipTree.meet`) is a stored subtree, read, not walked, and the live
set is Top's subtree rather than a scan of the heap.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from . import ast
from .ast import (ANY, BOT, EXIST, THIS, TOP, Context, Contract, CtxAny,
                  CtxBot, CtxExist, CtxLoc, CtxParam, CtxThis, CtxTop)
from .diagnostics import OvError


class ContextEnv:
    """Static context environment of one class (or of main)."""

    def __init__(self, class_name: str = "", params: Iterable[str] = (),
                 constraints: Iterable[ast.Constraint] = (),
                 has_this: bool = True):
        self.class_name = class_name
        self.params = list(params)
        self.constraints = list(constraints)
        self.has_this = has_this
        self._edges = self._build_edges()

    @classmethod
    def for_class(cls, decl: ast.ClassDecl) -> "ContextEnv":
        return cls(decl.name, decl.ctx_params, decl.constraints, has_this=True)

    @classmethod
    def for_main(cls) -> "ContextEnv":
        return cls("", (), (), has_this=False)

    def _key(self, k: Context) -> Optional[str]:
        if isinstance(k, CtxThis):
            return "this" if self.has_this else None
        if isinstance(k, CtxTop):
            return "top"
        if isinstance(k, CtxBot):
            return "bot"
        if isinstance(k, CtxParam) and k.name in self.params:
            return k.name
        return None

    def _build_edges(self) -> dict[str, set[str]]:
        edges: dict[str, set[str]] = {}

        def add(a: str, b: str) -> None:
            edges.setdefault(a, set()).add(b)

        if self.has_this and self.params:
            add("this", self.params[0])
        for c in self.constraints:
            a, b = self._key(c.lhs), self._key(c.rhs)
            if a is not None and b is not None:
                add(a, b)
        return edges

    def ctx_wf(self, k: Context) -> bool:
        """Well-formed in this environment: top, bot, this (inside a class),
        or a declared parameter. Any/Existential/locations are not."""
        if isinstance(k, (CtxTop, CtxBot)):
            return True
        if isinstance(k, CtxThis):
            return self.has_this
        if isinstance(k, CtxParam):
            return k.name in self.params
        return False

    def inside(self, k1: Context, k2: Context) -> bool:
        """The static containment preorder: Bot least, Top greatest,
        reflexive on well-formed contexts, this below the owner parameter,
        closed under declared constraints and transitivity."""
        if isinstance(k1, CtxBot) or isinstance(k2, CtxTop):
            return True
        if k1 == k2 and self.ctx_wf(k1):
            return True
        a, b = self._key(k1), self._key(k2)
        if a is None or b is None:
            return False
        # reachability over constraint edges
        seen = {a}
        stack = [a]
        while stack:
            cur = stack.pop()
            if cur == b:
                return True
            for nxt in self._edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def strictly_inside(self, k1: Context, k2: Context) -> bool:
        return self.inside(k1, k2) and k1 != k2


def substitute(x: Union[Context, Contract, ast.TypeExpr], formals: list[str],
               actuals: list[Context],
               this_image: Context) -> Union[Context, Contract, ast.TypeExpr]:
    """Substitute actual contexts for formal parameters and this_image for
    this, positionally. Contexts not mentioning formals/this are unchanged."""
    if len(formals) != len(actuals):
        raise OvError("E-CTX-ARITY",
                      f"expected {len(formals)} context arguments, got {len(actuals)}")
    table = dict(zip(formals, actuals))

    def sub_ctx(k: Context) -> Context:
        if isinstance(k, CtxThis):
            return this_image
        if isinstance(k, CtxParam):
            return table.get(k.name, k)
        return k

    if isinstance(x, Contract):
        return Contract(sub_ctx(x.validity), sub_ctx(x.invalidity),
                        line=x.line, col=x.col)
    if isinstance(x, ast.ClassType):
        return ast.ClassType(x.name, [sub_ctx(a) for a in x.args],
                             line=x.line, col=x.col)
    if isinstance(x, ast.TypeExpr):
        return x
    return sub_ctx(x)


def owner_bound(t: ast.TypeExpr) -> Context:
    """The owner (first context argument) of a class type."""
    if not isinstance(t, ast.ClassType):
        raise OvError("E-NOT-CLASS", f"type {t} has no owner context")
    if not t.args:
        raise OvError("E-CTX-ARITY", f"type {t.name} is missing its context arguments")
    return t.args[0]


class OwnershipTree:
    """which-owns-which at runtime. Each resolved context denotes the
    subtree of one node: a live location, or Top, the root, whose
    node is the class CtxTop and which owns every top-owned location. Bot
    denotes no subtree, so its node, the class CtxBot, has an empty chain
    and an empty subtree and lies on no chain.

    `chains` holds Top, Bot and then the live locations in allocation
    order, each with its ancestor chain: the node itself, its owner, and so
    on up to Top. `subtrees` holds each of them with its subtree, itself
    and every location it owns transitively, in ascending order; Top's,
    also kept as `live`, is every live location.

    Ownership is fixed at allocation and only leaves are removed, so a
    chain, built once from the owner's chain, never goes stale. Locations
    are added in ascending order (heap slots are never reused, and an
    object is allocated after its owner), so appending a new location to
    the subtree of each node on its chain keeps every subtree sorted. The
    runtime removes only its newest location, because aborts drop what
    they created newest first, so removal pops it from the end of each
    subtree on its chain."""

    def __init__(self) -> None:
        self.chains: dict = {CtxTop: (CtxTop,), CtxBot: ()}
        self.live: list[int] = []  # Top's subtree
        self.subtrees: dict = {CtxTop: self.live, CtxBot: []}

    def add(self, loc: int, owner: Optional[int]) -> None:
        """Add loc, owned by the location owner, or by Top when it is
        None."""
        assert loc not in self.chains
        up = self.chains.get(CtxTop if owner is None else owner)
        if up is None:
            raise OvError("E-DANGLING", f"owner l{owner} is not in the heap")
        self.chains[loc] = (loc,) + up
        self.subtrees[loc] = [loc]
        for anc in up:
            self.subtrees[anc].append(loc)

    def remove(self, loc: int) -> None:
        """Drop a leaf: aborts remove created objects newest first, so a
        location's subtree holds only itself by the time it goes."""
        assert len(self.subtrees[loc]) == 1, f"l{loc} still owns objects"
        chain = self.chains.pop(loc)
        del self.subtrees[loc]
        for anc in chain[1:]:
            sub = self.subtrees[anc]
            if sub[-1] == loc:
                sub.pop()
            else:  # an older leaf, which only tests remove
                sub.remove(loc)

    def chain(self, loc) -> tuple:
        """The ownership chain from the node loc (inclusive) up to Top."""
        chain = self.chains.get(loc)
        if chain is None:
            name = f"l{loc}" if type(loc) is int else loc
            raise OvError("E-DANGLING", f"location {name} is not in the heap")
        return chain

    def node(self, k: Context):
        """The node whose subtree the context record k, Top, Bot or a
        `CtxLoc`, denotes: a location's index, or the class of Top or Bot.
        A location not in the tree is E-DANGLING. The runtime holds nodes
        and never calls this; it serves `subtrees_intersect` and
        `blocksched.interferes`, the definitions the tests check against."""
        key = k.index if type(k) is CtxLoc else type(k)
        if key not in self.chains:
            raise OvError("E-DANGLING", f"location {k} is not in the heap")
        return key

    def runtime_inside(self, loc: int, node) -> Optional[tuple]:
        """loc's chain when loc lies within subtree(node), else None:
        within is reflexive at locations, always so of Top and never of
        Bot, which lies on no chain. One call serves a write's escape test
        and its invalidation."""
        chain = self.chains.get(loc)
        if chain is None:
            name = f"l{loc}" if type(loc) is int else loc
            raise OvError("E-DANGLING", f"location {name} is not in the heap")
        return chain if node in chain else None

    def runtime_subtree(self, node) -> Sequence[int]:
        """The live locations in subtree(node), ascending: the stored list
        itself, which callers must not change."""
        sub = self.subtrees.get(node)
        if sub is None:
            raise OvError("E-DANGLING", f"location l{node} is not in the heap")
        return sub

    def meet(self, a, b) -> Sequence[int]:
        """subtree(a) ∩ subtree(b) for nodes a and b, ascending. Two
        subtrees meet iff one node lies on the other's chain, and then in
        the lower one's stored subtree, which callers must not change.
        Bot's node lies on no chain, so it meets nothing."""
        chains = self.chains
        up_a, up_b = chains.get(a), chains.get(b)
        if up_a is None or up_b is None:
            raise OvError("E-DANGLING", f"location "
                          f"l{a if up_a is None else b} is not in the heap")
        if b in up_a:
            return self.runtime_subtree(a)
        if a in up_b:
            return self.runtime_subtree(b)
        return ()


def subtrees_intersect(tree: OwnershipTree, k1: Context, k2: Context) -> bool:
    """Symbolic subtree(k1) ∩ subtree(k2) != ∅ over resolved contexts:
    their meet is non-empty. Top's node is in every tree, however few
    locations it holds, so Top meets Top."""
    return bool(tree.meet(tree.node(k1), tree.node(k2))) or k1 == k2 == TOP
