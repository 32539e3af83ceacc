"""Ownership contexts: the static inside preorder, substitution, and the
runtime ownership tree.

A context denotes the subtree of the ownership tree rooted at it: Top is the
whole tree, Bot the empty set, This the current object, a parameter whatever
it was bound to. inside(k1,k2) means subtree(k1) is contained in subtree(k2).

The runtime tree keeps each location's ancestor chain and, beside it, its
subtree as an ascending list. "subtree(k1) meets subtree(k2)" is a
membership test on a stored chain, a subtree is read, not walked, and the
live set is read from the tree rather than from the heap.
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
    """which-owns-which at runtime. `chains` holds the live locations in
    allocation order, each with its ancestor chain: the location itself,
    its owner, and so on up to a top-owned root. `subtrees` holds each of
    them with its subtree, itself and every location it owns transitively,
    in ascending order.

    Ownership is fixed at allocation and only leaves are removed, so a
    chain, built once from the owner's chain, never goes stale. Locations
    are added in ascending order (heap slots are never reused, and an
    object is allocated after its owner), so appending a new location to
    the subtree of each location on its chain keeps every subtree sorted.
    The runtime removes only its newest location, because aborts drop what
    they created newest first, so removal pops it from the end of each
    subtree on its chain."""

    def __init__(self) -> None:
        self.chains: dict[int, tuple[int, ...]] = {}
        self.subtrees: dict[int, list[int]] = {}

    def add(self, loc: int, owner: Optional[int]) -> None:
        assert loc not in self.chains
        if owner is None:
            chain: tuple[int, ...] = (loc,)
        else:
            up = self.chains.get(owner)
            if up is None:
                raise OvError("E-DANGLING", f"owner l{owner} is not in the heap")
            chain = (loc,) + up
        self.chains[loc] = chain
        self.subtrees[loc] = [loc]
        for anc in chain[1:]:
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

    def chain(self, loc: int) -> tuple[int, ...]:
        """The ownership chain from loc (inclusive) up to a top-owned root."""
        chain = self.chains.get(loc)
        if chain is None:
            raise OvError("E-DANGLING", f"location l{loc} is not in the heap")
        return chain

    def lower_of(self, k1: CtxLoc, k2: CtxLoc) -> Optional[CtxLoc]:
        """Two location subtrees meet iff one root lies on the other's
        chain, and then their meet is the lower subtree: that root, or
        None when they are disjoint. A chain holds only live locations, so
        a test that succeeds has seen both roots live."""
        if k2.index in self.chain(k1.index):
            return k1
        if k1.index in self.chain(k2.index):
            return k2
        return None

    def runtime_inside(self, loc: int, k: Context) -> bool:
        """Is loc within the subtree rooted at k? Reflexive at locations."""
        if isinstance(k, CtxTop):
            self.chain(loc)  # E-DANGLING on an unknown location
            return True
        if isinstance(k, CtxBot):
            return False
        assert isinstance(k, CtxLoc), f"unresolved context {k}"
        self.chain(k.index)  # E-DANGLING on a removed root
        return k.index in self.chain(loc)

    def runtime_subtree(self, k: Context) -> Sequence[int]:
        """The live locations in subtree(k), ascending. A location's
        subtree is the stored list itself: callers must not change it."""
        if isinstance(k, CtxBot):
            return ()
        if isinstance(k, CtxTop):
            return list(self.chains)
        assert isinstance(k, CtxLoc), f"unresolved context {k}"
        sub = self.subtrees.get(k.index)
        if sub is None:
            raise OvError("E-DANGLING",
                          f"location l{k.index} is not in the heap")
        return sub


def subtrees_intersect(tree: OwnershipTree, k1: Context, k2: Context) -> bool:
    """Symbolic subtree(k1) ∩ subtree(k2) != ∅ over resolved contexts: two
    locations, the common case, meet iff one lies on the other's ancestor
    chain (OwnershipTree.lower_of); Bot is empty; Top meets anything
    non-Bot."""
    if isinstance(k1, CtxLoc) and isinstance(k2, CtxLoc):
        return tree.lower_of(k1, k2) is not None
    if isinstance(k1, CtxBot) or isinstance(k2, CtxBot):
        return False
    if isinstance(k1, CtxTop) or isinstance(k2, CtxTop):
        return True
    raise AssertionError(f"unresolved context {k1} or {k2}")
