"""Context preorder, substitution, and the runtime ownership tree."""
import random

import pytest

from ovlang import ast
from ovlang.ast import (Contract, CtxAny, CtxBot, CtxLoc, CtxParam, CtxThis,
                        CtxTop)
from ovlang.diagnostics import OvError
from ovlang.ownership import (ContextEnv, OwnershipTree, owner_bound,
                              substitute, subtrees_intersect)

THIS, TOP, BOT = CtxThis(), CtxTop(), CtxBot()


def env_with(params, constraints=(), has_this=True):
    cons = [ast.Constraint(a, False, b) for a, b in constraints]
    return ContextEnv("C", params, cons, has_this=has_this)


class TestInside:
    def test_bot_least_top_greatest(self):
        env = env_with(["o"])
        for k in (THIS, TOP, BOT, CtxParam("o")):
            assert env.inside(BOT, k)
            assert env.inside(k, TOP)

    def test_reflexive_on_wf(self):
        env = env_with(["o", "p"])
        for k in (THIS, TOP, BOT, CtxParam("o"), CtxParam("p")):
            assert env.inside(k, k)

    def test_not_reflexive_on_foreign_params(self):
        env = env_with(["o"])
        assert not env.inside(CtxParam("q"), CtxParam("q"))

    def test_this_below_owner(self):
        env = env_with(["o", "p"])
        assert env.inside(THIS, CtxParam("o"))
        assert not env.inside(THIS, CtxParam("p"))
        assert not env.inside(CtxParam("o"), THIS)

    def test_constraint_edges_close_transitively(self):
        env = env_with(["o", "p", "q"],
                       [(CtxParam("o"), CtxParam("p")),
                        (CtxParam("p"), CtxParam("q"))])
        assert env.inside(CtxParam("o"), CtxParam("q"))
        assert env.inside(THIS, CtxParam("q"))  # this <= o <= p <= q
        assert not env.inside(CtxParam("q"), CtxParam("o"))

    def test_top_not_inside_param(self):
        env = env_with(["o"])
        assert not env.inside(TOP, CtxParam("o"))
        assert not env.inside(TOP, THIS)

    def test_main_has_no_this(self):
        env = ContextEnv.for_main()
        assert not env.inside(THIS, THIS)
        assert env.inside(BOT, TOP)

    def test_strictly_inside(self):
        env = env_with(["o"])
        assert env.strictly_inside(THIS, CtxParam("o"))
        assert not env.strictly_inside(THIS, THIS)

    def test_transitivity_randomized(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d"]
        for _ in range(200):
            cons = [(CtxParam(rng.choice(names)), CtxParam(rng.choice(names)))
                    for _ in range(rng.randrange(5))]
            env = env_with(names, cons)
            pool = [THIS, TOP, BOT] + [CtxParam(n) for n in names]
            k1, k2, k3 = (rng.choice(pool) for _ in range(3))
            if env.inside(k1, k2) and env.inside(k2, k3):
                assert env.inside(k1, k3)


class TestSubstitute:
    def test_params_and_this(self):
        d = Contract(THIS, CtxParam("p"))
        out = substitute(d, ["o", "p"], [CtxLoc(3), CtxLoc(9)], CtxLoc(1))
        assert out == Contract(CtxLoc(1), CtxLoc(9))

    def test_class_type_arguments(self):
        t = ast.ClassType("Box", [CtxParam("o"), THIS])
        out = substitute(t, ["o"], [TOP], CtxLoc(4))
        assert out == ast.ClassType("Box", [TOP, CtxLoc(4)])

    def test_ground_contexts_unchanged(self):
        assert substitute(TOP, ["o"], [BOT], THIS) == TOP
        assert substitute(CtxAny(), ["o"], [BOT], THIS) == CtxAny()

    def test_arity_mismatch(self):
        with pytest.raises(OvError) as exc:
            substitute(THIS, ["o", "p"], [TOP], TOP)
        assert exc.value.code == "E-CTX-ARITY"


class TestOwnerBound:
    def test_first_argument(self):
        assert owner_bound(ast.ClassType("Box", [TOP, THIS])) == TOP

    def test_non_class(self):
        with pytest.raises(OvError) as exc:
            owner_bound(ast.IntType())
        assert exc.value.code == "E-NOT-CLASS"

    def test_missing_arguments(self):
        with pytest.raises(OvError) as exc:
            owner_bound(ast.ClassType("Box", []))
        assert exc.value.code == "E-CTX-ARITY"


def build_tree(owners: dict) -> OwnershipTree:
    tree = OwnershipTree()
    for loc in sorted(owners):
        tree.add(loc, owners[loc])
    return tree


# an independent enumeration of subtree membership, by descending an
# owner-to-owned map built here rather than reading the tree
def enumerate_subtree(owners: dict, k) -> set:
    if isinstance(k, CtxBot):
        return set()
    if isinstance(k, CtxTop):
        return set(owners)
    kids: dict = {}
    for loc, owner in owners.items():
        kids.setdefault(owner, []).append(loc)
    out = set()
    stack = [k.index]
    while stack:
        cur = stack.pop()
        out.add(cur)
        stack.extend(kids.get(cur, []))
    return out


# the tree's queries take nodes; these ask them of a resolved context, as
# a frame does at begin (`OwnershipTree.node`)
def inside(tree: OwnershipTree, loc: int, k):
    return tree.runtime_inside(loc, tree.node(k))


def subtree(tree: OwnershipTree, k):
    return tree.runtime_subtree(tree.node(k))


def meet(tree: OwnershipTree, k1, k2):
    return tree.meet(tree.node(k1), tree.node(k2))


def subtree_listed(tree: OwnershipTree, owners: dict, k) -> bool:
    """subtree(k) lists the enumerated subtree in ascending order."""
    return list(subtree(tree, k)) == sorted(enumerate_subtree(owners, k))


def subtrees_stored(tree: OwnershipTree, owners: dict) -> bool:
    """The tree stores a subtree for Top, for Bot and for each live
    location, and only for those, each ascending and equal to the
    enumeration."""
    return tree.subtrees == {
        CtxTop: sorted(owners), CtxBot: [],
        **{loc: sorted(enumerate_subtree(owners, CtxLoc(loc)))
           for loc in owners}}


class TestTree:
    OWNERS = {0: None, 1: 0, 2: 0, 3: 1, 4: None}

    def test_ancestors(self):
        tree = build_tree(self.OWNERS)
        assert tree.chain(3) == (3, 1, 0, CtxTop)
        assert tree.chain(4) == (4, CtxTop)

    def test_runtime_inside(self):
        tree = build_tree(self.OWNERS)
        assert inside(tree, 3, CtxLoc(0))
        assert inside(tree, 3, CtxLoc(3))
        assert not inside(tree, 0, CtxLoc(1))
        assert not inside(tree, 4, CtxLoc(0))
        assert inside(tree, 4, CtxTop())
        assert not inside(tree, 4, CtxBot())

    def test_runtime_subtree_matches_enumeration(self):
        tree = build_tree(self.OWNERS)
        for k in [CtxTop(), CtxBot()] + [CtxLoc(i) for i in self.OWNERS]:
            assert subtree_listed(tree, self.OWNERS, k)

    def test_top_subtree_is_stored(self):
        # Top's subtree is kept like any other, not copied from the heap
        tree = build_tree(self.OWNERS)
        assert subtree(tree, CtxTop()) is subtree(tree, TOP)
        assert subtree(tree, TOP) is tree.live
        tree.add(5, 3)
        assert subtree(tree, CtxTop()) == [0, 1, 2, 3, 4, 5]

    def test_dangling_owner_rejected(self):
        tree = OwnershipTree()
        with pytest.raises(OvError) as exc:
            tree.add(0, 99)
        assert exc.value.code == "E-DANGLING"

    def test_remove(self):
        tree = build_tree({0: None, 1: 0})
        tree.remove(1)
        assert subtree(tree, CtxLoc(0)) == [0]

    def test_removed_root_is_dangling(self):
        tree = build_tree({0: None, 1: None})
        tree.remove(1)
        with pytest.raises(OvError) as exc:
            subtree(tree, CtxLoc(1))
        assert exc.value.code == "E-DANGLING"
        with pytest.raises(OvError) as exc:
            tree.runtime_subtree(1)
        assert exc.value.code == "E-DANGLING"

    def test_random_add_remove_matches_enumeration(self):
        # locations are never reused, and only leaves are removed, as the
        # runtime does when an abort drops the objects it created
        rng = random.Random(23)
        for _ in range(150):
            tree, owners, fresh = OwnershipTree(), {}, 0
            for _step in range(rng.randrange(1, 40)):
                leaves = sorted(set(owners) - set(owners.values()))
                if leaves and rng.random() < 0.35:
                    loc = rng.choice(leaves)
                    tree.remove(loc)
                    del owners[loc]
                else:
                    owner = rng.choice([None] + sorted(owners))
                    tree.add(fresh, owner)
                    owners[fresh] = owner
                    fresh += 1
                for k in [CtxTop(), CtxBot()] + [CtxLoc(i) for i in owners]:
                    assert subtree_listed(tree, owners, k)
                assert subtrees_stored(tree, owners)


# a brute-force ancestor walk over a plain owner map, for the chains the
# tree stores at allocation; Top, the root, ends every chain
def walk_up(owners: dict, loc: int) -> list:
    chain = [loc]
    while owners[chain[-1]] is not None:
        chain.append(owners[chain[-1]])
    return chain + [CtxTop]


def dangling(fn, *args) -> bool:
    with pytest.raises(OvError) as exc:
        fn(*args)
    return exc.value.code == "E-DANGLING"


class TestAncestorChains:
    def test_chains_match_an_owner_walk(self):
        # seeded add/remove sequences on forests up to six deep; aborts
        # remove what they created newest first, so only leaves go
        rng = random.Random(31)
        for _ in range(120):
            tree, owners, fresh, removed = OwnershipTree(), {}, 0, []
            for _step in range(rng.randrange(1, 50)):
                if owners and rng.random() < 0.3:
                    # drop the newest few locations, newest first
                    for loc in sorted(owners, reverse=True)[
                            :rng.randrange(1, 4)]:
                        tree.remove(loc)
                        del owners[loc]
                        removed.append(loc)
                    continue
                shallow = [loc for loc in owners
                           if len(walk_up(owners, loc)) < 7]
                owner = rng.choice([None] + sorted(shallow))
                tree.add(fresh, owner)
                owners[fresh] = owner
                fresh += 1
            locs = sorted(owners)
            assert all(len(walk_up(owners, loc)) <= 7 for loc in locs)
            ctxs = [CtxTop(), CtxBot()] + [CtxLoc(i) for i in locs]
            for loc in locs:
                assert list(tree.chain(loc)) == walk_up(owners, loc)
                for k in ctxs:
                    chain = inside(tree, loc, k)
                    assert (chain is not None) == \
                        (loc in enumerate_subtree(owners, k))
                    assert chain in (None, tree.chain(loc))
            for k in ctxs:
                assert subtree_listed(tree, owners, k)
            assert subtrees_stored(tree, owners)
            for k1 in ctxs:
                for k2 in ctxs:
                    both = (enumerate_subtree(owners, k1)
                            & enumerate_subtree(owners, k2))
                    assert list(meet(tree, k1, k2)) == sorted(both)
                    if not locs and k1 == k2 == CtxTop():
                        continue  # Top meets Top by definition
                    assert subtrees_intersect(tree, k1, k2) == bool(both)
            # removed and never-allocated locations are dangling everywhere
            gone = [loc for loc in removed if loc not in owners] + [fresh]
            for loc in gone[-3:]:
                assert dangling(tree.chain, loc)
                assert dangling(tree.node, CtxLoc(loc))
                assert dangling(tree.runtime_inside, loc, CtxTop)
                assert dangling(tree.runtime_subtree, loc)
                assert dangling(subtree, tree, CtxLoc(loc))
                assert dangling(tree.add, fresh + 1, loc)
                for k in ctxs[2:3]:
                    assert dangling(inside, tree, k.index, CtxLoc(loc))
                    assert dangling(inside, tree, loc, k)
                    assert dangling(subtrees_intersect, tree, k, CtxLoc(loc))
                    assert dangling(subtrees_intersect, tree, CtxLoc(loc), k)
                for k in ctxs[:3]:
                    assert dangling(meet, tree, k, CtxLoc(loc))
                    assert dangling(meet, tree, CtxLoc(loc), k)
                    assert dangling(tree.meet, tree.node(k), loc)
                    assert dangling(tree.meet, loc, tree.node(k))

    def test_chain_outlives_no_removal(self):
        # a removed leaf takes its chain with it; its owner's stays
        tree = build_tree({0: None, 1: 0, 2: 1})
        tree.remove(2)
        assert tree.chain(1) == (1, 0, CtxTop)
        assert dangling(tree.chain, 2)
        tree.add(3, 1)
        assert tree.chain(3) == (3, 1, 0, CtxTop)
        assert subtree(tree, CtxLoc(0)) == [0, 1, 3]


class TestSubtreesIntersect:
    def test_siblings_disjoint(self):
        tree = build_tree({0: None, 1: None})
        assert not subtrees_intersect(tree, CtxLoc(0), CtxLoc(1))

    def test_nested_overlap(self):
        tree = build_tree({0: None, 1: 0})
        assert subtrees_intersect(tree, CtxLoc(0), CtxLoc(1))
        assert subtrees_intersect(tree, CtxLoc(1), CtxLoc(0))

    def test_bot_and_top(self):
        tree = build_tree({0: None})
        assert not subtrees_intersect(tree, CtxBot(), CtxTop())
        assert subtrees_intersect(tree, CtxTop(), CtxLoc(0))
        assert subtrees_intersect(tree, CtxTop(), CtxTop())
        # Top's node is in a tree that holds no location, too
        empty = OwnershipTree()
        assert meet(empty, CtxTop(), CtxTop()) == []
        assert subtrees_intersect(empty, CtxTop(), CtxTop())
        assert not subtrees_intersect(empty, CtxTop(), CtxBot())

    def test_matches_enumeration_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 12)
            owners = {0: None}
            for i in range(1, n):
                owners[i] = rng.choice([None] + list(range(i)))
            tree = build_tree(owners)
            pool = [CtxTop(), CtxBot()] + [CtxLoc(i) for i in range(n)]
            k1, k2 = rng.choice(pool), rng.choice(pool)
            expect = bool(enumerate_subtree(owners, k1)
                          & enumerate_subtree(owners, k2))
            assert subtrees_intersect(tree, k1, k2) == expect
