"""Tests of the benchmark's reference model and input generators.

    python3 -m unittest discover -s bench -p 'test_*.py'

The expected answers are worked out by hand from corpus/bank.ov, not taken
from ovlang. One test class also runs the miner on small seeded blocks and
requires it to agree with the model.
"""
from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

import model
import workloads

ROOT = Path(__file__).resolve().parent.parent
C, A = model.COMMITTED, model.POST_FAIL


def accounts(*amounts: int) -> list[dict]:
    return [{"id": f"a{i}", "class": "Account", "args": [x]}
            for i, x in enumerate(amounts)]


def customers(n: int) -> list[dict]:
    return [{"id": f"c{i}", "class": "Customer", "args": []}
            for i in range(n)]


def txn(target: str, method: str, *args: int) -> dict:
    return {"target": target, "method": method, "args": list(args)}


class CorpusBlocks(unittest.TestCase):
    def load(self, name: str) -> dict:
        return json.loads((ROOT / "corpus" / "blocks" / name).read_text())

    def test_conflict_block(self):
        # a0 = 30: withdraw 10 leaves 20, deposit 2; both write a0
        block = self.load("conflict.json")
        self.assertEqual(model.statuses(block), [C, C])
        self.assertEqual(model.edges(block), [(0, 1)])

    def test_transfers_block(self):
        # three deposits on three distinct top-owned accounts
        block = self.load("transfers.json")
        self.assertEqual(model.statuses(block), [C, C, C])
        self.assertEqual(model.edges(block), [])


class HandWorkedAccounts(unittest.TestCase):
    def test_overdraw_aborts_and_leaves_balance(self):
        block = {"deploy": accounts(5), "txns": [
            txn("a0", "withdraw", 10),   # 5 - 10 < 0: aborted, still 5
            txn("a0", "withdraw", 5),    # 0: committed
            txn("a0", "deposit", 3),     # 3
            txn("a0", "withdraw", 4),    # -1: aborted
        ]}
        self.assertEqual(model.statuses(block), [A, C, C, A])

    def test_reads_conflict_only_with_writes(self):
        block = {"deploy": accounts(50, 50), "txns": [
            txn("a0", "balance"), txn("a0", "balance"),
            txn("a0", "deposit", 1), txn("a1", "withdraw", 1),
        ]}
        # read/read on a0 never conflicts; each read meets the deposit's
        # invalidity set; a1 is disjoint from a0
        self.assertEqual(model.edges(block), [(0, 2), (1, 2)])


class HandWorkedCustomers(unittest.TestCase):
    def test_safe_withdraw_outcomes(self):
        block = {"deploy": customers(1), "txns": [
            txn("c0", "safeWithdraw", 5),    # 20 -> 15, committed
            txn("c0", "safeWithdraw", 25),   # inner overdraft, contained:
                                             # committed, still 15
            txn("c0", "safeWithdraw", 6),    # 9 < 10: invariant aborts all
            txn("c0", "safeWithdraw", 5),    # 15 -> 10, committed
            txn("c0", "safeWithdraw", 1),    # 9 < 10: aborted
            txn("c0", "audit"),
            txn("c0", "verifyLogin"),
        ]}
        self.assertEqual(model.statuses(block), [C, C, A, C, A, C, C])
        # the miner's known misreport of the contained abort is told
        # apart from a wrong status
        self.assertEqual(model.compare(block, [C, A, A, C, A, C, C]),
                         ([], [1]))
        self.assertEqual(model.compare(block, [C, C, C, C, A, C, C]),
                         ([2], []))
        self.assertEqual(model.compare(block, [A, C, A, C, A, C, C]),
                         ([0], []))

    def test_edges_follow_contracts_and_ownership(self):
        block = {"deploy": customers(2), "txns": [
            txn("c0", "audit"),          # <c0, bot>
            txn("c0", "audit"),          # <c0, bot>
            txn("c0", "verifyLogin"),    # <bot, c0>
            txn("c1", "safeWithdraw", 1),  # <c1, c1>
            txn("c1", "audit"),          # <c1, bot>
            txn("c0", "safeWithdraw", 1),  # <c0, c0>
        ]}
        self.assertEqual(model.edges(block), [
            (0, 2), (0, 5), (1, 2), (1, 5), (2, 5), (3, 4)])

    def test_customer_subtree_holds_its_account(self):
        tree = model.Tree(customers(2))
        self.assertEqual(tree.subtree("this", "c0"), {"c0", "c0/a"})
        self.assertEqual(tree.subtree("bot", "c0"), frozenset())
        self.assertEqual(len(tree.subtree("top", "c0")), 4)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(workloads.custody_blocks(3),
                         workloads.custody_blocks(3))
        self.assertEqual(workloads.programs(3), workloads.programs(3))
        self.assertNotEqual(workloads.programs(3), workloads.programs(4))

    def test_round_shape_is_fixed(self):
        for seed in (1, 2):
            blocks = workloads.bank_blocks(seed)
            self.assertEqual(len(blocks), workloads.BANK_BLOCKS)
            self.assertTrue(all(len(b["txns"]) == workloads.BANK_TXNS
                                for b in blocks))
            self.assertEqual(len(workloads.programs(seed)),
                             workloads.SMALL_PROGRAMS
                             + workloads.MEDIUM_PROGRAMS
                             + workloads.LARGE_PROGRAMS)

    def test_flat_expression_values(self):
        env = {"t1": 4}
        self.assertEqual(workloads._eval_flat("3 - 2 * t1 + 1", env), -4)
        self.assertEqual(workloads._eval_flat("t1 * t1 * 2", env), 32)
        self.assertEqual(workloads._eval_flat("7", env), 7)


class AgreesWithMiner(unittest.TestCase):
    """The model against blocksched on small blocks of both shapes."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(ROOT / "src"))
        from ovlang import blocksched
        from ovlang.desugar import desugar
        from ovlang.parser import parse_program
        from ovlang.typecheck import check_program
        surface, _ = parse_program((ROOT / "corpus" / "bank.ov").read_text())
        cls.core = desugar(surface)
        assert not check_program(cls.core).has_errors()
        cls.bs = blocksched

    def agree(self, block: dict) -> None:
        mined = self.bs.mine_block(self.core, self.bs.parse_block(block))
        wrong, _misreported = model.compare(block, mined.status)
        self.assertEqual(wrong, [])
        self.assertEqual(sorted(map(tuple, mined.edges)), model.edges(block))

    def test_small_bank_blocks(self):
        rng = random.Random(7)
        for _ in range(5):
            self.agree(workloads.bank_block(rng, accounts=12, txns=30))

    def test_custody_blocks(self):
        rng = random.Random(8)
        for _ in range(5):
            self.agree(workloads.custody_block(rng))


if __name__ == "__main__":
    unittest.main()
