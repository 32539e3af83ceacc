"""Reference scaling table for the README: mine + validate time of one
bank block with n flat accounts and n transactions, for n = 250, 500,
1000 and 2000 (the bank_large generator at other sizes). Doubling n
should about double the time; today it roughly quadruples it.

    python3 bench/scaling.py [--sizes 250,500,1000,2000]
"""
from __future__ import annotations

import argparse
import random
import sys
import time

import run
import workloads


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="250,500,1000,2000")
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    ov = run.import_ovlang()
    core = run.compile_source(
        ov, (run.CORPUS / "bank.ov").read_text(encoding="utf-8"))
    bs = ov.blocksched
    print("| n | mine s | validate s | mine + validate s | x previous |")
    print("|---|---|---|---|---|")
    prev = None
    for n in map(int, args.sizes.split(",")):
        rng = random.Random(f"scaling:{n}")
        block = bs.parse_block(workloads.bank_block(rng, n, n))
        t0 = time.perf_counter()
        mined = bs.mine_block(core, block)
        t1 = time.perf_counter()
        report = bs.validate_block(core, mined, block)
        t2 = time.perf_counter()
        if not report.accepted:
            raise SystemExit(f"n={n}: validator rejected the mined block")
        total = t2 - t0
        ratio = "" if prev is None else f"{total / prev:.2f}"
        print(f"| {n} | {t1 - t0:.2f} | {t2 - t1:.2f} | {total:.2f} | {ratio} |")
        prev = total


if __name__ == "__main__":
    main()
