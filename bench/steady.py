"""Steadiness check: run each workload in separate processes, in two sets
of seeds one after the other (1..N, then N+1..2N), and print per set and
end-to-end metric the median, the quartiles, the quartile spread
(Q3 - Q1) / median and the full spread (max - min) / median, next to the
metric's bound from BENCHMARK.json; then, per metric, the gap between the
two sets' medians as a share of the first.

    python3 bench/steady.py                       # every workload, 2 x 10 seeds
    python3 bench/steady.py --workloads custody_hot --seeds 5

Runs go one at a time for run_seconds of BENCHMARK.json each, and the raw
results are kept in .bench_out/steady-<unix time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[-2] if len(lines) > 1 else ""
    return result


def spread_rows(results: list[dict], bounds: dict) -> list[tuple]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        iqr = (q3 - q1) / med if med else 0.0
        full = (max(values) - min(values)) / med if med else 0.0
        rows.append((name, results[0]["metrics"][name]["unit"], med, q1, q3,
                     iqr, full, bounds.get(name)))
    return rows


def run_set(workload: str, seeds: range, seconds: int) -> list[dict]:
    results = []
    for seed in seeds:
        t0 = time.monotonic()
        res = run_once(workload, seed, seconds)
        res["wall_s"] = time.monotonic() - t0
        results.append(res)
        print(f"{workload} seed {seed}: {res['wall_s']:.1f} s, "
              f"correct {res['correct']}, failed {res['failed']}"
              f"/{res['attempted']}", file=sys.stderr)
    return results


def print_set(title: str, results: list[dict], bounds: dict) -> None:
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{title}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: "
          f"{sorted(shares)}")
    print(f"  {'metric':<34} {'unit':<9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'span/med':>8} {'bound':>6}")
    for name, unit, med, q1, q3, iqr, full, bound in spread_rows(
            results, bounds):
        b = "" if bound is None else f"{bound:.2f}"
        print(f"  {name:<34} {unit:<9} {med:>12.5g} {q1:>12.5g} "
              f"{q3:>12.5g} {iqr:>8.3f} {full:>8.3f} {b:>6}")


def print_gaps(first: list[dict], second: list[dict], bounds: dict) -> None:
    """Per metric, how far the second set's median lies from the first's,
    as a share of the first's, beside the bound."""
    print(f"  {'metric':<34} {'median 1':>12} {'median 2':>12} "
          f"{'gap':>8} {'bound':>6}")
    for name in first[0]["metrics"]:
        m1 = statistics.median(r["metrics"][name]["value"] for r in first)
        m2 = statistics.median(r["metrics"][name]["value"] for r in second)
        gap = (m2 - m1) / m1 if m1 else 0.0
        b = bounds.get(name)
        print(f"  {name:<34} {m1:>12.5g} {m2:>12.5g} {gap:>+8.3f} "
              f"{'' if b is None else f'{b:.2f}':>6}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": seconds, "runs": {}}
    for workload in args.workloads.split(","):
        n = args.seeds
        first = run_set(workload, range(1, n + 1), seconds)
        second = run_set(workload, range(n + 1, 2 * n + 1), seconds)
        record["runs"][workload] = first + second
        print_set(f"{workload}, seeds 1-{n}", first, bounds)
        print_set(f"{workload}, seeds {n + 1}-{2 * n}", second, bounds)
        print(f"\n{workload}: second set against the first")
        print_gaps(first, second, bounds)
    out = ROOT / ".bench_out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
