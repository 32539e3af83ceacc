"""ovlang benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload bank_large --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):
  bank_large   twelve blocks of 500 flat accounts and 500 transactions,
               each mined (blocksched.mine_block) and validated
               (blocksched.validate_block)
  custody_hot  many small blocks of Customers that own an Account, with
               hot targets, nested atomics and contained aborts
  compile_run  generated programs plus corpus/*.ov and corpus/negative/*.ov
               through `ov check`, `ov run` and `ov transpile` in-process

The timed loop runs whole rounds of the seed's items until --seconds of
item time have passed. Times are scaled to a reference host speed measured
right after each timed phase (bench/calibrate.py). Every output is checked
afterwards, outside the timed region, against bench/model.py or against
properties the method must have.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run is traced (bench/tracer.py), the metrics are the
per-layer ones, and the spans go to .bench_out/trace-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import model
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
GOLDENS = ROOT / "goldens"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_UNITS = 20  # reference units after each set-up, for its local speed
# naive_lead replays, and a traced run counts in, the round's leading
# blocks up to this many transactions: the two replays of a block cost
# about twice its mining, and mining and validating it under counting
# hooks about four times as much as without, so not every block of
# bank_large is taken
SAMPLE_TXNS = 2000
MODULES = ("ast", "lexer", "parser", "desugar", "typecheck", "runtime",
           "ownership", "blocksched", "transpile", "cli")


def import_ovlang() -> SimpleNamespace:
    """A fresh import of the package from src/, as a new process does."""
    for name in [n for n in sys.modules if n == "ovlang"
                 or n.startswith("ovlang.")]:
        del sys.modules[name]
    importlib.import_module("ovlang")
    return SimpleNamespace(**{m: importlib.import_module(f"ovlang.{m}")
                              for m in MODULES})


def compile_source(ov: SimpleNamespace, src: str):
    surface, diags = ov.parser.parse_program(src)
    core = ov.desugar.desugar(surface)
    diags.extend(ov.typecheck.check_program(core))
    if diags.has_errors():
        raise RuntimeError("contract program does not typecheck: " +
                           ", ".join(diags.codes()))
    return core


class Run:
    """Counters and samples of one run. Every timed phase is kept with the
    host slowdown measured right after it; `timings` scales them."""

    def __init__(self, seconds: float, tracer):
        self.seconds = seconds
        self.tracer = tracer
        # (round, item, raw seconds, local slowdown, is the verify phase)
        self.phases: list[tuple] = []
        self.ok_items: list[int] = []     # items that produced an output
        self.setups: list[tuple] = []     # (raw seconds, local slowdown)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        # contained inner aborts the miner reports as aborted (model.compare)
        self.misreported = 0
        self.timed_s = 0.0  # raw seconds of timed work; sets the run length
        self.speed = calibrate.Speed()
        self.items = 0
        self.timed_items = 0
        self.rounds = 0
        # a traced run counts the first counted_items items of round 0;
        # None counts them all
        self.counted_items: int | None = None

    def rounds_until_done(self):
        """Yield round numbers until --seconds of timed work have passed;
        a round is never cut short. A traced run counts in round 0 and
        times spans from round 1 on, so it runs at least two rounds."""
        least = 1 if self.tracer is None else 2
        while self.rounds < least or self.timed_s < self.seconds:
            if self.tracer is not None and self.rounds < 2:
                self.tracer.install("count" if self.rounds == 0 else "time")
            yield self.rounds
            self.rounds += 1
        if self.tracer is not None:
            self.tracer.uninstall()

    def begin_item(self) -> None:
        if self.tracer is not None:
            skip = (self.rounds == 0 and self.counted_items is not None
                    and self.items >= self.counted_items)
            self.tracer.item = None if skip else self.items
            if self.rounds > 0:
                self.timed_items += 1
        self.items += 1

    def phase(self, t0: float, verify: bool = False) -> None:
        """Close a timed phase begun at perf_counter() t0, then run the
        (untimed) reference units that measure the host speed."""
        raw = time.perf_counter() - t0
        self.timed_s += raw
        self.phases.append((self.rounds, self.items - 1, raw,
                            self.speed.after(raw), verify))

    def end_item(self, ok: bool) -> None:
        if self.tracer is not None:
            self.tracer.item = None
        if ok:
            self.ok_items.append(self.items - 1)

    def problem(self, msg: str) -> None:
        """An output that disagrees with the model or a required property."""
        self.problems.append(msg)

    def fail(self, ops: int, msg: str) -> None:
        """Operations that raised instead of producing an output."""
        self.failed += ops
        self.failures.append(msg)


def p50_ms(samples: list[float]) -> float:
    """Median in milliseconds; 0 when every item failed."""
    return 1000 * statistics.median(samples) if samples else 0.0


def median_setup(run: Run, setup):
    """Runs setup SETUP_REPEATS times, each followed by reference units
    for the local host speed, and returns the last result."""
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup()
        raw = time.perf_counter() - t0
        gc.collect()  # drop the previous import, so memory does not pile up
        run.setups.append((raw, run.speed.sample(SETUP_UNITS)))
    return state


def timings(run: Run, first_round: int = 0) -> dict:
    """Raw and scaled item, verify and set-up times and round rates, from
    the phases of rounds first_round and later."""
    items: dict = {}
    verify: dict = {}
    rounds: dict = {}
    for rnd, item, raw, local, is_verify in run.phases:
        if rnd < first_round:
            continue
        scaled = raw / local
        got = items.setdefault(item, [0.0, 0.0])
        got[0] += raw
        got[1] += scaled
        if is_verify:
            verify[item] = (raw, scaled)
        rounds[rnd] = rounds.get(rnd, 0.0) + scaled
    ok = [i for i in run.ok_items if i in items]
    per_round = run.attempted / run.rounds
    return {
        "item": ([items[i][0] for i in ok], [items[i][1] for i in ok]),
        "verify": ([verify[i][0] for i in ok], [verify[i][1] for i in ok]),
        "setup": ([raw for raw, _ in run.setups],
                  [raw / local for raw, local in run.setups]),
        "rates": [per_round / secs for secs in rounds.values()],
    }


def timing_metrics(run: Run) -> dict:
    """The timed end-to-end metrics, at the reference host speed."""
    t = timings(run)
    return {
        "setup_s": (statistics.median(t["setup"][1]), "s"),
        "ops_per_s": (statistics.median(t["rates"]), "1/s"),
        "item_ms_p50": (p50_ms(t["item"][1]), "ms"),
        "validate_ms_p50": (p50_ms(t["verify"][1]), "ms"),
    }


# -- block workloads ------------------------------------------------------------

def replay_checks(ov: SimpleNamespace, core, block: dict, naive: bool) -> int:
    """pre_checks + post_checks of the block's transactions run once each
    in index order on a Machine in the given mode."""
    ast = ov.ast
    m = ov.runtime.Machine(ast.Program(core.classes, None), naive=naive)
    locs = {}
    for d in block["deploy"]:
        typ = ast.ClassType(d["class"], [ast.CtxTop()])
        locs[d["id"]] = m.run_expression(
            ast.New(typ, [ast.Const(a) for a in d.get("args", [])]))
    for t in block["txns"]:
        call = ast.Call(ast.Var("target"), t["method"],
                        [ast.Const(a) for a in t.get("args", [])])
        m.run_expression(ast.Atomic(contract=None, body=call, deduced=True),
                         {"target": locs[t["target"]], "#ctx": {}})
    return m.pre_checks + m.post_checks


def leading_blocks(raw: list[dict], txns: int) -> int:
    """How many leading blocks of a round it takes to hold `txns`
    transactions, or all of them."""
    n = held = 0
    for block in raw:
        if held >= txns:
            break
        n += 1
        held += len(block["txns"])
    return n


def run_blocks(name: str, seed: int, run: Run) -> dict:
    make = {"bank_large": workloads.bank_blocks,
            "custody_hot": workloads.custody_blocks}[name]
    bank_src = (CORPUS / "bank.ov").read_text(encoding="utf-8")

    def setup():
        ov = import_ovlang()
        raw = make(seed)
        core = compile_source(ov, bank_src)
        return ov, raw, core, [ov.blocksched.parse_block(b) for b in raw]

    ov, raw, core, blocks = median_setup(run, setup)
    bs = ov.blocksched
    txns_per_round = sum(len(b["txns"]) for b in raw)
    sample = leading_blocks(raw, SAMPLE_TXNS)
    run.counted_items = sample
    first: list = [None] * len(blocks)  # round-0 outputs, for the checks
    for rnd in run.rounds_until_done():
        for k, block in enumerate(blocks):
            n = len(block.txns)
            run.attempted += n
            run.begin_item()
            t0 = time.perf_counter()
            try:
                mined = bs.mine_block(core, block)
                run.phase(t0)
                t0 = time.perf_counter()
                report = bs.validate_block(core, mined, block)
                run.phase(t0, verify=True)
            except Exception as err:  # one failed block must not end the run
                run.phase(t0)
                run.end_item(False)
                run.fail(n, f"block {k}: {type(err).__name__}: {err}")
                continue
            run.end_item(True)
            out = (list(mined.status), sorted(map(tuple, mined.edges)),
                   mined.final_state_hash, report.accepted,
                   mined.pre_checks + mined.post_checks)
            if first[k] is None:
                first[k] = out
            elif out != first[k]:
                run.problem(f"block {k}: round {rnd} differs from round 0")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside the timed region
    checks = directed = naive = 0
    for k, (block, data) in enumerate(zip(blocks, raw)):
        if first[k] is None:
            continue
        status, edges, mined_hash, accepted, nchecks = first[k]
        checks += nchecks
        if not accepted:
            run.problem(f"block {k}: validate_block rejected the mined block")
        wrong, misreported = model.compare(data, status)
        if wrong:
            run.problem(f"block {k}: statuses {wrong[:5]} differ from the "
                        f"model")
        run.misreported += len(misreported)
        if edges != model.edges(data):
            run.problem(f"block {k}: conflict edges differ from the model")
        try:
            serial_hash, serial_status = bs.serial_execute(core, block)
        except Exception as err:  # report it as a wrong output, not a crash
            serial_hash, serial_status = f"{type(err).__name__}: {err}", None
        if serial_hash != mined_hash or serial_status != status:
            run.problem(f"block {k}: mined hash or statuses differ from "
                        f"serial_execute")
        if run.tracer is None and k < sample:
            d = replay_checks(ov, core, data, naive=False)
            n = replay_checks(ov, core, data, naive=True)
            if d > n:
                run.problem(f"block {k}: directed checks exceed naive")
            directed += d
            naive += n
    return {
        **timing_metrics(run),
        "checks_per_op": (checks / txns_per_round, "checks/op"),
        "naive_lead": (naive / directed if directed else 0.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "_round": (sample, sum(len(b["txns"]) for b in raw[:sample]),
                   sample),
    }


# -- compile_run ----------------------------------------------------------------

ERROR_RE = re.compile(r"\berror (E-[A-Z0-9-]+):")
REPORT_RE = re.compile(r"^(lemma3|pre_checks|post_checks): (\S+)$", re.M)
CLASS_RE = re.compile(r"^\s*class\s+(\w+)", re.M)


def expected_code(src: str) -> str:
    """The code a negative corpus file names in its `// expect:` header."""
    first = src.splitlines()[0] if src else ""
    if not first.startswith("// expect:"):
        raise ValueError("negative corpus file without an expect header")
    return first.split(":", 1)[1].split()[0]


def golden_owners() -> dict[str, str | None]:
    """goldens/ file name -> the corpus stem it was emitted from, or None
    for the support bundle every transpile writes. Account.sol belongs to
    corpus/account.ov; Storage_OV.sol to corpus/storage.ov, in the
    pre-post style that the _OV suffix names."""
    out = {}
    for gold in sorted(GOLDENS.glob("*.sol")):
        stem = gold.stem.removesuffix("_OV").lower()
        out[gold.name] = stem if (CORPUS / f"{stem}.ov").is_file() else None
    return out


def program_items(work: Path, seed: int) -> list[dict]:
    """One round's items: each names its file and the CLI commands run on
    it, with what each command must yield."""
    items = []
    progs = work / "progs"
    progs.mkdir(parents=True, exist_ok=True)
    for stem, src in workloads.programs(seed):
        path = progs / f"{stem}.ov"
        path.write_text(src, encoding="utf-8")
        items.append({"kind": "generated", "path": str(path), "stem": stem,
                      "run": True, "style": None, "expect": None,
                      "classes": CLASS_RE.findall(src)})
    owners = golden_owners()
    for path in sorted(CORPUS.glob("*.ov")):
        src = path.read_text(encoding="utf-8")
        pre_post = any(stem == path.stem and gold.endswith("_OV.sol")
                       for gold, stem in owners.items())
        items.append({"kind": "corpus", "path": str(path), "stem": path.stem,
                      "run": "main" in src,
                      "style": "pre-post" if pre_post else None,
                      "expect": None, "classes": CLASS_RE.findall(src)})
    for path in sorted((CORPUS / "negative").glob("*.ov")):
        src = path.read_text(encoding="utf-8")
        items.append({"kind": "negative", "path": str(path),
                      "stem": "neg_" + path.stem, "run": False, "style": None,
                      "expect": expected_code(src), "classes": []})
    for it in items:
        argvs = [["check", it["path"]]]
        if it["run"]:
            argvs.append(["run", it["path"]])
        if it["kind"] != "negative" or it["expect"].startswith("E-TRANSPILE"):
            argvs.append(["transpile", it["path"], "-o",
                          str(work / "sol" / it["stem"])]
                         + (["--style", it["style"]] if it["style"] else []))
        it["argvs"] = argvs
    return items


def cli_call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def report_of(stdout: str) -> dict:
    return dict(REPORT_RE.findall(stdout))


def check_program_item(it: dict, results: list, run: Run,
                       golden_hits: set) -> int:
    """Checks one item's command results; returns its directed checks."""
    name = it["stem"]
    directed = 0
    for argv, (rc, out, err) in zip(it["argvs"], results):
        cmd = argv[0]
        codes = set(ERROR_RE.findall(err))
        if it["kind"] == "negative":
            want = it["expect"]
            if cmd == "check":
                ok = (codes == set() and rc == 0) if want.startswith(
                    "E-TRANSPILE") else (rc == 1 and codes == {want})
            else:
                ok = rc == 1 and codes == {want}
            if not ok:
                run.problem(f"{name}: {cmd} gave {rc} {sorted(codes)}, "
                            f"want {want}")
            continue
        if cmd == "check" and (rc != 0 or codes):
            run.problem(f"{name}: check reported {sorted(codes)}")
        elif cmd == "run":
            rep = report_of(out)
            if "lemma3" not in rep or "E-STUCK" in out + err:
                run.problem(f"{name}: run printed no report or got stuck")
                continue
            # the CLI exits 0 exactly when lemma 3 holds
            if (rc == 0) != (rep["lemma3"] == "True"):
                run.problem(f"{name}: run exit {rc} with lemma3 "
                            f"{rep['lemma3']}")
            if it["kind"] == "generated" and rep["lemma3"] != "True":
                run.problem(f"{name}: lemma3 does not hold")
            directed += int(rep["pre_checks"]) + int(rep["post_checks"])
        elif cmd == "transpile":
            if it["kind"] == "generated" and rc != 0:
                run.problem(f"{name}: transpile failed {sorted(codes)}")
            elif rc != 0 and not (rc == 1 and codes and all(
                    c.startswith("E-TRANSPILE") for c in codes)):
                run.problem(f"{name}: transpile gave {rc} {sorted(codes)}")
            if rc == 0:
                outdir = Path(argv[3])
                for cls in it["classes"]:
                    sol = (f"{cls}_OV.sol" if it["style"] == "pre-post"
                           else f"{cls}.sol")
                    if not (outdir / sol).is_file():
                        run.problem(f"{name}: transpile wrote no {sol}")
                for gold, owner in golden_owners().items():
                    emitted = outdir / gold
                    if owner not in (None, it["stem"]) or not emitted.is_file():
                        continue
                    golden_hits.add(gold)
                    if emitted.read_bytes() != (GOLDENS / gold).read_bytes():
                        run.problem(f"{name}: {gold} differs from goldens/")
    return directed


def run_compile(seed: int, run: Run) -> dict:
    work = OUT / f"work-{os.getpid()}"

    def setup():
        ov = import_ovlang()
        shutil.rmtree(work, ignore_errors=True)
        return ov, program_items(work, seed)

    try:
        ov, items = median_setup(run, setup)
        cli = ov.cli
        first: list = [None] * len(items)
        for rnd in run.rounds_until_done():
            for k, it in enumerate(items):
                run.attempted += 1
                run.begin_item()
                results = []
                try:
                    for argv in it["argvs"]:
                        t0 = time.perf_counter()
                        results.append(cli_call(cli, argv))
                        run.phase(t0, verify=argv[0] == "check")
                except Exception as err:  # a crash fails this program only
                    run.phase(t0)
                    run.end_item(False)
                    run.fail(1, f"{it['stem']}: {argv[0]} raised "
                                f"{type(err).__name__}: {err}")
                    continue
                run.end_item(True)
                if first[k] is None:
                    first[k] = results
                elif [r[0] for r in results] != [r[0] for r in first[k]]:
                    run.problem(f"{it['stem']}: round {rnd} differs")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checks = naive = 0
        golden_hits: set = set()
        for it, results in zip(items, first):
            if results is None:
                continue
            directed = check_program_item(it, results, run, golden_hits)
            checks += directed
            if it["run"] and run.tracer is None:
                rc, out, _err = cli_call(cli, ["run", it["path"], "--naive"])
                rep = report_of(out)
                n = int(rep.get("pre_checks", 0)) + int(rep.get("post_checks", 0))
                naive += n
                if directed > n:
                    run.problem(f"{it['stem']}: directed checks {directed} "
                                f"exceed naive {n}")
        missing = {p.name for p in GOLDENS.glob("*.sol")} - golden_hits
        if missing and run.failed == 0:
            run.problem(f"no transpile output matched goldens {sorted(missing)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        **timing_metrics(run),
        "checks_per_op": (checks / len(items), "checks/op"),
        "naive_lead": (naive / checks if checks else 0.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "_round": (len(items), len(items), 0),
    }


WORKLOADS = ("bank_large", "custody_hot", "compile_run")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ovlang" / "__init__.py").is_file():
        print(f"error: no ovlang sources under {SRC}", file=sys.stderr)
        return 2
    if not (CORPUS / "bank.ov").is_file() or not GOLDENS.is_dir():
        print("error: corpus/ or goldens/ is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    run = Run(args.seconds, tracer)
    if args.workload == "compile_run":
        e2e = run_compile(args.seed, run)
    else:
        e2e = run_blocks(args.workload, args.seed, run)
    for msg in run.failures[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in run.problems[:20]:
        print(f"wrong: {msg}", file=sys.stderr)
    if run.misreported:
        print(f"known fault: {run.misreported} of a round's transactions "
              f"are contained inner aborts that blocksched reports as "
              f"{model.POST_FAIL} and retries", file=sys.stderr)

    if tracer is None:
        metrics = {k: v for k, v in e2e.items() if not k.startswith("_")}
    else:
        metrics = tracing.layer_metrics(tracer, run.timed_items,
                                        *e2e["_round"],
                                        run.speed.slowdown())
        tracer.write(str(OUT / f"trace-{args.workload}.jsonl"))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    # the traced run's raw item median, set against that of an untraced
    # run, gives the tracing overhead (round 0 of a traced run only counts)
    raw = timings(run, first_round=0 if tracer is None else 1)
    print(f"rounds: {run.rounds}  items: {run.items}  timed: "
          f"{run.timed_s:.3f} s  raw: setup {statistics.median(raw['setup'][0]):.4f}"
          f" s, item p50 {p50_ms(raw['item'][0]):.3f} ms, validate p50 "
          f"{p50_ms(raw['verify'][0]):.3f} ms  mean host slowdown "
          f"{run.speed.slowdown():.4f}  misreported contained aborts "
          f"{run.misreported}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
