"""Per-layer tracing from outside the program.

Hooks wrap public functions of each ovlang module and patch every name
under which callers look them up: `parser.tokenize` as well as
`lexer.tokenize`, `cli.parse_program` as well as `parser.parse_program`,
`blocksched.interferes` where `build_conflict_graph` finds it, and so on.

A traced run has two phases, so that counting does not inflate times:
  count  every hook only counts its calls (plus tokens, steps, edges,
         bytes and transaction executions taken from arguments and
         results). Counts are exact and the same in every round, so the
         leading items of one round give them all.
  time   only the span hooks are installed: each records a span (name,
         start, end, parent span, item id). Hot, tiny functions such as
         `OwnershipTree.runtime_inside` get no span; they would cost more
         to time than to run.
Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the time its child spans cover; a layer's self
time is the sum over its spans. Hooks record nothing while `Tracer.item`
is None, so work outside the timed region never counts.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter

LAYERS = ("lexer", "parser", "desugar", "typecheck", "runtime", "ownership",
          "blocksched", "transpile", "cli")


def _tokens(tr, toks, _args):
    tr.counts["lexer.tokens"] += len(toks) - 1  # without the eof token


def _steps(tr, _report, args):
    tr.counts["runtime.steps"] += args[0].steps


def _txn(tr, _value, args):
    # a transaction execution is a run_expression of an atomic call;
    # deploys run constructors through the same entry and do not count
    if type(args[1]).__name__ == "Atomic":
        tr.counts["runtime.txn_executions"] += 1


def _edges(tr, edges, _args):
    tr.counts["blocksched.edges"] += len(edges)


def _bytes(tr, files, _args):
    tr.counts["transpile.bytes_out"] += sum(
        len(text.encode("utf-8")) for text in files.values())


# (module, class or None, attribute, hook name, timed?, count callback,
#  other modules that imported the name and must be patched too)
HOOKS = [
    ("lexer", None, "tokenize", "lexer.tokenize", True, _tokens, ("parser",)),
    ("parser", None, "parse_program", "parser.parse_program", True, None,
     ("cli", "")),
    ("desugar", None, "desugar", "desugar.desugar", True, None, ("cli", "")),
    ("typecheck", None, "check_program", "typecheck.check_program", True,
     None, ("cli", "")),
    ("runtime", "Machine", "__init__", "runtime.init", True, None, ()),
    ("runtime", "Machine", "run", "runtime.run", True, _steps, ()),
    ("runtime", "Machine", "run_expression", "runtime.run_expression", True,
     _txn, ()),
    ("runtime", "Machine", "state_hash", "runtime.state_hash", True, None, ()),
    ("runtime", "Machine", "eval_invariant", "runtime.eval_invariant", False,
     None, ()),
    ("ownership", "OwnershipTree", "runtime_subtree",
     "ownership.runtime_subtree", True, None, ()),
    ("ownership", "OwnershipTree", "runtime_inside",
     "ownership.runtime_inside", False, None, ()),
    ("ownership", None, "subtrees_intersect", "ownership.subtrees_intersect",
     False, None, ("blocksched",)),
    ("blocksched", None, "mine_block", "blocksched.mine_block", True, None,
     ()),
    ("blocksched", None, "validate_block", "blocksched.validate_block", True,
     None, ()),
    ("blocksched", None, "build_conflict_graph",
     "blocksched.build_conflict_graph", True, _edges, ()),
    ("blocksched", None, "interferes", "blocksched.interferes", False, None,
     ()),
    ("transpile", None, "transpile_program", "transpile.transpile_program",
     True, _bytes, ()),
    ("transpile", None, "write_outputs", "transpile.write_outputs", True,
     None, ()),
    ("cli", None, "main", "cli.main", True, None, ()),
]


class Tracer:
    def __init__(self) -> None:
        # one row per span: [name, start, end, parent index, item id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None
        self._undo: list[tuple] = []

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
        return wrapper

    def _counter(self, name: str, fn, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result
        return wrapper

    def install(self, mode: str) -> None:
        """Patch the hooks of one phase ("count" or "time") into the
        imported ovlang modules, replacing those of the other phase."""
        self.uninstall()
        for modname, cls, attr, name, timed, after, also in HOOKS:
            module = importlib.import_module(f"ovlang.{modname}")
            owner = getattr(module, cls) if cls else module
            fn = getattr(owner, attr)
            if mode == "count":
                wrapped = self._counter(name, fn, after)
            elif timed:
                wrapped = self._span(name, fn)
            else:
                continue
            targets = [owner] + [
                importlib.import_module(f"ovlang.{m}" if m else "ovlang")
                for m in also]
            for target in targets:
                if target is owner or getattr(target, attr, None) is fn:
                    self._undo.append((target, attr, fn))
                    setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._undo):
            setattr(target, attr, fn)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for k, (name, t0, t1, _p, _i) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[k]
        return out

    def total_times(self) -> dict[str, float]:
        """Inclusive seconds summed per span name."""
        out: dict[str, float] = {}
        for name, t0, t1, _p, _i in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")


def layer_metrics(tracer: Tracer, timed_items: int, round_items: int,
                  round_ops: int, round_blocks: int, slowdown: float) -> dict:
    """Per-layer figures. Seconds are per item of the time phase, scaled
    by the run's mean host slowdown (calibrate.py). Counts come from the
    count phase: the first `round_items` items of round 0, holding
    `round_ops` operations (transactions, or programs on compile_run) in
    `round_blocks` blocks."""
    self_s = {k: v / slowdown for k, v in tracer.self_times().items()}
    total_s = {k: v / slowdown for k, v in tracer.total_times().items()}
    c = tracer.counts

    def per(x: float, n: float) -> float:
        return x / n if n else 0.0

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def seconds(name: str) -> float:
        return per(total_s.get(name, 0.0), timed_items)

    metrics = {f"{layer}.self_s": (per(layer_self(layer), timed_items), "s")
               for layer in LAYERS}
    tokens_per_item = per(c["lexer.tokens"], round_items)
    metrics.update({
        "lexer.tokens_per_s": (
            per(tokens_per_item, metrics["lexer.self_s"][0]), "1/s"),
        "parser.tokens_per_s": (
            per(tokens_per_item, metrics["parser.self_s"][0]), "1/s"),
        "transpile.bytes_out": (per(c["transpile.bytes_out"], round_items),
                                "B"),
        "cli.parse_calls_per_program": (
            per(c["parser.parse_program"], round_items), "count"),
        "runtime.run_s": (seconds("runtime.run"), "s"),
        "runtime.steps_per_op": (per(c["runtime.steps"], round_ops), "count"),
        "runtime.txn_s": (per(self_s.get("runtime.run_expression", 0.0),
                              timed_items), "s"),
        "runtime.invariant_evals_per_op": (
            per(c["runtime.eval_invariant"], round_ops), "count"),
        "runtime.state_hash_s": (seconds("runtime.state_hash"), "s"),
        "ownership.subtree_s": (seconds("ownership.runtime_subtree"), "s"),
        "ownership.subtree_calls_per_txn": (
            per(c["ownership.runtime_subtree"], round_ops), "count"),
        "ownership.inside_calls_per_txn": (
            per(c["ownership.runtime_inside"], round_ops), "count"),
        "blocksched.conflict_graph_s": (
            seconds("blocksched.build_conflict_graph"), "s"),
        "blocksched.interferes_calls_per_block": (
            per(c["blocksched.interferes"], round_blocks), "count"),
        "blocksched.edge_yield": (
            per(c["blocksched.edges"], c["blocksched.interferes"]), "ratio"),
        "blocksched.mine_s": (seconds("blocksched.mine_block"), "s"),
        "blocksched.validate_s": (seconds("blocksched.validate_block"), "s"),
        # mine and validate each execute every transaction once at best
        "blocksched.executions_per_txn": (
            per(c["runtime.txn_executions"], 2 * round_ops)
            if round_blocks else 0.0,
            "count"),
    })
    return metrics
