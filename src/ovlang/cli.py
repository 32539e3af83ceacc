"""Command-line driver: check, run, transpile, simulate.

Exit codes: 0 success, 1 diagnostics / validity failure / validator
mismatch, 2 I/O or schema trouble, 3 fuel exhaustion.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import ast
from .desugar import desugar
from .diagnostics import Diagnostics, OvError
from .parser import parse_program
from .runtime import DEFAULT_FUEL, Machine
from .typecheck import check_program
from . import blocksched
from . import transpile as tp

EXIT_OK = 0
EXIT_DIAG = 1
EXIT_IO = 2
EXIT_FUEL = 3


def _use_color() -> bool:
    env = os.environ.get("OV_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return sys.stderr.isatty()


def _emit_diags(diags: Diagnostics, as_json: bool) -> None:
    if as_json:
        for d in diags:
            print(d.to_json())
    else:
        color = _use_color()
        for d in diags:
            print(d.render(color), file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def _load_checked(path: str, as_json: bool
                  ) -> tuple[ast.Program, ast.Program] | None:
    """Parse + desugar + typecheck; print diagnostics; (surface, core) or
    None. The surface tree is kept for the transpiler, so compound
    assignments survive."""
    src = _read(path)
    diags = Diagnostics()
    loaded = None
    try:
        program, pdiags = parse_program(src)
        diags.extend(pdiags)
        core = desugar(program)
        diags.extend(check_program(core))
        loaded = (program, core)
    except OvError as err:
        diags.items.append(err.diagnostic)
    _emit_diags(diags, as_json)
    return None if diags.has_errors() else loaded


def cmd_check(args) -> int:
    worst = EXIT_OK
    for path in args.files:
        try:
            loaded = _load_checked(path, args.json)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_IO
        if loaded is None:
            worst = EXIT_DIAG
    return worst


def cmd_run(args) -> int:
    try:
        loaded = _load_checked(args.file, args.json)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    if loaded is None:
        return EXIT_DIAG
    machine = Machine(loaded[1], seed=args.seed, naive=args.naive)
    try:
        report = machine.run(fuel=args.fuel)
    except OvError as err:
        if err.code == "E-FUEL":
            print(f"{err.code}: {err.msg}", file=sys.stderr)
            return EXIT_FUEL
        raise
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        for key, value in report.to_json().items():
            print(f"{key}: {value}")
        for f in report.failures:
            where = f"thread {f['thread']}" if f["thread"] is not None \
                else "end of run"
            print(f"failure[{where}]: {f['code']}: {f['msg']}")
    return EXIT_OK if report.lemma3 else EXIT_DIAG


def cmd_transpile(args) -> int:
    try:
        loaded = _load_checked(args.file, False)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    if loaded is None:
        return EXIT_DIAG
    surface = loaded[0]
    cfg = tp.EmitterConfig(style=args.style)
    try:
        files = tp.transpile_program(surface, cfg)
    except OvError as err:
        _emit_diags(Diagnostics([err.diagnostic]), False)
        return EXIT_DIAG
    try:
        written = tp.write_outputs(files, args.out)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        loaded = _load_checked(args.program, False)
        raw = json.loads(_read(args.block))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as err:
        print(f"error: block is not valid JSON: {err}", file=sys.stderr)
        return EXIT_IO
    if loaded is None:
        return EXIT_DIAG
    core = loaded[1]
    try:
        block = blocksched.parse_block(raw)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        mined = blocksched.mine_block(core, block)
        validation = blocksched.validate_block(core, mined, block)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except OvError as err:
        _emit_diags(Diagnostics([err.diagnostic]), False)
        return EXIT_DIAG
    print(json.dumps({"mined": mined.to_json(),
                      "validation": validation.to_json()}))
    return EXIT_OK if validation.accepted else EXIT_DIAG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck source files")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true",
                   help="diagnostics as JSON lines on stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="execute a program's main block")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--naive", action="store_true",
                   help="count full-subtree checks around every call")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("transpile", help="emit Solidity sources")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--style", choices=[tp.STYLE_OVVALIDITY, tp.STYLE_PRE_POST],
                   default=tp.STYLE_OVVALIDITY)
    p.set_defaults(func=cmd_transpile)

    p = sub.add_parser("simulate", help="mine and validate a transaction block")
    p.add_argument("program")
    p.add_argument("block")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "fuel", 1) <= 0:
        print("error: fuel must be positive", file=sys.stderr)
        return EXIT_IO
    if getattr(args, "seed", 0) < 0:
        print("error: seed must be non-negative", file=sys.stderr)
        return EXIT_IO
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
