"""Shared fixtures: corpus paths and pipeline helpers."""
import importlib.util
from pathlib import Path

import pytest

from ovlang import ast, blocksched
from ovlang.desugar import desugar
from ovlang.diagnostics import Diagnostics, OvError
from ovlang.parser import parse_program
from ovlang.runtime import Machine
from ovlang.typecheck import check_program

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
NEGATIVE = CORPUS / "negative"
GOLDENS = ROOT / "goldens"

POSITIVE_FILES = sorted(p for p in CORPUS.glob("*.ov"))
RUNNABLE_FILES = [p for p in POSITIVE_FILES
                  if "main" in p.read_text(encoding="utf-8")]
NEGATIVE_FILES = sorted(NEGATIVE.glob("*.ov"))


def bench_module(name: str):
    """bench/<name>.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compile_source(src: str):
    """parse -> desugar -> check; returns (core program, diagnostics).
    Parse failures come back as an E-PARSE diagnostic with core None."""
    try:
        surface, diags = parse_program(src)
    except OvError as exc:
        diags = Diagnostics()
        diags.items.append(exc.diagnostic)
        return None, diags
    core = desugar(surface)
    diags.extend(check_program(core))
    return core, diags


def check_clean(src: str) -> ast.Program:
    core, diags = compile_source(src)
    assert core is not None and not diags.has_errors(), [
        f"{d.code}@{d.line}:{d.col} {d.msg}" for d in diags.errors()]
    return core


def run_source(src: str, naive: bool = False, seed: int = 0,
               fuel: int = 1_000_000):
    core = check_clean(src)
    return Machine(core, seed=seed, naive=naive).run(fuel)


def expected_code(path: Path) -> str:
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("// expect:"), path
    return first.split(":", 1)[1].split()[0]


@pytest.fixture(scope="session")
def corpus_cores():
    """Every positive corpus file compiled once."""
    out = {}
    for p in POSITIVE_FILES:
        out[p.name] = check_clean(p.read_text(encoding="utf-8"))
    return out


@pytest.fixture
def fresh_code(monkeypatch):
    """No program's code kept from an earlier test: the first block of a
    program in the test compiles it, as in a fresh process."""
    monkeypatch.setattr(blocksched, "_CODE", None)
