"""The benchmark tracer patches hooks into ovlang by name (`HOOKS` in
bench/tracer.py). A renamed or re-bound function would silently empty its
per-layer metrics, so the names are pinned here."""
import importlib
import importlib.util

import pytest

from conftest import CORPUS, ROOT


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def _module(name: str):
    return importlib.import_module(f"ovlang.{name}" if name else "ovlang")


@pytest.mark.parametrize("hook", TRACER.HOOKS, ids=lambda h: h[3])
def test_hook_target_exists_and_is_bound_once(hook):
    modname, cls, attr, _name, _timed, _after, also = hook
    module = _module(modname)
    owner = getattr(module, cls) if cls else module
    assert callable(getattr(owner, attr, None)), f"{modname}.{attr} is gone"
    fn = getattr(owner, attr)
    for other in also:
        # a module that imported the name must still hold the same object,
        # or the patch would miss the calls made through it
        assert getattr(_module(other), attr, None) is fn, (other, attr)


def test_front_end_hooks_see_every_cli_call(monkeypatch, capsys):
    monkeypatch.setenv("OV_COLOR", "0")
    cli = _module("cli")
    tracer = TRACER.Tracer()
    tracer.install("count")
    try:
        tracer.item = 0
        assert cli.main(["check", str(CORPUS / "bank.ov")]) == 0
        assert cli.main(["run", str(CORPUS / "bank.ov")]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for name in ("cli.main", "lexer.tokenize", "parser.parse_program",
                 "desugar.desugar", "typecheck.check_program"):
        assert counts[name] == 2, name
    assert counts["lexer.tokens"] > 0
    assert counts["runtime.run"] == 1
