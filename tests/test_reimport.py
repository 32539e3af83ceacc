"""A fresh import of the package must not keep an earlier copy alive: the
benchmark imports it again for each setup timing and measures the
process's peak memory, and a module-level alias evaluated at import (such
as a `typing.Union`) is kept in typing's caches, and with it the classes
and module globals of the copy that made it."""
import subprocess
import sys

from conftest import CORPUS, ROOT

SCRIPT = """
import contextlib, gc, importlib, io, sys, weakref

def load():
    cli = importlib.import_module("ovlang.cli")
    for name in ("ovlang.blocksched", "ovlang.transpile"):
        importlib.import_module(name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", sys.argv[1]]) == 0
        assert cli.main(["run", sys.argv[1]]) == 0
        # a block runs compiled bodies, whose module loads on first use
        assert cli.main(["simulate", sys.argv[1], sys.argv[2]]) == 0
    assert "ovlang.closures" in sys.modules
    return weakref.ref(sys.modules["ovlang.ast"].Node)

first = load()
for name in [n for n in sys.modules if n.split(".")[0] == "ovlang"]:
    del sys.modules[name]
second = load()
gc.collect()
print(first() is None, second() is not None)
"""


def test_a_fresh_import_frees_the_previous_one():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(CORPUS / "bank.ov"),
         str(CORPUS / "blocks" / "transfers.json")],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src"), "OV_COLOR": "0"})
    assert out.stdout.split() == ["True", "True"], out.stderr
