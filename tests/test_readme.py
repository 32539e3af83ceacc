"""The README's `ov run` and `ov simulate` samples are what the CLI prints,
so a change to the counters or the state hash cannot leave them stale."""
import json

from ovlang.cli import main

from conftest import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def shown(command: str) -> list[str]:
    """The output lines the README shows after `$ <command>`, up to the
    next blank line or the end of the code block."""
    after = README.split(f"$ {command}\n", 1)[1]
    return after.split("```", 1)[0].split("\n\n", 1)[0].splitlines()


def test_run_sample(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["run", "corpus/bank.ov"]) == 0
    assert capsys.readouterr().out.splitlines() == shown(
        "ov run corpus/bank.ov")


def test_simulate_sample(capsys, monkeypatch):
    # the README shortens the hash to its first and last four hex digits,
    # and the validation object to whether it accepted
    monkeypatch.chdir(ROOT)
    assert main(["simulate", "corpus/bank.ov",
                 "corpus/blocks/transfers.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    mined, h = out["mined"], out["mined"]["final_state_hash"]
    mined["final_state_hash"] = f"{h[:4]}…{h[-4:]}"
    want = (f'{{"mined": {json.dumps(mined, ensure_ascii=False)}, '
            f'"validation": {{"accepted": '
            f'{json.dumps(out["validation"]["accepted"])}, ...}}}}')
    assert "".join(shown("ov simulate corpus/bank.ov "
                         "corpus/blocks/transfers.json")) == want
