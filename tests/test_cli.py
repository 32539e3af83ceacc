"""Driver behavior: exit codes, output shapes, option handling."""
import json

import pytest

from ovlang.cli import main

from conftest import CORPUS, GOLDENS, NEGATIVE

BANK = str(CORPUS / "bank.ov")
ACCOUNT = str(CORPUS / "account.ov")
STORAGE = str(CORPUS / "storage.ov")
OVERDRAW = str(CORPUS / "overdraw.ov")
TRANSFERS = str(CORPUS / "blocks" / "transfers.json")
CONFLICT = str(CORPUS / "blocks" / "conflict.json")


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("OV_COLOR", "0")


class TestCheck:
    def test_clean_file(self, capsys):
        assert main(["check", BANK]) == 0
        assert capsys.readouterr().err == ""

    def test_warning_only_still_passes(self, capsys):
        assert main(["check", STORAGE]) == 0
        err = capsys.readouterr().err
        assert "W-TOP-INVALIDITY" in err
        assert "warning" in err

    def test_error_file(self, capsys):
        assert main(["check", str(NEGATIVE / "effect_raw_write.ov")]) == 1
        assert "E-EFFECT" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert main(["check", str(NEGATIVE / "parse_error.ov")]) == 1
        assert "E-PARSE" in capsys.readouterr().err

    def test_many_files_worst_exit(self, capsys):
        assert main(["check", BANK, str(NEGATIVE / "type_error.ov")]) == 1

    def test_json_lines(self, capsys):
        assert main(["check", "--json",
                     str(NEGATIVE / "subcontract_call.ov")]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert out
        for line in out:
            d = json.loads(line)
            assert {"code", "severity", "line", "col", "msg"} <= set(d)
        assert any(json.loads(l)["code"] == "E-SUBCONTRACT" for l in out)

    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.ov"]) == 2

    def test_color_toggle(self, capsys, monkeypatch):
        monkeypatch.setenv("OV_COLOR", "1")
        main(["check", STORAGE])
        assert "\x1b[33m" in capsys.readouterr().err


class TestRun:
    def test_clean_run(self, capsys):
        assert main(["run", BANK]) == 0
        out = capsys.readouterr().out
        assert "lemma3: True" in out

    def test_json_report(self, capsys):
        assert main(["run", "--json", BANK]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["lemma3"] is True
        assert set(rep) == {"lemma3", "objects", "valid", "pre_checks",
                            "post_checks", "invariant_evals", "events",
                            "state_hash"}

    def test_validity_failure_exit(self, capsys):
        assert main(["run", OVERDRAW]) == 1
        out = capsys.readouterr().out
        assert "lemma3: False" in out
        assert "R-POST-FAIL" in out

    def test_fuel_exhaustion(self, capsys):
        assert main(["run", "--fuel", "1", BANK]) == 3
        assert "E-FUEL" in capsys.readouterr().err

    def test_naive_counters_dominate(self, capsys):
        main(["run", "--json", BANK])
        direct = json.loads(capsys.readouterr().out)
        main(["run", "--json", "--naive", BANK])
        naive = json.loads(capsys.readouterr().out)
        assert (direct["pre_checks"] + direct["post_checks"]
                <= naive["pre_checks"] + naive["post_checks"])

    def test_rejects_bad_fuel(self, capsys):
        assert main(["run", "--fuel", "0", BANK]) == 2

    def test_rejects_negative_seed(self, capsys):
        assert main(["run", "--seed", "-1", BANK]) == 2

    def test_diagnostics_block_running(self, capsys):
        assert main(["run", str(NEGATIVE / "need_contract.ov")]) == 1


class TestTranspile:
    def test_writes_goldens(self, capsys, tmp_path):
        out = tmp_path / "sol"
        assert main(["transpile", ACCOUNT, "-o", str(out)]) == 0
        listed = capsys.readouterr().out.strip().splitlines()
        assert sorted(listed) == listed
        for name in ("Account.sol", "Ownable.sol", "OVValidity.sol"):
            got = (out / name).read_text(encoding="utf-8")
            want = (GOLDENS / name).read_text(encoding="utf-8")
            assert got == want, name

    def test_pre_post_style(self, tmp_path):
        out = tmp_path / "sol"
        assert main(["transpile", STORAGE, "-o", str(out),
                     "--style", "pre-post"]) == 0
        got = (out / "Storage_OV.sol").read_text(encoding="utf-8")
        assert got == (GOLDENS / "Storage_OV.sol").read_text(encoding="utf-8")

    def test_untranspilable_class(self, capsys, tmp_path):
        rc = main(["transpile", str(NEGATIVE / "transpile_ctx.ov"),
                   "-o", str(tmp_path / "x")])
        assert rc == 1
        assert "E-TRANSPILE-CTX" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unwritable_output(self, capsys, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["transpile", ACCOUNT, "-o", str(blocker)]) == 2

    def test_ill_typed_input(self, capsys, tmp_path):
        assert main(["transpile", str(NEGATIVE / "type_error.ov"),
                     "-o", str(tmp_path / "x")]) == 1


class TestSimulate:
    def test_edge_free_block(self, capsys):
        assert main(["simulate", BANK, TRANSFERS]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mined"]["edges"] == []
        assert out["mined"]["status"] == ["committed"] * 3
        assert out["validation"]["accepted"] is True
        assert out["validation"]["final_state_hash"] == \
            out["mined"]["final_state_hash"]

    def test_conflicting_block(self, capsys):
        assert main(["simulate", BANK, CONFLICT]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mined"]["edges"] == [[0, 1]]
        assert out["validation"]["accepted"] is True

    def test_repeat_runs_identical(self, capsys):
        main(["simulate", BANK, CONFLICT])
        first = capsys.readouterr().out
        main(["simulate", BANK, CONFLICT])
        assert capsys.readouterr().out == first

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", BANK, str(bad)]) == 2

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"deploy": [{"id": "a"}], "txns": []}))
        assert main(["simulate", BANK, str(bad)]) == 2

    def test_unknown_block_field(self, capsys, tmp_path):
        blk = tmp_path / "b.json"
        blk.write_text(json.dumps({"deploy": [], "txns": [], "workers": 2}))
        assert main(["simulate", BANK, str(blk)]) == 2
        assert "unknown block fields: workers" in capsys.readouterr().err

    def test_workers_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", BANK, CONFLICT, "--workers", "2"])
        assert exc.value.code == 2

    def test_unknown_target(self, capsys, tmp_path):
        blk = tmp_path / "b.json"
        blk.write_text(json.dumps({
            "deploy": [{"id": "a0", "class": "Account", "args": [5]}],
            "txns": [{"target": "zz", "method": "deposit", "args": [1]}]}))
        assert main(["simulate", BANK, str(blk)]) == 1
        assert "E-TARGET" in capsys.readouterr().err

    def test_failed_deploy(self, capsys, tmp_path):
        blk = tmp_path / "b.json"
        blk.write_text(json.dumps({
            "deploy": [{"id": "a0", "class": "Account", "args": [-4]}],
            "txns": []}))
        assert main(["simulate", BANK, str(blk)]) == 2

    def test_missing_block_file(self, capsys):
        assert main(["simulate", BANK, "nope.json"]) == 2
