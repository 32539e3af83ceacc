"""Driver behavior: exit codes, output shapes, option handling."""
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from ovlang import regions
from ovlang.cli import main
from ovlang.diagnostics import OvError
from ovlang.runtime import Machine

from conftest import CORPUS, GOLDENS, NEGATIVE, run_source

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

    def test_deeply_nested_parentheses(self, tmp_path):
        src = tmp_path / "deep.ov"
        src.write_text("main { var x = " + "(" * 120 + "1" + ")" * 120 + "; }")
        assert main(["check", str(src)]) == 0

    def test_deep_operator_chain_exits_2(self, tmp_path):
        # the left-nested PrimOp chain is as deep as it is long, past
        # Python's recursion limit in the checker
        src = tmp_path / "long.ov"
        src.write_text("main { var x = " + " + ".join(["1"] * 400) + "; }")
        env = dict(os.environ, OV_COLOR="0", PYTHONPATH=os.pathsep.join(
            [str(CORPUS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ovlang.cli", "check", str(src)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("error E-DEPTH:") == 1

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

    def test_runtime_error_exits_2(self, capsys, monkeypatch):
        def stuck(self, fuel):
            raise OvError("E-STUCK", "no reduction for Block")

        monkeypatch.setattr(Machine, "run", stuck)
        assert main(["run", BANK]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "0:0: error E-STUCK: no reduction for Block"

    def test_diagnostics_block_running(self, capsys):
        assert main(["run", str(NEGATIVE / "need_contract.ov")]) == 1


class TestParserReuse:
    """main builds its argument parser once per process; no call's options
    may reach the next call."""

    def test_json_then_text(self, capsys):
        bad = str(NEGATIVE / "effect_raw_write.ov")
        assert main(["check", "--json", bad]) == 1
        first = capsys.readouterr()
        assert json.loads(first.out.splitlines()[0])["code"] == "E-EFFECT"
        assert first.err == ""
        assert main(["check", bad]) == 1
        second = capsys.readouterr()
        assert second.out == ""
        assert "error E-EFFECT:" in second.err

    def test_naive_then_directed(self, capsys):
        directed = run_source((CORPUS / "bank.ov").read_text(encoding="utf-8"))
        assert main(["run", "--json", "--naive", BANK]) == 0
        naive = json.loads(capsys.readouterr().out)
        assert main(["run", "--json", BANK]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["pre_checks"], rep["post_checks"]) == (
            directed.pre_checks, directed.post_checks)
        assert naive["pre_checks"] + naive["post_checks"] > \
            rep["pre_checks"] + rep["post_checks"]

    def test_bad_fuel_then_default(self, capsys):
        assert main(["run", "--fuel", "0", BANK]) == 2
        assert "fuel must be positive" in capsys.readouterr().err
        assert main(["run", BANK]) == 0
        assert "lemma3: True" in capsys.readouterr().out


class TestFlatBlocks:
    """A block's length is not nesting: only nesting can reach E-DEPTH."""

    LONG_MAIN = "main {\n" + "".join(
        f"    int x{i} = {i};\n" for i in range(5000)) + "}\n"
    LONG_METHOD = (
        "class Box[o] {\n    int v;\n    void fill() <this,this> {\n"
        + "".join(f"        v = {i};\n" for i in range(2000))
        + "    }\n}\n"
        "main {\n    Box<top> b = new Box<top>();\n    atomic b.fill();\n}\n")

    @pytest.mark.parametrize("which", ["LONG_MAIN", "LONG_METHOD"])
    @pytest.mark.parametrize("command", ["check", "run", "transpile"])
    def test_long_block_exits_0(self, which, command, tmp_path, capsys):
        src = tmp_path / "long.ov"
        src.write_text(getattr(self, which))
        argv = [command, str(src)]
        if command == "transpile":
            argv += ["-o", str(tmp_path / "sol")]
        assert main(argv) == 0
        assert "E-DEPTH" not in capsys.readouterr().err


class TestCheckFuzz:
    """`ov check` on seeded byte and token mutations of the corpus ends in a
    documented exit code and never in a Python exception."""

    SOURCES = [p.read_text(encoding="utf-8")
               for p in sorted(CORPUS.glob("**/*.ov"))]
    TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S")
    # pieces that leave a declaration's lookahead open when the input
    # is cut after them, and single tokens that break a statement
    CUTS = ["Foo <", "Foo<this,", "int", "x", "Foo<this>", "a < b >"]
    PIECES = CUTS + ["<", ">", ",", ";", "=", "{", "}", "(", ")", ".",
                     "this", "top", "*", "atomic", "(((", "1e"]

    def mutations(self, count: int, seed: int):
        rng = random.Random(seed)
        for _ in range(count):
            src = rng.choice(self.SOURCES)
            for _ in range(rng.randint(1, 3)):
                spans = [m.span() for m in self.TOKEN.finditer(src)]
                start, end = rng.choice(spans) if spans else (0, 0)
                piece = rng.choice(self.PIECES)
                op = rng.randrange(5)
                if op == 0:
                    src = src[:start] + piece + " " + src[start:]
                elif op == 1:
                    src = src[:start] + piece + src[end:]
                elif op == 2:
                    src = src[:start] + src[end:]
                elif op == 3:  # cut after a piece, mid-statement
                    src = src[:start] + rng.choice(self.CUTS)
                else:
                    pos = rng.randrange(len(src) + 1)
                    src = src[:pos] + chr(rng.randrange(1, 128)) + src[pos:]
            data = src.encode("utf-8")
            if rng.random() < 0.1:  # any byte, so also invalid UTF-8
                pos = rng.randrange(len(data) + 1)
                byte = bytes([rng.randrange(256)])
                data = data[:pos] + byte + data[pos + 1:]
            yield data

    def test_mutated_sources(self, tmp_path, capsys):
        path = tmp_path / "m.ov"
        codes = set()
        cut_endings = set()
        began = time.perf_counter()
        for data in self.mutations(2000, seed=5):
            path.write_bytes(data)
            code = main(["check", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), data
            assert "Traceback" not in err, data
            codes.add(code)
            cut_endings.update(c for c in self.CUTS
                               if data.endswith(c.encode()))
        assert time.perf_counter() - began < 30
        # accepted, rejected and unreadable inputs all occurred, and inputs
        # ending mid-lookahead among them
        assert codes == {0, 1, 2}
        assert cut_endings == set(self.CUTS)

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ov"
        path.write_bytes(b"main { \xff }")
        assert main(["check", str(path)]) == 2
        assert "not valid utf-8 text" in capsys.readouterr().err


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


class TestSimulateFuzz:
    """`ov simulate` on seeded byte and field mutations of corpus/blocks and
    of a bank block large enough to be split over worker processes ends in
    a documented exit code and never in a Python exception."""

    # values put in place of a field, or of one of its arguments: most of
    # them keep the block's schema, so that the block reaches the miner
    ODD = [None, -1, 0, 2 ** 70, True, 1.5, "zz", "nope", "Account", "a0",
           "deposit", [], {}, [1, 2], ["x"], [[1]]]
    SAME_SHAPE = {"id": ["a0", "a1", "zz"], "class": ["Account", "Customer",
                                                      "Nothing"],
                  "target": ["a0", "a1", "a7", "zz"],
                  "method": ["deposit", "withdraw", "balance", "nope"],
                  "args": [[], [0], [-5], [7], [2 ** 70], [True], [1, 2]]}

    def bases(self) -> list:
        out = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((CORPUS / "blocks").glob("*.json"))]
        rng = random.Random(3)
        n = 120  # 240 deploys and transactions: split over workers
        out.append({
            "deploy": [{"id": f"a{i}", "class": "Account",
                        "args": [rng.randrange(0, 100)]} for i in range(n)],
            "txns": [{"target": f"a{rng.randrange(n)}",
                      "method": rng.choice(["deposit", "withdraw"]),
                      "args": [rng.randrange(1, 80)]} for _ in range(n)]})
        return out

    def mutate_fields(self, rng, block: dict) -> None:
        for _ in range(rng.randint(1, 3)):
            lists = [block[k] for k in ("deploy", "txns")
                     if isinstance(block.get(k), list)]
            entries = [e for lst in lists for e in lst
                       if isinstance(e, dict) and e]
            if not entries:
                return
            op = rng.choice([0, 0, 0, 1, 2, 3, 4, 5])
            entry = rng.choice(entries)
            key = rng.choice(sorted(entry))
            if op == 0:
                entry[key] = rng.choice(self.SAME_SHAPE.get(key, self.ODD)
                                        if rng.random() < 0.8 else self.ODD)
            elif op == 1:
                del entry[key]
            elif op == 2 and isinstance(entry.get("args"), list) \
                    and entry["args"]:
                entry["args"][rng.randrange(len(entry["args"]))] = \
                    rng.choice(self.ODD)
            elif op == 3:
                entry[rng.choice(["gas", "seed", "id"])] = rng.choice(self.ODD)
            elif op == 4:
                rng.choice(lists).append(dict(entry))
            else:
                block[rng.choice(["deploy", "txns", "workers"])] = \
                    rng.choice(self.ODD)

    def mutations(self, count: int, seed: int):
        rng = random.Random(seed)
        bases = self.bases()
        for _ in range(count):
            # one mutant in four starts from the large block, and has its
            # fields mutated: a byte mutation of it seldom stays JSON
            large = rng.random() < 0.25
            block = json.loads(json.dumps(
                bases[-1] if large else rng.choice(bases[:-1])))
            if large or rng.random() < 0.7:
                self.mutate_fields(rng, block)
                yield json.dumps(block).encode("utf-8")
                continue
            data = bytearray(json.dumps(block).encode("utf-8"))
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(data))
                op = rng.randrange(3)
                if op == 0:
                    data[pos] = rng.randrange(256)
                elif op == 1:
                    del data[pos]
                else:
                    data[pos:pos] = rng.choice([b"[", b"]", b"{", b"}", b",",
                                                b"\"", b"-", b"9", b"null"])
            yield bytes(data)

    def test_mutated_blocks(self, tmp_path, capsys, monkeypatch):
        merged = []
        merge = regions.merge
        monkeypatch.setattr(regions, "merge",
                            lambda *a: merged.append(1) or merge(*a))
        path = tmp_path / "b.json"
        codes = set()
        began = time.perf_counter()
        for data in self.mutations(400, seed=7):
            path.write_bytes(data)
            code = main(["simulate", BANK, str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), data
            assert "Traceback" not in err, data
            codes.add(code)
        assert time.perf_counter() - began < 30
        # accepted, rejected and malformed blocks all occurred, and large
        # ones ran split over workers
        assert {0, 1, 2} <= codes
        if regions.usable_cpus() > 1:
            assert len(merged) > 10
