import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hyptorsion.cli as cli
from hyptorsion.errors import TheoremViolation


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.curve"
    path.write_text("char: 0\nP: 0,0,0,0,0,1\nQ: 1\n")
    return str(path)


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


REPO = Path(__file__).resolve().parent.parent
EX1_TEXT = b"char: 0\nP: 0,0,0,0,0,1\nQ: 1\n"


def readme_commands():
    """Argument lists of every `hyptorsion ...` line in the README's sh blocks."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    cmds = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("hyptorsion "):
                cmds.append(shlex.split(line)[1:])
    return cmds


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 1

    def test_usage_error_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.curve"
        bad.write_text("char: 0\nP: 0,0,1\nQ: 0\n")
        code, _, err = run_capture(capsys, ["torsion", "count", "--curve", str(bad), "--N", "5"])
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, _ = run_capture(capsys, ["torsion", "count", "--curve", "/nonexistent", "--N", "5"])
        assert code == 1

    def test_falsification_exit_two(self, capsys, ex1_file, monkeypatch):
        def boom(*a, **k):
            raise TheoremViolation("synthetic falsification")

        monkeypatch.setattr(cli, "count_tilde", boom)
        code, _, err = run_capture(capsys, ["torsion", "count", "--curve", ex1_file, "--N", "5"])
        assert code == 2 and "FALSIFIED" in err

    @pytest.mark.parametrize(
        "curve, argv",
        [
            (EX1_TEXT, ["scan", "--n-from", "7", "--n-to", "8", "--primes", "a,b"]),
            (EX1_TEXT, ["scan", "--char", "5", "--n-from", "6", "--n-to", "8", "--primes", "3,7,11"]),
            (EX1_TEXT, ["torsion", "rank-at", "--N", "5", "--x0", "zz"]),
            (EX1_TEXT, ["torsion", "rank-at", "--N", "5", "--x0", "1/0"]),
            (EX1_TEXT, ["torsion", "rank-at", "--char", "7", "--N", "5", "--x0", "1,2,x"]),
            (b"char: 0\nP: a,b\nQ: 1\n", ["torsion", "count", "--N", "5"]),
            (b"char: 0\nP: 0,0,0,0,0,1\nQ: 1/0\n", ["torsion", "count", "--N", "5"]),
            (b"char: abc\nP: 0,0,0,0,0,1\nQ: 1\n", ["torsion", "count", "--N", "5"]),
            (b"char: 0\nP: 0,0,0,0,0,1\nQ: 1  # \xff\n", ["torsion", "count", "--N", "5"]),
        ],
        ids=["primes", "scan-char", "x0-text", "x0-zero-den", "x0-ext", "P-text", "Q-fraction", "char-text", "not-utf8"],
    )
    def test_bad_input_is_usage_error(self, capsys, tmp_path, curve, argv):
        path = tmp_path / "in.curve"
        path.write_bytes(curve)
        code, _, err = run_capture(capsys, argv + ["--curve", str(path)])
        assert code == 1
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("p", ["4294967291", "4294967311"])
    def test_large_prime_is_not_falsified(self, capsys, p):
        argv = ["torsion", "utilde", "--curve", str(REPO / "demos/curves/ex5.curve"), "--char", p, "--N", "16"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out.strip()) == (0, "1"), err

    def test_python_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        argv = ["torsion", "count", "--curve", str(REPO / "demos/curves/ex1.curve"), "--N", "5", "--char", "2"]
        for module in ("hyptorsion", "hyptorsion.cli"):
            proc = subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout.strip()) == (0, "32"), proc.stderr

    def test_success_zero(self, capsys, ex1_file):
        code, out, _ = run_capture(capsys, ["torsion", "count", "--curve", ex1_file, "--char", "0", "--N", "5"])
        assert code == 0 and out.strip() == "12"


class TestOutputs:
    def test_count_char2(self, capsys, ex1_file):
        code, out, _ = run_capture(capsys, ["torsion", "count", "--curve", ex1_file, "--char", "2", "--N", "5"])
        assert code == 0 and out.strip() == "32"

    def test_utilde_guard_note(self, capsys, ex1_file):
        code, out, _ = run_capture(capsys, ["torsion", "utilde", "--curve", ex1_file, "--char", "0", "--N", "4"])
        assert code == 0
        assert out.strip().startswith("1")
        assert "empty" in out

    def test_delta_and_cantor_p(self, capsys, ex1_file):
        code, out, _ = run_capture(capsys, ["divpoly", "delta", "--curve", ex1_file, "--N", "5"])
        assert code == 0 and out.strip() == "10*x^12 - 20*x^7 + 10*x^2"
        code, out, _ = run_capture(capsys, ["divpoly", "cantor-p", "--curve", ex1_file, "--N", "5"])
        assert code == 0 and out.strip() == "-10*x^12 + 20*x^7 - 10*x^2"

    def test_json_round_trip_and_agreement(self, capsys, ex1_file):
        code, out, _ = run_capture(
            capsys, ["torsion", "count", "--curve", ex1_file, "--char", "2", "--N", "5", "--json"]
        )
        payload = json.loads(out)
        assert payload == {"N": 5, "char": 2, "count": 32}
        code, human, _ = run_capture(capsys, ["torsion", "count", "--curve", ex1_file, "--char", "2", "--N", "5"])
        assert int(human.strip()) == payload["count"]

    def test_utilde_json(self, capsys, ex1_file):
        code, out, _ = run_capture(
            capsys, ["torsion", "utilde", "--curve", ex1_file, "--char", "2", "--N", "5", "--json"]
        )
        payload = json.loads(out)
        assert payload["degree"] == 16 and payload["char"] == 2 and payload["N"] == 5
        assert payload["leftmost_subdet_vanished"] is True
        assert payload["coefficients"][1] == 1 and payload["coefficients"][16] == 1

    def test_bounds(self, capsys):
        code, out, _ = run_capture(capsys, ["torsion", "bounds", "--g", "2", "--N", "5", "--json"])
        payload = json.loads(out)
        assert payload["delta_bound"] == 12 and payload["worst_bound"] == 32
        assert payload["epsilon_table"] == [2, 1, 2]

    def test_check_div_pass(self, capsys, ex1_file):
        code, out, _ = run_capture(
            capsys, ["torsion", "check-div", "--curve", ex1_file, "--char", "0", "--N", "5", "--r", "2"]
        )
        assert code == 0 and out.strip() == "PASS"

    def test_rank_at(self, capsys, ex1_file):
        code, out, _ = run_capture(
            capsys, ["torsion", "rank-at", "--curve", ex1_file, "--char", "0", "--N", "5", "--x0", "1"]
        )
        assert code == 0 and "torsion" in out
        code, out, _ = run_capture(
            capsys,
            ["torsion", "rank-at", "--curve", ex1_file, "--char", "2", "--N", "5", "--x0", "0,1,0,0", "--json"],
        )
        payload = json.loads(out)
        assert payload["is_torsion_x"] is True  # the generator of GF(16) is a locus root

    @pytest.mark.parametrize("x0, torsion", [("1", True), ("2", False), ("3", None)])
    def test_rank_at_prime_field_x0(self, capsys, ex1_file, x0, torsion):
        # mod 7 the level-5 locus of ex1 is x^6 - x, and F = 4x^5 + 1 vanishes at 3
        argv = ["torsion", "rank-at", "--curve", ex1_file, "--char", "7", "--N", "5", "--x0", x0, "--json"]
        code, out, err = run_capture(capsys, argv)
        if torsion is None:
            assert code == 1 and err.startswith("usage error: F(x0) = 0")
            return
        assert code == 0
        assert json.loads(out) == {"N": 5, "rank": 0 if torsion else 1, "max_rank": 1, "is_torsion_x": torsion}

    def test_jacobian_verify(self, capsys, ex1_file):
        code, out, _ = run_capture(
            capsys, ["jacobian", "verify", "--curve", ex1_file, "--char", "2", "--N", "5", "--json"]
        )
        payload = json.loads(out)
        assert payload["locus_degree"] == 16
        assert len(payload["certificates"]) == 16
        assert all(row["order_divides_N"] for row in payload["certificates"])

    def test_scan(self, capsys, ex1_file):
        code, out, _ = run_capture(
            capsys,
            ["scan", "--curve", ex1_file, "--n-from", "6", "--n-to", "8", "--primes", "3,7,11", "--json"],
        )
        payload = json.loads(out)
        assert [v["verdict"] for v in payload["verdicts"]] == ["EMPTY", "EMPTY", "EMPTY"]

    def test_char_search(self, capsys, ex1_file):
        code, out, _ = run_capture(capsys, ["char-search", "--curve", ex1_file, "--N", "7", "--json"])
        payload = json.loads(out)
        assert payload["exceptional_primes"][0][0] == 911
        assert "478" in payload["exceptional_primes"][0][1] or "-433" in payload["exceptional_primes"][0][1]

    def test_char_mismatch_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.curve"
        path.write_text("char: 7\nP: 1,2,0,0,0,1\nQ: 0\n")
        code, _, err = run_capture(capsys, ["torsion", "count", "--curve", str(path), "--char", "3", "--N", "5"])
        assert code == 1 and err == "usage error: model lives in characteristic 7; cannot compute in 3\n"
        code, out, _ = run_capture(capsys, ["torsion", "count", "--curve", str(path), "--N", "5"])
        assert code == 0  # defaults to the file's characteristic


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
def test_readme_example(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO)
    code, _, err = run_capture(capsys, argv)
    assert code == 0, err
