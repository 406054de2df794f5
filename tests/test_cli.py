import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stallings
from stallings.cli import main


@pytest.fixture()
def files(tmp_path):
    k = tmp_path / "K.txt"
    k.write_text("b\na b a^-1\n")
    h = tmp_path / "H.txt"
    h.write_text("b\n")
    hom = tmp_path / "hom.txt"
    hom.write_text("a -> b\nb -> a b a^-1\n")
    return {"K": str(k), "H": str(h), "hom": str(hom), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def usage_error(capsys, *argv):
    """Run a command that must fail with exit 2; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestCore:
    def test_canonical_output(self, capsys, files):
        code, out = run(capsys, "core", files["K"])
        assert code == 0
        assert out.splitlines() == ["base 0", "0 -a-> 1", "0 -b-> 0", "1 -b-> 1"]

    def test_deterministic(self, capsys, files):
        _, first = run(capsys, "core", files["K"])
        _, second = run(capsys, "core", files["K"])
        assert first == second

    def test_dot_export(self, capsys, files):
        dot = files["dir"] / "g.dot"
        code, _ = run(capsys, "core", files["K"], "--dot", str(dot))
        assert code == 0
        assert "doublecircle" in dot.read_text()

    def test_malformed_subgroup_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a^-2\n")
        err = usage_error(capsys, "core", str(bad))
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_non_utf8_subgroup_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\n")
        err = usage_error(capsys, "core", str(bad))
        assert err.count("\n") == 1 and err.startswith(f"error: cannot read {bad}: ")


class TestMember:
    def test_member_true(self, capsys, files):
        code, out = run(capsys, "member", files["K"], "a b a^-1")
        assert code == 0 and out.strip() == "true"

    def test_member_false(self, capsys, files):
        code, out = run(capsys, "member", files["K"], "a")
        assert code == 1 and out.strip() == "false"

    def test_foreign_letter(self, capsys, files):
        code, out = run(capsys, "member", files["K"], "z")
        assert code == 1 and out.strip() == "false"

    def test_malformed_word_exits_2(self, capsys, files):
        err = usage_error(capsys, "member", files["K"], "a^^")
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_several_words(self, capsys, files):
        code, out = run(capsys, "member", files["K"], "a b a^-1", "b", "b^-1 a b^-1 a^-1")
        assert code == 0 and out == "true\ntrue\ntrue\n"

    def test_mixed_batch_in_input_order(self, capsys, files):
        code, out = run(capsys, "member", files["K"], "b", "a", "z", "a b a^-1")
        assert code == 1 and out == "true\nfalse\nfalse\ntrue\n"

    def test_words_from_stdin(self, capsys, files, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("b\na b^-1 a^-1\n\nb b\n"))
        code, out = run(capsys, "member", files["K"], "-")
        assert code == 0 and out == "true\ntrue\ntrue\ntrue\n"

    def test_mixed_batch_from_stdin(self, capsys, files, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\n"))
        code, out = run(capsys, "member", files["K"], "-")
        assert code == 1 and out == "false\ntrue\n"

    def test_malformed_stdin_line_exits_2(self, capsys, files, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("b\na\na^^\nb\n"))
        err = usage_error(capsys, "member", files["K"], "-")
        assert err.count("\n") == 1 and err.startswith("error: word 3:")

    def test_malformed_argument_names_position(self, capsys, files):
        err = usage_error(capsys, "member", files["K"], "b", "a^^")
        assert err.count("\n") == 1 and err.startswith("error: word 2:")


class TestMorphism:
    def test_classification(self, capsys, files):
        code, out = run(capsys, "morphism", files["H"], files["K"])
        assert code == 0
        assert "injective: true" in out and "surjective: false" in out

    def test_not_included(self, capsys, files, tmp_path):
        other = tmp_path / "A.txt"
        other.write_text("a\n")
        code, out = run(capsys, "morphism", str(other), files["H"])
        assert code == 1 and "no morphism" in out


class TestOntoBase:
    def test_reports_conjugator(self, capsys, files):
        code, out = run(capsys, "onto-base", files["H"], files["K"])
        assert code == 0
        assert "surjective: true" in out
        assert "injective: false" in out
        assert out.startswith("conjugator: ")

    def test_trivial_inner_fails(self, capsys, files, tmp_path):
        empty = tmp_path / "triv.txt"
        empty.write_text("# nothing\n")
        code = main(["onto-base", str(empty), files["K"]])
        assert code == 1


class TestTransportAndChecks:
    def test_fphi(self, capsys, files):
        code, out = run(capsys, "fphi", files["hom"], files["H"])
        assert code == 0
        assert out.splitlines() == ["base 0", "0 -a-> 1", "1 -b-> 1"]

    def test_fphi_degenerate_hom(self, capsys, files, tmp_path):
        """a -> 1 is well formed: the image of <b, a b a^-1> is <a b>."""
        hom = tmp_path / "deg.txt"
        hom.write_text("a -> \nb -> a b\n")
        code, out = run(capsys, "fphi", str(hom), files["K"])
        assert code == 0
        assert out.splitlines() == ["base 0", "0 -a-> 1", "1 -b-> 0"]

    def test_fphi_non_utf8_hom_exits_2(self, capsys, files, tmp_path):
        hom = tmp_path / "hom.txt"
        hom.write_bytes(b"a -> \xff\nb -> b\n")
        err = usage_error(capsys, "fphi", str(hom), files["H"])
        assert err.count("\n") == 1 and err.startswith(f"error: cannot read {hom}: ")

    def test_whitehead(self, capsys, files):
        code, out = run(capsys, "whitehead", files["K"])
        assert code == 0
        assert out.strip() == "a.b, a.b^-1, a^-1.b, a^-1.b^-1, b.b^-1"

    def test_fgr_check_admissible(self, capsys, files):
        code, out = run(
            capsys,
            "fgr-check",
            files["hom"],
            "",
            "a.a^-1, a.b, a.b^-1, a^-1.b, a^-1.b^-1, b.b^-1",
        )
        assert code == 0 and "admissible: true" in out

    def test_fgr_check_violation(self, capsys, files):
        code, out = run(capsys, "fgr-check", files["hom"], "a.b", "b.b^-1")
        assert code == 1 and "admissible: false" in out

    def test_malformed_hom_exits_2(self, capsys, files, tmp_path):
        bad = tmp_path / "bad_hom.txt"
        bad.write_text("a b\n")
        err = usage_error(capsys, "fphi", str(bad), files["H"])
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_malformed_restrictions_exit_2(self, capsys, files):
        err = usage_error(capsys, "fgr-check", files["hom"], "ab", "b.b^-1")
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestCaseTable:
    def test_all_rows_pass(self, capsys):
        code, out = run(capsys, "case-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("id\t")
        assert len(lines) == 39
        assert all("\tpass\t" in line for line in lines[1:])


class TestFuzz:
    def test_clean_run(self, capsys):
        code, out = run(
            capsys, "fuzz", "--trials", "50", "--alphabet-size", "2",
            "--max-len", "4", "--seed", "5",
        )
        assert code == 0 and "all transported morphisms injective" in out

    def test_seed_determinism(self, capsys):
        args = ["fuzz", "--trials", "30", "--seed", "7"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_zero_alphabet_size_exits_2(self, capsys):
        err = usage_error(capsys, "fuzz", "--alphabet-size", "0")
        assert "--alphabet-size" in err and "Traceback" not in err

    def test_negative_trials_exits_2(self, capsys):
        err = usage_error(capsys, "fuzz", "--trials", "-5")
        assert "--trials" in err and "Traceback" not in err

    def test_zero_max_len_exits_2(self, capsys):
        err = usage_error(capsys, "fuzz", "--max-len", "0")
        assert "--max-len" in err and "Traceback" not in err


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_python_dash_m_runs_the_cli(self, files):
        env = dict(os.environ, PYTHONPATH=str(Path(stallings.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "stallings", "member", files["K"], "-"],
            input="b\na\n", capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == "true\nfalse\n"

    def test_missing_file_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["core", "/nonexistent/file.txt"])
        assert exc.value.code == 2
