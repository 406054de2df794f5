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

    @pytest.mark.parametrize(
        "text, expected",
        [
            # vertex 2 has degree two and two positive rows, x2 after x10
            ("x2 x10^-1 x2\n", ["base 0", "0 -x2-> 1", "2 -x10-> 1", "2 -x2-> 0"]),
            # the second word makes vertex 2 a branch vertex
            (
                "x2 x10^-1 x2\nx2 x10^-1 x3 x1\n",
                ["base 0", "0 -x2-> 1", "2 -x10-> 1", "2 -x2-> 0", "2 -x3-> 3", "3 -x1-> 0"],
            ),
        ],
        ids=["degree-two", "branch"],
    )
    def test_rows_sort_by_name_not_letter_order(self, capsys, tmp_path, text, expected):
        f = tmp_path / "X.txt"
        f.write_text(text)
        code, out = run(capsys, "core", str(f))
        assert code == 0
        assert out.splitlines() == expected

    def test_deterministic(self, capsys, files):
        _, first = run(capsys, "core", files["K"])
        _, second = run(capsys, "core", files["K"])
        assert first == second

    def test_dot_export(self, capsys, files):
        dot = files["dir"] / "g.dot"
        code, _ = run(capsys, "core", files["K"], "--dot", str(dot))
        assert code == 0
        assert "doublecircle" in dot.read_text()

    @pytest.mark.parametrize(
        "text, rows, arrows",
        [
            # the reads of a^3 meet; the core keeps a loop at the base and one at vertex 1
            (
                "a a\na a a\nb a b^-1\n",
                ["base 0", "0 -a-> 0", "0 -b-> 1", "1 -a-> 1"],
                ['0 -> 0 [label="a"];', '0 -> 1 [label="b"];', '1 -> 1 [label="a"];'],
            ),
            # <a^4, a^6> = <a^2>: the base stays vertex 0, its class's least number
            (
                "a a a a\na a a a a a\n",
                ["base 0", "0 -a-> 1", "1 -a-> 0"],
                ['0 -> 1 [label="a"];', '1 -> 0 [label="a"];'],
            ),
        ],
        ids=["two-loops", "square"],
    )
    def test_dot_of_meeting_reads(self, capsys, tmp_path, text, rows, arrows):
        """Pinned: where two reads meet, the lay numbers the core in spelling order."""
        f, dot = tmp_path / "H.txt", tmp_path / "g.dot"
        f.write_text(text)
        code, out = run(capsys, "core", str(f), "--dot", str(dot))
        assert code == 0
        assert out.splitlines() == rows
        vertices = ["0 [shape=doublecircle];", "1 [shape=circle];"]  # two each
        body = [f"  {line}" for line in ["rankdir=LR;", *vertices, *arrows]]
        assert dot.read_text().splitlines() == ["digraph stallings {", *body, "}"]

    def test_reads_stop_inside_earlier_words(self, capsys, tmp_path):
        """Pinned: core, --dot and onto-base where later reads stop inside earlier words.

        The second word's forward read stops inside the first word, and the
        third's reads stop inside both; nothing is identified.
        """
        k, h, dot = tmp_path / "K.txt", tmp_path / "H.txt", tmp_path / "g.dot"
        k.write_text("b a b a c^-1 a^-1\na b a c^-1 a\na c a^-1 b a\n")
        h.write_text("b a b a c^-1 a^-1\n")
        code, out = run(capsys, "core", str(k), "--dot", str(dot))
        assert code == 0
        assert out.splitlines() == [
            "base 0", "0 -a-> 2", "0 -b-> 1", "1 -a-> 4", "2 -b-> 5", "2 -c-> 6",
            "3 -a-> 0", "3 -c-> 8", "4 -b-> 7", "5 -a-> 8", "7 -a-> 6", "7 -b-> 3",
        ]
        arrows = [
            "0 -> 1 [label=\"b\"];", "1 -> 2 [label=\"a\"];", "2 -> 3 [label=\"b\"];",
            "3 -> 4 [label=\"a\"];", "5 -> 4 [label=\"c\"];", "0 -> 5 [label=\"a\"];",
            "5 -> 6 [label=\"b\"];", "6 -> 7 [label=\"a\"];", "8 -> 7 [label=\"c\"];",
            "8 -> 0 [label=\"a\"];", "3 -> 8 [label=\"b\"];",
        ]
        vertices = ["0 [shape=doublecircle];", *[f"{v} [shape=circle];" for v in range(1, 9)]]
        body = [f"  {line}" for line in ["rankdir=LR;", *vertices, *arrows]]
        assert dot.read_text().splitlines() == ["digraph stallings {", *body, "}"]
        code, out = run(capsys, "onto-base", str(h), str(k))
        assert code == 0
        assert out.splitlines() == [
            "conjugator: b a b a c^-1 a^-1 a^-1 c a^-1 b^-1 c a^-1 b a",
            "surjective: true",
            "injective: false",
        ]

    def test_unwritable_dot_exits_2(self, capsys, files):
        dot = files["dir"] / "missing" / "x.dot"
        err = usage_error(capsys, "core", files["K"], "--dot", str(dot))
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {dot}: ")

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

    def test_first_malformed_word_of_a_batch(self, capsys, files, monkeypatch):
        # word 5 repeats word 3's bad token, and word 4 holds another
        monkeypatch.setattr("sys.stdin", io.StringIO("b\n\nb a^^\n1x\na^^\n"))
        err = usage_error(capsys, "member", files["K"], "-")
        assert err == "error: word 3: bad letter token 'a^^'\n"

    def test_foreign_names_in_a_batch(self, capsys, files, monkeypatch):
        # c cancels in word 1 and survives in word 3 of the one parsed batch
        monkeypatch.setattr("sys.stdin", io.StringIO("c c^-1 b\n\nb c\na b a^-1\n"))
        code, out = run(capsys, "member", files["K"], "-")
        assert code == 1 and out == "true\ntrue\nfalse\ntrue\n"

    def test_rank_ten_queries_recoded_by_name(self, capsys, tmp_path, monkeypatch):
        """The CLI smoke test's rank-10 batch, in process.

        The subgroup's alphabet is inferred in the order x2, ..., x9, x1,
        x10; each query keeps its own names in another order, and x11 is
        foreign.
        """
        w = tmp_path / "W.txt"
        w.write_text("x2 x3 x4 x5 x6 x7 x8 x9 x1\nx10 x2\n")
        queries = ["x10 x2", "x2^-1 x10^-1", "x2 x3 x4 x5 x6 x7 x8 x9 x1 x10 x2", "x1 x2",
                   "x10 x2 x11"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(q + "\n" for q in queries)))
        code, out = run(capsys, "member", str(w), "-")
        assert code == 1 and out == "true\ntrue\ntrue\nfalse\nfalse\n"

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

    def test_not_included_is_a_negative_on_stdout(self, capsys, files, tmp_path):
        """Like morphism: a mathematical negative, not an error line."""
        a = tmp_path / "A.txt"
        a.write_text("a\n")
        code = main(["onto-base", str(a), files["K"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "no conjugator: the first subgroup is not inside the second\n"
        assert captured.err == ""

    def test_circuit_invariant_failure_exits_3(self, capsys, files, monkeypatch):
        """A covering circuit the graph cannot walk is a bug, not a negative."""
        monkeypatch.setattr("stallings.subgroups._dart_bfs", lambda *args, **kwargs: None)
        code = main(["onto-base", files["H"], files["K"]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: internal error: no reduced walk reaches an uncovered edge\n"

    def test_trivial_inner_fails(self, capsys, files, tmp_path):
        """A trivial first subgroup is a negative on stdout too."""
        empty = tmp_path / "triv.txt"
        empty.write_text("# nothing\n")
        code = main(["onto-base", str(empty), files["K"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "no conjugator: the trivial subgroup cannot cover a graph\n"
        assert captured.err == ""


class TestInferredAlphabets:
    """Each file keeps the alphabet it infers; generators match by name."""

    @pytest.fixture()
    def texts(self, files):
        paths = dict(files)
        for name, text in [("S", "a b a^-1\n"), ("F", "b\na\n"), ("C", "c a\n")]:
            path = files["dir"] / f"{name}.txt"
            path.write_text(text)
            paths[name] = str(path)
        return paths

    def test_morphism_onto_the_free_group(self, capsys, texts):
        code, out = run(capsys, "morphism", texts["S"], texts["F"])
        assert code == 0
        assert out.splitlines()[:2] == ["injective: false", "surjective: true"]

    @pytest.mark.parametrize("outer, conjugator", [("F", "a b"), ("K", "a b a^-1 b")])
    def test_onto_base_conjugator(self, capsys, texts, outer, conjugator):
        code, out = run(capsys, "onto-base", texts["S"], texts[outer])
        assert code == 0
        assert out.splitlines()[0] == f"conjugator: {conjugator}"

    @pytest.mark.parametrize("command, negative", [("morphism", "morphism"), ("onto-base", "conjugator")])
    def test_foreign_generator_is_a_negative(self, capsys, texts, command, negative):
        code, out = run(capsys, command, texts["C"], texts["K"])
        assert code == 1
        assert out == f"no {negative}: the first subgroup is not inside the second\n"


class TestTransportAndChecks:
    def test_fphi(self, capsys, files):
        code, out = run(capsys, "fphi", files["hom"], files["H"])
        assert code == 0
        assert out.splitlines() == ["base 0", "0 -a-> 1", "1 -b-> 1"]

    def test_fphi_unwritable_dot_exits_2(self, capsys, files):
        dot = files["dir"] / "missing" / "x.dot"
        err = usage_error(capsys, "fphi", files["hom"], files["H"], "--dot", str(dot))
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {dot}: ")

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
        assert code == 1
        assert out.splitlines() == [
            "admissible: false",
            "  (ii) image of b spells forbidden turn a.b",
            "  (ii) image of b spells forbidden turn a.b^-1",
            "  (iv) last letters a^-1.b of a.b not allowed",
        ]

    def test_fgr_check_order_ignores_hash_seed(self, files):
        """(iii)/(iv) lines come sorted by source edge, whatever the string hashes."""
        swap = files["dir"] / "swap.txt"
        swap.write_text("a -> b\nb -> a\n")
        argv = [
            sys.executable, "-m", "stallings", "fgr-check", str(swap),
            "a.b, a.b^-1, a^-1.b, a^-1.b^-1", "b.b^-1",
        ]
        outs = []
        for seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=str(Path(stallings.__file__).parents[1]),
                PYTHONHASHSEED=seed,
            )
            result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert result.returncode == 1
            outs.append(result.stdout)
        assert outs[0] == outs[1]
        assert outs[0].splitlines() == [
            "admissible: false",
            "  (iv) last letters a.b of a.b not allowed",
            "  (iv) last letters a^-1.b of a.b^-1 not allowed",
            "  (iv) last letters a.b^-1 of a^-1.b not allowed",
            "  (iv) last letters a^-1.b^-1 of a^-1.b^-1 not allowed",
        ]

    def test_malformed_hom_exits_2(self, capsys, files, tmp_path):
        bad = tmp_path / "bad_hom.txt"
        bad.write_text("a b\n")
        err = usage_error(capsys, "fphi", str(bad), files["H"])
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_malformed_restrictions_exit_2(self, capsys, files):
        err = usage_error(capsys, "fgr-check", files["hom"], "ab", "b.b^-1")
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "restrictions, message",
        [
            ("a.c", "source restrictions: c outside ('a', 'b')"),
            ("a.a", "source restrictions: degenerate Whitehead edge a.a"),
        ],
    )
    def test_restriction_outside_the_alphabet_exits_2(
        self, capsys, files, restrictions, message
    ):
        err = usage_error(capsys, "fgr-check", files["hom"], restrictions, "b.b^-1")
        assert err == f"error: {message}\n"


class TestCaseTable:
    def test_all_rows_pass(self, capsys):
        code, out = run(capsys, "case-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("id\t")
        assert len(lines) == 39
        assert all("\tpass\t" in line for line in lines[1:])

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        """A broken library is not reported as a failed certificate (exit 1)."""
        monkeypatch.setattr("stallings.cases.engine.inclusion_morphism", lambda h, k: None)
        code = main(["case-table"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: internal error: case root is not an inclusion\n"


class TestFuzz:
    def test_clean_run(self, capsys):
        code, out = run(
            capsys, "fuzz", "--trials", "50", "--alphabet-size", "2",
            "--max-len", "4", "--seed", "5",
        )
        assert code == 0 and "all transported morphisms injective" in out

    @pytest.mark.parametrize(
        "args, summary",
        [
            (["--trials", "200"], "200 trials, alphabet size 3, image length <= 6, seed 0"),
            *(
                (["--trials", "2000", "--alphabet-size", a],
                 f"2000 trials, alphabet size {a}, image length <= 6, seed 0")
                for a in "125"
            ),
            *(
                (["--trials", "2000", "--seed", "1", "--alphabet-size", a],
                 f"2000 trials, alphabet size {a}, image length <= 6, seed 1")
                for a in "123"
            ),
            (["--trials", "2000", "--max-len", "1"],
             "2000 trials, alphabet size 3, image length <= 1, seed 0"),
            (["--trials", "2000", "--max-len", "12", "--alphabet-size", "2"],
             "2000 trials, alphabet size 2, image length <= 12, seed 0"),
            *(
                (["--trials", "2000", "--max-len", "12", "--alphabet-size", a],
                 f"2000 trials, alphabet size {a}, image length <= 12, seed 0")
                for a in "135"
            ),
            *(
                (["--trials", "2000", "--seed", "2", "--alphabet-size", "4", "--max-len", n],
                 f"2000 trials, alphabet size 4, image length <= {n}, seed 2")
                for n in ("6", "12")
            ),
        ],
    )
    def test_summary_lines(self, capsys, args, summary):
        """The summary lines CI's shell step pins, each whole.

        At rank 1 the reads of an image path often meet, and the lay
        identifies where they do; with long images those merges cascade.
        Long images also hang long words.  Every trial lays the source's
        path as the start of the target's; at ranks 3 and 5 most keep both
        lays as laid, and the rest read the morphism through a fold or a
        peel.  Rank 4, on a third seed, is pinned at short and long images.
        """
        code, out = run(capsys, "fuzz", *args)
        assert code == 0
        assert out == f"{summary}: all transported morphisms injective\n"

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

    @pytest.mark.parametrize("value", ["x", "1.5", ""])
    def test_non_integer_trials_exits_2(self, capsys, value):
        err = usage_error(capsys, "fuzz", "--trials", value)
        assert f"argument --trials: must be a positive integer, got {value!r}" in err
        assert "_positive_int" not in err and "Traceback" not in err


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


def _rose_root():
    """A non-injective inclusion, <b, a b a^-1> into F(a, b), as fuzz's example."""
    from stallings.cases import InjectivityCase
    from stallings.subgroups import Subgroup, inclusion_morphism
    from stallings.whitehead import RestrictionSet
    from stallings.words import Alphabet

    ab = Alphabet.of("a", "b")
    m = inclusion_morphism(Subgroup.of(ab, "b", "a b a^-1"), Subgroup.of(ab, "a", "b"))
    return InjectivityCase("rose", RestrictionSet(ab, frozenset()), m)


def _failing_rows():
    """The case table with one recorded missing column made wrong."""
    from stallings.cases import table

    rows = [dict(row) for row in table.ROWS]
    for row in rows:
        if row["id"] == "2'":
            row["missing"] = "a.b"
    return rows


# Every subcommand x {ok, negative, malformed}. Arguments name fixture
# files by key; a patch replaces a module attribute for the run. A None
# cell marks a subcommand with no mathematical negative.
CONTRACT = {
    "core": {
        "ok": (["core", "K"], None),
        "negative": None,
        "malformed": (["core", "bad"], None),
    },
    "member": {
        "ok": (["member", "K", "b"], None),
        "negative": (["member", "K", "a"], None),
        "malformed": (["member", "K", "a^^"], None),
    },
    "morphism": {
        "ok": (["morphism", "H", "K"], None),
        "negative": (["morphism", "A", "H"], None),
        "malformed": (["morphism", "bad", "K"], None),
    },
    "onto-base": {
        "ok": (["onto-base", "H", "K"], None),
        "negative": (["onto-base", "A", "K"], None),
        "malformed": (["onto-base", "H", "bad"], None),
    },
    "fphi": {
        "ok": (["fphi", "hom", "H"], None),
        "negative": None,
        "malformed": (["fphi", "bad_hom", "H"], None),
    },
    "whitehead": {
        "ok": (["whitehead", "K"], None),
        "negative": None,
        "malformed": (["whitehead", "bad"], None),
    },
    "fgr-check": {
        "ok": (["fgr-check", "hom", "", "a.a^-1, a.b, a.b^-1, a^-1.b, a^-1.b^-1, b.b^-1"], None),
        "negative": (["fgr-check", "hom", "a.b", "b.b^-1"], None),
        "malformed": (["fgr-check", "hom", "a.c", "b.b^-1"], None),
    },
    "case-table": {
        "ok": (["case-table"], None),
        "negative": (["case-table"], ("stallings.cases.verify.ROWS", _failing_rows)),
        "malformed": (["case-table", "extra"], None),
    },
    "fuzz": {
        "ok": (["fuzz", "--trials", "20"], None),
        "negative": (
            ["fuzz", "--trials", "20"],
            ("stallings.cases.fuzz.root_case", lambda: _rose_root),
        ),
        "malformed": (["fuzz", "--trials", "0"], None),
    },
}

EXIT = {"ok": 0, "negative": 1, "malformed": 2}


@pytest.mark.parametrize(
    "command, outcome",
    [(c, o) for c in CONTRACT for o in EXIT if CONTRACT[c][o] is not None],
)
def test_contract_matrix(capsys, monkeypatch, files, command, outcome):
    argv, patch = CONTRACT[command][outcome]
    for name, text in [("bad", "a^-2\n"), ("bad_hom", "a b\n"), ("A", "a\n")]:
        (files["dir"] / f"{name}.txt").write_text(text)
        files[name] = str(files["dir"] / f"{name}.txt")
    if patch is not None:
        target, make = patch
        monkeypatch.setattr(target, make())
    argv = [files.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT[outcome]
    assert "Traceback" not in captured.err
    if patch is not None:  # the patched data, not a crash, gave the negative
        assert "fail" in captured.out or "NON-INJECTIVE" in captured.out
    if outcome == "malformed":
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            captured.err.splitlines()[-1]
        ]
