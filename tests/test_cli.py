"""Command-line surface: exit codes, output formats, golden reports."""

import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sullivan.cli import main
from sullivan.dsl import read_int
from sullivan.ellipticity import RankVector

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

CP2_TEXT = """space CP2 {
    generator x2 : 2;
    generator x5 : 5;
    d x5 = x2^3;
}
"""


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.model"
    path.write_text(CP2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelCheck:
    def test_ok(self, capsys, cp2_file):
        code, out, err = run(capsys, "model", "check", cp2_file,
                             "--require-minimal", "--require-simply-connected")
        assert code == 0
        assert "CP2: ok (2 generators)" in out

    def test_betti_probe(self, capsys, cp2_file):
        code, out, _ = run(capsys, "model", "check", cp2_file, "--max-degree", "4")
        assert code == 0
        assert "betti: 1 0 1 0 1" in out

    def test_no_max_degree_no_betti_line(self, capsys, cp2_file):
        code, out, _ = run(capsys, "model", "check", cp2_file)
        assert code == 0
        assert out == "CP2: ok (2 generators)\n"

    def test_minimality_failure_exits_1(self, capsys, tmp_path):
        path = tmp_path / "nm.model"
        path.write_text(
            "space NotMin {\n"
            "    generator c4 : 4;\n"
            "    generator b3 : 3;\n"
            "    d b3 = c4;\n"
            "}\n"
        )
        code, out, _ = run(capsys, "model", "check", str(path), "--require-minimal")
        assert code == 1
        assert "FAIL" in out
        assert "c4" in out

    def test_simply_connected_failure_exits_1(self, capsys, tmp_path):
        path = tmp_path / "c.model"
        path.write_text("space C { generator t1 : 1; }\n")
        code, out, _ = run(capsys, "model", "check", str(path),
                           "--require-simply-connected")
        assert code == 1
        assert "t1" in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("space Bad { generator x2 : 2; d x2 = x2; }\n")
        code, _, err = run(capsys, "model", "check", str(path))
        assert code == 2
        assert "parse error" in err

    def test_huge_power_exits_2_before_expanding(self, capsys, tmp_path):
        # the degree is checked before x^(10^30) is spelled out as a word
        path = tmp_path / "big.model"
        path.write_text(f"space Big {{ generator x : 2; generator y : 3; d y = x^{10**30}; }}\n")
        code, _, err = run(capsys, "model", "check", str(path))
        assert code == 2
        assert f"d(y) needs degree 4, term has degree {2 * 10**30}" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "model", "check", "/nonexistent/x.model")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "command",
        [
            ("model", "check"),
            ("model", "cohomology", "--max-degree", "4"),
            ("check", "submersion", "--max-base-dim", "4", "--total"),
            ("fibration", "wang", "--sphere", "2", "--fiber-dim", "2", "--total"),
        ],
    )
    def test_file_not_utf8_exits_2(self, capsys, tmp_path, command):
        # every command that reads a model file decodes it the same way
        path = tmp_path / "latin1.model"
        text = b"space X {\n    generator x : 2; \xff\n}\n"
        path.write_bytes(text)
        code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (2, "")
        assert f"cannot read {path}: not UTF-8 text (byte {text.index(0xff)}:" in err


class TestModelCohomology:
    def test_text_line(self, capsys, cp2_file):
        code, out, _ = run(capsys, "model", "cohomology", cp2_file,
                           "--max-degree", "9")
        assert code == 0
        assert out == "1 0 1 0 1 0 0 0 0 0\n"

    def test_tree_format(self, capsys, cp2_file):
        code, out, _ = run(capsys, "model", "cohomology", cp2_file,
                           "--max-degree", "4", "--format", "tree")
        assert code == 0
        assert json.loads(out) == {"name": "CP2", "max_degree": 4, "betti": [1, 0, 1, 0, 1]}

    def test_missing_max_degree_exits_2(self, capsys, cp2_file):
        code, _, err = run(capsys, "model", "cohomology", cp2_file)
        assert code == 2
        assert "--max-degree" in err

    def test_environment_does_not_supply_max_degree(self, capsys, cp2_file, monkeypatch):
        # the flag is the only source of the degree cap
        monkeypatch.setenv("SULLIVAN_MAX_DEGREE", "4")
        code, out, err = run(capsys, "model", "cohomology", cp2_file)
        assert (code, out) == (2, "")
        assert "--max-degree" in err

    @pytest.mark.parametrize("command", [
        ("cohomology", "--max-degree", "-3"),
        ("check", "--max-degree", "-3"),
    ])
    def test_negative_max_degree_exits_2(self, capsys, cp2_file, command):
        sub, *flags = command
        code, out, err = run(capsys, "model", sub, cp2_file, *flags)
        assert code == 2
        assert out == ""
        assert "negative" in err

    def test_invalid_differential_exits_1(self, capsys, tmp_path):
        # parses cleanly but d*d != 0
        path = tmp_path / "dd.model"
        path.write_text(
            "space DD {\n"
            "    generator a2 : 2;\n"
            "    generator b3 : 3;\n"
            "    generator c4 : 4;\n"
            "    d b3 = a2^2;\n"
            "    d c4 = a2 * b3;\n"
            "}\n"
        )
        code, _, err = run(capsys, "model", "cohomology", str(path),
                           "--max-degree", "5")
        assert code == 1
        assert "error" in err


class TestEllipticEnumerate:
    def test_dim_5_pruned(self, capsys):
        code, out, _ = run(capsys, "elliptic", "enumerate", "--dim", "5")
        assert code == 0
        assert out.splitlines() == ["{5:1}", "{2:1, 3:2}"]

    def test_dim_8(self, capsys):
        # the 13 dim-8 candidates meeting the arithmetic condition, each
        # decided by a certified pure witness, none by the box search
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "8")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "{8:1, 15:1}",
            "{4:1, 11:1}",
            "{4:2, 7:2}",
            "{3:1, 5:1}",
            "{2:1, 9:1}",
            "{2:1, 4:1, 5:1, 7:1}",
            "{2:1, 3:1, 6:1, 11:1}",
            "{2:1, 3:3}",
            "{2:2, 5:2}",
            "{2:2, 3:1, 7:1}",
            "{2:2, 3:2, 4:1, 7:1}",
            "{2:3, 3:2, 5:1}",
            "{2:4, 3:4}",
        ]

    def test_environment_does_not_change_the_box(self, capsys, monkeypatch):
        # under the box {0} no vector has a witness; only --coeffs sets it
        monkeypatch.setenv("SULLIVAN_COEFFS", "0")
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "4")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3

    def test_dim_4_no_prune_is_superset(self, capsys):
        code, pruned, _ = run(capsys, "elliptic", "enumerate", "--dim", "4")
        assert code == 0
        code, full, _ = run(capsys, "elliptic", "enumerate", "--dim", "4", "--no-prune")
        assert code == 0
        assert set(pruned.splitlines()) <= set(full.splitlines())

    def test_coeffs_flag(self, capsys):
        code, out, _ = run(capsys, "elliptic", "enumerate", "--dim", "3",
                           "--coeffs", "0,1")
        assert code == 0
        assert out.splitlines() == ["{3:1}"]

    def test_coeffs_with_negative_first_value(self, capsys):
        code, spaced, _ = run(capsys, "elliptic", "enumerate", "--dim", "4",
                              "--coeffs", "-1,0,1")
        assert code == 0
        code, joined, _ = run(capsys, "elliptic", "enumerate", "--dim", "4",
                              "--coeffs=-1,0,1")
        assert code == 0
        assert spaced == joined == "{4:1, 7:1}\n{2:1, 5:1}\n{2:2, 3:2}\n"

    @pytest.mark.parametrize(
        "dim, impossible",
        [("5", "{3:1, 4:1, 5:1}"), ("6", "{3:2, 5:1, 6:1}"), ("7", "{5:1, 6:1, 7:1}")],
    )
    def test_low_audit_bound_prints_no_impossible_vector(self, capsys, dim, impossible):
        # some model on each of these vectors has no cohomology from n+1
        # through some higher degree (so a low cohomology audit would pass
        # it) and is still not elliptic; the arithmetic condition rules
        # them out before any witness
        code, out, _ = run(capsys, "elliptic", "enumerate", "--dim", dim)
        assert code == 0
        assert impossible not in out.splitlines()

    def test_missing_witness_is_undecided(self, capsys):
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "2",
                             "--coeffs", "0")
        assert code == 1
        assert out == ""
        assert err == "undecided: {2:1, 3:1}\n"

    def test_bad_coeffs_exits_2(self, capsys):
        code, _, err = run(capsys, "elliptic", "enumerate", "--dim", "3",
                           "--coeffs", "zero")
        assert code == 2
        assert "coefficient set" in err

    @pytest.mark.parametrize("coeffs", ["1_0,0", "0.5,0", "1e1,0", "1/0,0", "\uff12,0", "- 1,0"])
    def test_coeffs_a_model_file_rejects_exit_2(self, capsys, coeffs):
        # each piece is read as a model file reads a coefficient
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "4", f"--coeffs={coeffs}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad coefficient set {coeffs!r}: ")

    def test_no_prune_still_reads_coeffs(self, capsys):
        # --no-prune ignores the box, but a malformed --coeffs is an error
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "3", "--no-prune",
                             "--coeffs=0,,1")
        assert (code, out) == (2, "")
        assert err == "error: bad coefficient set '0,,1': line 1, col 3: empty field 2\n"

    def test_negative_dim_exits_2(self, capsys):
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: --dim: must not be negative, got -1"

    def test_empty_coeffs_exits_2(self, capsys):
        # an empty value is a bad box, not a request for the default
        code, out, err = run(capsys, "elliptic", "enumerate", "--dim", "4", "--coeffs=")
        assert (code, out) == (2, "")
        assert "bad coefficient set '': empty" in err


class TestFibration:
    def test_fiber_ranks_catalog_names(self, capsys):
        code, out, _ = run(capsys, "fibration", "fiber-ranks",
                           "--total", "eschenburg", "--base", "S2")
        assert code == 0
        assert out.splitlines() == [
            "{5:1}",
            "{2:1, 3:1, 5:1}",
            "{1:1, 2:1, 5:1}",
            "{1:1, 2:2, 3:1, 5:1}",
        ]

    def test_fiber_ranks_inline_spec(self, capsys):
        code, out, _ = run(capsys, "fibration", "fiber-ranks",
                           "--total", "2:1,3:1,5:1", "--base", "2:1,3:1")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_fiber_ranks_of_a_high_degree_total(self, capsys):
        # 3617 exact-sequence slots; the answer is derived by hand in
        # test_exactseq's test_high_degree_total_walks_without_recursion
        code, out, err = run(capsys, "fibration", "fiber-ranks",
                             "--total", "1201:1", "--base", "2:1,3:1")
        assert (code, out, err) == (0, "{1:1, 2:1, 1201:1}\n", "")

    def test_fiber_ranks_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "fibration", "fiber-ranks",
                           "--total", "2:x", "--base", "S2")
        assert code == 2
        assert "space spec" in err

    def test_wang_hopf_profile(self, capsys):
        code, out, err = run(capsys, "fibration", "wang", "--sphere", "3",
                             "--total", "S2xS3", "--fiber-dim", "2")
        assert code == 0
        assert out.splitlines() == ["1 0 1"]
        assert "1 profile(s)" in err

    def test_wang_known_pin(self, capsys):
        code, out, _ = run(capsys, "fibration", "wang", "--sphere", "2",
                           "--total", "S2xS5", "--fiber-dim", "5",
                           "--known", "1=0")
        assert code == 0
        assert out.splitlines() == ["1 0 0 0 0 1"]

    def test_wang_fiber_above_total_space_has_no_profile(self, capsys):
        code, out, err = run(capsys, "fibration", "wang", "--sphere", "2",
                             "--total", "eschenburg", "--fiber-dim", "1200")
        assert (code, out, err) == (0, "", "0 profile(s)\n")

    def test_wang_deep_model_file_fiber(self, capsys, tmp_path):
        # one generator of degree 1201: the walk covers 1203 degrees
        path = tmp_path / "s1201.model"
        path.write_text("space s1201 {\n    generator x1201 : 1201;\n}\n")
        code, out, err = run(capsys, "fibration", "wang", "--sphere", "2",
                             "--total", str(path), "--fiber-dim", "1199")
        assert (code, out, err) == (0, " ".join(["1"] * 1200) + "\n", "1 profile(s)\n")

    def test_wang_bad_known_exits_2(self, capsys):
        code, _, err = run(capsys, "fibration", "wang", "--sphere", "2",
                           "--total", "S2xS5", "--fiber-dim", "5",
                           "--known", "1:0")
        assert code == 2
        assert "--known" in err

    def test_wang_negative_known_exits_2(self, capsys):
        # a negative Betti number pins no profile; it is bad input, not "0 profile(s)"
        code, out, err = run(capsys, "fibration", "wang", "--sphere", "3",
                             "--total", "S2xS3", "--fiber-dim", "2",
                             "--known", "0=-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad --known entry '0=-1'")

    @pytest.mark.parametrize("argv", [
        ("--sphere", "\uff12", "--fiber-dim", "2"),
        ("--sphere", "1_0", "--fiber-dim", "2"),
        ("--sphere", "3", "--fiber-dim", "2.0"),
        ("--sphere", "3", "--fiber-dim", "2", "--known", "1=1_0"),
        ("--sphere", "3", "--fiber-dim", "2", "--known", "\u00b9=0"),
    ])
    def test_wang_integers_read_as_in_a_model_file(self, capsys, argv):
        code, out, err = run(capsys, "fibration", "wang", "--total", "S2xS3", *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: ")

    def test_wang_total_is_a_name_or_file(self, capsys):
        # unlike fiber-ranks, wang needs a total space's Betti numbers, so
        # an inline rank vector is read as a catalog name
        code, out, err = run(capsys, "fibration", "wang", "--sphere", "2",
                             "--total", "2:1,3:1", "--fiber-dim", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: no catalog entry named '2:1,3:1'; known: S2, ")

    @pytest.mark.parametrize("pin, degree", [("5=1", "5"), ("-1=0", "-1")])
    def test_wang_known_outside_fiber_degrees_exits_2(self, capsys, pin, degree):
        # a pin the sequence cannot read is an error, not a silently dropped constraint
        code, out, err = run(capsys, "fibration", "wang", "--sphere", "3",
                             "--total", "S2xS3", "--fiber-dim", "2",
                             "--known", pin)
        assert (code, out) == (2, "")
        assert f"degree {degree} outside 0..2" in err


class TestCheckSubmersion:
    def test_survivors_reported(self, capsys):
        code, out, err = run(capsys, "check", "submersion",
                             "--total", "bazaikin", "--max-base-dim", "7")
        assert code == 0
        report = json.loads(out)
        assert report["survivors"] == ["CP2"]
        assert len(report["bases"]) == 17
        assert "1 surviving base(s)" in err

    def test_no_survivors_exits_1(self, capsys):
        code, out, _ = run(capsys, "check", "submersion",
                           "--total", "S4", "--max-base-dim", "3")
        assert code == 1
        assert json.loads(out)["survivors"] == []

    def test_total_from_file(self, capsys, tmp_path):
        path = tmp_path / "prod.model"
        path.write_text(
            "space Prod {\n"
            "    generator a2 : 2;\n"
            "    generator a5 : 5;\n"
            "    generator b5 : 5;\n"
            "    d a5 = a2^3;\n"
            "}\n"
        )
        code, out, _ = run(capsys, "check", "submersion",
                           "--total", str(path), "--max-base-dim", "4")
        assert code == 0
        report = json.loads(out)
        assert report["total"]["name"] == "Prod"
        assert "CP2" in report["survivors"]

    def test_live_table_passes(self, capsys):
        code, _, _ = run(capsys, "check", "submersion", "--total", "eschenburg",
                         "--max-base-dim", "6", "--live-table")
        assert code == 0

    def test_live_table_audits_after_every_value_is_read(self, capsys, monkeypatch):
        audits = []
        monkeypatch.setattr("sullivan.cli.audit_table", lambda: audits.append(1) or [])
        code, out, err = run(capsys, "check", "submersion", "--total", "eschenburg",
                             "--max-base-dim", "6", "--live-table", "--coeffs=1")
        assert (code, out, audits) == (2, "", [])
        assert err == "error: the coefficient set of check submersion must contain 0\n"

    def test_cap_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "submersion",
                           "--total", "eschenburg", "--max-base-dim", "13")
        assert code == 2
        assert "max-base-dim" in err

    def test_cap_a_model_file_rejects_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "submersion", "--total", "eschenburg",
                             "--max-base-dim", "\uff13")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: --max-base-dim: expected an integer, got '\uff13'"

    def test_coeffs_without_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "submersion", "--total", "eschenburg",
                             "--max-base-dim", "3", "--coeffs", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "must contain 0" in err

    def test_empty_coeffs_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "submersion", "--total", "eschenburg",
                             "--max-base-dim", "3", "--coeffs=")
        assert (code, out) == (2, "")
        assert "bad coefficient set '': empty" in err

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "submersion",
                           "--total", "mystery", "--max-base-dim", "4")
        assert code == 2
        assert "mystery" in err


class TestListReaders:
    """A rank vector, an inline --total of fiber-ranks, --known pins and
    --coeffs read their lists by one rule: fields separated by commas and
    stripped at their ends, no empty field, integers as `read_int` reads
    them, and no repeated key in the two pair lists."""

    @staticmethod
    def readers(capsys):
        """Per list reader, whether it accepts a list: (rank vector, the
        total of fiber-ranks, --known, --coeffs), the first three given
        as pairs with ':' and the last as values."""

        def rank_vector(text):
            try:
                RankVector.parse(text)
            except ValueError:
                return False
            return True

        def total(text):
            _, _, err = run(capsys, "fibration", "fiber-ranks", "--total", text, "--base", "S2")
            return "error: bad space spec" not in err

        def known(text):
            code, _, err = run(capsys, "fibration", "wang", "--sphere", "2", "--total", "S2xS5",
                               "--fiber-dim", "5", "--known", text.replace(":", "="))
            assert code in (0, 2)
            return "error: --known: " not in err

        def coeffs(text):
            _, _, err = run(capsys, "elliptic", "enumerate", "--dim", "2", "--coeffs", text)
            return "error: bad coefficient set" not in err

        return rank_vector, total, known, coeffs

    # integer text, none of it negative
    SIDES = ("1", "+1", "01", "1_0", "\uff11", "\u00b9", "2.0", " 2", "2 ", "1/1", "--1", "x")

    @pytest.mark.parametrize("side", SIDES)
    def test_integers_read_as_read_int(self, capsys, side):
        def read_as_int(text):
            try:
                read_int(text)
            except ValueError:
                return False
            return True

        rank_vector, total, known, coeffs = self.readers(capsys)
        # a field is stripped at its ends, so only whitespace inside it counts
        for read in (rank_vector, total, known):
            assert read(f"1:0,2:{side}") == read_as_int(side.rstrip()), (read.__name__, side)
            assert read(f"{side}:0,3:1") == read_as_int(side.lstrip()), (read.__name__, side)
        if side != "1/1":  # a coefficient, not an integer
            assert coeffs(f"0,{side}") == read_as_int(side.strip()), side

    @pytest.mark.parametrize("pairs, values, ok", [
        ("3:2, 2:1", " 0 , 1", (True, True)),
        (" ", "", (True, False)),  # no fields; an empty --coeffs set is an error
        ("2:1,,3:1", "0,,1", (False, False)),
        ("2:1,", "0,", (False, False)),
        (",2:1", ",0", (False, False)),
        (" , ", " , ", (False, False)),
        ("2 : 1", "- 1", (False, False)),
    ])
    def test_fields(self, capsys, pairs, values, ok):
        rank_vector, total, known, coeffs = self.readers(capsys)
        assert [read(pairs) for read in (rank_vector, total, known)] == [ok[0]] * 3
        assert coeffs(values) == ok[1]

    def test_repeated_key(self, capsys):
        rank_vector, total, known, coeffs = self.readers(capsys)
        assert [read("1:0,1:1") for read in (rank_vector, total, known)] == [False] * 3
        assert coeffs("0,0,1")  # a repeated coefficient counts once
        assert RankVector.parse("3:2, 2:1").to_string() == "2:1,3:2"


class TestReproduce:
    TARGETS = ("table1", "prop31", "prop32", "prop41", "prop42",
               "theorem-a", "theorem-b")

    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_golden(self, capsys, target):
        code, out, _ = run(capsys, "reproduce", target)
        assert code == 0
        assert out == (GOLDEN / f"{target}.json").read_text()

    def test_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "reproduce", "prop32")
        _, second, _ = run(capsys, "reproduce", "prop32")
        assert first == second

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "reproduce", "prop99")
        assert code == 2


def readme_usage() -> str:
    section = README.read_text().split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


class TestUsage:
    def test_no_arguments_exits_2(self, capsys):
        code, out, err = run(capsys, )
        assert (code, out) == (2, "")
        assert err.startswith(readme_usage())

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "elliptic", "oops")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv", [("--help",), ("elliptic", "enumerate", "-h")])
    def test_help_prints_the_readme_usage_block(self, capsys, argv):
        assert run(capsys, *argv) == (0, readme_usage(), "")

    @pytest.mark.parametrize("argv, message", [
        (("--dimm", "4"), "unknown option --dimm"),
        (("--dim",), "--dim needs a value"),
        (("--dim", "x"), "--dim: expected an integer, got 'x'"),
        (("--dim", "3", "--no-prune=1"), "--no-prune takes no value"),
        (("--dim", "1_0"), "--dim: expected an integer, got '1_0'"),
        (("--dim", "\uff14"), "--dim: expected an integer, got '\uff14'"),
        (("--dim", " 4"), "--dim: expected an integer, got ' 4'"),
    ])
    def test_bad_option_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "elliptic", "enumerate", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(readme_usage())
        assert err.splitlines()[-1] == f"error: {message}"

    def test_repeated_option_takes_last_value(self, capsys):
        code, out, _ = run(capsys, "elliptic", "enumerate", "--dim", "9", "--dim", "3")
        assert (code, out) == (0, "{3:1}\n")

    def test_format_value_after_equals_sign(self, capsys, cp2_file):
        spaced = run(capsys, "model", "cohomology", cp2_file, "--max-degree", "4",
                     "--format", "tree")
        joined = run(capsys, "model", "cohomology", cp2_file, "--max-degree", "4",
                     "--format=tree")
        assert spaced == joined
        assert spaced[0] == 0


def test_cli_call_imports_no_argparse():
    # a fresh interpreter, since pytest itself imports argparse; what the
    # interpreter's own startup imported (site hooks may pull in shutil) does
    # not count against the package
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "before = set(sys.modules)\n"
         "import sullivan.cli\n"
         "sullivan.cli.main(['elliptic', 'enumerate', '--dim', '2'])\n"
         "print(sorted({'argparse', 'shutil', 'gettext'} & (set(sys.modules) - before)))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["{2:1, 3:1}", "[]"]


def test_main_freezes_the_import_once():
    # a fresh interpreter, whose freeze count starts at 0; the second call
    # finds the count nonzero and freezes nothing more
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gc\n"
         "import sullivan.cli\n"
         "counts = [gc.get_freeze_count()]\n"
         "for _ in range(2):\n"
         "    sullivan.cli.main(['elliptic', 'enumerate', '--dim', '2'])\n"
         "    counts.append(gc.get_freeze_count())\n"
         "print(counts[0], counts[1] > 0, counts[2] == counts[1])"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "0 True True"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "sullivan.cli", "reproduce", "table1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["target"] == "table1"


def test_closed_stdout_exits_quietly():
    # a pipe of one page, so the report (about 39 kB) cannot all be written
    # before the reader closes it after the first line
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sullivan.cli", "reproduce", "prop31"],
        stdout=write_end, stderr=subprocess.PIPE,
    )
    os.close(write_end)
    with open(read_end, "rb") as reader:
        assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
