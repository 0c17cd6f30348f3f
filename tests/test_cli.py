"""Command-line interface: output content, formats, and exit codes."""

import contextlib
import io
import json
import shlex
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from partition_lab import cli
from partition_lab import verify as verify_module

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"
TRANSCRIPT = DATA / "cli_transcript.txt"

# every subcommand in text and in JSON, then two usage errors
TRANSCRIPT_COMMANDS = [
    fmt + argv
    for argv in (
        ("stats", "7+6+6+5+1+1"),
        ("stats", "7+6+5+2+1"),
        ("stats", "9+7+7+5+1+1"),
        ("stats", "0"),
        ("map", "sylvester", "9+7+7+5+1+1"),
        ("map", "glaisher", "3+3+3"),
        ("map", "phi", "0|6"),
        ("map", "phi", "3+2|6x+3+3+1x"),
        ("map", "phi", "2|3x+1x"),
        ("series", "GF_SOL_LEN", "--order", "4"),
        ("series", "GF_KMEASURE", "--order", "6", "--k", "2"),
        ("series", "GF_PARITY", "--order", "6", "--m", "2"),
        ("verify", "THM11", "--order", "5"),
        ("verify", "EQ31", "--k", "2", "--order", "6"),
        ("examples", "16-4-2"),
        ("examples", "15-3-1"),
        ("diagram", "9+7+7+5+1+1"),
        ("diagram", "9+7+7+5+1+1", "--border", "right"),
        ("table", "involution", "--n", "4"),
    )
    for fmt in ((), ("--format", "json"))
] + [
    ("stats", "5+7"),
    ("--format", "json", "verify", "LEMMA51", "--order", "9", "--m", "10"),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def replay(argv):
    """(exit code, stdout, stderr) of one command through ``cli.main``, with
    the checkers' clock stopped so that every ``elapsed_s`` reads 0.0."""
    out, err = io.StringIO(), io.StringIO()
    stopped = SimpleNamespace(perf_counter=lambda: 0.0)
    with (
        mock.patch.object(verify_module, "time", stopped),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def transcript_block(argv) -> str:
    """One command's transcript entry: the command, its exit code, then each
    stream split at every newline, one ``|``-prefixed line per piece, so a
    missing or extra final newline shows too."""
    code, out, err = replay(argv)
    lines = [f"$ partition-lab {shlex.join(argv)}", f"exit {code}"]
    for name, text in (("stdout", out), ("stderr", err)):
        lines.append(f"{name}:")
        lines.extend(f"|{piece}" for piece in text.split("\n"))
    return "\n".join(lines)


def transcript() -> str:
    """The whole transcript of ``TRANSCRIPT_COMMANDS``, blocks split by a
    blank line; ``tests/data/cli_transcript.txt`` holds it as recorded."""
    return "\n\n".join(map(transcript_block, TRANSCRIPT_COMMANDS)) + "\n"


def readme_commands():
    """(line, argv, expected output or None) for each line of the README's
    ``## Command line`` code block; a ``# -> X`` comment gives the output."""
    _, _, section = README.read_text().partition("## Command line")
    _, _, block = section.partition("```sh\n")
    commands = []
    for line in block.partition("```")[0].splitlines():
        command, _, comment = line.partition("#")
        arrow = comment.strip()
        expected = arrow[2:].strip() if arrow.startswith("->") else None
        commands.append((line, shlex.split(command), expected))
    return commands


class TestReadme:
    def test_command_line_examples_run(self, capsys):
        # each documented command exits 0 through the CLI entry point, and
        # prints what its ``-> X`` comment says
        commands = readme_commands()
        assert commands and all(argv[0] == "partition-lab" for _, argv, _ in commands)
        compared = 0
        for line, argv, expected in commands:
            code, out, err = run(capsys, *argv[1:])
            assert code == 0, (line, err)
            if expected is not None:
                assert out.strip() == expected, line
                compared += 1
        assert compared == 3


class TestTranscript:
    # the file is the reference output, not regenerated to make this pass;
    # only a deliberate change of output writes ``transcript()`` to it again
    RECORDED = {
        block.partition("\n")[0]: block
        for block in TRANSCRIPT.read_text().removesuffix("\n").split("\n\n")
    }

    def test_recorded_commands_are_the_listed_ones(self):
        heads = [f"$ partition-lab {shlex.join(argv)}" for argv in TRANSCRIPT_COMMANDS]
        assert list(self.RECORDED) == heads

    @pytest.mark.parametrize("argv", TRANSCRIPT_COMMANDS, ids=shlex.join)
    def test_output_matches_recording(self, argv):
        # exit code, stdout and stderr, byte for byte
        block = transcript_block(argv)
        assert block == self.RECORDED[block.partition("\n")[0]]


class TestStats:
    def test_running_example_tokens(self, capsys):
        code, out, _ = run(capsys, "stats", "7+6+6+5+1+1")
        assert code == 0
        for token in ("Dur2=3", "dur2=1", "mu2=3", "size=26", "length=6", "Dur=4"):
            assert token in out

    def test_strict_partition_shows_sol(self, capsys):
        code, out, _ = run(capsys, "stats", "7+6+5+2+1")
        assert code == 0 and "sol=1" in out

    def test_odd_partition_shows_alt(self, capsys):
        code, out, _ = run(capsys, "stats", "9+7+7+5+1+1")
        assert code == 0 and "alt=4" in out

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "stats", "0")
        assert code == 0 and "size=0" in out

    def test_json_matches_text(self, capsys):
        _, text_out, _ = run(capsys, "stats", "7+6+6+5+1+1")
        _, json_out, _ = run(capsys, "--format", "json", "stats", "7+6+6+5+1+1")
        data = json.loads(json_out)
        assert data["Dur2"] == 3 and data["dur2"] == 1 and data["mu2"] == 3
        assert f"size={data['size']}" in text_out
        assert f"mu3={data['mu3']}" in text_out


class TestMaps:
    def test_sylvester(self, capsys):
        code, out, _ = run(capsys, "map", "sylvester", "9+7+7+5+1+1")
        assert code == 0 and out.strip() == "10+7+5+4+3+1"

    def test_glaisher(self, capsys):
        code, out, _ = run(capsys, "map", "glaisher", "3+3+3")
        assert code == 0 and out.strip() == "6+3"

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "map", "phi", "0|6")
        assert code == 0 and out.startswith("6|0")

    def test_phi_fixed(self, capsys):
        code, out, _ = run(capsys, "map", "phi", "2|3x+1x")
        assert code == 0 and "FIXED" in out


class TestSeries:
    def test_order_zero(self, capsys):
        code, out, _ = run(capsys, "series", "LHS_THM11", "--order", "0")
        assert code == 0 and out.strip() == "q^0 x^0 y^0 : 1"

    def test_parametrized_series(self, capsys):
        code, out, _ = run(capsys, "series", "GF_PARITY", "--order", "4", "--m", "2")
        assert code == 0 and "q^2 x^0 y^0 : 1" in out

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "GF_KMEASURE", "--order", "4")
        assert code == 2 and "needs parameter" in err


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "THM11", "--order", "0")
        assert code == 0 and out == "THM11 order<=0 PASS\n"

    def test_fail_exit_one_with_witness(self, capsys, monkeypatch):
        from partition_lab import verify as verify_module

        def broken():
            raise verify_module.Counterexample("q^1: 2 != 3")

        monkeypatch.setitem(verify_module.CHECKERS, "GLAISHER_COUNTEREX", (broken, ()))
        monkeypatch.setitem(verify_module.DESK_PROFILE, "GLAISHER_COUNTEREX", {})
        code, out, _ = run(capsys, "verify", "GLAISHER_COUNTEREX")
        assert code == 1
        assert "FAIL" in out and "q^1: 2 != 3" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "THM11", "--order", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["name"] == "THM11" and payload[0]["status"] == "PASS"
        elapsed = payload[0]["elapsed_s"]
        assert isinstance(elapsed, float) and elapsed >= 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "SYLVESTER", "--nmax", "-3"),
            ("verify", "PROP_2MEASURE", "--nmax", "-1"),
            ("verify", "EQ11", "--order", "-1"),
            ("verify", "LEMMA51", "--m", "0"),
            ("verify", "THM12", "--nmax", "0"),
            ("verify", "THM13", "--nmax", "0"),
            ("verify", "COROLLARY", "--nmax", "0"),
            ("table", "involution", "--n", "-1"),
            ("verify", "LEMMA51", "--order", "0"),
            ("verify", "LEMMA51", "--order", "9", "--m", "10"),
            ("verify", "all", "--order", "3"),
            ("verify", "EQ31", "--k", "0"),
        ],
    )
    def test_empty_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "PASS" not in out and err.startswith("error: ")


class TestTableAndExamples:
    def test_involution_table_golden(self, capsys):
        code, out, _ = run(capsys, "table", "involution", "--n", "6")
        assert code == 0
        assert out == (DATA / "involution_n6.txt").read_text()

    def test_examples_preset(self, capsys):
        code, out, _ = run(capsys, "examples", "15-3-1")
        assert code == 0
        assert "11+3+1" in out and "12+2+1" in out
        code, json_out, _ = run(capsys, "--format", "json", "examples", "15-3-1")
        data = json.loads(json_out)
        assert data["sets"]["D"] == ["12+2+1", "10+3+2", "8+4+3", "7+6+2", "6+5+4"]

    def test_diagram(self, capsys):
        code, out, _ = run(capsys, "diagram", "9+7+7+5+1+1", "--border", "right")
        assert code == 0
        assert out.splitlines()[0] == "2 2 1 2 2"


class TestErrors:
    def test_malformed_literal_exits_two(self, capsys):
        code, _, err = run(capsys, "stats", "5+7")
        assert code == 2 and "non-increasing" in err

    def test_precondition_violation_reports_part(self, capsys):
        code, _, err = run(capsys, "map", "sylvester", "4+1")
        assert code == 2 and "4" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "NOPE"),
            ("verify", "THM11", "--profile", "nonsense"),
            ("verify", "all", "--profile", "nonsense"),
            # argparse's choices reject an unknown map or table before
            # any command runs
            ("map", "nope", "1"),
            ("table", "nope"),
        ],
    )
    def test_unknown_checker_exits_two(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and "PASS" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "\u0663+1"),  # ARABIC-INDIC DIGIT THREE
            ("stats", "3\u00b2"),  # SUPERSCRIPT TWO
            ("map", "phi", "0|\u0663x"),
            ("map", "phi", "0|3\u00b2"),
        ],
    )
    def test_non_ascii_digits_are_bad_parts(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "bad part" in err

    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert cli.main(["series", "GF_SOL_LEN", "--order", "20"]) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == ""
