"""Tests for the ``python -m repro`` command-line runner."""

import pytest

from repro.__main__ import _load_tuples, _parse_start, _parse_value, main
from repro.core.values import Atom
from repro.errors import SDLError

PROGRAM = """
process Harvest()
behavior
  *[ exists a : <year, a>^ : a > 87 -> (found, a) ]
end

process Main(k)
behavior
  -> (started, k) ;
  -> Harvest()
end
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.sdl"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "# initial dataspace\n"
        "year, 85\n"
        "year, 88\n"
        "\n"
        'item, "hello world", 2.5, true\n'
    )
    return str(path)


class TestValueParsing:
    def test_scalars(self):
        assert _parse_value("42") == 42
        assert _parse_value("2.5") == 2.5
        assert _parse_value("true") is True
        assert _parse_value("false") is False
        assert _parse_value('"x y"') == "x y"
        assert _parse_value("nil") == Atom("nil")

    def test_empty_rejected(self):
        with pytest.raises(SDLError):
            _parse_value("  ")

    def test_load_tuples(self, data_file):
        rows = _load_tuples(data_file)
        assert rows == [
            (Atom("year"), 85),
            (Atom("year"), 88),
            (Atom("item"), "hello world", 2.5, True),
        ]

    def test_parse_start(self):
        assert _parse_start("Main") == ("Main", ())
        assert _parse_start("Worker(1, x)") == ("Worker", (1, Atom("x")))
        assert _parse_start("NoArgs()") == ("NoArgs", ())
        with pytest.raises(SDLError):
            _parse_start("Broken(1")


class TestCommands:
    def test_check(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "Harvest" in out and "Main" in out

    def test_check_bad_program(self, tmp_path, capsys):
        bad = tmp_path / "bad.sdl"
        bad.write_text("process Broken( behavior end")
        assert main(["check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_pretty_is_recompilable(self, program_file, capsys, tmp_path):
        assert main(["pretty", program_file]) == 0
        text = capsys.readouterr().out
        again = tmp_path / "again.sdl"
        again.write_text(text)
        assert main(["check", str(again)]) == 0

    def test_run(self, program_file, data_file, capsys):
        code = main(
            ["run", program_file, "--start", "Main(7)", "--data", data_file, "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed" in out
        assert "<found,88>" in out
        assert "<started,7>" in out

    def test_run_requires_start(self, program_file, capsys):
        assert main(["run", program_file]) == 2

    def test_run_trace_and_profile(self, program_file, data_file, capsys):
        code = main(
            [
                "run", program_file,
                "--start", "Main(1)",
                "--data", data_file,
                "--trace", "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "commit" in out
        assert "commits per virtual round" in out

    def test_run_deadlock_exit_code(self, tmp_path, capsys):
        stuck = tmp_path / "stuck.sdl"
        stuck.write_text(
            "process Stuck() behavior <never, *> => skip end"
        )
        code = main(["run", str(stuck), "--start", "Stuck"])
        out = capsys.readouterr().out
        assert code == 1
        assert "deadlock" in out

    def test_run_bad_data_is_one_error_line(self, program_file, tmp_path, capsys):
        # <year, abc> cannot be compared with 87: a typed runtime error
        # (exit 1, one ``error:`` line naming the test), not an escaping
        # TypeError and its traceback.
        data = tmp_path / "bad.txt"
        data.write_text("year, 85\nyear, abc\nyear, 90\n")
        code = main(["run", program_file, "--start", "Harvest", "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith("error: test (a > 87)") and "a=abc" in line

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.sdl"]) == 2


class TestFailureFlags:
    def test_run_commit_and_validate(self, program_file, data_file, capsys):
        code = main(
            [
                "run", program_file,
                "--start", "Main(7)",
                "--data", data_file,
                "--commit", "group",
                "--validate", "serial",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed" in out
        assert "<found,88>" in out

    def test_run_faults_crash_summary(self, program_file, data_file, capsys):
        code = main(
            [
                "run", program_file,
                "--start", "Main(7)",
                "--data", data_file,
                "--faults", "pre-commit:crash:name=Main:at=1:max=1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "crashed" in out
        assert "1 crashes, 0 restarts" in out
        # crash-stop atomicity: Main never committed its first assert
        assert "<started,7>" not in out

    def test_run_bad_fault_plan_exits_2(self, program_file, capsys):
        code = main(
            [
                "run", program_file,
                "--start", "Main(1)",
                "--faults", "pre-commit:explode",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_bad_commit_mode_rejected(self, program_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--start", "Main(1)", "--commit", "bogus"])
