import dataclasses

import pytest

from ldgshishkin.cli import build_parser, main
from ldgshishkin.harness import CSV_HEADER, SweepConfig


def test_basic_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "--dim", "1", "--problem", "paper1d", "--k", "1",
        "--n", "16,32", "--eps", "1e-4", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_stdout_and_determinism(tmp_path, capsys):
    argv = ["--k", "1", "--n", "16,32", "--eps", "1e-4,1e-8"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith(CSV_HEADER)


def test_markdown_format(capsys):
    code = main(["--k", "1", "--n", "16,32", "--eps", "1e-4", "--format", "markdown"])
    assert code == 0
    out = capsys.readouterr().out
    assert "### k = 1" in out


def test_projection_study_flag(capsys):
    code = main(["--study", "projection", "--k", "1", "--n", "16,32", "--eps", "1e-6"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)


def test_failed_rows_exit_code_2(capsys):
    code = main(["--problem", "poly1d", "--k", "1", "--n", "8", "--eps", "1e-4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "failed" in err


def test_bad_list_exit_1():
    assert main(["--n", "16,banana"]) == 1


def test_unwritable_path_exit_1():
    code = main(["--k", "1", "--n", "16", "--eps", "1e-4",
                 "--out", "/nonexistent-dir/x.csv"])
    assert code == 1


def test_2d_sweep_small(capsys):
    code = main(["--dim", "2", "--k", "1", "--n", "4,8", "--eps", "1e-4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.strip().split("\n")) == 3


def test_bad_flag_values_exit_1(capsys):
    for argv in (["--dim", "3"], ["--sigma", "abc"], ["--bogus", "1"], ["--norm", "energy"],
                 ["--config", "sweep.cfg"], ["--quad-order", "4"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--problem", "nonsense"], ["--sigma", "-1"], ["--eps", "2"],
    ["--k", "1,1", "--n", "16,32", "--eps", "1e-4"],
    ["--k", "1", "--n", "16,32", "--eps", "1e-4,0.0001"], ["--sigma", "nan"],
], ids=["problem", "sigma", "eps", "repeated-k", "repeated-eps", "sigma-nan"])
def test_invalid_sweep_values_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "failed" not in err


def test_options_are_sweep_config_fields():
    # the options but --help are exactly the SweepConfig fields
    dests = {a.dest for a in build_parser()._actions} - {"help"}
    assert dests == {f.name for f in dataclasses.fields(SweepConfig)}
