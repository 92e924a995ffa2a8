import dataclasses

import pytest

from ldgshishkin.cli import _CONFIG_KEYS, build_parser, main
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


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "dim = 1\n"
        "k = 1\n"
        "n = 16,32\n"
        "eps = 1e-2\n"
        "format = csv\n",
        encoding="utf-8",
    )
    code = main(["--config", str(cfg), "--eps", "1e-4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.0001," in out or "1e-04" in out
    assert "0.01," not in out


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


def test_bad_config_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key, value in (("nonsense", "1"), ("solver", "condensed")):
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        assert repr(key) in capsys.readouterr().err


def test_projection_quad_order_below_k_plus_1_exit_1(capsys):
    assert main(["--study", "projection", "--k", "3", "--n", "16", "--quad-order", "3"]) == 1
    assert "quad_order >= 4" in capsys.readouterr().err


def test_bad_list_exit_1():
    assert main(["--n", "16,banana"]) == 1


def test_unwritable_path_exit_1():
    code = main(["--k", "1", "--n", "16", "--eps", "1e-4",
                 "--out", "/nonexistent-dir/x.csv"])
    assert code == 1


@pytest.mark.parametrize("study", ["solve", "projection"])
def test_norm_selection_blanks_other_column(study, capsys):
    code = main(["--study", study, "--k", "1", "--n", "16,32", "--eps", "1e-4",
                 "--norm", "energy"])
    assert code == 0
    out = capsys.readouterr().out
    row = out.strip().split("\n")[1].split(",")
    assert row[4] != ""   # err_energy present
    assert row[6] == ""   # err_balanced blank
    assert row[7] == ""   # rate_balanced blank


def test_2d_sweep_small(capsys):
    code = main(["--dim", "2", "--k", "1", "--n", "4,8", "--eps", "1e-4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.strip().split("\n")) == 3


def test_bad_flag_values_exit_1(capsys):
    for argv in (["--dim", "3"], ["--sigma", "abc"], ["--bogus", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--problem", "nonsense"], ["--sigma", "-1"], ["--eps", "2"],
    ["--quad-order", "0", "--k", "1", "--n", "8", "--eps", "1e-4"],
    ["--quad-order", "65", "--k", "1", "--n", "8", "--eps", "1e-4"],
    ["--k", "1,1", "--n", "16,32", "--eps", "1e-4"],
    ["--k", "1", "--n", "16,32", "--eps", "1e-4,0.0001"], ["--sigma", "nan"],
], ids=["problem", "sigma", "eps", "quad-order", "quad-order-65", "repeated-k",
        "repeated-eps", "sigma-nan"])
def test_invalid_sweep_values_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "failed" not in err


def test_bad_config_values_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key, value in (("dim", "abc"), ("sigma", "x"), ("n", "16,banana")):
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_options_are_sweep_config_fields():
    # every option but --config names a SweepConfig field; config keys are the flags
    actions = [a for a in build_parser()._actions if a.dest not in ("help", "config")]
    assert {a.dest for a in actions} <= {f.name for f in dataclasses.fields(SweepConfig)}
    assert _CONFIG_KEYS == {s[2:] for a in actions for s in a.option_strings}
