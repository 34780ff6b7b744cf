"""Command-line interface: parsing, config files, outputs, exit codes."""

import shlex
from pathlib import Path

import numpy as np
import pytest

from ehub.cli import _FLAGS, SUBCOMMANDS, _sweep_spec, main, parse_args

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses unknown flags itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ground_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ground", "--L", "4", "--U", "0", "--V", "0")
    assert code == 0
    header, line = out.strip().split("\n")
    cells = dict(zip(header.split(","), line.split(",")))
    assert float(cells["energy"]) == pytest.approx(-4.0 * np.sqrt(2.0), abs=1e-9)
    assert cells["bc"] == "antiperiodic"
    assert cells["method"] == "dense"


def test_odd_site_count_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ground", "--L", "7", "--U", "0", "--V", "0")
    assert code == 2
    assert "usage error" in err


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "ground", "--L", "4", "--U", "0")
    assert code == 2
    assert "--V" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        parse_args(["frobnicate"])
    assert info.value.code == 2


def test_entropy_subcommand_rows(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--L", "4", "--U", "1", "--V", "-0.5", "--l", "1,2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("L,l,U,V,bc")
    assert len(lines) == 3
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "2"]


def test_block_size_out_of_range_is_computational_error(capsys):
    code, _, err = run_cli(
        capsys, "entropy", "--L", "4", "--U", "0", "--V", "0", "--l", "4"
    )
    assert code == 1
    assert "block size" in err


def test_local_subcommand_free_weights(capsys):
    code, out, _ = run_cli(capsys, "local", "--L", "4", "--U", "0", "--V", "0")
    assert code == 0
    header, line = out.strip().split("\n")
    cells = dict(zip(header.split(","), line.split(",")))
    for key in ("z", "u_plus", "u_minus", "w"):
        assert float(cells[key]) == pytest.approx(0.25, abs=1e-9)
    assert float(cells["entropy_bits"]) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("site", ["6", "-1"])
def test_local_site_off_the_ring_is_usage_error(capsys, site):
    code, out, err = run_cli(capsys, "local", "--L", "6", "--U", "0", "--V", "0", "--site", site)
    assert code == 2
    assert "--site" in err and out == ""


def test_sweep_csv_and_matrix(tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--L", "4", "--l", "2",
        "--grid-u", "0:1:1", "--grid-v", "0:0:1", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 points

    out_mat = tmp_path / "grid.mat"
    script = tmp_path / "grid.gp"
    code, _, _ = run_cli(
        capsys, "sweep", "--L", "4", "--l", "2", "--format", "matrix",
        "--grid-u", "0:1:1", "--grid-v", "0:0:1",
        "--out", str(out_mat), "--plot-script", str(script),
    )
    assert code == 0
    assert out_mat.read_text().startswith(",0\n")
    assert str(out_mat) in script.read_text()


def test_sweep_default_grid_window():
    _, opts = parse_args(["sweep", "--L", "4", "--l", "2"])
    spec = _sweep_spec(opts)
    assert len(spec.u_values) == 81 and spec.u_values[0] == -4.0
    assert len(spec.v_values) == 41 and spec.v_values[-1] == 2.0


def test_matrix_format_needs_single_block_size(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--L", "4", "--l", "1,2", "--format", "matrix",
        "--grid-u", "0:0:1", "--grid-v", "0:0:1",
    )
    assert code == 2
    assert "matrix" in err


def test_scaling_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--L", "6", "--U", "-2", "--V", "-0.5", "--l", "1,2,3"
    )
    assert code == 0
    header, line = out.strip().split("\n")
    assert header == "slope,intercept,r_squared"
    slope, intercept, r2 = (float(x) for x in line.split(","))
    assert 0.0 <= r2 <= 1.0
    assert np.isfinite(slope) and np.isfinite(intercept)


def test_sizescan_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "sizescan", "--l", "2", "--L", "4,6", "--axis", "U",
        "--grid-u", "0:1:1", "--V", "0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["4", "4", "6", "6"]


@pytest.mark.parametrize("axis, flags", [
    ("U", ["--grid-u", "0:1:1", "--V", "0", "--grid-v", "5:6:1"]),
    ("U", ["--grid-u", "0:1:1", "--V", "0", "--U", "9"]),
    ("V", ["--grid-v", "0:1:1", "--U", "0", "--grid-u", "5:6:1"]),
    ("V", ["--grid-v", "0:1:1", "--U", "0", "--V", "9"]),
])
def test_sizescan_refuses_the_other_axis(capsys, axis, flags):
    code, out, err = run_cli(capsys, "sizescan", "--l", "2", "--L", "4", "--axis", axis, *flags)
    assert code == 2
    assert flags[-2] in err and out == ""


def test_derivative_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "derivative", "--L", "4", "--l", "2", "--U", "0",
        "--grid-v", "0:0.1:0.1", "--h", "0.05",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "V,dS_dV"
    assert len(lines) == 3


def test_derivative_failed_stencil_point_prints_nan(capsys):
    # an iteration cap of 2 cannot converge the L=8 stencil points
    code, out, _ = run_cli(
        capsys, "derivative", "--L", "8", "--l", "4", "--U", "0",
        "--grid-v", "0:0.1:0.1", "--h", "0.05", "--max-iter", "2",
    )
    assert code == 0
    assert out == "V,dS_dV\n0,nan\n0.1,nan\n"


@pytest.mark.parametrize("sub, flags", [
    ("sizescan", ["--l", "2", "--L", "4,6", "--axis", "U", "--grid-u", "0:1:1", "--V", "0"]),
    ("derivative", ["--L", "4", "--l", "2", "--U", "0", "--grid-v", "0:0.1:0.1"]),
    ("momentum", ["--L", "4", "--k", f"{np.pi / 4:.10f}", "--U", "0", "--grid-v", "0:0:1"]),
    ("entropy", ["--L", "4", "--U", "0", "--V", "0", "--l", "2"]),
])
def test_threads_is_refused_outside_sweep(capsys, sub, flags):
    code, out, err = run_cli(capsys, sub, *flags, "--threads", "3")
    assert code == 2
    assert "--threads" in err and out == ""
    code, _, _ = run_cli(capsys, sub, *flags, "--threads", "1")
    assert code == 0


def test_momentum_subcommand_and_snap(capsys):
    code, out, _ = run_cli(
        capsys, "momentum", "--L", "4", "--k", f"{np.pi / 4:.10f}",
        "--U", "0", "--grid-v", "0:0:1",
    )
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[7] == "0"  # entropy exactly zero

    code, _, err = run_cli(
        capsys, "momentum", "--L", "4", "--k", "0.3", "--U", "0", "--grid-v", "0:0:1",
    )
    assert code == 2
    assert "grid" in err


def test_config_file_with_cli_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("L = 4\nU = 5.0\nV = 0\n# comment line\n")
    code, out, _ = run_cli(
        capsys, "ground", "--config", str(config), "--U", "0"
    )
    assert code == 0
    line = out.strip().split("\n")[1]
    assert float(line.split(",")[4]) == pytest.approx(-4.0 * np.sqrt(2.0), abs=1e-9)


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("not a key value\n")
    code, _, err = run_cli(capsys, "ground", "--config", str(bad))
    assert code == 2
    missing = tmp_path / "missing.conf"
    code, _, err = run_cli(capsys, "ground", "--config", str(missing))
    assert code == 2


def test_plot_script_requires_out(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--L", "4", "--l", "2",
        "--grid-u", "0:0:1", "--grid-v", "0:0:1", "--plot-script", "x.gp",
    )
    assert code == 2
    assert "--out" in err


def test_identical_config_gives_byte_identical_files(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["sweep", "--L", "4", "--l", "1,2", "--grid-u", "-1:1:1",
            "--grid-v", "0:0.5:0.5"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b), "--threads", "2"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_solver_failure_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "ground", "--L", "8", "--U", "0", "--V", "0", "--max-iter", "2"
    )
    assert code == 1
    assert "converge" in err


UNREAD = [(sub, flag) for sub, command in SUBCOMMANDS.items()
          for flag in _FLAGS if flag not in command.flags]


@pytest.mark.parametrize("sub, flag", UNREAD)
def test_flag_outside_the_record_is_refused(tmp_path, capsys, sub, flag):
    code, out, err = run_cli(capsys, sub, f"--{flag}", "1")
    assert code == 2
    assert f"--{flag}" in err and out == ""
    if "config" not in SUBCOMMANDS[sub].flags:
        return
    config = tmp_path / "run.conf"
    config.write_text(f"{flag} = 1\n")
    code, out, err = run_cli(capsys, sub, "--config", str(config))
    assert code == 2
    assert repr(flag) in err and out == ""


def _readme_command_lines():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ehub ")]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_examples_parse(argv):
    sub, _ = parse_args(argv)
    assert sub == argv[0]


@pytest.mark.parametrize("argv", [
    ("ground", "--L", "8", "--U", "nan", "--V", "0"),
    ("ground", "--L", "6", "--U", "0", "--V", "inf"),
    ("entropy", "--L", "6", "--U", "-inf", "--V", "0", "--l", "1"),
    ("sweep", "--L", "6", "--l", "2", "--grid-u", "0:1:1", "--grid-v", "0:0:1", "--t", "inf"),
    ("sweep", "--L", "6", "--l", "2", "--grid-u", "0:inf:1", "--grid-v", "0:0:1"),
    ("momentum", "--L", "6", "--k", "1.0471975512", "--U", "nan", "--grid-v", "0:0.2:0.1"),
])
def test_non_finite_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "finite" in err
    assert "[point]" not in err


@pytest.mark.parametrize("argv", [
    ("--L", "4", "--U", "0", "--V", "0"),  # the default --l is 1,2
    ("--L", "8", "--U", "0", "--V", "0", "--l", "1,2"),
    ("--L", "8", "--U", "0", "--V", "0", "--l", "2,1,2"),
])
def test_scaling_needs_three_distinct_block_sizes(capsys, argv):
    code, out, err = run_cli(capsys, "scaling", *argv)
    assert code == 2
    assert out == ""
    assert "3 distinct block sizes" in err and "--l 1,2" in err
    assert "[point]" not in err


SOLVER_RANGE = [("max-iter", "0"), ("max-iter", "-3"), ("seed", "-1"),
                ("seed", str(2**64)), ("tol", "-1"), ("tol", "0")]


@pytest.mark.parametrize("flag, value", SOLVER_RANGE)
@pytest.mark.parametrize("head", [
    ("ground", "--L", "8", "--U", "0", "--V", "0"),
    ("sweep", "--L", "8", "--l", "2", "--grid-u", "0:0:1", "--grid-v", "0:0:1"),
], ids=lambda head: head[0])
def test_out_of_range_solver_flag_is_usage_error(capsys, head, flag, value):
    code, out, err = run_cli(capsys, *head, f"--{flag}", value)
    assert code == 2
    assert out == ""
    assert "usage error" in err and flag.replace("-", "_") in err
    assert "[point]" not in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_seed_range_ends_are_accepted(capsys, seed):
    code, out, _ = run_cli(capsys, "ground", "--L", "8", "--U", "0", "--V", "0", "--seed", seed)
    assert code == 0
    assert out.splitlines()[1].split(",")[8] == "lanczos"
