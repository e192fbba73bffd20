"""Reporting pipeline and command-line surface.

CLI cases drive ``main`` directly with argv lists and assert on exit codes
and captured output, so they cover the same path as the console script
without spawning subprocesses.
"""

import json
import math
import warnings

import pytest

from boxshift import (GridError, LineBox, ModeSpec, RadialBox,
                      confined_eigenvalue, fd_oracle, harmonic, quartic,
                      shooting)
from boxshift.cli import _glue_negative_values, main
from boxshift.potentials import resolve_potential
from boxshift.report import (
    CSV_HEADER, HYDROGEN_CSV_HEADER, CaseDescriptor, Diagnostics, ShiftReport,
    SweepResult, SweepRow, fit_empirical_order, format_report, geometric_grid,
    report_from_json, report_to_dict, report_to_json, run_hydrogen_sweep,
    run_shift_case, run_sweep, sweep_summary_lines, sweep_to_csv,
)
from crosschecks import ho_shift_term

FAST = {"integrate_tol": 1e-9}


def _stub_report(h: float, ratio: float) -> ShiftReport:
    case = CaseDescriptor(potential="stub", kind="line", domain=(-1.0, 1.0),
                          level=0, nu=None, h=h)
    return ShiftReport(case=case, lambda0=h, lambda_confined=h, numeric_shift=0.0,
                       log_numeric_shift=-math.inf, predicted_shift=0.0,
                       log_predicted_shift=-math.inf, ratio=ratio,
                       diagnostics=Diagnostics(iterations=0, steps=0))


# -- single-case pipeline ----------------------------------------------------

def test_shift_case_harmonic_smoke():
    report = run_shift_case(harmonic(), LineBox(-1.0, 1.0),
                            ModeSpec(level=0, h=0.25), **FAST)
    assert report.lambda0 == pytest.approx(0.25, rel=1e-9)
    assert report.lambda_confined > report.lambda0
    assert report.numeric_shift > 0.0
    assert report.log_numeric_shift == pytest.approx(
        math.log(report.numeric_shift), rel=1e-12)
    want = ho_shift_term(ModeSpec(level=0, h=0.25), 1.0)
    assert report.predicted_shift == pytest.approx(want.leading_value, rel=1e-10)
    # leading order is right but not exact at this h
    assert 0.85 < report.ratio < 0.95
    assert report.diagnostics.iterations >= 1
    assert report.diagnostics.steps > 0
    assert report.case.kind == "line"
    assert report.case.nu is None


def test_shift_case_radial_smoke():
    report = run_shift_case(quartic(kind="radial"), RadialBox(1.0),
                            ModeSpec(level=0, h=0.1, nu=1.5), **FAST)
    assert report.case.kind == "radial"
    assert report.case.domain == (0.0, 1.0)
    assert report.numeric_shift > 0.0
    # the first correction is large at nu=1.5 until h is very small
    assert 1.0 < report.ratio < 2.0


def test_a_large_prediction_moves_the_dirichlet_seed_one_spacing_at_most():
    # Level 4 lies above the wall's height here: the leading prediction,
    # 83.1, is seventy times the real shift, 1.21.  Seeded with all of it,
    # Newton first lands on a higher level and the case takes 2,212 steps;
    # seeded one harmonic spacing (4 omega h) up, 1,183.
    report = run_shift_case(resolve_potential("x^2", "radial"), RadialBox(1.0),
                            ModeSpec(level=4, h=0.1, nu=1.5))
    assert report.predicted_shift > 50.0 * report.numeric_shift
    assert report.diagnostics.steps <= 1300
    assert report.lambda_confined == pytest.approx(3.3084905761139254,
                                                   rel=1e-12, abs=0.0)


def test_shift_case_attaches_fd_oracle():
    report = run_shift_case(harmonic(), LineBox(-1.0, 1.0),
                            ModeSpec(level=0, h=0.25), oracle=True, **FAST)
    oracle = report.diagnostics.oracle_value
    assert oracle is not None
    assert oracle == pytest.approx(report.lambda_confined, rel=1e-6)
    assert "fd oracle" in format_report(report)


def test_format_report_mentions_every_leading_quantity():
    report = run_shift_case(harmonic(), LineBox(-1.0, 1.0),
                            ModeSpec(level=0, h=0.25), **FAST)
    text = format_report(report)
    for token in ("potential", "x^2", "m=0", "h=0.25", "lambda0",
                  "numeric shift", "predicted shift", "ratio", "iterations"):
        assert token in text
    assert repr(report.lambda_confined) in text


# -- serialization -------------------------------------------------------------

def test_report_json_round_trip_line():
    report = run_shift_case(harmonic(), LineBox(-1.0, 1.0),
                            ModeSpec(level=0, h=0.25), **FAST)
    assert report_from_json(report_to_json(report)) == report


def test_report_json_round_trip_radial_with_oracle():
    report = run_shift_case(quartic(kind="radial"), RadialBox(1.0),
                            ModeSpec(level=0, h=0.2, nu=1.5), oracle=True, **FAST)
    assert report_from_json(report_to_json(report)) == report


def test_free_iterations_survive_json_and_older_reports_load():
    quartic_case = run_shift_case(quartic(), LineBox(-1.0, 1.0),
                                  ModeSpec(level=0, h=0.1), **FAST)
    assert quartic_case.diagnostics.free_iterations >= 1
    assert report_from_json(report_to_json(quartic_case)) == quartic_case
    closed_form = run_shift_case(harmonic(), LineBox(-1.0, 1.0),
                                 ModeSpec(level=0, h=0.25), **FAST)
    assert closed_form.diagnostics.free_iterations is None
    # A report written before the field existed has no such key.
    data = report_to_dict(quartic_case)
    del data["diagnostics"]["free_iterations"]
    older = report_from_json(json.dumps(data))
    assert older.diagnostics.free_iterations is None
    assert older.diagnostics.steps == quartic_case.diagnostics.steps


def test_hydrogen_report_has_no_free_iterations():
    [row] = run_hydrogen_sweep(1, 0, 2.0, 1.0, [8.0], **FAST).rows
    assert row.report.diagnostics.free_iterations is None


def test_report_dict_is_json_safe():
    report = run_shift_case(harmonic(), LineBox(-1.0, 1.0),
                            ModeSpec(level=0, h=0.25), **FAST)
    data = report_to_dict(report)
    assert isinstance(data["case"]["domain"], list)
    json.dumps(data)  # no tuples or exotic types anywhere


# -- grids and order fits ----------------------------------------------------------

def test_geometric_grid_shape():
    grid = geometric_grid(0.2, 0.05, 5)
    assert len(grid) == 5
    assert grid[0] == pytest.approx(0.2, rel=1e-14)
    assert grid[-1] == pytest.approx(0.05, rel=1e-14)
    ratios = [grid[i + 1] / grid[i] for i in range(4)]
    for q in ratios[1:]:
        assert q == pytest.approx(ratios[0], rel=1e-12)


def test_geometric_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_grid(0.2, 0.05, 0)
    with pytest.raises(ValueError):
        geometric_grid(-0.2, 0.05, 3)


def test_fit_empirical_order_recovers_power_law():
    rows = [SweepRow(h, _stub_report(h, 1.0 + 0.5 * h ** 2), "ok")
            for h in (0.1, 0.05, 0.025, 0.0125)]
    assert fit_empirical_order(rows) == pytest.approx(2.0, rel=1e-10)


def test_fit_empirical_order_needs_two_usable_rows():
    rows = [
        SweepRow(0.1, _stub_report(0.1, 1.05), "ok"),
        SweepRow(0.05, None, "SolverError: boom"),
        SweepRow(0.025, _stub_report(0.025, 1.0), "ok"),  # err == 0: skipped
    ]
    assert fit_empirical_order(rows) is None


# -- sweeps ------------------------------------------------------------------------

def test_sweep_rows_keep_grid_order():
    grid = [0.3, 0.24, 0.2]
    result = run_sweep(harmonic(), LineBox(-1.0, 1.0), 0, None, grid, **FAST)
    assert [row.grid_value for row in result.rows] == grid
    assert all(row.ok and row.status == "ok" for row in result.rows)
    assert result.empirical_order is not None


def test_sweep_marks_shifts_below_the_roundoff_floor_unresolved():
    # At h = 0.03 and 0.02 the harmonic shift sits within ~700 and ~500
    # roundoff units of lambda: the ratios (3.4 and 3e7) are noise.
    result = run_sweep(harmonic(), LineBox(-1.0, 1.0), 0, None,
                       [0.05, 0.03, 0.02])
    assert [row.status for row in result.rows] == ["ok", "unresolved", "unresolved"]
    assert all(row.ok for row in result.rows)
    assert result.empirical_order is None
    statuses = [line.split(",")[-1]
                for line in sweep_to_csv(result).strip().split("\n")[1:]]
    assert statuses == ["ok", "unresolved", "unresolved"]
    assert any("2 of 3 rows unresolved" in line
               for line in sweep_summary_lines(result))


def test_sweep_over_one_repeated_h_fits_no_order(capsys):
    # Three rows at one h give three equal log h: no slope to fit, and no
    # poorly-conditioned fit warned about.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(quartic(), LineBox(-1.0, 1.0), 0, None,
                           [0.1, 0.1, 0.1])
    assert [row.status for row in result.rows] == ["ok"] * 3
    assert result.empirical_order is None
    code = main(["sweep", "--potential", "x^2 + x^4", "--domain=-1,1",
                 "--m", "0", "--h-grid", "0.1,0.1,3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "empirical order" not in captured.out + captured.err


def test_hydrogen_sweep_has_no_h_order():
    result = run_hydrogen_sweep(1, 0, 2.0, 1.0, [8.0], **FAST)
    assert result.empirical_order is None
    (row,) = result.rows
    assert row.ok
    assert 0.8 < row.report.ratio < 1.0


def test_sweep_csv_header_and_failed_row_shape():
    ok_row = SweepRow(0.1, _stub_report(0.1, 1.05), "ok")
    bad_row = SweepRow(0.05, None, "SolverError: lost the level")
    text = sweep_to_csv(SweepResult(rows=(ok_row, bad_row), empirical_order=None))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0].count(",") == 8
    cells = lines[2].split(",")
    assert cells[0] == repr(0.05)
    assert cells[1:8] == [""] * 7
    assert cells[8] == "SolverError: lost the level"


def test_hydrogen_csv_header():
    assert HYDROGEN_CSV_HEADER[0] == "R"
    assert HYDROGEN_CSV_HEADER[1:] == CSV_HEADER[1:]


def test_sweep_summary_lines_report_failures():
    rows = (SweepRow(0.1, _stub_report(0.1, 1.05), "ok"),
            SweepRow(0.05, None, "SolverError: boom"))
    lines = list(sweep_summary_lines(SweepResult(rows=rows, empirical_order=1.5)))
    assert any("empirical order" in line and "1.500" in line for line in lines)
    assert any("1 of 2 rows failed" in line for line in lines)


# -- argv pre-processing --------------------------------------------------------------

def test_glue_negative_values():
    assert _glue_negative_values(["--domain", "-1,1"]) == ["--domain=-1,1"]
    assert _glue_negative_values(["--domain=-1,1"]) == ["--domain=-1,1"]
    assert _glue_negative_values(["--domain", "-.5,2"]) == ["--domain=-.5,2"]
    # positive values and non-flag tokens pass through untouched
    assert _glue_negative_values(["--box", "1.0"]) == ["--box", "1.0"]
    assert _glue_negative_values(["validate", "-1,1"]) == ["validate", "-1,1"]
    assert _glue_negative_values([]) == []


# -- CLI: happy paths -----------------------------------------------------------------

def test_cli_validate_ok(capsys):
    code = main(["validate", "--potential", "harmonic", "--domain", "-1,1"])
    assert code == 0
    assert "potential OK" in capsys.readouterr().out


def test_cli_validate_rejects_shifted_well(capsys):
    code = main(["validate", "--potential", "x^2 - 1", "--domain", "-1,1"])
    assert code == 2
    out = capsys.readouterr().out
    assert "failed validation" in out
    assert "zero-at-minimum" in out


def test_cli_shift_prints_report(capsys):
    code = main(["shift", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.25", "--tol", "1e-9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio" in out and "h=0.25" in out


def test_cli_shift_writes_json(tmp_path, capsys):
    target = tmp_path / "case.json"
    code = main(["shift", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.25", "--tol", "1e-9",
                 "--json", str(target)])
    assert code == 0
    capsys.readouterr()
    report = report_from_json(target.read_text(encoding="utf-8"))
    assert report.case.potential == "x^2"
    assert report.case.h == 0.25
    assert 0.85 < report.ratio < 0.95


def test_cli_sweep_writes_csv_and_json(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    out_json = tmp_path / "rows.json"
    code = main(["sweep", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h-grid", "0.3,0.2,3", "--tol", "1e-9",
                 "--out", str(out_csv), "--json", str(out_json)])
    assert code == 0
    captured = capsys.readouterr()
    assert "empirical order" in captured.err
    lines = out_csv.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    entries = json.loads(out_json.read_text(encoding="utf-8"))
    assert [e["h"] for e in entries] == pytest.approx([0.3, 0.3 * (2 / 3) ** 0.5, 0.2])
    assert all(e["status"] == "ok" and e["report"] is not None for e in entries)


def test_cli_sweep_stdout_default(capsys):
    code = main(["sweep", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h-grid", "0.3,0.25,2", "--tol", "1e-9"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(CSV_HEADER))


def test_cli_hydrogen_table(capsys):
    code = main(["hydrogen", "--n", "1", "--ell", "0", "--h", "1.0",
                 "--R-grid", "6,8", "--tol", "1e-9"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(HYDROGEN_CSV_HEADER)
    assert len(lines) == 3


def test_cli_oracle_table(capsys):
    code = main(["oracle", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "1", "--h", "0.3", "--tol", "1e-9", "--grid-n", "500"])
    assert code == 0
    captured = capsys.readouterr()
    assert "shooting" in captured.out and "fd-extrapolated" in captured.out
    assert "worst relative difference" in captured.err


def test_cli_oracle_failure_prints_no_table(capsys):
    # V'' of the Coulomb tail cannot be evaluated at the radial minimum, the
    # origin: the command must fail before printing any part of the table.
    with pytest.warns(RuntimeWarning, match="division"):
        code = main(["oracle", "--potential", "-2/x", "--box", "8",
                     "--nu", "0.5", "--m", "0", "--h", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "V''" in captured.err


def test_cli_oracle_warns_below_nu_one_half(capsys):
    # Below nu = 1/2 the plain stencil misses the x^(nu+1/2) start at 0:
    # the table still prints, with a warning that says so.
    with pytest.warns(RuntimeWarning, match="nu=0.3 < 0.5: .* oracle "
                      "accuracy is reduced") as caught:
        code = main(["oracle", "--potential", "x^2", "--box", "1",
                     "--nu", "0.3", "--m", "0", "--h", "0.1"])
    assert code == 0
    assert caught[0].filename.endswith("cli.py")  # the oracle's caller
    captured = capsys.readouterr()
    assert "fd-extrapolated" in captured.out
    assert "worst relative difference" in captured.err


def test_cli_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "harmonic", "domain": [-1.0, 1.0],
                               "m": 0, "h": 0.25, "tol": 1e-9}),
                   encoding="utf-8")
    assert main(["shift", "--config", str(cfg)]) == 0
    assert "h=0.25" in capsys.readouterr().out
    assert main(["shift", "--config", str(cfg), "--h", "0.2"]) == 0
    assert "h=0.2" in capsys.readouterr().out


# -- CLI: usage errors (exit 2) ----------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["shift", "--potential", "harmonic", "--domain", "-1,1", "--h", "0.25"],
    ["shift", "--potential", "harmonic", "--domain", "-1,1", "--m", "0"],
    ["shift", "--domain", "-1,1", "--m", "0", "--h", "0.25"],
], ids=["missing-m", "missing-h", "missing-potential"])
def test_cli_missing_required_options(argv, capsys):
    assert main(argv) == 2
    assert "missing required options" in capsys.readouterr().err


def test_cli_domain_and_box_are_exclusive(capsys):
    base = ["validate", "--potential", "harmonic"]
    assert main(base + ["--domain", "-1,1", "--box", "1"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(base) == 2


def test_cli_nu_bookkeeping(capsys):
    assert main(["shift", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.25", "--nu", "0.5"]) == 2
    assert "radial" in capsys.readouterr().err
    assert main(["shift", "--potential", "harmonic", "--box", "1",
                 "--m", "0", "--h", "0.25"]) == 2
    assert "--nu" in capsys.readouterr().err


def test_cli_sweep_nu_bookkeeping(capsys):
    grid = ["--m", "0", "--h-grid", "0.25,0.2,2"]
    assert main(["sweep", "--potential", "harmonic", "--domain", "-1,1",
                 "--nu", "0.5"] + grid) == 2
    assert "error: --nu applies to radial (--box) problems only" \
        in capsys.readouterr().err
    assert main(["sweep", "--potential", "harmonic", "--box", "1"] + grid) == 2
    assert "error: radial problems need --nu (nu = ell + 1/2)" \
        in capsys.readouterr().err


def test_cli_parse_error_shows_caret(capsys):
    code = main(["shift", "--potential", "x^^2", "--domain", "-1,1",
                 "--m", "0", "--h", "0.25"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad potential expression" in err
    assert "x^^2" in err
    caret_lines = [ln for ln in err.split("\n")
                   if ln.lstrip().startswith("^ unexpected")]
    assert caret_lines, err


@pytest.mark.parametrize("source", ["+".join(["x^2"] * 201),
                                    "*".join(["(1+x^2)"] * 80)],
                         ids=["sum", "product"])
def test_cli_too_deep_expression_is_a_usage_error(source, capsys):
    code = main(["validate", "--domain", "-1,1", "--potential", source])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad potential expression" in err and "nested more than" in err


@pytest.mark.parametrize("base", ["(-2)", "0"])
def test_cli_names_a_power_of_a_non_positive_constant(base, capsys):
    # V'' of c^x takes log c; the error names the power, not a bare
    # "math domain error".
    code = main(["validate", "--potential", f"x^2 + {base}^x - 1",
                 "--domain", "-1,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad potential expression" in err
    assert f"cannot differentiate '{base}^x' in x" in err


def test_cli_rejects_an_infinite_nu(capsys):
    code = main(["shift", "--potential", "harmonic", "--box", "1",
                 "--nu", "inf", "--m", "0", "--h", "0.1"])
    assert code == 2
    assert "nu must be positive and finite" in capsys.readouterr().err


def test_cli_rejects_bad_quantum_numbers(capsys):
    code = main(["hydrogen", "--n", "1", "--ell", "1", "--h", "1.0",
                 "--R-grid", "8"])
    assert code == 2
    assert "ell" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["8,-3", "8,1e400", "8,nan,inf", "8,0"])
def test_cli_rejects_a_bad_radius_anywhere_in_the_grid(grid, capsys):
    # Checked before any row runs, so no row reaches stdout.
    code = main(["hydrogen", "--n", "1", "--ell", "0", "--h", "1.0",
                 "--R-grid", grid])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "box radius" in captured.err


def test_cli_argparse_failures_return_usage_code(capsys):
    # argparse raises SystemExit for these; main converts to a return code
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["sweep", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h-grid", "0.2,0.05,0"]) == 2
    capsys.readouterr()
    assert main(["shift", "--potential", "harmonic", "--domain", "1",
                 "--m", "0", "--h", "0.25"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["shift", "--potential", "x^2", "--domain", "-1,1", "--m", "0",
     "--h", "1e-300"],
    ["shift", "--potential", "x^2", "--domain", "-1,1", "--m", "0",
     "--h", "1e-170"],
    ["hydrogen", "--n", "1", "--ell", "0", "--h", "1e-300", "--R-grid", "8"],
    ["hydrogen", "--n", "1", "--ell", "0", "--h", "nan", "--R-grid", "8"],
], ids=["shift-1e-300", "shift-1e-170", "hydrogen-1e-300", "hydrogen-nan"])
def test_cli_rejects_an_unusable_h(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("tol", ["1", "1e-20", "1e-5", "9e-14"])
def test_cli_tol_flag_out_of_range_is_a_usage_error(tol, capsys):
    argv = SHIFT_ARGS[:-1] + [tol]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be in [1e-13, 1e-6]" in captured.err


@pytest.mark.parametrize("tol", [1, 1e-20, True])
def test_cli_tol_from_config_out_of_range_is_a_usage_error(tol, tmp_path,
                                                            capsys):
    # argparse converts only string defaults, so a config value arrives as is.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": tol}), encoding="utf-8")
    argv = SHIFT_ARGS[:-2] + ["--config", str(cfg)]
    assert main(argv) == 2
    assert "--tol must be in [1e-13, 1e-6]" in capsys.readouterr().err


@pytest.mark.parametrize("argv,config", [
    (["hydrogen", "--ell", "0", "--h", "1", "--R-grid", "8"], {"n": 1.5}),
    (["sweep", "--potential", "harmonic", "--domain", "-1,1", "--m", "0"],
     {"h_grid": 0.1}),
    (["shift", "--potential", "harmonic", "--m", "0", "--h", "0.25"],
     {"domain": 5}),
    (["shift", "--domain", "-1,1", "--m", "0", "--h", "0.25"],
     {"potential": 5}),
    (["shift", "--potential", "harmonic", "--domain", "-1,1", "--h", "0.25"],
     {"m": 1.5}),
    (["shift", "--potential", "harmonic", "--domain", "-1,1", "--h", "0.25"],
     {"m": True}),
    (["shift", "--potential", "harmonic", "--domain", "-1,1", "--m", "0",
      "--h", "0.25"], {"oracle": "yes"}),
])
def test_cli_config_values_are_checked_as_flags(argv, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_cli_config_entry_reads_as_its_flag(tmp_path, capsys):
    # A bare number is a one-radius grid, as --R-grid 8 is; true is a switch.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r_grid": 8}), encoding="utf-8")
    argv = ["hydrogen", "--n", "1", "--ell", "0", "--h", "1", "--tol", "1e-9"]
    assert main(argv + ["--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(argv + ["--R-grid", "8"]) == 0
    assert capsys.readouterr().out == from_config
    cfg.write_text(json.dumps({"oracle": True}), encoding="utf-8")
    assert main(SHIFT_ARGS + ["--config", str(cfg)]) == 0
    assert "oracle" in capsys.readouterr().out


def test_cli_bad_config_paths(tmp_path, capsys):
    assert main(["shift", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    assert main(["shift", "--config", str(listy)]) == 2
    assert "JSON object" in capsys.readouterr().err


# -- CLI: numerical failures (exit 3) --------------------------------------------------

def test_cli_solver_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(shooting, "_NEWTON_MAX_ITER", 0)
    code = main(["shift", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.25", "--tol", "1e-9"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_oracle_grid_too_small(capsys):
    code = main(["oracle", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.3", "--grid-n", "100"])
    assert code == 3
    assert "finite-difference grid" in capsys.readouterr().err


def test_cli_free_level_above_its_barrier_fails_cleanly(capsys):
    # Level 1200 of the box resolves (see the next test), but the free
    # level lies above the barrier at its decaying starts, which tops its
    # Sturm bracket: the case fails cleanly, naming both.
    code = main(["shift", "--potential", "x^2+x^4", "--domain", "-1,1",
                 "--m", "1200", "--h", "0.1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "could not isolate level 1200" in captured.err
    assert "level 1200 lies above lambda=" in captured.err


def test_box_level_beyond_any_fd_seed_grid_resolves():
    # Level 1200 has more nodes than a 1200-interval finite-difference grid
    # has interior points; the Sturm bracket needs no grid.
    mode = ModeSpec(1200, 0.1)
    with pytest.raises(GridError, match="interior points"):
        fd_oracle(quartic(), LineBox(-1.0, 1.0), mode, grid_n=1200,
                  count=1201)
    pair = confined_eigenvalue(quartic(), LineBox(-1.0, 1.0), mode)
    assert pair.nodes == 1200
    # Far above the well, the level is the empty box's (pi h m / 2)^2 plus
    # about the mean of V, 8/15 on (-1, 1).
    assert pair.value == pytest.approx((math.pi * 0.1 * 1201 / 2) ** 2 + 8 / 15,
                                       rel=1e-4)


def test_cli_oracle_more_levels_than_grid_points(capsys):
    code = main(["oracle", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "2500", "--h", "0.1", "--grid-n", "2000"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "interior points" in captured.err


def test_cli_sweep_all_rows_failed(monkeypatch, capsys):
    monkeypatch.setattr(shooting, "_NEWTON_MAX_ITER", 0)
    code = main(["sweep", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h-grid", "0.3,0.25,2", "--tol", "1e-9"])
    assert code == 3
    captured = capsys.readouterr()
    assert "all rows failed" in captured.err
    body = captured.out.strip().split("\n")[1:]
    assert len(body) == 2
    assert all("SolverError" in line for line in body)


def test_cli_hydrogen_beyond_factorial_overflow_fails_cleanly(capsys):
    # (n + ell)! overflows a double at n = 172; the prediction takes only
    # its log, so the row fails in the solver, not with a traceback.
    code = main(["hydrogen", "--n", "172", "--ell", "0", "--h", "1",
                 "--R-grid", "8"])
    assert code == 3
    captured = capsys.readouterr()
    body = captured.out.strip().split("\n")[1:]
    assert len(body) == 1 and "SolverError" in body[0]
    assert "all rows failed" in captured.err
    assert "Traceback" not in captured.err


def test_cli_h_too_small_to_step_fails_one_row(capsys):
    # At h = 1e-140 the integrator's error norm overflows; that row fails
    # and the sweep goes on.
    code = main(["sweep", "--potential", "x^2", "--domain", "-1,1", "--m", "0",
                 "--h-grid", "1e-140,0.3,2", "--tol", "1e-9"])
    assert code == 0
    captured = capsys.readouterr()
    body = captured.out.strip().split("\n")[1:]
    assert len(body) == 2
    assert body[0].startswith("1e-140,") and "OverflowError" in body[0]
    assert body[1].startswith("0.3,") and body[1].endswith(",ok")
    assert "Traceback" not in captured.err


def test_cli_hydrogen_box_below_the_fd_grid_range_fails_its_row(capsys):
    # The level of a 1e-160 box, about (pi h/R)^2, overflows a double, and
    # the integrator overflows on the way to it.
    code = main(["hydrogen", "--n", "1", "--ell", "0", "--h", "1",
                 "--R-grid", "1e-160"])
    assert code == 3
    captured = capsys.readouterr()
    body = captured.out.strip().split("\n")[1:]
    assert len(body) == 1 and "SolverError" in body[0]
    assert "Traceback" not in captured.err


def test_cli_hydrogen_box_far_inside_the_bohr_radius_reads_ok(capsys):
    # At R = 1e-80 the level lies near (pi h/R)^2, the empty box's level,
    # which the Coulomb term moves by about 1e-80 of it: Newton's first
    # step from E_n = -1 reaches 0.6 of it.  The
    # prediction's log lies so far below that the ratio reads inf.
    code = main(["hydrogen", "--n", "1", "--ell", "0", "--h", "1",
                 "--R-grid", "8,1e-80"])
    assert code == 0
    captured = capsys.readouterr()
    body = captured.out.strip().split("\n")[1:]
    assert len(body) == 2
    assert body[0].startswith("8.0,") and body[0].endswith(",ok")
    assert body[1].startswith("1e-80,") and body[1].endswith(",ok")
    level = float(body[1].split(",")[2])
    assert level == pytest.approx((math.pi / 1e-80) ** 2, rel=1e-9)
    assert "Traceback" not in captured.err


def test_hydrogen_sweep_non_finite_radius_fails_one_row():
    # The CLI rejects such a grid up front (see
    # test_cli_rejects_a_bad_radius_anywhere_in_the_grid); the sweep itself
    # fails only the rows with a non-finite radius.
    result = run_hydrogen_sweep(1, 0, 2.0, 1.0, [8.0, math.nan, math.inf])
    body = sweep_to_csv(result, hydrogen=True).strip().split("\n")[1:]
    assert len(body) == 3
    assert body[0].endswith(",ok")
    assert all("InvalidPotential" in line for line in body[1:])


# -- CLI: solver settings that are fixed, not flags ---------------------------------

SHIFT_ARGS = ["shift", "--potential", "harmonic", "--domain", "-1,1",
              "--m", "0", "--h", "0.25", "--tol", "1e-9"]
SWEEP_ARGS = ["sweep", "--potential", "harmonic", "--domain", "-1,1",
              "--m", "0", "--h-grid", "0.3,0.25,2", "--tol", "1e-9"]
HYDROGEN_ARGS = ["hydrogen", "--n", "1", "--ell", "0", "--h", "1",
                 "--R-grid", "8"]


@pytest.mark.parametrize("argv", [
    SHIFT_ARGS + ["--quad-tol", "1e-12"],
    SHIFT_ARGS + ["--newton-tol", "1e-10"],
    SHIFT_ARGS + ["--newton-max-iter", "50"],
    SWEEP_ARGS + ["--quad-tol", "1e-12"],
    SWEEP_ARGS + ["--newton-tol", "1e-10"],
    SWEEP_ARGS + ["--newton-max-iter", "50"],
    HYDROGEN_ARGS + ["--newton-tol", "1e-10"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_cli_removed_solver_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
