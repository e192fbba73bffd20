"""Reporting pipeline and command-line surface.

CLI cases drive ``main`` directly with argv lists and assert on exit codes
and captured output, so they cover the same path as the console script
without spawning subprocesses.
"""

import json
import math

import pytest

from boxshift import LineBox, ModeSpec, RadialBox, harmonic, quartic
from boxshift.asymptotics import ho_shift_term
from boxshift.cli import _glue_negative_values, main
from boxshift.report import (
    CSV_HEADER, HYDROGEN_CSV_HEADER, CaseDescriptor, Diagnostics, ShiftReport,
    SweepResult, SweepRow, fit_empirical_order, format_report, geometric_grid,
    report_from_json, report_to_dict, report_to_json, run_hydrogen_sweep,
    run_shift_case, run_sweep, sweep_summary_lines, sweep_to_csv,
)

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
    # V'' at the minimum of the effective Coulomb well cannot be evaluated:
    # the command must fail before printing any part of the table.
    code = main(["oracle", "--potential", "hydrogen-effective(2,0)", "--box", "8",
                 "--nu", "0.5", "--m", "0", "--h", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "V''" in captured.err


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


def test_cli_rejects_bad_quantum_numbers(capsys):
    code = main(["hydrogen", "--n", "1", "--ell", "1", "--h", "1.0",
                 "--R-grid", "8"])
    assert code == 2
    assert "ell" in capsys.readouterr().err


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


def test_cli_bad_config_paths(tmp_path, capsys):
    assert main(["shift", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    assert main(["shift", "--config", str(listy)]) == 2
    assert "JSON object" in capsys.readouterr().err


# -- CLI: numerical failures (exit 3) --------------------------------------------------

def test_cli_solver_failure_exit_code(capsys):
    code = main(["shift", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.25", "--tol", "1e-9",
                 "--newton-max-iter", "0"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_oracle_grid_too_small(capsys):
    code = main(["oracle", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h", "0.3", "--grid-n", "100"])
    assert code == 3
    assert "finite-difference grid" in capsys.readouterr().err


def test_cli_sweep_all_rows_failed(capsys):
    code = main(["sweep", "--potential", "harmonic", "--domain", "-1,1",
                 "--m", "0", "--h-grid", "0.3,0.25,2", "--tol", "1e-9",
                 "--newton-max-iter", "0"])
    assert code == 3
    captured = capsys.readouterr()
    assert "all rows failed" in captured.err
    body = captured.out.strip().split("\n")[1:]
    assert len(body) == 2
    assert all("SolverError" in line for line in body)
