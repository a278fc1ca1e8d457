"""End-to-end tests of the command-line interface."""

import csv
import importlib
import io
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ic_outage as ic
from ic_outage.cli import CSV_COLUMNS, MAX_SWEEP_ROWS, main
from conftest import KERNEL, normalize_rows

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def gaussian_file(tmp_path):
    path = tmp_path / "gaussian.json"
    path.write_text(
        json.dumps(
            {"type": "gaussian", "p1_dbw": 30.0, "p2_dbw": 30.0, "c1": 0.8, "c2": 1.5}
        )
    )
    return str(path)


@pytest.fixture
def discrete_file(tmp_path):
    k = normalize_rows(KERNEL)
    path = tmp_path / "discrete.json"
    path.write_text(
        json.dumps(
            {
                "type": "discrete",
                "x1": 2, "x2": 2, "y1": 5, "y2": 5,
                "kernel1": k.tolist(), "kernel2": k.tolist(),
                "idle1": 0, "idle2": 0,
            }
        )
    )
    return str(path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_reports_bound(runner, gaussian_file):
    result = runner.invoke(
        main, ["analyze", "--channel", gaussian_file, "--lambda", "1.0", "--d", "5"]
    )
    assert result.exit_code == 0
    assert "epsilon <= 0.1071" in result.output
    assert "case3-user2" in result.output


def test_analyze_json_matches_library_exactly(runner, gaussian_file):
    result = runner.invoke(
        main,
        ["analyze", "--channel", gaussian_file, "--lambda", "1.0", "--d", "5",
         "--r", "1.5", "--json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    info = ic.gaussian_info_quantities(ic.GaussianIC(1000.0, 1000.0, 0.8, 1.5))
    expect = ic.epsilon_bound(info, 1.0, 5.0, ic.TIN)
    assert payload["epsilon"]["value"] == expect.value       # full precision
    assert payload["rho"]["user1"]["rho"] == ic.analysis.rho(info, 1, 1.5, 1.0, ic.TIN).value
    assert payload["lambda_bar"] == ic.lambda_bar(ic.GaussianIC(1000.0, 1000.0, 0.8, 1.5))[0]


def test_analyze_json_is_deterministic(runner, gaussian_file):
    args = ["analyze", "--channel", gaussian_file, "--lambda", "0.9", "--d", "5", "--json"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_analyze_zero_epsilon_below_threshold(runner, discrete_file):
    result = runner.invoke(
        main,
        ["analyze", "--channel", discrete_file, "--lambda", "0.03",
         "--pi1", "0.2", "--pi2", "0.2", "--mode", "tin"],
    )
    assert result.exit_code == 0
    assert "epsilon = 0" in result.output


def test_analyze_answers_a_channel_whose_mixed_rates_are_zero(runner, tmp_path):
    # y = x1 xor x2 through a BSC(0.05) at both receivers: C = C~ = 0 exactly,
    # and the feasibility interval's formula holds at b = 0.  With alpha < 1,
    # r0 = C*/(C* - lam) and epsilon = kappa*beta(r0) = 2 lam/C*.
    bsc = [[0.95, 0.05], [0.05, 0.95], [0.05, 0.95], [0.95, 0.05]]
    path = tmp_path / "xor.json"
    path.write_text(json.dumps({"type": "discrete", "x1": 2, "x2": 2, "y1": 2, "y2": 2,
                                "kernel1": bsc, "kernel2": bsc, "idle1": 0, "idle2": 0}))
    for mode in (ic.TIN, ic.DI):
        result = runner.invoke(main, ["analyze", "--channel", str(path), "--lambda", "0.2",
                                      "--mode", mode, "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["info"]["c"] == payload["info"]["c_tilde"] == [0.0, 0.0]
        c_star, eps = payload["info"]["c_star"][0], payload["epsilon"]
        assert (eps["value"], eps["r0"]) == (0.5605357263940335, 1.3894057926077241)
        assert eps["r0"] == pytest.approx(c_star / (c_star - 0.2), rel=1e-15)
        assert eps["value"] == pytest.approx(2.0 * 0.2 / c_star, rel=1e-15)


def test_analyze_converse_violation_exits_3(runner, gaussian_file):
    result = runner.invoke(
        main, ["analyze", "--channel", gaussian_file, "--lambda", "6.0", "--d", "5"]
    )
    assert result.exit_code == 3
    assert "lambda exceeds converse threshold 4.9836" in result.output


def test_analyze_missing_channel_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["analyze", "--channel", str(tmp_path / "nope.json"), "--lambda", "1.0"]
    )
    assert result.exit_code == 2


def test_analyze_malformed_channel_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["analyze", "--channel", str(path), "--lambda", "1.0"])
    assert result.exit_code == 2


def _assert_config_error(result, message):
    """Exit 2 through the CLI's error path: an ``error:`` line, no traceback."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


def test_analyze_wrong_alphabet_size_exits_2(runner, discrete_file):
    result = runner.invoke(
        main, ["analyze", "--channel", discrete_file, "--lambda", "0.1", "--pi1", "0.2,0.3,0.5"]
    )
    _assert_config_error(result, "input distribution size does not match alphabet")


def test_analyze_unparsable_distribution_exits_2(runner, discrete_file):
    result = runner.invoke(
        main, ["analyze", "--channel", discrete_file, "--lambda", "0.1", "--pi1", "abc"]
    )
    _assert_config_error(result, "cannot parse input distribution 'abc'")


_COMMANDS = (["analyze", "--lambda", "0.1"],
             ["sweep", "--variable", "lambda", "--values", "0.1", "--d", "5", "--r", "1.5"],
             ["simulate", "--lambda", "0.1", "--r", "1.5", "--n-packets", "4", "--d", "1",
              "--trials", "100", "--check"])


@pytest.mark.parametrize("pi", ["nan,1", "nan", "inf,0", "0.5,-inf"])
def test_non_finite_input_distribution_exits_2(runner, discrete_file, tmp_path, pi):
    # NaN compares false with 1, so a sum test alone let "nan,1" through:
    # simulate --check passed with outage [1.0, 1.0] and sweep wrote blank rho.
    out = str(tmp_path / "x.csv")
    for command, *rest in _COMMANDS:
        args = [command, "--channel", discrete_file, "--pi1", pi, *rest]
        result = runner.invoke(main, [*args, "--out", out] if command == "sweep" else args)
        _assert_config_error(result, "input distribution has a non-finite entry\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag", ["--pi1", "--pi2"])
def test_input_distribution_on_gaussian_channel_exits_2(runner, gaussian_file, tmp_path, flag):
    # A Gaussian channel fixes its inputs; a --pi there used to be ignored.
    out = str(tmp_path / "x.csv")
    for command, *rest in _COMMANDS:
        args = [command, "--channel", gaussian_file, flag, "0.3", *rest]
        result = runner.invoke(main, [*args, "--out", out] if command == "sweep" else args)
        assert (result.exit_code, result.stderr) == (
            2, "error: --pi1 and --pi2 apply to discrete channels only\n")
    assert not (tmp_path / "x.csv").exists()


def test_analyze_uncertified_lambda_bar_exits_2(runner, discrete_file, monkeypatch):
    monkeypatch.setattr(ic.channel, "_CAPACITY_MAX_ITER", 5)
    result = runner.invoke(main, ["analyze", "--channel", discrete_file, "--lambda", "0.1"])
    _assert_config_error(result, "lambda_bar is not available for this channel")
    assert "invalid" not in result.stderr


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_schema_and_values(runner, gaussian_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda",
         "--lo", "0.45", "--hi", "2.4", "--steps", "5", "--d", "5",
         "--mode", "tin", "--mode", "di", "--out", str(out)],
    )
    assert result.exit_code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == CSV_COLUMNS
    assert len(rows) == 5 * 2 * 2                    # grid x modes x users
    info = ic.gaussian_info_quantities(ic.GaussianIC(1000.0, 1000.0, 0.8, 1.5))
    for row in rows:
        if row["epsilon"]:
            expect = ic.epsilon_bound(info, float(row["value"]), 5.0, row["mode"])
            assert float(row["epsilon"]) == expect.value


def test_sweep_is_bit_identical_across_runs(runner, gaussian_file, tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["sweep", "--channel", gaussian_file, "--variable", "lambda",
             "--lo", "0.5", "--hi", "2.0", "--steps", "7", "--d", "5",
             "--mode", "tin", "--out", str(out)],
        )
        assert result.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_finite_n_columns(runner, discrete_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", discrete_file, "--variable", "alpha",
         "--lo", "0.25", "--hi", "2.0", "--steps", "8", "--lambda", "0.1",
         "--r", "1.1", "--pi1", "0.2", "--pi2", "0.2", "--n", "1,4,16",
         "--mode", "tin", "--out", str(out)],
    )
    assert result.exit_code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8 * 3 * 2
    n_seen = [int(r["N"]) for r in rows]
    assert sorted(set(n_seen)) == [1, 4, 16]
    for row in rows:
        assert row["rho"] and row["beta"] and row["p_outage_finiteN"]
        chi1, chi2 = bool(int(row["chi1"])), bool(int(row["chi2"]))
        expect = ic.analysis.outage_ub_finite_n(
            float(row["value"]), float(row["beta"]), int(row["N"]), chi1, chi2
        )
        assert float(row["p_outage_finiteN"]) == expect


def test_sweep_labels_zero_di_bound_outside_ladder(runner, gaussian_file, tmp_path):
    # Between lambda_tin and lambda_di the DI bound is zero; the case ladder
    # has no branch there.
    info = ic.gaussian_info_quantities(ic.GaussianIC(1000.0, 1000.0, 0.8, 1.5))
    l_tin, l_di = ic.lambda_thresholds(info)
    grid = np.linspace(l_tin, l_di, 7)[1:-1]
    out = tmp_path / "zero.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda",
         "--values", ",".join(repr(float(v)) for v in grid), "--d", "5",
         "--mode", "di", "--out", str(out)],
    )
    assert result.exit_code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    assert {(r["epsilon"], r["case_label"]) for r in rows} == {("0.0", "outside-ladder")}


def test_sweep_names_points_without_epsilon(runner, gaussian_file, discrete_file, tmp_path):
    # Above lambda_bar = 4.98 no rate is feasible; on the discrete channel DI's
    # feasibility interval raises.  Each blank epsilon gets one stderr line.
    out = tmp_path / "x.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda", "--values", "1.0,5.5",
         "--d", "5", "--r", "1.5", "--n", "4", "--mode", "tin", "--mode", "di",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    assert result.stdout == f"wrote 8 rows to {out}\n"
    assert result.stderr.splitlines() == [
        f"no epsilon at lambda=5.5, mode {m}: no r > 1 satisfies both users' constraints"
        for m in ("tin", "di")
    ]
    with open(out) as f:
        assert [r["epsilon"] == "" for r in csv.DictReader(f)] == [False] * 4 + [True] * 4
    result = runner.invoke(
        main,
        ["sweep", "--channel", discrete_file, "--variable", "lambda", "--values", "0.1",
         "--d", "5", "--mode", "di", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert result.stderr.startswith(
        "no epsilon at lambda=0.1, mode di: user 2: nonpositive denominator C*-C_cross")


def test_sweep_channel_fault_spares_points_below_threshold(runner, discrete_file, tmp_path):
    # DI refuses user 2 of the discrete channel (C* < C_cross), but only points
    # above the decoder threshold (0.052) reach it: evaluating the grid at once
    # must still write epsilon = 0 below the threshold.
    out = tmp_path / "x.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", discrete_file, "--variable", "lambda", "--values", "0.1,0.01",
         "--d", "5", "--mode", "di", "--out", str(out)],
    )
    assert result.exit_code == 0
    [line] = result.stderr.splitlines()
    assert line.startswith(
        "no epsilon at lambda=0.1, mode di: user 2: nonpositive denominator C*-C_cross")
    with open(out) as f:
        cells = [(r["value"], r["epsilon"]) for r in csv.DictReader(f)]
    assert cells == [("0.01", "0.0")] * 2 + [("0.1", "")] * 2


def _count_epsilon_bound(monkeypatch):
    """The modes epsilon_bound is called with, as the sweep calls it."""
    modes, epsilon_bound = [], ic.analysis.epsilon_bound

    def counted(*args):
        modes.append(args[-1])
        return epsilon_bound(*args)
    monkeypatch.setattr(ic.analysis, "epsilon_bound", counted)
    return modes


def test_sweep_fault_of_the_channel_takes_one_call_per_mode(runner, discrete_file, tmp_path,
                                                            monkeypatch):
    # DI refuses user 2 of the discrete channel (C* < C_cross) at every lambda,
    # so the one grid call decides every point: 0 at or below the DI threshold
    # (0.052), the fault above it.
    calls = _count_epsilon_bound(monkeypatch)
    out = tmp_path / "x.csv"
    grid = [0.01, 0.03, 0.05, 0.07, 0.09, 0.11]
    result = runner.invoke(
        main,
        ["sweep", "--channel", discrete_file, "--variable", "lambda",
         "--values", ",".join(map(str, grid)), "--d", "5", "--mode", "di", "--mode", "tin",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    assert calls == [ic.DI, ic.TIN]
    assert [line for line in result.stderr.splitlines() if "mode di" in line] == [
        f"no epsilon at lambda={lam}, mode di: user 2: nonpositive denominator "
        "C*-C_cross = -3.395e-02" for lam in grid[3:]]
    with open(out) as f:
        di = [r["epsilon"] for r in csv.DictReader(f) if r["mode"] == "di" and r["user"] == "1"]
    assert di == ["0.0"] * 3 + [""] * 3


def test_sweep_takes_the_alpha_to_0_limit_where_lambda_d_underflows(runner, gaussian_file,
                                                                    tmp_path, monkeypatch):
    # lam * D rounds to 0 at lam = 0.4 and D = 5e-324 but not at lam = 1.  A
    # positive lam and D give a positive alpha, the smallest float then, where
    # every closed form is at its alpha -> 0 limit: each cell is that of
    # D = 1e-300, and no point is named as skipped.
    calls = _count_epsilon_bound(monkeypatch)
    args = ["sweep", "--channel", gaussian_file, "--variable", "lambda", "--values", "0.3,0.4,1"]
    for extra in ([], ["--r", "1.5", "--n", "4", "--mode", "tin", "--mode", "di"]):
        rows = {}
        for d_max in ("5e-324", "1e-300"):
            out = tmp_path / f"{d_max}.csv"
            result = runner.invoke(main, [*args, "--d", d_max, *extra, "--out", str(out)])
            assert (result.exit_code, result.stderr) == (0, "")
            with open(out) as f:
                rows[d_max] = list(csv.DictReader(f))
        assert rows["5e-324"] == rows["1e-300"]
    assert calls == [ic.TIN] * 2 + [ic.TIN, ic.DI] * 2
    eps = ic.epsilon_bound(ic.gaussian_info_quantities(ic.GaussianIC(1000.0, 1000.0, 0.8, 1.5)),
                           0.4, 1e-300, ic.TIN)
    assert [(r["epsilon"], r["kappa"]) for r in rows["5e-324"]
            if (r["value"], r["mode"]) == ("0.4", "tin")] == [(repr(eps.epsilon), "2.0")] * 2


def test_analyze_takes_the_alpha_to_0_limit_where_lambda_d_underflows(runner, gaussian_file):
    out = {d_max: runner.invoke(main, ["analyze", "--channel", gaussian_file, "--lambda", "0.4",
                                       "--d", d_max]) for d_max in ("5e-324", "1e-300")}
    assert [r.exit_code for r in out.values()] == [0, 0]
    assert out["5e-324"].output == out["1e-300"].output
    assert "epsilon <= 0.0149 at r0=1.0075, kappa=2.0000" in out["5e-324"].output


def test_sweep_rho_past_the_float_range_gives_outage_1(runner, tmp_path):
    # rho = (lam r - b)/(C* - C) overflows at lam = 1e308 on the discrete
    # config: rho = beta = inf, chi1 = chi2 = 0, and both bounds are 1.
    out = tmp_path / "x.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", str(CONFIGS / "discrete.json"), "--variable", "lambda",
         "--values", "1e308", "--d", "5", "--r", "1.5", "--n", "4", "--mode", "tin",
         "--out", str(out)],
    )
    assert (result.exit_code, result.stderr) == (
        0, f"no epsilon at lambda=1e+308, mode tin: {ic.analysis.NO_FEASIBLE_RATE}\n")
    with open(out) as f:
        cells = [(r["rho"], r["beta"], r["chi1"], r["chi2"], r["p_outage_finiteN"],
                  r["p_outage_limit"]) for r in csv.DictReader(f)]
    assert cells == [("inf", "inf", "0", "0", "1.0", "1.0")] * 2


def test_sweep_rows_sort_by_value_n_mode_and_user(runner, gaussian_file, tmp_path):
    # Unsorted values, --n and --mode: N orders the rows beside the per-user
    # cells that --r brings; without --r, which refuses --n, N is blank.
    out = tmp_path / "x.csv"
    args = ["sweep", "--channel", gaussian_file, "--variable", "lambda", "--values", "1,0.5",
            "--d", "5", "--mode", "tin", "--mode", "di", "--out", str(out)]
    layout = (("1.0", "0.5"), ("64", "1", "4"), ("tin", "di"), ("1", "2"))
    for extra, n_cells in ((["--r", "1.5", "--n", "64,1,4"], layout[1]), ([], ("",))):
        assert runner.invoke(main, [*args, *extra]).exit_code == 0
        with open(out) as f:
            got = [(r["value"], r["N"], r["mode"], r["user"]) for r in csv.DictReader(f)]
        assert got == sorted(itertools.product(layout[0], n_cells, *layout[2:]))


_SWEEP = ["sweep", "--channel", str(CONFIGS / "gaussian.json")]
_CSV_FILES = {
    "alpha": [*_SWEEP, "--variable", "alpha", "--values", "2,0.5,7", "--lambda", "1",
              "--r", "1.5", "--n", "4", "--mode", "di", "--out"],
    "lambda": [*_SWEEP, "--variable", "lambda", "--lo", "0.3", "--hi", "2.4", "--steps", "8",
               "--d", "5", "--r", "1.5", "--n", "4,64", "--mode", "tin", "--mode", "di", "--out"],
    "n_packets": [*_SWEEP, "--variable", "n_packets", "--values", "64,1,4", "--lambda", "1",
                  "--d", "5", "--r", "1.5", "--out"],
    "r": [*_SWEEP, "--variable", "r", "--values", "0.5,0.8,1.5,3", "--lambda", "0.9",
          "--d", "5", "--n", "2,8", "--out"],
    "unsorted": [*_SWEEP, "--variable", "lambda", "--values", "1,0.3,0.5", "--d", "5",
                 "--r", "1.5", "--n", "4,1,64", "--mode", "tin", "--mode", "di", "--out"],
    "without-r": [*_SWEEP, "--variable", "lambda", "--values", "1,0.3,0.5", "--d", "5",
                  "--mode", "di", "--mode", "tin", "--out"],
    "blank": ["sweep", "--channel", str(CONFIGS / "discrete.json"), "--variable", "lambda",
              "--values", "0.01,0.05,0.11,0.3", "--d", "5", "--r", "1.5", "--n", "4", "--out"],
    "inf": ["sweep", "--channel", str(CONFIGS / "discrete.json"), "--variable", "lambda",
            "--values", "1e308", "--d", "5", "--r", "1.5", "--n", "4", "--out"],
    "simulate": ["simulate", "--channel", str(CONFIGS / "gaussian.json"), "--lambda", "1.0",
                 "--r", "1.5", "--n-packets", "4", "--d", "5", "--trials", "500", "--csv"],
}
_TEXT_COLUMNS = {"variable", "mode", "case_label"}
_INT_COLUMNS = {"user", "N", "chi1", "chi2"}


@pytest.mark.parametrize("name", list(_CSV_FILES))
def test_csv_files_are_what_csv_writer_writes(runner, tmp_path, name):
    # The writer joins str cells with commas and ends each line in \r\n.
    # csv.writer (QUOTE_MINIMAL, \r\n) writes the same bytes back from the
    # parsed rows, so no cell needed quoting; each number is its float repr.
    out = tmp_path / "x.csv"
    result = runner.invoke(main, [*_CSV_FILES[name], str(out)])
    assert result.exit_code == 0, result.stderr
    text = out.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    again = io.StringIO(newline="")
    csv.writer(again).writerows(rows)
    assert again.getvalue() == text
    header, *body = rows
    assert header == (["user", "outage", "halfwidth", "rate"] if name == "simulate"
                      else CSV_COLUMNS)
    assert {len(row) for row in body} == {len(header)}
    numbers = [(column, cell) for row in body for column, cell in zip(header, row)
               if column not in _TEXT_COLUMNS]
    for column, cell in numbers:
        if cell:
            assert cell == (str(int(cell)) if column in _INT_COLUMNS else repr(float(cell)))
    cells = {cell for _, cell in numbers}
    assert "" in cells or name not in ("without-r", "blank", "inf")
    assert ("inf" in cells) == (name == "inf")


@pytest.mark.parametrize("args", [
    ["--variable", "lambda", "--values", "0.3,1,2.4", "--d", "1e308"],
    ["--variable", "lambda", "--values", "0.3,1,2.4", "--d", "1e-320"],
    ["--variable", "alpha", "--values", "1e308", "--lambda", "1"],
    ["--variable", "alpha", "--values", "1e-320", "--lambda", "1"],
    ["--variable", "lambda", "--values", "1e-320,1", "--d", "5"],
], ids=["d-1e308", "d-1e-320", "alpha-1e308", "alpha-1e-320", "lambda-1e-320"])
def test_sweep_at_extreme_alpha_lambda_or_d_prints_nothing_on_stderr(runner, gaussian_file,
                                                                    tmp_path, args):
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, *args, "--r", "1.5", "--n", "4",
         "--mode", "tin", "--mode", "di", "--out", str(tmp_path / "x.csv")],
    )
    assert (result.exit_code, result.stderr) == (0, "")


def test_sweep_below_unit_rate_writes_the_gapless_form(runner, gaussian_file, tmp_path):
    # At r < 1 chi1 fails wherever rho >= 0: both decoders take the gapless
    # form at finite N, and the limit is its N -> inf value at that r,
    # delta_cdf(1/(r lam), D).  Cells at rho < 0 stay blank.
    info = ic.gaussian_info_quantities(ic.GaussianIC(1000.0, 1000.0, 0.8, 1.5))
    out = tmp_path / "r.csv"
    cells = {}
    for lam, r, mode in (("0.6", "0.7", "tin"), ("0.9", "0.8", "di")):
        result = runner.invoke(
            main,
            ["sweep", "--channel", gaussian_file, "--variable", "r", "--values", r,
             "--lambda", lam, "--d", "5", "--n", "4", "--mode", mode, "--out", str(out)],
        )
        assert result.exit_code == 0, result.stderr
        with open(out) as f:
            for row in csv.DictReader(f):
                cells[mode, int(row["user"])] = (
                    row["rho"] != "", row["p_outage_finiteN"], row["p_outage_limit"])
    gapless = ic.closed_form_outage(info, 2, 0.6, 0.7, 4, 5.0, ic.TIN).finite_n
    assert gapless == pytest.approx(0.5884, abs=1e-4)
    di = [ic.closed_form_outage(info, user, 0.9, 0.8, 4, 5.0, ic.DI).finite_n
          for user in (1, 2)]
    assert di == pytest.approx([0.38065, 0.37468], abs=1e-5)
    limits = [ic.closed_form_outage(info, user, lam, r, None, 5.0, mode).limit
              for user, lam, r, mode in ((2, 0.6, 0.7, ic.TIN), (1, 0.9, 0.8, ic.DI),
                                         (2, 0.9, 0.8, ic.DI))]
    assert cells == {
        ("tin", 1): (True, "", ""),                  # rho < 0
        ("tin", 2): (True, repr(gapless), repr(limits[0])),
        ("di", 1): (True, repr(di[0]), repr(limits[1])),
        ("di", 2): (True, repr(di[1]), repr(limits[2])),
    }
    # delta_cdf(1/(r lam), D) is g(10/21) = 320/441 at (0.6, 0.7) and
    # g(5/18) = 155/324 at (0.9, 0.8), with g(t) = t(2 - t).
    for limit, exact in zip(limits, (Fraction(320, 441), *[Fraction(155, 324)] * 2)):
        assert abs(Fraction(limit) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_sweep_keeps_a_small_outage_at_a_huge_window(runner, tmp_path):
    # At D = 1e20, kappa = 4e-20: taken as 1 - (~1) - (~0), both outage
    # cells read 0.0.  The bounds' exact rational values round to these.
    out = tmp_path / "d.csv"
    result = runner.invoke(
        main,
        ["sweep", "--channel", str(CONFIGS / "gaussian.json"), "--variable", "lambda",
         "--values", "1", "--d", "1e20", "--r", "1.5", "--n", "4", "--out", str(out)],
    )
    assert (result.exit_code, result.stderr) == (0, "")
    with open(out) as f:
        [row] = [r for r in csv.DictReader(f) if r["user"] == "2"]
    for column, exact in (("p_outage_limit", 6.538853643056043e-21),
                          ("p_outage_finiteN", 5.721496937674038e-21)):
        assert abs(float(row[column]) - exact) <= math.ulp(exact), column


def test_sweep_rejects_bad_grid(runner, gaussian_file, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda",
         "--lo", "2.0", "--hi", "1.0", "--steps", "5", "--d", "5",
         "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 2


def test_sweep_unparsable_values_exits_2(runner, gaussian_file, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda",
         "--values", "0.5,abc", "--d", "5", "--out", str(tmp_path / "x.csv")],
    )
    _assert_config_error(result, "cannot parse --values '0.5,abc'")


def test_sweep_unparsable_packet_counts_exits_2(runner, gaussian_file, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda",
         "--values", "0.5", "--d", "5", "--n", "x", "--out", str(tmp_path / "x.csv")],
    )
    _assert_config_error(result, "cannot parse --n 'x'")


@pytest.mark.parametrize("extra, message", [
    (["--values", "0.5,1", "--r", "1.5", "--n", "4,4"], "--n repeats 4"),
    (["--values", "0.5,1", "--r", "1.5", "--n", "1,4,64,4"], "--n repeats 4"),
    (["--values", "0.5,1", "--mode", "tin", "--mode", "di", "--mode", "tin"],
     "--mode repeats tin"),
    (["--values", "0.5,1,5e-1"], "--values repeats 0.5"),
    (["--values", "0.5,1", "--r", "1.5", "--n", ""], "cannot parse --n ''"),
    (["--lo", "1", "--hi", "1.0000000000000004", "--steps", "5"],
     "--lo/--hi/--steps repeats 1.0"),
], ids=["n", "n-apart", "mode", "values", "empty-n", "lo-hi"])
def test_sweep_refuses_options_that_repeat_rows(runner, gaussian_file, tmp_path, extra, message):
    # A repeated value, N or mode wrote each of its rows twice, and --n "" was read
    # as no --n.  np.linspace repeats points of a grid a few floats wide: this one
    # wrote 10 rows, 1.0 and 1.0000000000000004 twice each.
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["sweep", "--channel", gaussian_file, "--variable", "lambda",
                                  "--d", "5", *extra, "--out", str(out)])
    _assert_config_error(result, message)
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid, rows", [
    # numpy asked for 7.28 TiB here
    (["--lo", "0.3", "--hi", "4.9", "--steps", "1000000000000"], 2 * 10**12),
    (["--lo", "0.3", "--hi", "4.9", "--steps", "125001", "--r", "1.5", "--n", "4,64",
      "--mode", "tin", "--mode", "di"], 125001 * 2 * 2 * 2),
    (["--values", "0.5,1", "--r", "1.5", "--n", ",".join(map(str, range(1, 250002)))],
     2 * 2 * 250001),
], ids=["steps", "steps-modes-n", "values-n"])
def test_sweep_refuses_rows_above_the_ceiling_before_building_the_grid(
        runner, gaussian_file, tmp_path, monkeypatch, grid, rows):
    # Points x modes x 2 users x N count rows, refused before any grid exists.
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["sweep", "--channel", gaussian_file, "--variable", "lambda",
                                  "--d", "5", *grid, "--out", str(out)])
    assert rows > MAX_SWEEP_ROWS
    _assert_config_error(result, "")
    assert result.stderr == f"error: a sweep writes at most 1000000 rows, got {rows}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_json_is_deterministic(runner, gaussian_file):
    args = [
        "simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
        "--n-packets", "4", "--d", "5", "--trials", "2000", "--seed", "3",
    ]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output.splitlines()[0])
    assert payload["trials"] == 2000 and payload["seed"] == 3


def test_simulate_check_passes_within_band(runner, gaussian_file):
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
         "--n-packets", "4", "--d", "5", "--trials", "20000", "--seed", "3",
         "--check"],
    )
    assert result.exit_code == 0
    assert "check passed" in result.output


def test_simulate_check_failure_exits_4(runner, gaussian_file):
    # trials=2, seed=90: both trials are outages for user 1, far outside the
    # 4-sigma band around the closed-form value (~0.064)
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "0.4", "--r", "3.0",
         "--n-packets", "4", "--d", "5", "--trials", "2", "--seed", "90",
         "--check"],
    )
    assert result.exit_code == 4
    assert "4 sigma" in result.output


def test_simulate_check_passes_at_the_additive_cap(runner, tmp_path):
    # r*lam rounds to just below C* here, so mu = 0 decodes, though the
    # quotient r < C*/lam fails: the closed form must test the product too.
    path = tmp_path / "strong.json"
    path.write_text('{"type": "gaussian", "p1": 1000, "p2": 1000, "c1": 2, "c2": 2}')
    result = runner.invoke(
        main,
        ["simulate", "--channel", str(path), "--lambda", "0.5300751879699248",
         "--r", "9.401709875355936", "--n-packets", "4", "--d", "1", "--decoder", "di",
         "--trials", "20000", "--seed", "0", "--check"],
    )
    assert (result.exit_code, result.stderr) == (0, "check passed\n")


def test_simulate_stochastic_requires_n(runner, gaussian_file):
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
         "--n-packets", "4", "--d", "5", "--mode", "stochastic"],
    )
    assert result.exit_code == 2
    assert "bits-per-source" in result.output


def test_simulate_unwritable_csv_exits_2(runner, gaussian_file, tmp_path):
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
         "--n-packets", "4", "--d", "5", "--trials", "50",
         "--csv", str(tmp_path / "missing" / "x.csv")],
    )
    _assert_config_error(result, "cannot write")


def test_simulate_ignores_thread_count_variable(runner, gaussian_file, monkeypatch):
    for mode_args in ([], ["--mode", "stochastic", "--n", "1000"]):
        args = ["simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
                "--n-packets", "4", "--d", "5", "--trials", "50", *mode_args]
        monkeypatch.delenv("IC_OUTAGE_THREADS", raising=False)
        unset = runner.invoke(main, args)
        assert unset.exit_code == 0
        for threads in ("1", "2", "64", "x"):
            monkeypatch.setenv("IC_OUTAGE_THREADS", threads)
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stdout) == (0, unset.stdout), (mode_args, threads)


@pytest.mark.parametrize("d_max", ["1", "5"])
def test_simulate_fluid_check_compares_the_gapless_form(runner, gaussian_file, monkeypatch,
                                                         d_max):
    # At r < 1 chi1 is false for every rho >= 0; the check compares user 2
    # with the gapless-regime form instead, 1 at D = 1 and 0.59 at D = 5, and
    # user 1 (rho < 0) with 0.  At D = 5 it also compares both DI users at
    # lambda = 0.9, r = 0.8 with 0.38065 and 0.37468 (measured: 0.37970 and
    # 0.37450).  Shifting the gapless form by 0.1 must fail every run.
    args = ["simulate", "--channel", gaussian_file, "--lambda", "0.6", "--r", "0.7",
            "--n-packets", "4", "--d", d_max, "--trials", "20000", "--seed", "0", "--check"]
    di_args = ["simulate", "--channel", gaussian_file, "--lambda", "0.9", "--r", "0.8",
               "--n-packets", "4", "--d", d_max, "--decoder", "di", "--trials", "20000",
               "--seed", "0", "--check"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr
    assert result.stderr == "check passed\n"
    assert json.loads(result.stdout)["outage"][0] == 0.0
    if d_max == "5":
        result = runner.invoke(main, di_args)
        assert (result.exit_code, result.stderr) == (0, "check passed\n")
        assert json.loads(result.stdout)["outage"] == [0.3797, 0.3745]
    closed_form = ic.analysis.closed_form_outage

    def shifted(info, user, lam, r, *rest):
        # the gapless cell only: r < 1 with rho >= 0, as the zero path is not the form
        bound = closed_form(info, user, lam, r, *rest)
        gapless = r < 1 and bound.inputs.rho >= 0
        return bound._replace(finite_n=abs(bound.finite_n - 0.1)) if gapless else bound

    monkeypatch.setattr(ic.analysis, "closed_form_outage", shifted)
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert "user 2: empirical outage" in result.stderr
    if d_max == "5":
        result = runner.invoke(main, di_args)
        assert result.exit_code == 4
        assert "user 1: empirical outage" in result.stderr


def test_simulate_fluid_check_compares_di_below_unit_rate(runner, gaussian_file):
    # DI at r < 1 takes the gapless form like TIN: rho < 0 is compared with 0
    # (lambda = 0.6, r = 0.7), and rho >= 0 for both users (lambda = 0.9,
    # r = 0.8) with delta_cdf((N - 1 + rho) theta, D), which is 1 at D = 1.
    args = ["simulate", "--channel", gaussian_file, "--n-packets", "4", "--d", "1",
            "--decoder", "di", "--trials", "200", "--check"]
    result = runner.invoke(main, [*args, "--lambda", "0.6", "--r", "0.7"])
    assert (result.exit_code, result.stderr) == (0, "check passed\n")
    result = runner.invoke(main, [*args, "--lambda", "0.9", "--r", "0.8"])
    assert (result.exit_code, result.stderr) == (0, "check passed\n")
    assert json.loads(result.stdout)["outage"] == [1.0, 1.0]


def test_simulate_check_at_a_vanishing_rate_prints_only_the_verdict(runner, gaussian_file,
                                                                     tmp_path):
    # Both users have rho < 0 at lambda = 1e-300: the check compares them with
    # the exact 0, and no overflow of a discarded closed form reaches stderr.
    # A sweep from there writes its kappa column without one either.
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1e-300", "--r", "1.5",
         "--n-packets", "2", "--d", "1", "--check"],
    )
    assert (result.exit_code, result.stderr) == (0, "check passed\n")
    assert json.loads(result.stdout)["outage"] == [0.0, 0.0]
    # so does a vanishing window, where the r >= 1 forms give 1
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1", "--r", "1.5",
         "--n-packets", "4", "--d", "1e-300", "--trials", "1000", "--check"],
    )
    assert (result.exit_code, result.stderr) == (0, "check passed\n")
    assert json.loads(result.stdout)["outage"] == [1.0, 1.0]
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda", "--lo", "1e-300",
         "--hi", "2", "--steps", "5", "--d", "5", "--r", "1.5", "--n", "4",
         "--out", str(tmp_path / "s.csv")],
    )
    assert (result.exit_code, result.stderr) == (0, "")


def test_simulate_stochastic_check_comparing_no_user_exits_2(runner, gaussian_file):
    # At r < 1, chi1 is false for every rho >= 0, and stochastic mode compares
    # only users with rho >= 0 and chi1: both users are skipped.
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "0.9", "--r", "0.8",
         "--n-packets", "4", "--d", "1", "--mode", "stochastic", "--n", "2000",
         "--trials", "200", "--check"],
    )
    assert result.exit_code == 2
    assert result.stderr == ("error: --check compared no user: "
                             "stochastic mode compares only users with rho >= 0 and chi1\n")


@pytest.mark.parametrize("mode", [["--mode", "fluid"], ["--mode", "stochastic", "--n", "1000"]])
def test_simulate_refuses_a_window_of_infinitely_many_codewords(runner, gaussian_file, mode):
    # D/theta = D N r lambda is 6e308 at D = 1e308: fluid mode ended in an
    # IndexError, stochastic mode in a misleading error about sorted starts.
    # The same holds when N r lambda itself overflows.
    args = ["simulate", "--channel", gaussian_file, "--lambda", "1", "--r", "1.5",
            "--n-packets", "4", "--trials", "50", *mode]
    result = runner.invoke(main, [*args, "--d", "1e308"])
    _assert_config_error(result, "asynchrony window D = 1e+308 is not a finite number of "
                                 "codeword lengths 1/(N r lambda)\n")
    result = runner.invoke(main, [*args, "--d", "1e307"])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["outage"] == [0.0, 0.0]
    result = runner.invoke(main, [*args, "--d", "1", "--r", "1e308"])
    _assert_config_error(result, "asynchrony window D = 1.0 is not a finite number")


def test_simulate_fluid_at_n_500(runner, gaussian_file):
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
         "--n-packets", "500", "--d", "5", "--trials", "3000", "--seed", "2", "--check"],
    )
    assert result.exit_code == 0, result.stderr
    assert len(json.loads(result.stdout)["per_codeword_failures"][0]) == 500
    assert "check passed" in result.stderr


def test_simulate_csv_output(runner, gaussian_file, tmp_path):
    out = tmp_path / "sim.csv"
    result = runner.invoke(
        main,
        ["simulate", "--channel", gaussian_file, "--lambda", "1.0", "--r", "1.5",
         "--n-packets", "4", "--d", "5", "--trials", "500", "--seed", "1",
         "--csv", str(out)],
    )
    assert result.exit_code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [r["user"] for r in rows] == ["1", "2"]
    payload = json.loads(result.output.splitlines()[0])
    assert float(rows[0]["outage"]) == payload["outage"][0]


def test_sweep_evaluates_each_closed_form_once_per_level(runner, gaussian_file, tmp_path,
                                                         monkeypatch):
    # The closed forms take the whole grid at once: epsilon runs once per
    # mode and the user cells once per (mode, user), never once per N, and
    # the gapless cells at r < 1 reuse the same inputs.
    calls = {"epsilon_bound": [], "user_outage_inputs": []}

    def counted(name):
        fn = getattr(ic.analysis, name)

        def wrapper(*args):
            # the arguments after info, with arrays as lists
            calls[name].append(tuple(np.asarray(a).tolist() for a in args[1:]))
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ic.analysis, name, counted(name))
    for r in (1.5, 0.7):
        for made in calls.values():
            made.clear()
        result = runner.invoke(
            main,
            ["sweep", "--channel", gaussian_file, "--variable", "lambda",
             "--values", "0.5,1.0,2.0", "--d", "5", "--r", str(r), "--n", "1,4,16",
             "--mode", "tin", "--mode", "di", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 0
        assert "wrote 36 rows" in result.output           # values x modes x N x users
        grid = [0.5, 1.0, 2.0]
        assert calls["epsilon_bound"] == [(grid, 5.0, mode) for mode in (ic.TIN, ic.DI)]
        assert calls["user_outage_inputs"] == [
            (user, r, grid, mode) for mode in (ic.TIN, ic.DI) for user in (1, 2)
        ]


# ---------------------------------------------------------------------------
# error contract: every failure is a one-line message and exit 2
# ---------------------------------------------------------------------------

_SIM = ["--r", "1.5", "--n-packets", "4", "--d", "1", "--trials", "100"]
# Finite powers and gains whose products c_i p_i' pass the float range, so C~* = C~ = inf.
_HUGE_GAUSSIAN_CFG = {"type": "gaussian", "p1": 1e308, "p2": 1e308, "c1": 1e308, "c2": 1e308}
_HUGE_GAUSSIAN_ERROR = "error: c_tilde_star of user 1 must be a finite number >= 0, got inf\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["simulate", "--channel", "DISCRETE", "--lambda", "0.1", *_SIM,
          "--decoder", "di", "--check"],
         "error: user 2: nonpositive denominator"),
        (["analyze", "--channel", "DISCRETE", "--lambda", "0.1", "--mode", "di"],
         "error: user 2: nonpositive denominator C*-C_cross = -3.395e-02"),
        (["simulate", "--channel", "GAUSSIAN", "--lambda", "0.6", *_SIM, "--seed", "-1"],
         "error: seed must be in [0, 2**128), got -1"),
        (["analyze", "--channel", "GAUSSIAN", "--lambda", "nan"],
         "Error: Invalid value for '--lambda': nan is not a finite number."),
        (["simulate", "--channel", "GAUSSIAN", "--lambda", "0.6", *_SIM, "--r", "nan"],
         "Error: Invalid value for '--r': nan is not a finite number."),
        (["analyze", "--channel", "GAUSSIAN", "--lambda", "0.6", "--d", "nan"],
         "Error: Invalid value for '--d': nan is not a finite number."),
        (["simulate", "--channel", "GAUSSIAN", "--lambda", "0.6", *_SIM, "--d", "inf"],
         "Error: Invalid value for '--d': inf is not a finite number."),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "lambda", "--values", "1.0,nan",
          "--d", "5", "--out", "OUT"],
         "error: cannot parse --values '1.0,nan'"),
        (["analyze", "--channel", "GAUSSIAN", "--lambda", "0", "--r", "1.5", "--mode", "di"],
         "error: arrival rate must be positive, got 0.0"),
        (["analyze", "--channel", "DISCRETE", "--lambda", "-1"],
         "error: arrival rate must be positive, got -1.0"),
        (["analyze", "--channel", "GAUSSIAN", "--lambda", "0.2", "--d", "-5"],
         "error: asynchrony window must be positive, got -5.0"),
        (["analyze", "--channel", "GAUSSIAN", "--lambda", "0.2", "--d", "0"],
         "error: asynchrony window must be positive, got 0.0"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "alpha", "--values", "1.5",
          "--lambda", "0", "--out", "OUT"],
         "error: arrival rate must be positive, got 0.0"),
        (["sweep", "--channel", "DISCRETE", "--variable", "lambda", "--values", "0.1,-0.5",
          "--d", "5", "--r", "1.5", "--out", "OUT"],
         "error: arrival rate must be positive, got -0.5"),
        (["simulate", "--channel", "DISCRETE", "--lambda", "1e-12", *_SIM,
          "--n-packets", "10", "--mode", "stochastic", "--n", "1000000000"],
         "error: n / lambda = 1e+21 slots exceeds 2**53"),
        (["simulate", "--channel", "GAUSSIAN", "--lambda", "0.6", *_SIM, "--mode", "fluid",
          "--n", "5"],
         "error: the bits-per-source count n applies to stochastic mode only"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "lambda", "--values", "1.0,2.0",
          "--d", "-5", "--mode", "tin", "--out", "OUT"],
         "error: asynchrony window must be positive, got -5.0"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "alpha", "--values", "-1,0,2",
          "--lambda", "1.0", "--mode", "tin", "--out", "OUT"],
         "error: alpha must be positive, got -1.0"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "n_packets", "--values", "4.7,1e3",
          "--lambda", "1.0", "--d", "5", "--r", "1.5", "--out", "OUT"],
         "error: number of packets must be an integer, got 4.7"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "lambda", "--values", "1", "--d", "5",
          "--r", "1.5", "--n", "10000000000000000000000", "--out", "OUT"],
         "error: number of packets must be at most 2**53, got 10000000000000000000000"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "n_packets", "--values", "1e20,4",
          "--lambda", "1", "--d", "5", "--r", "1.5", "--out", "OUT"],
         "error: number of packets must be at most 2**53, got 1e+20"),
        (["simulate", "--channel", "GAUSSIAN", "--lambda", "0.6", *_SIM,
          "--n-packets", "100000000000000000000"],
         "error: number of packets must be at most 2**53, got 100000000000000000000"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "lambda", "--values", "1.0",
          "--lambda", "0.5", "--d", "5", "--r", "1.5", "--out", "OUT"],
         "error: --lambda is not read by a lambda sweep"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "alpha", "--values", "1.5",
          "--lambda", "1", "--d", "5", "--r", "1.5", "--out", "OUT"],
         "error: --d is not read by an alpha sweep"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "r", "--values", "0.5,1.5",
          "--lambda", "1", "--d", "5", "--r", "1.5", "--out", "OUT"],
         "error: --r is not read by an r sweep"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "n_packets", "--values", "4",
          "--lambda", "1", "--d", "5", "--r", "1.5", "--n", "0", "--out", "OUT"],
         "error: --n is not read by an n_packets sweep"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "lambda", "--values", "1.0",
          "--d", "5", "--n", "4,64", "--out", "OUT"],
         "error: --n is not read without --r"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "n_packets", "--values", "4,64",
          "--lambda", "1", "--d", "5", "--out", "OUT"],
         "error: an n_packets grid is not read without --r"),
        (["sweep", "--channel", "GAUSSIAN", "--variable", "lambda", "--values", "1.0",
          "--steps", "8", "--d", "5", "--out", "OUT"],
         "error: give either --values or --lo/--hi/--steps"),
        # DI read C~* - C~ = inf - inf: two numpy warnings and rho = NaN (analyze), an
        # unrelated nan-alpha error (sweep) or warnings before an answer (simulate).
        (["analyze", "--channel", "HUGE", "--lambda", "1", "--mode", "di", "--r", "1.5"],
         _HUGE_GAUSSIAN_ERROR),
        (["sweep", "--channel", "HUGE", "--variable", "lambda", "--values", "1.0",
          "--d", "5", "--r", "1.5", "--n", "4", "--mode", "di", "--out", "OUT"],
         _HUGE_GAUSSIAN_ERROR),
        (["simulate", "--channel", "HUGE", "--lambda", "1", *_SIM, "--decoder", "di"],
         _HUGE_GAUSSIAN_ERROR),
        # Each of these overflowed the simulator's time axis with a numpy warning.
        (["simulate", "--channel", "GAUSSIAN", "--mode", "stochastic", "--lambda", "1",
          "--r", "1e-306", "--n-packets", "28", "--n", "188", "--d", "1", "--trials", "5"],
         "error: release times up to 2**63 + N codeword lengths n/(N r lambda) = inf slots "
         "pass the float range\n"),
        (["simulate", "--channel", "GAUSSIAN", "--mode", "stochastic", "--lambda", "0.5",
          "--r", "1e308", "--n-packets", "1", "--n", "64", "--d", "2", "--trials", "5"],
         "error: codeword starts D N r lambda + 2**63 N r lambda/n + N = inf codeword "
         "lengths pass the float range\n"),
        (["simulate", "--channel", "GAUSSIAN", "--lambda", "1", "--r", "1e308",
          "--n-packets", "1", "--d", "1.5", "--trials", "50"],
         "error: fluid lattice offsets D N r lambda + max(r, 1) = inf codeword lengths "
         "pass the float range\n"),
    ],
    ids=["discrete-di-check", "discrete-di-epsilon", "negative-seed", "nan-lambda", "nan-r",
         "nan-d", "inf-d",
         "nan-in-values", "zero-lambda-analyze", "negative-lambda-analyze",
         "negative-d-analyze", "zero-d-analyze",
         "zero-lambda-alpha-sweep", "negative-lambda-in-values", "stochastic-slots-beyond-2**53",
         "n-outside-stochastic-mode",
         "negative-d-sweep", "nonpositive-alpha-in-values", "fractional-packet-count",
         "sweep-n-beyond-2**53", "packet-grid-beyond-2**53", "simulate-n-beyond-2**53",
         "lambda-in-lambda-sweep", "d-in-alpha-sweep", "r-in-r-sweep",
         "n-in-n_packets-sweep", "n-without-r", "n_packets-grid-without-r",
         "grid-beside-values", "huge-gaussian-di-analyze", "huge-gaussian-di-sweep",
         "huge-gaussian-di-simulate", "stochastic-release-times-overflow",
         "stochastic-starts-overflow", "fluid-lattice-overflow"],
)
def test_error_contract(runner, gaussian_file, discrete_file, tmp_path, args, message):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_HUGE_GAUSSIAN_CFG))
    paths = {"GAUSSIAN": gaussian_file, "DISCRETE": discrete_file, "HUGE": str(huge),
             "OUT": str(tmp_path / "x.csv")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # a numpy warning would end the command in exit 1
        result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)   # no traceback
    assert message in result.stderr
    assert not (tmp_path / "x.csv").exists()


_GAUSSIAN_CFG = {"type": "gaussian", "p1_dbw": 30.0, "p2_dbw": 30.0, "c1": 0.8, "c2": 1.5}
_DISCRETE_CFG = {"type": "discrete", "x1": 2, "x2": 2, "y1": 2, "y2": 2,
                 "kernel1": [[0.5, 0.5]] * 4, "kernel2": [[0.5, 0.5]] * 4}


@pytest.mark.parametrize("config, message", [
    ({**_GAUSSIAN_CFG, "c1": math.nan}, "c1 must be a finite number, got nan"),
    ({**_GAUSSIAN_CFG, "c2": math.inf}, "c2 must be a finite number, got inf"),
    ({**_GAUSSIAN_CFG, "c1": "0.5"}, "c1 must be a finite number, got '0.5'"),
    ({**_GAUSSIAN_CFG, "c1": None}, "c1 must be a finite number, got None"),
    ({**_GAUSSIAN_CFG, "p1_dbw": math.nan}, "p1_dbw must be a finite number, got nan"),
    ({**_GAUSSIAN_CFG, "p2_dbw": 4000.0}, "p2_dbw = 4000.0 overflows"),
    ({**_DISCRETE_CFG, "kernel1": [[math.nan, 0.5]] + [[0.5, 0.5]] * 3},
     "kernel1 row 0 has a non-finite entry"),
    ({**_DISCRETE_CFG, "kernel2": [[0.5, 0.5]] * 3 + [["0.5", 0.5]]},
     "kernel2 must be a matrix of numbers"),
    ({**_DISCRETE_CFG, "x1": "2"}, "x1_size must be a positive integer, got '2'"),
    ({**_DISCRETE_CFG, "x1": 2.5}, "x1_size must be a positive integer, got 2.5"),
    ({**_DISCRETE_CFG, "idle2": True}, "idle index out of range for user 2: True"),
    ([_GAUSSIAN_CFG], "channel config must be a JSON object"),
    # each of these raised KeyError, numpy's ValueError or nothing
    ({k: v for k, v in _GAUSSIAN_CFG.items() if k != "c2"}, "c2 must be a finite number, got None"),
    ({k: v for k, v in _DISCRETE_CFG.items() if k != "kernel2"},
     "kernel2 must be a matrix of numbers"),
    ({**_DISCRETE_CFG, "idle_1": 1}, "unknown key 'idle_1' in a discrete channel config"),
    ({**_GAUSSIAN_CFG, "idle1": 0}, "unknown key 'idle1' in a gaussian channel config"),
    ({**_DISCRETE_CFG, "kernel1": [[True, False]] * 4}, "kernel1 must be a matrix of numbers"),
    ({**_DISCRETE_CFG, "kernel2": [[0.5, 0.5]] * 3 + [[1.0]]},
     "kernel2 must be a matrix of numbers"),
], ids=["nan-gain", "inf-gain", "string-gain", "null-gain", "nan-dbw", "overflowing-dbw",
        "nan-kernel-entry", "string-kernel-entry", "string-size", "fractional-size",
        "bool-idle", "top-level-array", "missing-gain", "missing-kernel", "unread-key",
        "other-type-key", "bool-kernel", "ragged-kernel"])
def test_malformed_channel_config_exits_2(runner, tmp_path, config, message):
    # NaN compares false with every bound, so finiteness is checked on its
    # own.  Every command refuses these at load time, before any work.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for args in (["analyze", "--lambda", "0.5"],
                 ["simulate", "--lambda", "0.5", *_SIM],
                 ["sweep", "--variable", "lambda", "--values", "0.5", "--d", "5",
                  "--out", str(tmp_path / "x.csv")]):
        result = runner.invoke(main, [args[0], "--channel", str(path), *args[1:]])
        _assert_config_error(result, f"error: cannot load channel config: {message}\n")
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# benchmark references: the closed-form gate, and the fluid kernel's output
# byte for byte
# ---------------------------------------------------------------------------

def test_closed_form_benchmark_operations_pass_the_gate(runner, monkeypatch, tmp_path):
    # The benchmark judges each closed-form operation (analyze JSON, sweep CSV,
    # documented errors) against perfbench/reference/; an output it would
    # refuse fails here first.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    wl = importlib.import_module("workloads")
    monkeypatch.chdir(wl.HERE.parent)
    ops = wl.closed_form(0)
    assert len(ops) == 7
    for op in ops:
        result = runner.invoke(main, op.argv(tmp_path))
        verdict = wl.judge(op, 0, result.exit_code, result.stdout, result.stderr,
                           tmp_path / f"{op.name}.csv")
        assert verdict is None, f"{op.name}: {verdict}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fluid_benchmark_operations_reproduce_references(runner, monkeypatch, threads):
    # perfbench/workloads.py holds the operation list and reads the references
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    wl = importlib.import_module("workloads")
    monkeypatch.chdir(wl.HERE.parent)
    monkeypatch.setenv("IC_OUTAGE_THREADS", threads)
    ops = wl.fluid(wl.DEFAULT_SEED)
    assert len(ops) == 9
    for op in ops:
        result = runner.invoke(main, list(op.args))
        assert result.exit_code == 0, f"{op.name}: {result.stderr}"
        assert result.stdout == wl.reference_text(op), op.name


# ---------------------------------------------------------------------------
# the library owners of the sweep's numbers and the --check verdicts
# ---------------------------------------------------------------------------

def test_sweep_writes_the_cells_of_sweep_table(runner, gaussian_file, tmp_path):
    # analysis.sweep_table evaluates the grid; the CSV shows its numbers as repr
    # cells, blank where the table holds nan, in (mode, user, N, value) order.
    out = tmp_path / "t.csv"
    grid, ns, modes = [0.3, 1.0, 2.0, 5.5], [1, 4], ["tin", "di"]
    result = runner.invoke(
        main,
        ["sweep", "--channel", gaussian_file, "--variable", "lambda",
         "--values", ",".join(map(str, grid)), "--d", "5", "--r", "1.5",
         "--n", ",".join(map(str, ns)), "--mode", "tin", "--mode", "di", "--out", str(out)],
    )
    assert result.exit_code == 0
    info = ic.gaussian_info_quantities(ic.load_channel(gaussian_file))
    columns, skipped = ic.sweep_table(info, np.array(grid), 1.5, np.array(ns)[:, None], 5.0,
                                      modes)
    assert skipped == [(3, "tin", ic.analysis.NO_FEASIBLE_RATE),
                       (3, "di", ic.analysis.NO_FEASIBLE_RATE)]
    assert columns["p_outage_finiteN"].shape == (2, 2, 2, 4)
    assert columns["epsilon"].shape == columns["case_label"].shape == (2, 1, 1, 4)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 32
    for row in rows:
        m, u, g = modes.index(row["mode"]), int(row["user"]) - 1, grid.index(float(row["value"]))
        k = ns.index(int(row["N"]))
        for c in ("rho", "beta", "chi1", "chi2", "p_outage_limit", "p_outage_finiteN",
                  "epsilon", "kappa", "case_label"):
            x = np.broadcast_to(columns[c], (2, 2, 2, 4))[m, u, k, g]
            cell = str(x) if c == "case_label" else "" if x != x else repr(x.item())
            assert row[c] == cell, (c, row)


def test_sweep_table_blanks_outage_below_zero_rho_and_names_channel_faults(discrete_file):
    info = ic.info_quantities(ic.load_channel(discrete_file), *[ic.InputDistribution(
        np.full(2, 0.5))] * 2)
    lam = np.array([0.01, 0.03, 0.1])
    columns, skipped = ic.sweep_table(info, lam, None, None, 5.0, ["di"])
    assert sorted(columns) == ["case_label", "epsilon"]
    assert columns["epsilon"][0, 0, 0, :2].tolist() == [0.0, 0.0]
    assert np.isnan(columns["epsilon"][0, 0, 0, 2])
    [(point, mode, reason)] = skipped
    assert (point, mode) == (2, "di") and reason.startswith("user 2: nonpositive denominator")
    columns, skipped = ic.sweep_table(info, lam, 1.5, 4, 5.0, ["tin"])
    blank = columns["rho"] < 0
    assert blank.any() and (np.isnan(columns["p_outage_finiteN"]) == blank).all()
    assert columns["chi1"].dtype.kind == "i"
    assert skipped == [(2, "tin", ic.analysis.NO_FEASIBLE_RATE)]


def test_sweep_table_refuses_what_the_closed_forms_refuse():
    info = ic.gaussian_info_quantities(ic.load_channel(str(CONFIGS / "gaussian.json")))
    with pytest.raises(ic.AnalysisError, match="normalized code rate must be finite, got nan"):
        ic.sweep_table(info, np.array([1.0, 2.0]), math.nan, None, 5.0, ["tin"])


def _simulate(runner, channel, *args):
    return runner.invoke(main, ["simulate", "--channel", channel, *args])


@pytest.mark.parametrize("args, exit_code", [
    (["--lambda", "1.0", "--r", "1.5", "--n-packets", "4", "--d", "5", "--trials", "20000",
      "--seed", "3"], 0),
    (["--lambda", "0.4", "--r", "3.0", "--n-packets", "4", "--d", "5", "--trials", "2",
      "--seed", "90"], 4),
    (["--lambda", "0.9", "--r", "0.8", "--n-packets", "4", "--d", "1", "--mode", "stochastic",
      "--n", "2000", "--trials", "200"], 2),
    (["--lambda", "0.9", "--r", "1.5", "--n-packets", "4", "--d", "1", "--mode", "stochastic",
      "--n", "2000", "--trials", "200"], 0),
])
def test_simulate_check_reads_check_report(runner, gaussian_file, args, exit_code):
    # The exit code and the stderr line follow simulator.check_report's records.
    result = _simulate(runner, gaussian_file, *args, "--check")
    assert result.exit_code == exit_code
    info = ic.gaussian_info_quantities(ic.load_channel(gaussian_file))
    value = dict(zip(args[::2], args[1::2]))
    scheme = ic.SchemeParams(float(value["--lambda"]), float(value["--r"]),
                             int(value["--n-packets"]), float(value["--d"]))
    sim_result = ic.SimResult(**json.loads(result.stdout))
    report = ic.check_report(sim_result, info, scheme)
    assert [record.user for record in report] == [1, 2]
    for record, p_hat in zip(report, sim_result.outage):
        if record.skipped:
            assert (record.closed_form, record.passed) == (None, None)
            continue
        p = ic.closed_form_outage(info, record.user, scheme.lam, scheme.r, scheme.n_packets,
                                  scheme.d_max, "tin").finite_n
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / sim_result.trials)
        assert (record.closed_form, record.passed) == (p, abs(p_hat - p) <= 4.0 * sigma)
    if exit_code == 4:
        failed = next(record for record in report if record.passed is False)
        assert result.stderr == (f"error: user {failed.user}: empirical outage "
                                 f"{sim_result.outage[failed.user - 1]:.5f} deviates from "
                                 f"closed form {failed.closed_form:.5f} by more than 4 sigma\n")
    elif exit_code == 2:
        assert all(record.skipped for record in report)
        assert result.stderr == f"error: --check compared no user: {report[0].skipped}\n"
    else:
        assert all(record.passed for record in report if not record.skipped)
        assert result.stderr == "check passed\n"
