"""Command-line front end: closed-form analysis, parameter sweeps and
Monte Carlo validation runs."""

from __future__ import annotations

import itertools
import json
import math
import sys

import click
import numpy as np

from . import channel as chan
from . import analysis as an
from . import simulator as sim

EXIT_CONFIG = 2
EXIT_CONVERSE = 3
EXIT_CHECK = 4

CSV_COLUMNS = [
    "variable",
    "value",
    "user",
    "N",
    "mode",
    "rho",
    "beta",
    "kappa",
    "chi1",
    "chi2",
    "p_outage_finiteN",
    "p_outage_limit",
    "epsilon",
    "case_label",
]


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _FiniteFloat(click.types.FloatParamType):
    """click's float type, refusing NaN and infinities."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return value


FINITE = _FiniteFloat()


def _parse_list(text: str, convert, what: str) -> list:
    try:
        return [convert(v) for v in text.split(",")]
    except (ValueError, click.BadParameter):
        _fail(EXIT_CONFIG, f"cannot parse {what} {text!r}")


def _parse_dist(text: str | None, size: int) -> chan.InputDistribution:
    if text is None:
        return chan.InputDistribution(np.full(size, 1.0 / size))
    values = _parse_list(text, float, "input distribution")
    if "," in text:
        return chan.InputDistribution(np.array(values))
    if size != 2:
        _fail(EXIT_CONFIG, "scalar --pi values need a binary input alphabet")
    return chan.InputDistribution.bernoulli(values[0])


def _write_csv(path: str, header: list, rows) -> None:
    """Write the header and then each row, a sequence of str cells, as one
    line ending in \r\n.  The cells are numbers and fixed names with no
    comma, quote or line break, so csv.writer would quote none of them."""
    try:
        with open(path, "w", newline="") as f:
            f.writelines(",".join(row) + "\r\n" for row in itertools.chain([header], rows))
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write {path}: {exc}")


def _load(channel_path: str):
    try:
        return chan.load_channel(channel_path)
    except (OSError, KeyError, ValueError) as exc:
        _fail(EXIT_CONFIG, f"cannot load channel config: {exc}")


def _resolve_info(ch, pi1: str | None, pi2: str | None) -> chan.InfoQuantities:
    if isinstance(ch, chan.GaussianIC):
        if pi1 is not None or pi2 is not None:
            _fail(EXIT_CONFIG, "--pi1 and --pi2 apply to discrete channels only")
        return chan.gaussian_info_quantities(ch)
    d1 = _parse_dist(pi1, ch.x1_size)
    d2 = _parse_dist(pi2, ch.x2_size)
    return chan.info_quantities(ch, d1, d2)


class _Main(click.Group):
    """Reports a library validation error in any command as ``error: …``, exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (chan.ChannelValidationError, an.AnalysisError) as exc:
            _fail(EXIT_CONFIG, str(exc))


@click.group(cls=_Main)
def main():
    """Outage bounds for interference channels with gradual data arrival."""


@main.command()
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--lambda", "lam", required=True, type=FINITE, help="arrival rate (bits/slot)")
@click.option("--r", "r_value", type=FINITE, default=None, help="normalized code rate")
@click.option("--d", "d_max", type=FINITE, default=1.0, help="asynchrony window D")
@click.option("--mode", type=click.Choice([an.TIN, an.DI]), default=an.TIN)
@click.option("--pi1", default=None, help="input distribution for user 1 (p or comma list)")
@click.option("--pi2", default=None, help="input distribution for user 2")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def analyze(channel_path, lam, r_value, d_max, mode, pi1, pi2, as_json):
    """Report information constants, thresholds and the outage bound."""
    an._check_scheme(lam=lam, d_max=d_max)
    ch = _load(channel_path)
    info = _resolve_info(ch, pi1, pi2)
    lbar, _ = chan.lambda_bar(ch)
    if lam > lbar:
        _fail(EXIT_CONVERSE, f"lambda exceeds converse threshold {lbar:.4f}")
    l_tin, l_di = an.lambda_thresholds(info)
    report = {
        "info": {
            "c_star": list(info.c_star),
            "c": list(info.c),
            "c_cross": list(info.c_cross),
            "c_tilde_star": list(info.c_tilde_star),
            "c_tilde": list(info.c_tilde),
        },
        "lambda_tin": l_tin,
        "lambda_di": l_di,
        "lambda_bar": lbar,
        "mode": mode,
    }
    if r_value is not None:
        rhos = {}
        for user in (1, 2):
            value, cap = an.rho(info, user, r_value, lam, mode)
            rhos[f"user{user}"] = {"rho": value, "r_cap": cap}
        report["rho"] = rhos
    eps = an.epsilon_bound(info, lam, d_max, mode)
    if isinstance(ch, chan.GaussianIC) and eps.kind == "value":
        report["case_label"] = eps.case_label
    report["epsilon"] = {
        "kind": eps.kind,
        "value": eps.epsilon if eps.kind != "not-applicable" else None,
        "r0": eps.r0,
        "kappa": eps.kappa,
        "user": eps.user,
    }
    if as_json:
        click.echo(json.dumps(report))
        return
    c = report["info"]
    for user in (1, 2):
        j = user - 1
        click.echo(
            f"user {user}: C*={c['c_star'][j]:.4f} C={c['c'][j]:.4f} "
            f"C_cross={c['c_cross'][j]:.4f} C~*={c['c_tilde_star'][j]:.4f} "
            f"C~={c['c_tilde'][j]:.4f}"
        )
    click.echo(
        f"lambda_tin={l_tin:.4f} lambda_di={l_di:.4f} lambda_bar={lbar:.4f}"
    )
    if r_value is not None:
        for user in (1, 2):
            entry = report["rho"][f"user{user}"]
            cap = "" if entry["r_cap"] is None else f" (r < {entry['r_cap']:.4f})"
            click.echo(f"rho_{user}({r_value}) = {entry['rho']:.4f}{cap}")
    e = report["epsilon"]
    if e["kind"] == "zero":
        click.echo("epsilon = 0 (below decoder threshold)")
    elif e["kind"] == "value":
        label = report.get("case_label", "")
        extra = f" [{label}]" if label else ""
        click.echo(
            f"epsilon <= {e['value']:.4f} at r0={e['r0']:.4f}, kappa={e['kappa']:.4f}, "
            f"binding user {e['user']}{extra}"
        )
    else:
        click.echo("epsilon bound not applicable (no feasible rate)")


def _cells(x) -> np.ndarray:
    """The CSV cell of each number (float or int) in x, as its repr; nan gives
    a blank cell."""
    x = np.asarray(x)
    cells = ["" if v == "nan" else v for v in map(repr, x.ravel().tolist())]
    return np.array(cells, dtype=object).reshape(x.shape)


@main.command()
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option(
    "--variable",
    required=True,
    type=click.Choice(["alpha", "lambda", "n_packets", "r"]),
)
@click.option("--lo", type=FINITE, default=None)
@click.option("--hi", type=FINITE, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--values", default=None, help="explicit comma-separated grid")
@click.option("--lambda", "lam", type=FINITE, default=None)
@click.option("--r", "r_value", type=FINITE, default=None)
@click.option("--d", "d_max", type=FINITE, default=None)
@click.option("--n", "n_list", default=None, help="comma-separated packet counts")
@click.option("--mode", "modes", multiple=True, type=click.Choice([an.TIN, an.DI]))
@click.option("--pi1", default=None)
@click.option("--pi2", default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def sweep(channel_path, variable, lo, hi, steps, values, lam, r_value, d_max,
          n_list, modes, pi1, pi2, out_path):
    """Grid-evaluate the closed forms and write one CSV row per point."""
    ch = _load(channel_path)
    info = _resolve_info(ch, pi1, pi2)
    grid = None if values is None else _parse_list(values, FINITE, "--values")
    ns = _parse_list(n_list, int, "--n") if n_list else [None]
    # Options the sweep would not read, and a grid given twice or not at all, are refused.
    for unread, message in (
            (lam is not None and variable == "lambda", "--lambda is not read by a lambda sweep"),
            (d_max is not None and variable == "alpha", "--d is not read by an alpha sweep"),
            (r_value is not None and variable == "r", "--r is not read by an r sweep"),
            (n_list and variable == "n_packets", "--n is not read by an n_packets sweep"),
            (n_list and r_value is None and variable != "r", "--n is not read without --r"),
            (variable == "n_packets" and r_value is None,
             "an n_packets grid is not read without --r"),
            ((lo, hi, steps) != (None,) * 3 if grid is not None else None in (lo, hi, steps),
             "give either --values or --lo/--hi/--steps")):
        if unread:
            _fail(EXIT_CONFIG, message)
    if grid is None:
        if not (lo < hi and steps >= 2):
            _fail(EXIT_CONFIG, "need lo < hi and steps >= 2")
        grid = [float(v) for v in np.linspace(lo, hi, steps)]
    modes = list(modes) or [an.TIN]
    if (lam is None and variable != "lambda") or (d_max is None and variable != "alpha"):
        _fail(EXIT_CONFIG, "sweep needs --lambda (or a lambda grid) and --d (or an alpha grid)")
    counts = grid if variable == "n_packets" else [n for n in ns if n is not None]
    an._check_scheme(lam=grid if variable == "lambda" else lam, n_packets=counts,
                     **({"alpha": grid} if variable == "alpha" else {"d_max": d_max}))
    points = np.array(grid)
    at_lam = points if variable == "lambda" else lam
    # a D = alpha / lam that rounds to 0 is the smallest positive float, and one past the
    # float range is inf, as alpha_of takes an alpha past it
    with np.errstate(over="ignore"):
        at_d = np.maximum(points / lam, math.ulp(0.0)) if variable == "alpha" else d_max
    at_r = points if variable == "r" else r_value
    if variable == "n_packets":
        at_n = points.astype(int)
    else:
        at_n = None if ns == [None] else np.array(ns)[:, None]
    # Cells are laid out as sweep_table's columns are, (mode, user, N, value), each
    # column as str over the axes it varies on; the rows are sorted at the end, by
    # value, then N, mode name and user.  Case labels are shown for Gaussian channels.
    table, skipped = an.sweep_table(info, at_lam, at_r, at_n, at_d, modes)
    labels = table.pop("case_label")
    cols = dict.fromkeys(CSV_COLUMNS, np.array("", dtype=object))
    cols.update({c: _cells(x) for c, x in table.items()}, variable=np.array(variable, dtype=object),
                value=_cells(points), user=np.array(["1", "2"], dtype=object)[:, None, None],
                mode=np.array(modes, dtype=object)[:, None, None, None])
    if isinstance(ch, chan.GaussianIC):
        cols["case_label"] = labels
    shape = (len(modes), 2, len(ns) if np.ndim(at_n) == 2 else 1, len(grid))
    shown_n = None if at_r is None else at_n      # N is shown beside the per-user cells only
    if shown_n is not None:
        cols["N"] = _cells(shown_n)
    mode_rank = np.array([sorted(modes).index(mode) for mode in modes])[:, None, None, None]
    keys = (np.array([1, 2])[:, None, None], mode_rank, -1 if shown_n is None else shown_n, points)
    order = np.lexsort([np.broadcast_to(key, shape).ravel() for key in keys])
    columns = [np.broadcast_to(cols[c], shape).ravel()[order].tolist() for c in CSV_COLUMNS]
    _write_csv(out_path, CSV_COLUMNS, zip(*columns))
    reasons = [f"no epsilon at {variable}={grid[g]!r}, mode {mode}: {why}"
               for g, mode, why in skipped]
    if reasons:
        click.echo("\n".join(reasons), err=True)
    click.echo(f"wrote {order.size} rows to {out_path}")


@main.command()
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--lambda", "lam", required=True, type=FINITE)
@click.option("--r", "r_value", required=True, type=FINITE)
@click.option("--n-packets", required=True, type=int)
@click.option("--d", "d_max", required=True, type=FINITE)
@click.option("--decoder", type=click.Choice([an.TIN, an.DI]), default=an.TIN)
@click.option("--trials", type=int, default=10000)
@click.option("--seed", type=int, default=0)
@click.option("--mode", type=click.Choice(["fluid", "stochastic"]), default="fluid")
@click.option("--n", "n_bits", type=int, default=None, help="bits per source (stochastic)")
@click.option("--check", is_flag=True, help="compare against the closed form (4 sigma)")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--pi1", default=None)
@click.option("--pi2", default=None)
def simulate(channel_path, lam, r_value, n_packets, d_max, decoder, trials, seed,
             mode, n_bits, check, csv_path, pi1, pi2):
    """Run seeded Monte Carlo trials and emit the result as JSON."""
    ch = _load(channel_path)
    info = _resolve_info(ch, pi1, pi2)
    scheme = an.SchemeParams(
        lam=lam, r=r_value, n_packets=n_packets, d_max=d_max, decoder=decoder
    )
    config = sim.SimConfig(scheme=scheme, trials=trials, seed=seed, mode=mode, n=n_bits)
    result = sim.run_trials(config, info)
    click.echo(result.to_json())
    if csv_path:
        _write_csv(csv_path, ["user", "outage", "halfwidth", "rate"],
                   zip(("1", "2"), *([repr(float(x)) for x in column] for column in
                                     (result.outage, result.halfwidth, result.rates))))
    if check:
        report = sim.check_report(result, info, scheme)
        for record in report:
            if record.passed is False:
                _fail(EXIT_CHECK, f"user {record.user}: empirical outage "
                      f"{result.outage[record.user - 1]:.5f} deviates from closed form "
                      f"{record.closed_form:.5f} by more than 4 sigma")
        if all(record.skipped for record in report):
            _fail(EXIT_CONFIG, f"--check compared no user: {report[0].skipped}")
        click.echo("check passed", err=True)


if __name__ == "__main__":
    main()
