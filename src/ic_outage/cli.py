"""Command-line front end: closed-form analysis, parameter sweeps and
Monte Carlo validation runs."""

from __future__ import annotations

import csv
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
    try:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write {path}: {exc}")


def _load(channel_path: str):
    try:
        return chan.load_channel(channel_path)
    except (OSError, KeyError, ValueError) as exc:
        _fail(EXIT_CONFIG, f"cannot load channel config: {exc}")


def _resolve_info(ch, pi1: str | None, pi2: str | None) -> chan.InfoQuantities:
    if isinstance(ch, chan.GaussianIC):
        return chan.gaussian_info_quantities(ch)
    d1 = _parse_dist(pi1, ch.x1_size)
    d2 = _parse_dist(pi2, ch.x2_size)
    return chan.info_quantities(ch, d1, d2)


def _epsilon(ch, info, lam: float, d_max: float, mode: str) -> an.EpsilonResult:
    """The outage-level bound; on Gaussian channels with its case label."""
    eps = an.epsilon_bound(info, lam, d_max, mode)
    if isinstance(ch, chan.GaussianIC):
        return an.gaussian_case_label(eps, info, lam, mode)
    return eps


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
    ch = _load(channel_path)
    info = _resolve_info(ch, pi1, pi2)
    lbar, _ = chan.lambda_bar(ch)
    if lam > lbar:
        _fail(EXIT_CONVERSE, f"lambda exceeds converse threshold {lbar:.4f}")
    l_tin, l_di = chan.lambda_thresholds(info)
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
    eps = _epsilon(ch, info, lam, d_max, mode)
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


def _sweep_point(info, ch, row, lam, r_value, d_max, ns, mode):
    """The CSV rows of one (value, mode) grid point: for each N, one per user.

    epsilon runs once per point, rho/beta/chi, kappa and the limit once per
    user, and only the finite-N bound once per N.  A user's cells are
    computed at the first N, so the closed forms run in the order of a
    per-N evaluation and an input with two faults raises the same first error.
    """
    row = dict(row, mode=mode)
    try:
        eps = _epsilon(ch, info, lam, d_max, mode)
        if eps.kind != "not-applicable":
            row["epsilon"] = repr(float(eps.epsilon))
        if isinstance(ch, chan.GaussianIC):
            row["case_label"] = eps.case_label
    except an.AnalysisError:
        pass
    alpha = lam * d_max
    users = {}
    rows = []
    for n_packets in ns:
        for user in (1, 2):
            urow = dict(row, user=user)
            rows.append(urow)
            if r_value is None:
                continue
            if user not in users:
                rho_v, beta, chi1, chi2 = an.user_outage_inputs(info, user, r_value, lam, mode)
                cells = dict(rho=repr(float(rho_v)), beta=repr(float(beta)),
                             kappa=repr(float(an.kappa(alpha))), chi1=int(chi1), chi2=int(chi2))
                if beta >= 0:
                    cells["p_outage_limit"] = repr(
                        float(an.outage_ub_limit(alpha, beta, chi1, chi2))
                    )
                users[user] = cells, beta, chi1, chi2
            cells, beta, chi1, chi2 = users[user]
            urow.update(cells)
            if n_packets is not None:
                urow["N"] = n_packets
                if beta >= 0:
                    urow["p_outage_finiteN"] = repr(
                        float(an.outage_ub_finite_n(alpha, beta, n_packets, chi1, chi2).value)
                    )
    return rows


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
    if values is not None:
        grid = _parse_list(values, FINITE, "--values")
    else:
        if lo is None or hi is None or steps is None:
            _fail(EXIT_CONFIG, "give either --values or --lo/--hi/--steps")
        if not (lo < hi and steps >= 2):
            _fail(EXIT_CONFIG, "need lo < hi and steps >= 2")
        grid = [float(v) for v in np.linspace(lo, hi, steps)]
    modes = list(modes) or [an.TIN]
    ns = _parse_list(n_list, int, "--n") if n_list else [None]
    if variable == "alpha" and lam is None:
        _fail(EXIT_CONFIG, "alpha sweeps need a fixed --lambda")
    if (lam is None and variable != "lambda") or (d_max is None and variable != "alpha"):
        _fail(EXIT_CONFIG, "sweep needs --lambda and --d (or alpha variable)")
    rows = []
    for value in grid:
        at_lam, at_r, at_d, at_ns = lam, r_value, d_max, ns
        if variable == "alpha":
            at_d = value / lam
        elif variable == "lambda":
            at_lam = value
        elif variable == "r":
            at_r = value
        else:
            at_ns = [int(value)]
        row = {c: "" for c in CSV_COLUMNS}
        row.update(variable=variable, value=repr(value))
        for mode in modes:
            rows.extend(_sweep_point(info, ch, row, at_lam, at_r, at_d, at_ns, mode))
    rows.sort(
        key=lambda r: (
            r["variable"],
            float(r["value"]),
            -1 if r["N"] == "" else int(r["N"]),
            r["mode"],
            r["user"],
        )
    )
    _write_csv(out_path, CSV_COLUMNS, ([r[c] for c in CSV_COLUMNS] for r in rows))
    click.echo(f"wrote {len(rows)} rows to {out_path}")


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
                   zip((1, 2), result.outage, result.halfwidth, result.rates))
    if check:
        inputs = an.outage_inputs(info, scheme)
        for user in (1, 2):
            j = user - 1
            if inputs.rho[j] < 0 or not inputs.chi1[j]:
                continue
            p = an.outage_ub_finite_n(
                inputs.alpha, inputs.beta[j], n_packets, inputs.chi1[j], inputs.chi2[j]
            ).value
            sigma = np.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            if abs(result.outage[j] - p) > 4.0 * sigma:
                _fail(
                    EXIT_CHECK,
                    f"user {user}: empirical outage {result.outage[j]:.5f} deviates "
                    f"from closed form {p:.5f} by more than 4 sigma",
                )
        click.echo("check passed", err=True)


if __name__ == "__main__":
    main()
