"""Command-line front end: closed-form analysis, parameter sweeps and
Monte Carlo validation runs."""

from __future__ import annotations

import csv
import json
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


def _parse_list(text: str, convert, what: str) -> list:
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
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


@click.group()
def main():
    """Outage bounds for interference channels with gradual data arrival."""


@main.command()
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--lambda", "lam", required=True, type=float, help="arrival rate (bits/slot)")
@click.option("--r", "r_value", type=float, default=None, help="normalized code rate")
@click.option("--d", "d_max", type=float, default=1.0, help="asynchrony window D")
@click.option("--mode", type=click.Choice([an.TIN, an.DI]), default=an.TIN)
@click.option("--pi1", default=None, help="input distribution for user 1 (p or comma list)")
@click.option("--pi2", default=None, help="input distribution for user 2")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def analyze(channel_path, lam, r_value, d_max, mode, pi1, pi2, as_json):
    """Report information constants, thresholds and the outage bound."""
    ch = _load(channel_path)
    try:
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
    except (chan.ChannelValidationError, an.AnalysisError) as exc:
        _fail(EXIT_CONFIG, str(exc))
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


def _sweep_row(info, ch, variable, value, lam, r_value, d_max, n_packets, mode):
    row = {c: "" for c in CSV_COLUMNS}
    row.update(variable=variable, value=repr(value), mode=mode)
    rows = []
    eps_value = ""
    case_label = ""
    try:
        eps = _epsilon(ch, info, lam, d_max, mode)
        if eps.kind == "zero":
            eps_value = 0.0
        elif eps.kind == "value":
            eps_value = repr(float(eps.value))
        case_label = eps.case_label if isinstance(ch, chan.GaussianIC) else ""
    except an.AnalysisError:
        pass
    for user in (1, 2):
        urow = dict(row, user=user, epsilon=eps_value, case_label=case_label)
        if r_value is not None:
            rho_v, beta, chi1, chi2 = an.user_outage_inputs(info, user, r_value, lam, mode)
            urow.update(
                rho=repr(float(rho_v)),
                beta=repr(float(beta)),
                kappa=repr(float(an.kappa(lam * d_max))),
                chi1=int(chi1),
                chi2=int(chi2),
            )
            if beta >= 0:
                urow["p_outage_limit"] = repr(
                    float(an.outage_ub_limit(lam * d_max, beta, chi1, chi2))
                )
                if n_packets is not None:
                    urow["N"] = n_packets
                    urow["p_outage_finiteN"] = repr(
                        float(
                            an.outage_ub_finite_n(
                                lam * d_max, beta, n_packets, chi1, chi2
                            ).value
                        )
                    )
            elif n_packets is not None:
                urow["N"] = n_packets
        rows.append(urow)
    return rows


@main.command()
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option(
    "--variable",
    required=True,
    type=click.Choice(["alpha", "lambda", "n_packets", "r"]),
)
@click.option("--lo", type=float, default=None)
@click.option("--hi", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--values", default=None, help="explicit comma-separated grid")
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--r", "r_value", type=float, default=None)
@click.option("--d", "d_max", type=float, default=None)
@click.option("--n", "n_list", default=None, help="comma-separated packet counts")
@click.option("--mode", "modes", multiple=True, type=click.Choice([an.TIN, an.DI]))
@click.option("--pi1", default=None)
@click.option("--pi2", default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def sweep(channel_path, variable, lo, hi, steps, values, lam, r_value, d_max,
          n_list, modes, pi1, pi2, out_path):
    """Grid-evaluate the closed forms and write one CSV row per point."""
    ch = _load(channel_path)
    try:
        info = _resolve_info(ch, pi1, pi2)
    except (chan.ChannelValidationError, an.AnalysisError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    if values is not None:
        grid = _parse_list(values, float, "--values")
    else:
        if lo is None or hi is None or steps is None:
            _fail(EXIT_CONFIG, "give either --values or --lo/--hi/--steps")
        if not (lo < hi and steps >= 2):
            _fail(EXIT_CONFIG, "need lo < hi and steps >= 2")
        grid = [float(v) for v in np.linspace(lo, hi, steps)]
    modes = list(modes) or [an.TIN]
    ns = _parse_list(n_list, int, "--n") if n_list else [None]
    rows = []
    try:
        for value in grid:
            point = {
                "lambda": lam,
                "r": r_value,
                "d": d_max,
                "n": None,
            }
            if variable == "alpha":
                if lam is None:
                    _fail(EXIT_CONFIG, "alpha sweeps need a fixed --lambda")
                point["d"] = value / lam
            elif variable == "lambda":
                point["lambda"] = value
            elif variable == "r":
                point["r"] = value
            else:
                point["n"] = int(value)
            if point["lambda"] is None or point["d"] is None:
                _fail(EXIT_CONFIG, "sweep needs --lambda and --d (or alpha variable)")
            for mode in modes:
                for n_packets in ns if point["n"] is None else [point["n"]]:
                    rows.extend(
                        _sweep_row(
                            info, ch, variable, value, point["lambda"],
                            point["r"], point["d"], n_packets, mode,
                        )
                    )
    except an.AnalysisError as exc:
        _fail(EXIT_CONFIG, str(exc))
    rows.sort(
        key=lambda r: (
            r["variable"],
            float(r["value"]),
            -1 if r["N"] == "" else int(r["N"]),
            r["mode"],
            r["user"],
        )
    )
    try:
        with open(out_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write {out_path}: {exc}")
    click.echo(f"wrote {len(rows)} rows to {out_path}")


@main.command()
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--lambda", "lam", required=True, type=float)
@click.option("--r", "r_value", required=True, type=float)
@click.option("--n-packets", required=True, type=int)
@click.option("--d", "d_max", required=True, type=float)
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
    try:
        info = _resolve_info(ch, pi1, pi2)
        scheme = an.SchemeParams(
            lam=lam, r=r_value, n_packets=n_packets, d_max=d_max, decoder=decoder
        )
        config = sim.SimConfig(
            scheme=scheme, trials=trials, seed=seed, mode=mode, n=n_bits
        )
        result = sim.run_trials(config, info)
    except (chan.ChannelValidationError, an.AnalysisError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    click.echo(result.to_json())
    if csv_path:
        try:
            with open(csv_path, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["user", "outage", "halfwidth", "rate"])
                for user in (1, 2):
                    writer.writerow(
                        [user, result.outage[user - 1], result.halfwidth[user - 1],
                         result.rates[user - 1]]
                    )
        except OSError as exc:
            _fail(EXIT_CONFIG, f"cannot write {csv_path}: {exc}")
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
