"""The scheme's input rules: one check owns them, every public analysis entry
answers or refuses on any input, and no command ends in a traceback.

Each callable of ``analysis.__all__`` has a row in ``ENTRIES``: a strategy for
its arguments, drawn from extremes (nan, +-inf, 0, negatives, subnormals,
1e308, non-integer and huge N) as well as ordinary values, and a check of its
answer.  A call either refuses with ``AnalysisError`` or answers with no nan,
every probability in [0, 1], and no numpy warning.  A callable with no row
fails, as tests/test_exports.py fails an unlisted name.
"""

import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ic_outage as ic
from ic_outage import analysis as an
from ic_outage import simulator as sim
from ic_outage.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_UNIFORM = ic.InputDistribution(np.full(2, 0.5))
INFOS = {
    "gaussian": ic.gaussian_info_quantities(ic.load_channel(str(CONFIGS / "gaussian.json"))),
    "discrete": ic.info_quantities(ic.load_channel(str(CONFIGS / "discrete.json")),
                                   _UNIFORM, _UNIFORM),
}

EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310, 1e308, -1e308]
REAL = st.one_of(st.sampled_from(EXTREMES), st.floats(0.01, 5.0), st.floats())
# The first real argument of a broadcasting entry is sometimes an array.
REAL_OR_ARRAY = st.one_of(REAL, st.lists(REAL, min_size=1, max_size=4).map(np.array))
PACKETS = st.one_of(
    st.sampled_from([math.nan, math.inf, 0, -3, 2.5, 4.0, 2**53, 2**53 + 1, 10**20, 10**22]),
    st.integers(1, 2**53), st.integers(-5, 64), st.floats())
INFO = st.sampled_from(sorted(INFOS)).map(INFOS.get)
USER = st.sampled_from([1, 2])
MODE = st.sampled_from([an.TIN, an.DI])
BOOL = st.booleans()


def _floats(*values) -> np.ndarray:
    return np.concatenate([np.asarray(v, dtype=float).ravel() for v in values])


def _probability(*values):
    x = _floats(*values)
    assert ((x >= 0.0) & (x <= 1.0)).all(), x


def _no_nan(*values):
    assert not np.isnan(_floats(*values)).any(), values


def _check_scheme_params(s):
    assert 0.0 < s.lam <= 1.0 and 0.0 < s.r < math.inf and 0.0 < s.d_max < math.inf
    assert 1 <= s.n_packets <= an.MAX_PACKETS


def _check_inputs(inputs):
    # rho and beta past the float range are +-inf, the limits of their ratios.
    _no_nan(inputs.rho, inputs.beta)


def _check_epsilon(res):
    kind = np.asarray(res.kind)
    assert set(kind.ravel()) <= {"zero", "value", "not-applicable"}
    valued = kind == "value"
    if valued.any():
        value, k = (np.broadcast_to(np.asarray(v, dtype=float), kind.shape)[valued]
                    for v in (res.value, res.kappa))
        _probability(value)
        assert ((k >= 0.0) & (k <= 2.0)).all()
        assert (np.broadcast_to(np.asarray(res.r0, dtype=float), kind.shape)[valued] > 1.0).all()


def _check_closed_form(res):
    _check_inputs(res.inputs)
    _probability(res.limit, *([] if res.finite_n is None else [res.finite_n]))


def _check_rate(rate):
    _no_nan(rate)
    assert rate >= 0.0


def _outage_inputs(info, lam, r, n, d, mode):
    return an.outage_inputs(info, an.SchemeParams(lam, r, n, d, mode))


# name -> (argument strategy, call, check of the answer)
ENTRIES = {
    "SchemeParams": (st.tuples(REAL, REAL, PACKETS, REAL, MODE),
                     lambda *a: an.SchemeParams(*a), _check_scheme_params),
    "rho": (st.tuples(INFO, USER, REAL, REAL_OR_ARRAY, MODE), an.rho,
            lambda res: _no_nan(res.value, *([] if res.r_cap is None else [res.r_cap]))),
    "kappa": (st.tuples(REAL_OR_ARRAY), an.kappa,
              lambda k: _probability(np.asarray(k) / 2.0)),
    "outage_ub_finite_n": (st.tuples(REAL_OR_ARRAY, REAL, PACKETS, BOOL, BOOL),
                           an.outage_ub_finite_n, _probability),
    "outage_ub_limit": (st.tuples(REAL_OR_ARRAY, REAL, BOOL, BOOL), an.outage_ub_limit,
                        _probability),
    "user_outage_inputs": (st.tuples(INFO, USER, REAL, REAL_OR_ARRAY, MODE),
                           an.user_outage_inputs, _check_inputs),
    "outage_inputs": (st.tuples(INFO, REAL, REAL, PACKETS, REAL, MODE), _outage_inputs,
                      lambda res: _no_nan(res.rho, res.beta)),
    "epsilon_bound": (st.tuples(INFO, REAL_OR_ARRAY, REAL, MODE), an.epsilon_bound,
                      _check_epsilon),
    "lambda_thresholds": (st.tuples(INFO), an.lambda_thresholds,
                          lambda res: _probability(np.array(res) / max(res))),
    "closed_form_outage": (st.tuples(INFO, USER, REAL_OR_ARRAY, REAL,
                                     st.one_of(st.none(), PACKETS), REAL, MODE),
                           an.closed_form_outage, _check_closed_form),
    "avg_rate": (st.tuples(PACKETS, REAL, REAL), an.avg_rate, _check_rate),
}


def _entries() -> list[str]:
    return sorted(name for name in an.__all__
                  if callable(getattr(an, name)) and getattr(an, name) is not an.AnalysisError)


def test_every_public_entry_has_a_row():
    assert _entries() == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_entry_answers_or_refuses(name, data):
    strategy, call, check = ENTRIES[name]
    args = data.draw(strategy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = call(*args)
        except ic.AnalysisError:
            return
    check(res)


# ---------------------------------------------------------------------------
# the check itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    ({"lam": math.nan}, "arrival rate must be positive, got nan"),
    ({"lam": np.array([0.5, 0.0, -1.0])}, "arrival rate must be positive, got 0.0"),
    ({"r": math.inf}, "normalized code rate must be finite, got inf"),
    ({"r": np.float64(-2.5)}, "normalized code rate must be positive, got -2.5"),
    ({"d_max": [1.0, math.nan]}, "asynchrony window must be positive, got nan"),
    ({"alpha": -0.0}, "alpha must be positive, got -0.0"),
    ({"n_packets": np.array([4.0, 4.7])}, "number of packets must be an integer, got 4.7"),
    ({"n_packets": math.nan}, "number of packets must be an integer, got nan"),
    ({"n_packets": [3, 0, -1]}, "number of packets must be at least 1, got 0"),
    ({"n_packets": math.inf}, "number of packets must be at most 2**53, got inf"),
    ({"n_packets": [4, 10**22]},
     "number of packets must be at most 2**53, got 10000000000000000000000"),
    # the quantities are checked in the order lam, r, D, alpha, N
    ({"lam": -1.0, "r": math.nan, "n_packets": 0}, "arrival rate must be positive, got -1.0"),
    ({"d_max": 0.0, "n_packets": 2.5}, "asynchrony window must be positive, got 0.0"),
])
def test_check_scheme_names_the_quantity_and_its_first_offending_value(kwargs, message):
    with pytest.raises(ic.AnalysisError) as err:
        an._check_scheme(**kwargs)
    assert str(err.value) == message


def test_check_scheme_takes_what_every_closed_form_takes():
    an._check_scheme(lam=math.inf, r=1e-300, d_max=math.inf, alpha=5e-324,
                     n_packets=np.array([1, 4.0, 2**53]))
    an._check_scheme()


def test_new_refusals_of_the_public_entries():
    # Each of these answered nan (or a number for an input without one) before
    # the entries shared one check.
    info = INFOS["gaussian"]
    calls = [
        (lambda: an.kappa(math.nan), "alpha must be positive, got nan"),
        (lambda: an.rho(info, 1, math.nan, 1.0, an.TIN), "normalized code rate must be finite"),
        (lambda: an.rho(info, 1, 1.5, -1.0, an.TIN), "arrival rate must be positive"),
        (lambda: an.epsilon_bound(info, 1.0, math.nan, an.TIN),
         "asynchrony window must be positive, got nan"),
        (lambda: an.epsilon_bound(info, math.nan, 1.0, an.TIN),
         "arrival rate must be positive, got nan"),
        (lambda: an.epsilon_bound(info, -1.0, 1.0, an.TIN),
         "arrival rate must be positive, got -1.0"),
        (lambda: an.user_outage_inputs(info, 1, 1.5, 0.0, an.TIN),
         "arrival rate must be positive, got 0.0"),
        (lambda: an.closed_form_outage(info, 1, -0.5, 1.5, 4, 1.0, an.TIN),
         "arrival rate must be positive, got -0.5"),
        (lambda: an.avg_rate(4, math.nan, 1.0), "normalized code rate must be finite, got nan"),
        (lambda: an.avg_rate(2.5, 1.5, 1.0), "number of packets must be an integer, got 2.5"),
        (lambda: an.outage_ub_finite_n(math.inf, math.inf, 4, False, True),
         "no limit at alpha = beta = inf"),
    ]
    for call, message in calls:
        with pytest.raises(ic.AnalysisError, match=message.replace("*", "[*]")):
            call()


def test_epsilon_bound_keeps_unvalued_points_off_rho():
    # Points without a value read rho at a placeholder rate, so a grid that
    # mixes them with valued points answers as its scalar calls do.
    info = INFOS["gaussian"]
    lam = np.array([0.1, 1.0, 4.0])
    grid = an.epsilon_bound(info, lam, 5.0, an.TIN)
    assert list(grid.kind) == ["zero", "value", "not-applicable"]
    assert grid.value[1] == an.epsilon_bound(info, 1.0, 5.0, an.TIN).value
    assert np.isnan(grid.r0[[0, 2]]).all()


def test_infinite_window_keeps_its_limit():
    info = INFOS["gaussian"]
    assert an.kappa(math.inf) == 0.0
    res = an.epsilon_bound(info, 1.0, math.inf, an.TIN)
    assert (res.kind, res.value, res.kappa) == ("value", 0.0, 0.0)


def test_avg_rate_keeps_lambda_where_n_r_overflows():
    assert an.avg_rate(2**53, 1e300, 0.5) == 0.5
    assert an.avg_rate(4, 1.5, 1.0) == 4 * 1.5 / (4 * 1.5 + 1.0) * 1.0


# ---------------------------------------------------------------------------
# the simulation ceiling on N
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, n", [("fluid", None), ("stochastic", 2**53)])
def test_sim_config_refuses_n_above_the_ceiling(mode, n):
    # SimConfig allocates nothing, so building one above the ceiling is safe.
    at = ic.SchemeParams(lam=1.0, r=1.5, n_packets=sim.MAX_SIM_PACKETS, d_max=1.0)
    assert ic.SimConfig(scheme=at, trials=1, seed=0, mode=mode, n=n).scheme is at
    for n_packets in (sim.MAX_SIM_PACKETS + 1, 2**53):
        above = ic.SchemeParams(lam=1.0, r=1.5, n_packets=n_packets, d_max=1.0)
        with pytest.raises(ic.AnalysisError,
                           match=f"simulation takes at most 4000000 packets, got {n_packets}"):
            ic.SimConfig(scheme=above, trials=10, seed=0, mode=mode, n=n)


@pytest.mark.parametrize("n_packets", [sim.MAX_SIM_PACKETS + 1, 2**53])
def test_fluid_simulate_refuses_n_above_the_ceiling(n_packets):
    result = CliRunner().invoke(main, [
        "simulate", "--channel", str(CONFIGS / "gaussian.json"), "--lambda", "1", "--r", "1.5",
        "--n-packets", str(n_packets), "--d", "1", "--trials", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)     # no traceback
    assert result.stderr == (f"error: simulation takes at most 4000000 packets, "
                             f"got {n_packets}\n")


def test_simulate_refuses_a_code_rate_that_underflows():
    # N r lambda = 0 would make the codeword length 1/(N r lambda) a division by zero.
    result = CliRunner().invoke(main, [
        "simulate", "--channel", str(CONFIGS / "gaussian.json"), "--lambda", "5e-324",
        "--r", "5e-324", "--n-packets", "1", "--d", "1", "--trials", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == ("error: codeword length 1/(N r lambda) is infinite: "
                             "N r lambda is 0\n")


def test_alpha_sweep_takes_a_window_past_the_float_range_without_a_warning(tmp_path):
    # D = alpha/lam = 1e608 is inf, the closed forms' D -> inf limit, as alpha_of reads
    # an alpha past the float range.
    result = CliRunner().invoke(main, [
        "sweep", "--channel", str(CONFIGS / "gaussian.json"), "--variable", "alpha",
        "--lambda", "1e-300", "--values", "1e308", "--r", "1.5", "--n", "4",
        "--out", str(tmp_path / "a.csv")])
    assert (result.exit_code, result.stderr) == (0, "")


# ---------------------------------------------------------------------------
# random command lines
# ---------------------------------------------------------------------------

NUMBER = st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "-1", "5e-324", "1e-300",
                          "1e308", "0.01", "0.3", "0.6", "1", "1.5", "2", "4.7", "5", "abc",
                          ""])
PACKET_COUNTS = st.sampled_from(["0", "-1", "1", "4", "64", "4.7", "1e3", "9007199254740992",
                                 "9007199254740993", "10000000000000000000000", "x"])
CHANNEL = st.sampled_from(["gaussian.json", "discrete.json", "missing.json"])


@st.composite
def _options(draw, table, required):
    """Each option of the table, always if it is required and else at a coin
    toss, with a drawn value (None for a flag)."""
    argv = []
    for option, values in table:
        if option in required or draw(st.booleans()):
            value = draw(values)
            argv += [option] if value is None else [option, value]
    return argv


def _number_list(values):
    return st.lists(values, min_size=1, max_size=4).map(",".join)


ANALYZE = [("--lambda", NUMBER), ("--r", NUMBER), ("--d", NUMBER),
           ("--mode", st.sampled_from(["tin", "di", "xx"])),
           ("--pi1", st.sampled_from(["0.3", "0.2,0.8", "nan", "1.5"]))]
SWEEP = [("--variable", st.sampled_from(["alpha", "lambda", "n_packets", "r", "beta"])),
         ("--values", _number_list(NUMBER | PACKET_COUNTS)),
         ("--lo", NUMBER), ("--hi", NUMBER),
         ("--steps", st.sampled_from(["-1", "0", "1", "2", "7", "x"])),
         ("--lambda", NUMBER), ("--r", NUMBER), ("--d", NUMBER),
         ("--n", _number_list(PACKET_COUNTS)),
         ("--mode", st.sampled_from(["tin", "di"]))]
# Runs stay small: at most 200 trials, N <= 64 and n <= 10**4.
SIMULATE = [("--lambda", NUMBER), ("--r", NUMBER), ("--d", NUMBER),
            ("--n-packets", st.sampled_from(["0", "-1", "1", "4", "64", "4.7", "x"])),
            ("--decoder", st.sampled_from(["tin", "di"])),
            ("--trials", st.sampled_from(["0", "-3", "1", "57", "200", "x"])),
            ("--seed", st.sampled_from(["0", "-1", "7", str(2**128)])),
            ("--mode", st.sampled_from(["fluid", "stochastic"])),
            ("--n", st.sampled_from(["0", "1", "64", "1000", "10000", "x"])),
            ("--check", st.just(None))]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    for name in ("gaussian.json", "discrete.json"):
        shutil.copy(CONFIGS / name, path / name)
    return path


COMMANDS = {"analyze": (ANALYZE, {"--lambda"}),
            "sweep": (SWEEP, {"--variable"}),
            "simulate": (SIMULATE, {"--lambda", "--r", "--d", "--n-packets"})}


@st.composite
def _argv(draw, workdir):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, "--channel", str(workdir / draw(CHANNEL)),
            *draw(_options(*COMMANDS[command]))]
    if command == "sweep":
        argv += ["--out", str(workdir / "out.csv")]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_commands_exit_with_a_documented_code_and_no_traceback(workdir, data):
    argv = data.draw(_argv(workdir))
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 2, 3, 4), (argv, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.stderr, argv
