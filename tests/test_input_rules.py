"""The scheme's input rules: one check owns them, every public channel,
analysis and simulator entry answers or refuses on any input, and no command
ends in a traceback.

Each callable of ``channel.__all__``, ``analysis.__all__`` and
``simulator.__all__`` (but the exception classes and the plain record
``SimResult``) has a row in ``ENTRIES``: a strategy for its arguments, drawn
from extremes (nan, +-inf, 0, negatives, subnormals, 1e308, non-integer, bool
and huge counts, users other than 1 and 2, decoders other than tin, di or a
pair of them, and channel constants that are not pairs of finite numbers >= 0)
as well as ordinary values, and a check of its answer.  A call either refuses
with ``AnalysisError`` or ``ChannelValidationError`` or answers with no nan,
every probability in [0, 1], and no numpy warning; a draw marked ``_Out``
lies outside the callable's domain and must be refused.  A callable with no
row fails, as tests/test_exports.py fails an unlisted name.  Simulation rows
stay small: N <= 64, at most 200 trials and n <= 10**4 wherever a run would
be made; ``lambda_bar`` rows take alphabets of at most 3.  ``load_channel``
rows draw configs with a needed key missing or a key outside the table, and
its, ``DiscreteIC``'s and ``InputDistribution``'s rows draw kernels and
probabilities with str, bool, None or ragged entries: each is refused with
``ChannelValidationError``.
"""

import json
import math
import shutil
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ic_outage as ic
from ic_outage import analysis as an
from ic_outage import channel as chan
from ic_outage import cli
from ic_outage import simulator as sim
from ic_outage.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_UNIFORM = ic.InputDistribution(np.full(2, 0.5))
INFOS = {
    "gaussian": ic.gaussian_info_quantities(ic.load_channel(str(CONFIGS / "gaussian.json"))),
    "discrete": ic.info_quantities(ic.load_channel(str(CONFIGS / "discrete.json")),
                                   _UNIFORM, _UNIFORM),
}


class _Out(NamedTuple):
    """A drawn argument outside the callable's domain: the call must refuse it."""

    value: object


def _resolve(x, outside: list):
    """x with each _Out unwrapped, its value appended to ``outside``, and each
    partial called, through tuples and lists: a partial builds an argument
    when the call is made, so that its refusal counts as the call's."""
    if isinstance(x, _Out):
        outside.append(x.value)
        x = x.value
    if isinstance(x, partial):
        return x()
    if isinstance(x, (tuple, list)):
        return type(x)(_resolve(v, outside) for v in x)
    return x


# An ordinary value about three draws in four, else an extreme.
def _mostly(ordinary, extreme):
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda usual: ordinary if usual else extreme)


EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310, 1e308, -1e308]
REAL = st.one_of(st.sampled_from(EXTREMES), st.floats(0.01, 5.0), st.floats())
# The first real argument of a broadcasting entry is sometimes an array.
REAL_OR_ARRAY = st.one_of(REAL, st.lists(REAL, min_size=1, max_size=4).map(np.array))
PACKETS = st.one_of(
    st.sampled_from([math.nan, math.inf, 0, -3, 2.5, 4.0, 2**53, 2**53 + 1, 10**20, 10**22]),
    st.integers(1, 2**53), st.integers(-5, 64), st.floats())
# Channel constants that InfoQuantities refuses: an entry that is not a finite
# number >= 0, or a field that is not a pair.
BAD_CONSTANT = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, "1", True])
BAD_PAIR = st.one_of(st.tuples(BAD_CONSTANT, st.floats(0.0, 5.0)),
                     st.tuples(st.floats(0.0, 5.0), BAD_CONSTANT),
                     st.sampled_from([(1.0,), (1.0, 1.0, 1.0), "ab", 1.0, np.array([1.0, 1.0])]))
BAD_INFO = st.tuples(st.sampled_from([f.name for f in fields(ic.InfoQuantities)]), BAD_PAIR).map(
    lambda bad: _Out(partial(ic.InfoQuantities, **{**vars(INFOS["gaussian"]), bad[0]: bad[1]})))
INFO = _mostly(st.sampled_from(sorted(INFOS)).map(INFOS.get), BAD_INFO)
USER = _mostly(st.sampled_from([1, 2]), st.sampled_from([0, -1, 3, True, 1.0]).map(_Out))
MODE = _mostly(st.sampled_from([an.TIN, an.DI]),
               st.sampled_from([(an.TIN,), (an.TIN, an.DI, an.TIN), "x"]).map(_Out))
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


def _sweep_table(info, lam, r, n_packets, d_max, modes):
    return modes, an.sweep_table(info, lam, r, n_packets, d_max, modes)


def _check_sweep_table(res):
    modes, (columns, skipped) = res
    assert set(columns) <= set(cli.CSV_COLUMNS) and {"epsilon", "case_label"} <= set(columns)
    eps = columns["epsilon"]
    assert eps.shape[:3] == (len(modes), 1, 1)
    _probability(eps[~np.isnan(eps)])
    for point, mode, reason in skipped:
        assert reason and np.isnan(eps[modes.index(mode), 0, 0, point])
    if "rho" in columns:
        _probability(np.asarray(columns["kappa"]) / 2.0)
        _no_nan(columns["rho"], columns["beta"])
        assert set(np.unique(columns["chi1"])) | set(np.unique(columns["chi2"])) <= {0, 1}
        for c in ("p_outage_limit", "p_outage_finiteN"):
            if c in columns:
                blank = np.broadcast_to(columns["rho"] < 0, columns[c].shape)
                assert (np.isnan(columns[c]) == blank).all()
                _probability(columns[c][~blank])


def _check_decoded(ok):
    assert np.asarray(ok).dtype == bool


# Simulation arguments: mostly ordinary, so that many runs are made.  Counts
# that pass their rules are small; the huge ones are refused before anything
# is allocated.
SIM_PACKETS = _mostly(st.integers(1, 64),
                      st.sampled_from([0, -3, 2.5, 4.0, True, 2**53, 10**22]))
TRIALS = _mostly(st.integers(1, 200), st.sampled_from([0, -1, 2.5, math.nan, True]))
SEED = _mostly(st.integers(0, 2**64), st.sampled_from([-1, 1.5, True, 2**128, 2**128 - 1]))
BITS = _mostly(st.integers(64, 10**4),
               st.sampled_from([None, 0, -5, 2.5, 100.5, math.nan, True, 2**53, 10**400]))
# mode and n: no n in fluid mode, as a rule
MODE_BITS = _mostly(st.one_of(st.just(("fluid", None)), st.tuples(st.just("stochastic"), BITS)),
                    st.tuples(st.sampled_from(["fluid", "stochastic", "exact"]), BITS))
LAM, RATE, WINDOW = (_mostly(st.floats(lo, hi), REAL) for lo, hi in ((0.01, 1.0), (0.2, 5.0),
                                                                      (0.01, 10.0)))
SCHEME_ARGS = st.tuples(LAM, RATE, SIM_PACKETS, WINDOW, MODE)
CONFIG_ARGS = st.tuples(SCHEME_ARGS, TRIALS, SEED, MODE_BITS).map(lambda a: (*a[:3], *a[3]))
RNG = st.integers(0, 2**32).map(np.random.default_rng)


def _config(scheme_args, trials, seed, mode, n):
    return sim.SimConfig(an.SchemeParams(*scheme_args), trials, seed, mode, n)


def _run(info, config_args):
    config = _config(*config_args)
    return config, sim.run_trials(config, info)


def _check_result(res):
    config, result = res
    _probability(result.outage, np.array(result.per_codeword_failures) / config.trials)
    _no_nan(result.halfwidth, result.rates)
    assert np.shape(result.per_codeword_failures) == (2, config.scheme.n_packets)
    assert min(result.halfwidth) >= 0.0 and min(result.rates) >= 0.0


def _check_report(info, config_args):
    config, result = _run(info, config_args)
    return result, sim.check_report(result, info, config.scheme)


def _check_check_report(res):
    result, report = res
    assert [record.user for record in report] == [1, 2]
    for record in report:
        if record.skipped:
            assert result.mode == "stochastic" and record[1:3] == (None, None)
        else:
            _probability(record.closed_form)
            assert isinstance(record.passed, bool)


def _check_tau(tau):
    _no_nan(tau)
    assert (np.diff(tau) >= 0).all() and tau[0] >= 1.0


# Schedules: gaps of at least one codeword length, or sorted extremes.
STARTS = st.integers(1, 8).flatmap(lambda k: st.tuples(*[_mostly(
    st.lists(st.floats(1.0, 4.0), min_size=k, max_size=k).map(np.cumsum),
    st.lists(REAL, min_size=k, max_size=k).map(sorted).map(np.array))] * 2))


def _check_overlap(res):
    _no_nan(*res)
    assert all(((mu >= 0.0) & (mu <= 2.0)).all() for mu in res)


def _fluid_flags(offsets, scheme_args, info):
    # offsets are drawn as fractions of D, and some extremes as they are
    scheme = an.SchemeParams(*scheme_args)
    return sim.fluid_outage_flags(*(d * scheme.d_max if usual else d for usual, d in offsets),
                                  scheme, info)


def _check_flags(res):
    out1, out2, fails = res
    assert out1.dtype == out2.dtype == bool and fails.shape[0] == 2
    assert (fails >= 0).all() and (fails <= len(out1)).all()


OFFSETS = st.integers(1, 8).flatmap(lambda k: st.tuples(*[_mostly(
    st.tuples(st.just(True), st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)),
    st.tuples(st.just(False), st.lists(REAL, min_size=k, max_size=k)))
    .map(lambda x: (x[0], np.array(x[1])))] * 2))
MODES = st.lists(MODE, max_size=2, unique=True)


def _check_info(info):
    for f in fields(info):
        pair = getattr(info, f.name)
        assert len(pair) == 2 and all(not isinstance(x, bool) and 0.0 <= x < math.inf
                                      for x in pair), (f.name, pair)


# channels: alphabets of at most 3, mostly with kernels of their shape whose
# rows sum to 1
SIZE = _mostly(st.integers(1, 3), st.sampled_from([0, -1, 2.5, True, 10**9]))
IDLE = _mostly(st.integers(0, 2), st.sampled_from([-1, 3, 1.5, True, math.nan]))


# Kernels and probability vectors that are not rectangular arrays of real numbers.
BAD_MATRIX = st.sampled_from([[["a"]], [[True]], [[True, False]], None, [[None]], [[0.5, "0.5"]],
                              [[1.0], [0.5, 0.5]], [[0.5, 0.5], [1.0]], "ab"])
BAD_VECTOR = st.sampled_from([["a", "b"], [True, False], [True], None, [None, 1.0], [0.5, "0.5"],
                              [[1.0], [0.0, 1.0]], [0.5, [0.5]], "ab"])


@st.composite
def _discrete_args(draw):
    """DiscreteIC's arguments; an extreme size is read as 2 for the kernel shapes."""
    sizes = [draw(SIZE) for _ in range(4)]
    x1, x2, y1, y2 = (v if type(v) is int and 1 <= v <= 3 else 2 for v in sizes)
    kernels = []
    for y in (y1, y2):
        rows = draw(_mostly(st.just(x1 * x2), st.integers(1, 4)))
        entries = _mostly(st.floats(0.0, 1.0), REAL)
        w = np.array(draw(st.lists(entries, min_size=rows * y, max_size=rows * y)))
        w = w.reshape(rows, y)
        if draw(_mostly(st.just(True), st.just(False))):
            with np.errstate(all="ignore"):
                w = w / w.sum(axis=1, keepdims=True)
        kernels.append(w)
    return (*sizes, *kernels, draw(IDLE), draw(IDLE))


@st.composite
def _discrete_args_or_bad_kernel(draw):
    """DiscreteIC's arguments, with a kernel that is not a matrix of numbers
    about one draw in four."""
    args = list(draw(_discrete_args()))
    if draw(_mostly(st.just(False), st.just(True))):
        args[draw(st.sampled_from([4, 5]))] = _Out(draw(BAD_MATRIX))
    return tuple(args)


def _check_discrete(ch):
    for kern, y in ((ch.kernel1, ch.y1_size), (ch.kernel2, ch.y2_size)):
        assert kern.shape == (ch.x1_size * ch.x2_size, y)
        assert np.isfinite(kern).all() and (kern >= 0).all()
        assert (np.abs(kern.sum(axis=1) - 1.0) <= 1e-12).all()
    assert 0 <= ch.idle1 < ch.x1_size and 0 <= ch.idle2 < ch.x2_size


GAUSSIAN_VALUE = _mostly(st.floats(0.01, 100.0), st.one_of(REAL, st.sampled_from([True, "1"])))
GAUSSIAN_ARGS = st.tuples(*[GAUSSIAN_VALUE] * 4)


def _check_gaussian(ch):
    assert all(0.0 < p < math.inf for p in (ch.p1, ch.p2))
    assert all(0.0 <= c < math.inf for c in (ch.c1, ch.c2))


def _check_channel(ch):
    (_check_discrete if isinstance(ch, ic.DiscreteIC) else _check_gaussian)(ch)


PROBS = _mostly(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(
        lambda w: (np.array(w) / sum(w)).tolist() if sum(w) > 0 else w),
    st.one_of(st.lists(REAL, max_size=3), st.sampled_from([0.5, [[0.5, 0.5]]])))


def _check_distribution(d):
    assert d.probs.ndim == 1 and np.isfinite(d.probs).all() and (d.probs >= 0).all()
    assert abs(d.probs.sum() - 1.0) <= 1e-12


# channels built when the call is made
BUILT_DISCRETE = _discrete_args().map(lambda a: partial(ic.DiscreteIC, *a))
BUILT_GAUSSIAN = GAUSSIAN_ARGS.map(lambda a: partial(ic.GaussianIC, *a))
BUILT_DISTRIBUTION = PROBS.map(lambda p: partial(ic.InputDistribution, p))


def _check_lambda_bar(res):
    value, dists = res
    assert 0.0 <= value < math.inf
    for d in dists or ():
        _check_distribution(d)


DBW = _mostly(st.floats(-20.0, 40.0), st.one_of(REAL, st.sampled_from([3100.0, -4000.0, "1"])))


# The keys a config of each type needs (idle symbols default to 0), and keys
# that no table holds.
NEEDED = {"discrete": ["type", "x1", "x2", "y1", "y2", "kernel1", "kernel2"],
          "gaussian": ["type", "c1", "c2"]}
UNREAD = ["idle_1", "c3", "kernel", "P1", ""]


@st.composite
def _channel_config(draw):
    """A parsed config: a power as watts, as dBW or (refused) both or neither.
    About one in four of a known type has a kernel that is not a matrix of
    numbers, lacks a key it needs, or holds a key outside its table, such as
    the other type's; each of those is _Out."""
    kind = draw(_mostly(st.sampled_from(["gaussian", "discrete"]), st.sampled_from([None, "awgn"])))
    if kind == "discrete":
        x1, x2, y1, y2, k1, k2, idle1, idle2 = draw(_discrete_args())
        cfg = {"type": kind, "x1": x1, "x2": x2, "y1": y1, "y2": y2,
               "kernel1": k1.tolist(), "kernel2": k2.tolist(), "idle1": idle1, "idle2": idle2}
    else:
        cfg = {"type": kind, "c1": draw(GAUSSIAN_VALUE), "c2": draw(GAUSSIAN_VALUE)}
        for key in ("p1", "p2"):
            given = draw(_mostly(st.sampled_from([key, f"{key}_dbw"]),
                                 st.sampled_from([(), (key, f"{key}_dbw")])))
            for name in (given,) if isinstance(given, str) else given:
                cfg[name] = draw(DBW if name.endswith("_dbw") else GAUSSIAN_VALUE)
    faults = ["missing", "unread", *(["kernel"] if kind == "discrete" else [])]
    fault = draw(_mostly(st.none(), st.sampled_from(faults)))
    if kind not in NEEDED or fault is None:
        return cfg
    if fault == "kernel":
        cfg[draw(st.sampled_from(["kernel1", "kernel2"]))] = draw(BAD_MATRIX)
    elif fault == "missing":
        del cfg[draw(st.sampled_from(NEEDED[kind]))]
    else:
        other = NEEDED["gaussian" if kind == "discrete" else "discrete"][1:]
        cfg[draw(st.sampled_from(UNREAD + other))] = draw(st.sampled_from([1, 0.5, None]))
    return _Out(cfg)


# name -> (argument strategy, call, check of the answer)
ENTRIES = {
    # channel
    "DiscreteIC": (_discrete_args_or_bad_kernel(), ic.DiscreteIC, _check_discrete),
    "GaussianIC": (GAUSSIAN_ARGS, ic.GaussianIC, _check_gaussian),
    "InputDistribution": (st.tuples(_mostly(PROBS, BAD_VECTOR.map(_Out))), ic.InputDistribution,
                          _check_distribution),
    "InfoQuantities": (st.tuples(*[_mostly(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
                                           BAD_PAIR.map(_Out))] * 5),
                       ic.InfoQuantities, _check_info),
    "info_quantities": (st.tuples(BUILT_DISCRETE, BUILT_DISTRIBUTION, BUILT_DISTRIBUTION),
                        ic.info_quantities, _check_info),
    "gaussian_info_quantities": (st.tuples(BUILT_GAUSSIAN), ic.gaussian_info_quantities,
                                 _check_info),
    "lambda_bar": (st.tuples(BUILT_DISCRETE | BUILT_GAUSSIAN), ic.lambda_bar, _check_lambda_bar),
    "load_channel": (st.tuples(_channel_config()), ic.load_channel, _check_channel),
    # analysis
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
    "sweep_table": (st.tuples(INFO, _mostly(st.lists(st.floats(0.01, 5.0), min_size=1,
                                                     max_size=4).map(np.array), REAL_OR_ARRAY),
                              st.one_of(st.none(), RATE), st.one_of(st.none(), SIM_PACKETS),
                              WINDOW, MODES),
                    _sweep_table, _check_sweep_table),
    # simulator
    "SimConfig": (CONFIG_ARGS, _config, lambda config: _check_scheme_params(config.scheme)),
    "run_trials": (st.tuples(INFO, CONFIG_ARGS), _run, _check_result),
    "check_report": (st.tuples(INFO, CONFIG_ARGS), _check_report, _check_check_report),
    "simulate_tau": (st.tuples(LAM, BITS, SIM_PACKETS, RATE, RNG), sim.simulate_tau, _check_tau),
    "overlap_fractions": (STARTS, sim.overlap_fractions, _check_overlap),
    "decode_success": (st.tuples(_mostly(st.floats(0.0, 1.0), REAL_OR_ARRAY), INFO, USER,
                                 RATE, MODE), sim.decode_success,
                       _check_decoded),
    "fluid_outage_flags": (st.tuples(OFFSETS, SCHEME_ARGS, INFO), _fluid_flags, _check_flags),
}


def _entries() -> list[str]:
    return sorted(name for module in (chan, an, sim) for name in module.__all__
                  if callable(getattr(module, name)) and getattr(module, name) not in (
                      chan.ChannelValidationError, an.AnalysisError, sim.SimResult))


def test_every_public_entry_has_a_row():
    assert _entries() == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_entry_answers_or_refuses(name, data):
    strategy, call, check = ENTRIES[name]
    drawn, outside = data.draw(strategy), []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = call(*_resolve(drawn, outside))
        except (ic.AnalysisError, ic.ChannelValidationError):
            return
    assert not outside, f"answered {res!r} with {outside!r} outside the domain"
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


def test_user_decoder_pair_and_constants_are_refused_by_their_owners():
    # Before each rule had one owner, user 0 answered user 2's values and -1 or
    # True user 1's, ("tin",) ran user 2 with no decoder, ("tin", "di", "tin")
    # was cut to two entries, and a nan constant answered rho = nan.
    info = INFOS["gaussian"]
    nan_c = {**vars(info), "c": (math.nan, 0.5)}
    calls = [
        (lambda: an.rho(info, 0, 1.5, 1.0, an.TIN), "user must be 1 or 2, got 0"),
        (lambda: sim.decode_success(0.5, info, True, 0.75, an.TIN),
         "user must be 1 or 2, got True"),
        (lambda: an.closed_form_outage(info, 1.0, 1.0, 1.5, 4, 1.0, an.TIN),
         "user must be 1 or 2, got 1.0"),
        (lambda: ic.SchemeParams(1.0, 1.5, 4, 5.0, (an.TIN,)),
         "decoder must be 'tin', 'di' or a pair of them, got ('tin',)"),
        (lambda: an.epsilon_bound(info, 1.0, 5.0, (an.TIN, an.DI, an.TIN)),
         "decoder must be 'tin', 'di' or a pair of them, got ('tin', 'di', 'tin')"),
        (lambda: ic.InfoQuantities(**nan_c), "c of user 1 must be a finite number >= 0, got nan"),
        (lambda: ic.InfoQuantities(**{**vars(info), "c_cross": (1.0,)}),
         "c_cross must be a (user 1, user 2) pair, got (1.0,)"),
    ]
    for call, message in calls:
        with pytest.raises((ic.AnalysisError, ic.ChannelValidationError)) as err:
            call()
        assert str(err.value) == message
    assert ic.SchemeParams(1.0, 1.5, 4, 5.0, [an.TIN, an.DI]).decoder == (an.TIN, an.DI)


def test_channel_entries_and_keys_are_refused_by_their_owners():
    # Before the constructors owned the entry rule and load_channel's table the
    # keys, str and ragged entries raised numpy's ValueError, bool entries were
    # taken as numbers, a missing key raised KeyError, an unread "idle_1" left
    # idle1 at 0, and load_channel([1]) raised TypeError from open.
    discrete = json.loads((CONFIGS / "discrete.json").read_text())
    gaussian = json.loads((CONFIGS / "gaussian.json").read_text())
    calls = [
        (lambda: ic.DiscreteIC(1, 1, 1, 1, [["a"]], [[1.0]]), "kernel1 must be a matrix of numbers"),
        (lambda: ic.DiscreteIC(1, 1, 1, 2, [[1.0]], [[True, False]]),
         "kernel2 must be a matrix of numbers"),
        (lambda: ic.DiscreteIC(2, 1, 1, 1, [[1.0], [0.5, 0.5]], [[1.0], [1.0]]),
         "kernel1 must be a matrix of numbers"),
        (lambda: ic.DiscreteIC(1, 1, 1, 1, None, [[1.0]]), "kernel1 must be a matrix of numbers"),
        (lambda: ic.InputDistribution(["a", "b"]), "input distribution must be a vector of numbers"),
        (lambda: ic.InputDistribution([True, False]),
         "input distribution must be a vector of numbers"),
        (lambda: ic.InputDistribution([[1.0], [0.0, 1.0]]),
         "input distribution must be a vector of numbers"),
        (lambda: ic.load_channel({**discrete, "idle_1": 1}),
         "unknown key 'idle_1' in a discrete channel config"),
        (lambda: ic.load_channel({k: v for k, v in gaussian.items() if k != "c2"}),
         "c2 must be a finite number, got None"),
        (lambda: ic.load_channel({k: v for k, v in discrete.items() if k != "x1"}),
         "x1_size must be a positive integer, got None"),
        (lambda: ic.load_channel([1]), "channel config must be a JSON object"),
        (lambda: ic.load_channel({"type": ["discrete"]}), "unknown channel type ['discrete']"),
    ]
    for call, message in calls:
        with pytest.raises(ic.ChannelValidationError) as err:
            call()
        assert str(err.value) == message
    # The idle symbols stay optional (0), and the key that names one is read.
    c_star = [ic.info_quantities(ic.load_channel(cfg), _UNIFORM, _UNIFORM).c_star[1] for cfg in (
        {k: v for k, v in discrete.items() if k not in ("idle1", "idle2")},
        {**discrete, "idle1": 1})]
    assert c_star == pytest.approx([0.10619, 0.17409], abs=1e-5)


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


def test_simulate_tau_meets_the_rules_of_sim_config():
    # simulate_tau checked none of its arguments: nan lam raised a numpy ValueError,
    # N = 0 a ZeroDivisionError, and r = nan answered nan release times.
    rng = np.random.default_rng(0)
    calls = [
        ((math.nan, 100, 4, 1.5), "arrival rate must be positive, got nan"),
        ((0.5, 100, 0, 1.5), "number of packets must be at least 1, got 0"),
        ((0.5, 100, 2.5, 1.5), "number of packets must be an integer type, got 2.5"),
        ((0.5, 100, 4, math.nan), "normalized code rate must be finite, got nan"),
        ((2.0, 100, 4, 1.5), "arrival rate must be at most 1, got 2.0"),
        ((1.0, 2**53, sim.MAX_SIM_PACKETS + 1, 1.5),
         "simulation takes at most 4000000 packets, got 4000001"),
        ((0.5, 100.5, 4, 1.5), "bits-per-source count n must be an integer, got 100.5"),
        ((0.5, True, 4, 1.5), "bits-per-source count n must be an integer, got True"),
        ((0.5, 3, 4, 1.5), "packet size rounds to zero bits"),
        ((0.5, 10**400, 4, 1.5), "n / lambda = inf slots exceeds 2[*][*]53"),
        ((0.5, 100, 4, 5e-324), "codeword length 1/[(]N r lambda[)] is infinite"),
        ((0.5, 100, 4, 1e-310), "codeword length n/[(]N r lambda[)] is infinite"),
        # answered zero-length codewords [25, 50, 75, 100]
        ((1.0, 100, 4, 1e308), "codeword length n/[(]N r lambda[)] is 0: 100 / inf"),
        # overflowed the release recursion with a numpy warning
        ((1.0, 188, 28, 1.0077e-306), "release times up to 2[*][*]63 [+] N codeword lengths"),
    ]
    for args, message in calls:
        with pytest.raises(ic.AnalysisError, match=message):
            sim.simulate_tau(*args, rng)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 2.5}, "trial count must be an integer, got 2.5"),
    ({"trials": True}, "trial count must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"mode": "stochastic", "n": 100.5}, "bits-per-source count n must be an integer, got 100.5"),
    ({"mode": "stochastic", "n": True}, "bits-per-source count n must be an integer, got True"),
])
def test_sim_config_refuses_a_count_that_is_not_an_integer(kwargs, message):
    # trials = 2.5 ended in a TypeError in run_trials; seed = 1.5 and n = 100.5 ran.
    scheme = ic.SchemeParams(lam=0.5, r=1.5, n_packets=4, d_max=1.0)
    with pytest.raises(ic.AnalysisError, match=message):
        ic.SimConfig(**{"scheme": scheme, "trials": 10, "seed": 0, **kwargs})


def test_kernels_refuse_inputs_outside_their_domain():
    info = INFOS["gaussian"]
    scheme = ic.SchemeParams(lam=0.5, r=1.5, n_packets=4, d_max=1.0)
    calls = [
        (lambda: sim.decode_success(np.array([0.5, math.inf]), info, 1, 0.75, an.TIN),
         "interfered fractions in \\[0, 2\\]"),
        (lambda: sim.decode_success(0.5, info, 1, math.nan, an.TIN), "code rate above 0"),
        (lambda: sim.overlap_fractions([0.0, math.inf], [0.0, 2.0]),
         "codeword starts must be finite, sorted and at least 1 apart"),
        (lambda: sim.fluid_outage_flags(np.array([0.5]), np.array([1.5]), scheme, info),
         "offsets must lie in \\[0, D\\]"),
        (lambda: sim.fluid_outage_flags(np.array([math.nan]), np.array([0.5]), scheme, info),
         "offsets must lie in \\[0, D\\]"),
        (lambda: sim.fluid_outage_flags(np.zeros(1), np.zeros(1), ic.SchemeParams(
            lam=1.0, r=1.5, n_packets=2**53, d_max=1.0), info), "at most 4000000 packets"),
        (lambda: sim.fluid_outage_flags(np.zeros(1), np.full(1, 1.5), ic.SchemeParams(
            lam=1.0, r=1e308, n_packets=1, d_max=1.5), info), "fluid lattice offsets"),
    ]
    for call, message in calls:
        with pytest.raises(ic.AnalysisError, match=message):
            call()
    # Starts too far apart to subtract do not overlap, without an overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu1, mu2 = sim.overlap_fractions([-1e308, 1e308], [-1e308, 1e308])
    assert mu1.tolist() == mu2.tolist() == [1.0, 1.0]


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


@pytest.mark.parametrize("r, n, message", [
    # n past the float range ended in an OverflowError traceback (exit 1)
    ("1.5", "1" + "0" * 400,
     "n / lambda = inf slots exceeds 2**53, beyond which slot times are not exact floats"),
    # a codeword of n/(N r lambda) = inf slots printed numpy warnings before its error
    ("1e-310", "1000", "codeword length n/(N r lambda) is infinite: 1000 / 2.0000000000001e-310"),
])
def test_stochastic_simulate_refuses_n_it_cannot_time(r, n, message):
    result = CliRunner().invoke(main, [
        "simulate", "--channel", str(CONFIGS / "gaussian.json"), "--lambda", "0.5", "--r", r,
        "--n-packets", "4", "--d", "1", "--mode", "stochastic", "--n", n, "--trials", "5"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {message}\n"


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
