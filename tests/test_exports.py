"""The public names of the library modules.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports exactly their union.  perfbench/trace.py wraps every
entry of these modules' ``__all__`` with getattr, so an entry naming nothing
would crash a traced benchmark run, and a timed function missing from it
would read 0 in its per-layer metric.
"""

import pytest

import ic_outage as ic

MODULES = ("channel", "analysis", "simulator")

# The functions whose spans the benchmark's per-layer metrics time.
TIMED = {
    "channel": ("lambda_bar", "info_quantities"),
    "analysis": ("epsilon_bound", "rho", "outage_ub_finite_n"),
    "simulator": ("fluid_outage_flags", "run_trials", "simulate_tau",
                  "overlap_fractions", "decode_success"),
}


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = getattr(ic, module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in getattr(ic, module).__all__]
    assert len(names) == len(set(names))
    assert sorted(ic.__all__) == sorted(names)
    for module in MODULES:
        for name in getattr(ic, module).__all__:
            assert getattr(ic, name) is getattr(getattr(ic, module), name), name


@pytest.mark.parametrize("module", MODULES)
def test_benchmark_timed_functions_stay_public(module):
    assert [name for name in TIMED[module] if name not in getattr(ic, module).__all__] == []
