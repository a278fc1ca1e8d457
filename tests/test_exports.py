"""The public names of the library modules.

perfbench/trace.py wraps every entry of these modules' ``__all__`` with
getattr, so an entry naming nothing would crash a traced benchmark run.
"""

import pytest

import ic_outage


@pytest.mark.parametrize("module", ["channel", "analysis", "simulator"])
def test_every_all_entry_resolves(module):
    mod = getattr(ic_outage, module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
