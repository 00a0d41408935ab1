"""Every public name a module declares resolves.  The benchmark's tracer
wraps each ``__all__`` entry of these modules, so a stale entry would stop
every traced run."""

import importlib

import pytest

MODULES = ("cli", "squid", "hamiltonians", "dynamics", "protocols", "verify",
           "hilbert", "feasibility")


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"squidqed.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"squidqed.{module}.__all__ names {missing}"
