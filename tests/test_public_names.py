"""Every public name a module declares resolves.  The benchmark's tracer
wraps each ``__all__`` entry of these modules, so a stale entry would stop
every traced run."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("cli", "squid", "hamiltonians", "dynamics", "protocols", "verify",
           "hilbert", "feasibility")


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"squidqed.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"squidqed.{module}.__all__ names {missing}"


#: (importer, source, name) of every private name a module may import
#: from a sibling; the CLI imports none.
PRIVATE_IMPORTS = {
    ("hamiltonians", "hilbert", "_check_dims"),
    *(("protocols", "hamiltonians", name) for name in (
        "_X02", "_X20", "_check_fock_cutoff", "_on_loop", "_resonant_drive")),
    ("verify", "hamiltonians", "_check_fock_cutoff"),
    ("verify", "protocols", "_cavity_eigensystem"),
    ("verify", "protocols", "_run_block"),
}


def test_private_names_cross_modules_only_where_allowed():
    # every import statement, function-level ones included
    package = Path(importlib.import_module("squidqed").__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or node.module.startswith("squidqed.")):
                source = (node.module or "").rpartition(".")[2]
                found |= {(path.stem, source, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")}
    assert found <= PRIVATE_IMPORTS, sorted(found - PRIVATE_IMPORTS)
