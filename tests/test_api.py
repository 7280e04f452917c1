"""The public API: ngcost.__all__ is the contract the README documents."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ngcost


def test_all_is_sorted_unique_and_resolves():
    names = ngcost.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(ngcost, name)]
    assert missing == []


def test_helpers_no_solver_uses_are_not_public():
    for name in ("behavior_cost", "kron", "partial_trace_a", "partial_trace_b"):
        assert name not in ngcost.__all__ and not hasattr(ngcost, name)
    assert list(inspect.signature(ngcost.is_nonsignalling).parameters) == ["behavior"]


@pytest.mark.parametrize("module", ["ngcost.games", "ngcost.nsbound"])
def test_games_and_nsbound_import_no_quantum_layer(module):
    # a fresh process with an empty ngcost package, so the package __init__
    # (which imports every module) does not hide what module itself imports
    src = str(Path(ngcost.__file__).resolve().parent)
    code = (
        "import sys, types\n"
        f"package = types.ModuleType('ngcost'); package.__path__ = [{src!r}]\n"
        "sys.modules['ngcost'] = package\n"
        f"import {module}\n"
        "print(sorted(name for name in sys.modules if name.startswith('ngcost')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout
    assert module in loaded
    assert "ngcost.quantum" not in loaded and "ngcost.seesaw" not in loaded


def test_importing_ngcost_loads_no_cli_argparse_or_scipy():
    # what setup_s times: the CLI, its argparse and the test-only scipy load on demand
    src = str(Path(ngcost.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import ngcost\n"
        "print(sorted(name for name in ('argparse', 'ngcost.cli', 'scipy') if name in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
