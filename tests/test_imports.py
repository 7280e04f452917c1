"""Every name a module of ngcost or of its tests imports is used by that module.

Each module under src/ngcost/ except __init__.py (which re-exports), and
each module under tests/, is parsed with ast; an imported name that never
appears as a name in the module's code is dead, unless it is listed in
KEPT below.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "ngcost").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))

# (module, name): why a module under src/ngcost/ imports a name it does not use.  The
# benchmark tracer (benchmarks/tracer.py) wraps a layer under the name its
# caller looks up, so these names must stay importable from their module.
KEPT = {
    ("seesaw", "kron"): "the tracer wraps ngcost.seesaw.kron as linalg.seesaw.kron",
    ("seesaw", "partial_trace_a"): "the tracer wraps it as linalg.seesaw.partial_trace",
    ("seesaw", "partial_trace_b"): "the tracer wraps it as linalg.seesaw.partial_trace",
    ("quantum", "kron"): "the tracer wraps ngcost.quantum.kron as linalg.quantum.kron",
    ("cli", "evaluate_quantum_strategy"):
        "the tracer wraps ngcost.cli.evaluate_quantum_strategy as quantum.evaluate_quantum_strategy",
}


def imported_and_used(path: Path) -> tuple[set[str], set[str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_a_module_uses_every_name_it_imports(path):
    imported, used = imported_and_used(path)
    kept = {name for module, name in KEPT if module == path.stem}
    assert imported - used - kept == set()


def test_every_kept_name_is_imported_unused_and_traced():
    tracer = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text(encoding="utf-8"))
    wraps = next(ast.literal_eval(node.value) for node in tracer.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "WRAPS")
    traced = {(module.removeprefix("ngcost."), name) for module, name, _ in wraps}
    for module, name in KEPT:
        imported, used = imported_and_used(ROOT / "src" / "ngcost" / f"{module}.py")
        assert name in imported - used and (module, name) in traced, (module, name)
