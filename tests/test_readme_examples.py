"""The README's documented `sweep` and `hardy-cap-sweep` output, re-run.

Each fenced README line that starts with `$ ngcost sweep` or
`$ ngcost hardy-cap-sweep` is run through `cli.main`; the lines after it,
up to the next `$` line or the end of the block, are the documented CSV.
Numeric cells must agree within 1e-12: a change that moves a documented
value fails here instead of leaving the README stale, while a change of a
few ulps, which reordering a floating-point sum can cause, passes.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from ngcost.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIXES = ("$ ngcost sweep ", "$ ngcost hardy-cap-sweep ")
CELL_TOL = 1e-12


def _examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    current = None
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ "):
            current = None
            if line.startswith(PREFIXES):
                current = (line[2:], [])
                examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_documents_both_csv_commands():
    commands = [shlex.split(command)[1] for command, _ in EXAMPLES]
    assert "sweep" in commands and "hardy-cap-sweep" in commands
    assert all(len(expected) >= 2 for _, expected in EXAMPLES)


def _cells_agree(printed: str, documented: str) -> bool:
    try:
        return abs(float(printed) - float(documented)) <= CELL_TOL
    except ValueError:
        return printed == documented


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_csv_example_matches_output(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    assert printed[0] == expected[0]
    for got, want in zip(printed[1:], expected[1:]):
        got_cells, want_cells = got.split(","), want.split(",")
        assert len(got_cells) == len(want_cells), (got, want)
        bad = [(g, w) for g, w in zip(got_cells, want_cells) if not _cells_agree(g, w)]
        assert not bad, f"{command}: printed {got!r}, README has {want!r}"
