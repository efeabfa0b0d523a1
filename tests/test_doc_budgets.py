"""DESIGN.md and the README hold to line budgets.

A change may lower a budget, never raise one: what a document gains it
pays for by trimming elsewhere.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Lines per document, at most.
BUDGETS = {"DESIGN.md": 1821, "README.md": 653}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_a_document_fits_its_line_budget(name):
    lines = len((ROOT / name).read_text(encoding="utf-8").splitlines())
    assert lines <= BUDGETS[name], f"{name}: {lines} lines, budget {BUDGETS[name]}"
