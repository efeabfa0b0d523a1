"""Shared fixtures."""

import pytest

from tests.dormancy import parked_contract_monitor


@pytest.fixture
def parked_contract(monkeypatch):
    """Re-check every parked runtime on every slot (see tests/dormancy.py)."""
    parked_contract_monitor(monkeypatch)
