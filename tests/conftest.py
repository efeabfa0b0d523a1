"""Shared fixtures."""

import pytest

from repro.exec.pool import PersistentWorkerGroup
from tests.dormancy import parked_contract_monitor


@pytest.fixture
def parked_contract(monkeypatch):
    """Re-check every parked runtime on every slot (see tests/dormancy.py)."""
    parked_contract_monitor(monkeypatch)


def tap_barriers(monkeypatch):
    """Every barrier the sessions run from here on, as ``(method,
    arguments, replies)``, until ``monkeypatch`` is undone.

    Taken at the group's one send path, so ``len(arguments)`` is the
    number of messages the barrier cost and the absence of a shard from
    ``arguments`` means nothing was sent to it.
    """
    log = []
    send = PersistentWorkerGroup.call_each

    def tapped(self, method, arguments):
        replies = send(self, method, arguments)
        log.append((method, dict(arguments), replies))
        return replies

    monkeypatch.setattr(PersistentWorkerGroup, "call_each", tapped)
    return log


@pytest.fixture
def barriers(monkeypatch):
    """Every barrier the test's sessions run (:func:`tap_barriers`)."""
    return tap_barriers(monkeypatch)
