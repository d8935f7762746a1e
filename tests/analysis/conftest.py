"""Fixtures shared by the claims-table tests."""

import pytest


@pytest.fixture(scope="session")
def measured():
    """``measured(row)``: the row's ``measure()``, run once per session."""
    results = {}

    def measure(row):
        if row.id not in results:
            results[row.id] = row.measure()
        return results[row.id]

    return measure
