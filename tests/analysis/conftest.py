"""Fixtures shared by the claims-table tests."""

import pytest

from repro.analysis import select


@pytest.fixture(scope="session")
def measured():
    """``measured(row)``: the row's ``measure()``, run once per session."""
    results = {}

    def measure(row):
        if row.id not in results:
            results[row.id] = row.measure()
        return results[row.id]

    return measure


@pytest.fixture
def holds(measured):
    """``holds(row_id, *criteria)``: the named criteria of that row exist
    and are green — how the pre-table test ids say which criteria took
    over their asserts."""

    def check(row_id, *criteria):
        [row] = select([row_id])
        stated = [text for text, _ in row.shape]
        for criterion in criteria:
            assert criterion in stated, f"{row_id} has no {criterion!r}"
        failed = row.failed(measured(row))
        assert not set(criteria) & set(failed), failed

    return check
