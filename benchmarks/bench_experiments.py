"""Every row of the claims table, timed and judged.

One case per row of :data:`repro.analysis.EXPERIMENTS` (e1–e22, then the
ablations): the row's ``measure`` runs under the benchmark, its report —
tables, facts, verdict line — goes to the artifact section, and a red
verdict fails the case.
"""

import pytest
from conftest import emit, pedantic_args

from repro.analysis import EXPERIMENTS


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.id)
def test_experiment(benchmark, row):
    result = benchmark.pedantic(row.measure, **pedantic_args())
    emit(row.report(result))
    assert row.failed(result) == []
