"""Every row of the claims table, timed and judged.

One case per row of :data:`repro.analysis.EXPERIMENTS` (e1–e22, then the
ablations): the row's ``measure`` runs under the benchmark, its report —
tables, facts, verdict line — goes to the artifact section, and a red
verdict fails the case.
"""

import pytest
from conftest import emit, pedantic_args

from repro.analysis import EXPERIMENTS, render_series

#: Rows whose table is also a curve: the (x, y) columns drawn as bars.
FIGURES = {
    "e2": ("n", "k transition (Eq.18)"),
    "e10": ("target silence", "space saved"),
    "e12": ("request", "startup latency (s)"),
}


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.id)
def test_experiment(benchmark, row):
    result = benchmark.pedantic(row.measure, **pedantic_args())
    emit(row.report(result))
    if row.id in FIGURES:
        emit(render_series(result.table, *FIGURES[row.id]))
    assert row.failed(result) == []
