"""The claims table, checked row by row.

Every consumer of :data:`repro.analysis.EXPERIMENTS` is a loop over it,
and so is its test: each row's tables match the golden generated before
the table existed, its verdict is green, every one of its criteria turns
red on a doctored copy of its own table (none is vacuous), and its block
of EXPERIMENTS.md is the report ``repro experiments`` prints.
"""

import copy
import re
from pathlib import Path

import pytest

from repro.analysis import EXPERIMENTS, Result, select
from repro.analysis import experiments as drivers
from repro.cli import main
from repro.errors import ParameterError

ROOT = Path(__file__).resolve().parents[2]
by_id = pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.id)

#: (row, criterion, table index or "facts", column or fact, row key, value):
#: one decisive cell to flip so that exactly that criterion must fail.
DOCTORED = [
    ("e1", "l_ds tolerance: sequential < pipelined ≤ concurrent",
     0, "analytic l_ds max (ms)", "sequential", 30.0),
    ("e1", "the analysis is safe: 0 misses at 95 % of every bound",
     0, "sim misses @95% bound", "pipelined", 1),
    ("e1", "single-head architectures miss at the widest gap",
     0, "sim misses @widest gap", "sequential", 0),
    ("e2", "k (Eq. 18) grows with n, steepening toward capacity",
     0, "k transition (Eq.18)", 3, 4),
    ("e2", "feasible for n = 1…n_max, refused exactly at n_max + 1",
     0, "feasible", 4, True),
    ("e2", "k transition (Eq. 18) ≥ k steady (Eq. 16) at every feasible n",
     0, "k transition (Eq.18)", 2, 0),
    ("e3", "naive k jump: existing streams miss",
     0, "existing-stream misses", "naive jump", 0),
    ("e3", "staged +1/round walk: 0 existing-stream misses",
     0, "existing-stream misses", "staged (+1/round)", 5),
    ("e4", "constrained and contiguous placement need no read-ahead",
     0, "min read-ahead for continuity", "contiguous", 2),
    ("e4", "random placement needs read-ahead to play continuously",
     0, "min read-ahead for continuity", "random", 0),
    ("e4", "random placement's widest gap exceeds constrained's",
     0, "max gap (ms)", "random", 1.0),
    ("e5", "read-ahead k / k / pk and buffers k / 2k / pk at every k",
     0, "buffers", "pipelined", 1),
    ("e5", "task-switch read-ahead h ≥ 1 block",
     "facts", "task-switch read-ahead h (blocks)", None, 0),
    ("e5", "2× slow motion accumulates blocks",
     "facts", "2x slow-motion accumulation (blocks/s)", None, 0.0),
    ("e6", "heterogeneous blocks tolerate more scattering than homogeneous",
     0, "l_ds max (ms)", "heterogeneous blocks", 1.0),
    ("e7", "array throughput within 5 % of the paper's 0.32 Gbit/s",
     0, "value (Gbit/s)", "array throughput, unconstrained blocks", 0.25),
    ("e7", "HDTV demand ≈ 7.8× what the array sustains (±10 %)",
     0, "value (Gbit/s)", "shortfall factor", 5.0),
    ("e8", "sparse disk: 1 ≤ blocks copied ≤ the Eq. (19) bound",
     0, "blocks copied", "sparse", 5),
    ("e8", "dense disk: 1 ≤ blocks copied ≤ the Eq. (20) bound",
     0, "blocks copied", "dense", 0),
    ("e8", "dense bound ≥ 2 × sparse bound − 1",
     0, "dense bound", "sparse", 4),
    ("e8", "every seam continuous after repair",
     0, "seams continuous after", "dense", False),
    ("e9", "every rope operation copies 0 media blocks",
     0, "media blocks copied", "INSERT", 3),
    ("e9", "a shared strand outlives the base rope; the last reference "
           "reclaims it",
     1, "collected", "base rope deleted (substring alive)", 2),
    ("e10", "space saved grows with the silence ratio",
     0, "space saved", 0.4, 0.9),
    ("e10", "no silence saves < 5 %; 0.8 silence saves > 40 %",
     0, "space saved", 0.8, 0.3),
    ("e10", "playback duration preserved at every ratio",
     0, "duration preserved", 0.6, False),
    ("e11", "the 1991 testbed is pipelined-feasible at average seek",
     0, "pipelined feasible", "testbed-1991", False),
    ("e11", "HDTV on 1991 hardware is not",
     0, "pipelined feasible", "hdtv-2.5gbit", True),
    ("e12", "every admitted request plays with 0 misses",
     0, "misses", "Q0005", 2),
    ("e12", "admission refuses a request after admitting at least one",
     "facts", "admission refused request #", None, 0),
    ("e12", "startup latency grows with each admitted request",
     0, "startup latency (s)", "Q0006", 1.0),
    ("e13", "the averaged VBR bound beats CBR at every granularity",
     0, "gain", 2, 0.9),
    ("e13", "the gain is uniform across granularity (spread < 0.5)",
     0, "gain", 4, 2.0),
    ("e14", "SCAN-ordered rounds are no longer than round-robin's on average",
     0, "mean round (ms)", "SCAN-ordered", 600.0),
    ("e14", "measured-β̂ capacity exceeds the pessimistic Eq. (17) estimate",
     0, "capacity estimate", "SCAN-ordered", 1),
    ("e15", "fragmentation blocks the placement",
     0, "value", "placement feasible before", True),
    ("e15", "reorganization restores it",
     0, "value", "placement feasible after", False),
    ("e15", "by moving blocks", 0, "value", "blocks moved", 0),
    ("e16", "0 misses in every mode", 0, "misses", "slow motion 0.5x", 1),
    ("e16", "2× with skipping fetches half the blocks of 2× without",
     0, "blocks fetched", "fast-forward 2x, skipping", 120),
    ("e16", "slow motion switches tasks, at least as often as normal speed",
     0, "task switches", "slow motion 0.5x", 0),
    ("e16", "slow motion idles the disk longest",
     0, "disk idle (s)", "slow motion 0.5x", 1.0),
    ("e17", "every stripe width plays with 0 misses", 0, "misses", 4, 1),
    ("e17", "the per-member bound grows with p, more than doubling from "
            "4 to 8 heads",
     0, "per-member l_ds bound (ms)", 8, 100.0),
    ("e18", "with no read-ahead, rotational jitter breaks strict continuity",
     0, "misses", 0, 0),
    ("e18", "an 8-block read-ahead restores continuity", 0, "misses", 8, 3),
    ("e18", "misses never rise with read-ahead", 0, "misses", 2, 50),
    ("e19", "0 media misses at every load", 0, "media misses", 1, 4),
    ("e19", "text throughput falls as media load grows",
     0, "text blocks in slack", 1, 300),
    ("e19", "text is still served under 2 media streams",
     0, "text blocks in slack", 2, 0),
    ("e20", "per-request k admits everything the uniform model admits",
     0, "per-request k admits", "3 video", False),
    ("e20", "and rescues '2 video + 4 audio' and '1 video + 10 audio'",
     0, "uniform model admits", "2 video + 4 audio", True),
    ("e20", "every per-request admission verifies against Eq. (11)",
     0, "Eq. 11 verified", "16 audio", False),
    ("e21", "1R+1P, 1R+2P and 2R+1P run with 0 misses",
     0, "all continuous", "2 record + 1 play", False),
    ("e21", "the overloaded mix misses",
     0, "all continuous", "overload: 1-block staging, 3 play", True),
    ("e22", "the healthy baseline is glitch-free",
     0, "glitch rate (budget 0)", 0, 0.1),
    ("e22", "without retries every fault glitches; with them only defects do",
     0, "glitch rate (recovered)", 12, 0.1333),
    ("e22", "the recovered glitch rate grows with the fault rate",
     0, "glitch rate (recovered)", 24, 0.0),
    ("a1", "the l_ds bound grows with η", 0, "l_ds bound (ms)", 4, 10.0),
    ("a1", "n_max never falls as η grows", 0, "n_max", 8, 1),
    ("a2", "the placement window widens with the budget",
     0, "window (ms)", 8, 50.0),
    ("a2", "an unbounded budget leaves the widest window",
     0, "window (ms)", "unbounded", 100.0),
    ("a2", "doubling the budget halves the window given up "
           "(l_seek_max / 2·C_b)",
     0, "window (ms)", 2, 90.0),
    ("a3", "throughput at the average gap grows with slot size",
     0, "throughput @avg gap (Mbit/s)", 64, 1.0),
    ("a3", "bigger slots waste more on audio blocks",
     0, "audio waste (fraction of slot)", 128, 0.1),
]


def _doctor(result, where, name, row, value):
    """A copy of *result* with one fact or one table cell replaced."""
    if where == "facts":
        return Result(result.tables, {**result.facts, name: value})
    tables = copy.deepcopy(result.tables)
    table = tables[where]
    index = list(table.columns).index(name)
    for number, cells in enumerate(table.rows):
        if cells[0] == row:
            table.rows[number] = (*cells[:index], value, *cells[index + 1:])
    return Result(tables, result.facts)


@pytest.mark.golden
def test_every_table_matches_the_golden_generated_before_the_refactor(
    golden, measured
):
    golden(
        "experiment_tables.txt",
        "\n\n".join(
            table.render()
            for row in EXPERIMENTS for table in measured(row).tables
        ),
    )


@by_id
def test_the_measured_shape_is_green(row, measured):
    assert row.failed(measured(row)) == []


@pytest.mark.parametrize(
    "row_id, criterion, where, name, key, value", DOCTORED,
    ids=[f"{spec[0]}-{spec[1]}" for spec in DOCTORED],
)
def test_a_doctored_cell_turns_its_criterion_red(
    row_id, criterion, where, name, key, value, measured
):
    [row] = select([row_id])
    doctored = _doctor(measured(row), where, name, key, value)
    assert doctored != measured(row), "the doctoring changed nothing"
    assert criterion in row.failed(doctored)


def test_every_criterion_has_a_doctored_case():
    assert {(spec[0], spec[1]) for spec in DOCTORED} == {
        (row.id, text) for row in EXPERIMENTS for text, _ in row.shape
    }


def test_a_broken_staged_walk_turns_e3_red_and_names_the_criterion(
    monkeypatch, capsys
):
    staged = drivers.staged_k_schedule
    # Both arms now jump straight to k_new in the admission round.
    monkeypatch.setattr(
        drivers, "staged_k_schedule",
        lambda k_old, steps: staged(k_old, [(steps[0][0], steps[-1][1])]),
    )
    [e3] = select(["e3"])
    walk = "staged +1/round walk: 0 existing-stream misses"
    assert e3.failed(e3.measure()) == [walk]
    assert main(["experiments", "e3"]) == 1
    assert f"shape ✗ FAILED: {walk}" in capsys.readouterr().out


class TestSelect:
    def test_no_ids_is_every_row_e1_to_e22_then_the_ablations(self):
        assert [row.id for row in select()] == [
            *(f"e{n}" for n in range(1, 23)), "a1", "a2", "a3",
        ]

    def test_ids_are_case_insensitive_and_keep_the_order_given(self):
        assert [row.id for row in select(["E3", "a1", "e2"])] == [
            "e3", "a1", "e2",
        ]

    def test_an_unknown_id_names_itself_and_the_known_ones(self):
        with pytest.raises(ParameterError, match="e99.*known: e1, e2"):
            select(["e2", "e99"])


@by_id
def test_experiments_md_block_is_the_report_the_cli_prints(
    row, measured, request
):
    """EXPERIMENTS.md's measured tables and verdicts are generated:
    ``pytest tests/analysis/test_claims.py --regen-golden`` rewrites them."""
    path = ROOT / "EXPERIMENTS.md"
    block = re.compile(
        f"(<!-- {row.id}:begin -->\n).*?(<!-- {row.id}:end -->)", re.DOTALL
    )
    expected = f"```text\n{row.report(measured(row))}\n```\n"
    text = path.read_text()
    assert len(block.findall(text)) == 1, f"no single {row.id} block"
    if request.config.getoption("--regen-golden"):
        path.write_text(
            block.sub(lambda m: m.group(1) + expected + m.group(2), text)
        )
        return
    assert block.search(text).group(0) == (
        f"<!-- {row.id}:begin -->\n{expected}<!-- {row.id}:end -->"
    ), f"EXPERIMENTS.md's {row.id} block drifted from `repro experiments`"
