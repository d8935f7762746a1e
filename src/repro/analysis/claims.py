"""The claims table: every reproduced experiment is one row.

The paper's evaluation is analytical, so what this repo reproduces are
*shapes* — orderings, crossovers, bounds respected, zero-vs-nonzero
misses.  :data:`EXPERIMENTS` states each one once: an id, the paper
artifact it answers, the parameterless ``measure`` that regenerates it
and the ``shape`` criteria — ``(text, predicate over the Result)`` pairs
reading cells by column and row name — that must hold for the
reproduction to count.  ``repro experiments``, ``benchmarks/``, the
tests and the generated blocks of EXPERIMENTS.md are loops over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.analysis import ablations, experiments, extensions
from repro.analysis.report import Result, format_cell
from repro.errors import ParameterError

__all__ = ["Experiment", "EXPERIMENTS", "select"]

Criterion = Tuple[str, Callable[[Result], bool]]


@dataclass(frozen=True)
class Experiment:
    """One row of the claims table."""

    id: str
    artifact: str
    measure: Callable[[], Result]
    shape: Tuple[Criterion, ...]

    def failed(self, result: Result) -> List[str]:
        """The criteria *result* does not meet, by name."""
        return [text for text, holds in self.shape if not holds(result)]

    def report(self, result: Result) -> str:
        """*result*'s tables and facts, then the one verdict line."""
        lines = ["\n\n".join(table.render() for table in result.tables)]
        lines += [
            f"{name} = {format_cell(value)}"
            for name, value in result.facts.items()
        ]
        failed = self.failed(result)
        verdict = (
            "shape ✗ FAILED: " + "; ".join(failed) if failed
            else "shape ✓: " + "; ".join(text for text, _ in self.shape)
        )
        lines.append(f"{self.id} · {self.artifact} · {verdict}")
        return "\n".join(lines)


def _rising(values: Sequence) -> bool:
    return list(values) == sorted(values)


def _falling(values: Sequence) -> bool:
    return list(values) == sorted(values, reverse=True)


def _close(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _e2_steepens(r: Result) -> bool:
    ks = [k for k in r.table.column("k transition (Eq.18)") if k is not None]
    return _rising(ks) and (len(ks) < 3 or ks[-1] - ks[-2] > ks[1] - ks[0])


def _e5_counts(r: Result) -> bool:
    """read-ahead k / k / pk and buffers k / 2k / pk, p = 4, at every k."""
    t = r.table
    rows = dict(zip(
        zip(t.column("architecture"), t.column("k")),
        zip(t.column("read-ahead"), t.column("buffers")),
    ))
    return all(
        rows[("sequential", k)] == (k, k)
        and rows[("pipelined", k)] == (k, 2 * k)
        and rows[("concurrent(p=4)", k)] == (4 * k, 4 * k)
        for k in (1, 2, 4, 8)
    )


def _a2_loss(r: Result, budget: int) -> float:
    """Placement window given up to a copy budget of *budget* blocks."""
    return (r.table.cell("window (ms)", "unbounded")
            - r.table.cell("window (ms)", budget))


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("e1", "Figs. 1–3 + Eqs. (1)–(3)", experiments.e1_architectures, (
        ("l_ds tolerance: sequential < pipelined ≤ concurrent",
         lambda r: r.table.cell("analytic l_ds max (ms)", "sequential")
         < r.table.cell("analytic l_ds max (ms)", "pipelined")
         <= r.table.cell("analytic l_ds max (ms)", "concurrent(p=2)")),
        ("the analysis is safe: 0 misses at 95 % of every bound",
         lambda r: set(r.table.column("sim misses @95% bound")) == {0}),
        ("single-head architectures miss at the widest gap",
         lambda r: r.table.cell("sim misses @widest gap", "sequential") > 0
         and r.table.cell("sim misses @widest gap", "pipelined") > 0),
    )),
    Experiment("e2", "Fig. 4 + Eqs. (15)–(17)", experiments.e2_k_vs_n, (
        ("k (Eq. 18) grows with n, steepening toward capacity", _e2_steepens),
        ("feasible for n = 1…n_max, refused exactly at n_max + 1",
         lambda r: r.facts["n_max (Eq. 17)"] >= 1
         and r.table.column("feasible")
         == [True] * r.facts["n_max (Eq. 17)"] + [False]),
        ("k transition (Eq. 18) ≥ k steady (Eq. 16) at every feasible n",
         lambda r: all(
             k18 >= k16 for k16, k18 in zip(
                 r.table.column("k steady (Eq.16)"),
                 r.table.column("k transition (Eq.18)"),
             ) if k16 is not None
         )),
    )),
    Experiment("e3", "§3.4 transition analysis, Eq. (18)",
               experiments.e3_transition, (
        ("naive k jump: existing streams miss",
         lambda r: r.table.cell("existing-stream misses", "naive jump") > 0),
        ("staged +1/round walk: 0 existing-stream misses",
         lambda r: r.table.cell(
             "existing-stream misses", "staged (+1/round)") == 0),
    )),
    Experiment("e4", "§3 allocation disciplines", experiments.e4_allocation, (
        ("constrained and contiguous placement need no read-ahead",
         lambda r: r.table.cell(
             "min read-ahead for continuity", "constrained") == 0
         and r.table.cell(
             "min read-ahead for continuity", "contiguous") == 0),
        ("random placement needs read-ahead to play continuously",
         lambda r: r.table.cell(
             "min read-ahead for continuity", "random") > 0),
        ("random placement's widest gap exceeds constrained's",
         lambda r: r.table.cell("max gap (ms)", "random")
         > r.table.cell("max gap (ms)", "constrained")),
    )),
    Experiment("e5", "§3.3.2 buffering", experiments.e5_buffering, (
        ("read-ahead k / k / pk and buffers k / 2k / pk at every k",
         _e5_counts),
        ("task-switch read-ahead h ≥ 1 block",
         lambda r: r.facts["task-switch read-ahead h (blocks)"] >= 1),
        ("2× slow motion accumulates blocks",
         lambda r: r.facts["2x slow-motion accumulation (blocks/s)"] > 0),
    )),
    Experiment("e6", "§3.3.3 + Eqs. (4)–(6)", experiments.e6_mixed_media, (
        ("heterogeneous blocks tolerate more scattering than homogeneous",
         lambda r: r.table.cell("l_ds max (ms)", "heterogeneous blocks")
         > r.table.cell("l_ds max (ms)", "homogeneous blocks")),
    )),
    Experiment("e7", "§3 HDTV worked example", experiments.e7_hdtv, (
        ("array throughput within 5 % of the paper's 0.32 Gbit/s",
         lambda r: _close(
             r.table.cell(
                 "value (Gbit/s)", "array throughput, unconstrained blocks"),
             r.table.cell("value (Gbit/s)", "paper's figure"), 0.05)),
        ("HDTV demand ≈ 7.8× what the array sustains (±10 %)",
         lambda r: _close(
             r.table.cell("value (Gbit/s)", "shortfall factor"), 7.8, 0.1)),
    )),
    Experiment("e8", "§4.2 + Eqs. (19)–(20), Fig. 10",
               experiments.e8_edit_copy, (
        ("sparse disk: 1 ≤ blocks copied ≤ the Eq. (19) bound",
         lambda r: 1 <= r.table.cell("blocks copied", "sparse")
         <= r.table.cell("sparse bound", "sparse")),
        ("dense disk: 1 ≤ blocks copied ≤ the Eq. (20) bound",
         lambda r: 1 <= r.table.cell("blocks copied", "dense")
         <= r.table.cell("dense bound", "dense")),
        ("dense bound ≥ 2 × sparse bound − 1",
         lambda r: r.table.cell("dense bound", "sparse")
         >= 2 * r.table.cell("sparse bound", "sparse") - 1),
        ("every seam continuous after repair",
         lambda r: all(r.table.column("seams continuous after"))),
    )),
    Experiment("e9", "§4.1, Figs. 9–10", experiments.e9_rope_ops, (
        ("every rope operation copies 0 media blocks",
         lambda r: set(r.table.column("media blocks copied")) == {0}),
        ("a shared strand outlives the base rope; the last reference "
         "reclaims it",
         lambda r: r.tables[1].column("strands alive") == [2, 1, 0]
         and r.tables[1].column("collected") == [0, 1, 1]),
    )),
    Experiment("e10", "§4 silence elimination", experiments.e10_silence, (
        ("space saved grows with the silence ratio",
         lambda r: _rising(r.table.column("space saved"))),
        ("no silence saves < 5 %; 0.8 silence saves > 40 %",
         lambda r: abs(r.table.cell("space saved", 0.0)) <= 0.05
         and r.table.cell("space saved", 0.8) > 0.4),
        ("playback duration preserved at every ratio",
         lambda r: all(r.table.column("duration preserved"))),
    )),
    Experiment("e11", "Table 1 + §2", experiments.e11_symbols, (
        ("the 1991 testbed is pipelined-feasible at average seek",
         lambda r: r.table.cell("pipelined feasible", "testbed-1991") is True),
        ("HDTV on 1991 hardware is not",
         lambda r: r.table.cell("pipelined feasible", "hdtv-2.5gbit")
         is False),
    )),
    Experiment("e12", "§5 prototype", experiments.e12_prototype, (
        ("every admitted request plays with 0 misses",
         lambda r: set(r.table.column("misses")) == {0}),
        ("admission refuses a request after admitting at least one",
         lambda r: r.facts["admission refused request #"] >= 2),
        ("startup latency grows with each admitted request",
         lambda r: _rising(r.table.column("startup latency (s)"))),
    )),
    Experiment("e13", "§6.2 variable-rate compression",
               extensions.e13_variable_rate, (
        ("the averaged VBR bound beats CBR at every granularity",
         lambda r: all(gain > 1.0 for gain in r.table.column("gain"))),
        ("the gain is uniform across granularity (spread < 0.5)",
         lambda r: max(r.table.column("gain"))
         - min(r.table.column("gain")) < 0.5),
    )),
    Experiment("e14", "§6.2 seek-minimizing order",
               extensions.e14_scan_ordering, (
        ("SCAN-ordered rounds are no longer than round-robin's on average",
         lambda r: r.table.cell("mean round (ms)", "SCAN-ordered")
         <= r.table.cell("mean round (ms)", "round-robin (paper)")),
        ("measured-β̂ capacity exceeds the pessimistic Eq. (17) estimate",
         lambda r: r.table.cell("capacity estimate", "SCAN-ordered")
         > r.table.cell("capacity estimate", "round-robin (paper)")),
    )),
    Experiment("e15", "§6.2 storage reorganization",
               extensions.e15_reorganization, (
        ("fragmentation blocks the placement",
         lambda r: r.table.cell("value", "placement feasible before")
         is False),
        ("reorganization restores it",
         lambda r: r.table.cell("value", "placement feasible after") is True),
        ("by moving blocks",
         lambda r: r.table.cell("value", "blocks moved") > 0),
    )),
    Experiment("e16", "§3.3.2 variable-speed playback",
               extensions.e16_variable_speed, (
        ("0 misses in every mode",
         lambda r: set(r.table.column("misses")) == {0}),
        ("2× with skipping fetches half the blocks of 2× without",
         lambda r: r.table.cell("blocks fetched", "fast-forward 2x, skipping")
         == r.table.cell("blocks fetched", "fast-forward 2x, no skip") // 2),
        ("slow motion switches tasks, at least as often as normal speed",
         lambda r: r.table.cell("task switches", "slow motion 0.5x")
         >= r.table.cell("task switches", "normal (1x)") > 0),
        ("slow motion idles the disk longest",
         lambda r: all(
             r.table.cell("disk idle (s)", mode)
             < r.table.cell("disk idle (s)", "slow motion 0.5x")
             for mode in ("normal (1x)", "fast-forward 2x, no skip")
         )),
    )),
    Experiment("e17", "Fig. 3 / §3.1 striping", extensions.e17_striping, (
        ("every stripe width plays with 0 misses",
         lambda r: set(r.table.column("misses")) == {0}
         and all(r.table.column("continuous"))),
        ("the per-member bound grows with p, more than doubling from "
         "4 to 8 heads",
         lambda r: _rising(r.table.column("per-member l_ds bound (ms)"))
         and r.table.cell("per-member l_ds bound (ms)", 8)
         > 2 * r.table.cell("per-member l_ds bound (ms)", 4)),
    )),
    Experiment("e18", "§3.3.1 anti-jitter read-ahead",
               extensions.e18_antijitter, (
        ("with no read-ahead, rotational jitter breaks strict continuity",
         lambda r: r.table.cell("misses", 0) > 0),
        ("an 8-block read-ahead restores continuity",
         lambda r: r.table.cell("misses", 8) == 0),
        ("misses never rise with read-ahead",
         lambda r: _falling(r.table.column("misses"))),
    )),
    Experiment("e19", "§3 unified media + text server",
               extensions.e19_unified_server, (
        ("0 media misses at every load",
         lambda r: set(r.table.column("media misses")) == {0}),
        ("text throughput falls as media load grows",
         lambda r: _falling(r.table.column("text blocks in slack"))),
        ("text is still served under 2 media streams",
         lambda r: r.table.cell("text blocks in slack", 2) > 0),
    )),
    Experiment("e20", "§3.4 Eq. (11), general form",
               extensions.e20_heterogeneous_k, (
        ("per-request k admits everything the uniform model admits",
         lambda r: all(
             hetero for uniform, hetero in zip(
                 r.table.column("uniform model admits"),
                 r.table.column("per-request k admits"),
             ) if uniform
         )),
        ("and rescues '2 video + 4 audio' and '1 video + 10 audio'",
         lambda r: all(
             r.table.cell("per-request k admits", mix)
             and not r.table.cell("uniform model admits", mix)
             for mix in ("2 video + 4 audio", "1 video + 10 audio")
         )),
        ("every per-request admission verifies against Eq. (11)",
         lambda r: all(
             verified for hetero, verified in zip(
                 r.table.column("per-request k admits"),
                 r.table.column("Eq. 11 verified"),
             ) if hetero
         )),
    )),
    Experiment("e21", "§3/§3.4 concurrent storage + retrieval",
               extensions.e21_record_and_play, (
        ("1R+1P, 1R+2P and 2R+1P run with 0 misses",
         lambda r: all(
             r.table.cell("all continuous", f"{mix} play")
             for mix in ("1 record + 1", "1 record + 2", "2 record + 1")
         )),
        ("the overloaded mix misses",
         lambda r: not r.table.cell(
             "all continuous", "overload: 1-block staging, 3 play")),
    )),
    Experiment("e22", "extension: fault injection",
               extensions.e22_fault_recovery, (
        ("the healthy baseline is glitch-free",
         lambda r: r.table.cell("glitch rate (recovered)", 0) == 0
         and r.table.cell("glitch rate (budget 0)", 0) == 0),
        ("without retries every fault glitches; with them only defects do",
         lambda r: r.table.column("glitch rate (budget 0)")
         == r.table.column("fault rate")
         and r.table.column("glitch rate (recovered)")
         == [d / extensions.E22_BLOCKS for d in r.table.column("defects")]),
        ("the recovered glitch rate grows with the fault rate",
         lambda r: _rising(r.table.column("glitch rate (recovered)"))),
    )),
    Experiment("a1", "ablation: granularity η", ablations.ablate_granularity, (
        ("the l_ds bound grows with η",
         lambda r: _rising(r.table.column("l_ds bound (ms)"))),
        ("n_max never falls as η grows",
         lambda r: _rising(r.table.column("n_max"))),
    )),
    Experiment("a2", "ablation: copy budget C_b", ablations.ablate_copy_budget, (
        ("the placement window widens with the budget",
         lambda r: _rising(r.table.column("window (ms)"))),
        ("an unbounded budget leaves the widest window",
         lambda r: r.table.cell("window (ms)", "unbounded")
         == max(r.table.column("window (ms)"))),
        ("doubling the budget halves the window given up "
         "(l_seek_max / 2·C_b)",
         lambda r: _close(_a2_loss(r, 1), 2 * _a2_loss(r, 2), 1e-6)
         and _close(_a2_loss(r, 2), 2 * _a2_loss(r, 4), 1e-6)),
    )),
    Experiment("a3", "ablation: block-slot size", ablations.ablate_block_size, (
        ("throughput at the average gap grows with slot size",
         lambda r: _rising(r.table.column("throughput @avg gap (Mbit/s)"))),
        ("bigger slots waste more on audio blocks",
         lambda r: r.table.cell("audio waste (fraction of slot)", 128)
         > r.table.cell("audio waste (fraction of slot)", 16)),
    )),
)


def select(ids: Sequence[str] = ()) -> Tuple[Experiment, ...]:
    """The rows *ids* name (case-insensitive), in the order given; every
    row when *ids* is empty."""
    if not ids:
        return EXPERIMENTS
    by_id = {row.id: row for row in EXPERIMENTS}
    unknown = [i for i in ids if i.lower() not in by_id]
    if unknown:
        raise ParameterError(
            f"unknown experiment id(s): {', '.join(unknown)}; known: "
            f"{', '.join(by_id)}"
        )
    return tuple(by_id[i.lower()] for i in ids)
