"""Shared helpers for the benchmark harness.

``bench_experiments.py`` regenerates every row of the claims table
(:data:`repro.analysis.EXPERIMENTS`, DESIGN.md §3) and prints its report
through :func:`emit`.  Because pytest captures
file descriptors during the run, emitted artifacts are buffered and
flushed into the terminal summary after capture ends — so the rows appear
in ``pytest benchmarks/ --benchmark-only`` output (and anything it is
piped to) without requiring ``-s``.

Smoke mode: ``pytest benchmarks --smoke`` shrinks every benchmark's
workload to the tiny values its :func:`param` calls declare, so a CI
job can execute every ``bench_*.py`` end to end in seconds — benches
can't silently rot between full runs.

Every benchmark run also emits an observability snapshot of the
canonical ``steady`` scenario (:mod:`repro.scenarios`) into the
artifact section, so the benchmark history carries the telemetry
baseline alongside the paper tables.
"""

from typing import List, TypeVar

_EMITTED: List[str] = []
_SMOKE = False

T = TypeVar("T")


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run benchmarks with tiny workloads (CI rot check)",
    )


def pytest_configure(config):
    global _SMOKE
    _SMOKE = config.getoption("--smoke")


def smoke_mode() -> bool:
    """True when the run was started with ``--smoke``."""
    return _SMOKE


def param(full: T, smoke: T) -> T:
    """Pick a benchmark parameter by mode: *full* fidelity or *smoke*.

    Call at module level or inside a benchmark body; collection happens
    after ``pytest_configure``, so both see the final mode.
    """
    return smoke if _SMOKE else full


def pedantic_args() -> dict:
    """Standard ``benchmark.pedantic`` settings for artifact benches.

    Smoke mode shrinks to one cold round — enough to prove the driver
    still runs and its assertions still hold, with no timing fidelity.
    """
    if _SMOKE:
        return {"rounds": 1, "iterations": 1, "warmup_rounds": 0}
    return {"rounds": 3, "iterations": 1, "warmup_rounds": 1}


def emit(text: str) -> None:
    """Queue experiment output for the post-run terminal summary."""
    _EMITTED.append(text)


def _emit_obs_snapshot() -> None:
    """Append the steady-scenario observability snapshot artifact."""
    from repro import scenarios

    run = scenarios.get("steady")(seconds=param(4.0, 1.0)).run()
    _EMITTED.append(
        "observability snapshot (steady scenario, deterministic):\n"
        + run.snapshot()
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _emit_obs_snapshot()
    terminalreporter.section("reproduced paper artifacts")
    for text in _EMITTED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
