"""``python -m bench``: run the benchmark, or compare two result files.

``run --workload NAME`` measures one workload in this interpreter and
ends with the driver's one-line JSON result.  ``run`` without a
workload measures all five, each in a fresh interpreter, one after the
other — so ``peak_rss_mb`` is per workload and no heap leaks from one
workload into the next — and writes one result file.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from bench import OUT_DIR, ROOT, catalog


def _run_seconds() -> int:
    """``run_seconds`` of BENCHMARK.json (10 if it is absent)."""
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"
        ])
    except (OSError, ValueError, KeyError):
        return 10


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: Dict) -> None:
    """Every metric by name with its unit, then checks and the digest."""
    name = report["workload"]
    print(f"== {name} (seed {report['seed']}, {report['reps']} repetitions, "
          f"{report['mode']}{', smoke' if report['smoke'] else ''})")
    for metric, entry in report["metrics"].items():
        line = f"  {metric:<32} {_format(entry['value']):>14} {entry['unit']}"
        if "q1" in entry:
            line += (f"   q1 {_format(entry['q1'])}  q3 {_format(entry['q3'])}"
                     f"  n={entry['n']}  as measured "
                     f"{_format(entry['as_measured'])}")
        elif "base" in entry:
            line += f"   exact, {entry['base']}"
        print(line)
    for layer, entry in report.get("layers", {}).items():
        print(f"  self-time {layer:<22} {entry['self_s']:>10.4f} s "
              f"{100 * entry['share']:6.2f} %")
    if report.get("missing_targets"):
        print(f"  missing wrap targets: {report['missing_targets']}")
    print(f"  sim_digest {report['sim_digest']}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}  "
          f"correct {report['correct']}")
    for violation in report["violations"]:
        print(f"  VIOLATION: {violation}")


def _run_one(args, name: str) -> int:
    """Measure *name* here; the last line printed is the driver's."""
    # Imported late: in a directory without src/ this is what fails, and
    # it must fail before any result is printed.
    try:
        from bench import harness
    except ImportError as error:
        print(f"bench: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else OUT_DIR
    if args.trace:
        report = harness.trace_pass(name, args.seed, args.smoke, out_dir)
    else:
        report = harness.measure(name, args.seed, args.seconds, args.smoke)
    print_report(report)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1))
    print(harness.contract_line(report))
    return 0 if report["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own interpreter; one combined result file."""
    out_dir = Path(args.out_dir) if args.out_dir else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "result"
    reports: Dict[str, Dict] = {}
    status = 0
    for name in catalog.WORKLOADS:
        part = out_dir / f"{mode}-{name}.part.json"
        command = [
            sys.executable, "-m", "bench", "run", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(part),
            "--out-dir", str(out_dir),
        ]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT)
        status = status or done.returncode
        if part.exists():
            reports[name] = json.loads(part.read_text())
            part.unlink()
    combined = {
        "schema": 1,
        "mode": mode,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": reports,
    }
    target = Path(args.out) if args.out else out_dir / f"{mode}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(combined, indent=1))
    print(f"wrote {target}")
    return status


def _run(args) -> int:
    if args.workload is not None:
        return _run_one(args, args.workload)
    return _run_all(args)


def _compare(args) -> int:
    from bench import compare

    return compare.main(Path(args.baseline), Path(args.candidate))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one or all workloads")
    run.add_argument("--workload", choices=list(catalog.WORKLOADS))
    run.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    run.add_argument(
        "--seconds", type=float, default=_run_seconds(),
        help="how long the timed repetitions of one workload go on",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: wrap the layers and report per-layer metrics instead",
    )
    run.add_argument("--smoke", action="store_true",
                     help="sizes about 20x smaller, for the self-test")
    run.add_argument("--out", help="write the full report here")
    run.add_argument("--out-dir", help="where trace files go (bench/out)")
    run.set_defaults(handler=_run)
    compare = commands.add_parser(
        "compare", help="apply each metric's bound to two result files"
    )
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return args.handler(args)
