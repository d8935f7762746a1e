#!/usr/bin/env python3
"""List the `src/` functions that no non-test entry point ever enters.

Each entry point below runs in its own interpreter under a
``sys.settrace`` call hook that records every code object of
``src/repro`` it enters (no line events).  The union of those sets is
set against every ``def`` in ``src/repro``; what is left is code only
tests reach: a candidate for deletion, or for a stated reason to keep
it (a test oracle, an integrity check, a fixture of the paper's curves).

    python scripts/census.py           # per-module totals, then each function
    python scripts/census.py --json    # the unreached functions as JSON

The entry points are the benchmark's five workloads at smoke size, plain
and traced (one per interpreter: ``bench run`` without ``--workload``
would re-run each in a subprocess the hook does not follow), every row
of the claims table, every registered scenario through each of the four
CLI scenario views (``run`` also with ``--json``), the ``demo`` /
``profiles`` / ``policy`` commands, every example, and the
``benchmarks/`` cases at smoke size (``pytest benchmarks --smoke``).
Opt-in: ``scripts/check.sh`` does not run it.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

BENCH_WORKLOADS = (
    "cluster_hot", "server_cold", "lifecycle_overload", "failover_observed",
    "record_edit_play",
)
SCENARIOS = (
    "cluster-scale", "fault", "scale", "server-fault", "server-hot",
    "server-steady", "steady",
)
EXAMPLES = (
    "admission_capacity.py", "fault_tolerance.py", "news_editing.py",
    "quickstart.py", "trick_play.py", "unified_server.py", "video_mail.py",
)

#: Run in each traced interpreter: argv[1] is where the exit status and
#: the entered code objects go, argv[2] is ``module`` or ``path``,
#: argv[3] what to run, and the rest its own argv.
HOOK = r"""
import json, os, runpy, sys
out, kind, target, *argv = sys.argv[1:]
src = os.path.abspath("src/repro") + os.sep
entered = set()

def hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        entered.add((code.co_filename, code.co_firstlineno))
    return None

sys.argv, status = [target, *argv], 0
sys.settrace(hook)
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(target, run_name="__main__")
except SystemExit as stop:
    status = stop.code
finally:
    sys.settrace(None)
    with open(out, "w") as handle:
        json.dump({"status": status, "entered": sorted(entered)}, handle)
"""


def entry_points(scratch):
    """``(label, kind, target, argv)`` for every traced run."""
    points = []
    for name in BENCH_WORKLOADS:
        for trace in ("0", "1"):
            out = os.path.join(scratch, f"{name}-{trace}")
            points.append((
                f"bench {name} --trace {trace}", "module", "bench",
                ["run", "--workload", name, "--smoke", "--trace", trace,
                 "--out", out + ".json", "--out-dir", out],
            ))
    points.append(("experiments", "module", "repro", ["experiments"]))
    for command in ("demo", "profiles", "policy"):
        points.append((command, "module", "repro", [command]))
    for scenario in SCENARIOS:
        common = ["--scenario", scenario, "--smoke"]
        trace = os.path.join(scratch, f"{scenario}.trace.json")
        for view, extra in (
            ("run", []), ("run", ["--json"]), ("obs-report", []),
            ("profile", []),
            ("trace-export", ["--profile", "--out", trace]),
        ):
            points.append((
                f"{view} {scenario}", "module", "repro", [view, *common, *extra],
            ))
    for example in EXAMPLES:
        points.append((
            f"examples/{example}", "path", str(ROOT / "examples" / example), [],
        ))
    points.append((
        "pytest benchmarks --smoke", "module", "pytest",
        ["benchmarks", "--smoke", "-q", "-p", "no:cacheprovider"],
    ))
    return points


def definitions():
    """Every ``def`` in ``src/repro``: ``(path, first line) -> (module,
    qualified name, lines, enclosing key or None)``.  A decorated
    function's code starts at its first decorator."""
    found = {}

    def visit(node, path, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                key = (str(path), first)
                name = prefix + child.name
                found[key] = (
                    module, name, child.end_lineno - first + 1, parent,
                )
                visit(child, path, module, name + ".<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".", parent)
            else:
                visit(child, path, module, prefix, parent)

    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).as_posix()
        visit(ast.parse(path.read_text()), path.resolve(), module, "", None)
    return found


def census():
    """Run every entry point; return the definitions and the entered keys."""
    entered = set()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])
    ))
    with tempfile.TemporaryDirectory() as scratch:
        for label, kind, target, argv in entry_points(scratch):
            out = os.path.join(scratch, "entered.json")
            done = subprocess.run(
                [sys.executable, "-c", HOOK, out, kind, target, *argv],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if not os.path.exists(out):
                raise SystemExit(f"census: {label} recorded nothing:\n"
                                 f"{done.stderr}")
            with open(out) as handle:
                run = json.load(handle)
            os.unlink(out)
            entered |= {
                (os.path.realpath(path), line) for path, line in run["entered"]
            }
            print(f"traced {label} (exit {run['status'] or 0})",
                  file=sys.stderr, flush=True)
    return definitions(), entered


def unreached(found, entered):
    """The definitions never entered, and their physical lines (a nested
    function's lines are counted once, in its outermost unreached def)."""
    missing = {key: value for key, value in found.items() if key not in entered}
    rows = []
    for key, (module, name, lines, parent) in sorted(
        missing.items(), key=lambda item: (item[1][0], item[0][1])
    ):
        counted = 0 if parent in missing else lines
        rows.append({"module": module, "function": name, "line": key[1],
                     "lines": lines, "counted_lines": counted})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="print the unreached functions as JSON")
    args = parser.parse_args(argv)
    found, entered = census()
    rows = unreached(found, entered)
    total_lines = sum(row["counted_lines"] for row in rows)
    if args.json:
        print(json.dumps({
            "functions": len(found), "unreached": len(rows),
            "unreached_lines": total_lines, "rows": rows,
        }, indent=1))
        return 0
    per_module = defaultdict(lambda: [0, 0])
    for row in rows:
        per_module[row["module"]][0] += 1
        per_module[row["module"]][1] += row["counted_lines"]
    for module, (count, lines) in sorted(
        per_module.items(), key=lambda item: -item[1][1]
    ):
        print(f"{lines:6d} lines {count:4d} functions  {module}")
    print()
    for row in rows:
        print(f"{row['module']}:{row['line']}  {row['function']}"
              f"  ({row['lines']} lines)")
    print(f"\n{len(rows)} of {len(found)} functions in src/ ({total_lines} "
          "lines) are entered by no entry point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
