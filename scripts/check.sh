#!/usr/bin/env bash
# The one-command CI gate: lint, tier-1 tests, the smoke experiment
# matrix against its committed baseline (docs/MATRIX.md), the scenario
# smoke runs, then the repository benchmark's smoke run and self-test.
#
#   scripts/check.sh            # everything
#   SKIP_TESTS=1 scripts/check.sh   # lint + matrix gate only
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
elif python -c 'import ruff' >/dev/null 2>&1; then
    python -m ruff check .
else
    echo "ruff not installed; skipping lint"
fi

if [ "${SKIP_TESTS:-0}" != "1" ]; then
    echo "== tier-1 pytest =="
    python -m pytest -x -q
fi

echo "== smoke experiment matrix =="
python -m repro expt run --smoke --out results/smoke
python -m repro expt gate --manifest results/smoke/matrix.json

echo "== claims table (every E-series shape verdict green) =="
python -m repro experiments >/dev/null

echo "== cluster smoke scenario (no rejects, every handoff clean) =="
python -m repro run --scenario cluster-scale --smoke --json | python -c '
import json, sys
result = json.load(sys.stdin)["result"]
assert not result["rejects"], result["rejects"]
assert result["handoffs"] and all(h["clean"] for h in result["handoffs"])
'

echo "== profiler smoke (shares sum to 1; seek + transfer == the drives' own busy time) =="
python -m repro profile --scenario scale --smoke

echo "== every registered scenario at smoke size =="
for scenario in $(python -c \
    'import repro.scenarios as s; print(" ".join(sorted(s.REGISTRY)))'); do
    python -m repro run --scenario "$scenario" --smoke
done

echo "== repository benchmark: smoke run (correctness + sim_digest), self-test =="
python3 -m bench run --smoke
python -m pytest bench -q

echo "check.sh: all gates passed"
