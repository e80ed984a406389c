#!/usr/bin/env bash
# Continuous-integration entry point: lint, the docs' module names, the
# line ledger, the one-durable-writer check, the DES event-count budget,
# the tier-1 test suite, an
# import check of every benchmark and example,
# the fault/recovery and cross-validation smokes, and the host-time
# benchmark's smoke run.
#
# Usage: scripts/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff lint =="
  ruff check src tests benchmarks examples
else
  echo "== ruff lint == (skipped: ruff not installed)"
fi

echo
echo "== docs-modules (a backticked pkg.module in DESIGN.md / docs/*.md must exist) =="
python scripts/check_docs_modules.py

echo
echo "== loc (the ROADMAP line ledger: src/ and tests/ Python lines) =="
for tree in src tests; do
  echo "$tree/ $(find "$tree" -name '*.py' | xargs cat | wc -l)"
done

echo
echo "== durable-writes (tmp sibling + fsync + rename is spelled once, in repro/durable.py) =="
if grep -rnE 'os\.replace|\.tmp' src/repro --include='*.py' | grep -v '^src/repro/durable\.py:'; then
  echo "durable-writes: make files durable through repro.durable.atomic_write" >&2
  exit 1
fi
echo "durable-writes: clean"

echo
echo "== DES event budget (exact counts: a per-hop relay fails here, not by timing) =="
python -m pytest -q -p no:cacheprovider tests/sim/test_event_budget.py

echo
echo "== tier-1 test suite =="
python -m pytest -x -q "$@" tests/

echo
echo "== benchmarks + examples import check (a deleted name must not go unseen) =="
python -m pytest --co -q -p no:cacheprovider benchmarks >/dev/null
python -m compileall -q examples
python - <<'PY'
import importlib.util
import pathlib

for path in sorted(pathlib.Path("examples").glob("*.py")):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
print("examples import clean")
PY

echo
echo "== seeded fault smoke (reliable recovery must stay bit-exact) =="
python -m repro faults --seed 7 --drop 0.01 --corrupt 0.002 --windows 1

echo
echo "== seeded fault smoke (no-retry must produce the watchdog diagnostic) =="
python -m repro faults --seed 7 --drop 0.02 --windows 1 --no-retry

echo
echo "== crash-recovery smoke (mid-run node death must self-heal bit-exact) =="
python -m repro faults --crash 1@auto | tee fault_recovery_report.txt

echo
echo "== crash-recovery smoke (no-recover must fail with a structured error) =="
python -m repro faults --crash 1@auto --no-recover | tee -a fault_recovery_report.txt

echo
echo "== traced smoke (Chrome trace JSON must validate against the schema) =="
python -m repro trace /tmp/trace_smoke.json --windows 1
python - <<'PY'
import json

from repro.obs.schema import assert_valid, validate_chrome_trace

with open("/tmp/trace_smoke.json") as fh:
    obj = json.load(fh)
assert_valid(validate_chrome_trace(obj), "trace smoke")
print(f"trace smoke: {len(obj['traceEvents'])} events validate")
PY

echo
echo "== backend cross-validation gate (cheap tiers within 5% of DES) =="
python -m repro backend --crossval

echo
echo "== fault-campaign smoke (bit-exact, bounded slowdown, no false evictions) =="
python -m repro campaign --smoke --out benchmarks/out

echo
echo "== topology scoreboard smoke (every fabric within 10% of its DES) =="
python -m repro pfpp --topology all --crossval

echo
echo "== mixed-precision tuning smoke (gated search must converge) =="
python -m repro tune-precision --smoke --out benchmarks/out

echo
echo "== machine-readable benchmarks (schema'd BENCH_*.json) =="
python -m pytest -q -p no:cacheprovider --benchmark-disable \
  benchmarks/bench_fig02_logp.py \
  benchmarks/bench_fig08_globalsum.py \
  benchmarks/bench_fig09_coupled.py \
  benchmarks/bench_collectives.py \
  benchmarks/bench_service_throughput.py \
  benchmarks/bench_backend.py \
  benchmarks/bench_straggler.py \
  benchmarks/bench_topology_pfpp.py \
  benchmarks/bench_precision.py

python - <<'PY'
from repro.obs.bench import read_bench

record = read_bench("benchmarks/out/BENCH_topology.json")
rows = record["data"]["rows"]
gate = record["data"]["crossval_gate"]
worst = max(record["model_error"].values())
assert worst <= gate, f"topology crossval {worst:.1%} exceeds {gate:.0%}"
print(f"BENCH_topology.json validates: {len(rows)} rows, worst crossval {worst:.2%}")

record = read_bench("benchmarks/out/BENCH_precision.json")
data = record["data"]
assert data["wire"]["reduction"] >= data["reduction_gate"], (
    f"wire-byte reduction {data['wire']['reduction']:.0%} below "
    f"{data['reduction_gate']:.0%}"
)
for topo, shift in data["pfpp_shift"].items():
    assert shift["speedup_ps"] > 1.0, f"{topo}: no Pfpp,ps gain from tuned wire"
print(
    f"BENCH_precision.json validates: {data['n_evaluations']} evaluations, "
    f"{data['wire']['reduction']:.0%} wire-byte reduction, "
    f"Pfpp,ps x{min(s['speedup_ps'] for s in data['pfpp_shift'].values()):.2f}"
    "..."
    f"x{max(s['speedup_ps'] for s in data['pfpp_shift'].values()):.2f}"
)
PY

echo
echo "== chaos smoke (SIGKILL'd workers + service: nothing lost, bit-exact) =="
python -m repro service --chaos --seed 0 --jobs 12 --workers 4 --max-wall 45

echo
echo "== host-time benchmark smoke (crossval band, bit-exact digests, no DeprecationWarning) =="
python3 perf/run.py --smoke

echo
echo "ci.sh: all checks passed"
