#!/usr/bin/env bash
# Continuous-integration entry point: lint, the docs' module names, the
# line ledger, the one-durable-writer, one-route-reader, one-rank-loop
# and one-table-formatter checks, the DES event-count and per-hop,
# per-wake and per-message call-count, GCM step call-count, service
# fork-count, cold-quote call-count and knob-count budgets, the tier-1
# test suite, an import check of every example, the fault/recovery and
# cross-validation smokes, the regenerate-and-diff of benchmarks/out/
# (virtual time), `repro report` against the seven paper artefacts, and
# the host-time benchmark's smoke run.
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
echo "== loc (the ROADMAP line ledger: Python/shell lines per tree) =="
for tree in src src/repro/cli.py src/repro/network src/repro/collectives src/repro/parallel \
            src/repro/recover src/repro/service src/repro/faults src/repro/niu tests benchmarks scripts; do
  label="$tree"; [ -d "$tree" ] && label="$tree/"
  echo "$label $(find "$tree" -name '*.py' -o -name '*.sh' | xargs cat | wc -l)"
done

echo
echo "== durable-writes (tmp sibling + fsync + rename is spelled once, in repro/durable.py) =="
if grep -rnE 'os\.replace|\.tmp' src/repro --include='*.py' | grep -v '^src/repro/durable\.py:'; then
  echo "durable-writes: make files durable through repro.durable.atomic_write" >&2
  exit 1
fi
echo "durable-writes: clean"

echo
echo "== routing-once (a machine's route is Topology.route; one router stage reads the next link off the route the packet carries) =="
# code lines only: a ``literal`` in a docstring may name the expression
readers="$(grep -rnE '\.route\[[^]]*hops' src/repro --include='*.py' | grep -v '``' || true)"
if [ "$(printf '%s\n' "$readers" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$readers" | grep -q '^src/repro/network/router\.py:' \
   || grep -rnE '_make_\w*route_fn|\.route_fn\s*=[^=]' src/repro --include='*.py'; then
  echo "routing-once: state the route on the Topology; only ArcticRouter.receive reads pkt.route[pkt.hops]:" >&2
  echo "$readers" >&2
  exit 1
fi
echo "routing-once: clean ($readers)"

echo
echo "== des-ranks-once (rank processes of a communication phase start in repro.collectives.des_exec; elsewhere only NIU/mailbox/heartbeat daemons and point-to-point microbenchmarks) =="
allowed='^src/repro/(collectives/des_exec|niu/reliable|niu/demux|recover/membership|parallel/des_collectives|core/logp|parallel/mpi)\.py:'
if grep -rnE '\.process\(' src/repro --include='*.py' | grep -vE "$allowed"; then
  echo "des-ranks-once: run the phase's rounds through repro.collectives.des_exec.start_ranks" >&2
  exit 1
fi
echo "des-ranks-once: clean"

echo
echo "== tables-once (a paper table is built in repro.core.report and formatted by its one format_table; benchmarks/ writes what that builds; no hand-aligned column in src/repro) =="
formatters="$(grep -rnE 'def format_table|\.ljust\(' src benchmarks --include='*.py' || true)"
if [ "$(printf '%s\n' "$formatters" | grep -c 'def format_table')" -ne 1 ] || printf '%s\n' "$formatters" | grep -v '^src/repro/core/report\.py:'; then
  echo "tables-once: format tables with repro.core.report.format_table (benchmarks/_tables.py re-exports it):" >&2
  echo "$formatters" >&2
  exit 1
fi
# a fixed-width format spec ({x:10s}, {x:>8.1f}) aligns a column by hand;
# benchmarks/ is exempt: bench_scaling.py pads cells of a byte-pinned artefact
if grep -rnE '\{[^{}]*:[<>^]?[1-9][0-9]*(\.[0-9]+)?[sdfeg%]?\}' src/repro --include='*.py' | grep -v '^src/repro/core/report\.py:'; then
  echo "tables-once: pass rows to repro.core.report.format_table instead of fixed-width format specs" >&2
  exit 1
fi
echo "tables-once: clean ($(printf '%s\n' "$formatters" | grep 'def format_table'))"

echo
echo "== DES event budget (exact counts: a per-hop relay, an unconditional tail-off event, or a Python call put back on the hop, on a process wake-up or on an NIU message fails here, not by timing; plus the engine clock invariants) =="
python -m pytest -q -p no:cacheprovider tests/sim/test_event_budget.py

echo
echo "== GCM step call budget (exact counts: a per-tile kernel or halo loop fails here, not by timing) =="
python -m pytest -q -p no:cacheprovider tests/gcm/test_step_budget.py

echo
echo "== service spawn budget (exact counts: a fork per attempt fails here, not by timing) =="
python -m pytest -q -p no:cacheprovider tests/service/test_spawn_budget.py

echo
echo "== cold quote budget (exact counts: a per-Send pricing loop, a per-tuner schedule rebuild, or a Send / item rule run by a quote fails here, not by timing) =="
python -m pytest -q -p no:cacheprovider tests/collectives/test_quote_budget.py

echo
echo "== knob-budget (exact counts: a settable value no caller outside tests sets fails here; it belongs in a module constant; likewise a repro flag nothing runs) =="
python tests/test_knob_budget.py
python -m pytest -q -p no:cacheprovider tests/test_knob_budget.py

echo
echo "== tier-1 test suite =="
python -m pytest -x -q "$@" tests/

echo
echo "== examples import check (a deleted name must not go unseen) =="
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
echo "== topology scoreboard smoke (every fabric within 10% of its DES) =="
python -m repro pfpp --topology all --crossval

echo
echo "== benchmarks-regen (benchmarks/out/ holds virtual-time quantities only: regenerate all of it, then diff) =="
rm -f benchmarks/out/*
python -m pytest -q -p no:cacheprovider benchmarks
python -m repro campaign --smoke --out benchmarks/out
python -m repro tune-precision --smoke --out benchmarks/out
changed="$(git diff --name-only -- benchmarks/out; git ls-files --others --exclude-standard -- benchmarks/out)"
if [ -n "$changed" ]; then
  echo "benchmarks-regen: regenerated artefacts differ from the committed ones" >&2
  echo "(a paper number moved: fix it, or commit the new file and name the cause in CHANGES.md):" >&2
  echo "$changed" >&2
  exit 1
fi
echo "benchmarks-regen: $(ls benchmarks/out | wc -l) artefacts byte-identical to the committed ones"

echo
echo "== report-is-artefact (python -m repro report KEY prints the committed paper table byte for byte) =="
for pair in fig2:fig02_logp fig7:fig07_bandwidth fig8:fig08_globalsum fig10:fig10_sustained \
            fig11:fig11_params fig12:fig12_pfpp sec53:sec53_validation; do
  python -m repro report "${pair%%:*}" | cmp - "benchmarks/out/${pair##*:}.txt"
done
echo "report-is-artefact: 7 sections byte-identical to benchmarks/out/"

echo
echo "== chaos smoke (SIGKILL'd workers + service: nothing lost, bit-exact, no process left behind) =="
chaos_dir="$(mktemp -d)"
python -m repro service --chaos --seed 0 --jobs 12 --workers 4 --max-wall 45 --dir "$chaos_dir"
# forked workers carry their service's command line
if pgrep -af -- "--serve --dir $chaos_dir"; then
  echo "chaos smoke: the processes above outlived the campaign" >&2
  exit 1
fi
echo "chaos smoke: no service or worker process of the campaign is alive"
rm -rf "$chaos_dir"

echo
echo "== host-time benchmark smoke (crossval band, bit-exact digests, no DeprecationWarning) =="
python3 perf/run.py --smoke

echo
echo "ci.sh: all checks passed"
