#!/usr/bin/env bash
# One-command gate for the workspace: formatting, the static-analysis
# verify pass, an offline release build, and the test suite. CI and
# pre-push hooks should run exactly this.
#
# `check.sh --thorough` additionally runs the crash-point sweeps at
# stride 1 (every single I/O index, including the points inside the
# scrubber and the repair pipeline), repeats the concurrency suite
# ten times in a row, so a race that fails one run in a few fails the
# lane instead of passing as flaky, and runs the bench lanes at full
# scale so the wall-clock gates judge the current tree — the nightly
# lane.
set -euo pipefail
cd "$(dirname "$0")/.."

STRIDE=16
THOROUGH=0
if [ "${1:-}" = "--thorough" ]; then
  STRIDE=1
  THOROUGH=1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo xtask verify --json (vs committed VERIFY_pr7.json)"
cargo run -q -p xtask -- verify --json > /tmp/verify_now.json
cargo run -q -p xtask -- verify   # human-readable pass/fail (exit code gates)

# Effect-waiver ratchet: the set of consumed waivers (DMXnnn Site ids)
# may only shrink relative to the committed snapshot. A new waiver id
# means a new write-ahead / latch exception was added without burning
# down the baseline — that is a review event, not a routine change.
if [ -f VERIFY_pr7.json ]; then
  new_waivers=$(comm -13 \
    <(grep -oE '"id": "DMX[0-9]+ [^"]+"' VERIFY_pr7.json | sort -u) \
    <(grep -oE '"id": "DMX[0-9]+ [^"]+"' /tmp/verify_now.json | sort -u))
  if [ -n "$new_waivers" ]; then
    echo "effect waivers not present in committed VERIFY_pr7.json:"
    echo "$new_waivers"
    exit 1
  fi
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test -q --workspace

# Bounded crash-point sweep: every 16th I/O index by default; stride 1
# (every index) under --thorough. The self-heal sweep re-runs the same
# crash grid with the crash points landing inside CHECK TABLE / REPAIR
# TABLE, asserting the repair pipeline converges from any interruption.
echo "==> fault sweep (FAULT_SWEEP_STRIDE=$STRIDE)"
FAULT_SWEEP_STRIDE=$STRIDE cargo test -q --test fault_sweep
echo "==> self-heal crash sweep (FAULT_SWEEP_STRIDE=$STRIDE)"
FAULT_SWEEP_STRIDE=$STRIDE cargo test -q --test self_heal crash_sweep

if [ "$THOROUGH" = 1 ]; then
  for run in $(seq 1 10); do
    echo "==> concurrency suite, run ${run}/10"
    cargo test -q --test concurrency
  done
  echo "==> bench lanes at full scale (wall-clock gates included)"
  cargo run -q --release -p dmx-bench --bin harness -- lanes
fi

# Storage-method differential oracle: heap vs btree vs in-memory model
# over seeded statement streams.
echo "==> differential oracle"
cargo test -q --test differential

# Bench lanes and gates: every lane runs twice at smoke scale (a
# deterministic lane whose snapshot diverges fails), then the gate table
# in crates/bench/src/gates.rs judges the fresh run's counters and the
# committed BENCH_pr*.json baselines, naming each failed gate.
echo "==> bench lanes and gates (harness --check)"
cargo run -q --release -p dmx-bench --bin harness -- --check

echo "check.sh: all gates passed"
