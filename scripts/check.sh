#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 test suite.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --quick   # skip the release build
#
# All steps run offline against the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --workspace --features failpoints -D warnings"
cargo clippy --workspace --all-targets --features failpoints -- -D warnings

if [[ "$quick" -eq 0 ]]; then
  echo "==> tier-1: cargo build --release"
  cargo build --release
fi

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> public-API gate (facade surface snapshot)"
scripts/api_gate.sh

echo "==> serve protocol + report schema"
cargo test -q --test serve_proto --test report_schema
cargo test -q -p lalrcex-cli --test cli

echo "==> determinism suite in the release build (pinned search counters, cap pins)"
cargo test -q --release --test determinism

echo "==> yacc frontend differential (committed twins) + build-script example"
cargo test -q --release --test yacc_differential
cargo run -q --release --example build_script > /dev/null

echo "==> panic gate (engine non-test code)"
scripts/panic_gate.sh

echo "==> unsafe gate (forbid everywhere; one scoped allow in the cli sigint handler)"
scripts/unsafe_gate.sh

echo "==> rustdoc (no warnings, no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib -q

echo "==> core unit tests with the fault-injection probes compiled in"
cargo test -q -p lalrcex-core --features failpoints --lib

echo "==> chaos suite (deterministic fault injection)"
cargo test -q --features failpoints --test chaos

echo "==> overload/chaos soak (seeded storms, wall-clock capped)"
timeout 600 cargo test -q -p lalrcex-cli --features failpoints --test soak

if [[ "$quick" -eq 0 ]]; then
  echo "==> search-throughput bench (smoke: tiny budget, 1 sample)"
  LALRCEX_BENCH_SMOKE=1 cargo bench -q -p lalrcex-bench --bench conflicts -- search_throughput

  echo "==> automaton bench (smoke: LALR construction on five corpus grammars)"
  LALRCEX_BENCH_SMOKE=1 cargo bench -q -p lalrcex-bench --bench conflicts -- automaton

  echo "==> verify_large smoke (ledger states and productions, all five input classes)"
  last=$(bash perfbench/run.sh --workload verify_large --seed 1 --seconds 2 --trace 0 | tail -n 1)
  if [[ "$last" != *'"correct": true'* || "$last" != *'"failed": 0'* ]]; then
    echo "verify_large smoke failed: $last" >&2
    exit 1
  fi

  echo "==> corpus_cex ledger (every pinned report hash and explored count)"
  last=$(bash perfbench/run.sh --workload corpus_cex --seed 1 --seconds 1 --trace 0 | tail -n 1)
  if [[ "$last" != *'"correct": true'* || "$last" != *'"failed": 0'* ]]; then
    echo "corpus_cex ledger check failed: $last" >&2
    exit 1
  fi

  echo "==> serve_mixed smoke (every warm analyze/explain/lint reply equals a cold run)"
  last=$(bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 2 --trace 0 | tail -n 1)
  if [[ "$last" != *'"correct": true'* || "$last" != *'"failed": 0'* ]]; then
    echo "serve_mixed smoke failed: $last" >&2
    exit 1
  fi

  echo "==> traced smoke runs (the per-layer replay finishes and agrees)"
  for run in serve_mixed:2 corpus_cex:1; do
    last=$(bash perfbench/run.sh --workload "${run%:*}" --seed 1 --seconds "${run#*:}" --trace 1 | tail -n 1)
    if [[ "$last" != *'"correct": true'* || "$last" != *'"failed": 0'* ]]; then
      echo "traced ${run%:*} smoke failed: $last" >&2
      exit 1
    fi
  done
fi

echo "==> benchmark self-tests (generator, ledger, metric names)"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> corpus lint snapshot"
cargo run -q --release -p lalrcex-lint --bin lint-snapshot -- --check

echo "==> non-test line counts (information only, not a gate)"
scripts/loc.sh crates/cli/src/main.rs crates/bench/src/lib.rs

echo "OK"
