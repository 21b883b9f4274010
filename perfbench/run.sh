#!/usr/bin/env bash
# Builds lalrcex and the benchmark from source, then runs it:
#   bash perfbench/run.sh --workload corpus_cex --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --write-ledger
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the repo
# root). The last line of standard output is the JSON result.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p lalrcex-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/lalrcex-perfbench" \
    --lalrcex "$CARGO_TARGET_DIR/release/lalrcex" --ledger "$bench/ledger.txt" "$@"
