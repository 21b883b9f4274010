#!/usr/bin/env bash
# Unsafe-code gate: every crate root must carry `#![forbid(unsafe_code)]`,
# except the one documented exception, which carries `#![deny(unsafe_code)]`
# plus a single scoped `#[allow(unsafe_code)]`:
#
#   * crates/cli/src/main.rs — the SIGINT handler (libc signal plumbing)
#
# No other file may contain an `unsafe` block, fn, impl, or trait.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Crate roots that must forbid unsafe code outright.
forbid_roots=(
  src/lib.rs
  crates/baselines/src/lib.rs
  crates/bench/src/lib.rs
  crates/core/src/lib.rs
  crates/corpus/src/lib.rs
  crates/earley/src/lib.rs
  crates/grammar/src/lib.rs
  crates/lint/src/lib.rs
  crates/lr/src/lib.rs
  crates/yacc/src/lib.rs
  crates/bench/src/bin/figures.rs
  crates/bench/src/bin/ppg_compare.rs
  crates/bench/src/bin/table1.rs
  crates/lint/src/bin/lint_snapshot.rs
)
for f in "${forbid_roots[@]}"; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$f"; then
    echo "unsafe-gate: $f lacks #![forbid(unsafe_code)]"
    fail=1
  fi
done

# The documented exception denies (not forbids) so one scoped allow works.
deny_roots=(
  crates/cli/src/main.rs
)
for f in "${deny_roots[@]}"; do
  if ! grep -q '^#!\[deny(unsafe_code)\]' "$f"; then
    echo "unsafe-gate: $f lacks #![deny(unsafe_code)]"
    fail=1
  fi
done

# Actual unsafe code may only appear in the excepted file.
allowed='^crates/cli/src/main\.rs:'
hits=$(grep -rnE 'unsafe (\{|fn|impl|trait)' --include='*.rs' src crates tests 2>/dev/null |
  grep -vE "$allowed" || true)
if [[ -n "$hits" ]]; then
  echo "unsafe-gate: unsafe code outside the documented exceptions:"
  echo "$hits"
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "unsafe-gate: FAILED"
  exit 1
fi
echo "unsafe-gate: OK"
