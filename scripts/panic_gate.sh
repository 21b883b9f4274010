#!/usr/bin/env bash
# Gate: no new `panic!(`, `.unwrap()`, `.expect(`, `unreachable!(`, or
# `todo!(` in the engine crates' non-test code (crates/grammar, crates/lr,
# crates/core). The engine's containment boundaries turn panics into
# structured `EngineError`s, but the cheapest contained panic is the one
# never written: internal failures should be `EngineError` values
# (crates/core/src/error.rs) or `GrammarError`s, and fallible lookups
# should return `Option`/`Result`.
#
# Test modules (everything from the first `#[cfg(test)]` to EOF, the
# repo's convention) are exempt. Genuinely intended occurrences — the
# fault-injection probes whose entire job is to panic, and `.expect`s
# documenting structural invariants whose violation *is* the bug a
# containment boundary should catch loudly — are listed in
# scripts/panic_allowlist.txt as `file|substring` lines, each with a
# justification comment. An entry that matches no occurrence also fails
# the gate: left in place, it would silently pre-approve a future panic.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist="scripts/panic_allowlist.txt"
found="$(mktemp)"
trap 'rm -f "$found"' EXIT

for f in crates/grammar/src/*.rs crates/lr/src/*.rs crates/core/src/*.rs; do
  awk -v file="$f" '
    /^#\[cfg\(test\)\]/ || /^#\[cfg\(all\(test/ { exit }
    $0 !~ /^[[:space:]]*\/\// && \
      (/panic!\(/ || /\.unwrap\(\)/ || /\.expect\(/ || /unreachable!\(/ || /todo!\(/) {
      printf "%s:%d: %s\n", file, FNR, $0
    }' "$f" >> "$found"
done

bad=0
stale=0
while IFS= read -r hit; do
  file="${hit%%:*}"
  ok=0
  while IFS='|' read -r afile apat; do
    [[ -z "$afile" || "$afile" == \#* ]] && continue
    if [[ "$file" == "$afile" && "$hit" == *"$apat"* ]]; then
      ok=1
      break
    fi
  done < "$allowlist"
  if [[ "$ok" -eq 0 ]]; then
    echo "panic-gate: forbidden panic!/unwrap()/expect()/unreachable!/todo! in engine non-test code:" >&2
    echo "  $hit" >&2
    bad=1
  fi
done < "$found"

while IFS='|' read -r afile apat; do
  [[ -z "$afile" || "$afile" == \#* ]] && continue
  used=0
  while IFS= read -r hit; do
    if [[ "${hit%%:*}" == "$afile" && "$hit" == *"$apat"* ]]; then
      used=1
      break
    fi
  done < "$found"
  if [[ "$used" -eq 0 ]]; then
    echo "panic-gate: stale allowlist entry matches no occurrence; delete it:" >&2
    echo "  $afile|$apat" >&2
    stale=1
  fi
done < "$allowlist"

if [[ "$bad" -ne 0 ]]; then
  echo "panic-gate: return a structured EngineError (crates/core/src/error.rs)" >&2
  echo "or GrammarError instead, or add a \`file|substring\` line with a" >&2
  echo "justification comment to $allowlist if the occurrence is genuinely" >&2
  echo "intended (a fault-injection probe, or an invariant whose violation" >&2
  echo "should trip a containment boundary loudly)." >&2
fi
if [[ "$bad" -ne 0 || "$stale" -ne 0 ]]; then
  exit 1
fi
echo "panic-gate: OK ($(grep -c . "$found" || true) allowlisted occurrences)"
