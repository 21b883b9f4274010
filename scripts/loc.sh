#!/usr/bin/env bash
# Non-test line counts, the measure behind "the same behaviour from the
# least code" (ROADMAP.md).
#
#   scripts/loc.sh              # per crate, src/ + src/api/, API snapshot
#   scripts/loc.sh FILE...      # the same, plus one line per named file
#
# A file counts every line outside the items `#[cfg(test)]` gates: the
# attribute line and the item after it (through the `;` or the closing
# brace that ends it) are skipped, wherever in the file they stand. A
# crate counts the `.rs` files under its `src/` (binaries included;
# `tests/` and `benches/` are test code). The last
# line is the length of snapshots/public_api.txt, the facade's declared
# surface.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of each file named on stdin (one path a line), summed.
count() {
  local total=0 n f
  while IFS= read -r f; do
    n=$(awk '
      /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
      skip {
        # Brace depth of the gated item, with string and char literals
        # and line comments blanked so their braces do not count.
        code = $0
        gsub(/"(\\.|[^"\\])*"/, "\"\"", code)
        gsub(/\x27(\\.|[^\x27\\])\x27/, "\x27\x27", code)
        sub(/\/\/.*$/, "", code)
        opens = gsub(/\{/, "{", code)
        depth += opens - gsub(/\}/, "}", code)
        if (opens > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && code ~ /;[[:space:]]*$/)) skip = 0
        next
      }
      { n++ }
      END { print n + 0 }' "$f")
    total=$((total + n))
  done
  echo "$total"
}

for dir in crates/*/; do
  crate=${dir%/}
  printf '%-32s %6d\n' "$crate" "$(find "$crate/src" -name '*.rs' | sort | count)"
done
printf '%-32s %6d\n' "src/ + src/api/" "$(ls src/*.rs src/api/*.rs | count)"
for f in "$@"; do
  printf '%-32s %6d\n' "$f" "$(echo "$f" | count)"
done
printf '%-32s %6d\n' "snapshots/public_api.txt" "$(wc -l < snapshots/public_api.txt)"
