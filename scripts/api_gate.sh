#!/usr/bin/env bash
# Public-API gate for the `lalrcex` facade crate.
#
# The deliberate public surface (src/lib.rs, src/api/*, src/service.rs,
# src/build.rs, src/prng.rs, and crates/core/src/json.rs, which
# src/api/json.rs re-exports) is snapshotted, one declaration per line,
# into snapshots/public_api.txt. Any drift — a new `pub` item, a changed
# signature line, a removed re-export — fails the gate until the snapshot
# is regenerated and the diff reviewed in the same change:
#
#   scripts/api_gate.sh            # compare against the snapshot (CI)
#   scripts/api_gate.sh --update   # regenerate the snapshot
#
# The extractor is textual (first line of every `pub` declaration, doc
# attributes like #[doc(hidden)] carried when adjacent), so it is a
# tripwire for *undeclared* surface changes, not a full semver checker:
# continuation lines of multi-line signatures are not tracked.
set -euo pipefail
cd "$(dirname "$0")/.."

SNAPSHOT=snapshots/public_api.txt
FILES=(src/lib.rs src/api/mod.rs src/api/source.rs src/api/json.rs crates/core/src/json.rs src/api/report_json.rs src/service.rs src/build.rs src/prng.rs)

extract() {
  for f in "${FILES[@]}"; do
    echo "## $f"
    # One line per `pub` declaration (items and inherent/impl methods),
    # with #[doc(hidden)] markers folded onto the following declaration;
    # trailing bodies, `where` clauses, and semicolons stripped.
    awk '
      /^[[:space:]]*#\[doc\(hidden\)\]/ { hidden = 1; next }
      /^[[:space:]]*pub([[:space:]]|\()/ {
        line = $0
        sub(/;[[:space:]]*$/, "", line)
        # Re-export lists keep their braces (the names ARE the surface);
        # everything else drops the body opener.
        if (line !~ /pub use/) sub(/[[:space:]]*\{.*$/, "", line)
        sub(/[[:space:]]*where .*$/, "", line)
        sub(/[[:space:]]+$/, "", line)
        gsub(/^[[:space:]]+/, "", line)
        if (hidden) line = "#[doc(hidden)] " line
        print "  " line
      }
      { hidden = 0 }
    ' "$f"
  done
}

if [[ "${1:-}" == "--update" ]]; then
  mkdir -p snapshots
  extract > "$SNAPSHOT"
  echo "api_gate: wrote $SNAPSHOT ($(grep -c '^  ' "$SNAPSHOT") declarations)"
  exit 0
fi

if [[ ! -f "$SNAPSHOT" ]]; then
  echo "api_gate: $SNAPSHOT is missing; run scripts/api_gate.sh --update" >&2
  exit 1
fi

if ! diff -u "$SNAPSHOT" <(extract) > /tmp/api_gate.diff; then
  echo "api_gate: the facade's public surface drifted from $SNAPSHOT:" >&2
  cat /tmp/api_gate.diff >&2
  echo >&2
  echo "api_gate: if the change is deliberate, regenerate with" >&2
  echo "api_gate:   scripts/api_gate.sh --update" >&2
  echo "api_gate: and review the snapshot diff in the same change." >&2
  exit 1
fi
echo "api_gate: public surface matches $SNAPSHOT"
