//! The corpus-wide lint snapshot: every Table 1 grammar plus a set of
//! fixture grammars (one per lint code) linted with default tunables,
//! rendered as one deterministic text document.
//!
//! The document is committed at `crates/lint/snapshots/corpus.lint` and
//! checked by both the crate's snapshot test and `scripts/check.sh` (via
//! the `lint-snapshot` binary), so any change to a pass's findings shows
//! up as a reviewable diff rather than a silent behavior shift.
//!
//! Determinism: passes are clock-free (the masking probe is bounded by a
//! node budget, not wall time) and diagnostics are sorted, so the snapshot
//! is byte-identical across runs and machines.

use crate::{Diagnostic, Linter};
use lalrcex_core::Engine;
use lalrcex_grammar::Grammar;
use std::collections::BTreeMap;

/// A fixture grammar: a small hand-built pathology exercising one pass.
pub struct Fixture {
    /// Short name (doubles as the rendered "file" name).
    pub name: &'static str,
    /// The lint code the fixture is designed to trigger.
    pub expect: &'static str,
    /// Grammar DSL text.
    pub text: &'static str,
}

/// The fixture set, one per diagnostic code L001–L011, in code order.
pub fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "unreachable",
            expect: "L001",
            text: include_str!("../fixtures/unreachable.y"),
        },
        Fixture {
            name: "unproductive",
            expect: "L002",
            text: include_str!("../fixtures/unproductive.y"),
        },
        Fixture {
            name: "unused_terminal",
            expect: "L003",
            text: include_str!("../fixtures/unused_terminal.y"),
        },
        Fixture {
            name: "duplicate",
            expect: "L004",
            text: include_str!("../fixtures/duplicate.y"),
        },
        Fixture {
            name: "cycle",
            expect: "L005",
            text: include_str!("../fixtures/cycle.y"),
        },
        Fixture {
            name: "hidden_left",
            expect: "L006",
            text: include_str!("../fixtures/hidden_left.y"),
        },
        Fixture {
            name: "nullable_rep",
            expect: "L007",
            text: include_str!("../fixtures/nullable_rep.y"),
        },
        Fixture {
            name: "unused_prec",
            expect: "L008",
            text: include_str!("../fixtures/unused_prec.y"),
        },
        Fixture {
            name: "masked_ambiguity",
            expect: "L009",
            text: include_str!("../fixtures/masked_ambiguity.y"),
        },
        Fixture {
            name: "merge_artifact",
            expect: "L010",
            text: include_str!("../fixtures/merge_artifact.y"),
        },
        Fixture {
            name: "provenance",
            expect: "L011",
            text: include_str!("../fixtures/provenance.y"),
        },
    ]
}

/// Lints every fixture and every corpus grammar and renders the combined
/// snapshot document.
pub fn corpus_snapshot() -> String {
    let mut out = String::new();
    out.push_str("# lalrcex lint snapshot: fixtures + Table 1 corpus.\n");
    out.push_str("# Regenerate: cargo run -p lalrcex-lint --bin lint-snapshot -- --update\n");
    let mut totals: BTreeMap<&'static str, (String, usize)> = BTreeMap::new();
    for f in fixtures() {
        let g = Grammar::parse(f.text)
            .unwrap_or_else(|e| panic!("fixture {} fails to parse: {e}", f.name));
        let diags = Linter::new().run(&Engine::new(&g));
        push_section(&mut out, &format!("fixture:{}", f.name), &diags);
        tally(&mut totals, &diags);
    }
    for e in lalrcex_corpus::all() {
        let g = e
            .load()
            .unwrap_or_else(|err| panic!("corpus {} fails to parse: {err}", e.name));
        let diags = Linter::new().run(&Engine::new(&g));
        push_section(&mut out, &format!("corpus:{}", e.name), &diags);
        tally(&mut totals, &diags);
    }
    out.push_str("== totals ==\n");
    for (id, (name, n)) in &totals {
        out.push_str(&format!("{id} {name}: {n}\n"));
    }
    out
}

/// Per-grammar diagnostic counts over the corpus: `(name, counts-by-code)`.
/// Used by the `lint-snapshot --table` mode to produce the EXPERIMENTS.md
/// markdown table.
pub fn corpus_counts() -> Vec<(String, BTreeMap<&'static str, usize>)> {
    lalrcex_corpus::all()
        .iter()
        .map(|e| {
            let g = e.load().expect("corpus grammar parses");
            let mut counts = BTreeMap::new();
            for d in Linter::new().run(&Engine::new(&g)) {
                *counts.entry(d.code.id).or_insert(0) += 1;
            }
            (e.name.to_owned(), counts)
        })
        .collect()
}

fn push_section(out: &mut String, name: &str, diags: &[Diagnostic]) {
    out.push_str(&format!("== {name} ==\n"));
    if diags.is_empty() {
        out.push_str("(clean)\n");
    } else {
        out.push_str(&crate::render_text(
            name.split(':').nth(1).unwrap_or(name),
            diags,
        ));
    }
}

fn tally(totals: &mut BTreeMap<&'static str, (String, usize)>, diags: &[Diagnostic]) {
    for d in diags {
        let e = totals
            .entry(d.code.id)
            .or_insert_with(|| (d.code.name.to_owned(), 0));
        e.1 += 1;
    }
}

/// Path of the committed snapshot file.
pub fn snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("snapshots/corpus.lint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    /// One full corpus run shared by the tests below (the corpus includes
    /// the full C/Java grammars, so a run is not free in debug builds).
    fn cached() -> &'static str {
        static SNAP: OnceLock<String> = OnceLock::new();
        SNAP.get_or_init(corpus_snapshot)
    }

    /// The committed snapshot matches a fresh run. Regenerate with
    /// `UPDATE_LINT_SNAPSHOT=1 cargo test -p lalrcex-lint` or the
    /// `lint-snapshot --update` binary.
    #[test]
    fn committed_snapshot_is_current() {
        let fresh = cached();
        let path = snapshot_path();
        if std::env::var_os("UPDATE_LINT_SNAPSHOT").is_some() {
            std::fs::write(&path, fresh).expect("write snapshot");
            return;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e} (run with UPDATE_LINT_SNAPSHOT=1)",
                path.display()
            )
        });
        assert_eq!(
            committed, fresh,
            "snapshot drift; regenerate with UPDATE_LINT_SNAPSHOT=1"
        );
    }

    /// Every fixture triggers the code it was written for.
    #[test]
    fn fixtures_cover_every_code() {
        let mut seen = BTreeSet::new();
        for f in fixtures() {
            let g = Grammar::parse(f.text).unwrap();
            let diags = Linter::new().run(&Engine::new(&g));
            assert!(
                diags.iter().any(|d| d.code.id == f.expect),
                "fixture {} should trigger {}; got {:?}",
                f.name,
                f.expect,
                diags.iter().map(|d| d.code.id).collect::<Vec<_>>()
            );
            seen.insert(f.expect);
        }
        assert!(seen.len() >= 8, "acceptance: >= 8 distinct codes covered");
    }

    /// ISSUE acceptance: the masking pass flags at least one
    /// precedence-resolved genuine ambiguity in the Table 1 corpus.
    #[test]
    fn corpus_has_a_masked_ambiguity() {
        let snap = cached();
        let corpus_part = snap.split("== corpus:").skip(1).collect::<String>();
        assert!(
            corpus_part.contains("conflict-masking-resolution/L009"),
            "expected >= 1 L009 finding over the corpus"
        );
    }

    /// ISSUE acceptance: at least one Table 1 corpus conflict is an LALR
    /// merge artifact, pinned here with its merged-core provenance.
    #[test]
    fn corpus_has_a_merge_artifact() {
        let snap = cached();
        let corpus_part = snap.split("== corpus:").skip(1).collect::<String>();
        assert!(
            corpus_part.contains("lalr-merge-artifact/L010"),
            "expected >= 1 L010 finding over the corpus"
        );
        assert!(
            corpus_part.contains("canonical LR(1) variants"),
            "merge evidence (merged cores) rides in the message"
        );
    }

    /// Two full corpus snapshot runs are byte-identical (clock-free).
    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(corpus_snapshot(), cached());
    }
}
