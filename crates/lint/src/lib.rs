//! Multi-pass grammar static analysis with spanned diagnostics.
//!
//! The conflict engine fires only *after* table construction finds a
//! conflict, but many grammar defects that cause (or silently mask)
//! conflicts are detectable by pure static analysis: unreachable and
//! unproductive symbols, duplicate productions, derivation cycles, hidden
//! left recursion behind nullable prefixes, nullable-repetition ambiguity
//! patterns, and precedence declarations that never tie-break — or worse,
//! that silenced a conflict the counterexample search can prove genuinely
//! ambiguous.
//!
//! Every pass runs over the [`Engine`], which builds the
//! conflict-independent state exactly once per grammar
//! (nullable/FIRST/reachability, the LALR automaton, resolved tables).
//! Linting a grammar whose conflicts were already analyzed
//! therefore costs no extra precomputation, and the
//! *conflict-masking* pass reuses the engine's memoized §4 spines when it
//! replays precedence-resolved conflicts through the §5 unifying search.
//!
//! Determinism: no pass consults the clock. The masking probe runs under a
//! node-count budget, so two lint runs of the same grammar are
//! byte-identical — a requirement for the committed corpus snapshots.
//!
//! # Quick start
//!
//! ```
//! use lalrcex_core::Engine;
//! use lalrcex_grammar::Grammar;
//! use lalrcex_lint::{Linter, Severity};
//!
//! let g = Grammar::parse("%% s : 'x' ; dead : 'y' ;")?;
//! let diags = Linter::new().run(&Engine::new(&g));
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code.name, "unreachable-nonterminal");
//! assert_eq!(diags[0].severity, Severity::Warning);
//! assert!(diags[0].span.is_some(), "diagnostics carry source lines");
//! # Ok::<(), lalrcex_grammar::GrammarError>(())
//! ```

#![forbid(unsafe_code)]

use lalrcex_core::Engine;

mod passes;
mod render;
pub mod snapshot;

pub use passes::PASSES;
pub use render::{diagnostics_json, render_json, render_text};

/// How bad a [`Diagnostic`] is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational — surfaced, never affects the exit code.
    Info,
    /// Suspicious pattern; exit code only with `--deny-warnings`.
    Warning,
    /// A defect (e.g. an unproductive nonterminal): nonzero exit code.
    Error,
}

impl Severity {
    /// Lower-case label used by both the text and JSON renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A stable identifier for a lint pass: a short numeric id (`L00x`) plus a
/// kebab-case name, both printed in reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LintCode {
    /// Stable short id, e.g. `"L001"`.
    pub id: &'static str,
    /// Human-readable kebab-case name, e.g. `"unreachable-nonterminal"`.
    pub name: &'static str,
}

/// A source location in the grammar DSL (1-based line).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
}

/// A secondary location attached to a [`Diagnostic`] (e.g. "first defined
/// here" for a duplicate production).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Related {
    /// What this location contributes.
    pub message: String,
    /// Where, when known.
    pub span: Option<Span>,
}

/// One finding of a lint pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Which pass produced it.
    pub code: LintCode,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Primary source location, when the grammar carries line info.
    pub span: Option<Span>,
    /// Secondary locations.
    pub related: Vec<Related>,
}

/// One built-in lint pass: an entry of [`PASSES`].
pub struct Pass {
    /// The stable code of this pass.
    pub code: LintCode,
    /// One-line description (shown by `lalrcex lint --list`).
    pub description: &'static str,
    /// Appends this pass's findings, tagged with `code`, to the vector.
    run: fn(&Engine<'_>, LintCode, &mut Vec<Diagnostic>),
}

/// Runs every pass of [`PASSES`].
#[derive(Default)]
pub struct Linter;

impl Linter {
    /// A linter; its passes are the fixed [`PASSES`] table.
    pub fn new() -> Linter {
        Linter
    }

    /// Runs every pass, in code order, over an engine (one conflict
    /// analysis may already have built its tables and provenance).
    /// Diagnostics are sorted by (line, code, message) for deterministic
    /// output.
    pub fn run(&self, engine: &Engine<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for pass in &PASSES {
            (pass.run)(engine, pass.code, &mut out);
        }
        out.sort_by(|a, b| {
            let ka = (a.span.map_or(0, |s| s.line), a.code.id, &a.message);
            let kb = (b.span.map_or(0, |s| s.line), b.code.id, &b.message);
            ka.cmp(&kb)
        });
        out
    }
}

/// The highest severity present, if any — drives CLI exit codes.
pub fn worst_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalrcex_grammar::Grammar;

    /// Lints `g` on a fresh engine (the unit tests' shorthand).
    pub(crate) fn lint(g: &Grammar) -> Vec<Diagnostic> {
        Linter::new().run(&Engine::new(g))
    }

    #[test]
    fn registry_reports_eleven_codes() {
        let codes: Vec<&str> = PASSES.iter().map(|p| p.code.id).collect();
        assert_eq!(codes.len(), 11);
        let mut dedup = codes.clone();
        dedup.dedup();
        assert_eq!(codes, dedup, "codes are unique and ordered");
        assert!(codes.len() >= 8, "ISSUE acceptance: >= 8 distinct codes");
    }

    #[test]
    fn clean_grammar_is_clean() {
        let g = Grammar::parse("%% s : s 'a' | 'a' ;").unwrap();
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn linting_a_clean_grammar_leaves_the_graph_unbuilt() {
        let g = Grammar::parse("%% s : s 'a' | 'a' ;").unwrap();
        let engine = Engine::new(&g);
        assert!(Linter::new().run(&engine).is_empty());
        assert_eq!(
            engine.precompute_times().state_graph,
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn masking_probes_are_charged_to_the_engine() {
        let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
        let engine = Engine::new(&g);
        // Build every other memoized layer first, so only the probe memo
        // can move the charge.
        let res = engine.tables().resolutions()[0];
        engine.spine(&engine.resolved_conflict(&res).unwrap());
        engine.provenance().unwrap();
        let before = engine.estimated_bytes();
        let diags = Linter::new().run(&engine);
        assert!(diags.iter().any(|d| d.code.id == "L009"));
        let after = engine.estimated_bytes();
        assert!(after > before, "probe memo charged: {before} -> {after}");
        assert_eq!(Linter::new().run(&engine), diags);
        assert_eq!(engine.estimated_bytes(), after, "a warm lint adds nothing");
    }

    #[test]
    fn worst_severity_orders() {
        let g = Grammar::parse("%% s : 'x' ; dead : loopy ; loopy : loopy 'y' ;").unwrap();
        let diags = lint(&g);
        assert_eq!(worst_severity(&diags), Some(Severity::Error));
        assert!(worst_severity(&[]).is_none());
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let g =
            Grammar::parse("%token UNUSED1 UNUSED2\n%% s : 'x' ;\ndead1 : 'a' ;\ndead2 : 'b' ;\n")
                .unwrap();
        let a = lint(&g);
        let b = lint(&g);
        assert_eq!(a, b);
        let lines: Vec<u32> = a.iter().filter_map(|d| d.span.map(|s| s.line)).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
