//! Shared harness code for regenerating the paper's evaluation (Table 1
//! and the figures). The binaries:
//!
//! * `table1` — the full Table 1 run (§7): per-grammar conflict counts,
//!   counterexample kinds, and timings, with the paper's numbers printed
//!   alongside; `--baseline` adds the grammar-filtered bounded-search
//!   column (the CFGAnalyzer stand-in).
//! * `figures` — regenerates the content of Figures 1–11 from the
//!   implementation (state dumps, lookahead-sensitive paths, search
//!   stages, the CUP-style report).
//! * `ppg_compare` — the §7.2 comparison against PPG's lookahead-blind
//!   counterexamples.

#![forbid(unsafe_code)]

pub mod micro;

use std::time::Duration;

use lalrcex_baselines::amber::Budget;
use lalrcex_baselines::filtered::{self, FilteredOutcome};
use lalrcex_core::{CexConfig, Engine, ExampleKind};
use lalrcex_corpus::CorpusEntry;

/// Everything measured for one Table 1 row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Grammar name.
    pub name: &'static str,
    /// Nonterminals (excluding `$accept`).
    pub nonterminals: usize,
    /// Productions (including the augmented one).
    pub productions: usize,
    /// Automaton states.
    pub states: usize,
    /// Conflicts reported.
    pub conflicts: usize,
    /// Conflicts that got a unifying counterexample.
    pub unifying: usize,
    /// Conflicts where the unifying search exhausted (nonunifying example).
    pub nonunifying: usize,
    /// Conflicts that timed out or were skipped (nonunifying example).
    pub timeouts: usize,
    /// Total counterexample wall-clock time.
    pub total: Duration,
    /// Product-parser configurations explored across all conflicts.
    pub explored: u64,
    /// Configurations dropped by the visited-core dedup.
    pub deduped: u64,
    /// Spine-memo hits (conflicts that reused another conflict's §4 path).
    pub memo_hits: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Conflicts classified true-ambiguity-candidate by the provenance
    /// engine.
    pub class_true: u64,
    /// Conflicts classified LALR merge artifact.
    pub class_merge: u64,
    /// Silenced resolutions (classified precedence-resolved).
    pub class_resolved: u64,
    /// Canonical LR(1) states explored by the merge check.
    pub lr1_states: usize,
    /// Wall time of the provenance precomputation.
    pub provenance_time: Duration,
    /// Baseline (grammar-filtered bounded search) time, if run.
    pub baseline: Option<(Duration, bool)>,
}

impl Row {
    /// Average time per conflict that finished within the limit.
    pub fn average(&self) -> Option<Duration> {
        let done = self.unifying + self.nonunifying;
        (done > 0).then(|| self.total / done as u32)
    }
}

/// Runs the counterexample engine on one corpus entry.
pub fn run_entry(entry: &CorpusEntry, cfg: &CexConfig) -> Row {
    let g = entry.load().expect("corpus grammars parse");
    let engine = Engine::new(&g);
    let states = engine.automaton().state_count();
    let report = engine.analyze_all(cfg);
    // Classification is pure precomputation (no search budget involved);
    // a contained fault degrades the columns to zero rather than the row.
    let (counts, lr1_states, provenance_time) = engine
        .provenance()
        .map(|p| (p.counts(), p.lr1_states, p.compute_time))
        .unwrap_or_default();
    Row {
        name: entry.name,
        nonterminals: g.nonterminal_count() - 1,
        productions: g.prod_count(),
        states,
        conflicts: report.reports.len(),
        unifying: report.unifying_count(),
        nonunifying: report.exhausted_count(),
        timeouts: report.timeout_count(),
        total: report.total_time,
        explored: report.stats.search.explored,
        deduped: report.stats.search.deduped,
        memo_hits: report.stats.spine_memo_hits,
        workers: report.stats.workers,
        class_true: counts.true_candidates,
        class_merge: counts.merge_artifacts,
        class_resolved: counts.precedence_resolved,
        lr1_states,
        provenance_time,
        baseline: None,
    }
}

/// Runs the grammar-filtered baseline on the entry's *first* conflict
/// (like CFGAnalyzer, the baseline stops at its first ambiguity proof).
pub fn run_baseline(entry: &CorpusEntry, budget: &Budget) -> (Duration, bool) {
    let g = entry.load().expect("corpus grammars parse");
    let auto = lalrcex_lr::Automaton::build(&g);
    let tables = auto.tables(&g);
    let started = std::time::Instant::now();
    let found = tables
        .conflicts()
        .first()
        .map(|c| {
            matches!(
                filtered::search(&g, c, budget),
                FilteredOutcome::Ambiguous { .. }
            )
        })
        .unwrap_or(false);
    (started.elapsed(), found)
}

/// Formats a duration like the paper (seconds with 3 decimals).
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Geometric mean of ratios, skipping non-finite entries.
pub fn geometric_mean(ratios: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = ratios
        .iter()
        .copied()
        .filter(|r| r.is_finite() && *r > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// Kind label used in the summary output.
pub fn kind_label(kind: ExampleKind) -> &'static str {
    match kind {
        ExampleKind::Unifying => "unifying",
        ExampleKind::NonunifyingExhausted => "nonunifying",
        ExampleKind::NonunifyingTimeout => "timeout",
        ExampleKind::NonunifyingSkipped => "skipped",
        ExampleKind::Cancelled => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_entry_on_figure1_matches_paper() {
        let entry = lalrcex_corpus::by_name("figure1").unwrap();
        let row = run_entry(&entry, &CexConfig::default());
        assert_eq!(row.conflicts, 3);
        assert_eq!(row.unifying, 3);
        assert_eq!(row.states, 24);
        assert!(row.average().is_some());
    }

    #[test]
    fn baseline_on_sql1_finds_ambiguity() {
        let entry = lalrcex_corpus::by_name("SQL.1").unwrap();
        // The minimal ambiguous sentence of SQL.1's `cond` is
        // `ID = ID OR ID = ID OR ID = ID` — 11 tokens, so the length bound
        // must be at least 11 for the bounded search to see it.
        let (elapsed, found) = run_baseline(
            &entry,
            &Budget {
                max_len: 12,
                time_limit: Duration::from_secs(20),
                max_steps: 20_000_000,
            },
        );
        assert!(found, "filtered baseline proves SQL.1 ambiguous");
        assert!(elapsed < Duration::from_secs(30));
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[4.0, 1.0]), Some(2.0));
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[f64::INFINITY]), None);
    }
}
