//! What the engine reports for a grammar's conflicts, and the text
//! rendering of one report in the style of the paper's Figure 11.

use std::time::Duration;

use lalrcex_grammar::{Derivation, Grammar};
use lalrcex_lr::{Conflict, ConflictKind, Item};

use crate::error::EngineError;
use crate::nonunifying::NonunifyingExample;
use crate::search::{SearchConfig, UnifyingExample};
use crate::stats::{GrammarStats, SearchStats};

/// Configuration for the whole counterexample run.
#[derive(Clone, Copy, Debug)]
pub struct CexConfig {
    /// Per-conflict unifying-search settings.
    pub search: SearchConfig,
    /// Cumulative budget for the unifying search across all conflicts of a
    /// grammar; once exceeded, only nonunifying counterexamples are built
    /// (§6: two minutes in the paper's implementation).
    pub cumulative_limit: Duration,
    /// Worker threads for the conflict fan-out of [`crate::Engine::analyze_all`].
    /// `0` (the default) resolves to one worker per available CPU; the
    /// effective count is clamped to the number of conflicts.
    pub workers: usize,
}

impl Default for CexConfig {
    fn default() -> CexConfig {
        CexConfig {
            search: SearchConfig::default(),
            cumulative_limit: Duration::from_secs(120),
            workers: 0,
        }
    }
}

/// What kind of counterexample a conflict ended up with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExampleKind {
    /// A unifying counterexample (ambiguity proven).
    Unifying,
    /// The search space was exhausted: no unifying counterexample exists
    /// under the search's restrictions; a nonunifying one is reported.
    NonunifyingExhausted,
    /// The per-conflict time limit was hit; a nonunifying one is reported.
    NonunifyingTimeout,
    /// The cumulative budget was already spent; the unifying search was
    /// skipped entirely.
    NonunifyingSkipped,
    /// The run was cancelled (Ctrl-C, serve `cancel`, or a serve peer
    /// hang-up) before this conflict's
    /// diagnosis ran; a stub report fills its slot.
    Cancelled,
}

/// How one conflict's diagnosis ended: completed (possibly degraded — see
/// [`ExampleKind`]), or faulted internally. A fault is *contained*: the
/// slot renders a stable diagnostic and every other conflict still gets
/// its report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConflictOutcome {
    /// The diagnosis ran to completion.
    Completed(ExampleKind),
    /// A contained internal fault — a panic caught at a phase boundary, or
    /// a structured engine error.
    Internal(EngineError),
}

/// Everything the tool reports for one conflict.
#[derive(Clone, Debug)]
pub struct ConflictReport {
    /// The conflict being explained.
    pub conflict: Conflict,
    /// How the diagnosis ended.
    pub outcome: ConflictOutcome,
    /// The unifying counterexample, when found.
    pub unifying: Option<UnifyingExample>,
    /// The nonunifying counterexample (always constructed as a fallback;
    /// also kept alongside a unifying one for the prefix display).
    pub nonunifying: Option<NonunifyingExample>,
    /// Time spent on this conflict.
    pub elapsed: Duration,
    /// Observability counters for every phase of this conflict's diagnosis.
    pub stats: SearchStats,
}

impl ConflictReport {
    /// The example kind, when the diagnosis completed (`None` for a
    /// contained internal fault).
    pub fn kind(&self) -> Option<ExampleKind> {
        match &self.outcome {
            ConflictOutcome::Completed(k) => Some(*k),
            ConflictOutcome::Internal(_) => None,
        }
    }

    /// Did this conflict's diagnosis fault internally?
    pub fn is_internal(&self) -> bool {
        matches!(self.outcome, ConflictOutcome::Internal(_))
    }

    /// The contained fault, if any.
    pub fn error(&self) -> Option<&EngineError> {
        match &self.outcome {
            ConflictOutcome::Internal(e) => Some(e),
            ConflictOutcome::Completed(_) => None,
        }
    }
}

/// A full grammar analysis.
#[derive(Debug)]
pub struct GrammarReport {
    /// One report per conflict, in table order.
    pub reports: Vec<ConflictReport>,
    /// Total wall-clock time across all conflicts.
    pub total_time: Duration,
    /// Grammar-wide aggregate counters (feeds `--stats` and Table 1).
    pub stats: GrammarStats,
}

impl GrammarReport {
    /// Number of conflicts with a unifying counterexample.
    pub fn unifying_count(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.kind() == Some(ExampleKind::Unifying))
            .count()
    }

    /// Number of conflicts where the search space was exhausted.
    pub fn exhausted_count(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.kind() == Some(ExampleKind::NonunifyingExhausted))
            .count()
    }

    /// Number of conflicts that timed out (or were skipped).
    pub fn timeout_count(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| {
                matches!(
                    r.kind(),
                    Some(ExampleKind::NonunifyingTimeout | ExampleKind::NonunifyingSkipped)
                )
            })
            .count()
    }

    /// Number of conflicts whose diagnosis faulted internally (contained).
    pub fn internal_count(&self) -> usize {
        self.reports.iter().filter(|r| r.is_internal()).count()
    }

    /// Number of conflict slots stubbed out by a cancellation.
    pub fn cancelled_count(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.kind() == Some(ExampleKind::Cancelled))
            .count()
    }
}

/// Formats an item in CUP's style: `expr ::= expr · PLUS expr` (also used
/// by the JSON report schema, so the same rendering appears in both).
pub fn display_item_cup(g: &Grammar, item: Item) -> String {
    let p = g.prod(item.prod());
    let mut out = format!("{} ::=", g.display_name(p.lhs()));
    for (i, &s) in p.rhs().iter().enumerate() {
        if i == item.dot() {
            out.push_str(" \u{2022}");
        }
        out.push(' ');
        out.push_str(g.display_name(s));
    }
    if item.dot() == p.rhs().len() {
        out.push_str(" \u{2022}");
    }
    out
}

/// Renders a derivation for the report, hiding the `$accept` wrapper.
fn pretty_top(g: &Grammar, d: &Derivation) -> String {
    match d {
        Derivation::Node(sym, children) if *sym == g.accept() => children
            .iter()
            .map(|c| c.pretty(g))
            .collect::<Vec<_>>()
            .join(" "),
        other => other.pretty(g),
    }
}

/// Renders a derivation's sentential form, hiding the `$accept` wrapper's
/// trailing end-of-input marker.
fn flat_top(g: &Grammar, d: &Derivation) -> String {
    let s = d.flat(g);
    s.strip_suffix(" $").unwrap_or(&s).to_owned()
}

/// Formats a full conflict report in the style of the paper's Figure 11.
pub fn format_report(g: &Grammar, r: &ConflictReport) -> String {
    let c = &r.conflict;
    let (what, action2) = match c.kind {
        ConflictKind::ShiftReduce { shift_item } => (
            "Shift/Reduce",
            format!("shift on {}", display_item_cup(g, shift_item)),
        ),
        ConflictKind::ReduceReduce { other_prod } => (
            "Reduce/Reduce",
            format!(
                "reduction on {}",
                display_item_cup(g, Item::new(other_prod, g.prod(other_prod).rhs().len()))
            ),
        ),
    };
    let mut out = format!(
        "Warning : *** {} conflict found in state #{}\n  between reduction on {}\n  and {}\n  under symbol {}\n",
        what,
        c.state.index(),
        display_item_cup(g, c.reduce_item(g)),
        action2,
        g.display_name(c.terminal),
    );
    if let ConflictOutcome::Internal(e) = &r.outcome {
        // A contained fault renders a stable diagnostic: the phase, the
        // message, and the panic site are deterministic, so a faulted slot
        // is byte-identical across runs and worker counts like any other.
        out.push_str(&format!(
            "Internal fault while diagnosing this conflict (contained): {e}\n\
             The remaining conflicts are unaffected; re-run with this grammar to reproduce.\n"
        ));
        return out;
    }
    match (&r.unifying, &r.nonunifying) {
        (Some(u), _) => {
            out.push_str(&format!(
                "Ambiguity detected for nonterminal {}\nExample: {}\n",
                g.display_name(u.nonterminal),
                u.derivation1.flat(g),
            ));
            out.push_str(&format!(
                "Derivation using reduction:\n  {}\nDerivation using {}:\n  {}\n",
                u.derivation1.pretty(g),
                if matches!(c.kind, ConflictKind::ShiftReduce { .. }) {
                    "shift"
                } else {
                    "second reduction"
                },
                u.derivation2.pretty(g),
            ));
        }
        (None, Some(n)) => {
            let reason = match r.kind() {
                Some(ExampleKind::NonunifyingExhausted) => {
                    "No ambiguity was detected for this conflict"
                }
                Some(ExampleKind::NonunifyingTimeout) => {
                    "The search for a unifying counterexample timed out"
                }
                Some(ExampleKind::Cancelled) => "The analysis was cancelled",
                _ => "The unifying search was skipped (cumulative time budget spent)",
            };
            out.push_str(&format!(
                "{reason}; reporting a nonunifying counterexample\n"
            ));
            out.push_str(&format!(
                "Example using reduction: {}\nDerivation:\n  {}\n",
                flat_top(g, &n.reduce_derivation),
                pretty_top(g, &n.reduce_derivation),
            ));
            if let Some(o) = &n.other_derivation {
                out.push_str(&format!(
                    "Example using the other action: {}\nDerivation:\n  {}\n",
                    flat_top(g, o),
                    pretty_top(g, o),
                ));
            }
        }
        (None, None) => {
            if r.kind() == Some(ExampleKind::Cancelled) {
                out.push_str("The analysis was cancelled before this conflict was diagnosed\n");
            } else {
                out.push_str("No counterexample could be constructed (internal limitation)\n");
            }
        }
    }
    out
}
