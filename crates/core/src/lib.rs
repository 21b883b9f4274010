//! Counterexample generation for LALR parsing conflicts.
//!
//! This crate implements the algorithm of *Finding Counterexamples from
//! Parsing Conflicts* (Isradisaikul & Myers, PLDI 2015) — the technique
//! behind the counterexample reports later adopted by Bison and Menhir.
//! For each shift/reduce or reduce/reduce conflict of an LALR(1) grammar it
//! produces:
//!
//! * a **unifying counterexample** — one string with two distinct
//!   derivations, proving the grammar ambiguous — found by an outward
//!   search over a *product parser* starting at the conflict (§5), or
//! * a **nonunifying counterexample** — two derivable strings sharing a
//!   prefix up to the conflict point — built from the *shortest
//!   lookahead-sensitive path* (§4) when no unifying counterexample exists
//!   or the search runs out of budget.
//!
//! # Quick start
//!
//! ```
//! use lalrcex_grammar::Grammar;
//! use lalrcex_core::{format_report, CexConfig, Engine};
//!
//! let g = Grammar::parse(
//!     "%% s : 'if' e 'then' s 'else' s | 'if' e 'then' s | OTHER ;
//!         e : ID ;",
//! )?;
//! let report = Engine::new(&g).analyze_all(&CexConfig::default());
//! assert_eq!(report.unifying_count(), 1, "dangling else is ambiguous");
//! let text = format_report(&g, &report.reports[0]);
//! assert!(text.contains("Ambiguity detected for nonterminal s"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The pieces are exposed individually for tooling: the state-item graph
//! ([`StateGraph`]), lookahead-sensitive paths ([`lssi`]), the product
//! parser search ([`unifying_search_metered`]), and nonunifying construction
//! ([`nonunifying_example`]).

#![forbid(unsafe_code)]

pub mod cache;
pub mod cancel;
mod contain;
pub mod engine;
mod error;
pub mod faultpoint;
pub mod json;
pub mod lssi;
mod nonunifying;
pub mod provenance;
mod report;
mod search;
mod soa;
mod state_graph;
pub mod stats;
pub mod validate;

pub use cache::{content_hash, tagged_hash, BuildError, CacheStats, CachedEngine, EngineCache};
pub use cancel::CancelToken;
pub use contain::contain;
pub use engine::{hardware_workers, resolve_workers, Engine, ResolutionProbe, Spine};
pub use error::EngineError;
pub use nonunifying::{nonunifying_example, NonunifyingExample};
pub use provenance::{
    format_provenance, render_chain_step, ChainStep, Classification, ClassificationCounts,
    ConflictProvenance, GrammarProvenance, MergeEvidence, MergeVariant, ProvenanceOutcome,
    ResolutionProvenance,
};
pub use report::{
    display_item_cup, flat_top, format_report, pretty_top, CexConfig, ConflictOutcome,
    ConflictReport, ExampleKind, GrammarReport,
};
pub use search::{
    conflict_on, unifying_search_cancellable, unifying_search_metered, SearchConfig, SearchOutcome,
    UnifyingExample,
};
pub use state_graph::{NodeSet, StateGraph, StateItemId};
pub use stats::{
    format_conflict_stats, format_grammar_stats, GrammarStats, PrecomputeTimes, SearchMetrics,
    SearchStats,
};
