//! Context-free grammar representation and analyses.
//!
//! This crate is the foundation of the `lalrcex` toolkit, a reproduction of
//! *Finding Counterexamples from Parsing Conflicts* (Isradisaikul & Myers,
//! PLDI 2015). It provides:
//!
//! * [`Grammar`] — an immutable, interned context-free grammar with an
//!   augmented start production, built through [`GrammarBuilder`] or parsed
//!   from a yacc-like DSL with [`Grammar::parse`].
//! * [`TerminalSet`] — a dense bitset over the grammar's terminals, the
//!   representation used for lookahead sets throughout the toolkit.
//! * [`Analysis`] — nullable / FIRST / FOLLOW / reachability / productivity
//!   and minimal-derivation tables computed by fixpoint iteration.
//! * [`Derivation`] — partial derivation trees (nonterminal leaves may be
//!   left unexpanded), the data carried by parser-conflict counterexamples.
//!
//! # Example
//!
//! ```
//! use lalrcex_grammar::Grammar;
//!
//! let g = Grammar::parse(
//!     "%start e
//!      %%
//!      e : e '+' e | NUM ;",
//! )?;
//! assert_eq!(g.nonterminal_count(), 2); // e and the augmented start
//! assert!(g.symbol_named("NUM").is_some());
//! # Ok::<(), lalrcex_grammar::GrammarError>(())
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod derivation;
mod grammar;
mod symbol;
mod text;

pub use analysis::Analysis;
pub use derivation::{derive_seq_starting_with, derive_starting_with, eps_derivation, Derivation};
pub use grammar::{
    Assoc, Grammar, GrammarBuilder, GrammarError, Precedence, ProdId, Production, MAX_PRODUCTIONS,
    MAX_RHS_SYMBOLS,
};
pub use symbol::{SymbolId, SymbolKind, TerminalSet};
