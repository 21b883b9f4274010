//! LALR(1) parser construction and runtimes.
//!
//! This crate is the parser-generator substrate of the `lalrcex` toolkit
//! (reproducing Isradisaikul & Myers, PLDI 2015). It builds, from a
//! [`Grammar`](lalrcex_grammar::Grammar):
//!
//! * an LR(0) [`Automaton`] whose states carry full item sets,
//! * LALR(1) per-item lookahead sets, computed once by DeRemer–Pennello's
//!   relations over the goto graph ([`Relations`], kept for provenance),
//! * [`Tables`] with yacc-style precedence resolution and a list of the
//!   remaining [`Conflict`]s — the inputs to the counterexample engine,
//! * a deterministic table-driven [`parser`], and
//! * a nondeterministic [`glr`] runtime used as an independent ambiguity
//!   oracle in tests.
//!
//! # Example
//!
//! ```
//! use lalrcex_grammar::Grammar;
//! use lalrcex_lr::Automaton;
//!
//! // The classic dangling-else grammar has one shift/reduce conflict.
//! let g = Grammar::parse(
//!     "%%
//!      s : 'if' E 'then' s 'else' s | 'if' E 'then' s | OTHER ;
//!      E : ID ;",
//! )?;
//! let auto = Automaton::build(&g);
//! let tables = auto.tables(&g);
//! assert_eq!(tables.conflicts().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod automaton;
mod conflict;
pub mod glr;
mod item;
mod lookahead;
pub mod parser;
mod table;

pub use automaton::{Automaton, State, StateId};
pub use conflict::{Conflict, ConflictKind};
pub use item::Item;
pub use lookahead::Relations;
pub use table::{Action, Resolution, Tables};
