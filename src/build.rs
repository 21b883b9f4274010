//! Build-script conflict verification: fail the build with
//! counterexamples attached.
//!
//! Parser-generator projects keep reinventing this workflow by hand —
//! run the grammar through the generator in `build.rs`, scrape the
//! conflict list, pretty-print something, `panic!`. This module owns it:
//!
//! ```no_run
//! // build.rs
//! fn main() {
//!     lalrcex::build::verify("src/grammar.y").unwrap();
//! }
//! ```
//!
//! That's the whole integration. If the grammar has conflicts, `verify`
//! returns [`VerifyError::Conflicts`] carrying a [`ConflictsFound`] whose
//! `Display` (and `Debug`, so `unwrap` stays pretty) renders the full
//! counterexample report — the same bytes `lalrcex cex` prints — and the
//! failing build shows unifying/nonunifying derivations instead of a bare
//! "3 shift/reduce conflicts". The grammar format is auto-detected from
//! the extension and content, exactly like the CLI.
//!
//! For policy decisions — warn-only builds, `%expect`-style budgets,
//! custom sinks — use [`Verifier`] and its [`Verifier::on_conflicts`]
//! callback instead of treating the error as fatal.
//!
//! When run inside a real build script (detected by the `OUT_DIR`
//! environment variable Cargo sets), path-based verification emits
//! `cargo:rerun-if-changed=<path>` so the grammar is re-checked exactly
//! when it changes.

// The doctest above *is* a complete build.rs — the explicit `fn main`
// is the point of the example, not doctest boilerplate.
#![allow(clippy::needless_doctest_main)]

use std::fmt;
use std::path::{Path, PathBuf};

use lalrcex_core::CexConfig;

use crate::api::{AnalysisRequest, Error, GrammarFormat, GrammarSource, Session};

/// A conflict-free verification: the grammar builds a deterministic LALR
/// automaton.
#[derive(Clone, Debug)]
pub struct Verified {
    /// The report label (the path, for path-based verification).
    pub label: String,
    /// LALR automaton states.
    pub states: usize,
    /// Productions, including the augmented start.
    pub productions: usize,
}

/// The structured "your grammar has conflicts" outcome.
///
/// `Display` renders the failure the way a human wants to read it in a
/// build log: a one-line header, then the canonical per-conflict
/// counterexample blocks ([`crate::AnalysisReply::render_text`]), then a
/// pointer to the interactive tools. `Debug` forwards to `Display`, so
/// `verify(..).unwrap()` in a `build.rs` prints the report rather than a
/// struct dump.
#[derive(Clone)]
pub struct ConflictsFound {
    /// The report label (the path, for path-based verification).
    pub label: String,
    /// Total conflicts.
    pub conflicts: usize,
    /// Conflicts proven ambiguous by a unifying counterexample.
    pub unifying: usize,
    /// Conflicts with only a nonunifying counterexample (within budget).
    pub nonunifying: usize,
    /// Conflict slots that faulted internally (contained).
    pub internal: usize,
    /// The rendered counterexample report, byte-identical to what
    /// `lalrcex cex` prints for the same grammar and limits.
    pub report: String,
}

impl fmt::Display for ConflictsFound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} conflict(s): {} proven ambiguous (unifying), {} nonunifying, {} internal",
            self.label, self.conflicts, self.unifying, self.nonunifying, self.internal
        )?;
        writeln!(f)?;
        f.write_str(&self.report)?;
        write!(
            f,
            "help: run `lalrcex cex {}` to re-run interactively, or `lalrcex explain {}` \
             for the lookahead provenance of each conflict",
            self.label, self.label
        )
    }
}

impl fmt::Debug for ConflictsFound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Why a [`verify`] call did not come back clean.
pub enum VerifyError {
    /// The grammar file could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// Parsing or analyzing the grammar failed (see [`Error`]).
    Analysis(Error),
    /// The grammar has conflicts; the payload carries the full report.
    Conflicts(ConflictsFound),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Io { path, error } => {
                write!(f, "cannot read grammar {}: {error}", path.display())
            }
            VerifyError::Analysis(e) => write!(f, "{e}"),
            VerifyError::Conflicts(c) => write!(f, "{c}"),
        }
    }
}

// `Debug` forwards to `Display` so the idiomatic three-line build script
// (`verify(..).unwrap()`) panics with the rendered counterexample report,
// not an escaped one-line struct dump.
impl fmt::Debug for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Io { error, .. } => Some(error),
            VerifyError::Analysis(e) => Some(e),
            VerifyError::Conflicts(_) => None,
        }
    }
}

impl From<Error> for VerifyError {
    fn from(e: Error) -> VerifyError {
        VerifyError::Analysis(e)
    }
}

/// Verifies that the grammar at `path` is conflict-free, with default
/// limits and auto-detected format — the three-line `build.rs`
/// integration. See the [module docs](self) and [`Verifier`] for the
/// configurable form.
///
/// # Errors
///
/// [`VerifyError::Conflicts`] when the grammar has conflicts (the payload
/// renders the full counterexample report), [`VerifyError::Io`] /
/// [`VerifyError::Analysis`] when it cannot be read or parsed.
pub fn verify(path: impl AsRef<Path>) -> Result<Verified, VerifyError> {
    Verifier::new().verify_path(path)
}

/// The observer callback registered with [`Verifier::on_conflicts`]:
/// called once with the full [`ConflictsFound`] before it is returned as
/// an error.
pub type ConflictCallback = Box<dyn FnMut(&ConflictsFound)>;

/// Configurable build-time verification: search limits, an explicit
/// format, and an observer callback for conflict reports.
#[derive(Default)]
pub struct Verifier {
    format: Option<GrammarFormat>,
    config: CexConfig,
    on_conflicts: Option<ConflictCallback>,
}

impl Verifier {
    /// A verifier with the [`CexConfig`] default limits (the CLI's) and
    /// auto-detected format.
    #[must_use]
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Pins the grammar format instead of auto-detecting it.
    #[must_use]
    pub fn format(mut self, format: GrammarFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// Every search setting at once, as a [`CexConfig`] (the same type
    /// [`AnalysisRequest::config`] takes). Build scripts that would rather
    /// fail fast than search deeply set `cumulative_limit` low; the
    /// nonunifying fallbacks still render.
    #[must_use]
    pub fn config(mut self, cfg: CexConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Registers a conflict observer, called once with the full
    /// [`ConflictsFound`] before it is returned as an error. This is the
    /// hook for warn-only policies (print and swallow the error), CI
    /// annotations, or conflict budgets.
    #[must_use]
    pub fn on_conflicts(mut self, callback: impl FnMut(&ConflictsFound) + 'static) -> Self {
        self.on_conflicts = Some(Box::new(callback));
        self
    }

    /// Verifies the grammar at `path` (format from the extension unless
    /// pinned; `cargo:rerun-if-changed` emitted under Cargo build
    /// scripts).
    ///
    /// # Errors
    ///
    /// See [`verify`].
    pub fn verify_path(mut self, path: impl AsRef<Path>) -> Result<Verified, VerifyError> {
        let path = path.as_ref();
        // Only a real build script (Cargo sets OUT_DIR) should emit build
        // directives; anywhere else they would just pollute stdout.
        if std::env::var_os("OUT_DIR").is_some() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
        let text = std::fs::read_to_string(path).map_err(|error| VerifyError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        let source = match self.format.take() {
            Some(f) => GrammarSource::new(text, f),
            None => GrammarSource::from_path_text(path, text),
        };
        self.run(source, &path.display().to_string())
    }

    /// Verifies an in-memory [`GrammarSource`] under `label`.
    ///
    /// # Errors
    ///
    /// See [`verify`] (minus the I/O case).
    pub fn verify_source(
        mut self,
        source: impl Into<GrammarSource>,
        label: &str,
    ) -> Result<Verified, VerifyError> {
        let mut source = source.into();
        if let Some(f) = self.format.take() {
            source = source.with_format(f);
        }
        self.run(source, label)
    }

    fn run(mut self, source: GrammarSource, label: &str) -> Result<Verified, VerifyError> {
        let req = AnalysisRequest::new(source)
            .label(label)
            .config(self.config);
        let reply = Session::new().analyze(&req)?;
        let verified = Verified {
            label: label.to_owned(),
            states: reply.engine().automaton().state_count(),
            productions: reply.grammar().prod_count(),
        };
        if reply.report.reports.is_empty() {
            return Ok(verified);
        }
        let internal = reply.report.internal_count();
        let unifying = reply.report.unifying_count();
        let found = ConflictsFound {
            label: label.to_owned(),
            conflicts: reply.report.reports.len(),
            unifying,
            nonunifying: reply.report.reports.len() - unifying - internal,
            internal,
            report: reply.render_text(),
        };
        if let Some(cb) = self.on_conflicts.as_mut() {
            cb(&found);
        }
        Err(VerifyError::Conflicts(found))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AMBIG: &str = "%% e : e '+' e | NUM ;";
    const CLEAN: &str = "%token NUM\n%% e : e '+' NUM | NUM ;";
    const AMBIG_Y: &str = "%% e : e '+' e { $$ = $1 + $3; } | NUM { $$ = $1; } ;";

    fn one_worker() -> CexConfig {
        CexConfig {
            workers: 1,
            ..CexConfig::default()
        }
    }

    #[test]
    fn clean_grammar_verifies() {
        let v = Verifier::new()
            .config(one_worker())
            .verify_source(CLEAN, "<clean>")
            .unwrap();
        assert_eq!(v.label, "<clean>");
        assert!(v.states > 0 && v.productions == 3);
    }

    #[test]
    fn conflicts_render_the_cex_report() {
        let err = Verifier::new()
            .config(one_worker())
            .verify_source(AMBIG, "<ambig>")
            .unwrap_err();
        let VerifyError::Conflicts(found) = &err else {
            panic!("expected Conflicts, got {err}");
        };
        assert_eq!((found.conflicts, found.unifying), (1, 1));
        let shown = format!("{err}");
        assert!(shown.contains("1 proven ambiguous"), "{shown}");
        assert!(shown.contains("Ambiguity detected"), "{shown}");
        // Debug is the same rendering, so `unwrap()` panics pretty.
        assert_eq!(format!("{err:?}"), shown);
    }

    #[test]
    fn dsl_and_yacc_sources_render_identical_reports() {
        let take = |src: GrammarSource| match Verifier::new()
            .config(one_worker())
            .verify_source(src, "<g>")
        {
            Err(VerifyError::Conflicts(f)) => f.report,
            other => panic!("expected conflicts, got {:?}", other.err()),
        };
        assert_eq!(
            take(GrammarSource::dsl(AMBIG)),
            take(GrammarSource::auto(AMBIG_Y))
        );
    }

    #[test]
    fn callback_sees_the_report_before_the_error() {
        use std::cell::Cell;
        use std::rc::Rc;
        let seen = Rc::new(Cell::new(0usize));
        let seen2 = Rc::clone(&seen);
        let err = Verifier::new()
            .config(one_worker())
            .on_conflicts(move |f| seen2.set(f.conflicts))
            .verify_source(AMBIG, "<cb>")
            .unwrap_err();
        assert!(matches!(err, VerifyError::Conflicts(_)));
        assert_eq!(seen.get(), 1);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = verify("definitely/not/a/real/path.y").unwrap_err();
        assert!(matches!(err, VerifyError::Io { .. }));
        assert!(format!("{err}").contains("cannot read grammar"));
    }
}
