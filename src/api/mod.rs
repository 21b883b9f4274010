//! The deliberate public API of the `lalrcex` toolkit.
//!
//! This module is the supported programmatic surface — a builder-style
//! session layer over the engine crates, consumed by the CLI, the serve
//! service, and embedders alike:
//!
//! * [`Session`] — a long-lived handle owning a grammar-keyed
//!   [engine cache](lalrcex_core::cache::EngineCache): repeated analyses
//!   of the same grammar text skip automaton/table/state-graph
//!   construction entirely.
//! * [`GrammarSource`] — the intake type: grammar text paired with the
//!   [`GrammarFormat`] that should parse it (the native DSL, the
//!   yacc/Bison subset, or content-sniffed `Auto` — the default, so plain
//!   text keeps working unchanged).
//! * [`AnalysisRequest`] — one analysis, built up fluently (a
//!   [`CexConfig`], a deadline, a cancellation token); [`Session::analyze`]
//!   and [`Session::explain`] both answer it with an [`AnalysisReply`].
//! * [`Error`] — a single `#[non_exhaustive]` error type unifying grammar
//!   parse errors (per frontend), contained engine faults, I/O, protocol,
//!   and budget violations.
//!
//! Everything else the crate re-exports (the `grammar`, `lr`, `core`, …
//! internals) is `#[doc(hidden)]` and *not* covered by the public-API
//! gate; reach into it only for research tooling, and expect it to move.
//!
//! # Quick start
//!
//! ```
//! use lalrcex::api::{AnalysisRequest, Session};
//!
//! let session = Session::new();
//! let reply = session.analyze(&AnalysisRequest::new("%% e : e '+' e | NUM ;"))?;
//! assert_eq!(reply.report.unifying_count(), 1);
//! assert!(!reply.cache_hit);
//! // Re-analyzing the same text skips engine construction.
//! let again = session.analyze(&AnalysisRequest::new("%% e : e '+' e | NUM ;"))?;
//! assert!(again.cache_hit);
//! # Ok::<(), lalrcex::api::Error>(())
//! ```
//!
//! An existing yacc/Bison grammar needs no conversion — hand the `.y`
//! text over as-is (auto-detected, or tagged explicitly):
//!
//! ```
//! use lalrcex::api::{AnalysisRequest, GrammarSource, Session};
//!
//! let y = "%% e : e '+' e { $$ = $1 + $3; } | NUM ;";
//! let reply = Session::new().analyze(&AnalysisRequest::new(GrammarSource::yacc(y)))?;
//! assert_eq!(reply.report.unifying_count(), 1);
//! # Ok::<(), lalrcex::api::Error>(())
//! ```

pub mod json;
mod report_json;
mod source;

pub use lalrcex_core::{CexConfig, SearchConfig};
pub use report_json::{explain_document, report_document, SCHEMA_VERSION};
pub use source::{GrammarFormat, GrammarSource};

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lalrcex_core::cache::{
    BuildError, CacheEntryStats, CacheStats, CachedEngine, EngineCache, DEFAULT_BUDGET_MB,
};
use lalrcex_core::{
    format_provenance, CancelToken, ConflictOutcome, EngineError, GrammarProvenance, GrammarReport,
    ProvenanceOutcome,
};
use lalrcex_grammar::GrammarError;
use lalrcex_lint::{Diagnostic, Linter};

/// The unified error type of the public API.
#[non_exhaustive]
#[derive(Debug)]
pub enum Error {
    /// The grammar text did not parse (native-DSL frontend).
    Grammar(GrammarError),
    /// The grammar text did not parse (yacc/Bison frontend). Kept apart
    /// from [`Error::Grammar`] so protocol clients and build scripts can
    /// tell "your `.y` file is bad" from "your DSL is bad" — the two
    /// frontends reject different things (e.g. mid-rule actions).
    YaccParse(GrammarError),
    /// A request named a grammar format this build does not understand.
    UnsupportedFormat {
        /// The offending format name, verbatim.
        format: String,
    },
    /// A contained engine fault (panic caught at a phase boundary, or a
    /// structured engine error).
    Engine(EngineError),
    /// An I/O failure (reading a grammar file, writing a response).
    Io(std::io::Error),
    /// A malformed request on the serve protocol or batch manifest.
    Protocol(String),
    /// A request exceeded a structural budget (e.g. the serve protocol's
    /// maximum line length).
    Budget {
        /// Which budget.
        what: &'static str,
        /// The enforced cap.
        limit: usize,
        /// The offending value.
        actual: usize,
    },
    /// The service shed the request at admission: too many already in
    /// flight (the admission-control tier of the degradation ladder).
    /// Already-admitted requests are unaffected and complete
    /// byte-identically to an unloaded run.
    Overloaded {
        /// Requests in flight when this one was shed.
        inflight: usize,
        /// The configured admission cap.
        limit: usize,
        /// Deterministic hint: how long the client should wait before
        /// resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's grammar text exceeds the service's per-request
    /// admission cap (checked before any work is spent on it).
    TooLarge {
        /// The enforced cap in bytes.
        limit: usize,
        /// The submitted grammar's size in bytes.
        actual: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Grammar(e) => write!(f, "{e}"),
            Error::YaccParse(e) => write!(f, "yacc: {e}"),
            Error::UnsupportedFormat { format } => write!(
                f,
                "unsupported grammar format {format:?} (expected dsl, yacc, or auto)"
            ),
            Error::Engine(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "{e}"),
            Error::Protocol(msg) => write!(f, "protocol error: {msg}"),
            Error::Budget {
                what,
                limit,
                actual,
            } => write!(f, "budget exceeded: {what} {actual} > limit {limit}"),
            Error::Overloaded {
                inflight,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: {inflight} request(s) in flight (admission cap {limit}); \
                 retry in {retry_after_ms} ms"
            ),
            Error::TooLarge { limit, actual } => write!(
                f,
                "grammar too large: {actual} bytes > admission cap {limit}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Grammar(e) | Error::YaccParse(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GrammarError> for Error {
    fn from(e: GrammarError) -> Error {
        Error::Grammar(e)
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Error {
        Error::Engine(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Error {
        match e {
            BuildError::Grammar(g) => Error::Grammar(g),
            BuildError::Engine(g) => Error::Engine(g),
        }
    }
}

impl Error {
    /// A stable short tag for the protocol's error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Grammar(_) => "grammar",
            Error::YaccParse(_) => "yacc_parse",
            Error::UnsupportedFormat { .. } => "unsupported_format",
            Error::Engine(_) => "internal",
            Error::Io(_) => "io",
            Error::Protocol(_) => "protocol",
            Error::Budget { .. } => "budget",
            Error::Overloaded { .. } => "overloaded",
            Error::TooLarge { .. } => "too_large",
        }
    }
}

/// One conflict analysis, built fluently. The settings start from
/// [`CexConfig::default()`] (5 s per conflict, 120 s cumulative, one
/// worker per CPU), the defaults every front end shares.
#[derive(Clone, Debug)]
pub struct AnalysisRequest {
    source: GrammarSource,
    label: String,
    cfg: CexConfig,
    cancel: CancelToken,
    deadline: Option<Instant>,
}

impl AnalysisRequest {
    /// A request to analyze `grammar` with default limits. Accepts
    /// anything that converts to a [`GrammarSource`]: plain text flows in
    /// as the content-sniffed `Auto` format, so pre-`GrammarSource` call
    /// sites are unchanged; pass `GrammarSource::yacc(..)` /
    /// `GrammarSource::dsl(..)` to pin the frontend.
    pub fn new(grammar: impl Into<GrammarSource>) -> AnalysisRequest {
        AnalysisRequest {
            source: grammar.into(),
            label: "<memory>".to_owned(),
            cfg: CexConfig::default(),
            cancel: CancelToken::new(),
            deadline: None,
        }
    }

    /// The label (file name) echoed in reports. Defaults to `<memory>`.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// An external cancellation token (e.g. the serve protocol's
    /// per-request token, or a Ctrl-C handler's).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// An absolute end-to-end deadline for the whole analysis. The
    /// searches end at `now + cumulative_limit` or at this deadline,
    /// whichever comes first, so expiry rides the engine's degradation
    /// ladder — skipped unifying searches with their nonunifying fallbacks
    /// still constructed — and an already-expired deadline yields an
    /// immediate partial report, never an error.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Every analysis setting at once, as a [`CexConfig`] (how the CLI,
    /// serve, [`crate::build::Verifier`] and embedders pass theirs; change
    /// one field with `CexConfig { workers: 1, ..CexConfig::default() }`).
    pub fn config(mut self, cfg: CexConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The grammar source (text + format).
    pub fn source(&self) -> &GrammarSource {
        &self.source
    }

    /// The effective engine configuration.
    pub fn effective_config(&self) -> &CexConfig {
        &self.cfg
    }

    /// `now + limit`, clipped by the request's deadline: when a search
    /// that starts now must end.
    fn deadline_after(&self, limit: Duration) -> Instant {
        let now = Instant::now();
        match self.deadline {
            Some(d) => now.checked_add(limit).map_or(d, |end| end.min(d)),
            None => now + limit,
        }
    }
}

/// The result of [`Session::analyze`] and [`Session::explain`]: the grammar
/// report plus a handle on the (possibly shared) engine that produced it,
/// and, for `explain`, the lookahead-provenance classification.
pub struct AnalysisReply {
    cached: Arc<CachedEngine>,
    /// One report per conflict, plus grammar-wide stats (including the
    /// session's cumulative engine-cache counters).
    pub report: GrammarReport,
    /// Per-grammar provenance, `Some` on an [`Session::explain`] reply: one
    /// classified (or contained-fault) slot per conflict, one record per
    /// silenced resolution, exploration counters.
    pub provenance: Option<Arc<GrammarProvenance>>,
    /// Whether the engine came from the session cache.
    pub cache_hit: bool,
    label: String,
}

impl AnalysisReply {
    /// The parsed grammar.
    pub fn grammar(&self) -> &lalrcex_grammar::Grammar {
        self.cached.grammar()
    }

    /// The engine (automaton, tables, spine memo, and the state-item graph
    /// once a conflict needed it).
    pub fn engine(&self) -> &lalrcex_core::Engine<'_> {
        self.cached.engine()
    }

    /// The schema-v1 JSON report document: [`report_document`], or
    /// [`explain_document`] when the reply carries provenance.
    pub fn to_json(&self) -> json::Json {
        report_json::document(
            &self.label,
            self.grammar(),
            self.engine().automaton().state_count(),
            self.engine().tables().resolutions(),
            &self.report,
            self.provenance.as_deref(),
        )
    }

    /// Renders the canonical per-conflict text blocks — the same rendering
    /// the CLI prints and [`crate::build`] embeds in build failures.
    ///
    /// Deterministic and byte-identical across runs, worker counts, cache
    /// temperature, and (for structurally identical grammars) frontends:
    /// nothing rendered depends on source spans or wall clocks.
    pub fn render_text(&self) -> String {
        let g = self.grammar();
        let mut out = String::new();
        for r in &self.report.reports {
            let _ = writeln!(out, "{}", lalrcex_core::format_report(g, r));
        }
        out
    }

    /// Renders the deterministic text explanation (`lalrcex explain`),
    /// optionally restricted to one conflict index (`--conflict N`); empty
    /// when the reply carries no provenance.
    ///
    /// Byte-identical across runs, worker counts, and cache temperature:
    /// everything rendered comes from the clock-free provenance tables and
    /// the deterministic report.
    pub fn render_explain(&self, only: Option<usize>) -> String {
        let Some(provenance) = self.provenance.as_deref() else {
            return String::new();
        };
        let g = self.grammar();
        let counts = provenance.counts();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} conflict(s): {} true-ambiguity-candidate, {} merge-artifact, \
             {} internal; {} precedence-resolved resolution(s)",
            self.label,
            provenance.conflicts.len(),
            counts.true_candidates,
            counts.merge_artifacts,
            counts.internal,
            counts.precedence_resolved,
        );
        for (i, outcome) in provenance.conflicts.iter().enumerate() {
            if only.is_some_and(|n| n != i) {
                continue;
            }
            let _ = writeln!(out, "\n== conflict #{i} ==");
            match outcome {
                ProvenanceOutcome::Classified(p) => {
                    out.push_str(&format_provenance(g, p));
                    // The §5 search corroborates a candidate with a
                    // unifying example: a proof the ambiguity is real.
                    if self
                        .report
                        .reports
                        .get(i)
                        .is_some_and(|r| r.unifying.is_some())
                    {
                        out.push_str(
                            "Corroborated: the counterexample search found a unifying \
                             example, proving the ambiguity is real.\n",
                        );
                    }
                }
                ProvenanceOutcome::Internal(e) => {
                    let _ = writeln!(out, "classification failed (contained fault): {e}");
                }
            }
        }
        if only.is_none() && !provenance.resolutions.is_empty() {
            let _ = writeln!(
                out,
                "\n{} conflict(s) silenced by precedence/associativity \
                 (see lint L009 for masking analysis)",
                provenance.resolutions.len()
            );
        }
        out
    }
}

/// The result of [`Session::lint`].
pub struct LintReply {
    cached: Arc<CachedEngine>,
    /// Sorted, deterministic diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the engine came from the session cache.
    pub cache_hit: bool,
}

impl LintReply {
    /// The parsed grammar.
    pub fn grammar(&self) -> &lalrcex_grammar::Grammar {
        self.cached.grammar()
    }
}

/// A long-lived analysis session: a grammar-keyed engine cache plus the
/// entry points the CLI, the serve service, and embedders share.
///
/// Cloning is cheap and shares the cache.
#[derive(Clone)]
pub struct Session {
    cache: Arc<EngineCache>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with the default 256 MiB engine-cache budget
    /// ([`lalrcex_core::cache::DEFAULT_BUDGET_MB`]).
    pub fn new() -> Session {
        Session::with_cache_mb(DEFAULT_BUDGET_MB)
    }

    /// A session with an explicit cache budget in MiB (`0` = unlimited).
    pub fn with_cache_mb(mb: usize) -> Session {
        Session {
            cache: Arc::new(EngineCache::with_budget_mb(mb)),
        }
    }

    /// A snapshot of the engine-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-cache-entry byte breakdowns, most recently used first, with each
    /// entry's charge re-sampled so lazily built tables (the spine memo,
    /// the provenance tables) are accounted for.
    pub fn cache_entry_stats(&self) -> Vec<CacheEntryStats> {
        self.cache.entry_stats()
    }

    /// Builds (or fetches) the engine for a grammar source. The cache is
    /// keyed by (frontend, text): the same bytes analyzed as DSL and as
    /// yacc are distinct entries, and a warm hit is only served to the
    /// frontend that built it.
    fn engine_for(&self, source: &GrammarSource) -> Result<(Arc<CachedEngine>, bool), Error> {
        self.cache
            .get_or_build_with(source.cache_tag(), source.text(), source.parse_fn())
            .map_err(|e| match e {
                BuildError::Grammar(g) if source.resolved_format() == GrammarFormat::Yacc => {
                    Error::YaccParse(g)
                }
                other => other.into(),
            })
    }

    /// Analyzes every conflict of the request's grammar. The engine comes
    /// from the session cache when the same source was analyzed before
    /// (byte-identical reports either way).
    pub fn analyze(&self, req: &AnalysisRequest) -> Result<AnalysisReply, Error> {
        self.reply(req, false)
    }

    /// [`Session::analyze`] plus the reply's `provenance`: every conflict
    /// of the request's grammar classified (true-ambiguity candidate / LALR
    /// merge artifact / precedence-resolved), with the §5 search run to
    /// corroborate candidates with unifying examples.
    ///
    /// The provenance tables are computed once per cached engine and shared
    /// by later `explain` calls on the same grammar text.
    pub fn explain(&self, req: &AnalysisRequest) -> Result<AnalysisReply, Error> {
        self.reply(req, true)
    }

    /// The body of [`Session::analyze`] and [`Session::explain`]: every
    /// conflict of the grammar under one deadline for the request, with the
    /// session's cache counters (and any provenance counts) on the report.
    fn reply(&self, req: &AnalysisRequest, explain: bool) -> Result<AnalysisReply, Error> {
        let (cached, cache_hit) = self.engine_for(&req.source)?;
        let provenance = if explain {
            Some(cached.engine().provenance()?)
        } else {
            None
        };
        let deadline = req.deadline_after(req.cfg.cumulative_limit);
        let mut report = cached
            .engine()
            .analyze_all_cancellable(&req.cfg, deadline, &req.cancel);
        let cache = self.cache.stats();
        report.stats.cache_hits = cache.hits;
        report.stats.cache_misses = cache.misses;
        report.stats.cache_evictions = cache.evictions;
        if let Some(p) = &provenance {
            report.stats.record_provenance(p);
        }
        Ok(AnalysisReply {
            cached,
            report,
            provenance,
            cache_hit,
            label: req.label.clone(),
        })
    }

    /// Drops the cached engine for exactly this source — same text *and*
    /// same resolved frontend — if resident.
    ///
    /// The fault-retry supervision hook: after a contained fault that may
    /// have hit an engine's precomputation or lazily built state, evicting
    /// guarantees the retry rebuilds from scratch — a possibly poisoned
    /// engine is never re-served. Returns `true` when an entry was dropped.
    pub fn evict(&self, grammar: impl Into<GrammarSource>) -> bool {
        let source = grammar.into();
        self.cache
            .evict_text_with(source.cache_tag(), source.text())
    }

    /// Fault-retry supervision over an [`AnalysisReply`]: re-runs, once,
    /// every conflict slot whose outcome is a contained
    /// [`ConflictOutcome::Internal`] fault, in slot order on this thread,
    /// replacing the slot's report with the re-run's. Retries run under the
    /// original slot's fault-injection scope, so a one-shot injected fault —
    /// its trigger already spent on the first run — recovers to a
    /// `Completed` outcome; a persistent fault stays `Internal`. Returns
    /// the number of slots retried; the grammar-wide stats record retries
    /// and recoveries.
    ///
    /// Only the §5 search slots are retried; a faulted provenance *build*
    /// already surfaces as an error from [`Session::explain`] (never
    /// memoized), so the caller's whole-request retry path covers it.
    pub fn retry_internal_slots(&self, reply: &mut AnalysisReply, req: &AnalysisRequest) -> u64 {
        let engine = reply.cached.engine();
        let report = &mut reply.report;
        let mut retried = 0;
        for (i, slot) in report.reports.iter_mut().enumerate() {
            if !matches!(slot.outcome, ConflictOutcome::Internal(_)) || req.cancel.is_cancelled() {
                continue;
            }
            // One per-slot search budget, clipped by the request deadline
            // so a retry never outlives the request it serves. Same slot
            // scope as the original run: a one-shot fault plan has already
            // spent its trigger there, so the retry runs clean.
            let deadline = req.deadline_after(req.cfg.search.time_limit);
            let mut fresh = lalrcex_core::faultpoint::with_scope(i as u64, || {
                engine.analyze_conflict_cancellable(&slot.conflict, &req.cfg, deadline, &req.cancel)
            });
            retried += 1;
            report.stats.slot_retries += 1;
            if matches!(fresh.outcome, ConflictOutcome::Completed(_)) {
                report.stats.slots_recovered += 1;
            }
            report.stats.search.merge(&fresh.stats.search);
            report.stats.cpu_time +=
                fresh.stats.time_spine + fresh.stats.time_unifying + fresh.stats.time_nonunifying;
            fresh.stats.retries = slot.stats.retries + 1;
            *slot = fresh;
        }
        retried
    }

    /// Runs every lint pass over the grammar, reusing a cached engine (and
    /// its memoized spines) when one exists. Lints on a yacc source report
    /// spans pointing at the real `.y` lines.
    pub fn lint(&self, grammar: impl Into<GrammarSource>) -> Result<LintReply, Error> {
        let source = grammar.into();
        let (cached, cache_hit) = self.engine_for(&source)?;
        let diagnostics = Linter::new().run(cached.engine());
        Ok(LintReply {
            cached,
            diagnostics,
            cache_hit,
        })
    }
}
