//! The long-lived analysis service behind `lalrcex serve` and
//! `lalrcex batch`: a versioned JSON-Lines request/response protocol over
//! any `BufRead`/`Write` pair (the CLI wires stdin/stdout; tests wire
//! in-memory channels). Hermetic — no sockets, no dependencies.
//!
//! # Protocol (version 1)
//!
//! One JSON object per line in, one JSON object per line out. Requests:
//!
//! ```text
//! {"op":"analyze","id":"r1","grammar":"%% ...","file":"g.y",
//!  "format":"auto","time_limit_ms":5000,"total_limit_ms":120000,
//!  "workers":0,"extended":false,"deadline_ms":0}
//! {"op":"explain","id":"r2","grammar":"%% ...","file":"g.y"}
//! {"op":"lint","id":"r3","grammar":"%% ...","file":"g.y"}
//! {"op":"cancel","id":"r4","target":"r1"}
//! {"op":"stats","id":"r5"}
//! {"op":"health","id":"r6"}
//! {"op":"shutdown","id":"r7"}
//! ```
//!
//! `analyze`, `explain`, and `lint` accept an optional `format` member
//! naming the grammar frontend — `"dsl"`, `"yacc"`, or `"auto"` (the
//! default when absent: content sniffing, see
//! [`crate::api::GrammarFormat`]). An unknown or non-string `format`
//! answers with a structured `unsupported_format` error that echoes the
//! offending value. The member is additive — version-1 clients that never
//! send it see byte-identical behavior — so the protocol stays at
//! version 1.
//!
//! Every response line carries `protocol:1`, the request `id` (`null`
//! when the request was too malformed to have one), and `ok`. `analyze`
//! responses embed the schema-v1 report document (see
//! [`crate::api::report_document`]); `explain` responses embed the same
//! document with a `provenance` classification block on every conflict
//! and resolution (see [`crate::api::explain_document`]); `lint`
//! responses embed the `diagnostics` array `lalrcex lint --format json`
//! writes (one writer, [`lalrcex_lint::render_json`]). The `stats`
//! response lists per-cache-entry byte breakdowns (total charge and the
//! provenance share),
//! re-sampled at snapshot time so lazily built data is visible, each
//! entry's build time per layer (`precompute_ms`: LR(0), lookaheads,
//! tables, state graph), and the supervision counters; `health` is a
//! cheap inline liveness probe
//! reporting `ok`/`shedding`/`draining` and the in-flight count.
//!
//! # Execution model
//!
//! `analyze`, `explain`, and `lint` requests run concurrently, each on
//! its own scoped thread; `cancel`, `stats`, `health`, and `shutdown`
//! are answered inline by the reader, so they can overtake long analyses
//! (that is what makes `cancel` useful and `health` honest under load).
//! Responses therefore arrive in *completion* order — match them to
//! requests by `id`.
//!
//! **Admission control.** Work is bounded *before* it starts: a grammar
//! larger than [`ServeOptions::max_grammar_bytes`] answers with a
//! structured `too_large` error, and a submission arriving while
//! [`ServeOptions::max_inflight`] requests are already running answers
//! with a structured `overloaded` error carrying a deterministic
//! `retry_after_ms` backoff hint. Shedding happens at admission only:
//! already-admitted requests keep their full budgets and complete
//! byte-identically to an unloaded run.
//!
//! **Deadlines.** A request's optional `deadline_ms` (or the server-wide
//! [`ServeOptions::default_deadline_ms`]) starts counting at *admission*,
//! so queue and spawn delay are charged to the request and a request
//! whose deadline lapses while queued expires before doing any search
//! work. Expiry is not an error: the remaining time clips the engine's
//! cumulative search budget, so an expired deadline lands on the
//! degradation ladder — unifying searches are skipped, nonunifying
//! fallbacks are still constructed — and the response reports
//! `deadline_expired:true` alongside a partial report.
//!
//! **Fault-retry supervision.** A contained engine fault is retried once
//! at the finest grain that can absorb it: a conflict slot that reported
//! an `Internal` outcome is re-run under its original fault-injection
//! scope (transient faults — e.g. one-shot injected ones — recover to a
//! completed outcome), and a whole-request fault first evicts the
//! grammar's cache entry so a possibly poisoned engine is never
//! re-served. Responses report `retried_slots`; `stats` and `health`
//! expose the cumulative retry/shed/expiry counters.
//!
//! **Fairness.** The service's worker budget (`ServeOptions::workers`,
//! default one per CPU) is divided evenly across in-flight requests: a
//! request's conflict fan-out gets `max(1, workers / in_flight)` threads.
//! Because the engine's reports are byte-identical for every worker
//! count, this scheduling freedom never changes payloads.
//!
//! **Isolation.** Each request runs inside a panic-containment boundary
//! (on top of the engine's own per-phase containment): a faulted request
//! answers with a structured `internal` error and the loop keeps serving.
//! Malformed and oversized request lines likewise answer with structured
//! errors. A request cancelled via `cancel` answers with
//! `"cancelled":true` and stub conflict entries, mirroring Ctrl-C in the
//! CLI. A failed *response* write means the peer hung up: the loop
//! cancels everything in flight, drains, and returns with
//! [`ServeSummary::hangup`] set rather than burning CPU for a dead
//! client.
//!
//! **Caching.** All requests share the session's grammar-keyed engine
//! cache: re-analyzing unchanged text skips automaton/table/state-graph
//! construction and returns a byte-identical `report`. The `stats` op
//! surfaces hit/miss/eviction counters.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use lalrcex_core::{contain, CancelToken, CexConfig, GrammarReport, PrecomputeTimes};
use lalrcex_lint::Severity;

use crate::api::json::{self, obj, Json};
use crate::api::{
    AnalysisReply, AnalysisRequest, Error, ExplainReply, GrammarFormat, GrammarSource, Session,
};

/// The protocol version stamped on every response line.
pub const PROTOCOL_VERSION: u32 = 1;

/// Tunables for one [`serve`] loop.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker-thread budget shared across in-flight requests
    /// (`0` = one per CPU).
    pub workers: usize,
    /// Engine-cache byte budget in MiB (`0` = unlimited).
    pub cache_mb: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with a structured `budget` error and discarded.
    pub max_line_bytes: usize,
    /// Admission cap on concurrently in-flight analyze/explain/lint
    /// requests (`0` = unbounded). A submission arriving at the cap is
    /// shed with a structured `overloaded` error carrying a
    /// `retry_after_ms` hint; admitted requests are never shed.
    pub max_inflight: usize,
    /// Admission cap on one request's grammar size in bytes
    /// (`0` = unbounded); larger grammars are shed with a structured
    /// `too_large` error before any work is spent on them.
    pub max_grammar_bytes: usize,
    /// Server-wide default end-to-end deadline in milliseconds, applied
    /// to requests that carry no `deadline_ms` of their own (`0` = none).
    pub default_deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 0,
            cache_mb: 256,
            max_line_bytes: 4 << 20,
            max_inflight: 0,
            max_grammar_bytes: 0,
            default_deadline_ms: 0,
        }
    }
}

/// What a finished [`serve`] loop did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered `ok:true`.
    pub served: u64,
    /// Error responses emitted (malformed, oversized, shed, faulted, …).
    pub errors: u64,
    /// `true` when the loop ended on a `shutdown` request (vs. EOF).
    pub shutdown: bool,
    /// `true` when a response write failed (peer hung up) and the loop
    /// cancelled its in-flight work and drained early.
    pub hangup: bool,
}

#[derive(Default)]
struct Counters {
    analyze: AtomicU64,
    explain: AtomicU64,
    lint: AtomicU64,
    cancel: AtomicU64,
    stats: AtomicU64,
    health: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    too_large: AtomicU64,
    expired: AtomicU64,
    slot_retries: AtomicU64,
    request_retries: AtomicU64,
}

impl Counters {
    /// Appends the five supervision counters `stats` and `health` both
    /// report.
    fn supervision(&self, b: json::ObjBuilder) -> json::ObjBuilder {
        b.push("overloaded", counter_json(&self.overloaded))
            .push("too_large", counter_json(&self.too_large))
            .push("deadline_expired", counter_json(&self.expired))
            .push("slot_retries", counter_json(&self.slot_retries))
            .push("request_retries", counter_json(&self.request_retries))
    }
}

fn counter_json(c: &AtomicU64) -> Json {
    Json::num(c.load(Ordering::Relaxed) as f64)
}

struct Shared<W: Write> {
    out: Mutex<W>,
    session: Session,
    inflight: Mutex<HashMap<String, CancelToken>>,
    peer_gone: AtomicBool,
    worker_budget: usize,
    max_inflight: usize,
    counters: Counters,
}

impl<W: Write> Shared<W> {
    fn lock_inflight(&self) -> MutexGuard<'_, HashMap<String, CancelToken>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The number of requests currently in flight, from the map itself
    /// (the one source of truth, so `stats`/`health` snapshots and the
    /// admission decision can never disagree with it).
    fn inflight_len(&self) -> usize {
        self.lock_inflight().len()
    }

    /// Writes one response line (serialize + newline + flush) under the
    /// writer lock. A failed write means the peer hung up: flag the loop
    /// to stop admitting and cancel everything in flight, so the
    /// drain is prompt instead of finishing analyses nobody will read.
    fn respond(&self, response: Json, ok: bool) {
        if ok {
            self.counters.served.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut line = response.to_string();
        line.push('\n');
        let io = {
            let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            out.write_all(line.as_bytes()).and_then(|()| out.flush())
        };
        if io.is_err() && !self.peer_gone.swap(true, Ordering::SeqCst) {
            for token in self.lock_inflight().values() {
                token.cancel();
            }
        }
    }

    /// The fair worker share for a newly started request.
    fn worker_share(&self) -> usize {
        (self.worker_budget / self.inflight_len().max(1)).max(1)
    }
}

/// Response-envelope helpers.
fn envelope(id: Option<&str>, ok: bool) -> json::ObjBuilder {
    obj()
        .push("protocol", Json::num(PROTOCOL_VERSION))
        .push("id", id.map_or(Json::Null, Json::str))
        .push("ok", Json::Bool(ok))
}

fn error_response(id: Option<&str>, kind: &str, message: &str) -> Json {
    envelope(id, false)
        .push(
            "error",
            obj()
                .push("kind", Json::str(kind))
                .push("message", Json::str(message))
                .build(),
        )
        .build()
}

/// The error response for a typed [`Error`]: its `kind` and `message`,
/// then the members `details` adds.
fn typed_error(
    id: Option<&str>,
    err: &Error,
    details: impl FnOnce(json::ObjBuilder) -> json::ObjBuilder,
) -> Json {
    let error = obj()
        .push("kind", Json::str(err.kind()))
        .push("message", Json::str(err.to_string()));
    envelope(id, false)
        .push("error", details(error).build())
        .build()
}

/// The admission-control shed response: `overloaded`, with the caps and a
/// deterministic `retry_after_ms` backoff hint that scales with the load
/// the client just observed.
fn overloaded_response(id: &str, inflight: usize, limit: usize) -> Json {
    let retry_after_ms = 100 * inflight as u64;
    let err = Error::Overloaded {
        inflight,
        limit,
        retry_after_ms,
    };
    typed_error(Some(id), &err, |e| {
        e.push("inflight", Json::num(inflight as f64))
            .push("limit", Json::num(limit as f64))
            .push("retry_after_ms", Json::num(retry_after_ms as f64))
    })
}

/// The admission-control shed response for an over-cap grammar.
fn too_large_response(id: &str, actual: usize, limit: usize) -> Json {
    let err = Error::TooLarge { limit, actual };
    typed_error(Some(id), &err, |e| {
        e.push("limit", Json::num(limit as f64))
            .push("actual", Json::num(actual as f64))
    })
}

/// How one bounded line read ended.
enum LineRead {
    /// End of stream (nothing buffered).
    Eof,
    /// A complete line is in the buffer (without the newline).
    Line,
    /// The line exceeded the cap; the excess was discarded up to the
    /// newline (or EOF).
    Oversized,
}

/// Reads one `\n`-terminated line into `buf`, never buffering more than
/// `max` bytes: an over-long line is drained and reported as
/// [`LineRead::Oversized`] instead of growing without bound.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if oversized {
                LineRead::Oversized
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !oversized {
            if buf.len() + take <= max {
                buf.extend_from_slice(&chunk[..take]);
            } else {
                oversized = true;
            }
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(if oversized {
                LineRead::Oversized
            } else {
                LineRead::Line
            });
        }
    }
}

/// Reads a request's optional `format` member: absent means `auto`;
/// an unknown name or a non-string value is an error carrying the
/// offending value's rendering (for the structured response).
fn request_format(req: &Json) -> Result<GrammarFormat, String> {
    match req.get("format") {
        None | Some(Json::Null) => Ok(GrammarFormat::Auto),
        Some(Json::Str(name)) => GrammarFormat::from_name(name).ok_or_else(|| name.clone()),
        Some(other) => Err(other.to_string()),
    }
}

/// The structured rejection for an unknown `format` member: kind
/// `unsupported_format`, echoing the offending value so clients can log
/// it without re-parsing their own request.
fn unsupported_format_response(id: Option<&str>, format: &str) -> Json {
    let err = Error::UnsupportedFormat {
        format: format.to_owned(),
    };
    typed_error(id, &err, |e| e.push("format", Json::str(format)))
}

/// Extracts the per-request analysis settings from a parsed request: the
/// [`CexConfig`] defaults, overridden by the members the request sends.
fn analysis_request(
    req: &Json,
    grammar: GrammarSource,
    workers_cap: usize,
    deadline: Option<Instant>,
) -> AnalysisRequest {
    let ms = |key: &str| {
        req.get(key)
            .and_then(Json::as_u64)
            .map(Duration::from_millis)
    };
    let mut cfg = CexConfig::default();
    cfg.search.time_limit = ms("time_limit_ms").unwrap_or(cfg.search.time_limit);
    cfg.cumulative_limit = ms("total_limit_ms").unwrap_or(cfg.cumulative_limit);
    if let Some(extended) = req.get("extended").and_then(Json::as_bool) {
        cfg.search.extended = extended;
    }
    let requested = req
        .get("workers")
        .and_then(Json::as_u64)
        .map(|w| w as usize)
        .unwrap_or(0);
    // `0` (or absent) takes the fair share; an explicit request is honored
    // up to the share, so one request cannot starve the others.
    cfg.workers = if requested == 0 {
        workers_cap
    } else {
        requested.min(workers_cap)
    };
    let mut request = AnalysisRequest::new(grammar)
        .label(
            req.get("file")
                .and_then(Json::as_str)
                .unwrap_or("<memory>")
                .to_owned(),
        )
        .config(cfg);
    if let Some(d) = deadline {
        request = request.deadline(d);
    }
    request
}

/// Marks a request's deadline as lapsed at response time and bumps the
/// expiry counter. Called once per admitted request, as it completes.
fn note_expiry<W: Write>(shared: &Shared<W>, deadline: Option<Instant>) -> bool {
    let expired = deadline.is_some_and(|d| Instant::now() >= d);
    if expired {
        shared.counters.expired.fetch_add(1, Ordering::Relaxed);
    }
    expired
}

/// The supervised path every `analyze`, `explain` and `lint` request
/// shares: counts the request, reads the grammar and its format, runs `run` inside the
/// `serve.request` containment boundary (on top of the engine's
/// per-phase boundaries, so whatever a faulted request does, the serve
/// loop answers and keeps going), and maps every failure to the same
/// structured error response.
///
/// Whole-request fault-retry supervision: a contained fault that hit
/// engine construction, a provenance build, or escaped the per-slot
/// boundaries may have left poisoned state in the cache, so the grammar's
/// entry is evicted before the one supervised re-run — a possibly
/// poisoned engine is never re-served. A cancelled request is not
/// retried.
fn supervised<W: Write, R>(
    shared: &Shared<W>,
    id: &str,
    op: &str,
    req: &Json,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    run: impl Fn(&AnalysisRequest) -> Result<R, Error>,
) -> Result<(R, AnalysisRequest), Json> {
    let counter = match op {
        "analyze" => &shared.counters.analyze,
        "explain" => &shared.counters.explain,
        _ => &shared.counters.lint,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    let Some(grammar) = req.get("grammar").and_then(Json::as_str) else {
        let message = format!("{op} requires a `grammar` string");
        return Err(error_response(Some(id), "protocol", &message));
    };
    let format = request_format(req).map_err(|bad| unsupported_format_response(Some(id), &bad))?;
    let source = GrammarSource::new(grammar, format);
    let request =
        analysis_request(req, source, shared.worker_share(), deadline).cancel_token(cancel.clone());
    let attempt = || {
        contain("serve.request", || {
            lalrcex_core::fail_point!("serve.request");
            run(&request)
        })
    };
    let mut outcome = attempt();
    if matches!(outcome, Ok(Err(Error::Engine(_))) | Err(_)) && !cancel.is_cancelled() {
        shared.session.evict(request.source());
        shared
            .counters
            .request_retries
            .fetch_add(1, Ordering::Relaxed);
        outcome = attempt();
    }
    match outcome {
        Ok(Ok(reply)) => Ok((reply, request)),
        Ok(Err(e)) => Err(error_response(Some(id), e.kind(), &e.to_string())),
        Err(e) => Err(error_response(
            Some(id),
            "internal",
            &Error::Engine(e).to_string(),
        )),
    }
}

/// What the `analyze` and `explain` replies share: the §5 report, the
/// cache temperature, one retry of each contained `Internal` slot, and
/// the members that follow the shared response head.
trait ReportReply {
    /// The protocol op the reply answers.
    const OP: &'static str;
    fn report(&self) -> &GrammarReport;
    fn cache_hit(&self) -> bool;
    fn retry_slots(&mut self, session: &Session, request: &AnalysisRequest) -> u64;
    fn members(&self, head: json::ObjBuilder) -> json::ObjBuilder;
}

impl ReportReply for AnalysisReply {
    const OP: &'static str = "analyze";

    fn report(&self) -> &GrammarReport {
        &self.report
    }

    fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    fn retry_slots(&mut self, session: &Session, request: &AnalysisRequest) -> u64 {
        session.retry_internal_slots(self, request)
    }

    fn members(&self, head: json::ObjBuilder) -> json::ObjBuilder {
        head.push(
            "internal_count",
            Json::num(self.report.internal_count() as u32),
        )
        .push("report", self.to_json())
    }
}

impl ReportReply for ExplainReply {
    const OP: &'static str = "explain";

    fn report(&self) -> &GrammarReport {
        &self.report
    }

    fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    fn retry_slots(&mut self, session: &Session, request: &AnalysisRequest) -> u64 {
        session.retry_internal_explain_slots(self, request)
    }

    fn members(&self, head: json::ObjBuilder) -> json::ObjBuilder {
        let counts = self.provenance.counts();
        head.push(
            "classification",
            obj()
                .push(
                    "true_ambiguity_candidates",
                    Json::num(counts.true_candidates as f64),
                )
                .push("merge_artifacts", Json::num(counts.merge_artifacts as f64))
                .push(
                    "precedence_resolved",
                    Json::num(counts.precedence_resolved as f64),
                )
                .push("internal", Json::num(counts.internal as f64))
                .build(),
        )
        .push("report", self.to_json())
    }
}

/// An `analyze` or `explain` request, answered by `run`: the supervised
/// run, slot-level supervision, and the response head both ops share.
fn handle_report<W: Write, R: ReportReply>(
    shared: &Shared<W>,
    id: &str,
    req: &Json,
    cancel: CancelToken,
    deadline: Option<Instant>,
    run: fn(&Session, &AnalysisRequest) -> Result<R, Error>,
) -> Result<Json, Json> {
    let started = Instant::now();
    let (mut reply, request) = supervised(shared, id, R::OP, req, &cancel, deadline, |r| {
        run(&shared.session, r)
    })?;
    // Slot-level supervision: re-run each contained `Internal` conflict
    // slot once; transient faults recover in place.
    let mut retried_slots = 0;
    if reply.report().internal_count() > 0 && !cancel.is_cancelled() {
        retried_slots = reply.retry_slots(&shared.session, &request);
        shared
            .counters
            .slot_retries
            .fetch_add(retried_slots, Ordering::Relaxed);
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let expired = note_expiry(shared, deadline);
    let cancelled = cancel.is_cancelled() || reply.report().cancelled_count() > 0;
    let head = envelope(Some(id), true)
        .push("op", Json::str(R::OP))
        .push("cache", cache_json(reply.cache_hit()))
        .push("elapsed_ms", Json::Num(elapsed_ms))
        .push("cancelled", Json::Bool(cancelled))
        .push("deadline_expired", Json::Bool(expired))
        .push("retried_slots", Json::num(retried_slots as f64));
    Ok(reply.members(head).build())
}

/// A reply's `cache` member.
fn cache_json(hit: bool) -> Json {
    Json::str(if hit { "hit" } else { "miss" })
}

fn handle_lint<W: Write>(
    shared: &Shared<W>,
    id: &str,
    req: &Json,
    deadline: Option<Instant>,
) -> Result<Json, Json> {
    // Lint takes no cancel token: a fresh one keeps its whole-request
    // retry unconditional.
    let (reply, _) = supervised(
        shared,
        id,
        "lint",
        req,
        &CancelToken::new(),
        deadline,
        |r| shared.session.lint(r.source()),
    )?;
    let doc = lalrcex_lint::render_json("", &reply.diagnostics);
    let Some(diagnostics) = json::parse(&doc)
        .ok()
        .and_then(|d| d.get("diagnostics").cloned())
    else {
        return Err(error_response(
            Some(id),
            "internal",
            "lint JSON did not parse",
        ));
    };
    let expired = note_expiry(shared, deadline);
    let worst = reply
        .diagnostics
        .iter()
        .map(|d| d.severity)
        .max()
        .map_or(Json::Null, |s: Severity| Json::str(s.label()));
    Ok(envelope(Some(id), true)
        .push("op", Json::str("lint"))
        .push("cache", cache_json(reply.cache_hit))
        .push("deadline_expired", Json::Bool(expired))
        .push("diagnostics", diagnostics)
        .push("worst", worst)
        .build())
}

fn handle_stats<W: Write>(shared: &Shared<W>, id: &str) {
    shared.counters.stats.fetch_add(1, Ordering::Relaxed);
    // Per-entry breakdowns re-sample each engine's estimated bytes, so
    // provenance tables built since the entry's insertion show up both
    // here and in the cache's own eviction accounting. Sampled before the
    // counter snapshot so `live_bytes` agrees with the entries listed.
    let entries = Json::Arr(
        shared
            .session
            .cache_entry_stats()
            .iter()
            .map(|e| {
                obj()
                    .push("key", Json::str(format!("{:016x}", e.key)))
                    .push("text_bytes", Json::num(e.text_bytes as f64))
                    .push("bytes", Json::num(e.bytes as f64))
                    .push("provenance_bytes", Json::num(e.provenance_bytes as f64))
                    .push("precompute_ms", precompute_json(&e.precompute))
                    .build()
            })
            .collect(),
    );
    let cache = shared.session.cache_stats();
    let budget = if cache.budget_bytes == usize::MAX {
        Json::Null
    } else {
        Json::num(cache.budget_bytes as f64)
    };
    let response = envelope(Some(id), true)
        .push("op", Json::str("stats"))
        .push(
            "cache",
            obj()
                .push("hits", Json::num(cache.hits as f64))
                .push("misses", Json::num(cache.misses as f64))
                .push("evictions", Json::num(cache.evictions as f64))
                .push("entries", Json::num(cache.entries as f64))
                .push("live_bytes", Json::num(cache.live_bytes as f64))
                .push("budget_bytes", budget)
                .build(),
        )
        .push("entries", entries)
        .push(
            "requests",
            obj()
                .push("analyze", counter_json(&shared.counters.analyze))
                .push("explain", counter_json(&shared.counters.explain))
                .push("lint", counter_json(&shared.counters.lint))
                .push("cancel", counter_json(&shared.counters.cancel))
                .push("stats", counter_json(&shared.counters.stats))
                .push("health", counter_json(&shared.counters.health))
                .push("errors", counter_json(&shared.counters.errors))
                .build(),
        )
        .push("supervision", shared.counters.supervision(obj()).build())
        .push("inflight", Json::num(shared.inflight_len() as f64))
        .build();
    shared.respond(response, true);
}

/// An engine's build time per layer, in milliseconds (serve `stats` only;
/// timings stay out of the schema-v1 report).
fn precompute_json(t: &PrecomputeTimes) -> Json {
    let ms = |d: Duration| Json::num(d.as_secs_f64() * 1e3);
    obj()
        .push("lr0", ms(t.lr0))
        .push("lookaheads", ms(t.lookaheads))
        .push("tables", ms(t.tables))
        .push("state_graph", ms(t.state_graph))
        .build()
}

fn handle_health<W: Write>(shared: &Shared<W>, id: &str) {
    shared.counters.health.fetch_add(1, Ordering::Relaxed);
    let inflight = shared.inflight_len();
    let status = if shared.peer_gone.load(Ordering::Relaxed) {
        "draining"
    } else if shared.max_inflight > 0 && inflight >= shared.max_inflight {
        "shedding"
    } else {
        "ok"
    };
    let response = envelope(Some(id), true)
        .push("op", Json::str("health"))
        .push("status", Json::str(status))
        .push("inflight", Json::num(inflight as f64))
        .push(
            "max_inflight",
            if shared.max_inflight == 0 {
                Json::Null
            } else {
                Json::num(shared.max_inflight as f64)
            },
        )
        .push(
            "counters",
            shared
                .counters
                .supervision(
                    obj()
                        .push("served", counter_json(&shared.counters.served))
                        .push("errors", counter_json(&shared.counters.errors)),
                )
                .build(),
        )
        .build();
    shared.respond(response, true);
}

fn handle_cancel<W: Write>(shared: &Shared<W>, id: &str, req: &Json) {
    shared.counters.cancel.fetch_add(1, Ordering::Relaxed);
    let Some(target) = req.get("target").and_then(Json::as_str) else {
        shared.respond(
            error_response(Some(id), "protocol", "cancel requires a `target` id"),
            false,
        );
        return;
    };
    let token = shared.lock_inflight().get(target).cloned();
    let found = match token {
        Some(t) => {
            // Same cancel as the CLI's Ctrl-C: in-flight phases stop at
            // their next poll, unstarted conflicts get stub entries, and
            // the target's response reports `cancelled:true`.
            t.cancel();
            true
        }
        None => false,
    };
    let response = envelope(Some(id), true)
        .push("op", Json::str("cancel"))
        .push("target", Json::str(target))
        .push("found", Json::Bool(found))
        .build();
    shared.respond(response, true);
}

/// Runs the serve loop until EOF, a `shutdown` request, or a peer hangup
/// detected on a response write, answering every request line with
/// exactly one response line. In-flight requests are drained (never
/// dropped) before returning.
pub fn serve<R: BufRead, W: Write + Send>(
    mut reader: R,
    writer: W,
    opts: &ServeOptions,
) -> ServeSummary {
    let worker_budget = if opts.workers > 0 {
        opts.workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    let shared = Shared {
        out: Mutex::new(writer),
        session: Session::with_cache_mb(opts.cache_mb),
        inflight: Mutex::new(HashMap::new()),
        peer_gone: AtomicBool::new(false),
        worker_budget,
        max_inflight: opts.max_inflight,
        counters: Counters::default(),
    };
    let mut shutdown = false;
    let mut buf = Vec::new();

    std::thread::scope(|scope| {
        loop {
            // A failed response write means nobody is reading: stop
            // admitting and drain. (A peer that hangs up without sending
            // EOF on our input is only noticed at the next write; the
            // in-flight work it cancels is already spent either way.)
            if shared.peer_gone.load(Ordering::Relaxed) {
                break;
            }
            match read_line_bounded(&mut reader, &mut buf, opts.max_line_bytes) {
                Err(_) | Ok(LineRead::Eof) => break,
                Ok(LineRead::Oversized) => {
                    shared.respond(
                        error_response(
                            None,
                            "budget",
                            &format!(
                                "request line exceeds {} bytes; raise --max-line or split the request",
                                opts.max_line_bytes
                            ),
                        ),
                        false,
                    );
                    continue;
                }
                Ok(LineRead::Line) => {}
            }
            let line = match std::str::from_utf8(&buf) {
                Ok(l) => l.trim(),
                Err(_) => {
                    shared.respond(
                        error_response(None, "protocol", "request line is not UTF-8"),
                        false,
                    );
                    continue;
                }
            };
            if line.is_empty() {
                continue;
            }
            let req = match json::parse(line) {
                Ok(v) => v,
                Err(e) => {
                    shared.respond(
                        error_response(None, "protocol", &format!("malformed JSON: {e}")),
                        false,
                    );
                    continue;
                }
            };
            // A missing `protocol` member means "current version"; a present
            // one must match — silently serving v1 semantics to a client
            // that asked for something newer would be worse than an error.
            if let Some(v) = req.get("protocol") {
                if v.as_u64() != Some(u64::from(PROTOCOL_VERSION)) {
                    let id = req.get("id").and_then(Json::as_str);
                    shared.respond(
                        error_response(
                            id,
                            "protocol",
                            &format!(
                                "unsupported protocol version (server speaks {PROTOCOL_VERSION})"
                            ),
                        ),
                        false,
                    );
                    continue;
                }
            }
            let Some(op) = req.get("op").and_then(Json::as_str).map(str::to_owned) else {
                shared.respond(
                    error_response(None, "protocol", "request has no `op` string"),
                    false,
                );
                continue;
            };
            let Some(id) = req.get("id").and_then(Json::as_str).map(str::to_owned) else {
                shared.respond(
                    error_response(None, "protocol", "request has no `id` string"),
                    false,
                );
                continue;
            };
            match op.as_str() {
                "analyze" | "explain" | "lint" => {
                    // Admission tier 1: the per-request grammar-byte cap,
                    // checked before any work is spent. (A missing grammar
                    // still admits, so the handler can answer with its
                    // op-specific protocol error.)
                    if opts.max_grammar_bytes > 0 {
                        let size = req.get("grammar").and_then(Json::as_str).map(str::len);
                        if let Some(size) = size.filter(|&s| s > opts.max_grammar_bytes) {
                            shared.counters.too_large.fetch_add(1, Ordering::Relaxed);
                            shared.respond(
                                too_large_response(&id, size, opts.max_grammar_bytes),
                                false,
                            );
                            continue;
                        }
                    }
                    // The end-to-end deadline starts at admission, so
                    // queue and spawn delay count against it and a
                    // request that waits too long expires before doing
                    // any search work.
                    let deadline_ms = req
                        .get("deadline_ms")
                        .and_then(Json::as_u64)
                        .unwrap_or(opts.default_deadline_ms);
                    let deadline = (deadline_ms > 0)
                        .then(|| Instant::now() + Duration::from_millis(deadline_ms));
                    let cancel = CancelToken::new();
                    {
                        let mut inflight = shared.lock_inflight();
                        if inflight.contains_key(&id) {
                            drop(inflight);
                            shared.respond(
                                error_response(
                                    Some(&id),
                                    "protocol",
                                    "a request with this id is already in flight",
                                ),
                                false,
                            );
                            continue;
                        }
                        // Admission tier 2: shed at the in-flight cap,
                        // decided under the same lock that defines the
                        // count, so the decision and the snapshot agree.
                        if opts.max_inflight > 0 && inflight.len() >= opts.max_inflight {
                            let seen = inflight.len();
                            drop(inflight);
                            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                            shared
                                .respond(overloaded_response(&id, seen, opts.max_inflight), false);
                            continue;
                        }
                        inflight.insert(id.clone(), cancel.clone());
                    }
                    let shared = &shared;
                    // The id leaves the in-flight map before the response
                    // is written, so a `stats` read after the response
                    // never counts a request that has already answered.
                    scope.spawn(move || {
                        let handled = match op.as_str() {
                            "analyze" => {
                                handle_report(shared, &id, &req, cancel, deadline, Session::analyze)
                            }
                            "explain" => {
                                handle_report(shared, &id, &req, cancel, deadline, Session::explain)
                            }
                            _ => handle_lint(shared, &id, &req, deadline),
                        };
                        let (response, ok) = match handled {
                            Ok(response) => (response, true),
                            Err(response) => (response, false),
                        };
                        shared.lock_inflight().remove(&id);
                        shared.respond(response, ok);
                    });
                }
                "cancel" => handle_cancel(&shared, &id, &req),
                "stats" => handle_stats(&shared, &id),
                "health" => handle_health(&shared, &id),
                "shutdown" => {
                    shared.respond(
                        envelope(Some(&id), true)
                            .push("op", Json::str("shutdown"))
                            .build(),
                        true,
                    );
                    shutdown = true;
                    break;
                }
                other => {
                    shared.respond(
                        error_response(
                            Some(&id),
                            "protocol",
                            &format!(
                                "unknown op `{other}` (expected analyze, explain, \
                                 lint, cancel, stats, health, or shutdown)"
                            ),
                        ),
                        false,
                    );
                }
            }
        }
        // Scope exit joins every in-flight request handler: the loop never
        // drops work on shutdown, EOF, or hangup.
    });

    ServeSummary {
        served: shared.counters.served.load(Ordering::Relaxed),
        errors: shared.counters.errors.load(Ordering::Relaxed),
        shutdown,
        hangup: shared.peer_gone.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_with(input: &str, opts: &ServeOptions) -> (Vec<Json>, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve(Cursor::new(input.as_bytes()), &mut out, opts);
        let lines = String::from_utf8(out).unwrap();
        let responses = lines
            .lines()
            .map(|l| json::parse(l).expect("every response line is valid JSON"))
            .collect();
        (responses, summary)
    }

    fn run(input: &str) -> (Vec<Json>, ServeSummary) {
        run_with(input, &ServeOptions::default())
    }

    #[test]
    fn analyze_then_shutdown() {
        let (responses, summary) = run(concat!(
            r#"{"op":"analyze","id":"a","grammar":"%% e : e '+' e | NUM ;"}"#,
            "\n",
            r#"{"op":"shutdown","id":"z"}"#,
            "\n",
        ));
        assert_eq!(responses.len(), 2);
        assert!(summary.shutdown);
        assert!(!summary.hangup);
        assert_eq!(summary.served, 2);
        let analyze = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some("a"))
            .unwrap();
        assert_eq!(analyze.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(analyze.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(
            analyze.get("deadline_expired").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(analyze.get("retried_slots").and_then(Json::as_u64), Some(0));
        let report = analyze.get("report").unwrap();
        assert_eq!(report.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            report
                .get("conflicts")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn malformed_line_answers_and_loop_continues() {
        let (responses, summary) = run(concat!(
            "this is not json\n",
            r#"{"op":"stats","id":"s"}"#,
            "\n",
        ));
        assert_eq!(responses.len(), 2);
        assert!(!summary.shutdown, "EOF, not shutdown");
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[0].get("id"), Some(&Json::Null));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn cancel_of_unknown_target_reports_not_found() {
        let (responses, _) = run(concat!(r#"{"op":"cancel","id":"c","target":"nope"}"#, "\n"));
        assert_eq!(
            responses[0].get("found").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn mismatched_protocol_version_is_rejected() {
        let (responses, summary) = run(concat!(
            r#"{"protocol":9,"op":"stats","id":"v9"}"#,
            "\n",
            r#"{"protocol":1,"op":"stats","id":"v1"}"#,
            "\n",
        ));
        assert_eq!(responses.len(), 2);
        assert_eq!(summary.errors, 1);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("v9"));
        let err = responses[0].get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("protocol"));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn oversized_grammar_is_shed_at_admission() {
        let opts = ServeOptions {
            max_grammar_bytes: 8,
            ..ServeOptions::default()
        };
        let (responses, summary) = run_with(
            concat!(
                r#"{"op":"analyze","id":"big","grammar":"%% e : e '+' e | NUM ;"}"#,
                "\n",
            ),
            &opts,
        );
        assert_eq!(summary.errors, 1);
        let err = responses[0].get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("too_large"));
        assert_eq!(err.get("limit").and_then(Json::as_u64), Some(8));
        assert!(err.get("actual").and_then(Json::as_u64).unwrap() > 8);
    }

    #[test]
    fn health_reports_ok_when_idle() {
        let opts = ServeOptions {
            max_inflight: 3,
            ..ServeOptions::default()
        };
        let (responses, _) = run_with(concat!(r#"{"op":"health","id":"h"}"#, "\n"), &opts);
        let h = &responses[0];
        assert_eq!(h.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(h.get("inflight").and_then(Json::as_u64), Some(0));
        assert_eq!(h.get("max_inflight").and_then(Json::as_u64), Some(3));
        let counters = h.get("counters").unwrap();
        assert_eq!(counters.get("overloaded").and_then(Json::as_u64), Some(0));
    }
}
