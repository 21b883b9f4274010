//! `lalrcex` — LALR conflict diagnosis with counterexamples.
//!
//! Five subcommands over one engine, all built on the `lalrcex::api`
//! session layer:
//!
//! ```text
//! lalrcex [cex] [OPTIONS] GRAMMAR.y    conflict counterexamples (default)
//! lalrcex explain [OPTIONS] GRAMMAR.y  lookahead provenance and conflict
//!                                      classification
//! lalrcex lint [OPTIONS] GRAMMAR.y     static-analysis passes
//! lalrcex serve [OPTIONS]              JSON-Lines analysis service on
//!                                      stdin/stdout (protocol v1)
//! lalrcex batch [OPTIONS] MANIFEST     drive many grammars through one
//!                                      cached session
//! ```
//!
//! Run `lalrcex <command> --help` for per-command options. Every
//! subcommand parses its arguments through one shared scanner, so the
//! contract is uniform: `--help` prints usage on stdout and exits 0;
//! unknown options, missing values, and malformed numbers print a
//! diagnostic plus usage on stderr and exit 2.
//!
//! Exit status (cex, explain, batch): 0 conflict-free, 1 conflicts
//! reported, 2 usage or parse errors, 3 report produced but at least one
//! conflict's diagnosis (or classification) faulted internally (contained
//! partial failure), 130 interrupted by Ctrl-C (the report produced so
//! far is still printed, with `cancelled` stubs).
//!
//! Exit status (lint): 0 no error-severity diagnostic (warnings don't
//! fail the run unless `--deny-warnings`), 1 otherwise, 2 usage or parse
//! errors.
//!
//! Exit status (serve): 0 on `shutdown`, EOF, or peer hangup (a failed
//! response write cancels in-flight work and drains).

// `deny` rather than `forbid`: the signal module below needs one scoped,
// documented `allow` for the raw `signal(2)` FFI.
#![deny(unsafe_code)]

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use lalrcex::api::{AnalysisReply, AnalysisRequest, Error, GrammarFormat, GrammarSource, Session};
use lalrcex::service::{serve, ServeOptions};
use lalrcex_core::{
    format_conflict_stats, format_grammar_stats, format_report, CancelToken, CexConfig,
    ConflictOutcome, Engine, ExampleKind, GrammarReport,
};
use lalrcex_grammar::Grammar;

/// Ctrl-C handling without any dependency: a raw `signal(2)` handler sets
/// an atomic flag; a watcher thread (signal-handler-safe code must not
/// touch locks or allocate) turns the flag into a *hard* cancel on the
/// shared token. The handler resets itself to the OS default so a second
/// Ctrl-C kills the process immediately.
// The crate denies `unsafe_code`; this module is its single exception:
// installing a handler via the raw `signal(2)` FFI is inherently unsafe,
// and the handler body touches only atomics (async-signal-safe).
#[allow(unsafe_code)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    const SIG_IGN: usize = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // Second Ctrl-C falls through to the default (terminate) handler.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    /// Installs the Ctrl-C handler (best effort; errors are ignored).
    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }

    /// Restores SIGPIPE to the OS default. The Rust runtime ignores it,
    /// which turns `lalrcex ... | head` into a broken-pipe panic; the Unix
    /// convention for a line-oriented CLI is to die silently instead.
    pub fn default_sigpipe() {
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }

    /// Ignores SIGPIPE again (undoing [`default_sigpipe`]). `serve` wants
    /// the opposite convention from the one-shot commands: a write to a
    /// hung-up peer must come back as an `EPIPE` error the loop can turn
    /// into an orderly cancel-and-drain, not kill the process mid-request.
    pub fn ignore_sigpipe() {
        unsafe {
            signal(SIGPIPE, SIG_IGN);
        }
    }
}

/// The one argument scanner every subcommand goes through. Centralizing
/// the error paths here is what keeps the CLI contract uniform: `--help`
/// (or `-h`) in flag position prints usage on stdout and exits 0, and
/// every malformed invocation — unknown flag, flag missing its value,
/// value that isn't a number — funnels through [`ArgScan::fail`] to
/// stderr and exit code 2.
struct ArgScan {
    iter: std::vec::IntoIter<String>,
    cmd: &'static str,
    usage: &'static str,
}

impl ArgScan {
    fn new(args: Vec<String>, cmd: &'static str, usage: &'static str) -> ArgScan {
        ArgScan {
            iter: args.into_iter(),
            cmd,
            usage,
        }
    }

    /// The next argument in flag position; `--help` ends the run here.
    fn next_arg(&mut self) -> Option<String> {
        let arg = self.iter.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }

    /// Any parse failure: diagnostic plus usage on stderr, exit 2.
    fn fail(&self, msg: &str) -> ! {
        eprintln!("lalrcex {}: {msg}", self.cmd);
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    fn unknown(&self, arg: &str) -> ! {
        self.fail(&format!("unknown option `{arg}`"));
    }

    /// Stores the one positional argument in `slot`; a flag, or a second
    /// positional, is an unknown option.
    fn positional(&self, slot: &mut String, arg: String) {
        if arg.starts_with('-') || !slot.is_empty() {
            self.unknown(&arg);
        }
        *slot = arg;
    }

    /// Exits 2 with `missing` unless the positional argument was given.
    fn require(&self, slot: &str, missing: &str) {
        if slot.is_empty() {
            self.fail(missing);
        }
    }

    /// The value following a flag, or exit 2.
    fn value(&mut self, flag: &str) -> String {
        self.iter
            .next()
            .unwrap_or_else(|| self.fail(&format!("`{flag}` needs a value")))
    }

    /// The numeric value following a flag, or exit 2.
    fn num<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("`{flag}` needs a number, got `{v}`")))
    }

    /// Whether `--format` asks for JSON (`text` or `json`), or exit 2.
    fn json_format(&mut self) -> bool {
        match self.value("--format").as_str() {
            "text" => false,
            "json" => true,
            other => self.fail(&format!("`--format` is text or json, got `{other}`")),
        }
    }

    /// The value of `--grammar-format`, or exit 2.
    fn grammar_format(&mut self) -> GrammarFormat {
        let v = self.value("--grammar-format");
        GrammarFormat::from_name(&v).unwrap_or_else(|| {
            self.fail(&format!(
                "`--grammar-format` is dsl, yacc, or auto, got `{v}`"
            ))
        })
    }
}

/// The grammar source for a file's text: an explicit `--grammar-format`
/// wins; `auto` takes the file extension as a hint (`.y` and friends mean
/// yacc) and otherwise falls back to content sniffing.
fn file_source(path: &str, text: String, flag: GrammarFormat) -> GrammarSource {
    match flag {
        GrammarFormat::Auto => GrammarSource::from_path_text(std::path::Path::new(path), text),
        pinned => GrammarSource::new(text, pinned),
    }
}

const GLOBAL_USAGE: &str = "\
usage: lalrcex [cex] [OPTIONS] GRAMMAR.y
       lalrcex explain [OPTIONS] GRAMMAR.y
       lalrcex lint [OPTIONS] GRAMMAR.y
       lalrcex serve [OPTIONS]
       lalrcex batch [OPTIONS] MANIFEST
run `lalrcex <command> --help` for per-command options";

// ---------------------------------------------------------------------------
// cex

const CEX_USAGE: &str = "\
usage: lalrcex [cex] [OPTIONS] GRAMMAR.y

  --format text|json   report format (default text; json is schema v1)
  --grammar-format dsl|yacc|auto
                       grammar frontend (default auto: .y/.yacc/.yy/.ypp
                       extensions mean yacc, anything else is sniffed
                       from the content)
  --extended           full unifying search (no shortest-path pruning)
  --time-limit SECS    per-conflict unifying search budget (default 5)
  --total-limit SECS   cumulative unifying budget (default 120)
  --workers N          worker threads for the conflict fan-out
                       (default 0 = one per CPU)
  --stats              print per-conflict and grammar-wide search counters
                       (to stderr in json mode)
  --dump-states        print the full parser state machine (text mode)
  --path               print the shortest lookahead-sensitive path
  --summary            one line per conflict instead of full reports";

/// The settings of `cex`, `explain` and `batch`. The analysis settings
/// and their defaults (the paper's 5 s per conflict, 2 minutes in all)
/// are a [`CexConfig`]; the rest choose what gets printed.
#[derive(Clone, Default)]
struct CexOptions {
    grammar: String,
    grammar_format: GrammarFormat,
    json: bool,
    config: CexConfig,
    dump_states: bool,
    show_path: bool,
    summary: bool,
    stats: bool,
}

impl CexOptions {
    /// Scans `arg` if it is one of the flags `cex`, `explain` and `batch`
    /// share; returns `false` (nothing consumed) otherwise.
    fn scan_shared(&mut self, p: &mut ArgScan, arg: &str) -> bool {
        match arg {
            "--format" => self.json = p.json_format(),
            "--grammar-format" => self.grammar_format = p.grammar_format(),
            "--time-limit" => self.config.search.time_limit = Duration::from_secs(p.num(arg)),
            "--total-limit" => self.config.cumulative_limit = Duration::from_secs(p.num(arg)),
            "--workers" => self.config.workers = p.num(arg),
            "--stats" => self.stats = true,
            _ => return false,
        }
        true
    }

    /// The request for one grammar under these settings.
    fn request(&self, source: GrammarSource, label: &str, cancel: &CancelToken) -> AnalysisRequest {
        AnalysisRequest::new(source)
            .label(label)
            .config(self.config)
            .cancel_token(cancel.clone())
    }
}

fn parse_cex_args(args: Vec<String>) -> CexOptions {
    let mut p = ArgScan::new(args, "cex", CEX_USAGE);
    let mut opts = CexOptions::default();
    while let Some(a) = p.next_arg() {
        if opts.scan_shared(&mut p, &a) {
            continue;
        }
        match a.as_str() {
            "--extended" | "-extendedsearch" => opts.config.search.extended = true,
            "--dump-states" => opts.dump_states = true,
            "--path" => opts.show_path = true,
            "--summary" => opts.summary = true,
            _ => p.positional(&mut opts.grammar, a),
        }
    }
    p.require(&opts.grammar, "no grammar file given");
    opts
}

/// A Ctrl-C-wired cancellation token (see [`sigint`]).
fn interruptible_token() -> CancelToken {
    sigint::install();
    let cancel = CancelToken::new();
    {
        let cancel = cancel.clone();
        std::thread::spawn(move || loop {
            if sigint::INTERRUPTED.load(Ordering::SeqCst) {
                cancel.cancel();
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
    cancel
}

/// Prints a failed analysis of `label` on stderr and returns its exit
/// code: 2 for a grammar that does not parse, 3 for anything else.
fn analysis_error(label: &str, e: &Error) -> u8 {
    match e {
        Error::Grammar(g) | Error::YaccParse(g) => {
            eprintln!("lalrcex: {label}: {g}");
            2
        }
        other => {
            eprintln!("lalrcex: {label}: {other}");
            3
        }
    }
}

/// The prologue `cex` and `explain` share: reads the grammar file, runs
/// `run` on its request in a fresh session, and returns the reply with
/// the Ctrl-C token, or the exit code of the failure (already reported).
fn run_file(
    opts: &CexOptions,
    run: fn(&Session, &AnalysisRequest) -> Result<AnalysisReply, Error>,
) -> Result<(AnalysisReply, CancelToken), ExitCode> {
    let text = std::fs::read_to_string(&opts.grammar).map_err(|e| {
        eprintln!("lalrcex: cannot read {}: {e}", opts.grammar);
        ExitCode::from(2)
    })?;
    let cancel = interruptible_token();
    let source = file_source(&opts.grammar, text, opts.grammar_format);
    let request = opts.request(source, &opts.grammar, &cancel);
    match run(&Session::new(), &request) {
        Ok(reply) => Ok((reply, cancel)),
        Err(e) => Err(ExitCode::from(analysis_error(&opts.grammar, &e))),
    }
}

/// Renders one grammar's text report (header, precedence notes, one block
/// per conflict) — shared verbatim between `cex` and `batch`.
fn print_text_report(
    label: &str,
    g: &Grammar,
    engine: &Engine<'_>,
    report: &GrammarReport,
    opts: &CexOptions,
) {
    if opts.dump_states {
        let auto = engine.automaton();
        for id in auto.state_ids() {
            println!("{}", auto.dump_state(g, id));
        }
    }
    let conflicts = engine.tables().conflicts();
    println!(
        "{}: {} terminals, {} nonterminals, {} productions, {} states, {} conflicts",
        label,
        g.terminal_count() - 1,
        g.nonterminal_count() - 1,
        g.prod_count(),
        engine.automaton().state_count(),
        conflicts.len(),
    );
    if !opts.summary {
        for r in engine.tables().resolutions() {
            println!(
                "Note  : resolved by precedence: state #{} on {}",
                r.state.index(),
                g.display_name(r.terminal)
            );
        }
    }
    for (c, report) in conflicts.iter().zip(&report.reports) {
        if opts.show_path {
            if let Some(path) = engine.spine(c).0.path.clone() {
                println!(
                    "Shortest lookahead-sensitive path:\n{}",
                    lalrcex_core::lssi::display_path(g, engine.graph(), &path)
                );
            }
        }
        if opts.summary {
            let kind = match &report.outcome {
                ConflictOutcome::Internal(_) => "internal fault (contained)",
                ConflictOutcome::Completed(ExampleKind::Unifying) => "unifying",
                ConflictOutcome::Completed(ExampleKind::NonunifyingExhausted) => {
                    "nonunifying (no ambiguity found)"
                }
                ConflictOutcome::Completed(ExampleKind::NonunifyingTimeout) => {
                    "nonunifying (timeout)"
                }
                ConflictOutcome::Completed(ExampleKind::NonunifyingSkipped) => {
                    "nonunifying (budget spent)"
                }
                ConflictOutcome::Completed(ExampleKind::Cancelled) => "cancelled",
            };
            let example = report
                .unifying
                .as_ref()
                .map(|u| u.derivation1.flat(g))
                .or_else(|| {
                    report
                        .nonunifying
                        .as_ref()
                        .map(|n| n.reduce_derivation.flat(g))
                })
                .unwrap_or_default();
            println!(
                "conflict in state #{} on {}: {kind}: {example}",
                c.state.index(),
                g.display_name(c.terminal)
            );
        } else {
            println!("{}", format_report(g, report));
        }
        if opts.stats {
            println!("Stats : {}", format_conflict_stats(&report.stats));
        }
    }
    if opts.stats {
        println!("{}", format_grammar_stats(&report.stats, report.total_time));
    }
}

/// The cex/batch exit code for one analyzed grammar.
fn report_exit(cancelled: bool, report: &GrammarReport) -> u8 {
    if cancelled || report.cancelled_count() > 0 {
        130
    } else if report.internal_count() > 0 {
        3
    } else if report.reports.is_empty() {
        0
    } else {
        1
    }
}

fn run_cex(args: Vec<String>) -> ExitCode {
    let opts = parse_cex_args(args);
    let (reply, cancel) = match run_file(&opts, Session::analyze) {
        Ok(done) => done,
        Err(code) => return code,
    };

    if opts.json {
        println!("{}", reply.to_json());
        if opts.stats {
            eprint!(
                "{}",
                format_grammar_stats(&reply.report.stats, reply.report.total_time)
            );
        }
    } else {
        print_text_report(
            &opts.grammar,
            reply.grammar(),
            reply.engine(),
            &reply.report,
            &opts,
        );
    }
    ExitCode::from(report_exit(cancel.is_cancelled(), &reply.report))
}

// ---------------------------------------------------------------------------
// explain

const EXPLAIN_USAGE: &str = "\
usage: lalrcex explain [OPTIONS] GRAMMAR.y

Classifies every LALR conflict by lookahead provenance: true-ambiguity
candidate (survives canonical LR(1); corroborated when the counterexample
search finds a unifying example), LALR merge artifact (exists only because
LALR merged distinguishable LR(1) states -- splitting states fixes it), or
precedence-resolved (silenced; see lint L009). Each verdict comes with the
DeRemer-Pennello relation chain that carried the conflict terminal into
the lookahead.

  --conflict N         explain only conflict index N (as numbered in the
                       full output)
  --format text|json   output format (default text; json is the schema-v1
                       report document with a `provenance` block on every
                       conflict and resolution)
  --grammar-format dsl|yacc|auto
                       grammar frontend (default auto: extension hint,
                       then content sniffing)
  --time-limit SECS    per-conflict corroboration search budget (default 5)
  --total-limit SECS   cumulative corroboration budget (default 120)
  --workers N          worker threads for the corroboration fan-out
                       (default 0 = one per CPU)
  --stats              grammar-wide counters, including classification
                       tallies (to stderr in json mode)";

struct ExplainOptions {
    cex: CexOptions,
    conflict: Option<usize>,
}

fn parse_explain_args(args: Vec<String>) -> ExplainOptions {
    let mut p = ArgScan::new(args, "explain", EXPLAIN_USAGE);
    let mut opts = ExplainOptions {
        cex: CexOptions::default(),
        conflict: None,
    };
    while let Some(a) = p.next_arg() {
        if opts.cex.scan_shared(&mut p, &a) {
            continue;
        }
        match a.as_str() {
            "--conflict" => opts.conflict = Some(p.num("--conflict")),
            _ => p.positional(&mut opts.cex.grammar, a),
        }
    }
    p.require(&opts.cex.grammar, "no grammar file given");
    opts
}

/// The `lalrcex explain` subcommand: classify every conflict by lookahead
/// provenance and print the relation chains behind the verdicts.
fn run_explain(args: Vec<String>) -> ExitCode {
    let opts = parse_explain_args(args);
    let (reply, cancel) = match run_file(&opts.cex, Session::explain) {
        Ok(done) => done,
        Err(code) => return code,
    };
    let conflicts = reply.report.reports.len();
    if let Some(n) = opts.conflict {
        if n >= conflicts {
            eprintln!(
                "lalrcex: {}: conflict index {n} out of range ({conflicts} conflict(s))",
                opts.cex.grammar,
            );
            return ExitCode::from(2);
        }
    }

    if opts.cex.json {
        let doc = reply.to_json();
        match opts.conflict {
            // `--conflict N` narrows the JSON output to that conflict's
            // document member (the full document keeps every conflict).
            Some(n) => {
                let one = doc
                    .get("conflicts")
                    .and_then(|c| c.as_arr())
                    .and_then(|a| a.get(n))
                    .expect("index validated above");
                println!("{one}");
            }
            None => println!("{doc}"),
        }
        if opts.cex.stats {
            eprint!(
                "{}",
                format_grammar_stats(&reply.report.stats, reply.report.total_time)
            );
        }
    } else {
        print!("{}", reply.render_explain(opts.conflict));
        if opts.cex.stats {
            println!(
                "{}",
                format_grammar_stats(&reply.report.stats, reply.report.total_time)
            );
        }
    }

    let mut code = report_exit(cancel.is_cancelled(), &reply.report);
    if code < 3 && reply.report.stats.class_internal > 0 {
        code = 3;
    }
    ExitCode::from(code)
}

// ---------------------------------------------------------------------------
// lint

const LINT_USAGE: &str = "\
usage: lalrcex lint [OPTIONS] GRAMMAR.y

  --format text|json   diagnostic output format (default text)
  --grammar-format dsl|yacc|auto
                       grammar frontend (default auto: extension hint,
                       then content sniffing)
  --deny-warnings      warnings also make the exit code nonzero
  --list               list the registered passes and exit";

struct LintOptions {
    grammar: String,
    grammar_format: GrammarFormat,
    json: bool,
    deny_warnings: bool,
    list: bool,
}

fn parse_lint_args(args: Vec<String>) -> LintOptions {
    let mut p = ArgScan::new(args, "lint", LINT_USAGE);
    let mut opts = LintOptions {
        grammar: String::new(),
        grammar_format: GrammarFormat::Auto,
        json: false,
        deny_warnings: false,
        list: false,
    };
    while let Some(a) = p.next_arg() {
        match a.as_str() {
            "--format" => opts.json = p.json_format(),
            "--grammar-format" => opts.grammar_format = p.grammar_format(),
            "--deny-warnings" => opts.deny_warnings = true,
            "--list" => opts.list = true,
            _ => p.positional(&mut opts.grammar, a),
        }
    }
    if !opts.list {
        p.require(&opts.grammar, "no grammar file given");
    }
    opts
}

/// The `lalrcex lint` subcommand: run every static-analysis pass over the
/// grammar and print spanned diagnostics.
fn run_lint(args: Vec<String>) -> ExitCode {
    use lalrcex_lint::{render_json, render_text, worst_severity, Severity, PASSES};

    let opts = parse_lint_args(args);
    if opts.list {
        for pass in &PASSES {
            println!(
                "{} {:<28} {}",
                pass.code.id, pass.code.name, pass.description
            );
        }
        return ExitCode::SUCCESS;
    }
    let text = match std::fs::read_to_string(&opts.grammar) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lalrcex: cannot read {}: {e}", opts.grammar);
            return ExitCode::from(2);
        }
    };
    let source = file_source(&opts.grammar, text, opts.grammar_format);
    let reply = match Session::new().lint(source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lalrcex: {}: {e}", opts.grammar);
            return ExitCode::from(2);
        }
    };
    let diags = &reply.diagnostics;
    if opts.json {
        print!("{}", render_json(&opts.grammar, diags));
    } else {
        print!("{}", render_text(&opts.grammar, diags));
        if diags.is_empty() {
            eprintln!("{}: no lint findings", opts.grammar);
        }
    }
    let gate = if opts.deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    };
    match worst_severity(diags) {
        Some(s) if s >= gate => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    }
}

// ---------------------------------------------------------------------------
// serve

const SERVE_USAGE: &str = "\
usage: lalrcex serve [OPTIONS]

Speaks the JSON-Lines analysis protocol (v1) on stdin/stdout: one request
object per line in, one response object per line out. Requests: analyze,
explain, lint, cancel, stats, health, shutdown. See DESIGN.md `Service
layer`.

  --workers N          worker-thread budget shared across in-flight
                       requests (default 0 = one per CPU)
  --cache-mb MB        engine-cache byte budget (default 256; 0 = unlimited)
  --max-line BYTES     maximum request-line length (default 4194304)
  --max-inflight N     admission cap on concurrent analyze/explain/lint
                       requests; excess submissions are shed with a
                       structured `overloaded` error and a retry_after_ms
                       hint (default 0 = unbounded)
  --max-grammar-bytes N
                       admission cap on one request's grammar size;
                       larger grammars are shed with a structured
                       `too_large` error (default 0 = unbounded)
  --default-deadline-ms MS
                       end-to-end deadline applied to requests that carry
                       no deadline_ms of their own; expiry degrades to a
                       partial report, never an error (default 0 = none)";

fn run_serve(args: Vec<String>) -> ExitCode {
    let mut p = ArgScan::new(args, "serve", SERVE_USAGE);
    let mut opts = ServeOptions::default();
    while let Some(a) = p.next_arg() {
        match a.as_str() {
            "--workers" => opts.workers = p.num("--workers"),
            "--cache-mb" => opts.cache_mb = p.num("--cache-mb"),
            "--max-line" => opts.max_line_bytes = p.num("--max-line"),
            "--max-inflight" => opts.max_inflight = p.num("--max-inflight"),
            "--max-grammar-bytes" => opts.max_grammar_bytes = p.num("--max-grammar-bytes"),
            "--default-deadline-ms" => opts.default_deadline_ms = p.num("--default-deadline-ms"),
            other => p.unknown(other),
        }
    }
    // The serve loop handles peer hangups itself (cancel in-flight work,
    // drain, exit 0); dying on the first EPIPE would drop that work.
    sigint::ignore_sigpipe();
    let stdin = std::io::stdin();
    serve(stdin.lock(), std::io::stdout(), &opts);
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// batch

const BATCH_USAGE: &str = "\
usage: lalrcex batch [OPTIONS] MANIFEST

Analyzes every grammar listed in MANIFEST through one shared session (so
repeated texts hit the engine cache). Each manifest line is a grammar file
path, `corpus:NAME` for a bundled corpus grammar, or `corpus:*` for the
whole corpus; blank lines and `#` comments are skipped. A bad entry
(unreadable file, unknown corpus name, grammar parse error) is reported
and skipped — the rest of the run continues, an end-of-run summary counts
the failures, and the exit code is nonzero iff any entry failed.

  --format text|json   per-grammar report format (default text; json emits
                       one schema-v1 document per line)
  --grammar-format dsl|yacc|auto
                       frontend for file entries (default auto: extension
                       hint, then content sniffing; corpus entries are
                       always native DSL)
  --time-limit SECS    per-conflict unifying search budget (default 5)
  --total-limit SECS   cumulative unifying budget per grammar (default 120)
  --workers N          worker threads for each conflict fan-out
  --cache-mb MB        engine-cache byte budget (default 256; 0 = unlimited)
  --stats              per-grammar search counters, plus a final cache
                       summary on stderr";

fn run_batch(args: Vec<String>) -> ExitCode {
    let mut p = ArgScan::new(args, "batch", BATCH_USAGE);
    let mut opts = CexOptions::default();
    let mut manifest = String::new();
    let mut cache_mb = lalrcex_core::cache::DEFAULT_BUDGET_MB;
    while let Some(a) = p.next_arg() {
        if opts.scan_shared(&mut p, &a) {
            continue;
        }
        match a.as_str() {
            "--cache-mb" => cache_mb = p.num("--cache-mb"),
            _ => p.positional(&mut manifest, a),
        }
    }
    p.require(&manifest, "no manifest file given");
    let listing = match std::fs::read_to_string(&manifest) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lalrcex: cannot read {manifest}: {e}");
            return ExitCode::from(2);
        }
    };

    // Resolve manifest lines to (label, grammar text or error) up front.
    // Per-entry failures are isolated: a bad entry is carried as an error,
    // reported in order, and counted — it never aborts the rest of the run.
    let mut items: Vec<(String, Result<GrammarSource, String>)> = Vec::new();
    for line in listing.lines() {
        let entry = line.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        if entry == "corpus:*" {
            for e in lalrcex_corpus::all() {
                items.push((
                    format!("corpus:{}", e.name),
                    Ok(GrammarSource::dsl(e.text().to_owned())),
                ));
            }
        } else if let Some(name) = entry.strip_prefix("corpus:") {
            match lalrcex_corpus::by_name(name) {
                Some(e) => items.push((
                    entry.to_owned(),
                    Ok(GrammarSource::dsl(e.text().to_owned())),
                )),
                None => items.push((
                    entry.to_owned(),
                    Err(format!("unknown corpus grammar `{name}`")),
                )),
            }
        } else {
            match std::fs::read_to_string(entry) {
                Ok(t) => items.push((
                    entry.to_owned(),
                    Ok(file_source(entry, t, opts.grammar_format)),
                )),
                Err(e) => items.push((entry.to_owned(), Err(format!("cannot read: {e}")))),
            }
        }
    }

    let session = Session::with_cache_mb(cache_mb);
    let cancel = interruptible_token();
    let total = items.len();
    let mut analyzed = 0usize;
    let mut failed = 0usize;
    let mut worst = 0u8;
    let summary = |analyzed: usize, failed: usize| {
        eprintln!("lalrcex batch: {analyzed}/{total} entries analyzed, {failed} failed");
    };
    for (label, source) in items {
        let source = match source {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("lalrcex: {label}: {msg}");
                failed += 1;
                worst = worst.max(2);
                continue;
            }
        };
        let reply = match session.analyze(&opts.request(source, &label, &cancel)) {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                worst = worst.max(analysis_error(&label, &e));
                continue;
            }
        };
        analyzed += 1;
        if opts.json {
            println!("{}", reply.to_json());
        } else {
            print_text_report(
                &label,
                reply.grammar(),
                reply.engine(),
                &reply.report,
                &opts,
            );
        }
        let code = report_exit(cancel.is_cancelled(), &reply.report);
        if code == 130 {
            // Interrupted: report what finished, skip the rest.
            summary(analyzed, failed);
            return ExitCode::from(130);
        }
        worst = worst.max(code);
    }
    summary(analyzed, failed);
    if opts.stats {
        let c = session.cache_stats();
        eprintln!(
            "engine cache: {} hits / {} misses / {} evictions, {} entries, {} bytes live",
            c.hits, c.misses, c.evictions, c.entries, c.live_bytes
        );
    }
    ExitCode::from(worst)
}

// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    sigint::default_sigpipe();
    // Chaos testing only: with the `failpoints` feature compiled in,
    // `LALRCEX_FAULT_PLAN` installs a deterministic fault plan (it applies
    // to every subcommand, serve included).
    #[cfg(feature = "failpoints")]
    let _fault_guard = lalrcex_core::faultpoint::install_from_env();

    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("cex") => run_cex(args.split_off(1)),
        Some("explain") => run_explain(args.split_off(1)),
        Some("lint") => run_lint(args.split_off(1)),
        Some("serve") => run_serve(args.split_off(1)),
        Some("batch") => run_batch(args.split_off(1)),
        Some("--help" | "-h") => {
            println!("{GLOBAL_USAGE}");
            ExitCode::SUCCESS
        }
        // Legacy spelling: `lalrcex GRAMMAR.y [OPTIONS]` is implicit cex.
        Some(_) => run_cex(args),
        None => {
            eprintln!("{GLOBAL_USAGE}");
            ExitCode::from(2)
        }
    }
}
