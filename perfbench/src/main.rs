//! The lalrcex benchmark: one command, three workloads, a traced run.
//!
//! ```text
//! lalrcex-perfbench --workload corpus_cex|verify_large|serve_mixed
//!                   --seed N --seconds S --trace 0|1
//!                   --lalrcex PATH/TO/lalrcex --ledger perfbench/ledger.txt
//! lalrcex-perfbench --write-ledger --ledger perfbench/ledger.txt
//! ```
//!
//! Human-readable lines go first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from a traced replay. `perfbench/README.md` maps every
//! layer metric to the end-to-end metric it should move.

mod corpus;
mod gen;
mod ledger;
mod replay;
mod serve;
mod trace;
mod verify;

use ledger::Ledger;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{median, percentile, ratio, Recorder};

/// End-to-end metrics, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("decided_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, in output order. `*_ms` values are
/// self time per op, counts are per op.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grammar.parse_ms", "ms"),
    ("yacc.parse_ms", "ms"),
    ("grammar.productions", "count"),
    ("lr.automaton_ms", "ms"),
    ("lr.states", "count"),
    ("lr.items", "count"),
    ("lr.tables_ms", "ms"),
    ("lr.conflicts", "count"),
    ("lr.resolutions", "count"),
    ("core.state_graph_ms", "ms"),
    ("core.state_graph_nodes", "count"),
    ("core.spine_ms", "ms"),
    ("core.spine_memo_hit_frac", "frac"),
    ("core.search_ms", "ms"),
    ("core.search_explored", "count"),
    ("core.search_configs_per_s", "1/s"),
    ("core.search_dedup_frac", "frac"),
    ("core.search_cutoff_frac", "frac"),
    ("core.nonunifying_ms", "ms"),
    ("core.provenance_ms", "ms"),
    ("core.render_text_ms", "ms"),
    ("api.render_json_ms", "ms"),
    ("lint.ms", "ms"),
    ("core.cache_hit_frac", "frac"),
    ("core.cache_evictions", "count"),
    ("core.cache_live_mb", "MB"),
    ("service.overhead_ms_p50", "ms"),
    ("service.engine_ms_p50", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unaccounted_frac", "frac"),
];

pub const WORKLOADS: &[&str] = &["corpus_cex", "verify_large", "serve_mixed"];

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 21;

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub lalrcex: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    failed_ops: BTreeSet<String>,
    pub failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    extras: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records a failed op; `msg` starts with the op's key (`name: ...`).
    pub fn fail(&mut self, msg: String) {
        let key = msg.split(": ").next().unwrap_or(&msg).to_owned();
        self.failed_ops.insert(key);
        self.failures.push(msg);
    }

    pub fn fail_all(&mut self, msgs: Vec<String>) {
        for m in msgs {
            self.fail(m);
        }
    }

    pub fn failed(&self) -> u64 {
        (self.failed_ops.len() as u64).min(self.attempted)
    }

    /// An end-to-end or per-layer metric; its unit comes from
    /// [`END_TO_END`] / [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// A figure printed for people but not part of the JSON result.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics every workload reports the same way.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        wall_s: f64,
        ops_per_s: f64,
        op_ms: &[f64],
        rss: f64,
    ) {
        self.metric("setup_s", setup_s);
        self.metric("wall_s", wall_s);
        self.metric("ops_per_s", ops_per_s);
        self.metric("op_ms_p50", median(op_ms));
        self.metric("op_ms_p90", percentile(op_ms, 90.0));
        self.metric("peak_rss_mb", rss);
        self.note(format!("op latency sample: {} ops", op_ms.len()));
    }
}

/// Serve-side layer figures, read from the envelopes and the `stats` op.
#[derive(Default)]
pub struct ServeLayers {
    pub cache_hit_frac: f64,
    pub cache_evictions: f64,
    pub cache_live_mb: f64,
    pub overhead_ms_p50: f64,
    pub engine_ms_p50: f64,
}

/// Peak resident set (VmHWM) of this process or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal and total jiffies of all CPUs (`/proc/stat`): time the host did
/// not give the virtual CPUs although they were runnable.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Set-up time: preparing the workload's inputs from the seed plus
/// starting `lalrcex serve` until it answers `health`, repeated
/// [`SETUP_REPS`] times; returns the median in seconds.
pub fn measure_setup<T>(run: &Run, mut prepare: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(prepare());
        match serve::Server::start(&run.lalrcex) {
            Ok(server) => {
                times.push(t.elapsed().as_secs_f64());
                server.shutdown();
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {}: {e}", run.lalrcex.display());
                std::process::exit(1);
            }
        }
    }
    median(&times)
}

/// Turns a traced replay into the per-layer metrics.
pub fn layer_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    c: &replay::Counters,
    ops: usize,
    untraced_op_ms: &[f64],
    run: &Run,
    serve: &ServeLayers,
) {
    let spans = rec.spans();
    let b = trace::breakdown(&spans);
    let per_op = |v: f64| ratio(v, ops as f64);
    let ms = |name: &str| per_op(b.self_ns(name) as f64 / 1e6);
    let search_s = b.self_ns("core.search") as f64 / 1e9;
    let s = &c.search;
    let untraced_ns: f64 = untraced_op_ms.iter().sum::<f64>() * 1e6;
    let values = [
        ("grammar.parse_ms", ms("grammar.parse")),
        ("yacc.parse_ms", ms("yacc.parse")),
        ("grammar.productions", per_op(c.productions as f64)),
        ("lr.automaton_ms", ms("lr.automaton")),
        ("lr.states", per_op(c.states as f64)),
        ("lr.items", per_op(c.items as f64)),
        ("lr.tables_ms", ms("lr.tables")),
        ("lr.conflicts", per_op(c.conflicts as f64)),
        ("lr.resolutions", per_op(c.resolutions as f64)),
        ("core.state_graph_ms", ms("core.state_graph")),
        ("core.state_graph_nodes", per_op(c.graph_nodes as f64)),
        ("core.spine_ms", ms("core.spine")),
        (
            "core.spine_memo_hit_frac",
            ratio(c.spine_hits as f64, c.spine_calls as f64),
        ),
        ("core.search_ms", ms("core.search")),
        ("core.search_explored", per_op(s.explored as f64)),
        (
            "core.search_configs_per_s",
            ratio(s.explored as f64, search_s),
        ),
        (
            "core.search_dedup_frac",
            ratio(s.deduped as f64, (s.enqueued + s.deduped) as f64),
        ),
        (
            "core.search_cutoff_frac",
            ratio(c.search_cutoffs as f64, c.searches as f64),
        ),
        ("core.nonunifying_ms", ms("core.nonunifying")),
        ("core.provenance_ms", ms("core.provenance")),
        ("core.render_text_ms", ms("core.render_text")),
        ("api.render_json_ms", ms("api.render_json")),
        ("lint.ms", ms("lint")),
        ("core.cache_hit_frac", serve.cache_hit_frac),
        ("core.cache_evictions", serve.cache_evictions),
        ("core.cache_live_mb", serve.cache_live_mb),
        ("service.overhead_ms_p50", serve.overhead_ms_p50),
        ("service.engine_ms_p50", serve.engine_ms_p50),
        (
            "trace.overhead_frac",
            ratio(b.op_ns as f64 - untraced_ns, untraced_ns),
        ),
        ("trace.unaccounted_frac", b.unaccounted_frac()),
    ];
    for (name, v) in values {
        out.metric(name, v);
    }
    out.note(format!("traced replay: {ops} ops, {} spans", spans.len()));
    let path = PathBuf::from(".bench_out").join(format!("spans-{}-{}.tsv", run.workload, run.seed));
    match rec.write_tsv(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lalrcex-perfbench --workload {} --seed N --seconds S --trace 0|1 \
         --lalrcex PATH --ledger PATH\n       lalrcex-perfbench --write-ledger --ledger PATH",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut lalrcex = None;
    let mut ledger_path = None;
    let mut write_ledger = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--lalrcex" => lalrcex = Some(PathBuf::from(value())),
            "--ledger" => ledger_path = Some(PathBuf::from(value())),
            "--write-ledger" => write_ledger = true,
            _ => usage(),
        }
    }
    let Some(ledger_path) = ledger_path else {
        usage()
    };
    if write_ledger {
        let ledger = build_ledger();
        if let Err(e) = std::fs::write(&ledger_path, ledger.render()) {
            eprintln!("perfbench: cannot write {}: {e}", ledger_path.display());
            std::process::exit(1);
        }
        println!("wrote {}", ledger_path.display());
        return;
    }
    let (Some(workload), Some(lalrcex)) = (workload, lalrcex) else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let ledger = std::fs::read_to_string(&ledger_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Ledger::parse(&t))
        .unwrap_or_else(|e| {
            eprintln!("perfbench: ledger {}: {e}", ledger_path.display());
            std::process::exit(1);
        });
    let run = Run {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        lalrcex,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} workers={} nproc={nproc}",
        run.workload,
        run.seed,
        seconds,
        u8::from(run.trace),
        lalrcex::core::hardware_workers(0),
    );
    let steal_before = cpu_steal();
    let mut out = match run.workload.as_str() {
        "corpus_cex" => corpus::run(&run, &ledger),
        "verify_large" => verify::run(&run, &ledger),
        _ => serve::run(&run),
    };
    let steal_after = cpu_steal();
    out.note(format!(
        "host steal {:.1}% of CPU time during the run",
        100.0
            * ratio(
                (steal_after.0 - steal_before.0) as f64,
                (steal_after.1 - steal_before.1) as f64
            )
    ));
    report(&run, &out);
}

/// Prints the human-readable lines, then the JSON result line.
fn report(run: &Run, out: &Outcome) {
    for n in &out.notes {
        println!("# {n}");
    }
    for f in out.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let failed = out.failed();
    let failed_frac = ratio(failed as f64, out.attempted as f64);
    let wanted = if run.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for (name, unit) in wanted {
        let v = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |m| m.1);
        println!("{name} = {v} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("failed_frac = {failed_frac} frac");
    for (name, v, unit) in &out.extras {
        println!("{name} = {v} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        json.join(", ")
    );
}

/// Recomputes every known answer from the current program.
fn build_ledger() -> Ledger {
    let mut ledger = Ledger::default();
    for (name, text) in corpus::inputs(0) {
        match corpus::run_one(name, &text) {
            Ok((r, ms)) => {
                eprintln!("{name}: {r:?} ({ms:.0} ms)");
                ledger.corpus.insert(name.to_owned(), r);
            }
            Err(e) => eprintln!("{name}: {e}"),
        }
    }
    for (class, r) in verify::expected() {
        eprintln!("{class}: {r:?}");
        ledger.verify.insert(class.to_owned(), r);
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalrcex::api::json::{parse, Json};

    /// The metric lists in the code and in `BENCHMARK.json` agree.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(END_TO_END));
        assert_eq!(names("per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn failures_count_ops_once() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.fail("xi: explored expected 1 got 2".into());
        o.fail("xi: text report differs".into());
        o.fail("eqn: missing".into());
        assert_eq!(o.failed(), 2);
    }
}
