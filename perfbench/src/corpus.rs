//! `corpus_cex`: every Table 1 corpus grammar, cold, through the path
//! `lalrcex cex` and `build::verify` share.

use crate::gen::{self, Syntax};
use crate::ledger::{fnv64, CorpusResult, Ledger};
use crate::replay::{Counters, Op};
use crate::trace::Recorder;
use crate::{Outcome, Run};
use lalrcex::prng::XorShift;
use lalrcex::{AnalysisRequest, GrammarSource, Session};
use std::time::Instant;

/// Rows whose result depends on the 120 s cumulative clock rather than a
/// work cap, so their verdicts would change with host speed.
pub const EXCLUDED: [&str; 2] = ["Java.2", "java-ext2"];

/// Rows where one search ends at the per-conflict clock or at a work cap
/// depending on host load; their cutoff tallies and reports are pinned,
/// their explored counts and clock-cutoff counts are not.
pub const CLOCK_BOUND: [&str; 1] = ["java-ext1"];

/// Runs of each cheap grammar, each with a fresh `Session`; its op time is
/// their median.
const REPEATS: usize = 5;

/// Grammars whose pinned explored count is at most this are cheap: a few
/// milliseconds to a few hundred.
const CHEAP_EXPLORED: u64 = 60_000;

/// The workload's grammars `(name, text)`, in a seeded order.
pub fn inputs(seed: u64) -> Vec<(&'static str, String)> {
    let mut v: Vec<_> = lalrcex::corpus::all()
        .into_iter()
        .filter(|e| !EXCLUDED.contains(&e.name))
        .map(|e| (e.name, e.text()))
        .collect();
    gen::shuffle(&mut v, &mut XorShift::new(gen::mix(seed, 1)));
    v
}

/// One cold operation: a fresh `Session`, `analyze`, then the text report
/// — the calls `build::Verifier::verify_source` makes, kept here so the
/// grammar's stats stay readable. Returns the outcome and the op time.
pub fn run_one(name: &str, text: &str) -> Result<(CorpusResult, f64), String> {
    let req = AnalysisRequest::new(GrammarSource::dsl(text)).label(name);
    let t = Instant::now();
    let reply = Session::new().analyze(&req).map_err(|e| e.to_string())?;
    let report = reply.render_text();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let r = &reply.report;
    let clock = req.effective_config().search.time_limit;
    let clock_cutoffs = r
        .reports
        .iter()
        .filter(|c| {
            c.kind() == Some(lalrcex::core::ExampleKind::NonunifyingTimeout)
                && c.stats.time_unifying >= clock
        })
        .count() as u64;
    let result = CorpusResult {
        conflicts: r.reports.len() as u64,
        unifying: r.unifying_count() as u64,
        exhausted: r.exhausted_count() as u64,
        cutoffs: r.timeout_count() as u64,
        clock_cutoffs,
        internal: r.internal_count() as u64,
        explored: r.stats.search.explored,
        report: fnv64(report.as_bytes()),
    };
    Ok((result, ms))
}

pub fn run(run: &Run, ledger: &Ledger) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = crate::measure_setup(run, || inputs(run.seed));
    let grammars = inputs(run.seed);

    // A cold op of a few milliseconds is easily disturbed: right after a
    // search that freed a gigabyte, Pascal.1 took anywhere from 6 to 16 ms
    // against a steady 8.2 ms when repeated, and the host itself has slow
    // spells of a second or so. The op-time median falls among such ops,
    // so each cheap grammar runs REPEATS times in all, each run with a
    // fresh `Session`, in passes spread over the sweep; its op time is the
    // median. Only the sweep counts toward `wall_s`; every run is checked.
    let cheap: Vec<usize> = (0..grammars.len())
        .filter(|&i| {
            ledger
                .corpus
                .get(grammars[i].0)
                .is_some_and(|r| r.explored <= CHEAP_EXPLORED)
        })
        .collect();
    let pass_every = grammars.len().div_ceil(REPEATS - 1);
    let mut results = Vec::new();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); grammars.len()];
    let mut wall_s = 0.0;
    for (i, (name, text)) in grammars.iter().enumerate() {
        out.attempted += 1;
        let t = Instant::now();
        let first = run_one(name, text);
        wall_s += t.elapsed().as_secs_f64();
        match first {
            Ok((r, ms)) => {
                samples[i].push(ms);
                results.push((*name, r));
            }
            Err(e) => out.fail(format!("{name}: {e}")),
        }
        // Passes after every `pass_every` grammars; the last one repeats
        // until grammars late in the order have their REPEATS runs too.
        let passes = match i + 1 {
            n if n == grammars.len() => REPEATS,
            n if n % pass_every == 0 => 1,
            _ => 0,
        };
        for _ in 0..passes {
            for &j in &cheap {
                let (name, text) = &grammars[j];
                if samples[j].is_empty() || samples[j].len() >= REPEATS {
                    continue;
                }
                match run_one(name, text) {
                    Ok((r, ms)) => {
                        samples[j].push(ms);
                        out.fail_all(ledger.check_corpus(name, &r, false));
                    }
                    Err(e) => out.fail(format!("{name}: {e}")),
                }
            }
        }
    }
    let peak_rss_mb = crate::peak_rss_mb(None);

    let mut per_grammar: Vec<(f64, &str)> = samples
        .iter()
        .zip(&grammars)
        .filter(|(s, _)| !s.is_empty())
        .map(|(s, (name, _))| (crate::trace::median(s), *name))
        .collect();
    per_grammar.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.note(
        per_grammar
            .iter()
            .map(|(ms, name)| format!("{name}={ms:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let op_ms: Vec<f64> = per_grammar.iter().map(|(ms, _)| *ms).collect();

    let (mut conflicts, mut decided, mut unifying) = (0, 0, 0);
    for (name, r) in &results {
        let clock_bound = CLOCK_BOUND.contains(name);
        if clock_bound {
            out.note(format!(
                "{name}: clock-bound row, explored {} with {} clock cutoff(s) (not pinned)",
                r.explored, r.clock_cutoffs
            ));
        }
        out.fail_all(ledger.check_corpus(name, r, clock_bound));
        conflicts += r.conflicts;
        decided += r.decided();
        unifying += r.unifying;
    }
    let decided_frac = crate::trace::ratio(decided as f64, conflicts as f64);
    let unifying_frac = crate::trace::ratio(unifying as f64, conflicts as f64);
    out.note(format!(
        "{} grammars, {conflicts} conflicts, {decided} decided, {unifying} unifying",
        grammars.len()
    ));

    if run.trace {
        trace(run, &grammars, &results, &op_ms, &mut out);
    } else {
        out.end_to_end(
            setup_s,
            wall_s,
            grammars.len() as f64 / wall_s,
            &op_ms,
            peak_rss_mb,
        );
        out.metric("decided_frac", decided_frac);
    }
    out.extra("unifying_frac", unifying_frac, "frac");
    out
}

/// The traced replay of the same grammars, cross-checked against the
/// untraced results.
fn trace(
    run: &Run,
    grammars: &[(&'static str, String)],
    untraced: &[(&'static str, CorpusResult)],
    untraced_ms: &[f64],
    out: &mut Outcome,
) {
    let rec = Recorder::new();
    let mut counters = Counters::default();
    let cfg = *AnalysisRequest::new("").effective_config();
    for (i, (name, text)) in grammars.iter().enumerate() {
        let Ok(cached) = lalrcex::core::CachedEngine::build(text) else {
            out.fail(format!("{name}: replay could not build the engine"));
            continue;
        };
        let engine = cached.engine();
        let mut op = Op::begin(&rec, i as u32);
        if let Err(e) = op.construct(text, Syntax::Dsl) {
            out.fail(format!("{name}: {e}"));
        }
        let report = op.conflicts(engine, &cfg);
        let text_report = op.render_text(engine.grammar(), &report);
        let c = op.end();
        if let Some((_, want)) = untraced.iter().find(|(n, _)| n == name) {
            if !CLOCK_BOUND.contains(name) && c.search.explored != want.explored {
                out.fail(format!(
                    "{name}: traced replay explored {} configs, untraced run {}",
                    c.search.explored, want.explored
                ));
            }
            if fnv64(text_report.as_bytes()) != want.report {
                out.fail(format!("{name}: traced replay rendered a different report"));
            }
        }
        counters.add(&c);
    }
    crate::layer_metrics(
        out,
        &rec,
        &counters,
        grammars.len(),
        untraced_ms,
        run,
        &crate::ServeLayers::default(),
    );
}
