//! Regenerates Table 1 of the paper (§7): for every corpus grammar, the
//! complexity, conflict counts, counterexample kinds, and timings — with
//! the paper's reported numbers printed alongside for comparison.
//!
//! ```text
//! USAGE: table1 [--fast] [--baseline] [--only NAME] [--time-limit SECS]
//!               [--workers N]
//!
//!   --fast             skip the four largest grammars (java-ext*, Java.2)
//!   --baseline         also run the grammar-filtered bounded search
//!                      (CFGAnalyzer stand-in) per grammar — slow
//!   --only NAME        run a single row
//!   --time-limit SECS  per-conflict unifying budget (default 5)
//!   --workers N        worker threads for the per-conflict fan-out
//!                      (default 0 = one per CPU)
//! ```

#![forbid(unsafe_code)]

use std::time::Duration;

use lalrcex_baselines::amber::Budget;
use lalrcex_bench::{fmt_secs, geometric_mean, run_baseline, run_entry, Row};
use lalrcex_core::CexConfig;

fn main() {
    let mut fast = false;
    let mut baseline = false;
    let mut only: Option<String> = None;
    // The paper's limits (5 s per conflict, 2 minutes in all) are the
    // `CexConfig` defaults.
    let mut cfg = CexConfig::default();
    let default_limit = cfg.search.time_limit;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--baseline" => baseline = true,
            "--only" => only = args.next(),
            "--time-limit" => {
                cfg.search.time_limit = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .map_or(default_limit, Duration::from_secs)
            }
            "--workers" => cfg.workers = args.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let heavy = ["java-ext1", "java-ext2", "Java.2"];
    println!(
        "{:<12} | {:>4} {:>5} {:>6} | {:>5} | {:>5} {:>7} {:>5} | {:>9} {:>9} | {:>9} {:>8} {:>4} | {:>4} {:>5} {:>4} {:>8} | paper(conf u/n/t)",
        "grammar", "nt", "prods", "states", "conf", "unif", "nonunif", "tout", "total(s)", "avg(s)",
        "explored", "deduped", "memo", "tac", "merge", "prec", "prov(ms)"
    );
    println!("{}", "-".repeat(162));

    let mut rows: Vec<Row> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for entry in lalrcex_corpus::all() {
        if let Some(name) = &only {
            if entry.name != name {
                continue;
            }
        }
        if fast && heavy.contains(&entry.name) {
            continue;
        }
        let mut row = run_entry(&entry, &cfg);
        if baseline {
            let b = run_baseline(
                &entry,
                &Budget {
                    max_len: 14,
                    time_limit: Duration::from_secs(30),
                    max_steps: 100_000_000,
                },
            );
            // Compare like the paper: baseline time to find ONE ambiguity
            // vs our average time per conflict.
            if let Some(avg) = row.average() {
                if b.1 {
                    ratios.push(b.0.as_secs_f64() / avg.as_secs_f64());
                }
            }
            row.baseline = Some(b);
        }
        let avg = row
            .average()
            .map(fmt_secs)
            .unwrap_or_else(|| "T/L".to_owned());
        let total = if row.unifying + row.nonunifying == 0 {
            "T/L".to_owned()
        } else {
            fmt_secs(row.total)
        };
        let p = entry.paper;
        let base = match &row.baseline {
            Some((d, true)) => format!("  [baseline {}s]", fmt_secs(*d)),
            Some((d, false)) => format!("  [baseline {}s, not found]", fmt_secs(*d)),
            None => String::new(),
        };
        println!(
            "{:<12} | {:>4} {:>5} {:>6} | {:>5} | {:>5} {:>7} {:>5} | {:>9} {:>9} | {:>9} {:>8} {:>4} | {:>4} {:>5} {:>4} {:>8.1} | ({} {}/{}/{}){}",
            row.name,
            row.nonterminals,
            row.productions,
            row.states,
            row.conflicts,
            row.unifying,
            row.nonunifying,
            row.timeouts,
            total,
            avg,
            row.explored,
            row.deduped,
            row.memo_hits,
            row.class_true,
            row.class_merge,
            row.class_resolved,
            row.provenance_time.as_secs_f64() * 1e3,
            p.conflicts,
            p.unifying,
            p.nonunifying,
            p.timeouts,
            base,
        );
        rows.push(row);
    }

    // §7.3 summary.
    println!("{}", "-".repeat(162));
    let finished: Vec<&Row> = rows
        .iter()
        .filter(|r| r.unifying + r.nonunifying > 0)
        .collect();
    let conflicts: usize = rows.iter().map(|r| r.conflicts).sum();
    let done: usize = rows.iter().map(|r| r.unifying + r.nonunifying).sum();
    let total: Duration = finished.iter().map(|r| r.total).sum();
    if done > 0 {
        println!(
            "summary: {conflicts} conflicts, {done} within the limit ({:.0}%), {} s total, {} s per finished conflict",
            100.0 * done as f64 / conflicts.max(1) as f64,
            fmt_secs(total),
            fmt_secs(total / done as u32),
        );
    }
    let tac: u64 = rows.iter().map(|r| r.class_true).sum();
    let merge: u64 = rows.iter().map(|r| r.class_merge).sum();
    let prec: u64 = rows.iter().map(|r| r.class_resolved).sum();
    let prov: Duration = rows.iter().map(|r| r.provenance_time).sum();
    println!(
        "provenance: {tac} true-ambiguity-candidate / {merge} merge-artifact conflicts, \
         {prec} precedence-resolved resolutions, {} s total precompute",
        fmt_secs(prov)
    );
    let so_rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.name.starts_with("stack"))
        .collect();
    let so_done: usize = so_rows.iter().map(|r| r.unifying + r.nonunifying).sum();
    if so_done > 0 {
        let so_total: Duration = so_rows.iter().map(|r| r.total).sum();
        println!(
            "Stack Overflow grammars: {} ms per conflict (paper: 8 ms)",
            (so_total / so_done as u32).as_millis()
        );
    }
    if let Some(gm) = geometric_mean(&ratios) {
        println!(
            "baseline comparison: filtered bounded search is {gm:.1}x slower per ambiguity \
             than our per-conflict average (paper: 10.7x, geometric mean)"
        );
    }
}
