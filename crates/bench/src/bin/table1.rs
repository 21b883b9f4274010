//! Regenerates Table 1 of the paper (§7): for every corpus grammar, the
//! complexity, conflict counts, counterexample kinds, and timings — with
//! the paper's reported numbers printed alongside for comparison.
//!
//! The options are listed in `USAGE` below. A malformed argument (an
//! unknown flag, a missing or non-numeric value, an `--only` name that is
//! no corpus grammar) prints it and exits 2.

#![forbid(unsafe_code)]

use std::time::Duration;

use lalrcex_baselines::amber::Budget;
use lalrcex_bench::{fmt_secs, geometric_mean, run_baseline, run_entry, Row};
use lalrcex_core::CexConfig;

const USAGE: &str = "\
usage: table1 [--fast] [--baseline] [--only NAME] [--time-limit SECS]
              [--workers N]

  --fast             skip the four largest grammars (java-ext*, Java.2)
  --baseline         also run the grammar-filtered bounded search
                     (CFGAnalyzer stand-in) per grammar — slow
  --only NAME        run a single row
  --time-limit SECS  per-conflict unifying budget (default 5)
  --workers N        worker threads for the per-conflict fan-out
                     (default 0 = one per CPU)";

/// What the command line asks for.
#[derive(Debug)]
struct Args {
    fast: bool,
    baseline: bool,
    only: Option<String>,
    cfg: CexConfig,
}

/// Parses the arguments after the program name; `Err` names the first
/// malformed one.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    // The paper's limits (5 s per conflict, 2 minutes in all) are the
    // `CexConfig` defaults.
    let mut parsed = Args {
        fast: false,
        baseline: false,
        only: None,
        cfg: CexConfig::default(),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--fast" => parsed.fast = true,
            "--baseline" => parsed.baseline = true,
            "--only" => {
                let name = value()?;
                if lalrcex_corpus::by_name(&name).is_none() {
                    return Err(format!("no corpus grammar named {name:?}"));
                }
                parsed.only = Some(name);
            }
            "--time-limit" => {
                let secs = value()?;
                let secs = secs
                    .parse()
                    .map_err(|_| format!("bad --time-limit {secs:?}"))?;
                parsed.cfg.search.time_limit = Duration::from_secs(secs);
            }
            "--workers" => {
                let n = value()?;
                parsed.cfg.workers = n.parse().map_err(|_| format!("bad --workers {n:?}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let Args {
        fast,
        baseline,
        only,
        cfg,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("table1: {e}\n{USAGE}");
        std::process::exit(2);
    });

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        for bad in [
            &["--time-limit", "soon"][..],
            &["--workers", "x"],
            &["--only", "NOSUCH"],
            &["--time-limit"],
            &["--only"],
            &["--bogus"],
            &[
                "--time-limit",
                "soon",
                "--workers",
                "x",
                "--only",
                "figure1",
            ],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn valid_arguments_set_the_config() {
        let none = parse(&[]).unwrap();
        assert!(!none.fast && !none.baseline && none.only.is_none());
        assert_eq!(none.cfg.search.time_limit, Duration::from_secs(5));
        assert_eq!(none.cfg.workers, 0);

        let all = parse(&[
            "--fast",
            "--baseline",
            "--only",
            "figure1",
            "--time-limit",
            "7",
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(all.fast && all.baseline);
        assert_eq!(all.only.as_deref(), Some("figure1"));
        assert_eq!(all.cfg.search.time_limit, Duration::from_secs(7));
        assert_eq!(all.cfg.workers, 2);
        assert_eq!(
            all.cfg.cumulative_limit,
            CexConfig::default().cumulative_limit
        );
    }
}
