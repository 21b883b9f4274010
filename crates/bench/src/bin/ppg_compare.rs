//! The §7.2 comparison: PPG-style lookahead-blind counterexamples versus
//! this implementation, across the evaluation corpus.
//!
//! The paper reports that PPG "produces misleading results on ten
//! benchmark grammars". This binary runs the PPG reconstruction on every
//! corpus grammar (skipping the very large ones by default; pass `--all`),
//! flags the invalid examples, and shows what our engine reports instead.

#![forbid(unsafe_code)]

use std::time::Instant;

use lalrcex_baselines::ppg;
use lalrcex_core::{CancelToken, CexConfig, Engine};
use lalrcex_lr::Automaton;

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let heavy = ["java-ext1", "java-ext2", "Java.2"];
    let mut misleading_grammars = Vec::new();
    for entry in lalrcex_corpus::all() {
        if !all && heavy.contains(&entry.name) {
            continue;
        }
        let g = entry.load().expect("corpus grammars parse");
        let auto = Automaton::build(&g);
        let report = ppg::validity_report(&g, &auto);
        let invalid: Vec<_> = report.iter().filter(|(_, _, ok)| !ok).collect();
        if invalid.is_empty() {
            println!(
                "{:<12} {} PPG examples, all valid",
                entry.name,
                report.len()
            );
            continue;
        }
        misleading_grammars.push(entry.name);
        println!(
            "{:<12} {} PPG examples, {} MISLEADING:",
            entry.name,
            report.len(),
            invalid.len()
        );
        let engine = Engine::new(&g);
        let cfg = CexConfig::default();
        let deadline = Instant::now() + cfg.cumulative_limit;
        for (c, ex, _) in invalid.iter().take(3) {
            println!(
                "    PPG claims: {}  (reduction on {})",
                ex.display(&g),
                g.format_prod(c.reduce_prod)
            );
            let r = engine.analyze_conflict_cancellable(c, &cfg, deadline, &CancelToken::new());
            if let Some(u) = &r.unifying {
                println!("    ours:       {}", u.derivation1.flat(&g));
            } else if let Some(n) = &r.nonunifying {
                println!("    ours:       {}", n.reduce_derivation.flat(&g));
            }
        }
    }
    println!(
        "\n{} grammars with misleading PPG counterexamples (paper: 10 of its corpus)",
        misleading_grammars.len()
    );
    println!("{}", misleading_grammars.join(", "));
}
