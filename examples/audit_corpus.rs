//! Audit a full-scale grammar from the evaluation corpus.
//!
//! Run with `cargo run --release --example audit_corpus [NAME]`.
//!
//! Loads one of the Table 1 grammars (default: `SQL.1`), reports every
//! conflict with its counterexample, and cross-checks each claimed
//! ambiguity with the independent Earley oracle — the end-to-end pipeline
//! a grammar author would run in CI.

use std::time::Instant;

use lalrcex::core::{CancelToken, CexConfig, Engine, ExampleKind};
use lalrcex::earley::forest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "SQL.1".into());
    let entry = lalrcex::corpus::by_name(&name)
        .unwrap_or_else(|| panic!("unknown corpus grammar {name}; see lalrcex_corpus::all()"));
    let g = entry.load()?;
    println!(
        "{name}: {} nonterminals, {} productions (paper row: {} / {})",
        g.nonterminal_count() - 1,
        g.prod_count(),
        entry.paper.nonterminals,
        entry.paper.productions,
    );

    let engine = Engine::new(&g);
    let conflicts = engine.tables().conflicts();
    println!("{} conflicts", conflicts.len());

    // One grammar-wide deadline: the §6 cumulative budget.
    let cfg = CexConfig::default();
    let deadline = Instant::now() + cfg.cumulative_limit;
    let cancel = CancelToken::new();
    let mut confirmed = 0usize;
    for c in conflicts {
        let r = engine.analyze_conflict_cancellable(c, &cfg, deadline, &cancel);
        match r.kind() {
            Some(ExampleKind::Unifying) => {
                let u = r.unifying.as_ref().expect("unifying example present");
                let form = u.sentential_form();
                let ok = forest::is_ambiguous_form(&g, u.nonterminal, &form);
                if ok {
                    confirmed += 1;
                }
                println!(
                    "  state #{} on {}: ambiguous {} — {} [oracle: {}]",
                    c.state.index(),
                    g.display_name(c.terminal),
                    g.display_name(u.nonterminal),
                    u.derivation1.flat(&g),
                    if ok { "confirmed" } else { "UNCONFIRMED" },
                );
            }
            other => {
                println!(
                    "  state #{} on {}: {:?}",
                    c.state.index(),
                    g.display_name(c.terminal),
                    other
                );
            }
        }
    }
    println!("{confirmed} ambiguities independently confirmed");
    Ok(())
}
