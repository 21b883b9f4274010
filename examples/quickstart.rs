//! Quickstart: diagnose every conflict in a small grammar.
//!
//! Run with `cargo run --example quickstart`.
//!
//! This is the paper's headline use case: you wrote a grammar, the parser
//! generator says "3 conflicts", and you want to know *why* — with a
//! concrete input that demonstrates each problem.

use lalrcex::core::{format_report, CexConfig, Engine};
use lalrcex::grammar::Grammar;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Figure 1 grammar: a toy statement language with three
    // latent problems (dangling else, ambiguous +, and a subtle
    // tokenization ambiguity between `num` and `digit`).
    let grammar = Grammar::parse(
        "%start stmt
         %%
         stmt : 'if' expr 'then' stmt 'else' stmt
              | 'if' expr 'then' stmt
              | expr '?' stmt stmt
              | 'arr' '[' expr ']' ':=' expr
              ;
         expr : num | expr '+' expr ;
         num  : digit | num digit ;",
    )?;

    let report = Engine::new(&grammar).analyze_all(&CexConfig::default());
    println!(
        "{} conflicts, {} proven ambiguous\n",
        report.reports.len(),
        report.unifying_count()
    );
    for conflict_report in &report.reports {
        println!("{}", format_report(&grammar, conflict_report));
    }

    // Every conflict here is a genuine ambiguity, so every report carries
    // a unifying counterexample: one string, two derivations.
    assert_eq!(report.unifying_count(), 3);
    Ok(())
}
