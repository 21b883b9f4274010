//! Debugging a real ambiguity with counterexamples: the dangling else.
//!
//! Run with `cargo run --example grammar_debugging`.
//!
//! The workflow the paper argues for (§1, §3): instead of staring at LR
//! item dumps, read one counterexample, understand the ambiguity, and fix
//! the *grammar* (here with the classic matched/unmatched-statement
//! factoring), then confirm the fix with the same tool — and with the
//! independent GLR oracle.

use lalrcex::core::{CexConfig, Engine};
use lalrcex::grammar::Grammar;
use lalrcex::lr::{glr, Automaton};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let broken = Grammar::parse(
        "%start stmt
         %%
         stmt : 'if' expr 'then' stmt 'else' stmt
              | 'if' expr 'then' stmt
              | 'print' expr
              ;
         expr : ID ;",
    )?;
    let report = Engine::new(&broken).analyze_all(&CexConfig::default());
    let r = &report.reports[0];
    let u = r.unifying.as_ref().expect("dangling else is ambiguous");
    println!("conflict explained by: {}", u.derivation1.flat(&broken));
    println!("  as: {}", u.derivation1.pretty(&broken));
    println!("  or: {}", u.derivation2.pretty(&broken));

    // Confirm with the GLR oracle: the counterexample really parses twice.
    let auto = Automaton::build(&broken);
    let form = u.sentential_form();
    assert!(glr::is_ambiguous_sentence(&broken, &auto, &form));
    println!("\nGLR oracle confirms 2 parses of the counterexample");

    // The fix: factor statements into matched/unmatched so an `else`
    // always binds to the nearest unmatched `if`.
    let fixed = Grammar::parse(
        "%start stmt
         %%
         stmt : matched | unmatched ;
         matched : 'if' expr 'then' matched 'else' matched
                 | 'print' expr
                 ;
         unmatched : 'if' expr 'then' stmt
                   | 'if' expr 'then' matched 'else' unmatched
                   ;
         expr : ID ;",
    )?;
    let fixed_report = Engine::new(&fixed).analyze_all(&CexConfig::default());
    println!(
        "\nafter the matched/unmatched factoring: {} conflicts",
        fixed_report.reports.len()
    );
    assert!(fixed_report.reports.is_empty());

    // And the once-ambiguous sentence now has exactly one parse.
    let fixed_auto = Automaton::build(&fixed);
    let sentence: Vec<_> = [
        "if", "ID", "then", "if", "ID", "then", "print", "ID", "else", "print", "ID",
    ]
    .iter()
    .map(|n| fixed.symbol_named(n).unwrap())
    .collect();
    let parses = glr::parses(&fixed, &fixed_auto, &sentence, glr::Limits::default());
    assert_eq!(parses.len(), 1);
    println!("the fixed grammar parses the ambiguous sentence uniquely");
    Ok(())
}
