//! A calculator front end: from conflicted grammar to working parser.
//!
//! Run with `cargo run --example calculator`.
//!
//! Demonstrates the full toolkit on the classic expression-grammar
//! workflow:
//!
//! 1. the naive grammar has shift/reduce conflicts — the counterexample
//!    engine shows each one is a real ambiguity;
//! 2. precedence/associativity declarations resolve them (§2.4);
//! 3. the resolved tables drive the deterministic LR parser on real token
//!    streams, and the tree shapes confirm the declarations did what we
//!    meant.

use lalrcex::core::{CexConfig, Engine};
use lalrcex::grammar::{Derivation, Grammar, SymbolId};
use lalrcex::lr::{parser, Automaton};

fn tokens(g: &Grammar, names: &[&str]) -> Vec<SymbolId> {
    names
        .iter()
        .map(|n| g.symbol_named(n).expect("token name"))
        .collect()
}

/// Pretty-print a parse tree with indentation.
fn show(g: &Grammar, d: &Derivation, indent: usize) {
    match d {
        Derivation::Leaf(s) => println!("{:indent$}{}", "", g.display_name(*s)),
        Derivation::Node(s, children) => {
            println!("{:indent$}{}", "", g.display_name(*s));
            for c in children {
                show(g, c, indent + 2);
            }
        }
        Derivation::Dot => {}
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: the ambiguous version.
    let naive = Grammar::parse("%% e : e '+' e | e '*' e | NUM | '(' e ')' ;")?;
    let report = Engine::new(&naive).analyze_all(&CexConfig::default());
    println!("naive grammar: {} conflicts", report.reports.len());
    for r in &report.reports {
        if let Some(u) = &r.unifying {
            println!(
                "  ambiguity of {}: {}",
                naive.display_name(u.nonterminal),
                u.derivation1.flat(&naive)
            );
        }
    }
    assert!(
        report.unifying_count() > 0,
        "the naive grammar is ambiguous"
    );

    // Step 2: declare precedence, conflicts disappear.
    let fixed = Grammar::parse(
        "%left '+'
         %left '*'
         %% e : e '+' e | e '*' e | NUM | '(' e ')' ;",
    )?;
    let auto = Automaton::build(&fixed);
    let tables = auto.tables(&fixed);
    println!(
        "\nwith precedence: {} conflicts, {} silently resolved",
        tables.conflicts().len(),
        tables.resolutions().len()
    );
    assert!(tables.conflicts().is_empty());

    // Step 3: parse. `NUM + NUM * NUM` must group as NUM + (NUM * NUM).
    let input = tokens(&fixed, &["NUM", "+", "NUM", "*", "NUM", "+", "NUM"]);
    let tree = parser::parse(&fixed, &tables, &input)?;
    println!("\nparse tree of NUM + NUM * NUM + NUM:");
    show(&fixed, &tree, 2);

    // Left associativity: the root's left child spans the first five
    // tokens (NUM + NUM * NUM), the right child is the last NUM.
    let Derivation::Node(_, children) = &tree else {
        unreachable!()
    };
    assert_eq!(children[0].leaves().len(), 5);
    assert_eq!(children[2].leaves().len(), 1);
    println!("\nprecedence and associativity verified through tree shapes");
    Ok(())
}
