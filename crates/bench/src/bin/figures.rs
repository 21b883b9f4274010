//! Regenerates the content of the paper's figures from the implementation.
//!
//! ```text
//! USAGE: figures [fig2|fig3|fig5|fig7|fig9|fig11|all]
//! ```
//!
//! * fig2 — selected parser states of the Figure 1 grammar
//! * fig3 — the unambiguous-but-conflicted grammar and its diagnosis
//! * fig5 — the shortest lookahead-sensitive path for the dangling else
//! * fig7 — both conflicts of the Figure 7 grammar with their examples
//! * fig9 — the four search stages for the §3.1 challenging conflict
//! * fig11 — the CUP-style error message for the §2.4 conflict

#![forbid(unsafe_code)]

use std::time::Instant;

use lalrcex_core::{format_report, lssi, CancelToken, CexConfig, ConflictReport, Engine};
use lalrcex_grammar::{Derivation, Grammar};
use lalrcex_lr::Conflict;

fn figure1() -> Grammar {
    lalrcex_corpus::by_name("figure1").unwrap().load().unwrap()
}

/// One conflict's report under the default limits.
fn analyze_one(engine: &Engine<'_>, conflict: &Conflict) -> ConflictReport {
    let cfg = CexConfig::default();
    let deadline = Instant::now() + cfg.cumulative_limit;
    engine.analyze_conflict_cancellable(conflict, &cfg, deadline, &CancelToken::new())
}

fn fig2() {
    println!("=== Figure 2: selected parser states of the Figure 1 grammar ===\n");
    let g = figure1();
    let engine = Engine::new(&g);
    let auto = engine.automaton();
    // Walk the states along `if expr then stmt` as the figure does.
    let mut s = lalrcex_lr::StateId::START;
    println!("{}", auto.dump_state(&g, s));
    for sym in ["if", "expr", "then", "stmt"] {
        s = auto
            .state(s)
            .transition(g.symbol_named(sym).unwrap())
            .unwrap();
        println!("{}", auto.dump_state(&g, s));
    }
}

fn fig3() {
    println!("=== Figure 3: unambiguous CFG with a shift/reduce conflict ===\n");
    let entry = lalrcex_corpus::by_name("figure3").unwrap();
    println!("{}", entry.text());
    let g = entry.load().unwrap();
    let report = Engine::new(&g).analyze_all(&CexConfig::default());
    for r in &report.reports {
        println!("{}", format_report(&g, r));
    }
}

fn fig5() {
    println!("=== Figure 5(a): shortest lookahead-sensitive path (dangling else) ===\n");
    let g = figure1();
    let engine = Engine::new(&g);
    let conflict = *engine
        .tables()
        .conflicts()
        .iter()
        .find(|c| g.display_name(c.terminal) == "else")
        .expect("dangling else");
    let path = engine.spine(&conflict).0.path.clone().expect("path exists");
    println!("{}", lssi::display_path(&g, engine.graph(), &path));
    println!("=== Figure 5(b): the path to the conflict shift item ===\n");
    let ex =
        lalrcex_core::nonunifying_example(&g, engine.automaton(), engine.graph(), &conflict, &path)
            .expect("nonunifying example");
    println!(
        "derivation using the reduce item:\n  {}",
        ex.reduce_derivation.pretty(&g)
    );
    if let Some(o) = &ex.other_derivation {
        println!("derivation using the shift item:\n  {}", o.pretty(&g));
    }
}

fn fig7() {
    println!("=== Figure 7: shortest-path prefix vs. the second shift item ===\n");
    let entry = lalrcex_corpus::by_name("figure7").unwrap();
    println!("{}", entry.text());
    let g = entry.load().unwrap();
    let report = Engine::new(&g).analyze_all(&CexConfig::default());
    for r in &report.reports {
        println!("{}", format_report(&g, r));
    }
}

/// The subtree of `d` that contains the dot marker, if any.
fn dotted_subtree(d: &Derivation) -> Option<&Derivation> {
    match d {
        Derivation::Dot | Derivation::Leaf(_) => None,
        Derivation::Node(_, children) => {
            if children.iter().any(|c| matches!(c, Derivation::Dot)) {
                return Some(d);
            }
            children.iter().find_map(dotted_subtree)
        }
    }
}

fn fig9() {
    println!("=== Figure 9: search stages for the challenging conflict (§3.1) ===\n");
    let g = figure1();
    let engine = Engine::new(&g);
    let conflict = *engine
        .tables()
        .conflicts()
        .iter()
        .find(|c| g.display_name(c.terminal) == "digit")
        .expect("challenging conflict");
    let r = analyze_one(&engine, &conflict);
    let u = r.unifying.as_ref().expect("unifying example found");
    println!(
        "Stage 1 — completion of the conflict reduce item:\n  {}",
        dotted_subtree(&u.derivation1)
            .unwrap_or(&u.derivation1)
            .pretty(&g)
    );
    println!(
        "\nStage 2 — completion of the conflict shift item:\n  {}",
        dotted_subtree(&u.derivation2)
            .unwrap_or(&u.derivation2)
            .pretty(&g)
    );
    println!(
        "\nStage 3 — the unifying nonterminal: {}",
        g.display_name(u.nonterminal)
    );
    println!(
        "\nStage 4 — the completed unifying counterexample:\n  {}\n  via {}\n  and {}",
        u.derivation1.flat(&g),
        u.derivation1.pretty(&g),
        u.derivation2.pretty(&g),
    );
}

fn fig11() {
    println!("=== Figure 11: the CUP-style report for the §2.4 conflict ===\n");
    let g = figure1();
    let engine = Engine::new(&g);
    let conflict = *engine
        .tables()
        .conflicts()
        .iter()
        .find(|c| g.display_name(c.terminal) == "+")
        .expect("expression conflict");
    let r = analyze_one(&engine, &conflict);
    println!("{}", format_report(&g, &r));
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig5" => fig5(),
        "fig7" => fig7(),
        "fig9" => fig9(),
        "fig11" => fig11(),
        "all" => {
            fig2();
            fig3();
            fig5();
            fig7();
            fig9();
            fig11();
        }
        other => {
            eprintln!("unknown figure {other}; use fig2|fig3|fig5|fig7|fig9|fig11|all");
            std::process::exit(2);
        }
    }
}
