//! End-to-end tests: run the complete counterexample pipeline on the
//! reconstruction of the paper's evaluation corpus (the small and medium
//! rows — Table 1's big grammars run in the benchmark harness) and check
//! both the §7.2 effectiveness claims and the soundness of every produced
//! example against the independent Earley oracle.

use std::time::Duration;

use lalrcex::core::{validate, CexConfig, Engine, ExampleKind, SearchConfig};
use lalrcex::earley::forest;

fn cfg() -> CexConfig {
    CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_secs(5),
            ..Default::default()
        },
        cumulative_limit: Duration::from_secs(120),
        ..CexConfig::default()
    }
}

/// Analyze a corpus grammar and sanity-check every report.
fn run(name: &str) -> (lalrcex::grammar::Grammar, Vec<(ExampleKind, bool)>) {
    let entry = lalrcex::corpus::by_name(name).expect("corpus entry");
    let g = entry.load().expect("grammar loads");
    let report = Engine::new(&g).analyze_all(&cfg());
    let mut out = Vec::new();
    for r in &report.reports {
        let mut oracle_ok = true;
        if let Some(u) = &r.unifying {
            assert!(
                validate::unifying_consistent(&g, u),
                "{name}: inconsistent unifying example {:?}",
                u.derivation1.flat(&g)
            );
            oracle_ok = forest::is_ambiguous_form(&g, u.nonterminal, &u.sentential_form());
        }
        if let Some(n) = &r.nonunifying {
            assert!(
                validate::nonunifying_consistent(&g, n),
                "{name}: inconsistent nonunifying example"
            );
        }
        out.push((r.kind().expect("no internal fault"), oracle_ok));
    }
    (g, out)
}

#[test]
fn figure1_all_unifying_and_confirmed() {
    let (_, rows) = run("figure1");
    assert_eq!(rows.len(), 3);
    for (kind, oracle) in rows {
        assert_eq!(kind, ExampleKind::Unifying);
        assert!(oracle, "Earley confirms the ambiguity");
    }
}

#[test]
fn figure3_unambiguous_grammar_exhausts() {
    let (_, rows) = run("figure3");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, ExampleKind::NonunifyingExhausted);
}

#[test]
fn figure7_both_conflicts_unifying() {
    let (_, rows) = run("figure7");
    assert_eq!(rows.len(), 2);
    for (kind, oracle) in rows {
        assert_eq!(kind, ExampleKind::Unifying);
        assert!(oracle);
    }
}

#[test]
fn ambfailed01_restricted_search_misses_extended_finds() {
    // The paper's §7.2: the shortest-path restriction makes the search
    // incomplete on this grammar; `-extendedsearch` recovers it.
    let entry = lalrcex::corpus::by_name("ambfailed01").unwrap();
    let g = entry.load().unwrap();

    let restricted = Engine::new(&g).analyze_all(&cfg());
    assert_eq!(restricted.reports.len(), 1);
    assert_eq!(
        restricted.reports[0].kind(),
        Some(ExampleKind::NonunifyingExhausted),
        "restricted search must exhaust"
    );

    let mut extended_cfg = cfg();
    extended_cfg.search.extended = true;
    let extended = Engine::new(&g).analyze_all(&extended_cfg);
    assert_eq!(extended.reports[0].kind(), Some(ExampleKind::Unifying));
    let u = extended.reports[0].unifying.as_ref().unwrap();
    assert!(
        forest::is_ambiguous_form(&g, u.nonterminal, &u.sentential_form()),
        "extended search's example is a real ambiguity: {}",
        u.derivation1.flat(&g)
    );
}

#[test]
fn unambiguous_stack_overflow_grammars_get_nonunifying_examples() {
    for name in [
        "stackovf01",
        "stackovf04",
        "stackovf06",
        "stackovf08",
        "stackexc02",
    ] {
        let (_, rows) = run(name);
        assert!(!rows.is_empty(), "{name} has conflicts");
        for (kind, _) in rows {
            assert!(
                matches!(
                    kind,
                    ExampleKind::NonunifyingExhausted | ExampleKind::NonunifyingTimeout
                ),
                "{name}: unambiguous grammar must not get a unifying example, got {kind:?}"
            );
        }
    }
}

#[test]
fn ambiguous_stack_overflow_grammars_get_unifying_examples() {
    for name in [
        "stackovf02",
        "stackovf03",
        "stackovf05",
        "stackovf07",
        "stackovf10",
        "stackexc01",
    ] {
        let (_, rows) = run(name);
        assert!(!rows.is_empty(), "{name} has conflicts");
        let unifying = rows
            .iter()
            .filter(|(k, _)| *k == ExampleKind::Unifying)
            .count();
        assert!(
            unifying > 0,
            "{name}: expected at least one unifying example"
        );
        for (kind, oracle) in rows {
            if kind == ExampleKind::Unifying {
                assert!(oracle, "{name}: oracle must confirm");
            }
        }
    }
}

#[test]
fn medium_grammars_from_the_paper() {
    // simp2, xi, eqn: ambiguous, everything terminates quickly.
    for name in ["simp2", "xi", "eqn", "abcd"] {
        let (_, rows) = run(name);
        assert!(!rows.is_empty(), "{name} has conflicts");
        let unifying = rows
            .iter()
            .filter(|(k, _)| *k == ExampleKind::Unifying)
            .count();
        assert!(unifying >= 1, "{name}: at least one proven ambiguity");
    }
}

#[test]
fn sql_rows_match_paper_shape() {
    // All five SQL rows are ambiguous with quick unifying examples.
    for name in ["SQL.1", "SQL.2", "SQL.3", "SQL.4", "SQL.5"] {
        let (_, rows) = run(name);
        let unifying = rows
            .iter()
            .filter(|(k, _)| *k == ExampleKind::Unifying)
            .count();
        assert!(
            unifying >= 1,
            "{name}: expected a unifying counterexample, got {rows:?}"
        );
    }
}

#[test]
fn provenance_classifies_corpus_and_agrees_with_the_search() {
    // Small/medium rows (the big grammars run in the benchmark harness).
    // Two soundness obligations tie the static classification to the
    // dynamic search: every conflict gets a classification (no internal
    // faults on the corpus), and any conflict the §5 search *proved*
    // ambiguous with a unifying example must be a true-ambiguity
    // candidate — a merge artifact vanishes under canonical LR(1), so a
    // unifying proof would contradict the classification.
    use lalrcex::core::{Classification, ProvenanceOutcome};
    for name in ["figure1", "figure7", "simp2", "xi", "eqn", "abcd", "SQL.1"] {
        let entry = lalrcex::corpus::by_name(name).expect("corpus entry");
        let g = entry.load().expect("grammar loads");
        let engine = Engine::new(&g);
        let report = engine.analyze_all(&cfg());
        let p = engine.provenance().expect("no faults");
        assert_eq!(
            p.conflicts.len(),
            report.reports.len(),
            "{name}: one provenance slot per conflict, table order"
        );
        assert_eq!(p.counts().internal, 0, "{name}: all conflicts classified");
        for (r, o) in report.reports.iter().zip(&p.conflicts) {
            let ProvenanceOutcome::Classified(cp) = o else {
                panic!("{name}: unclassified conflict");
            };
            assert_eq!(
                (cp.conflict.state, cp.conflict.terminal),
                (r.conflict.state, r.conflict.terminal),
                "{name}: provenance and report slots are index-aligned"
            );
            if r.unifying.is_some() {
                assert_eq!(
                    cp.classification,
                    Classification::TrueAmbiguityCandidate,
                    "{name}: a proven ambiguity cannot be a merge artifact"
                );
            }
        }
        for res in &p.resolutions {
            assert_eq!(res.classification, Classification::PrecedenceResolved);
        }
        if name == "eqn" {
            assert!(
                !p.resolutions.is_empty(),
                "eqn's precedence declarations silence conflicts"
            );
        }
    }
}
