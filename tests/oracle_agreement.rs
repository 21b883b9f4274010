//! Cross-validation of the three independent parsing engines: the
//! deterministic LR parser, the nondeterministic GLR runtime, and the
//! Earley-based derivation forest. They share no code beyond the grammar
//! representation, so agreement is strong evidence of correctness.

use lalrcex::earley::{chart, forest};
use lalrcex::grammar::{Grammar, SymbolId};
use lalrcex::lr::{glr, parser, Automaton};

fn syms(g: &Grammar, names: &[&str]) -> Vec<SymbolId> {
    names.iter().map(|n| g.symbol_named(n).unwrap()).collect()
}

struct Fixture {
    g: Grammar,
    auto: Automaton,
}

impl Fixture {
    fn new(src: &str) -> Fixture {
        let g = Grammar::parse(src).unwrap();
        let auto = Automaton::build(&g);
        Fixture { g, auto }
    }

    /// Checks all three engines on one input.
    fn check(&self, input: &[SymbolId]) {
        let glr_parses = glr::parses(&self.g, &self.auto, input, glr::Limits::default());
        let earley_recognizes = chart::recognizes(&self.g, self.g.start(), input);
        let earley_count = forest::count_parses(&self.g, self.g.start(), input, 8);
        assert_eq!(
            !glr_parses.is_empty(),
            earley_recognizes,
            "GLR and Earley disagree on membership of {:?}",
            self.g.format_symbols(input)
        );
        assert_eq!(
            glr_parses.len().min(8),
            earley_count,
            "GLR and Earley disagree on parse count of {:?}",
            self.g.format_symbols(input)
        );
        // The deterministic parser (with default conflict resolution) must
        // accept everything unambiguous that GLR accepts, and its tree
        // must be among the GLR trees.
        let tables = self.auto.tables(&self.g);
        if glr_parses.len() == 1 {
            let tree = parser::parse(&self.g, &tables, input)
                .unwrap_or_else(|e| panic!("LR rejects unambiguous input: {e}"));
            assert_eq!(tree, glr_parses[0], "LR tree differs from the GLR tree");
        }
    }
}

#[test]
fn agreement_on_unambiguous_grammar() {
    let f = Fixture::new("%% l : l 'a' | 'a' ;");
    for n in 1..8 {
        let input = vec![f.g.symbol_named("a").unwrap(); n];
        f.check(&input);
    }
    f.check(&[]);
}

#[test]
fn agreement_on_ambiguous_expressions() {
    let f = Fixture::new("%% e : e '+' e | N ;");
    for words in [
        vec!["N"],
        vec!["N", "+", "N"],
        vec!["N", "+", "N", "+", "N"],
        vec!["N", "+", "N", "+", "N", "+", "N"],
        vec!["N", "+"],
        vec!["+", "N"],
    ] {
        f.check(&syms(&f.g, &words));
    }
}

#[test]
fn agreement_on_dangling_else() {
    let f = Fixture::new("%% s : 'i' c 't' s 'e' s | 'i' c 't' s | 'x' ; c : 'k' ;");
    for words in [
        vec!["x"],
        vec!["i", "k", "t", "x"],
        vec!["i", "k", "t", "x", "e", "x"],
        vec!["i", "k", "t", "i", "k", "t", "x", "e", "x"],
        vec!["i", "k", "t", "i", "k", "t", "x", "e", "x", "e", "x"],
        vec!["i", "k", "t"],
    ] {
        f.check(&syms(&f.g, &words));
    }
}

#[test]
fn agreement_on_nullable_heavy_grammar() {
    let f = Fixture::new("%% s : a b 'x' ; a : | 'p' a ; b : | b 'q' ;");
    for words in [
        vec!["x"],
        vec!["p", "x"],
        vec!["q", "x"],
        vec!["p", "p", "q", "q", "x"],
        vec!["q", "p", "x"],
        vec![],
    ] {
        f.check(&syms(&f.g, &words));
    }
}

#[test]
fn agreement_on_palindromes() {
    // Non-LALR but unambiguous: the deterministic parser will fail on
    // some members (its default resolution is wrong for this language),
    // but GLR and Earley must still agree with each other.
    let f = Fixture::new("%% e : 'a' e 'a' | 'b' ;");
    let tables = f.auto.tables(&f.g);
    for words in [
        vec!["b"],
        vec!["a", "b", "a"],
        vec!["a", "a", "b", "a", "a"],
        vec!["a", "b"],
    ] {
        let input = syms(&f.g, &words);
        let glr_parses = glr::parses(&f.g, &f.auto, &input, glr::Limits::default());
        assert_eq!(
            !glr_parses.is_empty(),
            chart::recognizes(&f.g, f.g.start(), &input)
        );
        let _ = &tables;
    }
}

#[test]
fn sentential_forms_agree() {
    let f = Fixture::new("%% s : 'i' c 't' s 'e' s | 'i' c 't' s | 'x' ; c : 'k' ;");
    let s = f.g.start();
    let c = f.g.symbol_named("c").unwrap();
    let i = f.g.symbol_named("i").unwrap();
    let t = f.g.symbol_named("t").unwrap();
    // `i c t s` with nonterminal leaves.
    let form = vec![i, c, t, s];
    assert!(chart::recognizes(&f.g, s, &form));
    assert_eq!(forest::count_parses(&f.g, s, &form, 8), 1);
    assert_eq!(
        glr::parses(&f.g, &f.auto, &form, glr::Limits::default()).len(),
        1
    );
}
