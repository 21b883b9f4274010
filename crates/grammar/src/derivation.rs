//! Partial derivation trees and minimal-expansion helpers.
//!
//! Counterexamples in the PLDI'15 algorithm are *derivations*: trees whose
//! leaves may be unexpanded nonterminals ("no more concrete than necessary",
//! §3.2). This module provides the tree type plus the expansion routines the
//! counterexample constructors need:
//!
//! * derive ε from a nullable symbol with as few nodes as possible, and
//! * derive a string *beginning with a given terminal* from a symbol (or a
//!   sequence of symbols), expanding as little as possible — used to place
//!   the conflict terminal right after the conflict point (§4).

use crate::analysis::{Analysis, INFINITE};
use crate::grammar::Grammar;
use crate::symbol::{SymbolId, SymbolKind};

/// A node in a partial derivation tree.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Derivation {
    /// An unexpanded symbol: a terminal, or a nonterminal whose expansion is
    /// irrelevant to the counterexample.
    Leaf(SymbolId),
    /// An expanded nonterminal with the derivations of its production's
    /// right-hand side (empty for an ε-production).
    Node(SymbolId, Vec<Derivation>),
    /// The conflict point marker, rendered as `•`.
    Dot,
}

impl Derivation {
    /// The symbol at this node (`None` for the dot marker).
    pub fn symbol(&self) -> Option<SymbolId> {
        match self {
            Derivation::Leaf(s) | Derivation::Node(s, _) => Some(*s),
            Derivation::Dot => None,
        }
    }

    /// Appends the leaf symbols (the derived sentential form) to `out`,
    /// skipping dot markers.
    pub fn leaves_into(&self, out: &mut Vec<SymbolId>) {
        match self {
            Derivation::Leaf(s) => out.push(*s),
            Derivation::Node(_, children) => {
                for c in children {
                    c.leaves_into(out);
                }
            }
            Derivation::Dot => {}
        }
    }

    /// The derived sentential form (leaf symbols, dots skipped).
    pub fn leaves(&self) -> Vec<SymbolId> {
        let mut out = Vec::new();
        self.leaves_into(&mut out);
        out
    }

    /// A copy of the tree with every dot marker removed (used when
    /// comparing the *structure* of two derivations: trees that differ only
    /// in dot placement are the same derivation).
    pub fn strip_dots(&self) -> Option<Derivation> {
        match self {
            Derivation::Leaf(s) => Some(Derivation::Leaf(*s)),
            Derivation::Dot => None,
            Derivation::Node(s, children) => Some(Derivation::Node(
                *s,
                children.iter().filter_map(Derivation::strip_dots).collect(),
            )),
        }
    }

    /// Number of expanded nodes in the tree.
    pub fn size(&self) -> usize {
        match self {
            Derivation::Leaf(_) | Derivation::Dot => 0,
            Derivation::Node(_, children) => {
                1 + children.iter().map(Derivation::size).sum::<usize>()
            }
        }
    }

    /// Renders the sentential form with dots, e.g.
    /// `if expr then stmt • else stmt`.
    pub fn flat(&self, g: &Grammar) -> String {
        fn walk(d: &Derivation, g: &Grammar, out: &mut Vec<String>) {
            match d {
                Derivation::Leaf(s) => out.push(g.display_name(*s).to_owned()),
                Derivation::Node(_, children) => {
                    for c in children {
                        walk(c, g, out);
                    }
                }
                Derivation::Dot => out.push("\u{2022}".to_owned()),
            }
        }
        let mut parts = Vec::new();
        walk(self, g, &mut parts);
        parts.join(" ")
    }

    /// Renders the bracketed derivation form of the paper's Figure 11, e.g.
    /// `expr ::= [expr ::= [expr PLUS expr •] PLUS expr]`.
    pub fn pretty(&self, g: &Grammar) -> String {
        match self {
            Derivation::Leaf(s) => g.display_name(*s).to_owned(),
            Derivation::Dot => "\u{2022}".to_owned(),
            Derivation::Node(s, children) => {
                let inner = children
                    .iter()
                    .map(|c| c.pretty(g))
                    .collect::<Vec<_>>()
                    .join(" ");
                format!("{} ::= [{}]", g.display_name(*s), inner)
            }
        }
    }
}

/// The cheapest derivation of ε from `sym`, or `None` if `sym` is not
/// nullable.
pub fn eps_derivation(g: &Grammar, a: &Analysis, sym: SymbolId) -> Option<Derivation> {
    if g.kind(sym) != SymbolKind::Nonterminal {
        return None;
    }
    let pid = a.eps_prod[g.ntindex(sym)]?;
    let children = g
        .prod(pid)
        .rhs()
        .iter()
        .map(|&s| eps_derivation(g, a, s))
        .collect::<Option<Vec<_>>>()?;
    Some(Derivation::Node(sym, children))
}

fn eps_cost_sym(g: &Grammar, a: &Analysis, sym: SymbolId) -> u64 {
    match g.kind(sym) {
        SymbolKind::Terminal => INFINITE,
        SymbolKind::Nonterminal => a.eps_cost[g.ntindex(sym)],
    }
}

/// Per-symbol cost of the cheapest derivation whose terminal string begins
/// with `t` (counting expanded nodes).
fn start_costs(g: &Grammar, a: &Analysis, t: SymbolId) -> Vec<u64> {
    let mut cost = vec![INFINITE; g.symbol_count()];
    cost[t.index()] = 0;
    loop {
        let mut changed = false;
        for p in g.productions() {
            let lhs = p.lhs().index();
            let mut prefix_eps: u64 = 0;
            for &s in p.rhs() {
                let cand = 1u64
                    .saturating_add(prefix_eps)
                    .saturating_add(cost[s.index()]);
                if cand < cost[lhs] {
                    cost[lhs] = cand;
                    changed = true;
                }
                prefix_eps = prefix_eps.saturating_add(eps_cost_sym(g, a, s));
                if prefix_eps >= INFINITE {
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    cost
}

fn reconstruct(
    g: &Grammar,
    a: &Analysis,
    cost: &[u64],
    sym: SymbolId,
    t: SymbolId,
) -> Option<Derivation> {
    if sym == t {
        return Some(Derivation::Leaf(sym));
    }
    if g.kind(sym) != SymbolKind::Nonterminal || cost[sym.index()] >= INFINITE {
        return None;
    }
    // Find the production and pivot position achieving the recorded cost.
    let my_cost = cost[sym.index()];
    for &pid in g.prods_of(sym) {
        let rhs = g.prod(pid).rhs();
        let mut prefix_eps: u64 = 0;
        for (i, &s) in rhs.iter().enumerate() {
            let cand = 1u64
                .saturating_add(prefix_eps)
                .saturating_add(cost[s.index()]);
            if cand == my_cost {
                let mut children = Vec::with_capacity(rhs.len());
                for &p in &rhs[..i] {
                    children.push(eps_derivation(g, a, p)?);
                }
                children.push(reconstruct(g, a, cost, s, t)?);
                for &p in &rhs[i + 1..] {
                    children.push(Derivation::Leaf(p));
                }
                return Some(Derivation::Node(sym, children));
            }
            prefix_eps = prefix_eps.saturating_add(eps_cost_sym(g, a, s));
            if prefix_eps >= INFINITE {
                break;
            }
        }
    }
    None
}

/// The cheapest derivation of `sym` whose terminal string begins with the
/// terminal `t`, leaving everything after `t` unexpanded. Returns `None` if
/// `t` is not in FIRST(`sym`).
pub fn derive_starting_with(
    g: &Grammar,
    a: &Analysis,
    sym: SymbolId,
    t: SymbolId,
) -> Option<Derivation> {
    let cost = start_costs(g, a, t);
    reconstruct(g, a, &cost, sym, t)
}

/// Like [`derive_starting_with`], but for a sequence: symbols before the one
/// that produces `t` derive ε, the producing symbol is minimally expanded,
/// and the rest are left as leaves. Returns one derivation per input symbol.
pub fn derive_seq_starting_with(
    g: &Grammar,
    a: &Analysis,
    seq: &[SymbolId],
    t: SymbolId,
) -> Option<Vec<Derivation>> {
    let cost = start_costs(g, a, t);
    // Pick the pivot position minimising total node count.
    let mut best: Option<(usize, u64)> = None;
    let mut prefix_eps: u64 = 0;
    for (i, &s) in seq.iter().enumerate() {
        let cand = prefix_eps.saturating_add(cost[s.index()]);
        if cand < INFINITE && best.is_none_or(|(_, c)| cand < c) {
            best = Some((i, cand));
        }
        prefix_eps = prefix_eps.saturating_add(eps_cost_sym(g, a, s));
        if prefix_eps >= INFINITE {
            break;
        }
    }
    let (pivot, _) = best?;
    let mut out = Vec::with_capacity(seq.len());
    for &s in &seq[..pivot] {
        out.push(eps_derivation(g, a, s)?);
    }
    out.push(reconstruct(g, a, &cost, seq[pivot], t)?);
    for &s in &seq[pivot + 1..] {
        out.push(Derivation::Leaf(s));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn stmt_grammar() -> Grammar {
        // The paper's Figure 1 grammar.
        let mut b = GrammarBuilder::new();
        b.start("stmt");
        b.rule("stmt", &["if", "expr", "then", "stmt", "else", "stmt"]);
        b.rule("stmt", &["if", "expr", "then", "stmt"]);
        b.rule("stmt", &["expr", "?", "stmt", "stmt"]);
        b.rule("stmt", &["arr", "[", "expr", "]", ":=", "expr"]);
        b.rule("expr", &["num"]);
        b.rule("expr", &["expr", "+", "expr"]);
        b.rule("num", &["digit"]);
        b.rule("num", &["num", "digit"]);
        b.build().unwrap()
    }

    #[test]
    fn eps_derivation_of_non_nullable_is_none() {
        let g = stmt_grammar();
        let a = Analysis::new(&g);
        assert_eq!(
            eps_derivation(&g, &a, g.symbol_named("stmt").unwrap()),
            None
        );
    }

    #[test]
    fn eps_derivation_builds_minimal_tree() {
        let mut b = GrammarBuilder::new();
        b.start("s");
        b.rule("s", &["a", "a"]);
        b.rule("a", &["X"]);
        b.rule("a", &[]);
        let g = b.build().unwrap();
        let a = Analysis::new(&g);
        let d = eps_derivation(&g, &a, g.symbol_named("s").unwrap()).unwrap();
        assert!(d.leaves().is_empty());
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn derive_statement_starting_with_digit() {
        // The paper's §3.1: a stmt that begins with ⟨digit⟩ is
        // `digit ? stmt stmt` (via expr -> num -> digit).
        let g = stmt_grammar();
        let a = Analysis::new(&g);
        let stmt = g.symbol_named("stmt").unwrap();
        let digit = g.symbol_named("digit").unwrap();
        let d = derive_starting_with(&g, &a, stmt, digit).unwrap();
        let leaves = d.leaves();
        assert_eq!(leaves[0], digit);
        let names: Vec<&str> = leaves.iter().map(|&s| g.display_name(s)).collect();
        assert_eq!(names, vec!["digit", "?", "stmt", "stmt"]);
    }

    #[test]
    fn derive_starting_with_missing_terminal_is_none() {
        let g = stmt_grammar();
        let a = Analysis::new(&g);
        let stmt = g.symbol_named("stmt").unwrap();
        let then = g.symbol_named("then").unwrap();
        assert!(derive_starting_with(&g, &a, stmt, then).is_none());
    }

    #[test]
    fn derive_terminal_from_itself() {
        let g = stmt_grammar();
        let a = Analysis::new(&g);
        let d = derive_starting_with(
            &g,
            &a,
            g.symbol_named("if").unwrap(),
            g.symbol_named("if").unwrap(),
        )
        .unwrap();
        assert_eq!(d, Derivation::Leaf(g.symbol_named("if").unwrap()));
    }

    #[test]
    fn derive_seq_skips_nullable_prefix() {
        let mut b = GrammarBuilder::new();
        b.start("s");
        b.rule("s", &["opt", "X", "tail"]);
        b.rule("opt", &[]);
        b.rule("opt", &["Y"]);
        b.rule("tail", &["Z"]);
        let g = b.build().unwrap();
        let a = Analysis::new(&g);
        let seq = [
            g.symbol_named("opt").unwrap(),
            g.symbol_named("X").unwrap(),
            g.symbol_named("tail").unwrap(),
        ];
        let x = g.symbol_named("X").unwrap();
        let ds = derive_seq_starting_with(&g, &a, &seq, x).unwrap();
        assert_eq!(ds.len(), 3);
        assert!(ds[0].leaves().is_empty(), "opt derived to ε");
        assert_eq!(ds[1].leaves(), vec![x]);
        assert_eq!(ds[2], Derivation::Leaf(seq[2]), "tail left unexpanded");
    }

    #[test]
    fn flat_and_pretty_rendering() {
        let g = stmt_grammar();
        let stmt = g.symbol_named("stmt").unwrap();
        let d = Derivation::Node(
            stmt,
            vec![
                Derivation::Leaf(g.symbol_named("if").unwrap()),
                Derivation::Leaf(g.symbol_named("expr").unwrap()),
                Derivation::Leaf(g.symbol_named("then").unwrap()),
                Derivation::Leaf(stmt),
                Derivation::Dot,
                Derivation::Leaf(g.symbol_named("else").unwrap()),
                Derivation::Leaf(stmt),
            ],
        );
        assert_eq!(d.flat(&g), "if expr then stmt \u{2022} else stmt");
        assert_eq!(
            d.pretty(&g),
            "stmt ::= [if expr then stmt \u{2022} else stmt]"
        );
        assert_eq!(d.leaves().len(), 6, "dot is not a leaf");
    }

    /// The §5.4 distinctness check compares derivations after
    /// `strip_dots`.
    #[test]
    fn strip_dots_equality_ignores_dot_placement() {
        let (s0, s1) = (SymbolId::from_index(0), SymbolId::from_index(1));
        let leaf = |s| Derivation::Leaf(s);
        assert_eq!(leaf(s0).strip_dots(), leaf(s0).strip_dots());
        assert_ne!(leaf(s0).strip_dots(), leaf(s1).strip_dots());
        assert_eq!(Derivation::Dot.strip_dots(), None);

        let a = Derivation::Node(s1, vec![leaf(s0), Derivation::Dot]);
        let b = Derivation::Node(s1, vec![Derivation::Dot, leaf(s0)]);
        assert_ne!(a, b);
        assert_eq!(a.strip_dots(), b.strip_dots());
        // A node survives stripping, even with only a dot below it, so it
        // never equals a bare leaf of its symbol.
        assert_ne!(a.strip_dots(), leaf(s1).strip_dots());
        let only_dot = Derivation::Node(s1, vec![Derivation::Dot]);
        assert_eq!(only_dot.strip_dots(), Some(Derivation::Node(s1, vec![])));
        assert_ne!(only_dot.strip_dots(), leaf(s1).strip_dots());
    }
}
