//! Classic grammar analyses: nullable, FIRST, FOLLOW, reachability,
//! productivity, and minimal-derivation tables.
//!
//! All analyses are computed eagerly by fixpoint iteration when an
//! [`Analysis`] is constructed; queries are O(1) afterwards.

use crate::grammar::{Grammar, ProdId};
use crate::symbol::{SymbolId, SymbolKind, TerminalSet};

/// Cost of a derivation that does not exist.
pub(crate) const INFINITE: u64 = u64::MAX / 4;

/// Precomputed analyses for one [`Grammar`].
///
/// # Example
///
/// ```
/// use lalrcex_grammar::{Grammar, Analysis};
///
/// let g = Grammar::parse("%%  s : A s | ;")?;
/// let a = Analysis::new(&g);
/// let s = g.symbol_named("s").unwrap();
/// assert!(a.nullable(s));
/// assert!(a.first(s).contains(g.tindex(g.symbol_named("A").unwrap())));
/// # Ok::<(), lalrcex_grammar::GrammarError>(())
/// ```
pub struct Analysis {
    /// Per symbol id: derives ε? (Terminals: always `false`.)
    nullable: Vec<bool>,
    /// Per symbol id: FIRST set (terminals: singleton of themselves).
    first: Vec<TerminalSet>,
    /// Per nonterminal dense index: FOLLOW set.
    follow: Vec<TerminalSet>,
    /// Per symbol id: reachable from the start symbol?
    reachable: Vec<bool>,
    /// Per symbol id: derives at least one terminal string?
    productive: Vec<bool>,
    /// Per symbol id: minimal length of a derivable terminal string
    /// ([`INFINITE`] when unproductive).
    min_len: Vec<u64>,
    /// Per nonterminal dense index: cost (node count) of the cheapest
    /// ε-derivation, [`INFINITE`] if not nullable.
    pub(crate) eps_cost: Vec<u64>,
    /// Per nonterminal dense index: production achieving `eps_cost`.
    pub(crate) eps_prod: Vec<Option<ProdId>>,
}

impl Analysis {
    /// Estimated resident bytes: the FIRST and FOLLOW sets and the
    /// per-symbol flag and cost tables.
    pub fn estimated_bytes(&self) -> usize {
        let sets: usize = self
            .first
            .iter()
            .chain(&self.follow)
            .map(TerminalSet::bytes)
            .sum();
        sets + self.nullable.len()
            + self.reachable.len()
            + self.productive.len()
            + std::mem::size_of_val(self.min_len.as_slice())
            + std::mem::size_of_val(self.eps_cost.as_slice())
            + std::mem::size_of_val(self.eps_prod.as_slice())
    }

    /// Computes every analysis for `g`.
    pub fn new(g: &Grammar) -> Analysis {
        let nterm = g.terminal_count();
        let nnont = g.nonterminal_count();
        let nsym = g.symbol_count();

        // Nullability, indexed by symbol id (terminals stay false).
        let mut nullable = vec![false; nsym];
        loop {
            let mut changed = false;
            for p in g.productions() {
                let lhs = p.lhs().index();
                if nullable[lhs] {
                    continue;
                }
                if p.rhs().iter().all(|&s| nullable[s.index()]) {
                    nullable[lhs] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // FIRST sets.
        let mut first: Vec<TerminalSet> = (0..nsym)
            .map(|i| {
                let sym = SymbolId::from_index(i);
                if g.kind(sym) == SymbolKind::Terminal {
                    TerminalSet::singleton(nterm, g.tindex(sym))
                } else {
                    TerminalSet::empty(nterm)
                }
            })
            .collect();
        loop {
            let mut changed = false;
            for p in g.productions() {
                let lhs = p.lhs().index();
                for &s in p.rhs() {
                    let snap = first[s.index()].clone();
                    changed |= first[lhs].union_with(&snap);
                    if !nullable[s.index()] {
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // FOLLOW sets. FOLLOW($accept) = {$end}.
        let mut follow: Vec<TerminalSet> = vec![TerminalSet::empty(nterm); nnont];
        follow[g.ntindex(g.accept())].insert(g.tindex(SymbolId::EOF));
        loop {
            let mut changed = false;
            for p in g.productions() {
                let lhs_nt = g.ntindex(p.lhs());
                let rhs = p.rhs();
                for (i, &s) in rhs.iter().enumerate() {
                    if g.kind(s) != SymbolKind::Nonterminal {
                        continue;
                    }
                    let nt = g.ntindex(s);
                    // FOLLOW(s) ⊇ FIRST(rest); if rest nullable, ⊇ FOLLOW(lhs).
                    let mut rest_nullable = true;
                    for &r in &rhs[i + 1..] {
                        let snap = first[r.index()].clone();
                        changed |= follow[nt].union_with(&snap);
                        if !nullable[r.index()] {
                            rest_nullable = false;
                            break;
                        }
                    }
                    if rest_nullable {
                        let snap = follow[lhs_nt].clone();
                        changed |= follow[nt].union_with(&snap);
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Reachability from $accept.
        let mut reachable = vec![false; nsym];
        let mut stack = vec![g.accept()];
        reachable[g.accept().index()] = true;
        while let Some(s) = stack.pop() {
            if g.kind(s) != SymbolKind::Nonterminal {
                continue;
            }
            for &pid in g.prods_of(s) {
                for &r in g.prod(pid).rhs() {
                    if !reachable[r.index()] {
                        reachable[r.index()] = true;
                        stack.push(r);
                    }
                }
            }
        }

        // Minimal terminal-string length per symbol (productivity).
        let mut min_len = vec![INFINITE; nsym];
        for t in 0..nterm {
            min_len[g.terminal(t).index()] = 1;
        }
        loop {
            let mut changed = false;
            for p in g.productions() {
                let total: u64 = p
                    .rhs()
                    .iter()
                    .map(|&s| min_len[s.index()])
                    .fold(0u64, |a, b| a.saturating_add(b))
                    .min(INFINITE);
                let lhs = p.lhs().index();
                if total < min_len[lhs] {
                    min_len[lhs] = total;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let productive: Vec<bool> = min_len.iter().map(|&l| l < INFINITE).collect();

        // Cheapest ε-derivation per nonterminal (node count).
        let mut eps_cost = vec![INFINITE; nnont];
        let mut eps_prod: Vec<Option<ProdId>> = vec![None; nnont];
        loop {
            let mut changed = false;
            for pid in g.prod_ids() {
                let p = g.prod(pid);
                let nt = g.ntindex(p.lhs());
                let mut total: u64 = 1;
                let mut ok = true;
                for &s in p.rhs() {
                    if g.kind(s) == SymbolKind::Nonterminal {
                        total = total.saturating_add(eps_cost[g.ntindex(s)]);
                    } else {
                        ok = false;
                        break;
                    }
                }
                if ok && total < eps_cost[nt] {
                    eps_cost[nt] = total;
                    eps_prod[nt] = Some(pid);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        Analysis {
            nullable,
            first,
            follow,
            reachable,
            productive,
            min_len,
            eps_cost,
            eps_prod,
        }
    }

    /// `true` if `sym` derives the empty string (terminals never do).
    pub fn nullable(&self, sym: SymbolId) -> bool {
        self.nullable[sym.index()]
    }

    /// FIRST set of a symbol (for a terminal: the singleton set of itself).
    pub fn first(&self, sym: SymbolId) -> &TerminalSet {
        &self.first[sym.index()]
    }

    /// FOLLOW set of a nonterminal.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is a terminal.
    pub fn follow(&self, g: &Grammar, sym: SymbolId) -> &TerminalSet {
        &self.follow[g.ntindex(sym)]
    }

    /// `true` if `sym` is reachable from the start symbol.
    pub fn reachable(&self, sym: SymbolId) -> bool {
        self.reachable[sym.index()]
    }

    /// `true` if `sym` derives at least one terminal string.
    pub fn productive(&self, sym: SymbolId) -> bool {
        self.productive[sym.index()]
    }

    /// Minimal length of a terminal string derivable from `sym`, or `None`
    /// if `sym` is unproductive.
    pub fn min_sentence_len(&self, sym: SymbolId) -> Option<u64> {
        let l = self.min_len[sym.index()];
        (l < INFINITE).then_some(l)
    }

    /// FIRST of a sentential suffix: `FIRST(seq)`, unioned with `tail` when
    /// the whole of `seq` is nullable. This is the paper's
    /// `followL` building block (§4).
    pub fn first_of_seq(&self, g: &Grammar, seq: &[SymbolId], tail: &TerminalSet) -> TerminalSet {
        let mut out = TerminalSet::empty(g.terminal_count());
        for &s in seq {
            out.union_with(self.first(s));
            if !self.nullable[s.index()] {
                return out;
            }
        }
        out.union_with(tail);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    /// stmt-expr grammar from Figure 1 of the paper, slightly reduced.
    fn fig1ish() -> Grammar {
        let mut b = GrammarBuilder::new();
        b.start("stmt");
        b.rule("stmt", &["if", "expr", "then", "stmt", "else", "stmt"]);
        b.rule("stmt", &["if", "expr", "then", "stmt"]);
        b.rule("expr", &["num"]);
        b.rule("expr", &["expr", "+", "expr"]);
        b.rule("num", &["digit"]);
        b.rule("num", &["num", "digit"]);
        b.build().unwrap()
    }

    #[test]
    fn first_sets() {
        let g = fig1ish();
        let a = Analysis::new(&g);
        let expr = g.symbol_named("expr").unwrap();
        let num = g.symbol_named("num").unwrap();
        let digit = g.tindex(g.symbol_named("digit").unwrap());
        assert!(a.first(expr).contains(digit));
        assert!(a.first(num).contains(digit));
        assert_eq!(a.first(num).len(), 1);
        let stmt = g.symbol_named("stmt").unwrap();
        assert!(a
            .first(stmt)
            .contains(g.tindex(g.symbol_named("if").unwrap())));
        assert!(
            !a.first(stmt).contains(digit),
            "stmt cannot start with digit here"
        );
    }

    #[test]
    fn follow_sets() {
        let g = fig1ish();
        let a = Analysis::new(&g);
        let stmt = g.symbol_named("stmt").unwrap();
        let f = a.follow(&g, stmt);
        assert!(f.contains(g.tindex(SymbolId::EOF)));
        assert!(f.contains(g.tindex(g.symbol_named("else").unwrap())));
        let expr = g.symbol_named("expr").unwrap();
        let fe = a.follow(&g, expr);
        assert!(fe.contains(g.tindex(g.symbol_named("then").unwrap())));
        assert!(fe.contains(g.tindex(g.symbol_named("+").unwrap())));
    }

    #[test]
    fn nullable_and_eps_costs() {
        let mut b = GrammarBuilder::new();
        b.start("s");
        b.rule("s", &["a", "b"]);
        b.rule("a", &[]);
        b.rule("a", &["X", "a"]);
        b.rule("b", &["a"]);
        let g = b.build().unwrap();
        let a = Analysis::new(&g);
        let s = g.symbol_named("s").unwrap();
        let av = g.symbol_named("a").unwrap();
        assert!(a.nullable(s));
        assert!(a.nullable(av));
        assert!(!a.nullable(g.symbol_named("X").unwrap()));
        assert_eq!(a.eps_cost[g.ntindex(av)], 1);
        // s -> a b (1 node), a -> ε (1), b -> a (1) -> ε (1)
        assert_eq!(a.eps_cost[g.ntindex(s)], 4);
    }

    #[test]
    fn unproductive_and_unreachable() {
        let mut b = GrammarBuilder::new();
        b.start("s");
        b.rule("s", &["A"]);
        b.rule("loop", &["loop", "A"]); // unproductive and unreachable
        let g = b.build().unwrap();
        let a = Analysis::new(&g);
        let lp = g.symbol_named("loop").unwrap();
        assert!(!a.productive(lp));
        assert!(!a.reachable(lp));
        assert_eq!(a.min_sentence_len(lp), None);
        let s = g.symbol_named("s").unwrap();
        assert!(a.productive(s));
        assert!(a.reachable(s));
        assert_eq!(a.min_sentence_len(s), Some(1));
    }

    #[test]
    fn min_sentence_lengths() {
        let g = fig1ish();
        let a = Analysis::new(&g);
        // fig1ish has only recursive stmt productions, so stmt is
        // unproductive (the full Figure 1 grammar adds base cases).
        let stmt = g.symbol_named("stmt").unwrap();
        assert_eq!(a.min_sentence_len(stmt), None);
        assert!(!a.productive(stmt));
        let num = g.symbol_named("num").unwrap();
        assert_eq!(a.min_sentence_len(num), Some(1));
        let expr = g.symbol_named("expr").unwrap();
        assert_eq!(a.min_sentence_len(expr), Some(1));
    }

    #[test]
    fn first_of_seq_respects_nullability() {
        let mut b = GrammarBuilder::new();
        b.start("s");
        b.rule("s", &["opt", "X"]);
        b.rule("opt", &[]);
        b.rule("opt", &["Y"]);
        let g = b.build().unwrap();
        let a = Analysis::new(&g);
        let opt = g.symbol_named("opt").unwrap();
        let x = g.symbol_named("X").unwrap();
        let tail = TerminalSet::singleton(g.terminal_count(), g.tindex(SymbolId::EOF));
        let f = a.first_of_seq(&g, &[opt, x], &tail);
        assert!(f.contains(g.tindex(g.symbol_named("Y").unwrap())));
        assert!(f.contains(g.tindex(x)));
        assert!(!f.contains(g.tindex(SymbolId::EOF)), "X not nullable");
        let f2 = a.first_of_seq(&g, &[opt], &tail);
        assert!(
            f2.contains(g.tindex(SymbolId::EOF)),
            "nullable seq exposes tail"
        );
    }
}
