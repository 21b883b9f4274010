//! Action/goto tables with yacc-style precedence resolution.

use lalrcex_grammar::{Assoc, Grammar, ProdId, SymbolId, SymbolKind};

use crate::automaton::{Automaton, StateId};
use crate::conflict::{Conflict, ConflictKind};

/// A parser action for one (state, terminal) cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Action {
    /// Syntax error.
    #[default]
    Error,
    /// Shift the terminal and go to the state.
    Shift(StateId),
    /// Reduce by the production.
    Reduce(ProdId),
    /// Accept the input.
    Accept,
}

/// A conflict that was silently resolved by precedence/associativity
/// declarations (§2.4) rather than reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Resolution {
    /// State of the would-be conflict.
    pub state: StateId,
    /// Lookahead terminal.
    pub terminal: SymbolId,
    /// The production whose reduction participated.
    pub reduce_prod: ProdId,
    /// The action that won.
    pub chosen: Action,
}

/// Parse tables plus the conflicts that survived precedence resolution.
///
/// Unresolved conflicts get the yacc defaults in the table (shift beats
/// reduce; the earlier production beats the later one) so the deterministic
/// parser always runs, but each one is recorded in [`Tables::conflicts`] —
/// the work list of the counterexample engine.
pub struct Tables {
    nterm: usize,
    nnont: usize,
    action: Vec<Action>,
    goto_: Vec<Option<StateId>>,
    conflicts: Vec<Conflict>,
    resolutions: Vec<Resolution>,
}

impl Tables {
    pub(crate) fn build(g: &Grammar, auto: &Automaton) -> Tables {
        let nterm = g.terminal_count();
        let nnont = g.nonterminal_count();
        let nstates = auto.state_count();
        let mut action = vec![Action::Error; nstates * nterm];
        let mut goto_ = vec![None; nstates * nnont];
        let mut conflicts = Vec::new();
        let mut resolutions = Vec::new();

        for sid in auto.state_ids() {
            let st = auto.state(sid);
            for &(sym, target) in st.transitions() {
                match g.kind(sym) {
                    SymbolKind::Terminal => {
                        // The augmented production ends in `$end`; shifting
                        // it is acceptance.
                        action[sid.index() * nterm + g.tindex(sym)] = if sym == SymbolId::EOF {
                            Action::Accept
                        } else {
                            Action::Shift(target)
                        };
                    }
                    SymbolKind::Nonterminal => {
                        goto_[sid.index() * nnont + g.ntindex(sym)] = Some(target);
                    }
                }
            }
            for (i, &it) in st.items().iter().enumerate() {
                if !it.is_reduce(g) {
                    continue;
                }
                let prod = it.prod();
                for t in st.lookahead(i).iter() {
                    let term = g.terminal(t);
                    let cell = &mut action[sid.index() * nterm + t];
                    let new = if prod == g.accept_prod() {
                        Action::Accept
                    } else {
                        Action::Reduce(prod)
                    };
                    match *cell {
                        Action::Error => *cell = new,
                        // Acceptance is a shift of `$end`, so a reduction
                        // clashing with it is a shift/reduce conflict on
                        // the end-of-input marker.
                        Action::Shift(_) | Action::Accept => {
                            // Shift/reduce: try precedence first.
                            let pp = g.prod(prod).precedence();
                            let tp = g.terminal_prec(term);
                            match (pp, tp) {
                                (Some(pp), Some(tp)) => {
                                    let chosen = if pp.level > tp.level {
                                        *cell = new;
                                        new
                                    } else if pp.level < tp.level {
                                        *cell // shift stays
                                    } else {
                                        match pp.assoc {
                                            Assoc::Left => {
                                                *cell = new;
                                                new
                                            }
                                            Assoc::Right => *cell,
                                            Assoc::Nonassoc => {
                                                *cell = Action::Error;
                                                Action::Error
                                            }
                                        }
                                    };
                                    resolutions.push(Resolution {
                                        state: sid,
                                        terminal: term,
                                        reduce_prod: prod,
                                        chosen,
                                    });
                                }
                                _ => {
                                    // Unresolved: default shift, report one
                                    // conflict per shift item (CUP counts a
                                    // conflict for every reduce/shift item
                                    // pair — the paper's Figure 7 state has
                                    // two).
                                    let mut any = false;
                                    for shift_item in st
                                        .items()
                                        .iter()
                                        .copied()
                                        .filter(|si| si.next_symbol(g) == Some(term))
                                    {
                                        any = true;
                                        conflicts.push(Conflict {
                                            state: sid,
                                            terminal: term,
                                            reduce_prod: prod,
                                            kind: ConflictKind::ShiftReduce { shift_item },
                                        });
                                    }
                                    if !any {
                                        // An Accept cell produced by the
                                        // completed accept item (not by a
                                        // `$end` shift): a reduce/reduce
                                        // clash with the accept production.
                                        conflicts.push(Conflict {
                                            state: sid,
                                            terminal: term,
                                            reduce_prod: g.accept_prod(),
                                            kind: ConflictKind::ReduceReduce { other_prod: prod },
                                        });
                                    }
                                }
                            }
                        }
                        Action::Reduce(p2) => {
                            // Reduce/reduce: report; earlier production wins.
                            let (first, second) = if p2 < prod { (p2, prod) } else { (prod, p2) };
                            conflicts.push(Conflict {
                                state: sid,
                                terminal: term,
                                reduce_prod: first,
                                kind: ConflictKind::ReduceReduce { other_prod: second },
                            });
                            *cell = Action::Reduce(first);
                        }
                    }
                }
            }
        }

        // One conflict may surface under many lookahead terminals (an
        // eqn-style reduce/reduce pair clashes on every terminal in the
        // intersected lookahead sets). Like CUP, count it once per
        // (state, item pair), keeping the first terminal as the
        // representative conflict symbol.
        let mut seen = std::collections::HashSet::new();
        conflicts.retain(|c| seen.insert((c.state, c.reduce_prod, c.kind)));

        Tables {
            nterm,
            nnont,
            action,
            goto_,
            conflicts,
            resolutions,
        }
    }

    /// The action for `state` on terminal `term`.
    ///
    /// # Panics
    ///
    /// Panics if `term` is a nonterminal.
    pub fn action(&self, g: &Grammar, state: StateId, term: SymbolId) -> Action {
        self.action[state.index() * self.nterm + g.tindex(term)]
    }

    /// The goto target for `state` on nonterminal `nt`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `nt` is a terminal.
    pub fn goto(&self, g: &Grammar, state: StateId, nt: SymbolId) -> Option<StateId> {
        self.goto_[state.index() * self.nnont + g.ntindex(nt)]
    }

    /// The conflicts that survived precedence resolution, in (state,
    /// terminal) order of discovery.
    pub fn conflicts(&self) -> &[Conflict] {
        &self.conflicts
    }

    /// Conflicts silently resolved by precedence declarations.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Resident bytes: the dense action (states × terminals) and goto
    /// (states × nonterminals) arrays plus the conflict and resolution
    /// lists.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of_val(self.action.as_slice())
            + std::mem::size_of_val(self.goto_.as_slice())
            + std::mem::size_of_val(self.conflicts.as_slice())
            + std::mem::size_of_val(self.resolutions.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use lalrcex_grammar::Grammar;

    #[test]
    fn dangling_else_is_one_shift_reduce_conflict() {
        let g = Grammar::parse("%% s : 'if' e 'then' s 'else' s | 'if' e 'then' s | X ; e : Y ;")
            .unwrap();
        let auto = Automaton::build(&g);
        let t = auto.tables(&g);
        assert_eq!(t.conflicts().len(), 1);
        let c = &t.conflicts()[0];
        assert_eq!(g.display_name(c.terminal), "else");
        assert!(matches!(c.kind, ConflictKind::ShiftReduce { .. }));
        // Default resolution is shift.
        assert!(matches!(
            t.action(&g, c.state, c.terminal),
            Action::Shift(_)
        ));
    }

    #[test]
    fn precedence_resolves_expression_conflicts() {
        let g = Grammar::parse(
            "%left '+'
             %left '*'
             %% e : e '+' e | e '*' e | NUM ;",
        )
        .unwrap();
        let auto = Automaton::build(&g);
        let t = auto.tables(&g);
        assert!(t.conflicts().is_empty(), "{:?}", t.conflicts());
        assert!(!t.resolutions().is_empty());
    }

    #[test]
    fn left_assoc_chooses_reduce() {
        let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
        let auto = Automaton::build(&g);
        let t = auto.tables(&g);
        let r = t
            .resolutions()
            .iter()
            .find(|r| g.display_name(r.terminal) == "+")
            .unwrap();
        assert!(matches!(r.chosen, Action::Reduce(_)));
    }

    #[test]
    fn nonassoc_resolves_to_error() {
        let g = Grammar::parse("%nonassoc EQ %% e : e EQ e | NUM ;").unwrap();
        let auto = Automaton::build(&g);
        let t = auto.tables(&g);
        let r = t
            .resolutions()
            .iter()
            .find(|r| g.display_name(r.terminal) == "EQ")
            .unwrap();
        assert_eq!(r.chosen, Action::Error);
        assert_eq!(t.action(&g, r.state, r.terminal), Action::Error);
    }

    #[test]
    fn reduce_reduce_conflict_reported_and_earlier_prod_wins() {
        // Classic r/r: two nonterminals deriving the same terminal with the
        // same follow.
        let g = Grammar::parse("%% s : a X | b X ; a : T ; b : T ;").unwrap();
        let auto = Automaton::build(&g);
        let t = auto.tables(&g);
        assert!(t
            .conflicts()
            .iter()
            .any(|c| matches!(c.kind, ConflictKind::ReduceReduce { .. })));
        let c = t
            .conflicts()
            .iter()
            .find(|c| matches!(c.kind, ConflictKind::ReduceReduce { .. }))
            .unwrap();
        match t.action(&g, c.state, c.terminal) {
            Action::Reduce(p) => assert_eq!(p, c.reduce_prod, "earlier production wins"),
            other => panic!("expected reduce, got {other:?}"),
        }
    }

    #[test]
    fn unambiguous_grammar_has_clean_tables() {
        let g = Grammar::parse("%% s : s A | A ;").unwrap();
        let auto = Automaton::build(&g);
        let t = auto.tables(&g);
        assert!(t.conflicts().is_empty());
        assert!(t.resolutions().is_empty());
    }

    #[test]
    fn figure3_grammar_conflict_is_shift_reduce() {
        // Paper Figure 3: unambiguous but not LALR — 1 conflict.
        let g = Grammar::parse("%% S : T | S T ; T : X | Y ; X : 'a' ; Y : 'a' 'a' 'b' ;").unwrap();
        let auto = Automaton::build(&g);
        assert_eq!(auto.state_count(), 10, "Table 1 row figure3: 10 states");
        let t = auto.tables(&g);
        assert_eq!(t.conflicts().len(), 1);
        let c = &t.conflicts()[0];
        assert_eq!(g.display_name(c.terminal), "a");
        assert!(matches!(c.kind, ConflictKind::ShiftReduce { .. }));
        assert!(c.describe(&g).contains("Shift/Reduce"));
    }
}
