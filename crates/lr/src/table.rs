//! Sparse action/goto tables with yacc-style precedence resolution.

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
///
/// The tables are sparse: each state owns one row of its non-`Error`
/// actions, sorted by dense terminal index, and one row of its gotos,
/// sorted by dense nonterminal index. Lookups binary-search the row.
pub struct Tables {
    /// `actions[action_start[s]..action_start[s + 1]]` is state `s`'s row.
    action_start: Vec<u32>,
    actions: Vec<(u32, Action)>,
    /// `gotos[goto_start[s]..goto_start[s + 1]]` is state `s`'s row.
    goto_start: Vec<u32>,
    gotos: Vec<(u32, StateId)>,
    conflicts: Vec<Conflict>,
    resolutions: Vec<Resolution>,
}

impl Tables {
    pub(crate) fn build(g: &Grammar, auto: &Automaton) -> Tables {
        let nstates = auto.state_count();
        let mut action_start = Vec::with_capacity(nstates + 1);
        let mut actions = Vec::new();
        let mut goto_start = Vec::with_capacity(nstates + 1);
        let mut gotos = Vec::new();
        let mut conflicts = Vec::new();
        let mut resolutions = Vec::new();
        // One state's action row and a bitmask of the cells it set; the
        // emit loop walks the mask and resets both for the next state.
        let mut row = vec![Action::Error; g.terminal_count()];
        let mut touched = vec![0u64; g.terminal_count().div_ceil(64)];

        for sid in auto.state_ids() {
            let st = auto.state(sid);
            action_start.push(actions.len() as u32);
            goto_start.push(gotos.len() as u32);
            // Transitions are sorted by symbol, and dense indices follow
            // symbol order, so the goto row comes out sorted.
            for &(sym, target) in st.transitions() {
                match g.kind(sym) {
                    SymbolKind::Terminal => {
                        let t = g.tindex(sym);
                        touched[t / 64] |= 1 << (t % 64);
                        // The augmented production ends in `$end`; shifting
                        // it is acceptance.
                        row[t] = if sym == SymbolId::EOF {
                            Action::Accept
                        } else {
                            Action::Shift(target)
                        };
                    }
                    SymbolKind::Nonterminal => gotos.push((g.ntindex(sym) as u32, target)),
                }
            }
            for (i, &it) in st.items().iter().enumerate() {
                if !it.is_reduce(g) {
                    continue;
                }
                let prod = it.prod();
                for t in st.lookahead(i).iter() {
                    let term = g.terminal(t);
                    let cell = &mut row[t];
                    let new = if prod == g.accept_prod() {
                        Action::Accept
                    } else {
                        Action::Reduce(prod)
                    };
                    match *cell {
                        Action::Error => {
                            touched[t / 64] |= 1 << (t % 64);
                            *cell = new;
                        }
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
            // Emit the row's non-`Error` cells in terminal order; a cell a
            // nonassoc declaration turned into `Error` becomes a miss.
            for (w, word) in touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let cell = std::mem::take(&mut row[t]);
                    if cell != Action::Error {
                        actions.push((t as u32, cell));
                    }
                }
            }
        }
        action_start.push(actions.len() as u32);
        goto_start.push(gotos.len() as u32);
        actions.shrink_to_fit();
        gotos.shrink_to_fit();

        // One conflict may surface under many lookahead terminals (an
        // eqn-style reduce/reduce pair clashes on every terminal in the
        // intersected lookahead sets). Like CUP, count it once per
        // (state, item pair), keeping the first terminal as the
        // representative conflict symbol.
        let mut seen = std::collections::HashSet::new();
        conflicts.retain(|c| seen.insert((c.state, c.reduce_prod, c.kind)));

        Tables {
            action_start,
            actions,
            goto_start,
            gotos,
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
        lookup(
            state_row(&self.actions, &self.action_start, state),
            g.tindex(term),
        )
        .unwrap_or(Action::Error)
    }

    /// The goto target for `state` on nonterminal `nt`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `nt` is a terminal.
    pub fn goto(&self, g: &Grammar, state: StateId, nt: SymbolId) -> Option<StateId> {
        lookup(
            state_row(&self.gotos, &self.goto_start, state),
            g.ntindex(nt),
        )
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

    /// Resident bytes: the sparse action and goto rows with their
    /// per-state offsets, plus the conflict and resolution lists.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of_val(self.action_start.as_slice())
            + std::mem::size_of_val(self.actions.as_slice())
            + std::mem::size_of_val(self.goto_start.as_slice())
            + std::mem::size_of_val(self.gotos.as_slice())
            + std::mem::size_of_val(self.conflicts.as_slice())
            + std::mem::size_of_val(self.resolutions.as_slice())
    }
}

/// State `state`'s slice of a row-packed table.
fn state_row<'a, T>(entries: &'a [(u32, T)], start: &[u32], state: StateId) -> &'a [(u32, T)] {
    let s = state.index();
    &entries[start[s] as usize..start[s + 1] as usize]
}

/// The value at dense index `key` in a sorted row, if present.
fn lookup<T: Copy>(row: &[(u32, T)], key: usize) -> Option<T> {
    row.binary_search_by_key(&(key as u32), |&(k, _)| k)
        .ok()
        .map(|i| row[i].1)
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
