//! The built-in lint passes.
//!
//! Each pass is a small pure function over the engine's grammar, analyses
//! and tables; the only exception is the conflict-masking pass, which
//! replays silenced conflicts through the engine's deterministic,
//! node-budgeted unifying search (reusing its memoized spines).

use std::collections::{HashMap, HashSet};

use lalrcex_core::{render_chain_step, ChainStep, Classification, Engine, ResolutionProbe};
use lalrcex_grammar::{Grammar, ProdId, SymbolId};

use crate::{Diagnostic, LintCode, Pass, Related, Severity, Span};

/// Every built-in pass, in code order.
pub static PASSES: [Pass; 11] = [
    Pass {
        code: LintCode {
            id: "L001",
            name: "unreachable-nonterminal",
        },
        description: "nonterminal unreachable from the start symbol",
        run: unreachable,
    },
    Pass {
        code: LintCode {
            id: "L002",
            name: "unproductive-nonterminal",
        },
        description: "nonterminal cannot derive any terminal string",
        run: unproductive,
    },
    Pass {
        code: LintCode {
            id: "L003",
            name: "unused-terminal",
        },
        description: "declared terminal never used in any production",
        run: unused_terminal,
    },
    Pass {
        code: LintCode {
            id: "L004",
            name: "duplicate-production",
        },
        description: "identical production appears more than once",
        run: duplicate_production,
    },
    Pass {
        code: LintCode {
            id: "L005",
            name: "cyclic-nonterminal",
        },
        description: "nonterminal derives itself (A =>+ A)",
        run: cyclic_nonterminal,
    },
    Pass {
        code: LintCode {
            id: "L006",
            name: "hidden-left-recursion",
        },
        description: "left recursion behind a nullable prefix",
        run: hidden_left_recursion,
    },
    Pass {
        code: LintCode {
            id: "L007",
            name: "nullable-repetition",
        },
        description: "repeated nullable symbol makes derivations interchangeable",
        run: nullable_repetition,
    },
    Pass {
        code: LintCode {
            id: "L008",
            name: "unused-precedence",
        },
        description: "declared precedence never resolves a conflict",
        run: unused_precedence,
    },
    Pass {
        code: LintCode {
            id: "L009",
            name: "conflict-masking-resolution",
        },
        description: "precedence resolution silences a provable ambiguity",
        run: conflict_masking,
    },
    Pass {
        code: LintCode {
            id: "L010",
            name: "lalr-merge-artifact",
        },
        description: "conflict exists only because LALR merged distinguishable LR(1) states",
        run: merge_artifact,
    },
    Pass {
        code: LintCode {
            id: "L011",
            name: "conflict-provenance",
        },
        description: "lookahead provenance attached to an unresolved conflict",
        run: conflict_provenance,
    },
];

fn sym_span(g: &Grammar, sym: SymbolId) -> Option<Span> {
    g.decl_line(sym).map(|line| Span { line })
}

fn prod_span(g: &Grammar, pid: ProdId) -> Option<Span> {
    g.prod(pid).line().map(|line| Span { line })
}

/// `L001` — nonterminals no sentential form of the start symbol contains.
fn unreachable(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    for i in 0..g.nonterminal_count() {
        let nt = g.nonterminal(i);
        if nt == g.accept() || engine.analysis().reachable(nt) {
            continue;
        }
        out.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: format!(
                "nonterminal `{}` is unreachable from the start symbol `{}`",
                g.display_name(nt),
                g.display_name(g.start()),
            ),
            span: sym_span(g, nt),
            related: Vec::new(),
        });
    }
}

/// `L002` — nonterminals that derive no terminal string at all.
fn unproductive(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    for i in 0..g.nonterminal_count() {
        let nt = g.nonterminal(i);
        if nt == g.accept() || engine.analysis().productive(nt) {
            continue;
        }
        out.push(Diagnostic {
            code,
            severity: Severity::Error,
            message: format!(
                "nonterminal `{}` cannot derive any terminal string (every production loops)",
                g.display_name(nt),
            ),
            span: sym_span(g, nt),
            related: Vec::new(),
        });
    }
}

/// `L003` — declared terminals that appear in no right-hand side.
fn unused_terminal(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let mut used = vec![false; g.terminal_count()];
    for p in g.productions() {
        for &s in p.rhs() {
            if g.is_terminal(s) {
                used[g.tindex(s)] = true;
            }
        }
    }
    for (t, &u) in used.iter().enumerate() {
        let sym = g.terminal(t);
        if u || sym == SymbolId::EOF {
            continue;
        }
        out.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: format!(
                "terminal `{}` is declared but never used in any production",
                g.display_name(sym),
            ),
            span: sym_span(g, sym),
            related: Vec::new(),
        });
    }
}

/// `L004` — textually identical productions (a guaranteed reduce/reduce
/// conflict wherever the rule is reducible).
fn duplicate_production(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let mut first: HashMap<(SymbolId, &[SymbolId]), ProdId> = HashMap::new();
    for pid in g.prod_ids().skip(1) {
        let p = g.prod(pid);
        match first.entry((p.lhs(), p.rhs())) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(pid);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let orig = *e.get();
                out.push(Diagnostic {
                    code,
                    severity: Severity::Warning,
                    message: format!(
                        "duplicate production `{}` (guaranteed reduce/reduce ambiguity)",
                        g.format_prod(pid),
                    ),
                    span: prod_span(g, pid),
                    related: vec![Related {
                        message: "first defined here".to_owned(),
                        span: prod_span(g, orig),
                    }],
                });
            }
        }
    }
}

/// One reachability row (`Vec<bool>`) per nonterminal.
type ReachRows = Vec<Vec<bool>>;
/// Witness production per direct `A ⇒ B` edge, keyed by (from, to).
type EdgeWitness = HashMap<(usize, usize), ProdId>;

/// The transitive closure of a nonterminal relation given as one edge
/// list per nonterminal: a depth-first search from every nonterminal (n is
/// at most a few hundred).
fn closure(edges: &[Vec<usize>]) -> ReachRows {
    let mut reach = vec![vec![false; edges.len()]; edges.len()];
    for (row, start) in reach.iter_mut().zip(edges) {
        let mut stack = start.clone();
        while let Some(x) = stack.pop() {
            if !row[x] {
                row[x] = true;
                stack.extend_from_slice(&edges[x]);
            }
        }
    }
    reach
}

/// The ε-stepping nonterminal relation: `A ⇒ B` when some production
/// `A -> α B β` has every symbol of `α β` nullable. Returned as one
/// reachability bitset (Vec<bool> row) per nonterminal, with a witness
/// production per direct edge.
fn derives_closure(engine: &Engine<'_>) -> (ReachRows, EdgeWitness) {
    let g = engine.grammar();
    let a = engine.analysis();
    let n = g.nonterminal_count();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut witness: HashMap<(usize, usize), ProdId> = HashMap::new();
    for pid in g.prod_ids().skip(1) {
        let p = g.prod(pid);
        let lhs = g.ntindex(p.lhs());
        for (i, &s) in p.rhs().iter().enumerate() {
            if !g.is_nonterminal(s) {
                continue;
            }
            let others_nullable = p
                .rhs()
                .iter()
                .enumerate()
                .all(|(j, &r)| j == i || a.nullable(r));
            if others_nullable {
                let to = g.ntindex(s);
                witness.entry((lhs, to)).or_insert(pid);
                edges[lhs].push(to);
            }
        }
    }
    (closure(&edges), witness)
}

/// `L005` — `A ⇒+ A`: the nonterminal derives itself, so every sentence it
/// yields has unboundedly many parse trees (when reachable and productive).
fn cyclic_nonterminal(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let a = engine.analysis();
    let (reach, witness) = derives_closure(engine);
    for (i, row) in reach.iter().enumerate() {
        if !row[i] {
            continue;
        }
        let nt = g.nonterminal(i);
        let live = a.reachable(nt) && a.productive(nt);
        let related = witness
            .iter()
            .filter(|((from, to), _)| *from == i && (reach[*to][i] || *to == i))
            .map(|(_, &pid)| pid)
            .min() // deterministic witness
            .map(|pid| Related {
                message: format!("cycle steps through `{}`", g.format_prod(pid)),
                span: prod_span(g, pid),
            })
            .into_iter()
            .collect();
        out.push(Diagnostic {
            code,
            severity: if live {
                Severity::Error
            } else {
                Severity::Warning
            },
            message: format!(
                "nonterminal `{nt}` derives itself ({nt} =>+ {nt}){}",
                if live {
                    ": every sentence it yields has infinitely many parses"
                } else {
                    ""
                },
                nt = g.display_name(nt),
            ),
            span: sym_span(g, nt),
            related,
        });
    }
}

/// The nullable-left-corner relation: `X ⇒ δ Y …` with `δ ⇒* ε`.
fn left_corner_closure(engine: &Engine<'_>) -> ReachRows {
    let g = engine.grammar();
    let a = engine.analysis();
    let n = g.nonterminal_count();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for pid in g.prod_ids().skip(1) {
        let p = g.prod(pid);
        let lhs = g.ntindex(p.lhs());
        for &s in p.rhs() {
            if g.is_nonterminal(s) {
                edges[lhs].push(g.ntindex(s));
            }
            if !a.nullable(s) {
                break;
            }
        }
    }
    closure(&edges)
}

/// `L006` — left recursion hiding behind a nonempty nullable prefix:
/// `A -> ν X β` with `ν ⇒* ε`, `ν` nonempty, and `X ⇒*lc A`.
fn hidden_left_recursion(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let a = engine.analysis();
    let lc = left_corner_closure(engine);
    for pid in g.prod_ids().skip(1) {
        let p = g.prod(pid);
        let lhs = g.ntindex(p.lhs());
        for (i, &s) in p.rhs().iter().enumerate() {
            if i >= 1 && g.is_nonterminal(s) {
                let x = g.ntindex(s);
                if x == lhs || lc[x][lhs] {
                    out.push(Diagnostic {
                        code,
                        severity: Severity::Warning,
                        message: format!(
                            "hidden left recursion: in `{}`, the nullable prefix before \
                             `{}` lets `{}` recurse at its own left edge",
                            g.format_prod(pid),
                            g.display_name(s),
                            g.display_name(p.lhs()),
                        ),
                        span: prod_span(g, pid),
                        related: Vec::new(),
                    });
                    break;
                }
            }
            if !a.nullable(s) {
                break;
            }
        }
    }
}

/// `L007` — two occurrences of a nullable nonterminal separated only by
/// nullable symbols (the `X -> ε | X X` shape): any string one occurrence
/// derives can equally be derived by the other, with everything else ε.
fn nullable_repetition(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let a = engine.analysis();
    'prods: for pid in g.prod_ids().skip(1) {
        let p = g.prod(pid);
        let rhs = p.rhs();
        for i in 0..rhs.len() {
            let b = rhs[i];
            if !g.is_nonterminal(b) || !a.nullable(b) || a.first(b).is_empty() {
                continue;
            }
            for (gap, &other) in rhs.iter().enumerate().skip(i + 1) {
                if other == b {
                    out.push(Diagnostic {
                        code,
                        severity: Severity::Warning,
                        message: format!(
                            "nullable repetition in `{}`: `{}` occurs twice with only \
                             nullable symbols between — a string it derives can sit at \
                             either occurrence (ambiguous)",
                            g.format_prod(pid),
                            g.display_name(b),
                        ),
                        span: prod_span(g, pid),
                        related: Vec::new(),
                    });
                    continue 'prods;
                }
                if !a.nullable(rhs[gap]) {
                    break;
                }
            }
        }
    }
}

/// `L008` — precedence/associativity declarations that never tie-break a
/// conflict (bison's "useless precedence" warning).
fn unused_precedence(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let mut used = vec![false; g.terminal_count()];
    for r in engine.tables().resolutions() {
        used[g.tindex(r.terminal)] = true;
        // Credit the terminal the reduce production inherited its
        // precedence from (the last terminal of its right-hand side);
        // for explicit `%prec` rules the source terminal is not stored,
        // so every terminal sharing the exact level/assoc is credited —
        // over-approximating "used" avoids false positives.
        let p = g.prod(r.reduce_prod);
        let Some(pp) = p.precedence() else { continue };
        let last_term = p.rhs().iter().rev().copied().find(|&s| g.is_terminal(s));
        match last_term {
            Some(t) if g.terminal_prec(t) == Some(pp) => used[g.tindex(t)] = true,
            _ => {
                for (ti, slot) in used.iter_mut().enumerate() {
                    if g.terminal_prec(g.terminal(ti)) == Some(pp) {
                        *slot = true;
                    }
                }
            }
        }
    }
    for (ti, &was_used) in used.iter().enumerate() {
        let sym = g.terminal(ti);
        if g.terminal_prec(sym).is_none() || was_used {
            continue;
        }
        out.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: format!(
                "precedence/associativity declared for `{}` never resolves a conflict",
                g.display_name(sym),
            ),
            span: sym_span(g, sym),
            related: Vec::new(),
        });
    }
}

/// Configuration cap of each conflict-masking probe. The probe's §5 search
/// has no clock, so this cap alone bounds it, and lint output is
/// byte-identical across runs and machines. It finds every masked
/// ambiguity in the Table 1 corpus with plenty of headroom.
const MASKING_MAX_CONFIGS: usize = 1 << 16;

/// Masking probes per grammar: one representative resolution is probed per
/// silenced reduce production, and this bounds the worst case.
const MASKING_MAX_PROBES: usize = 256;

/// `L009` — precedence resolutions that silenced a conflict whose
/// counterexample search proves genuine ambiguity. One representative
/// resolution is probed per silenced reduce production, through the
/// engine's spine memo and a deterministic node budget. The engine
/// memoizes each probe per budget, so linting a warm engine again runs
/// no search.
fn conflict_masking(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let mut seen: HashSet<ProdId> = HashSet::new();
    let mut probes = 0usize;
    for r in engine.tables().resolutions() {
        if !seen.insert(r.reduce_prod) {
            continue;
        }
        if probes >= MASKING_MAX_PROBES {
            break;
        }
        probes += 1;
        let ResolutionProbe::Ambiguous(ex) = engine.probe_resolution(r, MASKING_MAX_CONFIGS) else {
            continue;
        };
        out.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: format!(
                "precedence resolution (state #{}, shift/reduce on `{}`) silences a \
                 genuine ambiguity of `{}`: `{}` has two parses",
                r.state.index(),
                g.display_name(r.terminal),
                g.display_name(ex.nonterminal),
                ex.derivation1.flat(g),
            ),
            span: prod_span(g, r.reduce_prod),
            related: vec![Related {
                message: format!(
                    "precedence of `{}` declared here",
                    g.display_name(r.terminal)
                ),
                span: sym_span(g, r.terminal),
            }],
        });
    }
}

/// The span anchoring one provenance chain step (the production or symbol
/// declaration the step talks about).
fn step_span(g: &Grammar, step: &ChainStep) -> Option<Span> {
    match *step {
        ChainStep::Lookback { prod, .. } | ChainStep::Includes { via_prod: prod, .. } => {
            prod_span(g, prod)
        }
        ChainStep::Reads { nullable_nt, .. } => sym_span(g, nullable_nt),
        ChainStep::DirectRead { terminal, .. } => sym_span(g, terminal),
    }
}

/// `L010` — reduce/reduce conflicts that exist only because LALR merged
/// distinguishable LR(1) cores: an IELR/canonical generator (or manual
/// state splitting) fixes them; rewriting the grammar does not.
fn merge_artifact(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let Ok(prov) = engine.provenance() else {
        // A contained provenance fault degrades this pass to silence;
        // the conflicts themselves are still reported by the engine.
        return;
    };
    for p in prov
        .conflicts
        .iter()
        .filter_map(|o| o.provenance())
        .filter(|p| p.classification == Classification::MergeArtifact)
    {
        let c = &p.conflict;
        let variants = p.merge.as_ref().map_or(0, |m| m.variant_count);
        out.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: format!(
                "reduce/reduce conflict on `{}` (state #{}) is an LALR merge artifact: \
                 the state merges {} canonical LR(1) variants whose lookaheads distinguish \
                 `{}` from `{}` — splitting states fixes this, rewriting the grammar does not",
                g.display_name(c.terminal),
                c.state.index(),
                variants,
                g.format_prod(c.reduce_prod),
                g.format_prod(c.other_item(g).prod()),
            ),
            span: prod_span(g, c.reduce_prod),
            related: vec![Related {
                message: format!(
                    "competing reduction `{}` defined here",
                    g.format_prod(c.other_item(g).prod()),
                ),
                span: prod_span(g, c.other_item(g).prod()),
            }],
        });
    }
}

/// `L011` — informational provenance for every unresolved conflict: its
/// classification and the concrete chain of `lookback`/`includes`/`reads`
/// edges that carried the conflict terminal into the lookahead.
fn conflict_provenance(engine: &Engine<'_>, code: LintCode, out: &mut Vec<Diagnostic>) {
    let g = engine.grammar();
    let Ok(prov) = engine.provenance() else {
        return;
    };
    for p in prov.conflicts.iter().filter_map(|o| o.provenance()) {
        let c = &p.conflict;
        let related = p
            .chain
            .iter()
            .map(|step| Related {
                message: render_chain_step(g, step),
                span: step_span(g, step),
            })
            .collect();
        out.push(Diagnostic {
            code,
            severity: Severity::Info,
            message: format!(
                "conflict on `{}` (state #{}) classified {}: lookahead `{}` reaches \
                 `{}` through {} relation step{}",
                g.display_name(c.terminal),
                c.state.index(),
                p.classification.label(),
                g.display_name(c.terminal),
                g.format_prod(c.reduce_prod),
                p.chain.len(),
                if p.chain.len() == 1 { "" } else { "s" },
            ),
            span: prod_span(g, c.reduce_prod),
            related,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lint;

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = diags.iter().map(|d| d.code.name).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn unreachable_and_unproductive() {
        let g = Grammar::parse("%% s : 'x' ;\ndead : 'd' ;\nloopy : loopy 'l' ;").unwrap();
        let d = lint(&g);
        assert!(codes_of(&d).contains(&"unreachable-nonterminal"));
        assert!(codes_of(&d).contains(&"unproductive-nonterminal"));
        let dead = d
            .iter()
            .find(|x| x.message.contains("`dead`"))
            .expect("dead diagnosed");
        assert_eq!(dead.span, Some(Span { line: 2 }));
        // `loopy` is both unreachable and unproductive.
        assert_eq!(
            d.iter().filter(|x| x.message.contains("`loopy`")).count(),
            2
        );
    }

    #[test]
    fn reachable_unproductive_is_error() {
        let g = Grammar::parse("%% s : loopy ; loopy : loopy 'l' ;").unwrap();
        let d = lint(&g);
        assert!(d
            .iter()
            .any(|x| x.code.name == "unproductive-nonterminal" && x.severity == Severity::Error));
    }

    #[test]
    fn unused_terminal_has_decl_span() {
        let g = Grammar::parse("%token GHOST\n%% s : 'x' ;").unwrap();
        let d = lint(&g);
        let ghost = d
            .iter()
            .find(|x| x.code.name == "unused-terminal")
            .expect("ghost flagged");
        assert!(ghost.message.contains("GHOST"));
        assert_eq!(ghost.span, Some(Span { line: 1 }));
    }

    #[test]
    fn duplicate_production_links_first_definition() {
        let g = Grammar::parse("%%\ns : a\n  | a\n  ;\na : 'x' ;").unwrap();
        let d = lint(&g);
        let dup = d
            .iter()
            .find(|x| x.code.name == "duplicate-production")
            .expect("duplicate flagged");
        assert_eq!(dup.span, Some(Span { line: 3 }));
        assert_eq!(dup.related.len(), 1);
        assert_eq!(dup.related[0].span, Some(Span { line: 2 }));
    }

    #[test]
    fn unit_cycle_is_error_when_live() {
        let g = Grammar::parse("%% s : a ; a : b | 'x' ; b : a ;").unwrap();
        let d = lint(&g);
        let cyc: Vec<_> = d
            .iter()
            .filter(|x| x.code.name == "cyclic-nonterminal")
            .collect();
        assert_eq!(cyc.len(), 2, "both a and b cycle: {d:?}");
        assert!(cyc.iter().all(|x| x.severity == Severity::Error));
        assert!(cyc[0].related[0].message.contains("cycle steps through"));
    }

    #[test]
    fn hidden_left_recursion_through_nullable_prefix() {
        let g = Grammar::parse("%% s : h ; opt : %empty | 'o' ; h : opt h 'z' | 'w' ;").unwrap();
        let d = lint(&g);
        assert!(
            d.iter().any(|x| x.code.name == "hidden-left-recursion"),
            "{d:?}"
        );
        // Plain left recursion must NOT be flagged.
        let g2 = Grammar::parse("%% s : s 'a' | 'a' ;").unwrap();
        assert!(lint(&g2)
            .iter()
            .all(|x| x.code.name != "hidden-left-recursion"));
    }

    #[test]
    fn hidden_left_recursion_indirect() {
        // h -> opt k …, k -> h … : recursion reaches h through k's left corner.
        let g = Grammar::parse("%% s : h ; opt : %empty | 'o' ; h : opt k 'z' | 'w' ; k : h 'q' ;")
            .unwrap();
        let d = lint(&g);
        assert!(
            d.iter().any(|x| x.code.name == "hidden-left-recursion"),
            "{d:?}"
        );
    }

    #[test]
    fn nullable_repetition_xx() {
        let g = Grammar::parse("%% x : %empty | x x | 'a' ;").unwrap();
        let d = lint(&g);
        assert!(
            d.iter().any(|x| x.code.name == "nullable-repetition"),
            "{d:?}"
        );
        // A non-nullable repetition is fine.
        let g2 = Grammar::parse("%% s : a a ; a : 'x' ;").unwrap();
        assert!(lint(&g2)
            .iter()
            .all(|x| x.code.name != "nullable-repetition"));
    }

    #[test]
    fn unused_precedence_flagged_used_precedence_not() {
        let g = Grammar::parse("%left '+'\n%left NEVER\n%% e : e '+' e | NUM 'n' NEVER ;").unwrap();
        let d = lint(&g);
        let unused: Vec<_> = d
            .iter()
            .filter(|x| x.code.name == "unused-precedence")
            .collect();
        assert_eq!(unused.len(), 1, "{d:?}");
        assert!(unused[0].message.contains("NEVER"));
        assert_eq!(unused[0].span, Some(Span { line: 2 }));
    }

    #[test]
    fn conflict_masking_flags_expression_grammar() {
        let g = Grammar::parse("%left '+'\n%%\ne : e '+' e | NUM ;").unwrap();
        let d = lint(&g);
        let mask = d
            .iter()
            .find(|x| x.code.name == "conflict-masking-resolution")
            .expect("masking flagged");
        assert!(mask.message.contains("two parses"), "{}", mask.message);
        assert_eq!(mask.span, Some(Span { line: 3 }), "points at e : e '+' e");
        assert_eq!(mask.related[0].span, Some(Span { line: 1 }));
    }

    #[test]
    fn merge_artifact_flagged_with_competing_reduction() {
        // The textbook LALR-but-not-LR(1) grammar: canonical LR(1) keeps
        // the post-'a' and post-'b' contexts apart; LALR merges them.
        let g = Grammar::parse(
            "%%\ns : 'a' x 'd' | 'b' y 'd' | 'a' y 'e' | 'b' x 'e' ;\nx : 'c' ;\ny : 'c' ;",
        )
        .unwrap();
        let d = lint(&g);
        let merge = d
            .iter()
            .find(|x| x.code.name == "lalr-merge-artifact")
            .expect("merge artifact flagged");
        assert_eq!(merge.severity, Severity::Warning);
        assert!(merge.message.contains("splitting states fixes this"));
        assert_eq!(merge.related.len(), 1);
        assert!(merge.related[0].message.contains("competing reduction"));
        // The dangling-else conflict is NOT a merge artifact.
        let g2 =
            Grammar::parse("%% s : 'if' e 'then' s 'else' s | 'if' e 'then' s | OTHER ; e : ID ;")
                .unwrap();
        assert!(lint(&g2)
            .iter()
            .all(|x| x.code.name != "lalr-merge-artifact"));
    }

    #[test]
    fn provenance_info_attached_to_every_conflict() {
        let g = Grammar::parse(
            "%%\ns : 'if' e 'then' s 'else' s | 'if' e 'then' s | OTHER ;\ne : ID ;",
        )
        .unwrap();
        let d = lint(&g);
        let prov: Vec<_> = d
            .iter()
            .filter(|x| x.code.name == "conflict-provenance")
            .collect();
        assert_eq!(prov.len(), 1, "one unresolved conflict: {d:?}");
        assert_eq!(prov[0].severity, Severity::Info);
        assert!(prov[0].message.contains("true-ambiguity-candidate"));
        assert!(
            !prov[0].related.is_empty(),
            "chain steps ride along as related spans"
        );
        assert!(prov[0]
            .related
            .last()
            .unwrap()
            .message
            .contains("shifts `else`"));
        // A conflict-free grammar gets no provenance diagnostics.
        let g2 = Grammar::parse("%% s : s 'a' | 'a' ;").unwrap();
        assert!(lint(&g2)
            .iter()
            .all(|x| x.code.name != "conflict-provenance"));
    }

    #[test]
    fn conflict_masking_silent_on_harmless_tiebreak() {
        // Figure 3 is unambiguous; resolving its conflict by (artificial)
        // precedence is a harmless tie-break — no masking diagnostic.
        let g = Grammar::parse(
            "%left 'a'\n%% S : T | S T ; T : X | Y ; X : 'a' %prec 'a' ; Y : 'a' 'a' 'b' ;",
        )
        .unwrap();
        let d = lint(&g);
        assert!(
            d.iter()
                .all(|x| x.code.name != "conflict-masking-resolution"),
            "{d:?}"
        );
    }
}
