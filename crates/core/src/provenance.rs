//! Lookahead provenance and conflict classification.
//!
//! The counterexample engine shows *that* a conflict is real; this module
//! explains *why* the offending lookahead terminal reaches the conflicted
//! state at all. It walks the DeRemer–Pennello `lookback`, `includes`
//! and `reads` edges the automaton computed its LALR(1) lookaheads from
//! and keeps ([`lalrcex_lr::Relations`]), so the explained sets are the
//! automaton's own — equal by construction, not by cross-check, and
//! nothing is recomputed. For a conflict on terminal `t`, a breadth-first
//! walk over the edges produces the shortest concrete chain of steps that
//! propagated `t` into the conflicted item's lookahead — rendered as a
//! spanned, deterministic explanation.
//!
//! On top of the relations sits a three-way classification of every
//! conflict (and every precedence-silenced resolution):
//!
//! * [`Classification::TrueAmbiguityCandidate`] — the conflict survives in
//!   canonical LR(1): splitting states cannot fix it, only rewriting the
//!   grammar (or proving it ambiguous — the §5 unifying search corroborates
//!   this classification when it finds an example). Every shift/reduce
//!   conflict is in this class: merging LR(1) states with equal cores can
//!   never introduce a shift/reduce conflict, so one present in the LALR
//!   tables was already present in canonical LR(1).
//! * [`Classification::MergeArtifact`] — a reduce/reduce conflict that
//!   exists only because LALR merged distinguishable LR(1) cores. The
//!   evidence reports the merged canonical variants: the item-sets whose
//!   lookaheads *do* distinguish the two reductions.
//! * [`Classification::PrecedenceResolved`] — the conflict was silenced by
//!   a precedence declaration before it reached the conflict table
//!   (cross-linked with lint L009, which probes whether the silencing hid
//!   a genuine ambiguity).
//!
//! The reduce/reduce check builds the canonical LR(1) state space under a
//! deterministic state budget; a grammar that exhausts it falls back to
//! the conservative `TrueAmbiguityCandidate` with
//! [`ConflictProvenance::lr1_checked`] `false`. Everything here is pure
//! precomputation over the engine's grammar, analyses and automaton: no
//! clocks are consulted, no randomness exists, and the output is
//! byte-identical at any worker count. The engine runs it under
//! containment (phase `"provenance.compute"`) with a fault-injection probe
//! of the same name.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lalrcex_grammar::{Analysis, Grammar, ProdId, SymbolId, TerminalSet};
use lalrcex_lr::{Automaton, Conflict, ConflictKind, Item, Resolution, StateId, Tables};

use crate::contain::contain;
use crate::error::EngineError;

/// Deterministic budget on canonical LR(1) states explored by the
/// merge-artifact check. Exhausting it degrades reduce/reduce conflicts to
/// the conservative [`Classification::TrueAmbiguityCandidate`] with
/// `lr1_checked = false`; it never fails the analysis.
pub const LR1_STATE_BUDGET: usize = 20_000;

/// Cap on canonical variants kept as [`MergeEvidence`] per conflict (the
/// check itself always examines every variant).
const MAX_EVIDENCE_VARIANTS: usize = 8;

/// The three-way verdict on a conflict (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Classification {
    /// The conflict survives in canonical LR(1): state splitting cannot
    /// remove it.
    TrueAmbiguityCandidate,
    /// The conflict exists only because LALR merged distinguishable LR(1)
    /// cores; splitting states (an IELR/canonical generator) fixes it
    /// without touching the grammar.
    MergeArtifact,
    /// A precedence declaration silenced the conflict before it was
    /// reported (see lint L009 for whether that hid a real ambiguity).
    PrecedenceResolved,
}

impl Classification {
    /// The stable kebab-case label used by every renderer and the JSON
    /// schema.
    pub fn label(self) -> &'static str {
        match self {
            Classification::TrueAmbiguityCandidate => "true-ambiguity-candidate",
            Classification::MergeArtifact => "merge-artifact",
            Classification::PrecedenceResolved => "precedence-resolved",
        }
    }
}

/// One step of a provenance chain — a concrete edge of the
/// DeRemer–Pennello relations that carried the conflict terminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainStep {
    /// `(conflict_state, prod) lookback (goto_state, nonterminal)`: the
    /// reduction pops back to `goto_state`, whose goto on `nonterminal`
    /// supplies the lookahead.
    Lookback {
        /// The state the reduction happens in.
        conflict_state: StateId,
        /// The production being reduced.
        prod: ProdId,
        /// The state the reduction returns to.
        goto_state: StateId,
        /// The left-hand side whose goto context is consulted.
        nonterminal: SymbolId,
    },
    /// `Follow(from) ⊇ Follow(to)` because `via_prod` is `B -> β A γ` with
    /// `γ` nullable: `A`'s context inherits `B`'s.
    Includes {
        /// Goto whose Follow receives (`(state, A)`).
        from_state: StateId,
        /// The inner nonterminal `A`.
        from_nt: SymbolId,
        /// Goto whose Follow supplies (`(state, B)`).
        to_state: StateId,
        /// The enclosing nonterminal `B`.
        to_nt: SymbolId,
        /// The production `B -> β A γ` witnessing the edge.
        via_prod: ProdId,
    },
    /// `Read(from) ⊇ Read(to)` because `goto(from_state, from_nt)` lands
    /// in `via_state`, which can read the nullable `nullable_nt`.
    Reads {
        /// Source goto state.
        from_state: StateId,
        /// Source goto nonterminal.
        from_nt: SymbolId,
        /// The state reached by the source goto (where the nullable read
        /// happens).
        via_state: StateId,
        /// The nullable nonterminal that can vanish.
        nullable_nt: SymbolId,
    },
    /// `terminal ∈ DR(state, nonterminal)`: the state reached by the goto
    /// shifts the terminal directly.
    DirectRead {
        /// Goto source state.
        state: StateId,
        /// Goto nonterminal.
        nonterminal: SymbolId,
        /// The goto target state performing the shift.
        shift_state: StateId,
        /// The terminal being shifted.
        terminal: SymbolId,
    },
}

/// One canonical LR(1) variant of a merged LALR state: the lookaheads the
/// two conflicting reductions carry there. For a merge artifact, no
/// variant has the conflict terminal in both.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergeVariant {
    /// Dense terminal indices (sorted) in the first reduction's lookahead.
    pub reduce_lookahead: Vec<usize>,
    /// Dense terminal indices (sorted) in the second reduction's lookahead.
    pub other_lookahead: Vec<usize>,
}

/// Why a reduce/reduce conflict is an LALR merge artifact: the canonical
/// LR(1) item-set variants that LALR merged into one state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergeEvidence {
    /// The LALR state that merged the variants.
    pub merged_state: StateId,
    /// Total canonical variants of this core.
    pub variant_count: usize,
    /// Up to `MAX_EVIDENCE_VARIANTS` variants, in canonical discovery
    /// order.
    pub variants: Vec<MergeVariant>,
}

/// The full provenance verdict for one conflict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConflictProvenance {
    /// The conflict being explained.
    pub conflict: Conflict,
    /// The three-way verdict.
    pub classification: Classification,
    /// Whether the canonical LR(1) check completed within its budget
    /// (`true` also for shift/reduce conflicts, where the verdict needs no
    /// exploration).
    pub lr1_checked: bool,
    /// The concrete relation edges that carried the conflict terminal into
    /// the reduce item's lookahead, ending in the direct read.
    pub chain: Vec<ChainStep>,
    /// Merge evidence — `Some` exactly for [`Classification::MergeArtifact`].
    pub merge: Option<MergeEvidence>,
}

/// A provenance slot: classified, or faulted (contained at the
/// per-conflict boundary, so the other slots are unaffected).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProvenanceOutcome {
    /// Classification succeeded.
    Classified(ConflictProvenance),
    /// The per-conflict classification faulted; the fault was contained.
    Internal(EngineError),
}

impl ProvenanceOutcome {
    /// The classification, when the slot did not fault.
    pub fn classification(&self) -> Option<Classification> {
        match self {
            ProvenanceOutcome::Classified(p) => Some(p.classification),
            ProvenanceOutcome::Internal(_) => None,
        }
    }

    /// The provenance record, when the slot did not fault.
    pub fn provenance(&self) -> Option<&ConflictProvenance> {
        match self {
            ProvenanceOutcome::Classified(p) => Some(p),
            ProvenanceOutcome::Internal(_) => None,
        }
    }
}

/// Provenance for a precedence-silenced resolution: always
/// [`Classification::PrecedenceResolved`], with the chain explaining how
/// the silenced terminal reached the reduction's lookahead.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResolutionProvenance {
    /// The silenced resolution.
    pub resolution: Resolution,
    /// Always [`Classification::PrecedenceResolved`].
    pub classification: Classification,
    /// The relation edges that carried the silenced terminal.
    pub chain: Vec<ChainStep>,
}

/// Per-grammar classification tallies (feeds `--stats` and Table 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassificationCounts {
    /// Conflicts classified [`Classification::TrueAmbiguityCandidate`].
    pub true_candidates: u64,
    /// Conflicts classified [`Classification::MergeArtifact`].
    pub merge_artifacts: u64,
    /// Silenced resolutions ([`Classification::PrecedenceResolved`]).
    pub precedence_resolved: u64,
    /// Conflict slots whose classification faulted (contained).
    pub internal: u64,
}

/// Everything the provenance analysis produced for one grammar: one slot
/// per conflict (table order), one per silenced resolution, and the
/// canonical-LR(1) exploration counters.
#[derive(Debug)]
pub struct GrammarProvenance {
    /// One outcome per [`Tables::conflicts`] slot, same order.
    pub conflicts: Vec<ProvenanceOutcome>,
    /// One record per [`Tables::resolutions`] slot, same order.
    pub resolutions: Vec<ResolutionProvenance>,
    /// Canonical LR(1) states explored by the merge check (`0` when no
    /// reduce/reduce conflict needed it).
    pub lr1_states: usize,
    /// Whether the canonical exploration hit [`LR1_STATE_BUDGET`].
    pub lr1_budget_exhausted: bool,
    /// Wall time spent (observability only — excluded from the engine's
    /// determinism guarantee, like every other duration).
    pub compute_time: Duration,
    /// Estimated resident bytes of the retained provenance data.
    bytes: usize,
}

impl GrammarProvenance {
    /// Per-grammar classification tallies.
    pub fn counts(&self) -> ClassificationCounts {
        let mut c = ClassificationCounts {
            precedence_resolved: self.resolutions.len() as u64,
            ..ClassificationCounts::default()
        };
        for o in &self.conflicts {
            match o.classification() {
                Some(Classification::TrueAmbiguityCandidate) => c.true_candidates += 1,
                Some(Classification::MergeArtifact) => c.merge_artifacts += 1,
                Some(Classification::PrecedenceResolved) => c.precedence_resolved += 1,
                None => c.internal += 1,
            }
        }
        c
    }

    /// Estimated resident bytes (feeds [`crate::Engine::estimated_bytes`]
    /// so the engine cache's byte budget sees the new tables).
    pub fn estimated_bytes(&self) -> usize {
        self.bytes
    }
}

// ---------------------------------------------------------------------------
// Provenance chains over the automaton's relations.
// ---------------------------------------------------------------------------

/// The shortest chain of relation edges that carried dense terminal
/// `tindex` into the lookahead of reduction `(q, prod)` — `lookback`, then
/// `includes*`, then `reads*`, ending in the direct read. Empty when the
/// terminal is not in that lookahead (callers treat that as "no chain").
fn chain(g: &Grammar, auto: &Automaton, q: StateId, prod: ProdId, tindex: usize) -> Vec<ChainStep> {
    let rel = auto.relations();
    let Some(start) = rel
        .lookback(q, prod)
        .find(|&row| auto.follow(row).contains(tindex))
    else {
        return Vec::new();
    };
    let terminal = g.terminal(tindex);

    // BFS over the kept edges, in two modes: `Follow` may take `includes`
    // or `reads` edges; once a `reads` edge is taken only further `reads`
    // edges are valid. Edge guards (`Follow` contains the terminal) keep
    // the walk on rows that can still carry it; a row whose `Read` lacks
    // it is a dead end the guard admits, and never a goal, so the chain
    // found is the shortest one either way. Expansion order is
    // deterministic (row order).
    const MODE_FOLLOW: usize = 0;
    const MODE_READ: usize = 1;
    let n = rel.goto_count();
    let mut parent: Vec<Option<(usize, ChainStep)>> = vec![None; 2 * n];
    let mut queue = std::collections::VecDeque::new();
    let enc = |mode: usize, row: usize| mode * n + row;
    queue.push_back(enc(MODE_FOLLOW, start));
    let mut goal: Option<usize> = None;
    let mut seen = vec![false; 2 * n];
    seen[enc(MODE_FOLLOW, start)] = true;

    while let Some(node) = queue.pop_front() {
        let (mode, row) = (node / n, node % n);
        let (p, a) = rel.goto(row);
        let target = auto.state(p).transition(a);
        if target.is_some_and(|r| auto.state(r).transition(terminal).is_some()) {
            goal = Some(node);
            break;
        }
        for j in rel.reads(row) {
            let next = enc(MODE_READ, j);
            if !seen[next] && auto.follow(j).contains(tindex) {
                seen[next] = true;
                parent[next] = Some((
                    node,
                    ChainStep::Reads {
                        from_state: p,
                        from_nt: a,
                        via_state: target.unwrap_or(p),
                        nullable_nt: rel.goto(j).1,
                    },
                ));
                queue.push_back(next);
            }
        }
        if mode == MODE_FOLLOW {
            for (j, via_prod) in rel.includes(row) {
                let next = enc(MODE_FOLLOW, j);
                if !seen[next] && auto.follow(j).contains(tindex) {
                    seen[next] = true;
                    let (to_state, to_nt) = rel.goto(j);
                    parent[next] = Some((
                        node,
                        ChainStep::Includes {
                            from_state: p,
                            from_nt: a,
                            to_state,
                            to_nt,
                            via_prod,
                        },
                    ));
                    queue.push_back(next);
                }
            }
        }
    }

    let Some(goal) = goal else {
        // Unreachable for a terminal the closure placed in Follow, but
        // degrade to "no chain" rather than trusting that invariant.
        return Vec::new();
    };

    let (gp, ga) = rel.goto(goal % n);
    let mut steps = vec![ChainStep::DirectRead {
        state: gp,
        nonterminal: ga,
        shift_state: auto.state(gp).transition(ga).unwrap_or(gp),
        terminal,
    }];
    let mut cur = goal;
    while let Some((prev, step)) = parent[cur] {
        steps.push(step);
        cur = prev;
    }
    let (sp, sa) = rel.goto(start);
    steps.push(ChainStep::Lookback {
        conflict_state: q,
        prod,
        goto_state: sp,
        nonterminal: sa,
    });
    steps.reverse();
    steps
}

// ---------------------------------------------------------------------------
// Canonical LR(1) merge-artifact check.
// ---------------------------------------------------------------------------

/// Canonical LR(1) closure of `kernel` (items with lookahead sets),
/// returned sorted by item: `[A -> α · B β, L]` adds `[B -> · γ, FIRST(β L)]`
/// for every production of `B`, closed by a worklist.
fn lr1_closure(
    g: &Grammar,
    analysis: &Analysis,
    kernel: &[(Item, TerminalSet)],
) -> Vec<(Item, TerminalSet)> {
    let mut items: Vec<(Item, TerminalSet)> = kernel.to_vec();
    let mut pos: HashMap<Item, usize> = items.iter().enumerate().map(|(i, e)| (e.0, i)).collect();
    let mut work: Vec<usize> = (0..items.len()).collect();
    while let Some(i) = work.pop() {
        let it = items[i].0;
        let Some(next) = it.next_symbol(g).filter(|&s| g.is_nonterminal(s)) else {
            continue;
        };
        let add = analysis.first_of_seq(g, &it.tail(g)[1..], &items[i].1);
        for &pid in g.prods_of(next) {
            let start = Item::start(pid);
            let j = *pos.entry(start).or_insert_with(|| {
                work.push(items.len());
                items.push((start, TerminalSet::empty(g.terminal_count())));
                items.len() - 1
            });
            if items[j].1.union_with(&add) {
                work.push(j);
            }
        }
    }
    items.sort_by_key(|&(it, _)| it);
    items
}

/// The reduce items (item, lookahead) of one canonical variant of an
/// interesting core — all the merge check needs per variant.
type VariantReduces = Vec<(Item, TerminalSet)>;

/// What the canonical LR(1) exploration produced.
struct Lr1Exploration {
    /// Canonical variants (their reduce items + lookaheads) keyed by the
    /// interesting core they merge into, in discovery order.
    variants: HashMap<Vec<Item>, Vec<VariantReduces>>,
    /// Canonical states explored.
    states: usize,
    /// Whether the budget stopped the exploration (variants incomplete).
    exhausted: bool,
}

/// Explores the canonical LR(1) state space breadth-first under
/// [`LR1_STATE_BUDGET`], collecting the reduce-item lookaheads of every
/// canonical state whose LR(0) core is in `interesting`.
fn explore_lr1(
    g: &Grammar,
    analysis: &Analysis,
    interesting: &[Vec<Item>],
    budget: usize,
) -> Lr1Exploration {
    let nterm = g.terminal_count();
    let mut variants: HashMap<Vec<Item>, Vec<VariantReduces>> = interesting
        .iter()
        .map(|core| (core.clone(), Vec::new()))
        .collect();

    let mut seen: HashMap<Vec<(Item, TerminalSet)>, ()> = HashMap::new();
    let mut queue: std::collections::VecDeque<Vec<(Item, TerminalSet)>> =
        std::collections::VecDeque::new();
    let start_kernel = vec![(
        Item::start(g.accept_prod()),
        TerminalSet::singleton(nterm, g.tindex(SymbolId::EOF)),
    )];
    seen.insert(start_kernel.clone(), ());
    queue.push_back(start_kernel);
    let mut states = 0usize;
    let mut exhausted = false;

    while let Some(kernel) = queue.pop_front() {
        if states >= budget {
            exhausted = true;
            break;
        }
        states += 1;
        let closure = lr1_closure(g, analysis, &kernel);

        // Record this variant if its LR(0) core is interesting.
        let mut core: Vec<Item> = closure
            .iter()
            .map(|&(it, _)| it)
            .filter(|it| it.dot() > 0 || it.prod() == g.accept_prod())
            .collect();
        core.sort_unstable();
        if let Some(slot) = variants.get_mut(&core) {
            slot.push(
                closure
                    .iter()
                    .filter(|(it, _)| it.is_reduce(g))
                    .cloned()
                    .collect(),
            );
        }

        // Successors, grouped by next symbol in sorted-symbol order.
        let mut by_symbol: Vec<(SymbolId, Vec<(Item, TerminalSet)>)> = Vec::new();
        for (it, la) in &closure {
            let Some(next) = it.next_symbol(g) else {
                continue;
            };
            let adv = (it.advance(g), la.clone());
            match by_symbol.iter_mut().find(|(s, _)| *s == next) {
                Some((_, v)) => v.push(adv),
                None => by_symbol.push((next, vec![adv])),
            }
        }
        by_symbol.sort_by_key(|&(s, _)| s);
        for (_, mut kernel) in by_symbol {
            kernel.sort_by_key(|a| a.0);
            // Merge equal items' lookaheads.
            let mut merged: Vec<(Item, TerminalSet)> = Vec::with_capacity(kernel.len());
            for (it, la) in kernel {
                match merged.last_mut() {
                    Some((last, acc)) if *last == it => {
                        acc.union_with(&la);
                    }
                    _ => merged.push((it, la)),
                }
            }
            if !seen.contains_key(&merged) {
                seen.insert(merged.clone(), ());
                queue.push_back(merged);
            }
        }
    }

    Lr1Exploration {
        variants,
        states,
        exhausted,
    }
}

/// The sorted LR(0) core (kernel items) of an LALR state.
fn lalr_core(auto: &Automaton, q: StateId) -> Vec<Item> {
    let st = auto.state(q);
    let mut core: Vec<Item> = st.items()[..st.kernel_len()].to_vec();
    core.sort_unstable();
    core
}

// ---------------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------------

/// Classifies one conflict against the (already explored) canonical
/// variants of its core.
fn classify_conflict(
    g: &Grammar,
    auto: &Automaton,
    lr1: Option<&Lr1Exploration>,
    conflict: &Conflict,
) -> ConflictProvenance {
    let tindex = g.tindex(conflict.terminal);
    let chain = chain(g, auto, conflict.state, conflict.reduce_prod, tindex);

    let (classification, lr1_checked, merge) = match conflict.kind {
        // Merging equal-core LR(1) states never introduces a shift/reduce
        // conflict (the shift is core-determined and the reduce lookahead
        // is a union over the merged variants, one of which already
        // carried the terminal alongside the same shift), so a
        // shift/reduce conflict in the LALR tables exists in canonical
        // LR(1) too.
        ConflictKind::ShiftReduce { .. } => (Classification::TrueAmbiguityCandidate, true, None),
        ConflictKind::ReduceReduce { other_prod } => {
            let core = lalr_core(auto, conflict.state);
            let reduce_item = conflict.reduce_item(g);
            let other_item = Item::new(other_prod, g.prod(other_prod).rhs().len());
            let variants = lr1
                .filter(|e| !e.exhausted)
                .and_then(|e| e.variants.get(&core));
            match variants {
                Some(vs) => {
                    let la_of = |v: &VariantReduces, item: Item| -> Option<TerminalSet> {
                        v.iter()
                            .find(|&&(it, _)| it == item)
                            .map(|(_, la)| la.clone())
                    };
                    let survives = vs.iter().any(|v| {
                        matches!(
                            (la_of(v, reduce_item), la_of(v, other_item)),
                            (Some(a), Some(b)) if a.contains(tindex) && b.contains(tindex)
                        )
                    });
                    if survives {
                        (Classification::TrueAmbiguityCandidate, true, None)
                    } else {
                        let evidence: Vec<MergeVariant> = vs
                            .iter()
                            .take(MAX_EVIDENCE_VARIANTS)
                            .map(|v| MergeVariant {
                                reduce_lookahead: la_of(v, reduce_item)
                                    .map(|s| s.iter().collect())
                                    .unwrap_or_default(),
                                other_lookahead: la_of(v, other_item)
                                    .map(|s| s.iter().collect())
                                    .unwrap_or_default(),
                            })
                            .collect();
                        (
                            Classification::MergeArtifact,
                            true,
                            Some(MergeEvidence {
                                merged_state: conflict.state,
                                variant_count: vs.len(),
                                variants: evidence,
                            }),
                        )
                    }
                }
                // Budget exhausted (or exploration unavailable): the
                // conservative verdict — splitting is not *proven* to help.
                None => (Classification::TrueAmbiguityCandidate, false, None),
            }
        }
    };

    ConflictProvenance {
        conflict: *conflict,
        classification,
        lr1_checked,
        chain,
        merge,
    }
}

/// Runs the full provenance analysis for a grammar: explores canonical
/// LR(1) when a reduce/reduce conflict needs the merge check, and
/// classifies every conflict and resolution, walking the automaton's
/// relation edges for the chains.
///
/// Each conflict slot is classified inside its own containment boundary
/// (phase `"provenance.compute"`, probe of the same name, scoped by the
/// slot index like the engine's per-conflict fan-out), so a fault in one
/// slot leaves every other slot byte-identical.
pub(crate) fn compute(g: &Grammar, auto: &Automaton, tables: &Tables) -> GrammarProvenance {
    let started = Instant::now();

    let conflicts = tables.conflicts();
    let rr_cores: Vec<Vec<Item>> = {
        let mut cores: Vec<Vec<Item>> = conflicts
            .iter()
            .filter(|c| matches!(c.kind, ConflictKind::ReduceReduce { .. }))
            .map(|c| lalr_core(auto, c.state))
            .collect();
        cores.sort();
        cores.dedup();
        cores
    };
    let lr1 = if rr_cores.is_empty() {
        None
    } else {
        Some(explore_lr1(g, auto.analysis(), &rr_cores, LR1_STATE_BUDGET))
    };

    let mut slots: Vec<ProvenanceOutcome> = Vec::with_capacity(conflicts.len());
    for (i, c) in conflicts.iter().enumerate() {
        let outcome = crate::faultpoint::with_scope(i as u64, || {
            contain("provenance.compute", || {
                crate::fail_point!("provenance.compute");
                classify_conflict(g, auto, lr1.as_ref(), c)
            })
        });
        slots.push(match outcome {
            Ok(p) => ProvenanceOutcome::Classified(p),
            Err(e) => ProvenanceOutcome::Internal(e),
        });
    }

    let resolutions: Vec<ResolutionProvenance> = tables
        .resolutions()
        .iter()
        .map(|r| ResolutionProvenance {
            resolution: *r,
            classification: Classification::PrecedenceResolved,
            chain: chain(g, auto, r.state, r.reduce_prod, g.tindex(r.terminal)),
        })
        .collect();

    let bytes = slots
        .iter()
        .map(|s| {
            64 + s.provenance().map_or(0, |p| {
                p.chain.len() * std::mem::size_of::<ChainStep>()
                    + p.merge.as_ref().map_or(0, |m| {
                        m.variants
                            .iter()
                            .map(|v| 32 + (v.reduce_lookahead.len() + v.other_lookahead.len()) * 8)
                            .sum::<usize>()
                    })
            })
        })
        .sum::<usize>()
        + resolutions
            .iter()
            .map(|r| 64 + r.chain.len() * std::mem::size_of::<ChainStep>())
            .sum::<usize>();

    GrammarProvenance {
        conflicts: slots,
        resolutions,
        lr1_states: lr1.as_ref().map_or(0, |e| e.states),
        lr1_budget_exhausted: lr1.as_ref().is_some_and(|e| e.exhausted),
        compute_time: started.elapsed(),
        bytes,
    }
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

/// A `(line N)` suffix for a production's source line, when known.
fn prod_loc(g: &Grammar, pid: ProdId) -> String {
    g.prod(pid)
        .line()
        .map_or_else(String::new, |l| format!(" (line {l})"))
}

/// A `(declared line N)` suffix for a symbol, when known.
fn sym_loc(g: &Grammar, sym: SymbolId) -> String {
    g.decl_line(sym)
        .map_or_else(String::new, |l| format!(" (declared line {l})"))
}

/// Renders one chain step as a deterministic, spanned line (no leading
/// indentation; callers prefix as needed).
pub fn render_chain_step(g: &Grammar, step: &ChainStep) -> String {
    match *step {
        ChainStep::Lookback {
            conflict_state,
            prod,
            goto_state,
            nonterminal,
        } => format!(
            "reducing `{}`{} in state {} pops back to state {}, whose goto on `{}` supplies the lookahead",
            g.format_prod(prod),
            prod_loc(g, prod),
            conflict_state.index(),
            goto_state.index(),
            g.display_name(nonterminal),
        ),
        ChainStep::Includes {
            from_state,
            from_nt,
            to_state,
            to_nt,
            via_prod,
        } => format!(
            "follow(state {}, `{}`) inherits follow(state {}, `{}`) through `{}`{} (nullable tail)",
            from_state.index(),
            g.display_name(from_nt),
            to_state.index(),
            g.display_name(to_nt),
            g.format_prod(via_prod),
            prod_loc(g, via_prod),
        ),
        ChainStep::Reads {
            from_state,
            from_nt,
            via_state,
            nullable_nt,
        } => format!(
            "after goto(state {}, `{}`), state {} can read the nullable `{}` — it can vanish, exposing what follows",
            from_state.index(),
            g.display_name(from_nt),
            via_state.index(),
            g.display_name(nullable_nt),
        ),
        ChainStep::DirectRead {
            state,
            nonterminal,
            shift_state,
            terminal,
        } => format!(
            "after goto(state {}, `{}`), state {} shifts `{}`{} directly",
            state.index(),
            g.display_name(nonterminal),
            shift_state.index(),
            g.display_name(terminal),
            sym_loc(g, terminal),
        ),
    }
}

/// Renders a full provenance record as the multi-line text block used by
/// `lalrcex explain` (deterministic; byte-identical at any worker count).
pub fn format_provenance(g: &Grammar, p: &ConflictProvenance) -> String {
    let c = &p.conflict;
    let mut out = format!(
        "Classification: {}{}\n",
        p.classification.label(),
        if p.lr1_checked {
            ""
        } else {
            " (canonical LR(1) budget exhausted; merge check skipped)"
        },
    );
    match p.classification {
        Classification::TrueAmbiguityCandidate => out.push_str(
            "  The conflict survives in canonical LR(1): splitting states cannot remove it;\n  \
             the grammar itself admits the competing parses.\n",
        ),
        Classification::MergeArtifact => out.push_str(
            "  The conflict exists only because LALR merged distinguishable LR(1) cores:\n  \
             splitting states fixes this, rewriting the grammar does not.\n",
        ),
        Classification::PrecedenceResolved => out.push_str(
            "  A precedence declaration silenced this conflict (see lint L009 for whether\n  \
             the silenced conflict hides a genuine ambiguity).\n",
        ),
    }
    if let Some(m) = &p.merge {
        out.push_str(&format!(
            "  State {} merges {} canonical variant{}:\n",
            m.merged_state.index(),
            m.variant_count,
            if m.variant_count == 1 { "" } else { "s" },
        ));
        for (i, v) in m.variants.iter().enumerate() {
            let names = |ts: &[usize]| -> String {
                ts.iter()
                    .map(|&t| g.display_name(g.terminal(t)))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "    variant {}: lookahead({}) = {{{}}}, lookahead({}) = {{{}}}\n",
                i + 1,
                crate::report::display_item_cup(g, c.reduce_item(g)),
                names(&v.reduce_lookahead),
                crate::report::display_item_cup(g, c.other_item(g)),
                names(&v.other_lookahead),
            ));
        }
    }
    if p.chain.is_empty() {
        out.push_str(&format!(
            "  (no provenance chain: `{}` is not derivable from the relation tables)\n",
            g.display_name(c.terminal),
        ));
    } else {
        out.push_str(&format!(
            "  Why `{}` is in the lookahead of {}:\n",
            g.display_name(c.terminal),
            crate::report::display_item_cup(g, c.reduce_item(g)),
        ));
        for step in &p.chain {
            out.push_str("    - ");
            out.push_str(&render_chain_step(g, step));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> Grammar {
        Grammar::parse(
            "%start stmt
             %%
             stmt : 'if' expr 'then' stmt 'else' stmt
                  | 'if' expr 'then' stmt
                  | expr '?' stmt stmt
                  | 'arr' '[' expr ']' ':=' expr
                  ;
             expr : num | expr '+' expr ;
             num  : digit | num digit ;",
        )
        .unwrap()
    }

    /// The textbook LALR-but-not-LR(1) grammar: canonical LR(1) separates
    /// the contexts after `a` and `b`; LALR merges them into one state
    /// with a reduce/reduce conflict.
    fn merge_artifact_grammar() -> Grammar {
        Grammar::parse(
            "%% s : 'a' x 'd' | 'b' y 'd' | 'a' y 'e' | 'b' x 'e' ;
             x : 'c' ;
             y : 'c' ;",
        )
        .unwrap()
    }

    /// Dense wrapper: classification outcomes for all conflicts.
    fn classify(g: &Grammar) -> GrammarProvenance {
        let auto = Automaton::build(g);
        let tables = auto.tables(g);
        compute(g, &auto, &tables)
    }

    #[test]
    fn dangling_else_chain_ends_in_direct_read_of_else() {
        let g = figure1();
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        let c = tables
            .conflicts()
            .iter()
            .find(|c| g.display_name(c.terminal) == "else")
            .expect("dangling else conflict");
        let steps = chain(&g, &auto, c.state, c.reduce_prod, g.tindex(c.terminal));
        assert!(!steps.is_empty());
        assert!(matches!(steps[0], ChainStep::Lookback { .. }));
        match steps.last().unwrap() {
            ChainStep::DirectRead { terminal, .. } => {
                assert_eq!(g.display_name(*terminal), "else");
            }
            other => panic!("chain must end in a direct read, got {other:?}"),
        }
        // The explanation renders deterministically with spans.
        let two = chain(&g, &auto, c.state, c.reduce_prod, g.tindex(c.terminal));
        assert_eq!(steps, two, "chain is deterministic");
    }

    #[test]
    fn shift_reduce_conflicts_are_true_candidates() {
        let gp = classify(&figure1());
        assert!(!gp.conflicts.is_empty());
        for o in &gp.conflicts {
            let p = o.provenance().expect("no faults");
            assert_eq!(p.classification, Classification::TrueAmbiguityCandidate);
            assert!(p.lr1_checked);
            assert!(p.merge.is_none());
            assert!(!p.chain.is_empty());
        }
        assert_eq!(gp.lr1_states, 0, "no reduce/reduce: no LR(1) exploration");
    }

    #[test]
    fn lalr_merge_is_classified_merge_artifact() {
        let g = merge_artifact_grammar();
        let gp = classify(&g);
        let rr: Vec<_> = gp
            .conflicts
            .iter()
            .filter_map(ProvenanceOutcome::provenance)
            .filter(|p| matches!(p.conflict.kind, ConflictKind::ReduceReduce { .. }))
            .collect();
        assert!(!rr.is_empty(), "grammar has a reduce/reduce conflict");
        for p in &rr {
            assert_eq!(p.classification, Classification::MergeArtifact);
            assert!(p.lr1_checked);
            let m = p.merge.as_ref().expect("merge evidence");
            assert_eq!(m.variant_count, 2, "two canonical contexts merged");
            let ti = g.tindex(p.conflict.terminal);
            for v in &m.variants {
                assert!(
                    !(v.reduce_lookahead.contains(&ti) && v.other_lookahead.contains(&ti)),
                    "no canonical variant carries the conflict terminal in both lookaheads"
                );
            }
            let text = format_provenance(&g, p);
            assert!(text.contains("merge-artifact"));
            assert!(text.contains("splitting states fixes this"));
        }
        assert!(gp.lr1_states > 0);
        assert!(!gp.lr1_budget_exhausted);
    }

    #[test]
    fn genuinely_ambiguous_reduce_reduce_is_true_candidate() {
        // Two nonterminals deriving the same terminal with the same
        // follow: the conflict survives any amount of state splitting.
        let g = Grammar::parse("%% s : a X | b X ; a : T ; b : T ;").unwrap();
        let gp = classify(&g);
        let p = gp.conflicts[0].provenance().expect("classified");
        assert!(matches!(p.conflict.kind, ConflictKind::ReduceReduce { .. }));
        assert_eq!(p.classification, Classification::TrueAmbiguityCandidate);
        assert!(p.lr1_checked, "LR(1) check completed and confirmed");
    }

    #[test]
    fn resolutions_are_precedence_resolved_with_chains() {
        let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
        let gp = classify(&g);
        assert!(gp.conflicts.is_empty());
        assert!(!gp.resolutions.is_empty());
        for r in &gp.resolutions {
            assert_eq!(r.classification, Classification::PrecedenceResolved);
            assert!(!r.chain.is_empty(), "silenced terminal has a chain too");
        }
        let counts = gp.counts();
        assert_eq!(counts.precedence_resolved, gp.resolutions.len() as u64);
        assert_eq!(counts.true_candidates + counts.merge_artifacts, 0);
    }

    #[test]
    fn counts_tally_by_classification() {
        let gp = classify(&merge_artifact_grammar());
        let counts = gp.counts();
        assert!(counts.merge_artifacts >= 1);
        assert_eq!(counts.internal, 0);
        assert_eq!(
            counts.true_candidates + counts.merge_artifacts,
            gp.conflicts.len() as u64
        );
    }

    #[test]
    fn compute_is_deterministic() {
        for text in [
            "%% s : 'a' x 'd' | 'b' y 'd' | 'a' y 'e' | 'b' x 'e' ; x : 'c' ; y : 'c' ;",
            "%% e : e '+' e | NUM ;",
        ] {
            let g = Grammar::parse(text).unwrap();
            let a = classify(&g);
            let b = classify(&g);
            assert_eq!(a.conflicts, b.conflicts, "{text}");
            assert_eq!(a.resolutions, b.resolutions, "{text}");
            let ga = &g;
            let rendered: Vec<String> = a
                .conflicts
                .iter()
                .filter_map(ProvenanceOutcome::provenance)
                .map(|p| format_provenance(ga, p))
                .collect();
            let rendered2: Vec<String> = b
                .conflicts
                .iter()
                .filter_map(ProvenanceOutcome::provenance)
                .map(|p| format_provenance(ga, p))
                .collect();
            assert_eq!(rendered, rendered2);
        }
    }

    #[test]
    fn estimated_bytes_are_nonzero() {
        let gp = classify(&figure1());
        assert!(gp.estimated_bytes() > 0);
    }

    #[test]
    fn tiny_budget_degrades_to_unchecked_candidate() {
        let g = merge_artifact_grammar();
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        let c = tables.conflicts()[0];
        let core = lalr_core(&auto, c.state);
        let lr1 = explore_lr1(&g, auto.analysis(), std::slice::from_ref(&core), 1);
        assert!(lr1.exhausted);
        let p = classify_conflict(&g, &auto, Some(&lr1), &c);
        assert_eq!(p.classification, Classification::TrueAmbiguityCandidate);
        assert!(!p.lr1_checked);
    }
}
