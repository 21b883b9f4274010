//! The product-parser outward search for unifying counterexamples (§5).
//!
//! Two copies of the parser are simulated in parallel, starting *at the
//! conflict* (Figure 8): one is forced to take the conflict reduction, the
//! other the conflict shift (or second reduction). Configurations hold one
//! item sequence and one partial-derivation list per parser (the lists are
//! rebuilt on demand, see below); successor configurations implement the
//! eight actions of Figure 10 — transitions, production steps, reverse
//! transitions, reverse production steps, and reductions, each on either
//! parser. The search is ordered by a cost that penalises production steps
//! and repeated items (§5.4), and terminates when both parsers have derived
//! the same nonterminal with structurally distinct derivations — a proof
//! of ambiguity.
//!
//! # Data-oriented core
//!
//! Configurations are struct-of-arrays records (see [`crate::soa`]): item
//! sequences are persistent double-ended sequences ([`Seq`]) sharing
//! immutable cons cells in arena storage, pending lookahead constraints
//! are interned set ids, the cost queue is a radix-by-cost bucket ring
//! with *explicit* FIFO order within a cost, and the visited set is an
//! open-addressing table of one-word slots that never copies keys. The
//! §5.4 duplicate checks read the per-cell membership signatures first,
//! and only walk cells (through a memo of earlier walks) when a signature
//! cannot rule the item out.
//!
//! The partial-derivation lists are not stored. Dedup never reads them,
//! and only a configuration that passes the cheap completion checks needs
//! them, a couple of times per search. Each record keeps a parent link and
//! a one-byte [`Edit`] instead; [`Search::replay`] walks the chain back to
//! the initial configuration and replays the edits into two lists of
//! [`Derivation`] trees.
//!
//! Every Figure 10 action edits a sequence at one end, so a successor
//! costs O(edit): a couple of cons cells plus an incremental update of the
//! positional sequence hash (appends multiply, prepends add at weight
//! `SEQ_X^len`, reduction pops divide — see [`crate::soa::SEQ_X`]). This
//! matters beyond constant factors: the former representations (owned
//! vectors per configuration, then flat span copies) were *quadratic* in
//! search depth, and the Stack Overflow grammars drive deep, narrow
//! frontiers whose item sequences grow to thousands of entries — flat
//! copies turned a 200k-configuration search into gigabytes of memcpy and
//! page faults.
//!
//! The frontier is processed one cost *bucket* at a time: every action
//! costs at least 1, so the current bucket can never receive new entries
//! while it is being expanded. The drained bucket is first walked in FIFO
//! order (cancel polls and completion checks); then its configurations are
//! expanded in that same order, `COMMIT_CHUNK` (16) at a time. For each
//! chunk the generators push every successor, with its sequence lengths
//! and dedup hash, onto a candidate list; one pass loads each candidate's
//! home slot in the visited set, so these random loads overlap instead of
//! each waiting behind the generator's own; then the candidates are
//! deduped in generation order and, only if new, committed to the arenas.
//! Deferring the commit changes nothing: a bucket's successors read only
//! configurations stored before the bucket began and immutable cells.
//! Cells are allocated only at the commit, so cell ids — and with them the
//! reported examples — follow the canonical generation order. One search
//! runs on one thread; parallelism is across conflicts
//! ([`crate::Engine::analyze_all`]).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use lalrcex_grammar::{Derivation, Grammar, SymbolId, SymbolKind, TerminalSet};
use lalrcex_lr::{Automaton, Conflict, ConflictKind, StateId};

use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::soa::{
    itemh, mix, wpow, BucketQueue, CellArena, FactMap, Seq, SetInterner, Visited, FACT_VALUE_LIMIT,
    NO_PENDING, SEQ_X, SEQ_XINV,
};
use crate::state_graph::{NodeSet, StateGraph, StateItemId};
use crate::stats::SearchMetrics;

/// Cost of a joint transition.
const TRANSITION_COST: u32 = 1;
/// Cost of a production step (penalised relative to transitions, §5.4).
const PRODUCTION_COST: u32 = 2;
/// Cost of a reverse transition (prepends to both parsers).
const REVERSE_TRANSITION_COST: u32 = 1;
/// Cost of a reverse production step.
const REVERSE_PRODUCTION_COST: u32 = 2;
/// Cost of a reduction.
const REDUCE_COST: u32 = 1;
/// Extra cost when a production step revisits a state-item already in the
/// sequence — §5.4: "the search algorithm must postpone such an expansion
/// until other configurations have been considered".
const DUPLICATE_PENALTY: u32 = 8;
/// Configuration pops between polls of the cancel token and the deadline
/// (a power of two, so the check is one AND). Each poll is one relaxed
/// atomic load and one `Instant::now()`; striding keeps the clock read off
/// the per-pop hot path. The stride changes when a cutoff is noticed,
/// never the order of expansion.
const CANCEL_STRIDE: u32 = 256;

/// Configurations whose successors are generated before any of them is
/// committed; see the expand phase in [`Search::run`].
const COMMIT_CHUNK: usize = 16;

/// Tunable knobs for the unifying search.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Per-conflict time limit (the paper's implementation uses 5 s).
    pub time_limit: Duration,
    /// Disable the shortest-path restriction on reverse transitions
    /// (the paper's `-extendedsearch` flag, §6).
    pub extended: bool,
    /// Cap on the configurations one search stores — the one memory bound
    /// on a search. The search expands no further configuration once it
    /// stores more than `max_configs`, so it stores at most `max_configs`
    /// plus the successors of one configuration, and then stops with a
    /// deterministic [`SearchOutcome::TimedOut`]. At the default (2²¹) the
    /// stackovf08 and java-ext1 corpus grammars peak near 300 MB RSS with
    /// one worker; the worker count bounds how many searches are in flight
    /// at once.
    pub max_configs: usize,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            time_limit: Duration::from_secs(5),
            extended: false,
            max_configs: 1 << 21,
        }
    }
}

/// A unifying counterexample: one string, two derivations.
#[derive(Clone, Debug)]
pub struct UnifyingExample {
    /// The ambiguous nonterminal (§5.4: the innermost nonterminal whose
    /// derivations unify).
    pub nonterminal: SymbolId,
    /// Derivation taking the conflict reduction.
    pub derivation1: Derivation,
    /// Derivation taking the conflict shift (or second reduction).
    pub derivation2: Derivation,
}

impl UnifyingExample {
    /// The counterexample string (leaves of either derivation).
    pub fn sentential_form(&self) -> Vec<SymbolId> {
        self.derivation1.leaves()
    }
}

/// Result of the unifying search for one conflict.
#[derive(Clone, Debug)]
pub enum SearchOutcome {
    /// A unifying counterexample was found — the grammar is ambiguous.
    Unifying(Box<UnifyingExample>),
    /// The configuration space was exhausted without finding one (under the
    /// shortest-path restriction unless `extended` was set).
    Exhausted,
    /// A cutoff stopped the search: the per-conflict clock, the
    /// [`SearchConfig::max_configs`] cap, or a raised [`CancelToken`].
    TimedOut,
}

/// The configuration records plus their shared item cells and pending
/// sets. Cells are allocated only at initialization and when a successor
/// is committed, so everything here grows deterministically with the
/// commit sequence.
///
/// No configuration stores its derivation lists. Each one records its
/// parent and the [`Edit`] that the step from the parent made to them;
/// [`Search::replay`] rebuilds the lists from that chain for the few
/// configurations that pass the cheap completion checks.
///
/// No configuration stores its cost either: the [`BucketQueue`] holds each
/// queued index in the bucket of its cost, and the main loop passes the
/// popped bucket's cost down to the successor generators.
struct Mem {
    /// Item-sequence cons cells.
    icell: CellArena,
    /// Interned pending lookahead constraints.
    sets: SetInterner,
    // --- configuration record columns ---
    /// Bit 0: parser 0 has reduced; bit 1: parser 1 has reduced.
    flags: Vec<u8>,
    pend: Vec<[u32; 2]>,
    /// Per-parser item sequences.
    iseq: Vec<[Seq; 2]>,
    /// Cached first item per parser (only prepends change it — a
    /// reduction always keeps at least one item).
    ifirst: Vec<[u32; 2]>,
    /// Positional hash of each parser's item sequence.
    ihash: Vec<[u64; 2]>,
    /// The configuration this one was generated from (the root is its own
    /// parent).
    parent: Vec<u32>,
    /// The derivation-list edit of the step from `parent`.
    edit: Vec<Edit>,
}

impl Mem {
    fn new() -> Mem {
        Mem {
            icell: CellArena::new(),
            sets: SetInterner::new(),
            flags: Vec::new(),
            pend: Vec::new(),
            iseq: Vec::new(),
            ifirst: Vec::new(),
            ihash: Vec::new(),
            parent: Vec::new(),
            edit: Vec::new(),
        }
    }

    /// Configurations stored.
    fn len(&self) -> usize {
        self.flags.len()
    }

    /// Both sequence lengths of configuration `idx`.
    fn ilen(&self, idx: usize) -> [u32; 2] {
        [self.iseq[idx][0].len(), self.iseq[idx][1].len()]
    }
}

/// Appends item `v` to a positional sequence hash.
#[inline]
fn h_append(h: u64, v: u32) -> u64 {
    h.wrapping_mul(SEQ_X).wrapping_add(itemh(v))
}

/// Prepends item `v` to the hash of a length-`len` sequence.
#[inline]
fn h_prepend(h: u64, v: u32, len: u32) -> u64 {
    h.wrapping_add(itemh(v).wrapping_mul(wpow(SEQ_X, len as u64)))
}

/// Removes the trailing items whose values are given last-first.
fn h_pop_back(h: u64, vals: &[u32]) -> u64 {
    let mut sub = 0u64;
    let mut pw = 1u64;
    for &v in vals {
        sub = sub.wrapping_add(itemh(v).wrapping_mul(pw));
        pw = pw.wrapping_mul(SEQ_X);
    }
    h.wrapping_sub(sub)
        .wrapping_mul(wpow(SEQ_XINV, vals.len() as u64))
}

/// The dedup hash of a configuration.
fn config_hash(len: [u32; 2], flags: u8, h: [u64; 2], pend: [u32; 2]) -> u64 {
    let seed = mix(mix(mix(0x5EED, len[0] as u64), len[1] as u64), flags as u64);
    let h = mix(mix(seed, h[0]), h[1]);
    mix(mix(h, pend[0] as u64), pend[1] as u64)
}

/// How a successor's item sequence derives from its parent's.
#[derive(Clone, Copy)]
enum ItemOp {
    /// Share the parent's sequence.
    Keep,
    /// `[item] ++ parent` (reverse transition / reverse production step).
    Prepend(u32),
    /// `parent ++ [item]` (joint transition / production step).
    Append(u32),
    /// Pop the last `pops` items and append the goto item.
    Reduce { pops: u32, goto_item: u32 },
}

/// A generated successor awaiting its dedup and commit: the step from its
/// parent plus the lengths and dedup hash that follow from it, so the
/// commit pass recomputes nothing.
struct Cand {
    parent: u32,
    /// The cost it is queued at.
    cost: u32,
    flags: u8,
    edit: Edit,
    pend: [u32; 2],
    op: [ItemOp; 2],
    /// Positional hash of each parser's item sequence.
    h: [u64; 2],
    /// Sequence lengths.
    len: [u32; 2],
    /// [`config_hash`] (set by [`Search::push`]).
    hash: u64,
}

impl Cand {
    /// `[v] ++ parser p's sequence`.
    fn prepend(&mut self, p: usize, v: u32) {
        self.op[p] = ItemOp::Prepend(v);
        self.h[p] = h_prepend(self.h[p], v, self.len[p]);
        self.len[p] += 1;
    }

    /// `parser p's sequence ++ [v]`.
    fn append(&mut self, p: usize, v: u32) {
        self.op[p] = ItemOp::Append(v);
        self.h[p] = h_append(self.h[p], v);
        self.len[p] += 1;
    }

    /// Pops parser `p`'s trailing items, whose values `popped` lists
    /// last-first, and appends `goto_item`.
    fn reduce(&mut self, p: usize, popped: &[u32], goto_item: u32) {
        let pops = popped.len() as u32;
        self.op[p] = ItemOp::Reduce { pops, goto_item };
        self.h[p] = h_append(h_pop_back(self.h[p], popped), goto_item);
        self.len[p] = self.len[p] - pops + 1;
    }
}

/// What a step does to the two derivation lists. The symbol or
/// production involved is recovered from the parent's stored columns, so
/// one byte per configuration is enough.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Edit {
    /// Production and reverse production steps leave both lists alone.
    Keep,
    /// Prepend a leaf of the symbol before the dot of parser 0's first
    /// item to both lists.
    ReverseTransition,
    /// Append a leaf of the symbol after the dot of parser 0's last item
    /// to both lists.
    JointTransition,
    /// Wrap the trailing entries of parser `p`'s list in a node of the
    /// left-hand side of `p`'s last item.
    Reduce(u8),
}

#[inline]
fn si(w: u32) -> StateItemId {
    StateItemId::from_index(w as usize)
}

/// One search: the conflict-independent inputs, the arenas, the visited
/// set and the frontier.
struct Search<'a> {
    g: &'a Grammar,
    auto: &'a Automaton,
    graph: &'a StateGraph,
    /// Dense terminal index of the conflict terminal.
    t_idx: usize,
    /// Reduce/reduce conflict? (Both parsers start on reduce items.)
    rr: bool,
    /// States allowed as reverse-transition targets (`None` = extended).
    allowed: Option<NodeSet>,
    mem: Mem,
    visited: Visited,
    queue: BucketQueue,
    metrics: &'a mut SearchMetrics,
    /// The current chunk's generated successors, in generation order.
    cands: Vec<Cand>,
    /// Transient back-read item values (reduction predecessors).
    vals: Vec<u32>,
    /// Transient cell-walk scratch.
    scratch: Vec<u32>,
    /// Memoized §5.4 duplicate-check facts (cells are immutable, so facts
    /// never go stale). `None` on a graph too large for the memo's key
    /// packing; the checks then walk the cells, with the same answers.
    memo: Option<FactMap>,
}

impl<'a> Search<'a> {
    /// An empty search for `conflict`; [`Search::run`] starts it.
    fn new(
        g: &'a Grammar,
        auto: &'a Automaton,
        graph: &'a StateGraph,
        conflict: &Conflict,
        slsp_states: &[StateId],
        cfg: &SearchConfig,
        metrics: &'a mut SearchMetrics,
    ) -> Search<'a> {
        Search {
            g,
            auto,
            graph,
            t_idx: g.tindex(conflict.terminal),
            rr: matches!(conflict.kind, ConflictKind::ReduceReduce { .. }),
            allowed: if cfg.extended {
                None
            } else {
                let mut set = NodeSet::new(auto.state_count());
                for s in slsp_states {
                    set.insert(s.index());
                }
                Some(set)
            },
            mem: Mem::new(),
            visited: Visited::new(),
            queue: BucketQueue::new(),
            metrics,
            cands: Vec::new(),
            vals: Vec::new(),
            scratch: Vec::new(),
            memo: (graph.node_count() <= FACT_VALUE_LIMIT).then(FactMap::default),
        }
    }

    fn item(&self, w: u32) -> lalrcex_lr::Item {
        self.graph.item(si(w))
    }

    fn lookahead(&self, id: StateItemId) -> &'a TerminalSet {
        self.graph.lookahead(self.auto, id)
    }

    /// A successor of configuration `parent`, queued at `cost`, that
    /// starts as a copy of its parent: same flags, pending ids and
    /// positional hashes, both item sequences kept. The generator edits it
    /// and hands it to [`Search::push`].
    fn cand(&self, parent: usize, cost: u32, edit: Edit) -> Cand {
        Cand {
            parent: parent as u32,
            cost,
            flags: self.mem.flags[parent],
            edit,
            pend: self.mem.pend[parent],
            op: [ItemOp::Keep; 2],
            h: self.mem.ihash[parent],
            len: self.mem.ilen(parent),
            hash: 0,
        }
    }

    /// Adds a generated successor to the chunk's candidates, with its
    /// dedup hash computed once, here.
    fn push(&mut self, mut c: Cand) {
        c.hash = config_hash(c.len, c.flags, c.h, c.pend);
        self.cands.push(c);
    }

    /// Dedups candidate `c` against the visited set and, if it is new,
    /// commits it: allocates its item cells, stores it with its parent
    /// link and derivation-list edit, and queues it.
    fn commit(&mut self, c: &Cand) {
        let parent = c.parent as usize;
        let new_idx = self.mem.len();
        let mem = &self.mem;
        // Dedup identity: flags, pending ids, and lengths compare exactly;
        // item content compares by the two per-parser 64-bit positional
        // hashes (a 128-bit fingerprint — for a false merge one parser's
        // polynomial hash must collide at equal length, ~2^-64 per pair).
        // Debug builds verify the fingerprint against the actual cells.
        let inserted = self.visited.insert_with(c.hash, new_idx as u32, |other| {
            let o = other as usize;
            let eq = mem.flags[o] == c.flags
                && mem.pend[o] == c.pend
                && mem.ilen(o) == c.len
                && mem.ihash[o] == c.h;
            debug_assert!(
                !eq || cand_items_eq(mem, parent, c.op, o),
                "positional-hash fingerprint collision"
            );
            eq
        });
        if !inserted {
            self.metrics.deduped += 1;
            return;
        }
        let mem = &mut self.mem;
        let mut iseq = mem.iseq[parent];
        let mut ifirst = mem.ifirst[parent];
        for p in 0..2 {
            match c.op[p] {
                ItemOp::Keep => {}
                ItemOp::Prepend(v) => {
                    iseq[p] = iseq[p].prepend(&mut mem.icell, v);
                    ifirst[p] = v;
                }
                ItemOp::Append(v) => iseq[p] = iseq[p].append(&mut mem.icell, v),
                ItemOp::Reduce { pops, goto_item } => {
                    iseq[p] = iseq[p]
                        .pop_back(&mut mem.icell, pops, &mut self.scratch)
                        .append(&mut mem.icell, goto_item);
                }
            }
        }
        mem.flags.push(c.flags);
        mem.pend.push(c.pend);
        mem.iseq.push(iseq);
        mem.ifirst.push(ifirst);
        mem.ihash.push(c.h);
        mem.parent.push(c.parent);
        mem.edit.push(c.edit);
        self.queue.push(c.cost, new_idx as u32);
        self.metrics.enqueued += 1;
    }

    /// Generates all Figure 10 successors of configuration `i`, which was
    /// queued at `cost`, into the chunk's candidates.
    fn successors(&mut self, i: usize, cost: u32) {
        let red = [
            self.item(self.mem.iseq[i][0].last(&self.mem.icell))
                .is_reduce(self.g),
            self.item(self.mem.iseq[i][1].last(&self.mem.icell))
                .is_reduce(self.g),
        ];
        for (p, &is_red) in red.iter().enumerate() {
            if is_red {
                self.reduce_or_prep(i, cost, p);
            }
        }
        if !red[0] && !red[1] {
            self.forward(i, cost);
        }
    }

    fn reduce_or_prep(&mut self, i: usize, cost: u32, p: usize) {
        let m = self.mem.iseq[i][p].len() as usize;
        let it = self.item(self.mem.iseq[i][p].last(&self.mem.icell));
        let l = self.g.prod(it.prod()).rhs().len();
        if m >= l + 2 {
            self.reduce(i, cost, p);
        } else if m == l + 1 {
            // Figure 10(d): reverse production step on parser p.
            debug_assert_eq!(self.item(self.mem.ifirst[i][p]).dot(), 0);
            self.rev_prod_steps(i, cost, p);
        } else {
            // m < l+1: parser p's first item has dot > 0.
            debug_assert!(self.item(self.mem.ifirst[i][p]).dot() > 0);
            let q = 1 - p;
            if self.item(self.mem.ifirst[i][q]).dot() == 0 {
                // Figure 10(e): reverse production step on the other parser.
                self.rev_prod_steps(i, cost, q);
            } else {
                self.reverse_transitions(i, cost);
            }
        }
    }

    /// Reverse production steps prepending to parser `p` (Figure 10(d,e)).
    fn rev_prod_steps(&mut self, i: usize, cost: u32, p: usize) {
        let graph = self.graph;
        let seq = self.mem.iseq[i][p];
        for &pre in graph.reverse_production_steps(si(self.mem.ifirst[i][p])) {
            let pre = pre.index() as u32;
            let dup = seq.contains_memo(&self.mem.icell, pre, false, self.memo.as_mut());
            let cost = cost + REVERSE_PRODUCTION_COST + if dup { DUPLICATE_PENALTY } else { 0 };
            let mut c = self.cand(i, cost, Edit::Keep);
            c.prepend(p, pre);
            self.push(c);
        }
    }

    /// Figure 10(c): prepend matching predecessors to both parsers.
    fn reverse_transitions(&mut self, i: usize, cost: u32) {
        let graph = self.graph;
        let [f0, f1] = self.mem.ifirst[i];
        let flags = self.mem.flags[i];
        let cost = cost + REVERSE_TRANSITION_COST;
        for &p0 in graph.reverse_transitions(si(f0)) {
            let state = graph.state(p0);
            if let Some(allowed) = &self.allowed {
                if !allowed.contains(state.index()) {
                    continue;
                }
            }
            // §5.3: the item prepended to the first parser must keep the
            // conflict terminal viable until Stage 1 completes.
            if flags & 1 == 0 && !self.lookahead(p0).contains(self.t_idx) {
                continue;
            }
            for &p1 in graph.reverse_transitions(si(f1)) {
                if graph.state(p1) != state {
                    continue;
                }
                if self.rr && flags & 2 == 0 && !self.lookahead(p1).contains(self.t_idx) {
                    continue;
                }
                let (w0, w1) = (p0.index() as u32, p1.index() as u32);
                let mut c = self.cand(i, cost, Edit::ReverseTransition);
                c.prepend(0, w0);
                c.prepend(1, w1);
                self.push(c);
            }
        }
    }

    /// Figure 10(f): reduction on parser p (which has enough items).
    fn reduce(&mut self, i: usize, cost: u32, p: usize) {
        let seq = self.mem.iseq[i][p];
        let last_w = seq.last(&self.mem.icell);
        let prod = self.g.prod(self.item(last_w).prod());
        let l = prod.rhs().len();

        // The last `l+2` item words, last first (valid since `m >= l+2`):
        // the goto predecessor sits just before the reduced span.
        seq.read_back(
            &self.mem.icell,
            (l + 2) as u32,
            &mut self.vals,
            &mut self.scratch,
        );
        let pred = si(self.vals[l + 1]);
        debug_assert_eq!(self.graph.item(pred).next_symbol(self.g), Some(prod.lhs()));
        let Some(goto_si) = self.graph.transition(pred) else {
            return;
        };

        // Lookahead viability: intersect the pending constraint with the
        // reduce item's lookahead set.
        let la = self.lookahead(si(last_w));
        let pid = self.mem.pend[i][p];
        let new_set = if pid == NO_PENDING {
            Some(la.clone())
        } else {
            let pn = self.mem.sets.get(pid);
            let mut x = pn.clone();
            x.intersect_with(la);
            if x.is_empty() {
                return;
            }
            (&x != pn).then_some(x)
        };
        let mut c = self.cand(i, cost + REDUCE_COST, Edit::Reduce(p as u8));
        if let Some(x) = new_set {
            c.pend[p] = self.mem.sets.intern(x);
        }
        let goto_w = goto_si.index() as u32;
        c.reduce(p, &self.vals[..=l], goto_w);
        c.flags |= 1 << p;
        self.push(c);
    }

    /// Joint transitions and forward production steps (Figure 10(a), (b)).
    fn forward(&mut self, i: usize, cost: u32) {
        let (g, graph) = (self.g, self.graph);
        let pend = self.mem.pend[i];
        let seqs = self.mem.iseq[i];
        let last = [
            si(seqs[0].last(&self.mem.icell)),
            si(seqs[1].last(&self.mem.icell)),
        ];
        let next = [
            graph.item(last[0]).next_symbol(g),
            graph.item(last[1]).next_symbol(g),
        ];
        if next[0] == next[1] {
            if let (Some(sym), Some(t0), Some(t1)) = (
                next[0],
                graph.transition(last[0]),
                graph.transition(last[1]),
            ) {
                let p0 = self.pending_after(pend[0], sym);
                let p1 = self.pending_after(pend[1], sym);
                if let (Some(p0), Some(p1)) = (p0, p1) {
                    let (w0, w1) = (t0.index() as u32, t1.index() as u32);
                    let mut c = self.cand(i, cost + TRANSITION_COST, Edit::JointTransition);
                    c.pend = [p0, p1];
                    c.append(0, w0);
                    c.append(1, w1);
                    self.push(c);
                }
            }
        }
        for p in 0..2 {
            let Some(sym) = next[p] else { continue };
            if g.kind(sym) != SymbolKind::Nonterminal {
                continue;
            }
            for &tgt in graph.production_steps(last[p]) {
                let tgt = tgt.index() as u32;
                let dup = seqs[p].contains_memo(&self.mem.icell, tgt, true, self.memo.as_mut());
                let cost = cost + PRODUCTION_COST + if dup { DUPLICATE_PENALTY } else { 0 };
                let mut c = self.cand(i, cost, Edit::Keep);
                c.append(p, tgt);
                self.push(c);
            }
        }
    }

    /// Outcome of shifting `sym` against a pending lookahead constraint:
    /// `None` = forbidden, `Some(id)` = allowed with new pending `id`.
    fn pending_after(&self, pid: u32, sym: SymbolId) -> Option<u32> {
        if pid == NO_PENDING {
            return Some(NO_PENDING);
        }
        let p = self.mem.sets.get(pid);
        match self.g.kind(sym) {
            SymbolKind::Terminal => {
                if p.contains(self.g.tindex(sym)) {
                    Some(NO_PENDING)
                } else {
                    None
                }
            }
            SymbolKind::Nonterminal => {
                if self.auto.analysis().first(sym).intersects(p) {
                    Some(NO_PENDING)
                } else if self.auto.analysis().nullable(sym) {
                    // The constraint survives a nullable nonterminal.
                    Some(pid)
                } else {
                    None
                }
            }
        }
    }

    /// §5.4 completion: both item sequences have the shape
    /// `[? -> α · A β, ? -> α A · β]` over the same nonterminal `A`, with
    /// structurally distinct derivations of `A`.
    fn completed(&self, idx: usize) -> Option<UnifyingExample> {
        let mem = &self.mem;
        if mem.ilen(idx) != [2, 2] {
            return None;
        }
        let mut nts = [None, None];
        for (p, nt) in nts.iter_mut().enumerate() {
            let head = si(mem.ifirst[idx][p]);
            if self.graph.transition(head).map(StateItemId::index)
                != Some(mem.iseq[idx][p].last(&mem.icell) as usize)
            {
                return None;
            }
            *nt = self.graph.item(head).next_symbol(self.g);
        }
        let a = nts[0]?;
        if nts[1] != Some(a) || self.g.kind(a) != SymbolKind::Nonterminal {
            return None;
        }
        // Past the cheap rejects: rebuild the two derivation lists off the
        // hot path.
        let [l0, l1] = self.replay(idx, cfg!(debug_assertions));
        let d0 = single_derivation(l0)?;
        let d1 = single_derivation(l1)?;
        if d0.strip_dots() == d1.strip_dots() {
            return None;
        }
        Some(UnifyingExample {
            nonterminal: a,
            derivation1: d0,
            derivation2: d1,
        })
    }

    /// Rebuilds the two derivation lists of configuration `idx` by
    /// replaying the [`Edit`]s on its parent chain, root first. Each edit
    /// reads what it needs from its parent's stored columns, so the lists
    /// come out exactly as the paper's successor rules (Figure 10) would
    /// have built them step by step.
    ///
    /// With `check_items`, the item sequences of every configuration on
    /// the chain are rebuilt alongside and asserted equal to the stored
    /// ones (debug builds and tests).
    fn replay(&self, idx: usize, check_items: bool) -> [VecDeque<Derivation>; 2] {
        let mem = &self.mem;
        let mut chain = Vec::new();
        let mut c = idx;
        while c != 0 {
            chain.push(c);
            c = mem.parent[c] as usize;
        }
        let mut lists = [
            VecDeque::from([Derivation::Dot]),
            VecDeque::from([Derivation::Dot]),
        ];
        let mut items = check_items.then(|| self.stored_items(0));
        for &c in chain.iter().rev() {
            let par = mem.parent[c] as usize;
            let last = |p: usize| self.item(mem.iseq[par][p].last(&mem.icell));
            match mem.edit[c] {
                Edit::Keep => {}
                Edit::ReverseTransition => {
                    let sym = self
                        .item(mem.ifirst[par][0])
                        .prev_symbol(self.g)
                        .expect("reverse transition requires dot > 0");
                    lists
                        .iter_mut()
                        .for_each(|d| d.push_front(Derivation::Leaf(sym)));
                }
                Edit::JointTransition => {
                    let sym = last(0)
                        .next_symbol(self.g)
                        .expect("derivations match transitions");
                    lists
                        .iter_mut()
                        .for_each(|d| d.push_back(Derivation::Leaf(sym)));
                }
                Edit::Reduce(p) => {
                    let p = p as usize;
                    let prod = self.g.prod(last(p).prod());
                    let d = &mut lists[p];
                    let pops = dlist_pops(d, prod.rhs().len(), mem.flags[par] & (1 << p) != 0);
                    let kids = d.drain(d.len() - pops..).collect();
                    d.push_back(Derivation::Node(prod.lhs(), kids));
                }
            }
            if let Some(items) = &mut items {
                self.replay_items(c, items);
                assert_eq!(*items, self.stored_items(c), "replayed items of {c}");
            }
        }
        lists
    }

    /// Applies the item edit of the step into configuration `c` to its
    /// parent's item sequences. The step's kind follows from `c`'s edit
    /// and, for production and reverse production steps, from which end
    /// of which parser's positional hash moved.
    fn replay_items(&self, c: usize, items: &mut [VecDeque<u32>; 2]) {
        let mem = &self.mem;
        let par = mem.parent[c] as usize;
        let last = |p: usize| mem.iseq[c][p].last(&mem.icell);
        for (p, seq) in items.iter_mut().enumerate() {
            let (was, now) = (mem.ilen(par)[p], mem.ilen(c)[p]);
            match mem.edit[c] {
                Edit::ReverseTransition => seq.push_front(mem.ifirst[c][p]),
                Edit::JointTransition => seq.push_back(last(p)),
                Edit::Reduce(q) if q as usize == p => {
                    seq.truncate((now - 1) as usize);
                    seq.push_back(last(p));
                }
                _ if now == was => {}
                _ => {
                    let h = mem.ihash[par][p];
                    if h_prepend(h, mem.ifirst[c][p], was) == mem.ihash[c][p] {
                        seq.push_front(mem.ifirst[c][p]);
                    } else {
                        seq.push_back(last(p));
                    }
                }
            }
        }
    }

    /// The stored item sequences of configuration `c`.
    fn stored_items(&self, c: usize) -> [VecDeque<u32>; 2] {
        let mut scratch = Vec::new();
        self.mem.iseq[c].map(|seq| {
            let mut out = Vec::new();
            seq.materialize(&self.mem.icell, &mut out, &mut scratch);
            out.into()
        })
    }

    /// The bucket-at-a-time main loop; see the module docs for the phase
    /// structure (walk, then generate, probe and commit per chunk).
    fn run(
        &mut self,
        conflict: &Conflict,
        cfg: &SearchConfig,
        cancel: &CancelToken,
    ) -> SearchOutcome {
        let g = self.g;
        let item1 = self.graph.node(conflict.state, conflict.reduce_item(g));
        let item2 = self.graph.node(conflict.state, conflict.other_item(g));
        let t_set = TerminalSet::singleton(g.terminal_count(), g.tindex(conflict.terminal));
        let mem = &mut self.mem;
        let pid = mem.sets.intern(t_set);

        // The initial configuration (Figure 8); its derivation lists are
        // the conflict dot alone (see `replay`).
        let i1 = item1.index() as u32;
        let i2 = item2.index() as u32;
        let iseq0 = [
            Seq::singleton(&mut mem.icell, i1),
            Seq::singleton(&mut mem.icell, i2),
        ];
        let flags = if self.rr { 0 } else { 2 };
        let pend = [pid, if self.rr { pid } else { NO_PENDING }];
        let h = [itemh(i1), itemh(i2)];
        mem.flags.push(flags);
        mem.pend.push(pend);
        mem.iseq.push(iseq0);
        mem.ifirst.push([i1, i2]);
        mem.ihash.push(h);
        mem.parent.push(0);
        mem.edit.push(Edit::Keep);
        self.visited
            .insert_with(config_hash([1, 1], flags, h, pend), 0, |_| false);
        self.queue.push(0, 0);
        self.metrics.enqueued += 1;

        let deadline = Instant::now() + cfg.time_limit;
        let mut pops: u32 = 0;
        let mut batch: Vec<u32> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(COMMIT_CHUNK);
        while let Some(cost) = self.queue.pop_bucket(&mut batch) {
            // Walk phase: canonical FIFO order over the drained bucket. Every
            // action costs at least 1, so nothing committed later this
            // iteration could have belonged to this bucket.
            for &idx in &batch {
                pops += 1;
                self.metrics.explored += 1;
                if pops & (CANCEL_STRIDE - 1) == 0
                    && (cancel.is_cancelled() || Instant::now() > deadline)
                {
                    return SearchOutcome::TimedOut;
                }
                #[cfg(feature = "failpoints")]
                if let Some(action) = crate::faultpoint::hit("unify.expand") {
                    match action {
                        crate::faultpoint::FaultAction::Panic => {
                            panic!("failpoint `unify.expand` injected panic")
                        }
                        crate::faultpoint::FaultAction::BudgetZero
                        | crate::faultpoint::FaultAction::ClockJump => {
                            return SearchOutcome::TimedOut
                        }
                    }
                }
                if self.mem.len() > cfg.max_configs {
                    return SearchOutcome::TimedOut;
                }
                if let Some(ex) = self.completed(idx as usize) {
                    return SearchOutcome::Unifying(Box::new(ex));
                }
            }
            // Expand phase, in the same order, a chunk of configurations at
            // a time: generate every candidate of the chunk, load each one's
            // home slot in the visited set (independent loads that overlap,
            // where a probe per commit would wait on each), then dedup and
            // commit the candidates in generation order. Generation reads
            // only records stored before this bucket began and immutable
            // cells, so committing later changes nothing. Past the
            // configuration cap the rest of the bucket is left uncommitted;
            // the next pop reports the cutoff.
            'expand: for chunk in batch.chunks(COMMIT_CHUNK) {
                self.cands.clear();
                ends.clear();
                for &idx in chunk {
                    self.successors(idx as usize, cost);
                    ends.push(self.cands.len());
                }
                let homes = self
                    .cands
                    .iter()
                    .fold(0, |acc, c| acc ^ self.visited.home_word(c.hash));
                std::hint::black_box(homes);
                let cands = std::mem::take(&mut self.cands);
                let mut start = 0;
                for &end in &ends {
                    if self.mem.len() > cfg.max_configs {
                        self.cands = cands;
                        break 'expand;
                    }
                    for c in &cands[start..end] {
                        self.commit(c);
                    }
                    start = end;
                }
                self.cands = cands;
            }
            self.metrics.frontier_peak = self.metrics.frontier_peak.max(self.queue.len() as u64);
        }
        SearchOutcome::Exhausted
    }
}

/// How many trailing entries (dot markers included) of derivation list
/// `list` a reduction of `l` symbols wraps into its new node: the
/// children are exactly a suffix of the list, found by counting entries
/// back from the end until `l` non-dots have been seen. `reduced` tells
/// whether the parser had reduced before.
fn dlist_pops(list: &VecDeque<Derivation>, l: usize, reduced: bool) -> usize {
    if l == 0 {
        // An ε-reduction at the conflict point keeps the dot inside.
        return usize::from(!reduced && list.back() == Some(&Derivation::Dot));
    }
    let mut need = l;
    let last_child = list.iter().rev().position(|d| {
        need -= usize::from(*d != Derivation::Dot);
        need == 0
    });
    last_child.expect("derivations match transitions") + 1
}

/// Full-content check behind the commit's fingerprint equality (debug
/// builds only): rebuild the successor's item sequences (parent plus
/// edit) and compare against configuration `o` cell by cell. The local
/// allocations are irrelevant off the release path.
fn cand_items_eq(mem: &Mem, parent: usize, op: [ItemOp; 2], o: usize) -> bool {
    let mut scratch = Vec::new();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (p, op) in op.into_iter().enumerate() {
        a.clear();
        mem.iseq[parent][p].materialize(&mem.icell, &mut a, &mut scratch);
        match op {
            ItemOp::Keep => {}
            ItemOp::Prepend(v) => a.insert(0, v),
            ItemOp::Append(v) => a.push(v),
            ItemOp::Reduce { pops, goto_item } => {
                a.truncate(a.len() - pops as usize);
                a.push(goto_item);
            }
        }
        b.clear();
        mem.iseq[o][p].materialize(&mem.icell, &mut b, &mut scratch);
        if a != b {
            return false;
        }
    }
    true
}

/// The unique non-dot derivation in a list, if there is exactly one.
fn single_derivation(list: VecDeque<Derivation>) -> Option<Derivation> {
    let mut found = None;
    for d in list {
        if d == Derivation::Dot {
            continue;
        }
        if found.is_some() {
            return None;
        }
        found = Some(d);
    }
    found
}

/// Runs the unifying search for one conflict and fills `metrics` with the
/// explored/enqueued/deduped configuration counts, the frontier
/// high-water mark and the item-cell count. The counters count *arena records*
/// (configurations accepted into the frontier) and are deterministic for
/// a given conflict and configuration at any worker count — one search
/// runs on one thread and commits successors in canonical order.
///
/// `slsp_states` is the set of states on the shortest lookahead-sensitive
/// path; reverse transitions are restricted to it unless
/// [`SearchConfig::extended`] is set (§6).
#[allow(clippy::too_many_arguments)]
pub fn unifying_search_metered(
    g: &Grammar,
    auto: &Automaton,
    graph: &StateGraph,
    conflict: &Conflict,
    slsp_states: &[StateId],
    cfg: &SearchConfig,
    metrics: &mut SearchMetrics,
) -> SearchOutcome {
    unifying_search_cancellable(
        g,
        auto,
        graph,
        conflict,
        slsp_states,
        cfg,
        &CancelToken::new(),
        metrics,
    )
}

/// Looks up the unresolved conflict on terminal `term` in a conflict
/// table, as a structured error instead of a panic: precedence
/// declarations legitimately resolve conflicts out of the table, so a
/// missing conflict is a *reachable* state, not an invariant violation.
pub fn conflict_on<'a>(
    g: &Grammar,
    conflicts: &'a [Conflict],
    term: &str,
) -> Result<&'a Conflict, EngineError> {
    conflicts
        .iter()
        .find(|c| g.display_name(c.terminal) == term)
        .ok_or_else(|| EngineError::no_conflict_on(term))
}

/// [`unifying_search_metered`] under a shared [`CancelToken`]: the search
/// polls `cancel` (plus its own wall-clock deadline) every 256 pops.
///
/// Cancellation surfaces as [`SearchOutcome::TimedOut`]: the caller falls
/// back to the nonunifying construction exactly as for a per-conflict
/// time limit (§6 graceful cutoff).
#[allow(clippy::too_many_arguments)]
pub fn unifying_search_cancellable(
    g: &Grammar,
    auto: &Automaton,
    graph: &StateGraph,
    conflict: &Conflict,
    slsp_states: &[StateId],
    cfg: &SearchConfig,
    cancel: &CancelToken,
    metrics: &mut SearchMetrics,
) -> SearchOutcome {
    // Zero budget or an already-cancelled token never starts the search:
    // the `time_limit == 0` edge must degrade identically whether or not
    // the first stride poll would have been reached.
    if cfg.time_limit.is_zero() || cancel.is_cancelled() {
        return SearchOutcome::TimedOut;
    }
    let mut search = Search::new(g, auto, graph, conflict, slsp_states, cfg, metrics);
    let outcome = search.run(conflict, cfg, cancel);
    search.metrics.arena_cells += search.mem.icell.len() as u64;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lssi;
    use crate::report::CexConfig;
    use crate::report::ExampleKind;
    use crate::state_graph::StateGraph;
    use crate::validate::unifying_consistent;
    use crate::Engine;

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

    fn run_conflict(g: &Grammar, term: &str, cfg: &SearchConfig) -> SearchOutcome {
        let auto = Automaton::build(g);
        let graph = StateGraph::build(g, &auto);
        let tables = auto.tables(g);
        let c = match conflict_on(g, tables.conflicts(), term) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        };
        let target = graph.node(c.state, c.reduce_item(g));
        let path = lssi::shortest_path(g, &auto, &graph, target, g.tindex(c.terminal)).unwrap();
        let states = lssi::states_of_path(&graph, &path);
        unifying_search_metered(
            g,
            &auto,
            &graph,
            c,
            &states,
            cfg,
            &mut SearchMetrics::default(),
        )
    }

    #[test]
    fn dangling_else_unifying_example() {
        let g = figure1();
        let out = run_conflict(&g, "else", &SearchConfig::default());
        let SearchOutcome::Unifying(ex) = out else {
            panic!("expected unifying example, got {out:?}");
        };
        assert_eq!(g.display_name(ex.nonterminal), "stmt");
        assert_eq!(
            ex.derivation1.flat(&g),
            "if expr then if expr then stmt \u{2022} else stmt"
        );
        assert!(unifying_consistent(&g, &ex));
    }

    #[test]
    fn expression_plus_conflict() {
        // §2.4: expr + expr · + expr, a derivation of expr (not of stmt).
        let g = figure1();
        let out = run_conflict(&g, "+", &SearchConfig::default());
        let SearchOutcome::Unifying(ex) = out else {
            panic!("expected unifying example, got {out:?}");
        };
        assert_eq!(g.display_name(ex.nonterminal), "expr");
        assert_eq!(ex.derivation1.flat(&g), "expr + expr \u{2022} + expr");
        assert!(unifying_consistent(&g, &ex));
    }

    #[test]
    fn challenging_conflict_digit() {
        // §3.1: the hard one. The unifying counterexample is
        // `expr ? arr [ expr ] := num · digit digit ? stmt stmt` (or an
        // equivalent form), a derivation of stmt.
        let g = figure1();
        let out = run_conflict(&g, "digit", &SearchConfig::default());
        let SearchOutcome::Unifying(ex) = out else {
            panic!("expected unifying example, got {out:?}");
        };
        assert_eq!(g.display_name(ex.nonterminal), "stmt");
        assert!(unifying_consistent(&g, &ex));
        let s = ex.derivation1.flat(&g);
        assert!(
            s.starts_with("expr ? arr [ expr ] := num \u{2022} digit"),
            "example: {s}"
        );
    }

    #[test]
    fn figure3_search_exhausts() {
        // Figure 3 is unambiguous (LR(2)); the search must terminate with
        // no unifying counterexample.
        let g = Grammar::parse("%% S : T | S T ; T : X | Y ; X : 'a' ; Y : 'a' 'a' 'b' ;").unwrap();
        let out = run_conflict(&g, "a", &SearchConfig::default());
        assert!(matches!(out, SearchOutcome::Exhausted), "{out:?}");
    }

    fn figure7() -> Grammar {
        Grammar::parse(
            "%% S : N | N 'c' ;
                N : 'n' N 'd' | 'n' N 'c' | 'n' A 'b' | 'n' B ;
                A : 'a' ;
                B : 'a' 'b' 'c' | 'a' 'b' 'd' ;",
        )
        .unwrap()
    }

    /// A nullable production in conflict.
    fn epsilon_grammar() -> Grammar {
        Grammar::parse("%% s : 'a' s | o ; o : | 'a' ;").unwrap()
    }

    #[test]
    fn figure7_finds_unifying_examples() {
        // Figure 7: shortest-path prefix is incompatible with the second
        // shift item, so the outward search must reconstruct `n n a · b d c`.
        let g = figure7();
        let report = Engine::new(&g).analyze_all(&CexConfig::default());
        assert_eq!(report.reports.len(), 2, "Table 1 row figure7: 2 conflicts");
        for r in &report.reports {
            assert_eq!(r.kind(), Some(ExampleKind::Unifying), "{:?}", r.conflict);
            let ex = r.unifying.as_ref().unwrap();
            assert!(unifying_consistent(&g, ex));
        }
    }

    #[test]
    fn reduce_reduce_unifying() {
        // Ambiguous r/r: two nonterminals derive the same string with the
        // same continuation.
        let g = Grammar::parse("%% s : a X | b X ; a : T ; b : T ;").unwrap();
        let report = Engine::new(&g).analyze_all(&CexConfig::default());
        assert_eq!(report.reports.len(), 1);
        let r = &report.reports[0];
        assert_eq!(r.kind(), Some(ExampleKind::Unifying));
        let ex = r.unifying.as_ref().unwrap();
        assert_eq!(g.display_name(ex.nonterminal), "s");
        assert_eq!(ex.derivation1.flat(&g), "T \u{2022} X");
        assert!(unifying_consistent(&g, ex));
    }

    #[test]
    fn epsilon_production_conflict() {
        // Nullable production in conflict: s : A s | A | ε-ish shape.
        let g = epsilon_grammar();
        let report = Engine::new(&g).analyze_all(&CexConfig::default());
        assert!(!report.reports.is_empty());
        for r in &report.reports {
            if let Some(ex) = &r.unifying {
                assert!(unifying_consistent(&g, ex), "{:?}", ex);
            }
        }
        assert!(report.unifying_count() >= 1, "grammar is ambiguous");
    }

    /// Replays every configuration stored by every search of figure1,
    /// figure7 and the ε-production grammar. The replay asserts that the
    /// rebuilt item sequences equal the stored ones at each step of the
    /// chain. Here both rebuilt derivation lists must also yield the same
    /// string, since every leaf is added to both, and a parser that has
    /// reduced its conflict item must hold the conflict dot inside that
    /// reduction's node. Between them the searches store every edit kind
    /// and an ε-reduction that wraps the conflict dot.
    #[test]
    fn replay_rebuilds_every_stored_configuration() {
        let mut edits = Vec::new();
        let mut dot_wraps = 0;
        for g in [figure1(), figure7(), epsilon_grammar()] {
            let auto = Automaton::build(&g);
            let graph = StateGraph::build(&g, &auto);
            let tables = auto.tables(&g);
            for c in tables.conflicts() {
                let target = graph.node(c.state, c.reduce_item(&g));
                let path =
                    lssi::shortest_path(&g, &auto, &graph, target, g.tindex(c.terminal)).unwrap();
                let states = lssi::states_of_path(&graph, &path);
                let cfg = SearchConfig::default();
                let mut metrics = SearchMetrics::default();
                let mut search = Search::new(&g, &auto, &graph, c, &states, &cfg, &mut metrics);
                search.run(c, &cfg, &CancelToken::new());
                for idx in 0..search.mem.len() {
                    let lists = search.replay(idx, true);
                    let [s0, s1] = lists.each_ref().map(|list| {
                        let mut out = Vec::new();
                        for d in list {
                            d.leaves_into(&mut out);
                        }
                        out
                    });
                    assert_eq!(s0, s1, "configuration {idx}");
                    for (p, list) in lists.iter().enumerate() {
                        let reduced_conflict_item =
                            search.mem.flags[idx] & (1 << p) != 0 && (p == 0 || search.rr);
                        if reduced_conflict_item {
                            assert!(!list.contains(&Derivation::Dot), "configuration {idx}");
                        }
                    }
                    let edit = search.mem.edit[idx];
                    if !edits.contains(&edit) {
                        edits.push(edit);
                    }
                    let Edit::Reduce(p) = edit else { continue };
                    let (p, par) = (p as usize, search.mem.parent[idx] as usize);
                    let last = search.mem.iseq[par][p].last(&search.mem.icell);
                    let before = search.replay(par, false);
                    if g.prod(search.item(last).prod()).rhs().is_empty()
                        && search.mem.flags[par] & (1 << p) == 0
                        && before[p].back() == Some(&Derivation::Dot)
                    {
                        dot_wraps += 1;
                    }
                }
            }
        }
        assert_eq!(edits.len(), 5, "edits seen: {edits:?}");
        assert!(dot_wraps > 0, "no ε-reduction wrapped the conflict dot");
    }

    #[test]
    fn timeout_is_respected() {
        let g = figure1();
        let cfg = SearchConfig {
            time_limit: Duration::ZERO,
            ..SearchConfig::default()
        };
        let out = run_conflict(&g, "else", &cfg);
        assert!(matches!(out, SearchOutcome::TimedOut), "{out:?}");
    }

    #[test]
    fn conflict_on_missing_is_structured_error() {
        // A lookup miss is a reachable state (precedence resolution), so it
        // is a structured `EngineError`, not a panic.
        let g = figure1();
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        let err = conflict_on(&g, tables.conflicts(), "nosuch").unwrap_err();
        assert_eq!(err.phase, "lookup");
        assert!(err.message.contains("`nosuch`"));
        assert!(err.message.contains("precedence"));
    }

    fn run_conflict_cancellable(
        g: &Grammar,
        term: &str,
        cfg: &SearchConfig,
        cancel: &CancelToken,
        metrics: &mut SearchMetrics,
    ) -> SearchOutcome {
        let auto = Automaton::build(g);
        let graph = StateGraph::build(g, &auto);
        let tables = auto.tables(g);
        let c = match conflict_on(g, tables.conflicts(), term) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        };
        let target = graph.node(c.state, c.reduce_item(g));
        let path = lssi::shortest_path(g, &auto, &graph, target, g.tindex(c.terminal)).unwrap();
        let states = lssi::states_of_path(&graph, &path);
        unifying_search_cancellable(g, &auto, &graph, c, &states, cfg, cancel, metrics)
    }

    #[test]
    fn precancelled_token_stops_before_searching() {
        let g = figure1();
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut m = SearchMetrics::default();
        let out = run_conflict_cancellable(&g, "else", &SearchConfig::default(), &cancel, &mut m);
        assert!(matches!(out, SearchOutcome::TimedOut), "{out:?}");
        assert_eq!(m.explored, 0, "cancelled before the first pop");
    }

    #[test]
    fn analyzer_reports_all_figure1_conflicts_unifying() {
        // Table 1 row figure1: 3 conflicts, 3 unifying.
        let g = figure1();
        let report = Engine::new(&g).analyze_all(&CexConfig::default());
        assert_eq!(report.reports.len(), 3);
        assert_eq!(report.unifying_count(), 3);
        assert_eq!(report.exhausted_count(), 0);
        assert_eq!(report.timeout_count(), 0);
    }

    #[test]
    fn cumulative_budget_skips_search() {
        let g = figure1();
        let cfg = CexConfig {
            cumulative_limit: Duration::ZERO,
            ..CexConfig::default()
        };
        let report = Engine::new(&g).analyze_all(&cfg);
        assert_eq!(report.unifying_count(), 0);
        assert!(report
            .reports
            .iter()
            .all(|r| r.kind() == Some(ExampleKind::NonunifyingSkipped)));
        // Nonunifying fallbacks are still produced.
        assert!(report.reports.iter().all(|r| r.nonunifying.is_some()));
    }
}
