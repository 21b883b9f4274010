//! The product-parser outward search for unifying counterexamples (§5).
//!
//! Two copies of the parser are simulated in parallel, starting *at the
//! conflict* (Figure 8): one is forced to take the conflict reduction, the
//! other the conflict shift (or second reduction). Configurations hold one
//! item sequence and one partial-derivation list per parser; successor
//! configurations implement the eight actions of Figure 10 — transitions,
//! production steps, reverse transitions, reverse production steps, and
//! reductions, each on either parser. The search is ordered by a cost that
//! penalises production steps and repeated items (§5.4), and terminates
//! when both parsers have derived the same nonterminal with structurally
//! distinct derivations — a proof of ambiguity.
//!
//! # Data-oriented core
//!
//! Configurations are struct-of-arrays records (see [`crate::soa`]): item
//! sequences and derivation lists are persistent double-ended sequences
//! ([`Seq`]) sharing immutable cons cells in arena storage, derivations
//! are DAG nodes whose child lists are spans in a word pool, pending
//! lookahead constraints are interned set ids, the cost queue is a
//! radix-by-cost bucket ring with *explicit* FIFO order within a cost, and
//! the visited set is an open-addressing table that never copies keys.
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
//! while it is being expanded. The drained bucket is the expansion unit:
//! its configurations are first walked in FIFO order (cancel polls and
//! completion checks), then expanded into edit descriptors against the
//! read-only arenas, and the descriptors are finally merged into the
//! arenas in that same order. Cells are allocated only at merge, so cell
//! ids — and with them the reported examples — follow the canonical
//! bucket order. One search runs on one thread; parallelism is across
//! conflicts ([`crate::Engine::analyze_all`]).

use std::time::{Duration, Instant};

use lalrcex_grammar::{Grammar, SymbolId, SymbolKind, TerminalSet};
use lalrcex_lr::{Automaton, Conflict, ConflictKind, StateId};

use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::soa::{
    itemh, mix, wpow, BucketQueue, CellArena, DerivArena, FactMap, Pool, Seq, SetInterner, Visited,
    DOT, NIL, NO_PENDING, SEQ_X, SEQ_XINV,
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

/// Tunable knobs for the unifying search.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Per-conflict time limit (the paper's implementation uses 5 s).
    pub time_limit: Duration,
    /// Disable the shortest-path restriction on reverse transitions
    /// (the paper's `-extendedsearch` flag, §6).
    pub extended: bool,
    /// Hard cap on the configurations one search stores — the one memory
    /// bound on a search. Past it the search stops with a deterministic
    /// [`SearchOutcome::TimedOut`]. At the default (2²¹) the stackovf08
    /// corpus grammar peaks near 430 MB RSS with one worker; the worker
    /// count bounds how many searches are in flight at once.
    pub max_configs: usize,
    /// Hard cap on a configuration's accumulated cost. Every search step
    /// costs at least 1, so this also bounds the depth and size of the
    /// derivations a configuration carries — successors beyond the cap are
    /// pruned, turning runaway searches on pathological grammars into a
    /// deterministic [`SearchOutcome::TimedOut`]. The default (`u32::MAX`)
    /// disables the cap; clock-free callers (the lint masking probe) set
    /// it so their worst case is bounded without consulting the clock.
    pub max_cost: u32,
    /// How many configuration pops between cancellation polls. Each poll
    /// is one relaxed atomic load on the shared [`CancelToken`] and one
    /// `Instant::now()` against the deadline — strided so the hot loop
    /// doesn't pay a clock syscall per node (the `cancel_stride` bench
    /// group quantifies the overhead). Rounded up to a power of two; `1`
    /// polls on every pop.
    pub cancel_stride: u32,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            time_limit: Duration::from_secs(5),
            extended: false,
            max_configs: 1 << 21,
            max_cost: u32::MAX,
            cancel_stride: 256,
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
    pub derivation1: lalrcex_grammar::Derivation,
    /// Derivation taking the conflict shift (or second reduction).
    pub derivation2: lalrcex_grammar::Derivation,
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
    /// [`SearchConfig::max_configs`] or [`SearchConfig::max_cost`] cap, or
    /// a raised [`CancelToken`].
    TimedOut,
}

/// All search-owned storage: the configuration arenas plus their shared
/// pools. Cells are only allocated at initialization and during the
/// merge phase, so everything here grows deterministically with the
/// insertion sequence.
struct Mem {
    /// Item-sequence cons cells.
    icell: CellArena,
    /// Derivation-list cons cells.
    dcell: CellArena,
    /// Materialized child spans of reduction nodes.
    kids: Pool,
    /// Derivation DAG nodes.
    nodes: DerivArena,
    /// Interned pending lookahead constraints.
    sets: SetInterner,
    // --- configuration record columns ---
    cost: Vec<u32>,
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
    /// Per-parser derivation lists.
    dseq: Vec<[Seq; 2]>,
}

impl Mem {
    fn new(symbols: usize) -> Mem {
        Mem {
            icell: CellArena::new(),
            dcell: CellArena::new(),
            kids: Pool::new(),
            nodes: DerivArena::new(symbols),
            sets: SetInterner::new(),
            cost: Vec::new(),
            flags: Vec::new(),
            pend: Vec::new(),
            iseq: Vec::new(),
            ifirst: Vec::new(),
            ihash: Vec::new(),
            dseq: Vec::new(),
        }
    }

    /// Configurations stored.
    fn len(&self) -> usize {
        self.cost.len()
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

/// The dedup hash of a configuration, before pending ids are mixed in.
fn cand_hash(len: [u32; 2], flags: u8, h: [u64; 2]) -> u64 {
    let seed = mix(mix(mix(0x5EED, len[0] as u64), len[1] as u64), flags as u64);
    mix(mix(seed, h[0]), h[1])
}

/// How a successor's pending constraint derives from its parent's.
#[derive(Clone, Copy)]
enum PendRef {
    /// Same id as the parent.
    Keep,
    /// An explicit id ([`NO_PENDING`] or an already-interned id).
    Id(u32),
    /// A freshly built set, stored in the expansion buffer; interned at
    /// merge time so ids stay in canonical insertion order.
    New(u32),
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

/// How a successor's derivation list derives from its parent's.
#[derive(Clone, Copy)]
enum DerivDesc {
    /// Share the parent's list (pure item-sequence actions).
    Keep,
    /// `[leaf] ++ parent` (reverse transition).
    Prepend(u32),
    /// `parent ++ [leaf]` (joint transition).
    Append(u32),
    /// Reduction: pop the last `pops` entries (dot markers included), wrap
    /// them in a new node of `lhs`, and append that node.
    Reduce { pops: u32, lhs: SymbolId },
}

/// A successor candidate produced by expansion; merge resolves it against
/// the visited set and commits it to the arenas. Candidates are pure *edit
/// descriptors* — expansion only reads the arenas and allocates no cells,
/// so cell ids follow the canonical merge order.
struct Cand {
    parent: u32,
    cost: u32,
    flags: u8,
    pend: [PendRef; 2],
    /// Per-parser item-sequence edit.
    op: [ItemOp; 2],
    /// Resulting item-sequence lengths.
    len: [u32; 2],
    /// Resulting positional item-sequence hashes.
    h: [u64; 2],
    /// Hash over lengths, flags, and items; pending ids are mixed in at
    /// merge time (after interning).
    hash: u64,
    dd: [DerivDesc; 2],
}

/// The search's expansion output; cleared per batch, except for the
/// membership memo, a cache over immutable cells.
#[derive(Default)]
struct ExpandBuf {
    cands: Vec<Cand>,
    new_sets: Vec<TerminalSet>,
    /// Transient back-read values (reduction predecessors).
    vals: Vec<u32>,
    /// Transient cell-walk scratch.
    scratch: Vec<u32>,
    /// Memoized §5.4 duplicate-check facts; persists across batches
    /// (cells are immutable, so facts never go stale).
    memo: FactMap,
}

impl ExpandBuf {
    fn clear(&mut self) {
        self.cands.clear();
        self.new_sets.clear();
    }
}

#[inline]
fn si(w: u32) -> StateItemId {
    StateItemId::from_index(w as usize)
}

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
}

impl Search<'_> {
    fn item(&self, w: u32) -> lalrcex_lr::Item {
        self.graph.item(si(w))
    }

    fn lookahead(&self, id: StateItemId) -> &TerminalSet {
        self.graph.lookahead(self.auto, id)
    }

    /// Finalizes a candidate from its edit descriptors.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        buf: &mut ExpandBuf,
        parent: u32,
        cost: u32,
        flags: u8,
        pend: [PendRef; 2],
        op: [ItemOp; 2],
        len: [u32; 2],
        h: [u64; 2],
        dd: [DerivDesc; 2],
    ) {
        let hash = cand_hash(len, flags, h);
        buf.cands.push(Cand {
            parent,
            cost,
            flags,
            pend,
            op,
            len,
            h,
            hash,
            dd,
        });
    }

    /// Emits all Figure 10 successors of configuration `idx`.
    fn successors(&self, mem: &Mem, idx: u32, buf: &mut ExpandBuf) {
        let i = idx as usize;
        let red = [
            self.item(mem.iseq[i][0].last(&mem.icell)).is_reduce(self.g),
            self.item(mem.iseq[i][1].last(&mem.icell)).is_reduce(self.g),
        ];
        for (p, &is_red) in red.iter().enumerate() {
            if is_red {
                self.reduce_or_prep(mem, idx, p, buf);
            }
        }
        if !red[0] && !red[1] {
            self.forward(mem, idx, buf);
        }
    }

    fn reduce_or_prep(&self, mem: &Mem, idx: u32, p: usize, buf: &mut ExpandBuf) {
        let i = idx as usize;
        let m = mem.iseq[i][p].len() as usize;
        let it = self.item(mem.iseq[i][p].last(&mem.icell));
        let l = self.g.prod(it.prod()).rhs().len();
        if m >= l + 2 {
            self.reduce(mem, idx, p, buf);
        } else if m == l + 1 {
            // Figure 10(d): reverse production step on parser p.
            debug_assert_eq!(self.item(mem.ifirst[i][p]).dot(), 0);
            self.rev_prod_steps(mem, idx, p, buf);
        } else {
            // m < l+1: parser p's first item has dot > 0.
            debug_assert!(self.item(mem.ifirst[i][p]).dot() > 0);
            let q = 1 - p;
            if self.item(mem.ifirst[i][q]).dot() == 0 {
                // Figure 10(e): reverse production step on the other parser.
                self.rev_prod_steps(mem, idx, q, buf);
            } else {
                self.reverse_transitions(mem, idx, buf);
            }
        }
    }

    /// Reverse production steps prepending to parser `p` (Figure 10(d,e)).
    fn rev_prod_steps(&self, mem: &Mem, idx: u32, p: usize, buf: &mut ExpandBuf) {
        let i = idx as usize;
        let cost = mem.cost[i];
        let flags = mem.flags[i];
        let oldlen = mem.iseq[i][p].len();
        for &pre in self.graph.reverse_production_steps(si(mem.ifirst[i][p])) {
            let pre = pre.index() as u32;
            let dup = mem.iseq[i][p].contains_memo(&mem.icell, pre, false, &mut buf.memo);
            let mut op = [ItemOp::Keep, ItemOp::Keep];
            op[p] = ItemOp::Prepend(pre);
            let mut len = mem.ilen(i);
            len[p] += 1;
            let mut h = mem.ihash[i];
            h[p] = h_prepend(h[p], pre, oldlen);
            self.emit(
                buf,
                idx,
                cost + REVERSE_PRODUCTION_COST + if dup { DUPLICATE_PENALTY } else { 0 },
                flags,
                [PendRef::Keep, PendRef::Keep],
                op,
                len,
                h,
                [DerivDesc::Keep, DerivDesc::Keep],
            );
        }
    }

    /// Figure 10(c): prepend matching predecessors to both parsers.
    fn reverse_transitions(&self, mem: &Mem, idx: u32, buf: &mut ExpandBuf) {
        let i = idx as usize;
        let [f0, f1] = mem.ifirst[i];
        let flags = mem.flags[i];
        let cost = mem.cost[i] + REVERSE_TRANSITION_COST;
        let lens = mem.ilen(i);
        let sym = self
            .item(f0)
            .prev_symbol(self.g)
            .expect("reverse transition requires dot > 0");
        let leaf = mem.nodes.leaf(sym);
        for &p0 in self.graph.reverse_transitions(si(f0)) {
            let state = self.graph.state(p0);
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
            for &p1 in self.graph.reverse_transitions(si(f1)) {
                if self.graph.state(p1) != state {
                    continue;
                }
                if self.rr && flags & 2 == 0 && !self.lookahead(p1).contains(self.t_idx) {
                    continue;
                }
                let w0 = p0.index() as u32;
                let w1 = p1.index() as u32;
                let h = [
                    h_prepend(mem.ihash[i][0], w0, lens[0]),
                    h_prepend(mem.ihash[i][1], w1, lens[1]),
                ];
                self.emit(
                    buf,
                    idx,
                    cost,
                    flags,
                    [PendRef::Keep, PendRef::Keep],
                    [ItemOp::Prepend(w0), ItemOp::Prepend(w1)],
                    [lens[0] + 1, lens[1] + 1],
                    h,
                    [DerivDesc::Prepend(leaf), DerivDesc::Prepend(leaf)],
                );
            }
        }
    }

    /// Figure 10(f): reduction on parser p (which has enough items).
    fn reduce(&self, mem: &Mem, idx: u32, p: usize, buf: &mut ExpandBuf) {
        let i = idx as usize;
        let seq = mem.iseq[i][p];
        let m = seq.len() as usize;
        let last_w = seq.last(&mem.icell);
        let it = self.item(last_w);
        let prod = it.prod();
        let l = self.g.prod(prod).rhs().len();
        let lhs = self.g.prod(prod).lhs();

        // The last `l+2` item words, last first (valid since `m >= l+2`):
        // the goto predecessor sits just before the reduced span.
        seq.read_back(&mem.icell, (l + 2) as u32, &mut buf.vals, &mut buf.scratch);
        let pred = si(buf.vals[l + 1]);
        debug_assert_eq!(self.graph.item(pred).next_symbol(self.g), Some(lhs));
        let Some(goto_si) = self.graph.transition(pred) else {
            return;
        };

        // Lookahead viability: intersect the pending constraint with the
        // reduce item's lookahead set.
        let la = self.lookahead(si(last_w));
        let pid = mem.pend[i][p];
        let pend_p = if pid == NO_PENDING {
            let slot = buf.new_sets.len() as u32;
            buf.new_sets.push(la.clone());
            PendRef::New(slot)
        } else {
            let pn = mem.sets.get(pid);
            let mut x = pn.clone();
            x.intersect_with(la);
            if x.is_empty() {
                return;
            }
            if &x == pn {
                PendRef::Keep
            } else {
                let slot = buf.new_sets.len() as u32;
                buf.new_sets.push(x);
                PendRef::New(slot)
            }
        };

        let flags = mem.flags[i];
        let dpops = dlist_pops(mem, i, p, l, flags, &mut buf.scratch);

        let goto_w = goto_si.index() as u32;
        let mut op = [ItemOp::Keep, ItemOp::Keep];
        op[p] = ItemOp::Reduce {
            pops: (l + 1) as u32,
            goto_item: goto_w,
        };
        let mut len = mem.ilen(i);
        len[p] = (m - l - 1) as u32 + 1;
        let mut h = mem.ihash[i];
        h[p] = h_append(h_pop_back(h[p], &buf.vals[..=l]), goto_w);
        let mut pend = [PendRef::Keep, PendRef::Keep];
        pend[p] = pend_p;
        let mut dd = [DerivDesc::Keep, DerivDesc::Keep];
        dd[p] = DerivDesc::Reduce { pops: dpops, lhs };
        self.emit(
            buf,
            idx,
            mem.cost[i] + REDUCE_COST,
            flags | (1 << p),
            pend,
            op,
            len,
            h,
            dd,
        );
    }

    /// Joint transitions and forward production steps (Figure 10(a), (b)).
    fn forward(&self, mem: &Mem, idx: u32, buf: &mut ExpandBuf) {
        let i = idx as usize;
        let lens = mem.ilen(i);
        let last = [
            si(mem.iseq[i][0].last(&mem.icell)),
            si(mem.iseq[i][1].last(&mem.icell)),
        ];
        let next = [
            self.graph.item(last[0]).next_symbol(self.g),
            self.graph.item(last[1]).next_symbol(self.g),
        ];
        if next[0] == next[1] {
            if let (Some(sym), Some(t0), Some(t1)) = (
                next[0],
                self.graph.transition(last[0]),
                self.graph.transition(last[1]),
            ) {
                let p0 = self.pending_after(mem, mem.pend[i][0], sym);
                let p1 = self.pending_after(mem, mem.pend[i][1], sym);
                if let (Some(p0), Some(p1)) = (p0, p1) {
                    let w0 = t0.index() as u32;
                    let w1 = t1.index() as u32;
                    let leaf = mem.nodes.leaf(sym);
                    let h = [h_append(mem.ihash[i][0], w0), h_append(mem.ihash[i][1], w1)];
                    self.emit(
                        buf,
                        idx,
                        mem.cost[i] + TRANSITION_COST,
                        mem.flags[i],
                        [PendRef::Id(p0), PendRef::Id(p1)],
                        [ItemOp::Append(w0), ItemOp::Append(w1)],
                        [lens[0] + 1, lens[1] + 1],
                        h,
                        [DerivDesc::Append(leaf), DerivDesc::Append(leaf)],
                    );
                }
            }
        }
        for p in 0..2 {
            let Some(sym) = next[p] else { continue };
            if self.g.kind(sym) != SymbolKind::Nonterminal {
                continue;
            }
            for &tgt in self.graph.production_steps(last[p]) {
                let tgt = tgt.index() as u32;
                let dup = mem.iseq[i][p].contains_memo(&mem.icell, tgt, true, &mut buf.memo);
                let mut op = [ItemOp::Keep, ItemOp::Keep];
                op[p] = ItemOp::Append(tgt);
                let mut len = lens;
                len[p] += 1;
                let mut h = mem.ihash[i];
                h[p] = h_append(h[p], tgt);
                self.emit(
                    buf,
                    idx,
                    mem.cost[i] + PRODUCTION_COST + if dup { DUPLICATE_PENALTY } else { 0 },
                    mem.flags[i],
                    [PendRef::Keep, PendRef::Keep],
                    op,
                    len,
                    h,
                    [DerivDesc::Keep, DerivDesc::Keep],
                );
            }
        }
    }

    /// Outcome of shifting `sym` against a pending lookahead constraint:
    /// `None` = forbidden, `Some(id)` = allowed with new pending `id`.
    fn pending_after(&self, mem: &Mem, pid: u32, sym: SymbolId) -> Option<u32> {
        if pid == NO_PENDING {
            return Some(NO_PENDING);
        }
        let p = mem.sets.get(pid);
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
    fn completed(&self, mem: &Mem, idx: usize) -> Option<UnifyingExample> {
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
        // Past the cheap rejects; materializing the two (tiny) derivation
        // lists off the hot path is fine.
        let mut scratch = Vec::new();
        let mut list0 = Vec::new();
        let mut list1 = Vec::new();
        mem.dseq[idx][0].materialize(&mem.dcell, &mut list0, &mut scratch);
        mem.dseq[idx][1].materialize(&mem.dcell, &mut list1, &mut scratch);
        let d0 = single_derivation(&list0)?;
        let d1 = single_derivation(&list1)?;
        if mem.nodes.strip_eq(&mem.kids, d0, d1) {
            return None;
        }
        Some(UnifyingExample {
            nonterminal: a,
            derivation1: mem.nodes.materialize(&mem.kids, d0),
            derivation2: mem.nodes.materialize(&mem.kids, d1),
        })
    }
}

/// How many trailing derivation-list entries (dot markers included) a
/// reduction of `l` symbols on parser `p` wraps into its new node: the
/// children are exactly a suffix of the parent's list, found by counting
/// entries back from the end until `l` non-dots have been seen.
fn dlist_pops(mem: &Mem, i: usize, p: usize, l: usize, flags: u8, scratch: &mut Vec<u32>) -> u32 {
    let ds = mem.dseq[i][p];
    if l == 0 {
        // An ε-reduction at the conflict point keeps the dot inside.
        return if flags & (1 << p) == 0 && ds.last(&mem.dcell) == DOT {
            1
        } else {
            0
        };
    }
    let mut need = l;
    let mut pops = 0u32;
    let mut cell = ds.back;
    for _ in 0..ds.blen {
        if need == 0 {
            return pops;
        }
        pops += 1;
        if mem.dcell.val(cell) != DOT {
            need -= 1;
        }
        cell = mem.dcell.next(cell);
    }
    if need == 0 {
        return pops;
    }
    // The walk spills past the back stack: materialize the front (in
    // sequence order) and keep counting from its end.
    scratch.clear();
    let mut cell = ds.front;
    for _ in 0..ds.flen {
        scratch.push(mem.dcell.val(cell));
        cell = mem.dcell.next(cell);
    }
    let mut k = scratch.len();
    while need > 0 {
        assert!(k > 0, "derivations match transitions");
        k -= 1;
        pops += 1;
        if scratch[k] != DOT {
            need -= 1;
        }
    }
    pops
}

/// Full-content check behind the merge's fingerprint equality (debug
/// builds only): rebuild the candidate's item sequences (parent plus edit)
/// and compare against configuration `o` cell by cell. The local
/// allocations are irrelevant off the release path.
fn cand_items_eq(mem: &Mem, cand: &Cand, o: usize) -> bool {
    let mut scratch = Vec::new();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for p in 0..2 {
        a.clear();
        mem.iseq[cand.parent as usize][p].materialize(&mem.icell, &mut a, &mut scratch);
        match cand.op[p] {
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
fn single_derivation(list: &[u32]) -> Option<u32> {
    let mut found = None;
    for &d in list {
        if d == DOT {
            continue;
        }
        if found.is_some() {
            return None;
        }
        found = Some(d);
    }
    found
}

/// Runs the unifying search for one conflict.
///
/// `slsp_states` is the set of states on the shortest lookahead-sensitive
/// path; reverse transitions are restricted to it unless
/// [`SearchConfig::extended`] is set (§6).
pub fn unifying_search(
    g: &Grammar,
    auto: &Automaton,
    graph: &StateGraph,
    conflict: &Conflict,
    slsp_states: &[StateId],
    cfg: &SearchConfig,
) -> SearchOutcome {
    let mut metrics = SearchMetrics::default();
    unifying_search_metered(g, auto, graph, conflict, slsp_states, cfg, &mut metrics)
}

/// [`unifying_search`] with observability: fills `metrics` with the
/// explored/enqueued/deduped configuration counts and the frontier
/// high-water mark. The counters count *arena records* (configurations
/// accepted into the frontier) and are deterministic for a given conflict
/// and configuration at any worker count — one search runs on one thread
/// and merges each batch in canonical order.
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
/// polls `cancel` (plus its own wall-clock deadline) every
/// [`SearchConfig::cancel_stride`] pops.
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
    let rr = matches!(conflict.kind, ConflictKind::ReduceReduce { .. });
    let t = conflict.terminal;
    let search = Search {
        g,
        auto,
        graph,
        t_idx: g.tindex(t),
        rr,
        allowed: if cfg.extended {
            None
        } else {
            let mut set = NodeSet::new(auto.state_count());
            for s in slsp_states {
                set.insert(s.index());
            }
            Some(set)
        },
    };
    let mut mem = Mem::new(g.symbol_count());
    let outcome = search_loop(&search, &mut mem, conflict, cfg, cancel, metrics);
    metrics.arena_cells += (mem.icell.len() + mem.dcell.len()) as u64;
    outcome
}

/// The bucket-at-a-time main loop; see the module docs for the phase
/// structure (walk → expand → merge).
fn search_loop(
    search: &Search<'_>,
    mem: &mut Mem,
    conflict: &Conflict,
    cfg: &SearchConfig,
    cancel: &CancelToken,
    metrics: &mut SearchMetrics,
) -> SearchOutcome {
    let g = search.g;
    let graph = search.graph;
    let item1 = graph.node(conflict.state, conflict.reduce_item(g));
    let item2 = graph.node(conflict.state, conflict.other_item(g));
    let t_set = TerminalSet::singleton(g.terminal_count(), g.tindex(conflict.terminal));
    let pid = mem.sets.intern(t_set);

    // The initial configuration (Figure 8). Both derivation lists share
    // one dot cell.
    let i1 = item1.index() as u32;
    let i2 = item2.index() as u32;
    let iseq0 = [
        Seq::singleton(&mut mem.icell, i1),
        Seq::singleton(&mut mem.icell, i2),
    ];
    let dot = mem.dcell.cons(DOT, NIL);
    let dseq0 = [Seq {
        front: NIL,
        back: dot,
        flen: 0,
        blen: 1,
    }; 2];
    mem.cost.push(0);
    mem.flags.push(if search.rr { 0 } else { 2 });
    mem.pend
        .push([pid, if search.rr { pid } else { NO_PENDING }]);
    mem.iseq.push(iseq0);
    mem.ifirst.push([i1, i2]);
    mem.ihash.push([itemh(i1), itemh(i2)]);
    mem.dseq.push(dseq0);

    let mut visited = Visited::new();
    let mut queue = BucketQueue::new();
    {
        let h = cand_hash([1, 1], mem.flags[0], mem.ihash[0]);
        let h = mix(mix(h, mem.pend[0][0] as u64), mem.pend[0][1] as u64);
        visited.insert_with(h, 0, |_| false);
    }
    queue.push(0, 0);
    metrics.enqueued += 1;

    let deadline = Instant::now() + cfg.time_limit;
    // Stride mask: poll when `pops & mask == 0`. Rounded up to a power of
    // two so the check is one AND instead of a division.
    let mask = cfg.cancel_stride.max(1).next_power_of_two() - 1;
    let mut pops: u32 = 0;
    let mut cost_pruned = false;
    let mut batch: Vec<u32> = Vec::new();
    let mut buf = ExpandBuf::default();
    // Merge-phase scratch (cell walks and popped derivation children).
    let mut scratch: Vec<u32> = Vec::new();
    let mut popped: Vec<u32> = Vec::new();

    while queue.pop_bucket(&mut batch).is_some() {
        // Walk phase: canonical FIFO order over the drained bucket. Every
        // action costs at least 1, so nothing merged later this iteration
        // could have belonged to this bucket.
        for &idx in &batch {
            pops += 1;
            metrics.explored += 1;
            if pops & mask == 0 && (cancel.is_cancelled() || Instant::now() > deadline) {
                return SearchOutcome::TimedOut;
            }
            #[cfg(feature = "failpoints")]
            if let Some(action) = crate::faultpoint::hit("unify.expand") {
                match action {
                    crate::faultpoint::FaultAction::Panic => {
                        panic!("failpoint `unify.expand` injected panic")
                    }
                    crate::faultpoint::FaultAction::BudgetZero
                    | crate::faultpoint::FaultAction::ClockJump => return SearchOutcome::TimedOut,
                }
            }
            if mem.len() > cfg.max_configs {
                return SearchOutcome::TimedOut;
            }
            if let Some(ex) = search.completed(mem, idx as usize) {
                return SearchOutcome::Unifying(Box::new(ex));
            }
        }

        // Expand phase: side-effect-free, reads the arenas only.
        buf.clear();
        for &idx in &batch {
            search.successors(mem, idx, &mut buf);
        }

        // Merge phase: canonical batch order — dedup, intern, and commit
        // accepted candidates to the arenas.
        for cand in &buf.cands {
            if cand.cost > cfg.max_cost {
                cost_pruned = true;
                continue;
            }
            let parent = cand.parent as usize;
            let mut pend = [0u32; 2];
            for (p, out) in pend.iter_mut().enumerate() {
                *out = match cand.pend[p] {
                    PendRef::Keep => mem.pend[parent][p],
                    PendRef::Id(x) => x,
                    PendRef::New(slot) => mem.sets.intern_ref(&buf.new_sets[slot as usize]),
                };
            }
            let h = mix(mix(cand.hash, pend[0] as u64), pend[1] as u64);
            let new_idx = mem.len() as u32;
            let (flags, len) = (cand.flags, cand.len);
            // Dedup identity: flags, pending ids, and lengths compare
            // exactly; item content compares by the two per-parser
            // 64-bit positional hashes (a 128-bit fingerprint — for a
            // false merge one parser's polynomial hash must collide at
            // equal length, ~2^-64 per pair). Debug builds verify the
            // fingerprint against the actual cells.
            let inserted = visited.insert_with(h, new_idx, |other| {
                let o = other as usize;
                let eq = mem.flags[o] == flags
                    && mem.pend[o] == pend
                    && mem.ilen(o) == len
                    && mem.ihash[o] == cand.h;
                debug_assert!(
                    !eq || cand_items_eq(mem, cand, o),
                    "positional-hash fingerprint collision"
                );
                eq
            });
            if !inserted {
                metrics.deduped += 1;
                continue;
            }
            // Commit: copy the parent's persistent sequences and apply
            // the edits — the only point where cells are allocated, so
            // cell ids follow the canonical merge order.
            let mut iseq = mem.iseq[parent];
            let mut ifirst = mem.ifirst[parent];
            for p in 0..2 {
                match cand.op[p] {
                    ItemOp::Keep => {}
                    ItemOp::Prepend(v) => {
                        iseq[p] = iseq[p].prepend(&mut mem.icell, v);
                        ifirst[p] = v;
                    }
                    ItemOp::Append(v) => {
                        iseq[p] = iseq[p].append(&mut mem.icell, v);
                    }
                    ItemOp::Reduce { pops, goto_item } => {
                        iseq[p] = iseq[p]
                            .pop_back(&mut mem.icell, pops, &mut scratch)
                            .append(&mut mem.icell, goto_item);
                    }
                }
            }
            let mut dseq = mem.dseq[parent];
            for (p, d) in dseq.iter_mut().enumerate() {
                match cand.dd[p] {
                    DerivDesc::Keep => {}
                    DerivDesc::Prepend(leaf) => {
                        *d = d.prepend(&mut mem.dcell, leaf);
                    }
                    DerivDesc::Append(leaf) => {
                        *d = d.append(&mut mem.dcell, leaf);
                    }
                    DerivDesc::Reduce { pops, lhs } => {
                        d.read_back(&mem.dcell, pops, &mut popped, &mut scratch);
                        popped.reverse();
                        let off = mem.kids.extend(&popped);
                        let node = mem.nodes.push_node(lhs, off, pops);
                        *d = d
                            .pop_back(&mut mem.dcell, pops, &mut scratch)
                            .append(&mut mem.dcell, node);
                    }
                }
            }
            mem.cost.push(cand.cost);
            mem.flags.push(flags);
            mem.pend.push(pend);
            mem.iseq.push(iseq);
            mem.ifirst.push(ifirst);
            mem.ihash.push(cand.h);
            mem.dseq.push(dseq);
            queue.push(cand.cost, new_idx);
            metrics.enqueued += 1;
        }
        metrics.frontier_peak = metrics.frontier_peak.max(queue.len() as u64);
    }
    // A drained queue only proves exhaustion if nothing was cost-pruned.
    if cost_pruned {
        SearchOutcome::TimedOut
    } else {
        SearchOutcome::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lssi;
    use crate::report::ExampleKind;
    use crate::report::{Analyzer, CexConfig};
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
        unifying_search(g, &auto, &graph, c, &states, cfg)
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

    #[test]
    fn figure7_finds_unifying_examples() {
        // Figure 7: shortest-path prefix is incompatible with the second
        // shift item, so the outward search must reconstruct `n n a · b d c`.
        let g = Grammar::parse(
            "%% S : N | N 'c' ;
                N : 'n' N 'd' | 'n' N 'c' | 'n' A 'b' | 'n' B ;
                A : 'a' ;
                B : 'a' 'b' 'c' | 'a' 'b' 'd' ;",
        )
        .unwrap();
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
        let g = Grammar::parse("%% s : 'a' s | o ; o : | 'a' ;").unwrap();
        let report = Engine::new(&g).analyze_all(&CexConfig::default());
        assert!(!report.reports.is_empty());
        for r in &report.reports {
            if let Some(ex) = &r.unifying {
                assert!(unifying_consistent(&g, ex), "{:?}", ex);
            }
        }
        assert!(report.unifying_count() >= 1, "grammar is ambiguous");
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
    fn stride_does_not_change_search_counters() {
        // The stride only changes *when* the clock is consulted, never the
        // order of expansion: counters are identical for stride 1 and 256.
        let g = figure1();
        let mut counters = Vec::new();
        for stride in [1u32, 256] {
            let cancel = CancelToken::new();
            let cfg = SearchConfig {
                cancel_stride: stride,
                ..SearchConfig::default()
            };
            let mut m = SearchMetrics::default();
            let out = run_conflict_cancellable(&g, "digit", &cfg, &cancel, &mut m);
            assert!(matches!(out, SearchOutcome::Unifying(_)), "{out:?}");
            counters.push((m.explored, m.enqueued, m.deduped, m.frontier_peak));
        }
        assert_eq!(counters[0], counters[1]);
    }

    #[test]
    fn analyzer_reports_all_figure1_conflicts_unifying() {
        // Table 1 row figure1: 3 conflicts, 3 unifying.
        let g = figure1();
        let mut an = Analyzer::new(&g);
        let report = an.analyze_all(&CexConfig::default());
        assert_eq!(report.reports.len(), 3);
        assert_eq!(report.unifying_count(), 3);
        assert_eq!(report.exhausted_count(), 0);
        assert_eq!(report.timeout_count(), 0);
    }

    #[test]
    fn cumulative_budget_skips_search() {
        let g = figure1();
        let mut an = Analyzer::new(&g);
        let cfg = CexConfig {
            cumulative_limit: Duration::ZERO,
            ..CexConfig::default()
        };
        let report = an.analyze_all(&cfg);
        assert_eq!(report.unifying_count(), 0);
        assert!(report
            .reports
            .iter()
            .all(|r| r.kind() == Some(ExampleKind::NonunifyingSkipped)));
        // Nonunifying fallbacks are still produced.
        assert!(report.reports.iter().all(|r| r.nonunifying.is_some()));
    }
}
