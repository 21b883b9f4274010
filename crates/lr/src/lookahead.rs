//! LALR(1) lookaheads by DeRemer & Pennello's relations over the goto
//! graph ("Efficient Computation of LALR(1) Look-Ahead Sets", 1982).
//!
//! A *goto row* is a nonterminal transition `(p, A)`. Over the rows:
//!
//! * `DR(p, A)` — terminals shifted directly out of `goto(p, A)`;
//! * `(p, A) reads (r, C)` — `goto(p, A) = r` has a transition on a
//!   *nullable* nonterminal `C`, so whatever follows `C` can follow `A`;
//! * `(p, A) includes (p', B)` — a production `B -> β A γ` with
//!   `γ =>* ε`, where `p'` reaches `p` spelling `β`;
//! * `(q, B -> ω) lookback (p, B)` — `p` reaches `q` spelling `ω`.
//!
//! `Read` is `DR` closed over `reads`, `Follow` is `Read` closed over
//! `includes`, each by the paper's linear SCC algorithm ([`digraph`]). A
//! closure item `B -> · γ` of state `s` then has lookahead `Follow(s, B)`,
//! stored once per state, and an item with its dot at `k > 0` has the
//! union of its predecessors at `k - 1`, filled in one sweep by dot
//! position. The edges stay in [`Relations`] for provenance queries.

use lalrcex_grammar::{Analysis, Grammar, ProdId, SymbolId, TerminalSet};

use crate::automaton::{State, StateId};
use crate::item::Item;

/// Adjacency lists in one array: row `i`'s edges are
/// `edges[start[i]..start[i + 1]]`.
struct Csr<T> {
    start: Vec<u32>,
    edges: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Csr<T> {
        Csr {
            start: vec![0],
            edges: Vec::new(),
        }
    }
}

impl<T: Copy + Ord> Csr<T> {
    /// Groups `(row, edge)` pairs by row, each row sorted, dropping an
    /// edge when `same` holds for it and the edge kept before it.
    fn new(rows: usize, mut pairs: Vec<(u32, T)>, same: fn(&T, &T) -> bool) -> Csr<T> {
        pairs.sort_unstable();
        pairs.dedup_by(|later, kept| later.0 == kept.0 && same(&later.1, &kept.1));
        let mut start = vec![0u32; rows + 1];
        for &(row, _) in &pairs {
            start[row as usize + 1] += 1;
        }
        for i in 0..rows {
            start[i + 1] += start[i];
        }
        Csr {
            start,
            edges: pairs.into_iter().map(|(_, e)| e).collect(),
        }
    }
}

impl<T> Csr<T> {
    fn row(&self, i: usize) -> &[T] {
        &self.edges[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// The DeRemer–Pennello relations of an automaton, kept after the
/// lookaheads are computed so that provenance queries can walk them.
/// `Follow` rows live in their states (see [`crate::Automaton::follow`]).
pub struct Relations {
    /// Every goto row `(p, A)`, sorted by `(p, A)`.
    gotos: Vec<(StateId, SymbolId)>,
    /// The rows of state `p` are `row_start[p]..row_start[p + 1]`.
    row_start: Vec<u32>,
    /// `reads` successors per row.
    reads: Csr<u32>,
    /// `includes` successors per row, each with the smallest production
    /// `B -> β A γ` witnessing the edge.
    includes: Csr<(u32, ProdId)>,
    /// `(q, B -> ω, row)` for every `lookback` edge, sorted.
    lookback: Vec<(StateId, ProdId, u32)>,
}

impl Relations {
    /// Number of goto rows.
    pub fn goto_count(&self) -> usize {
        self.gotos.len()
    }

    /// The goto `(p, A)` of a row.
    pub fn goto(&self, row: usize) -> (StateId, SymbolId) {
        self.gotos[row]
    }

    /// The rows of state `p`.
    pub(crate) fn rows_of(&self, p: usize) -> std::ops::Range<usize> {
        self.row_start[p] as usize..self.row_start[p + 1] as usize
    }

    /// The row of goto `(p, a)`, if `p` has a transition on nonterminal `a`.
    pub fn row(&self, p: StateId, a: SymbolId) -> Option<usize> {
        let rows = self.rows_of(p.index());
        self.gotos[rows.clone()]
            .binary_search_by_key(&a, |&(_, s)| s)
            .ok()
            .map(|k| rows.start + k)
    }

    /// The `reads` successors of a row, in row order.
    pub fn reads(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.reads.row(row).iter().map(|&j| j as usize)
    }

    /// The `includes` successors of a row, in row order, each with the
    /// production that witnesses the edge.
    pub fn includes(&self, row: usize) -> impl Iterator<Item = (usize, ProdId)> + '_ {
        self.includes.row(row).iter().map(|&(j, p)| (j as usize, p))
    }

    /// The `lookback` rows of reduction `(q, prod)`: every goto
    /// `(p, lhs(prod))` with `p` reaching `q` spelling `rhs(prod)`, in row
    /// order.
    pub fn lookback(&self, q: StateId, prod: ProdId) -> impl Iterator<Item = usize> + '_ {
        let lo = self
            .lookback
            .partition_point(|&(s, p, _)| (s, p) < (q, prod));
        self.lookback[lo..]
            .iter()
            .take_while(move |&&(s, p, _)| (s, p) == (q, prod))
            .map(|&(_, _, row)| row as usize)
    }

    /// Estimated resident bytes of the rows and edges (the `Follow` sets
    /// are counted with their states).
    pub fn estimated_bytes(&self) -> usize {
        (self.row_start.len() + self.reads.start.len() + self.includes.start.len()) * 4
            + (self.gotos.len() + self.includes.edges.len()) * 8
            + self.reads.edges.len() * 4
            + self.lookback.len() * 12
    }
}

/// `(&mut v[dst], &v[src])` for distinct indices.
fn pair_mut<T>(v: &mut [T], dst: usize, src: usize) -> (&mut T, &T) {
    let (lo, hi) = v.split_at_mut(dst.max(src));
    if dst < src {
        (&mut lo[dst], &hi[0])
    } else {
        (&mut hi[0], &lo[src])
    }
}

/// `sets[dst] ∪= sets[src]`.
fn union_into(sets: &mut [TerminalSet], dst: usize, src: usize) {
    if dst != src {
        let (d, s) = pair_mut(sets, dst, src);
        d.union_with(s);
    }
}

/// Unions the lookahead of item `i` of state `s` into the advanced item in
/// its successor's (sorted) kernel.
fn pass_on(g: &Grammar, states: &mut [State], s: usize, i: usize) {
    let st = &states[s];
    let it = st.items[i];
    let Some(t) = it.next_symbol(g).and_then(|x| st.transition(x)) else {
        return;
    };
    let (t, k) = (t.index(), st.la_slot[i] as usize);
    let target = &states[t];
    let Ok(j) = target.items[..target.kernel_len].binary_search(&it.advance(g)) else {
        return;
    };
    if s == t {
        union_into(&mut states[s].sets, j, k);
    } else {
        let (dst, src) = pair_mut(states, t, s);
        dst.sets[j].union_with(&src.sets[k]);
    }
}

/// DeRemer & Pennello's `Digraph`: closes `sets` over `rel`
/// (`F(x) ⊇ F(y)` for every edge `x -> y`), giving every member of a
/// strongly connected component the same set (finished rows get depth
/// `u32::MAX`). Linear in rows plus edges, and iterative, so long relation
/// chains cannot overflow the stack.
fn digraph<T: Copy>(sets: &mut [TerminalSet], rel: &Csr<T>, to: fn(T) -> u32) {
    let mut depth = vec![0u32; sets.len()];
    let mut stack: Vec<u32> = Vec::new();
    // Call frames: (row, next edge offset, depth on entry).
    let mut calls: Vec<(u32, u32, u32)> = Vec::new();
    for root in 0..sets.len() as u32 {
        if depth[root as usize] != 0 {
            continue;
        }
        stack.push(root);
        depth[root as usize] = stack.len() as u32;
        calls.push((root, 0, stack.len() as u32));
        while let Some(frame) = calls.last_mut() {
            let (x, next, d) = *frame;
            if let Some(&e) = rel.row(x as usize).get(next as usize) {
                frame.1 += 1;
                let y = to(e);
                if depth[y as usize] == 0 {
                    stack.push(y);
                    depth[y as usize] = stack.len() as u32;
                    calls.push((y, 0, stack.len() as u32));
                } else {
                    depth[x as usize] = depth[x as usize].min(depth[y as usize]);
                    union_into(sets, x as usize, y as usize);
                }
                continue;
            }
            calls.pop();
            if depth[x as usize] == d {
                while let Some(top) = stack.pop() {
                    depth[top as usize] = u32::MAX;
                    union_into(sets, top as usize, x as usize);
                    if top == x {
                        break;
                    }
                }
            }
            if let Some(&(parent, _, _)) = calls.last() {
                depth[parent as usize] = depth[parent as usize].min(depth[x as usize]);
                union_into(sets, parent as usize, x as usize);
            }
        }
    }
}

/// Computes the relations over the LR(0) `states` and fills in every
/// state's lookahead sets and item slots.
pub(crate) fn annotate(g: &Grammar, analysis: &Analysis, states: &mut [State]) -> Relations {
    let nterm = g.terminal_count();
    let mut rel = Relations {
        gotos: Vec::new(),
        row_start: vec![0],
        reads: Csr::default(),
        includes: Csr::default(),
        lookback: Vec::new(),
    };
    for (p, st) in states.iter().enumerate() {
        for &(sym, _) in &st.transitions {
            if g.is_nonterminal(sym) {
                rel.gotos.push((StateId::from_index(p), sym));
            }
        }
        rel.row_start.push(rel.gotos.len() as u32);
    }
    let rows = rel.gotos.len();

    // DR and reads: look one step past each goto target.
    let mut follow = vec![TerminalSet::empty(nterm); rows];
    let mut reads = Vec::new();
    for (i, &(p, a)) in rel.gotos.iter().enumerate() {
        let Some(r) = states[p.index()].transition(a) else {
            continue;
        };
        for &(sym, _) in &states[r.index()].transitions {
            if g.is_terminal(sym) {
                follow[i].insert(g.tindex(sym));
            } else if analysis.nullable(sym) {
                if let Some(j) = rel.row(r, sym) {
                    reads.push((i as u32, j as u32));
                }
            }
        }
    }

    // includes and lookback: walk every production of B from each goto
    // (p, B); a missing transition ends the walk without an edge.
    let mut includes = Vec::new();
    for (j, &(p, b)) in rel.gotos.iter().enumerate() {
        for &pid in g.prods_of(b) {
            let rhs = g.prod(pid).rhs();
            // `rhs[k + 1..]` is nullable exactly when `k + 1 >= nullable_tail`.
            let nullable_tail = rhs
                .iter()
                .rposition(|&s| !analysis.nullable(s))
                .map_or(0, |k| k + 1);
            let mut cur = Some(p);
            for (k, &sym) in rhs.iter().enumerate() {
                let Some(s) = cur else {
                    break;
                };
                if k + 1 >= nullable_tail && g.is_nonterminal(sym) {
                    if let Some(i) = rel.row(s, sym) {
                        includes.push((i as u32, (j as u32, pid)));
                    }
                }
                cur = states[s.index()].transition(sym);
            }
            if let Some(q) = cur {
                rel.lookback.push((q, pid, j as u32));
            }
        }
    }
    rel.lookback.sort_unstable();
    rel.reads = Csr::new(rows, reads, |a, b| a == b);
    rel.includes = Csr::new(rows, includes, |a, b| a.0 == b.0);

    digraph(&mut follow, &rel.reads, |j| j);
    digraph(&mut follow, &rel.includes, |(j, _)| j);

    // Each state's sets: its kernel items', then its Follow rows. A
    // closure item `B -> · γ` points at the row of `(s, B)`.
    let mut follow = follow.into_iter();
    for (p, st) in states.iter_mut().enumerate() {
        let (kl, rows) = (st.kernel_len, rel.rows_of(p));
        st.sets = Vec::with_capacity(kl + rows.len());
        st.sets.resize(kl, TerminalSet::empty(nterm));
        st.sets.extend(follow.by_ref().take(rows.len()));
        st.la_slot = (0..kl as u32)
            .chain(std::iter::repeat(0))
            .take(st.items.len())
            .collect();
        for (k, row) in rows.enumerate() {
            for &pid in g.prods_of(rel.gotos[row].1) {
                if let Ok(i) = st.items[kl..].binary_search(&Item::start(pid)) {
                    st.la_slot[kl + i] = (kl + k) as u32;
                }
            }
        }
    }
    // The accept item `$accept -> · S $` is followed by end of input.
    states[0].sets[0].insert(g.tindex(SymbolId::EOF));

    // One sweep by dot position, so that every item's set is complete
    // before it is passed on: dot-0 items (closure items and the accept
    // item) first, then the other kernel items by dot.
    let mut kernel: Vec<(usize, usize)> = Vec::new();
    for s in 0..states.len() {
        for i in 0..states[s].items.len() {
            match states[s].items[i].dot() {
                0 => pass_on(g, states, s, i),
                _ => kernel.push((s, i)),
            }
        }
    }
    kernel.sort_unstable_by_key(|&(s, i)| states[s].items[i].dot());
    for (s, i) in kernel {
        pass_on(g, states, s, i);
    }
    rel
}
