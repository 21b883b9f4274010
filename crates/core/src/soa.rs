//! Data-oriented storage primitives for the unifying search (§5).
//!
//! The product-parser search expands millions of configurations on the big
//! Table 1 grammars; one heap-allocated record per configuration, with
//! owned item vectors and lookahead sets deep-cloned on every successor,
//! spends almost all of its time in `clone`/`drop`/`Vec::insert(0, …)`.
//! This module provides the flat storage a configuration's record uses
//! instead (its derivations are not stored at all; [`crate::search`]
//! rebuilds them by replay):
//!
//! * [`CellArena`] + [`Seq`] — item sequences as persistent
//!   double-ended sequences built from immutable cons cells.
//!   Every Figure 10 action edits a sequence at one end (prepend, append,
//!   or pop-a-suffix), so a successor shares its parent's cells and costs
//!   O(edit), not O(length). Flat per-configuration copies are quadratic
//!   on the deep, narrow frontiers of the Stack Overflow grammars (tens of
//!   gigabytes of memcpy for a 200k-configuration search); the cell
//!   representation keeps the whole search cache-resident. Each cell also
//!   carries a 64-bit membership signature of the list it heads, which
//!   answers most §5.4 duplicate checks without a walk.
//! * [`FactMap`] — the memo behind the duplicate checks the signatures
//!   cannot settle.
//! * [`SetInterner`] — hash-consed [`TerminalSet`]s so pending-lookahead
//!   constraints compare and hash as `u32` ids.
//! * [`BucketQueue`] — a radix-by-cost ring replacing the binary heap.
//!   Every Figure 10 action costs between 1 and
//!   `PRODUCTION_COST + DUPLICATE_PENALTY = 10`, so a 16-bucket ring covers
//!   the reachable cost window. Within a bucket the order is *explicitly*
//!   FIFO by enqueue sequence (the bucket is a vector), which pins the
//!   equal-cost tie order the old `BinaryHeap<Reverse<(cost, seq)>>` got
//!   from its tuple key. A configuration's cost is its bucket's, so no
//!   record stores one.
//! * [`Visited`] — an open-addressing dedup table over configuration
//!   indices; keys are *not* copied, equality is resolved against the
//!   arena by the caller's closure.
//!
//! The two hash tables, [`FactMap`] and [`Visited`], keep one `u64` per
//! slot, so a probe touches one memory word: on the capped searches both
//! tables outgrow the caches, and a second parallel array would double the
//! cache misses per probe.
//!
//! Everything here grows deterministically as a function of the insertion
//! sequence, so a search's footprint at a given configuration count is the
//! same on every run and at every worker count.

use std::collections::HashMap;

use lalrcex_grammar::TerminalSet;

/// Deterministic capacity growth: double from a fixed floor until `needed`
/// fits. `Vec`'s own amortized growth is also deterministic in practice,
/// but routing the big pools through one explicit policy pins it.
fn grow_to<T>(v: &mut Vec<T>, needed: usize) {
    if needed <= v.capacity() {
        return;
    }
    let mut cap = v.capacity().max(64);
    while cap < needed {
        cap *= 2;
    }
    v.reserve_exact(cap - v.len());
}

/// Sentinel id for an empty cons list.
pub const NIL: u32 = u32::MAX;

/// The membership-signature bit of item value `v`: one of 64, picked by
/// the low six bits of `v`. State-item ids are dense and a state's items
/// are numbered consecutively, so items near each other in a sequence
/// tend to get distinct bits. Against a scrambled bit this took a
/// single-worker java-ext1 run from 1.99 to 1.54 s (EXPERIMENTS.md).
#[inline]
fn sig_bit(v: u32) -> u64 {
    1 << (v & 63)
}

/// One cons cell. `sig` is the OR of [`sig_bit`] over every value in the
/// list this cell heads, so a value whose bit is clear is certainly absent
/// from that list (a signature has false positives, never false
/// negatives).
#[derive(Clone, Copy)]
struct Cell {
    val: u32,
    next: u32,
    sig: u64,
}

/// An append-only arena of immutable cons cells `(val, next)`.
///
/// Cells are only created at initialization and when the search commits
/// a new successor, in its canonical order, so the arena's contents are
/// identical at any worker count. A membership walk reads a cell's value,
/// link and signature together, so the three share one 16-byte record.
#[derive(Default)]
pub struct CellArena {
    cells: Vec<Cell>,
}

impl CellArena {
    /// An empty arena.
    pub fn new() -> CellArena {
        CellArena::default()
    }

    /// Cells allocated.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Allocates a new cell; `next` is an existing cell id or [`NIL`].
    pub fn cons(&mut self, val: u32, next: u32) -> u32 {
        let id = self.cells.len() as u32;
        let tail = if next == NIL { 0 } else { self.sig(next) };
        grow_to(&mut self.cells, id as usize + 1);
        self.cells.push(Cell {
            val,
            next,
            sig: sig_bit(val) | tail,
        });
        id
    }

    /// The value stored in cell `id`.
    pub fn val(&self, id: u32) -> u32 {
        self.cells[id as usize].val
    }

    /// The successor cell of `id` ([`NIL`] at the end of a list).
    pub fn next(&self, id: u32) -> u32 {
        self.cells[id as usize].next
    }

    /// The membership signature of the list headed by cell `id`.
    fn sig(&self, id: u32) -> u64 {
        self.cells[id as usize].sig
    }
}

/// A persistent double-ended sequence over a [`CellArena`].
///
/// `front` lists the leading items *in sequence order* (its head is the
/// first item), `back` lists the remaining items *reversed* (its head is
/// the last item) — the classic two-stack deque, made persistent by
/// sharing cells. Prepend and append are O(1); popping `n` items off the
/// back is O(n) while the back stack lasts, plus one O(front) rotation
/// when it runs dry (the rotated cells then serve later pops).
///
/// Invariant maintained by the search: `back` is never empty at rest, so
/// [`Seq::last`] is O(1). The first item is cached by the caller (it only
/// changes on prepend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seq {
    /// Head cell of the in-order prefix ([`NIL`] if empty).
    pub front: u32,
    /// Head cell of the reversed suffix.
    pub back: u32,
    /// Items in `front`.
    pub flen: u32,
    /// Items in `back`.
    pub blen: u32,
}

impl Seq {
    /// A one-item sequence (the item goes to the back stack).
    pub fn singleton(ar: &mut CellArena, v: u32) -> Seq {
        Seq {
            front: NIL,
            back: ar.cons(v, NIL),
            flen: 0,
            blen: 1,
        }
    }

    /// Total items.
    pub fn len(self) -> u32 {
        self.flen + self.blen
    }

    /// The last item (O(1) by the nonempty-back invariant).
    pub fn last(self, ar: &CellArena) -> u32 {
        debug_assert!(self.blen > 0, "back stack empty");
        ar.val(self.back)
    }

    /// `[v] ++ self`.
    pub fn prepend(self, ar: &mut CellArena, v: u32) -> Seq {
        Seq {
            front: ar.cons(v, self.front),
            flen: self.flen + 1,
            ..self
        }
    }

    /// `self ++ [v]`.
    pub fn append(self, ar: &mut CellArena, v: u32) -> Seq {
        Seq {
            back: ar.cons(v, self.back),
            blen: self.blen + 1,
            ..self
        }
    }

    /// The sequence without its last `n` items. Pure suffix sharing while
    /// the back stack covers the pops; otherwise the kept prefix is rotated
    /// into a fresh back stack (leaving `front` empty) so subsequent pops
    /// are cheap again.
    pub fn pop_back(self, ar: &mut CellArena, n: u32, scratch: &mut Vec<u32>) -> Seq {
        debug_assert!(n <= self.len());
        if n == 0 {
            return self;
        }
        if self.blen > n {
            let mut id = self.back;
            for _ in 0..n {
                id = ar.next(id);
            }
            return Seq {
                back: id,
                blen: self.blen - n,
                ..self
            };
        }
        let keep = self.len() - n;
        debug_assert!(keep <= self.flen);
        scratch.clear();
        let mut id = self.front;
        while id != NIL {
            scratch.push(ar.val(id));
            id = ar.next(id);
        }
        let mut back = NIL;
        for &v in &scratch[..keep as usize] {
            back = ar.cons(v, back);
        }
        Seq {
            front: NIL,
            back,
            flen: 0,
            blen: keep,
        }
    }

    /// Fills `out` with the last `n` item values, last first (so
    /// `out[0]` is the final item). `scratch` is used when the walk spills
    /// past the back stack into the front.
    pub fn read_back(self, ar: &CellArena, n: u32, out: &mut Vec<u32>, scratch: &mut Vec<u32>) {
        debug_assert!(n <= self.len());
        out.clear();
        let mut id = self.back;
        for _ in 0..n.min(self.blen) {
            out.push(ar.val(id));
            id = ar.next(id);
        }
        let missing = (n - n.min(self.blen)) as usize;
        if missing > 0 {
            scratch.clear();
            let mut f = self.front;
            while f != NIL {
                scratch.push(ar.val(f));
                f = ar.next(f);
            }
            out.extend(scratch[scratch.len() - missing..].iter().rev());
        }
    }

    /// Membership test; `from_back` picks the scan order (pure early-exit
    /// tuning — duplicates cluster near the edited end).
    #[cfg(test)]
    pub fn contains(self, ar: &CellArena, v: u32, from_back: bool) -> bool {
        let lists = if from_back {
            [self.back, self.front]
        } else {
            [self.front, self.back]
        };
        for mut id in lists {
            while id != NIL {
                if ar.val(id) == v {
                    return true;
                }
                id = ar.next(id);
            }
        }
        false
    }

    /// Membership test through the cells' signatures and a [`FactMap`]
    /// memo. A list whose head signature lacks `v`'s bit cannot hold `v`,
    /// which settles most §5.4 duplicate checks in one read. Cons cells are
    /// immutable, so "`v` occurs in the list headed by cell `c`" is a pure
    /// fact: each query the signature cannot settle stores its result keyed
    /// by `(head, v)`, and later walks stop at the nearest cell whose fact
    /// is already known or whose signature lacks the bit. On deep, narrow
    /// chains consecutive configurations probe the same handful of values
    /// one cell apart, turning O(length) scans into O(1) lookups — without
    /// this the §5.4 duplicate checks dominate the whole search. Exactness
    /// is unaffected: signatures have no false negatives and the memo holds
    /// only true facts, so any subset of entries, or no memo at all,
    /// yields identical answers.
    pub fn contains_memo(
        self,
        ar: &CellArena,
        v: u32,
        from_back: bool,
        mut memo: Option<&mut FactMap>,
    ) -> bool {
        let lists = if from_back {
            [self.back, self.front]
        } else {
            [self.front, self.back]
        };
        lists
            .into_iter()
            .any(|head| list_contains_memo(ar, head, v, memo.as_deref_mut()))
    }

    /// Appends the sequence's items, in order, to `out` (not cleared).
    pub fn materialize(self, ar: &CellArena, out: &mut Vec<u32>, scratch: &mut Vec<u32>) {
        let mut id = self.front;
        while id != NIL {
            out.push(ar.val(id));
            id = ar.next(id);
        }
        scratch.clear();
        let mut id = self.back;
        while id != NIL {
            scratch.push(ar.val(id));
            id = ar.next(id);
        }
        out.extend(scratch.iter().rev());
    }
}

/// Memoized walk behind [`Seq::contains_memo`]: does `v` occur in the
/// cons list starting at `head`?
fn list_contains_memo(ar: &CellArena, head: u32, v: u32, memo: Option<&mut FactMap>) -> bool {
    let bit = sig_bit(v);
    if head == NIL || ar.sig(head) & bit == 0 {
        return false;
    }
    let key = |id: u32| ((id as u64) << 32) | v as u64;
    let mut id = head;
    let found = loop {
        // Every later cell's signature is a subset of this one's.
        if id == NIL || ar.sig(id) & bit == 0 {
            break false;
        }
        if let Some(r) = memo.as_deref().and_then(|m| m.get(key(id))) {
            break r;
        }
        if ar.val(id) == v {
            break true;
        }
        id = ar.next(id);
    };
    if let Some(m) = memo {
        m.insert(key(head), found);
    }
    found
}

/// Empty [`FactMap`] slot. A key's high half is a cell id, never [`NIL`],
/// so no stored slot has all bits set.
const EMPTY_FACT: u64 = u64::MAX;

/// The slot bit of a [`FactMap`] entry holding its fact: the top bit of
/// the key's low half, which is free while every value is below
/// [`FACT_VALUE_LIMIT`].
const FACT_BIT: u64 = 1 << 31;

/// Values of [`FactMap`] keys must stay below this bound; a search checks
/// its state-item count against it once before it uses a memo.
pub const FACT_VALUE_LIMIT: usize = 1 << 31;

/// An insert-only open-addressing map from 64-bit keys `(cell << 32) |
/// value` to booleans, recording immutable facts (memoized cons-list
/// membership). Each slot is one word: the key with its fact in
/// [`FACT_BIT`]. Entries are never deleted or changed, so probing needs no
/// tombstones and a repeated insert is a no-op. The search keeps one per
/// conflict.
#[derive(Default)]
pub struct FactMap {
    slots: Vec<u64>,
    len: usize,
}

impl FactMap {
    /// The recorded fact for `k`, if any.
    pub fn get(&self, k: u64) -> Option<bool> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(0xFAC7, k) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY_FACT {
                return None;
            }
            if s & !FACT_BIT == k {
                return Some(s & FACT_BIT != 0);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records the fact `k -> v` (a no-op if `k` is already present).
    pub fn insert(&mut self, k: u64, v: bool) {
        debug_assert!(k & FACT_BIT == 0, "fact key value half too large");
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(0xFAC7, k) as usize & mask;
        while self.slots[i] != EMPTY_FACT {
            if self.slots[i] & !FACT_BIT == k {
                return;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = k | if v { FACT_BIT } else { 0 };
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_FACT; cap]);
        let mask = cap - 1;
        for s in old.into_iter().filter(|&s| s != EMPTY_FACT) {
            let mut i = mix(0xFAC7, s & !FACT_BIT) as usize & mask;
            while self.slots[i] != EMPTY_FACT {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Multiplier of the positional sequence hash
/// `H(s) = Σ itemh(s[i]) · SEQ_X^(len-1-i) mod 2^64`. The hash is a pure
/// function of the item values, so it is independent of a [`Seq`]'s
/// front/back split, and every sequence edit updates it incrementally:
/// append multiplies by `SEQ_X`, prepend adds at weight `SEQ_X^len`, and a
/// pop divides the stripped hash by `SEQ_X^n` — `SEQ_X` is odd, hence
/// invertible mod 2^64.
pub const SEQ_X: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative inverse of [`SEQ_X`] mod 2^64.
pub const SEQ_XINV: u64 = mul_inv64(SEQ_X);

/// Inverse of an odd `a` mod 2^64 by Newton–Hensel lifting (each step
/// doubles the number of correct low bits; 6 steps cover 64).
const fn mul_inv64(a: u64) -> u64 {
    let mut x = a;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// `base^n` mod 2^64 by binary exponentiation.
pub fn wpow(base: u64, mut n: u64) -> u64 {
    let mut acc = 1u64;
    let mut b = base;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(b);
        }
        b = b.wrapping_mul(b);
        n >>= 1;
    }
    acc
}

/// Per-item scramble feeding the positional hash.
#[inline]
pub fn itemh(v: u32) -> u64 {
    mix(0x00C0_FFEE, v as u64)
}

/// Pending-constraint id meaning "no constraint".
pub const NO_PENDING: u32 = u32::MAX;

/// Hash-consed [`TerminalSet`]s: ids are insertion order, so interning the
/// same sequence of sets always yields the same ids.
#[derive(Default)]
pub struct SetInterner {
    map: HashMap<TerminalSet, u32>,
    sets: Vec<TerminalSet>,
}

impl SetInterner {
    /// An empty interner.
    pub fn new() -> SetInterner {
        SetInterner::default()
    }

    /// Interns a set; the first sight of a set takes the next id.
    pub fn intern(&mut self, s: TerminalSet) -> u32 {
        if let Some(&id) = self.map.get(&s) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(s.clone());
        self.map.insert(s, id);
        id
    }

    /// The set behind an id.
    pub fn get(&self, id: u32) -> &TerminalSet {
        &self.sets[id as usize]
    }

    /// Number of distinct sets interned.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether nothing has been interned.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Ring size of the bucket queue; must exceed the maximum single-action
/// cost (`PRODUCTION_COST + DUPLICATE_PENALTY = 10`).
pub const COST_RING: usize = 16;

/// A radix-by-cost FIFO queue over configuration indices.
///
/// Because every search action costs at least 1, a popped bucket never
/// receives new entries while it is being processed: the search can take
/// the *entire* current-cost bucket as one batch and expand it in the
/// bucket's FIFO order.
pub struct BucketQueue {
    buckets: Vec<Vec<u32>>,
    cur: u32,
    live: usize,
}

impl Default for BucketQueue {
    fn default() -> BucketQueue {
        BucketQueue::new()
    }
}

impl BucketQueue {
    /// An empty queue positioned at cost 0.
    pub fn new() -> BucketQueue {
        BucketQueue {
            buckets: (0..COST_RING).map(|_| Vec::new()).collect(),
            cur: 0,
            live: 0,
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the queue is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Enqueues `idx` at `cost`. The cost must lie in the ring window
    /// `[current, current + COST_RING)`, which every Figure 10 action
    /// satisfies.
    pub fn push(&mut self, cost: u32, idx: u32) {
        debug_assert!(
            cost >= self.cur && cost < self.cur + COST_RING as u32,
            "cost {cost} outside ring window at {}",
            self.cur
        );
        let b = &mut self.buckets[cost as usize % COST_RING];
        grow_to(b, b.len() + 1);
        b.push(idx);
        self.live += 1;
    }

    /// Drains the lowest nonempty cost bucket into `out` (cleared first),
    /// preserving enqueue order, and returns that cost. `None` when empty.
    pub fn pop_bucket(&mut self, out: &mut Vec<u32>) -> Option<u32> {
        out.clear();
        if self.live == 0 {
            return None;
        }
        loop {
            let b = &mut self.buckets[self.cur as usize % COST_RING];
            if !b.is_empty() {
                self.live -= b.len();
                out.append(b);
                return Some(self.cur);
            }
            self.cur += 1;
        }
    }
}

/// Empty [`Visited`] slot. A stored slot's low half is a configuration
/// index, never `u32::MAX`.
const VACANT: u64 = u64::MAX;

/// Open-addressing dedup table over configuration indices.
///
/// Each slot is one word: a 32-bit tag (the hash's top half) above the
/// configuration index. The home slot is the tag's top bits, so growth
/// rehashes from the stored tag alone. The tag only filters: on a tag hit
/// the caller's closure decides equality against its arena, so the table
/// never stores keys, accepted configurations pay no key copy, and
/// rejected candidates allocate nothing.
pub struct Visited {
    slots: Vec<u64>,
    /// `32 - log2(capacity)`, saturating: the home slot is `tag >> shift`.
    shift: u32,
    len: usize,
}

impl Default for Visited {
    fn default() -> Visited {
        Visited::new()
    }
}

impl Visited {
    /// An empty table.
    pub fn new() -> Visited {
        Visited::with_capacity(64)
    }

    /// An empty table of `cap` slots (a power of two).
    fn with_capacity(cap: usize) -> Visited {
        Visited {
            slots: vec![VACANT; cap],
            shift: 32u32.saturating_sub(cap.trailing_zeros()),
            len: 0,
        }
    }

    /// Entries stored.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `idx` under `hash` unless an equal entry exists; returns
    /// `true` if inserted. `eq(other)` must answer whether the candidate
    /// equals the already-stored configuration `other`.
    pub fn insert_with(&mut self, hash: u64, idx: u32, mut eq: impl FnMut(u32) -> bool) -> bool {
        debug_assert!(idx != u32::MAX, "configuration index collides with VACANT");
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let tag = (hash >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut slot = (tag >> self.shift) as usize;
        loop {
            let s = self.slots[slot];
            if s == VACANT {
                self.slots[slot] = ((tag as u64) << 32) | idx as u64;
                self.len += 1;
                return true;
            }
            if (s >> 32) as u32 == tag && eq(s as u32) {
                return false;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot that [`Visited::insert_with`] probes first for `hash`, as
    /// the table stands now. Reading the home slots of a batch of hashes
    /// ahead of inserting them lets those loads overlap.
    pub fn home_word(&self, hash: u64) -> u64 {
        self.slots[((hash >> 32) as u32 >> self.shift) as usize]
    }

    fn grow(&mut self) {
        let old = std::mem::replace(self, Visited::with_capacity(self.slots.len() * 2));
        self.len = old.len;
        let mask = self.slots.len() - 1;
        for s in old.slots.into_iter().filter(|&s| s != VACANT) {
            let mut slot = ((s >> 32) as u32 >> self.shift) as usize;
            while self.slots[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = s;
        }
    }
}

/// Mixes one word into a running hash (splitmix-style).
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Hashes a word slice with a seed.
#[cfg(test)]
#[inline]
pub fn hash_words(seed: u64, words: &[u32]) -> u64 {
    let mut h = mix(seed, words.len() as u64);
    for &w in words {
        h = mix(h, w as u64);
    }
    h ^ (h >> 31)
}

/// The workspace's test PRNG, shared with the root crate's suites.
#[cfg(test)]
#[allow(dead_code)] // the suites here use only part of its API
#[path = "../../../src/prng.rs"]
mod prng;

#[cfg(test)]
mod tests {
    use super::*;

    fn items(ar: &CellArena, s: Seq) -> Vec<u32> {
        let (mut out, mut sc) = (Vec::new(), Vec::new());
        s.materialize(ar, &mut out, &mut sc);
        out
    }

    #[test]
    fn seq_deque_ops_share_cells() {
        let mut ar = CellArena::new();
        let mut sc = Vec::new();
        let s = Seq::singleton(&mut ar, 5)
            .prepend(&mut ar, 4)
            .prepend(&mut ar, 3)
            .append(&mut ar, 6); // [3, 4, 5, 6]
        assert_eq!(items(&ar, s), [3, 4, 5, 6]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.last(&ar), 6);
        assert!(s.contains(&ar, 4, false));
        assert!(s.contains(&ar, 4, true));
        assert!(!s.contains(&ar, 9, false));

        let mut vals = Vec::new();
        s.read_back(&ar, 3, &mut vals, &mut sc);
        assert_eq!(vals, [6, 5, 4], "last first, spilling into the front");

        // Pop within the back stack: pure sharing, no new cells.
        let cells = ar.len();
        let t = s.pop_back(&mut ar, 1, &mut sc);
        assert_eq!(ar.len(), cells, "suffix pop allocates nothing");
        assert_eq!(items(&ar, t), [3, 4, 5]);

        // Pop past the back stack: the kept prefix rotates into the back.
        let r = s.pop_back(&mut ar, 2, &mut sc);
        assert_eq!(items(&ar, r), [3, 4]);
        assert_eq!(r.flen, 0, "rotation loads the back stack");
        assert_eq!(r.last(&ar), 4);

        // Persistence: the source sequence is untouched.
        assert_eq!(items(&ar, s), [3, 4, 5, 6]);
    }

    #[test]
    fn positional_hash_is_invertible_and_split_free() {
        assert_eq!(SEQ_X.wrapping_mul(SEQ_XINV), 1, "SEQ_X must be odd");
        assert_eq!(wpow(SEQ_X, 7).wrapping_mul(wpow(SEQ_XINV, 7)), 1);

        // H([a, b]) built by append equals H built by prepend.
        let (a, b) = (itemh(17), itemh(42));
        let by_append = a.wrapping_mul(SEQ_X).wrapping_add(b);
        let by_prepend = b.wrapping_add(a.wrapping_mul(wpow(SEQ_X, 1)));
        assert_eq!(by_append, by_prepend);

        // Popping the last item of [a, b] recovers H([a]).
        let popped = by_append.wrapping_sub(b).wrapping_mul(SEQ_XINV);
        assert_eq!(popped, a);
    }

    #[test]
    fn fact_map_round_trips_across_growth_at_key_extremes() {
        let key = |head: u32, v: u32| ((head as u64) << 32) | v as u64;
        let (hi, vmax) = (NIL - 1, FACT_VALUE_LIMIT as u32 - 1);
        // Each extreme head and each extreme value carries both facts.
        let extremes = [
            (key(0, 0), true),
            (key(0, vmax), false),
            (key(hi, 0), false),
            (key(hi, vmax), true),
        ];
        let fillers = (1..=5000u32).map(|i| (key(i, i.wrapping_mul(7919) % vmax), i % 3 == 0));
        let facts: Vec<(u64, bool)> = extremes.into_iter().chain(fillers).collect();

        let mut m = FactMap::default();
        assert_eq!(m.get(key(0, 0)), None);
        for &(k, f) in &facts {
            m.insert(k, f);
        }
        // Far past the 1024-slot floor: three growths.
        assert!(m.slots.len() >= 8192, "{} slots", m.slots.len());
        for &(k, f) in &facts {
            m.insert(k, !f); // a repeated insert is a no-op
        }
        for &(k, f) in &facts {
            assert_eq!(m.get(k), Some(f), "fact {k:#x} lost");
        }
        assert_eq!(m.get(key(hi - 1, vmax)), None);
        assert_eq!(m.get(key(6000, 0)), None);
    }

    /// Random prepends, appends and `pop_back`s over a pool of sequences
    /// that share cells, as a search frontier does. More values than
    /// signature bits, so signatures collide and walks are exercised; the
    /// memo lives across all queries, so answers come cold and warm.
    #[test]
    fn signature_membership_matches_plain_walk() {
        const VALUES: u32 = 150;
        let mut rng = prng::XorShift::new(0x5167);
        let ar = &mut CellArena::new();
        let sc = &mut Vec::new();
        let memo = &mut FactMap::default();
        let mut pool = vec![Seq::singleton(ar, 0)];
        for step in 0..1500 {
            let s = pool[rng.gen_range(pool.len())];
            let v = rng.gen_range(VALUES as usize) as u32;
            let t = match rng.gen_range(3) {
                0 => s.prepend(ar, v),
                1 => s.append(ar, v),
                _ if s.len() > 1 => {
                    let n = 1 + rng.gen_range(s.len() as usize - 1) as u32;
                    s.pop_back(ar, n, sc)
                }
                _ => s.append(ar, v),
            };
            pool.push(t);
            for v in 0..VALUES {
                let want = t.contains(ar, v, false);
                for from_back in [false, true] {
                    assert_eq!(t.contains(ar, v, from_back), want);
                    assert_eq!(
                        t.contains_memo(ar, v, from_back, Some(&mut *memo)),
                        want,
                        "step {step}, value {v}, memo"
                    );
                    assert_eq!(
                        t.contains_memo(ar, v, from_back, None),
                        want,
                        "step {step}, value {v}, no memo"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_queue_is_fifo_within_cost() {
        let mut q = BucketQueue::new();
        q.push(2, 10);
        q.push(1, 20);
        q.push(2, 30);
        q.push(1, 40);
        let mut out = Vec::new();
        assert_eq!(q.pop_bucket(&mut out), Some(1));
        assert_eq!(out, vec![20, 40], "enqueue order, not heap order");
        assert_eq!(q.pop_bucket(&mut out), Some(2));
        assert_eq!(out, vec![10, 30]);
        assert_eq!(q.pop_bucket(&mut out), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_queue_ring_wraps() {
        let mut q = BucketQueue::new();
        let mut out = Vec::new();
        let mut cost = 0;
        for step in 0..100u32 {
            let pushed = cost + 1 + (step % 10);
            q.push(pushed, step);
            let got = q.pop_bucket(&mut out).unwrap();
            assert_eq!(got, pushed, "single live entry pops at its own cost");
            assert_eq!(out, vec![step]);
            cost = got;
        }
    }

    #[test]
    fn visited_dedups_by_closure_equality() {
        let mut v = Visited::new();
        assert!(v.is_empty());
        assert!(v.insert_with(7, 0, |_| false));
        // Same hash, closure says "different config": both kept.
        assert!(v.insert_with(7, 1, |_| false));
        // Same hash, closure recognizes an existing entry: rejected.
        assert!(!v.insert_with(7, 2, |o| o == 1));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn visited_keeps_every_entry_across_growth() {
        // One in ten hashes shares a single 32-bit tag, one in ten shares
        // the top 16 tag bits (one home slot up to 2^16 slots), the rest
        // spread.
        let hashes: Vec<u64> = (0..30_000u64)
            .map(|i| match i % 10 {
                0 => 0xDEAD_BEEF_0000_0000 | i,
                1 => (0x1234_0000 | (i & 0xFFFF)) << 32 | i,
                _ => hash_words(1, &[i as u32]),
            })
            .collect();
        let mut v = Visited::new();
        let first_cap = v.slots.len();
        for (i, &h) in hashes.iter().enumerate() {
            assert!(v.insert_with(h, i as u32, |o| hashes[o as usize] == h));
        }
        assert_eq!(v.len(), hashes.len());
        assert!(v.slots.len() >= first_cap << 10, "fewer than 10 growths");
        let n = hashes.len() as u32;
        for (i, &h) in hashes.iter().enumerate() {
            assert!(
                !v.insert_with(h, n + i as u32, |o| o == i as u32),
                "entry {i} lost in rehash"
            );
        }
        assert_eq!(v.len(), hashes.len());
    }

    #[test]
    fn interner_ids_follow_insertion_order() {
        let mut it = SetInterner::new();
        assert!(it.is_empty());
        let a = TerminalSet::singleton(10, 1);
        let b = TerminalSet::singleton(10, 2);
        assert_eq!(it.intern(a.clone()), 0);
        assert_eq!(it.intern(b.clone()), 1);
        assert_eq!(it.intern(a), 0, "re-interning is stable");
        assert_eq!(it.get(1), &b);
        assert_eq!(it.len(), 2);
    }
}
