//! Symbol identifiers and terminal bitsets.

use std::fmt;

/// Identifies a grammar symbol (terminal or nonterminal).
///
/// Symbol ids are dense indices into the owning [`Grammar`](crate::Grammar)'s
/// symbol table; they are only meaningful together with that grammar.
/// The end-of-input terminal is always [`SymbolId::EOF`], and the augmented
/// start nonterminal is created by the builder.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub(crate) u32);

impl SymbolId {
    /// The end-of-input marker, spelled `$end` (displayed as `$`).
    /// It is the first symbol of every grammar.
    pub const EOF: SymbolId = SymbolId(0);

    /// Raw dense index of this symbol in the grammar's symbol table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol id from a raw index previously obtained from
    /// [`SymbolId::index`]. The index must identify a symbol of the grammar
    /// it is used with.
    pub fn from_index(index: usize) -> SymbolId {
        SymbolId(index as u32)
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Whether a symbol is a terminal or a nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SymbolKind {
    /// A token of the input alphabet.
    Terminal,
    /// A symbol with productions.
    Nonterminal,
}

/// A set of terminals, stored as a dense bitset.
///
/// Lookahead sets — the workhorse of the PLDI'15 algorithm — are
/// `TerminalSet`s. The set is sized for a particular grammar (one bit per
/// terminal, indexed by the terminal's *dense terminal index*, not its
/// [`SymbolId`]); mixing sets from different grammars is a logic error.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TerminalSet {
    words: Box<[u64]>,
}

impl TerminalSet {
    /// Creates an empty set able to hold `nterminals` terminals.
    pub fn empty(nterminals: usize) -> TerminalSet {
        TerminalSet {
            words: vec![0u64; nterminals.div_ceil(64).max(1)].into_boxed_slice(),
        }
    }

    /// Creates a set containing a single terminal index.
    pub fn singleton(nterminals: usize, tindex: usize) -> TerminalSet {
        let mut s = TerminalSet::empty(nterminals);
        s.insert(tindex);
        s
    }

    /// Inserts terminal index `tindex`; returns `true` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `tindex` is out of range for this set.
    pub fn insert(&mut self, tindex: usize) -> bool {
        let w = &mut self.words[tindex / 64];
        let bit = 1u64 << (tindex % 64);
        let added = *w & bit == 0;
        *w |= bit;
        added
    }

    /// Tests membership of terminal index `tindex`.
    pub fn contains(&self, tindex: usize) -> bool {
        self.words
            .get(tindex / 64)
            .is_some_and(|w| w & (1u64 << (tindex % 64)) != 0)
    }

    /// Adds every element of `other`; returns `true` if `self` grew.
    pub fn union_with(&mut self, other: &TerminalSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        let mut grew = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let merged = *a | *b;
            grew |= merged != *a;
            *a = merged;
        }
        grew
    }

    /// Keeps only elements also in `other`.
    pub fn intersect_with(&mut self, other: &TerminalSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
    }

    /// Returns `true` if the sets share at least one element.
    pub fn intersects(&self, other: &TerminalSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Returns `true` if no terminal is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Bytes of the set, inline and on the heap.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<TerminalSet>() + std::mem::size_of_val(&*self.words)
    }

    /// Number of terminals in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the terminal indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(i * 64 + bit)
                }
            })
        })
    }
}

impl fmt::Debug for TerminalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = TerminalSet::empty(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn insert_and_contains_across_word_boundary() {
        let mut s = TerminalSet::empty(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn union_reports_growth() {
        let mut a = TerminalSet::empty(10);
        let mut b = TerminalSet::empty(10);
        a.insert(1);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.contains(1) && a.contains(2));
    }

    #[test]
    fn intersection() {
        let mut a = TerminalSet::empty(70);
        let mut b = TerminalSet::empty(70);
        a.insert(5);
        a.insert(65);
        b.insert(65);
        assert!(a.intersects(&b));
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![65]);
        let empty = TerminalSet::empty(70);
        assert!(!a.intersects(&empty));
    }

    #[test]
    fn singleton() {
        let s = TerminalSet::singleton(8, 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
    }

    #[test]
    fn zero_capacity_set_is_usable() {
        let s = TerminalSet::empty(0);
        assert!(s.is_empty());
    }
}
