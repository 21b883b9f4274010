//! LR(0) automaton construction with LALR(1) per-item lookahead sets.
//!
//! The states are built by the LR(0) canonical-collection construction;
//! their lookaheads come from one engine, DeRemer–Pennello's relations
//! over the goto graph (see the `lookahead` module), which gives *every*
//! item of every state — kernel and closure — the lookahead set shown in
//! the paper's Figure 2. Closure items share their state's `Follow` row
//! instead of holding a copy. The counterexample engine depends on these
//! per-item sets, and the provenance explanations walk the relation edges
//! the automaton keeps ([`Automaton::relations`]), so both read the same
//! computation rather than cross-checking two.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use lalrcex_grammar::{Analysis, Grammar, SymbolId, SymbolKind, TerminalSet};

use crate::item::Item;
use crate::lookahead::{self, Relations};
use crate::table::Tables;

/// Identifies a state of an [`Automaton`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The start state.
    pub const START: StateId = StateId(0);

    /// Dense index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a state id from an index obtained from
    /// [`StateId::index`].
    pub fn from_index(index: usize) -> StateId {
        StateId(index as u32)
    }
}

impl std::fmt::Debug for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state#{}", self.0)
    }
}

/// One parser state: items (kernel first), per-item lookahead sets, and
/// outgoing transitions.
pub struct State {
    pub(crate) items: Vec<Item>,
    pub(crate) kernel_len: usize,
    pub(crate) transitions: Vec<(SymbolId, StateId)>,
    accessing_symbol: Option<SymbolId>,
    /// Lookahead sets: one per kernel item, then `Follow(s, A)` for each
    /// goto row `(s, A)` of this state, in row order.
    pub(crate) sets: Vec<TerminalSet>,
    /// Each item's index into `sets`.
    pub(crate) la_slot: Vec<u32>,
}

impl State {
    /// All items: the kernel items first, then closure items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of kernel items (a prefix of [`State::items`]).
    pub fn kernel_len(&self) -> usize {
        self.kernel_len
    }

    /// LALR(1) lookahead set of the item at `idx` in [`State::items`].
    pub fn lookahead(&self, idx: usize) -> &TerminalSet {
        &self.sets[self.la_slot[idx] as usize]
    }

    /// Outgoing transitions, sorted by symbol.
    pub fn transitions(&self) -> &[(SymbolId, StateId)] {
        &self.transitions
    }

    /// The target of the transition on `sym`, if any.
    pub fn transition(&self, sym: SymbolId) -> Option<StateId> {
        self.transitions
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| self.transitions[i].1)
    }

    /// The symbol on which every transition *into* this state is made
    /// (`None` only for the start state).
    pub fn accessing_symbol(&self) -> Option<SymbolId> {
        self.accessing_symbol
    }

    /// Index of `item` within this state, or `None` if absent.
    pub fn item_index(&self, item: Item) -> Option<usize> {
        self.items.iter().position(|&i| i == item)
    }
}

/// The LR(0) automaton of a grammar, annotated with LALR(1) lookaheads.
pub struct Automaton {
    states: Vec<State>,
    analysis: Analysis,
    relations: Relations,
    build_times: (Duration, Duration),
}

/// LR(0) closure: expands `kernel` (kept first, in the given order) with
/// the start items of every nonterminal that appears after a dot.
///
/// `expanded[A] == epoch` marks nonterminal `A` as already expanded in this
/// closure; the caller bumps `epoch` per state, so the marks never need
/// clearing. Marking nonterminals instead of items is exact because the
/// start items added for `A` are exactly `A`'s productions, which no other
/// nonterminal shares. Only the start state's kernel holds a dot-0 item
/// (`$accept -> · start $end`); start items already in the kernel are
/// skipped.
fn closure(g: &Grammar, kernel: &[Item], expanded: &mut [u32], epoch: u32) -> Vec<Item> {
    let mut items: Vec<Item> = kernel.to_vec();
    let kernel_starts: Vec<Item> = kernel.iter().copied().filter(|it| it.dot() == 0).collect();
    let mut idx = 0;
    while idx < items.len() {
        let it = items[idx];
        idx += 1;
        if let Some(next) = it.next_symbol(g) {
            if g.kind(next) == SymbolKind::Nonterminal {
                let mark = &mut expanded[g.ntindex(next)];
                if *mark != epoch {
                    *mark = epoch;
                    items.extend(
                        g.prods_of(next)
                            .iter()
                            .map(|&pid| Item::start(pid))
                            .filter(|it| !kernel_starts.contains(it)),
                    );
                }
            }
        }
    }
    // Deterministic order for closure items (kernel keeps its order).
    items[kernel.len()..].sort_unstable();
    items
}

/// The multiply-rotate hash of rustc's `FxHasher`, for interning kernels:
/// much cheaper than the default SipHash on short runs of small integers.
/// Kernels are derived from the grammar, and a skewed grammar can only
/// slow its own construction, so flooding resistance buys nothing here.
#[derive(Default)]
struct KernelHasher(u64);

impl KernelHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KernelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Marks a symbol with no group in the state being expanded.
const NO_GROUP: u32 = u32::MAX;

impl Automaton {
    /// Builds the automaton (states, transitions, LALR(1) lookaheads).
    ///
    /// States are numbered in order of first appearance: the worklist
    /// expands states in id order, and each state's successors are created
    /// in the order their symbols first occur after a dot in its item list.
    pub fn build(g: &Grammar) -> Automaton {
        let t0 = Instant::now();
        let mut kernels: HashMap<Box<[Item]>, StateId, BuildHasherDefault<KernelHasher>> =
            HashMap::default();
        let mut expanded = vec![0u32; g.nonterminal_count()];
        let mut epoch = 1;
        let start_kernel = [Item::start(g.accept_prod())];
        kernels.insert(Box::new(start_kernel), StateId(0));
        let mut states = vec![State {
            items: closure(g, &start_kernel, &mut expanded, epoch),
            kernel_len: 1,
            transitions: Vec::new(),
            accessing_symbol: None,
            sets: Vec::new(),
            la_slot: Vec::new(),
        }];

        // Per symbol: its group's index in `group_syms` while one state is
        // expanded (reset to `NO_GROUP` afterwards).
        let mut group_of = vec![NO_GROUP; g.symbol_count()];
        let mut group_syms: Vec<SymbolId> = Vec::new();
        // Group `k` of the advanced items is `advanced[group_end[k - 1]..group_end[k]]`.
        let mut group_end: Vec<usize> = Vec::new();
        let mut advanced: Vec<Item> = Vec::new();
        let mut work = 0;
        while work < states.len() {
            // Group the advanced items by next symbol: count, then scatter.
            group_syms.clear();
            group_end.clear();
            for &it in &states[work].items {
                if let Some(next) = it.next_symbol(g) {
                    let k = &mut group_of[next.index()];
                    if *k == NO_GROUP {
                        *k = group_syms.len() as u32;
                        group_syms.push(next);
                        group_end.push(0);
                    }
                    group_end[*k as usize] += 1;
                }
            }
            let mut total = 0;
            for end in &mut group_end {
                total += std::mem::replace(end, total);
            }
            advanced.clear();
            advanced.resize(total, start_kernel[0]);
            for &it in &states[work].items {
                if let Some(next) = it.next_symbol(g) {
                    let cursor = &mut group_end[group_of[next.index()] as usize];
                    advanced[*cursor] = it.advance(g);
                    *cursor += 1;
                }
            }

            let mut transitions = Vec::with_capacity(group_syms.len());
            let mut lo = 0;
            for (&sym, &hi) in group_syms.iter().zip(&group_end) {
                group_of[sym.index()] = NO_GROUP;
                // Kernels stay sorted: the lookahead sweep searches them.
                // A state's items are distinct and advancing is injective,
                // so a kernel has no duplicates.
                let kernel = &mut advanced[lo..hi];
                lo = hi;
                kernel.sort_unstable();
                debug_assert!(kernel.windows(2).all(|w| w[0] != w[1]));
                let next_id = match kernels.get(&*kernel) {
                    Some(&id) => id,
                    None => {
                        let id = StateId(states.len() as u32);
                        kernels.insert(kernel.into(), id);
                        epoch += 1;
                        states.push(State {
                            items: closure(g, kernel, &mut expanded, epoch),
                            kernel_len: kernel.len(),
                            transitions: Vec::new(),
                            accessing_symbol: Some(sym),
                            sets: Vec::new(),
                            la_slot: Vec::new(),
                        });
                        id
                    }
                };
                transitions.push((sym, next_id));
            }
            transitions.sort_unstable_by_key(|&(s, _)| s);
            states[work].transitions = transitions;
            work += 1;
        }

        let t1 = Instant::now();
        let analysis = Analysis::new(g);
        let relations = lookahead::annotate(g, &analysis, &mut states);
        Automaton {
            states,
            analysis,
            relations,
            build_times: (t1 - t0, t1.elapsed()),
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// A state by id.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len() as u32).map(StateId)
    }

    /// The grammar analyses computed during construction.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The DeRemer–Pennello relations the lookaheads were computed from.
    pub fn relations(&self) -> &Relations {
        &self.relations
    }

    /// `Follow(p, A)` of a goto row of [`Automaton::relations`]: the
    /// lookahead of every closure item `A -> · γ` of `p`.
    pub fn follow(&self, row: usize) -> &TerminalSet {
        let (p, _) = self.relations.goto(row);
        let st = &self.states[p.index()];
        &st.sets[st.kernel_len + row - self.relations.rows_of(p.index()).start]
    }

    /// Construction time: the LR(0) states, then the grammar analyses,
    /// relations and per-item lookahead sets.
    pub fn build_times(&self) -> (Duration, Duration) {
        self.build_times
    }

    /// Builds action/goto tables, resolving conflicts by precedence and
    /// recording the rest. See [`Tables`].
    pub fn tables(&self, g: &Grammar) -> Tables {
        Tables::build(g, self)
    }

    /// Renders a state like the paper's Figure 2 (items with lookaheads,
    /// then transitions).
    pub fn dump_state(&self, g: &Grammar, id: StateId) -> String {
        let st = self.state(id);
        let mut out = format!("State {}\n", id.0);
        for (i, &it) in st.items().iter().enumerate() {
            let la: Vec<&str> = st
                .lookahead(i)
                .iter()
                .map(|t| g.display_name(g.terminal(t)))
                .collect();
            out.push_str(&format!("  {}  {{{}}}\n", it.display(g), la.join(", ")));
        }
        for &(sym, target) in st.transitions() {
            out.push_str(&format!(
                "  {} => State {}\n",
                g.display_name(sym),
                target.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalrcex_grammar::Grammar;

    /// The paper's Figure 1 grammar.
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

    #[test]
    fn figure1_state_count_matches_paper() {
        // Table 1 row `figure1`: 24 states.
        let g = figure1();
        let auto = Automaton::build(&g);
        assert_eq!(auto.state_count(), 24);
    }

    #[test]
    fn start_state_has_closure_of_start_symbol() {
        let g = figure1();
        let auto = Automaton::build(&g);
        let s0 = auto.state(StateId::START);
        assert_eq!(s0.kernel_len(), 1);
        // 1 accept + 4 stmt + 2 expr + 2 num items.
        assert_eq!(s0.items().len(), 9);
        assert_eq!(s0.accessing_symbol(), None);
    }

    #[test]
    fn accessing_symbols_are_consistent() {
        let g = figure1();
        let auto = Automaton::build(&g);
        for id in auto.state_ids() {
            for &(sym, target) in auto.state(id).transitions() {
                assert_eq!(auto.state(target).accessing_symbol(), Some(sym));
            }
        }
    }

    #[test]
    fn dangling_else_lookaheads() {
        // Find the state containing `stmt -> if expr then stmt ·` — its
        // lookahead must contain both `else` (enabling the conflict) and $.
        let g = figure1();
        let auto = Automaton::build(&g);
        let stmt = g.symbol_named("stmt").unwrap();
        let short_if = g.prods_of(stmt)[1];
        let else_t = g.tindex(g.symbol_named("else").unwrap());
        let eof = g.tindex(SymbolId::EOF);
        let mut found = false;
        for id in auto.state_ids() {
            let st = auto.state(id);
            for (i, &it) in st.items().iter().enumerate() {
                if it.prod() == short_if && it.is_reduce(&g) {
                    found = true;
                    assert!(
                        st.lookahead(i).contains(else_t),
                        "{}",
                        auto.dump_state(&g, id)
                    );
                    assert!(st.lookahead(i).contains(eof));
                    // That same state must also contain the long-if shift item.
                    let long_if = g.prods_of(stmt)[0];
                    let shift = Item::new(long_if, 4);
                    assert!(st.item_index(shift).is_some());
                }
            }
        }
        assert!(found, "reduce item never appeared");
    }

    #[test]
    fn closure_item_lookaheads_match_figure2() {
        // In Figure 2's State 6 the closure item `expr -> · num` has
        // lookahead {then, +}.
        let g = figure1();
        let auto = Automaton::build(&g);
        let s6 = auto
            .state(StateId::START)
            .transition(g.symbol_named("if").unwrap())
            .unwrap();
        let st = auto.state(s6);
        let expr = g.symbol_named("expr").unwrap();
        let num_prod = g.prods_of(expr)[0];
        let idx = st.item_index(Item::start(num_prod)).unwrap();
        let la = st.lookahead(idx);
        let then_t = g.tindex(g.symbol_named("then").unwrap());
        let plus_t = g.tindex(g.symbol_named("+").unwrap());
        assert!(la.contains(then_t));
        assert!(la.contains(plus_t));
        assert_eq!(la.len(), 2, "{}", auto.dump_state(&g, s6));
    }

    #[test]
    fn closure_never_repeats_a_kernel_item() {
        // A builder grammar may name the augmented start symbol on a
        // right-hand side, which puts `$accept -> · s $end` both in the
        // start state's kernel and in its closure.
        let mut b = lalrcex_grammar::GrammarBuilder::new();
        b.start("s");
        b.rule("s", &["$accept", "x"]);
        b.rule("s", &["y"]);
        let g = b.build().unwrap();
        let auto = Automaton::build(&g);
        for id in auto.state_ids() {
            let items = auto.state(id).items();
            for (i, it) in items.iter().enumerate() {
                assert!(!items[i + 1..].contains(it), "{}", auto.dump_state(&g, id));
            }
        }
    }

    #[test]
    fn lr0_grammar_has_deterministic_lookaheads() {
        let g = Grammar::parse("%% s : s A | A ;").unwrap();
        let auto = Automaton::build(&g);
        // Left-recursive list grammar: 4 LR(0) states + accept bookkeeping.
        assert!(auto.state_count() >= 4);
        // No state may contain two reduce items with intersecting lookaheads.
        for id in auto.state_ids() {
            let st = auto.state(id);
            let reduces: Vec<usize> = (0..st.items().len())
                .filter(|&i| st.items()[i].is_reduce(&g))
                .collect();
            for (a, &i) in reduces.iter().enumerate() {
                for &j in &reduces[a + 1..] {
                    assert!(!st.lookahead(i).intersects(st.lookahead(j)));
                }
            }
        }
    }
}
