//! The state-item graph: nodes are (state, item) pairs, edges are the
//! transitions and production steps of the paper's lookahead-sensitive
//! graph (§4, Figure 4) with the lookahead component factored out, plus
//! precomputed reverse edges for the backward searches of §5.3 and §6.

use lalrcex_grammar::{Grammar, SymbolId, SymbolKind, TerminalSet};
use lalrcex_lr::{Automaton, Item, StateId};

/// Identifies a node of a [`StateGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateItemId(u32);

impl StateItemId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The node with dense index `index`. Inverse of [`StateItemId::index`];
    /// only meaningful for indices below the owning graph's
    /// [`StateGraph::node_count`].
    pub fn from_index(index: usize) -> StateItemId {
        StateItemId(index as u32)
    }
}

impl std::fmt::Debug for StateItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "si#{}", self.0)
    }
}

/// A dense bitset over the nodes of a [`StateGraph`] (64× smaller than the
/// former `Vec<bool>` — reachability sets for the big Table 1 grammars
/// cover thousands of state-items and are built once per conflict spine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSet {
    bits: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set sized for `n` nodes.
    pub fn new(n: usize) -> NodeSet {
        NodeSet {
            bits: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Inserts `i`; returns `true` if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The (state, item) graph over an LALR automaton.
///
/// Lookup tables are built once per grammar (the paper's §6 "Data
/// structures": "our implementation generates several lookup tables for
/// these actions" before working on the first conflict).
pub struct StateGraph {
    nodes: Vec<(StateId, Item)>,
    /// Per state, the ids of its first node and of its first closure node,
    /// then a final `[n, n]`. A state's nodes follow its item list, whose
    /// kernel run and closure run are each sorted, so [`Self::get_node`]
    /// binary-searches the two runs, and a node's index in its state's
    /// item list (for [`Self::lookahead`]) is its distance from the
    /// state's first node.
    runs: Vec<[u32; 2]>,
    /// Forward transition (dot advance into the goto state), if any.
    trans: Vec<Option<StateItemId>>,
    /// Production steps: `(s, A -> α · B β)` to every `(s, B -> · γ)`.
    prods: Csr,
    /// Reverse transitions.
    rev_trans: Csr,
    /// Reverse production steps.
    rev_prods: Csr,
}

/// Compressed sparse rows: the per-node adjacency lists of a finished graph
/// packed into one offsets array plus one data array, so the search's inner
/// loops walk contiguous memory instead of a `Vec<Vec<_>>` of separate
/// allocations.
#[derive(Default)]
struct Csr {
    offs: Vec<u32>,
    data: Vec<StateItemId>,
}

impl Csr {
    fn build(rows: Vec<Vec<StateItemId>>) -> Csr {
        let mut offs = Vec::with_capacity(rows.len() + 1);
        let mut data = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        offs.push(0);
        for row in rows {
            data.extend_from_slice(&row);
            offs.push(data.len() as u32);
        }
        Csr { offs, data }
    }

    fn row(&self, i: usize) -> &[StateItemId] {
        &self.data[self.offs[i] as usize..self.offs[i + 1] as usize]
    }
}

impl StateGraph {
    /// Builds the graph and its reverse-edge tables.
    pub fn build(g: &Grammar, auto: &Automaton) -> StateGraph {
        // Nodes run state by state in item order.
        let mut nodes = Vec::new();
        let mut runs = Vec::with_capacity(auto.state_count() + 1);
        for sid in auto.state_ids() {
            let st = auto.state(sid);
            let first = nodes.len() as u32;
            runs.push([first, first + st.kernel_len() as u32]);
            nodes.extend(st.items().iter().map(|&it| (sid, it)));
        }
        let n = nodes.len();
        runs.push([n as u32; 2]);
        let mut graph = StateGraph {
            nodes,
            runs,
            trans: vec![None; n],
            prods: Csr::default(),
            rev_trans: Csr::default(),
            rev_prods: Csr::default(),
        };
        let mut prods = vec![Vec::new(); n];
        let mut rev_trans = vec![Vec::new(); n];
        let mut rev_prods = vec![Vec::new(); n];

        for (i, &(sid, it)) in graph.nodes.iter().enumerate() {
            let st = auto.state(sid);
            if let Some(next) = it.next_symbol(g) {
                // Transition edge.
                let target_state = st
                    .transition(next)
                    .expect("state has transition for every item's next symbol");
                let target = graph.node(target_state, it.advance(g));
                graph.trans[i] = Some(target);
                rev_trans[target.index()].push(StateItemId(i as u32));
                // Production-step edges.
                if g.kind(next) == SymbolKind::Nonterminal {
                    for &pid in g.prods_of(next) {
                        let target = graph.node(sid, Item::start(pid));
                        prods[i].push(target);
                        rev_prods[target.index()].push(StateItemId(i as u32));
                    }
                }
            }
        }

        graph.prods = Csr::build(prods);
        graph.rev_trans = Csr::build(rev_trans);
        graph.rev_prods = Csr::build(rev_prods);
        graph
    }

    /// Number of nodes (total items across all states).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node for `(state, item)`.
    ///
    /// # Panics
    ///
    /// Panics if the item is not part of the state.
    pub fn node(&self, state: StateId, item: Item) -> StateItemId {
        self.get_node(state, item).expect("item is in the state")
    }

    /// The node for `(state, item)`, or `None` if the item is not in the
    /// state.
    pub fn get_node(&self, state: StateId, item: Item) -> Option<StateItemId> {
        let s = state.index();
        let (&[first, closure], &[end, _]) = (self.runs.get(s)?, self.runs.get(s + 1)?);
        [first..closure, closure..end].into_iter().find_map(|run| {
            let items = &self.nodes[run.start as usize..run.end as usize];
            let i = items.binary_search_by(|&(_, it)| it.cmp(&item)).ok()?;
            Some(StateItemId(run.start + i as u32))
        })
    }

    /// The state of a node.
    pub fn state(&self, id: StateItemId) -> StateId {
        self.nodes[id.index()].0
    }

    /// The item of a node.
    pub fn item(&self, id: StateItemId) -> Item {
        self.nodes[id.index()].1
    }

    /// Forward transition (dot advance), if the item is not a reduce item.
    pub fn transition(&self, id: StateItemId) -> Option<StateItemId> {
        self.trans[id.index()]
    }

    /// Production-step successors.
    pub fn production_steps(&self, id: StateItemId) -> &[StateItemId] {
        self.prods.row(id.index())
    }

    /// Reverse transitions: every node whose transition leads here.
    pub fn reverse_transitions(&self, id: StateItemId) -> &[StateItemId] {
        self.rev_trans.row(id.index())
    }

    /// Reverse production steps: every node with a production step here.
    pub fn reverse_production_steps(&self, id: StateItemId) -> &[StateItemId] {
        self.rev_prods.row(id.index())
    }

    /// The LALR(1) lookahead set of a node's item.
    pub fn lookahead<'a>(&self, auto: &'a Automaton, id: StateItemId) -> &'a TerminalSet {
        let sid = self.nodes[id.index()].0;
        let slot = id.0 - self.runs[sid.index()][0];
        auto.state(sid).lookahead(slot as usize)
    }

    /// Set of nodes that can reach `target` through reverse transitions and
    /// reverse production steps (the §6 pruning for the shortest
    /// lookahead-sensitive path search).
    pub fn reaching_set(&self, target: StateItemId) -> NodeSet {
        let mut seen = NodeSet::new(self.nodes.len());
        let mut stack = vec![target];
        seen.insert(target.index());
        while let Some(id) = stack.pop() {
            for &p in self
                .rev_trans
                .row(id.index())
                .iter()
                .chain(self.rev_prods.row(id.index()))
            {
                if seen.insert(p.index()) {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// The symbol consumed by the transition *into* this node (the symbol
    /// before its dot). `None` for dot-at-start items.
    pub fn accessing_symbol(&self, g: &Grammar, id: StateItemId) -> Option<SymbolId> {
        self.item(id).prev_symbol(g)
    }

    /// Renders a node like `(7, stmt -> if expr · then stmt)`.
    pub fn display(&self, g: &Grammar, id: StateItemId) -> String {
        let (sid, it) = self.nodes[id.index()];
        format!("({}, {})", sid.index(), it.display(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalrcex_grammar::Grammar;
    use lalrcex_lr::Automaton;

    fn setup(src: &str) -> (Grammar, Automaton) {
        let g = Grammar::parse(src).unwrap();
        let auto = Automaton::build(&g);
        (g, auto)
    }

    #[test]
    fn node_count_is_total_items() {
        let (g, auto) = setup("%% s : A s | B ;");
        let graph = StateGraph::build(&g, &auto);
        let total: usize = auto
            .state_ids()
            .map(|id| auto.state(id).items().len())
            .sum();
        assert_eq!(graph.node_count(), total);
    }

    #[test]
    fn transitions_align_with_automaton() {
        let (g, auto) = setup("%% s : 'if' e 'then' s | X ; e : Y ;");
        let graph = StateGraph::build(&g, &auto);
        for i in 0..graph.node_count() {
            let id = StateItemId(i as u32);
            let (sid, it) = (graph.state(id), graph.item(id));
            match it.next_symbol(&g) {
                Some(sym) => {
                    let t = graph.transition(id).expect("has transition");
                    assert_eq!(graph.state(t), auto.state(sid).transition(sym).unwrap());
                    assert_eq!(graph.item(t), it.advance(&g));
                    // Reverse edge present.
                    assert!(graph.reverse_transitions(t).contains(&id));
                }
                None => assert!(graph.transition(id).is_none()),
            }
        }
    }

    #[test]
    fn production_steps_stay_in_state() {
        let (g, auto) = setup("%% s : e ';' ; e : e '+' N | N ;");
        let graph = StateGraph::build(&g, &auto);
        for i in 0..graph.node_count() {
            let id = StateItemId(i as u32);
            for &p in graph.production_steps(id) {
                assert_eq!(graph.state(p), graph.state(id), "prod step within state");
                assert_eq!(graph.item(p).dot(), 0);
                assert!(graph.reverse_production_steps(p).contains(&id));
            }
        }
    }

    #[test]
    fn reaching_set_contains_start_for_reachable_conflict() {
        let (g, auto) = setup("%% e : e '+' e | N ;");
        let graph = StateGraph::build(&g, &auto);
        // Find the reduce node for `e -> e + e ·`.
        let e = g.symbol_named("e").unwrap();
        let plus_prod = g.prods_of(e)[0];
        let reduce = Item::new(plus_prod, 3);
        let mut target = None;
        for sid in auto.state_ids() {
            if let Some(id) = graph.get_node(sid, reduce) {
                target = Some(id);
            }
        }
        let target = target.expect("reduce item exists somewhere");
        let reach = graph.reaching_set(target);
        let start = graph.node(StateId::START, Item::start(g.accept_prod()));
        assert!(
            reach.contains(start.index()),
            "start node reaches the conflict"
        );
        assert!(reach.len() < graph.node_count());
    }

    #[test]
    fn node_set_basics() {
        let mut s = NodeSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports already-present");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lookahead_accessor_matches_state() {
        let (g, auto) = setup("%% s : A | ;");
        let graph = StateGraph::build(&g, &auto);
        let id = graph.node(StateId::START, Item::start(g.prods_of(g.start())[1]));
        let la = graph.lookahead(&auto, id);
        assert!(la.contains(g.tindex(SymbolId::EOF)));
    }
}
