//! Nonunifying counterexamples (§4 of the paper).
//!
//! A nonunifying counterexample is a *pair* of derivable sentential forms
//! sharing a common prefix up to the conflict point. The first derivation
//! follows the shortest lookahead-sensitive path to the conflict *reduce*
//! item and completes its productions, inserting the conflict terminal
//! right after the dot. The second re-walks the same state sequence
//! backward from the other conflict item (Figure 5(b)) and completes it the
//! same way.

use std::collections::{HashMap, HashSet};

use lalrcex_grammar::{
    derive_seq_starting_with, eps_derivation, Analysis, Derivation, Grammar, SymbolId,
};
use lalrcex_lr::{Automaton, Conflict, Item, StateId};

use crate::lssi::{EdgeKind, LsNode};
use crate::state_graph::{StateGraph, StateItemId};

/// A pair of derivations sharing a prefix up to the conflict point.
#[derive(Clone, Debug)]
pub struct NonunifyingExample {
    /// Derivation using the conflict reduce item (rooted at `$accept`).
    pub reduce_derivation: Derivation,
    /// Derivation using the other conflict item (shift item, or second
    /// reduce item), when one could be constructed along the same states.
    pub other_derivation: Option<Derivation>,
}

/// A production frame during derivation reconstruction: the item tracks how
/// far the production has progressed; children hold the derivations of the
/// symbols already consumed.
struct Frame {
    item: Item,
    children: Vec<Derivation>,
}

/// Replays a (state-item, edge) sequence into production frames.
fn build_frames(g: &Grammar, graph: &StateGraph, nodes: &[(StateItemId, EdgeKind)]) -> Vec<Frame> {
    let mut frames: Vec<Frame> = Vec::new();
    for &(si, edge) in nodes {
        match edge {
            EdgeKind::Start | EdgeKind::Production => frames.push(Frame {
                item: graph.item(si),
                children: Vec::new(),
            }),
            EdgeKind::Transition(sym) => {
                let top = frames.last_mut().expect("transition needs a frame");
                top.children.push(Derivation::Leaf(sym));
                top.item = top.item.advance(g);
            }
        }
    }
    frames
}

/// Completes all open frames into one derivation, placing the dot at the
/// top frame's current position and arranging for the conflict terminal `t`
/// to appear immediately after it (§4: "since the conflict terminal is a
/// vital part of counterexamples, this terminal must immediately follow ·").
fn complete(g: &Grammar, a: &Analysis, mut frames: Vec<Frame>, t: SymbolId) -> Option<Derivation> {
    let mut need_t = true;
    frames.last_mut()?.children.push(Derivation::Dot);
    loop {
        crate::fail_point!("nonunify.complete");
        let top = frames.last_mut()?;
        let tail: Vec<SymbolId> = top.item.tail(g).to_vec();
        if !tail.is_empty() {
            if need_t {
                match derive_seq_starting_with(g, a, &tail, t) {
                    Some(ds) => {
                        top.children.extend(ds);
                        need_t = false;
                    }
                    None => {
                        // The conflict terminal comes from an outer
                        // production; this tail must vanish.
                        for &s in &tail {
                            top.children.push(eps_derivation(g, a, s)?);
                        }
                    }
                }
            } else {
                top.children
                    .extend(tail.iter().map(|&s| Derivation::Leaf(s)));
            }
        }
        let done = frames.pop()?;
        let lhs = g.prod(done.item.prod()).lhs();
        let node = Derivation::Node(lhs, done.children);
        match frames.last_mut() {
            Some(parent) => {
                parent.children.push(node);
                parent.item = parent.item.advance(g);
            }
            None => return Some(node),
        }
    }
}

/// States visited at each transition depth along the path.
fn states_by_depth(graph: &StateGraph, path: &[LsNode]) -> Vec<StateId> {
    let mut states = vec![graph.state(path[0].si)];
    for n in &path[1..] {
        if matches!(n.edge, EdgeKind::Transition(_)) {
            states.push(graph.state(n.si));
        }
    }
    states
}

/// Transition depth of each node along the path.
fn depths(path: &[LsNode]) -> Vec<usize> {
    let mut d = 0;
    path.iter()
        .map(|n| {
            if matches!(n.edge, EdgeKind::Transition(_)) {
                d += 1;
            }
            d
        })
        .collect()
}

/// Finds Figure 5(b) sequences: walks ending at `other` whose transitions
/// visit the same states (at the same depths) as `path`, spliced onto
/// `path` at a shared node. All discovered splice points are returned (up
/// to a cap) so the caller can pick the one producing the best derivation —
/// the paper's Figure 5(b) prefers a walk whose completed string matches
/// the reduce derivation's string exactly.
fn other_item_paths(
    g: &Grammar,
    graph: &StateGraph,
    path: &[LsNode],
    other: StateItemId,
) -> Vec<Vec<(StateItemId, EdgeKind)>> {
    let states = states_by_depth(graph, path);
    let path_depths = depths(path);
    let on_path: HashMap<(StateItemId, usize), usize> = path
        .iter()
        .enumerate()
        .map(|(i, n)| ((n.si, path_depths[i]), i))
        .collect();

    let top_depth = states.len() - 1;
    type Node = (StateItemId, usize);
    let goal: Node = (other, top_depth);

    // Phase 1: explore the constrained reverse graph, recording every
    // forward link (predecessor -> successor) so that alternate chains
    // through shared nodes are not lost.
    let mut fwd: HashMap<Node, Vec<(Node, EdgeKind)>> = HashMap::new();
    let mut seen: HashSet<Node> = HashSet::new();
    seen.insert(goal);
    let mut stack = vec![goal];
    while let Some((si, depth)) = stack.pop() {
        let item = graph.item(si);
        if item.dot() > 0 {
            if depth == 0 {
                continue;
            }
            let sym = item.prev_symbol(g).expect("dot > 0");
            for &p in graph.reverse_transitions(si) {
                if graph.state(p) == states[depth - 1] {
                    let pn = (p, depth - 1);
                    fwd.entry(pn)
                        .or_default()
                        .push(((si, depth), EdgeKind::Transition(sym)));
                    if seen.insert(pn) {
                        stack.push(pn);
                    }
                }
            }
        } else {
            for &p in graph.reverse_production_steps(si) {
                let pn = (p, depth);
                fwd.entry(pn)
                    .or_default()
                    .push(((si, depth), EdgeKind::Production));
                if seen.insert(pn) {
                    stack.push(pn);
                }
            }
        }
    }

    // Phase 2: from every splice point (an explored node that lies on the
    // reduce path), enumerate forward walks to the other conflict item.
    const MAX_SPLICES: usize = 64;
    let mut splices: Vec<Vec<(StateItemId, EdgeKind)>> = Vec::new();
    let mut splice_points: Vec<(usize, Node)> = seen
        .iter()
        .filter_map(|&n| on_path.get(&n).map(|&k| (k, n)))
        .collect();
    // Earlier splice points first: they reconstruct more context and tend
    // to produce the Figure 5(b) walks whose string matches the reduce
    // derivation.
    splice_points.sort_by_key(|&(k, _)| k);

    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn dfs(
        fwd: &HashMap<(StateItemId, usize), Vec<((StateItemId, usize), EdgeKind)>>,
        goal: (StateItemId, usize),
        cur: (StateItemId, usize),
        chain: &mut Vec<(StateItemId, EdgeKind)>,
        on_stack: &mut HashSet<(StateItemId, usize)>,
        out: &mut Vec<Vec<(StateItemId, EdgeKind)>>,
        prefix: &[(StateItemId, EdgeKind)],
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if cur == goal {
            let mut walk = prefix.to_vec();
            walk.extend(chain.iter().copied());
            out.push(walk);
            return;
        }
        let Some(nexts) = fwd.get(&cur) else { return };
        for &(next, edge) in nexts {
            if !on_stack.insert(next) {
                continue; // same-depth production cycles
            }
            chain.push((next.0, edge));
            dfs(fwd, goal, next, chain, on_stack, out, prefix, cap);
            chain.pop();
            on_stack.remove(&next);
        }
    }

    for (k, node) in splice_points {
        if splices.len() >= MAX_SPLICES {
            break;
        }
        let prefix: Vec<(StateItemId, EdgeKind)> =
            path[..=k].iter().map(|n| (n.si, n.edge)).collect();
        let mut chain = Vec::new();
        let mut on_stack: HashSet<Node> = [node].into_iter().collect();
        dfs(
            &fwd,
            goal,
            node,
            &mut chain,
            &mut on_stack,
            &mut splices,
            &prefix,
            MAX_SPLICES,
        );
    }
    splices
}

/// Constructs a nonunifying counterexample for `conflict` from the shortest
/// lookahead-sensitive `path` to its reduce item. Returns `None` only for
/// internal inconsistencies (which would indicate a bug in the automaton).
pub fn nonunifying_example(
    g: &Grammar,
    auto: &Automaton,
    graph: &StateGraph,
    conflict: &Conflict,
    path: &[LsNode],
) -> Option<NonunifyingExample> {
    let a = auto.analysis();
    let t = conflict.terminal;

    let reduce_nodes: Vec<(StateItemId, EdgeKind)> = path.iter().map(|n| (n.si, n.edge)).collect();
    let reduce_derivation = complete(g, a, build_frames(g, graph, &reduce_nodes), t)?;
    let reduce_leaves = reduce_derivation.leaves();

    // Build every candidate walk for the other conflict item and prefer the
    // one whose completed string matches the reduce derivation's string
    // (the paper's Figure 5(b) has both lines spell the same sentence);
    // break ties toward shorter strings.
    let other = graph.node(conflict.state, conflict.other_item(g));
    let other_derivation = other_item_paths(g, graph, path, other)
        .into_iter()
        .filter_map(|nodes| complete(g, a, build_frames(g, graph, &nodes), t))
        .min_by_key(|d| {
            let leaves = d.leaves();
            (leaves != reduce_leaves, leaves.len())
        });

    Some(NonunifyingExample {
        reduce_derivation,
        other_derivation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lssi::shortest_path;
    use lalrcex_grammar::Grammar;
    use lalrcex_lr::Automaton;

    struct Setup {
        g: Grammar,
        auto: Automaton,
    }

    fn figure1() -> Setup {
        let g = Grammar::parse(
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
        .unwrap();
        let auto = Automaton::build(&g);
        Setup { g, auto }
    }

    fn example_for(setup: &Setup, term: &str) -> NonunifyingExample {
        let Setup { g, auto } = setup;
        let graph = StateGraph::build(g, auto);
        let tables = auto.tables(g);
        let c = match crate::search::conflict_on(g, tables.conflicts(), term) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        };
        let target = graph.node(c.state, c.reduce_item(g));
        let path = shortest_path(g, auto, &graph, target, g.tindex(c.terminal)).unwrap();
        nonunifying_example(g, auto, &graph, c, &path).unwrap()
    }

    fn flat(g: &Grammar, d: &Derivation) -> String {
        d.flat(g)
    }

    #[test]
    fn dangling_else_reduce_derivation() {
        let setup = figure1();
        let ex = example_for(&setup, "else");
        let s = flat(&setup.g, &ex.reduce_derivation);
        // §4: "if expr then if expr then stmt · else stmt" (plus $ from the
        // augmented production).
        assert_eq!(s, "if expr then if expr then stmt \u{2022} else stmt $");
        let o = flat(
            &setup.g,
            ex.other_derivation.as_ref().expect("shift derivation"),
        );
        assert_eq!(o, "if expr then if expr then stmt \u{2022} else stmt $");
    }

    #[test]
    fn dangling_else_derivations_differ_structurally() {
        let setup = figure1();
        let ex = example_for(&setup, "else");
        let other = ex.other_derivation.unwrap();
        assert_ne!(ex.reduce_derivation, other);
        // Both must derive the same string — that they do while differing
        // structurally is what makes the pair a counterexample.
        assert_eq!(ex.reduce_derivation.leaves(), other.leaves());
    }

    #[test]
    fn challenging_conflict_inserts_digit_after_dot() {
        let setup = figure1();
        let ex = example_for(&setup, "digit");
        let s = flat(&setup.g, &ex.reduce_derivation);
        // §4: "expr ? arr [ expr ] := num · digit ? stmt stmt".
        assert_eq!(s, "expr ? arr [ expr ] := num \u{2022} digit ? stmt stmt $");
        let o = flat(&setup.g, ex.other_derivation.as_ref().unwrap());
        // §3.2 shows the shift variant: `... num · digit stmt`.
        assert_eq!(o, "expr ? arr [ expr ] := num \u{2022} digit stmt $");
    }

    #[test]
    fn shared_prefix_up_to_conflict_point() {
        let setup = figure1();
        for term in ["else", "digit", "+"] {
            let ex = example_for(&setup, term);
            let Some(other) = &ex.other_derivation else {
                continue;
            };
            let a = flat(&setup.g, &ex.reduce_derivation);
            let b = flat(&setup.g, other);
            let pa = a.split('\u{2022}').next().unwrap();
            let pb = b.split('\u{2022}').next().unwrap();
            assert_eq!(pa, pb, "common prefix for {term}");
        }
    }

    #[test]
    fn figure3_unambiguous_conflict_gets_example() {
        let g = Grammar::parse("%% S : T | S T ; T : X | Y ; X : 'a' ; Y : 'a' 'a' 'b' ;").unwrap();
        let auto = Automaton::build(&g);
        let graph = StateGraph::build(&g, &auto);
        let tables = auto.tables(&g);
        let c = &tables.conflicts()[0];
        let target = graph.node(c.state, c.reduce_item(&g));
        let path = shortest_path(&g, &auto, &graph, target, g.tindex(c.terminal)).unwrap();
        let ex = nonunifying_example(&g, &auto, &graph, c, &path).unwrap();
        let s = ex.reduce_derivation.flat(&g);
        assert!(s.starts_with("a \u{2022} a"), "reduce example: {s}");
        let o = ex.other_derivation.unwrap().flat(&g);
        assert!(o.starts_with("a \u{2022} a b"), "shift example: {o}");
    }

    #[test]
    fn reduce_reduce_conflict_examples() {
        let g = Grammar::parse("%% s : a X | b X ; a : T ; b : T ;").unwrap();
        let auto = Automaton::build(&g);
        let graph = StateGraph::build(&g, &auto);
        let tables = auto.tables(&g);
        let c = tables
            .conflicts()
            .iter()
            .find(|c| matches!(c.kind, lalrcex_lr::ConflictKind::ReduceReduce { .. }))
            .unwrap();
        let target = graph.node(c.state, c.reduce_item(&g));
        let path = shortest_path(&g, &auto, &graph, target, g.tindex(c.terminal)).unwrap();
        let ex = nonunifying_example(&g, &auto, &graph, c, &path).unwrap();
        assert_eq!(ex.reduce_derivation.flat(&g), "T \u{2022} X $");
        assert_eq!(ex.other_derivation.unwrap().flat(&g), "T \u{2022} X $");
    }
}
