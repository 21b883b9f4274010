//! Parsing conflicts reported by table construction.

use lalrcex_grammar::{Grammar, ProdId, SymbolId};

use crate::automaton::StateId;
use crate::item::Item;

/// The kind of a parsing conflict (§2.2–2.3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConflictKind {
    /// A shift action competes with a reduction. `shift_item` is a
    /// representative item of the state with the conflict terminal after
    /// its dot (there may be several).
    ShiftReduce {
        /// One item enabling the shift.
        shift_item: Item,
    },
    /// Two distinct reductions compete on the same lookahead.
    ReduceReduce {
        /// The second (higher-numbered) production.
        other_prod: ProdId,
    },
}

/// A parsing conflict: in `state`, on lookahead `terminal`, the reduction
/// by `reduce_prod` competes with another action.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Conflict {
    /// State in which the conflict occurs.
    pub state: StateId,
    /// The conflict lookahead terminal.
    pub terminal: SymbolId,
    /// The production of the conflict reduce item.
    pub reduce_prod: ProdId,
    /// Shift/reduce or reduce/reduce specifics.
    pub kind: ConflictKind,
}

impl Conflict {
    /// The conflict reduce item `A -> ω ·`.
    pub fn reduce_item(&self, g: &Grammar) -> Item {
        Item::new(self.reduce_prod, g.prod(self.reduce_prod).rhs().len())
    }

    /// The "other" conflict item: the shift item, or the second reduce item.
    pub fn other_item(&self, g: &Grammar) -> Item {
        match self.kind {
            ConflictKind::ShiftReduce { shift_item } => shift_item,
            ConflictKind::ReduceReduce { other_prod } => {
                Item::new(other_prod, g.prod(other_prod).rhs().len())
            }
        }
    }

    /// A one-line description in the style of CUP's report (Figure 11).
    pub fn describe(&self, g: &Grammar) -> String {
        match self.kind {
            ConflictKind::ShiftReduce { shift_item } => format!(
                "Shift/Reduce conflict found in state #{} between reduction on {} and shift on {} under symbol {}",
                self.state.index(),
                self.reduce_item(g).display(g),
                shift_item.display(g),
                g.display_name(self.terminal),
            ),
            ConflictKind::ReduceReduce { other_prod } => format!(
                "Reduce/Reduce conflict found in state #{} between reduction on {} and reduction on {} under symbol {}",
                self.state.index(),
                self.reduce_item(g).display(g),
                Item::new(other_prod, g.prod(other_prod).rhs().len()).display(g),
                g.display_name(self.terminal),
            ),
        }
    }
}
