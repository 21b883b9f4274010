//! Deterministic table-driven LR parsing.
//!
//! Parses a token stream with the resolved [`Tables`],
//! producing a [`Derivation`] tree. Because unresolved conflicts are given
//! yacc defaults during table construction, this parser is total over the
//! table — but the point of the toolkit is that those defaults may not be
//! what the grammar author meant, which is what counterexamples explain.

use lalrcex_grammar::{Derivation, Grammar, SymbolId, SymbolKind};

use crate::automaton::StateId;
use crate::table::{Action, Tables};

/// A syntax error from [`parse`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// The token at `pos` has no action in the current state.
    UnexpectedToken {
        /// Index into the input token slice.
        pos: usize,
        /// The offending token.
        found: SymbolId,
        /// The state the parser was in.
        state: StateId,
    },
    /// Input ended but the parser expected more.
    UnexpectedEof {
        /// The state the parser was in.
        state: StateId,
    },
    /// The input contained a nonterminal symbol.
    NotATerminal(SymbolId),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnexpectedToken { pos, state, .. } => {
                write!(
                    f,
                    "unexpected token at position {pos} in state {}",
                    state.index()
                )
            }
            ParseError::UnexpectedEof { state } => {
                write!(f, "unexpected end of input in state {}", state.index())
            }
            ParseError::NotATerminal(_) => write!(f, "input symbol is not a terminal"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses `tokens` (terminals only; do not include `$end`) and returns the
/// derivation of the start symbol.
///
/// # Errors
///
/// Returns a [`ParseError`] when the input is not in the language of the
/// *resolved* tables, or contains a nonterminal symbol.
///
/// # Example
///
/// ```
/// use lalrcex_grammar::Grammar;
/// use lalrcex_lr::{parser, Automaton};
///
/// let g = Grammar::parse("%% list : list ITEM | ITEM ;")?;
/// let auto = Automaton::build(&g);
/// let tables = auto.tables(&g);
/// let item = g.symbol_named("ITEM").unwrap();
/// let tree = parser::parse(&g, &tables, &[item, item, item])?;
/// assert_eq!(tree.leaves().len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse(g: &Grammar, tables: &Tables, tokens: &[SymbolId]) -> Result<Derivation, ParseError> {
    for &t in tokens {
        if g.kind(t) != SymbolKind::Terminal {
            return Err(ParseError::NotATerminal(t));
        }
    }
    let mut states = vec![StateId::START];
    let mut values: Vec<Derivation> = Vec::new();
    let mut pos = 0usize;
    loop {
        let state = *states.last().expect("state stack never empty");
        let look = tokens.get(pos).copied().unwrap_or(SymbolId::EOF);
        match tables.action(g, state, look) {
            Action::Shift(next) => {
                values.push(Derivation::Leaf(look));
                states.push(next);
                pos += 1;
            }
            Action::Reduce(pid) => {
                let n = g.prod(pid).rhs().len();
                let children = values.split_off(values.len() - n);
                states.truncate(states.len() - n);
                let lhs = g.prod(pid).lhs();
                values.push(Derivation::Node(lhs, children));
                let top = *states.last().expect("state stack never empty");
                let next = tables
                    .goto(g, top, lhs)
                    .expect("goto must exist after reduce");
                states.push(next);
            }
            Action::Accept => {
                return Ok(values.pop().expect("accept with value on stack"));
            }
            Action::Error => {
                return Err(if pos < tokens.len() {
                    ParseError::UnexpectedToken {
                        pos,
                        found: look,
                        state,
                    }
                } else {
                    ParseError::UnexpectedEof { state }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use lalrcex_grammar::Grammar;

    fn setup(src: &str) -> (Grammar, Tables) {
        let g = Grammar::parse(src).unwrap();
        let tables = Automaton::build(&g).tables(&g);
        (g, tables)
    }

    fn toks(g: &Grammar, names: &[&str]) -> Vec<SymbolId> {
        names.iter().map(|n| g.symbol_named(n).unwrap()).collect()
    }

    #[test]
    fn parses_left_recursive_list() {
        let (g, t) = setup("%% list : list ITEM | ITEM ;");
        let tree = parse(&g, &t, &toks(&g, &["ITEM", "ITEM"])).unwrap();
        assert_eq!(tree.symbol(), g.symbol_named("list"));
        assert_eq!(tree.leaves().len(), 2);
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let (g, t) = setup(
            "%left '+'
             %left '*'
             %% e : e '+' e | e '*' e | N ;",
        );
        // N + N * N parses as N + (N * N) because * binds tighter.
        let tree = parse(&g, &t, &toks(&g, &["N", "+", "N", "*", "N"])).unwrap();
        let Derivation::Node(_, children) = &tree else {
            panic!("root must be a node");
        };
        assert_eq!(children.len(), 3);
        assert_eq!(g.display_name(children[1].symbol().unwrap()), "+");
        assert_eq!(children[2].leaves().len(), 3, "rhs holds N * N");
    }

    #[test]
    fn left_assoc_groups_left() {
        let (g, t) = setup("%left '-' %% e : e '-' e | N ;");
        // N - N - N must parse as (N - N) - N.
        let tree = parse(&g, &t, &toks(&g, &["N", "-", "N", "-", "N"])).unwrap();
        let Derivation::Node(_, children) = &tree else {
            panic!()
        };
        assert_eq!(children[0].leaves().len(), 3, "lhs holds N - N");
    }

    #[test]
    fn dangling_else_default_binds_tight() {
        let (g, t) = setup("%% s : 'if' E 'then' s 'else' s | 'if' E 'then' s | X ; E : Y ;");
        // Default (shift) attaches else to the inner if.
        let input = toks(
            &g,
            &["if", "Y", "then", "if", "Y", "then", "X", "else", "X"],
        );
        let tree = parse(&g, &t, &input).unwrap();
        let Derivation::Node(_, children) = &tree else {
            panic!()
        };
        assert_eq!(children.len(), 4, "outer if has no else branch");
    }

    #[test]
    fn syntax_error_reports_position() {
        let (g, t) = setup("%% s : A B ;");
        let err = parse(&g, &t, &toks(&g, &["A", "A"])).unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedToken { pos: 1, .. }));
        let err2 = parse(&g, &t, &toks(&g, &["A"])).unwrap_err();
        assert!(matches!(err2, ParseError::UnexpectedEof { .. }));
    }

    #[test]
    fn rejects_nonterminal_input() {
        let (g, t) = setup("%% s : A ;");
        let s = g.symbol_named("s").unwrap();
        assert!(matches!(
            parse(&g, &t, &[s]),
            Err(ParseError::NotATerminal(_))
        ));
    }

    #[test]
    fn empty_input_for_nullable_grammar() {
        let (g, t) = setup("%% s : A s | ;");
        let tree = parse(&g, &t, &[]).unwrap();
        assert!(tree.leaves().is_empty());
    }
}
