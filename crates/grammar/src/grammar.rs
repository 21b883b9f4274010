//! Grammar construction and immutable grammar representation.

use std::collections::HashMap;
use std::fmt;

use crate::symbol::{SymbolId, SymbolKind};

/// Identifies a production of a [`Grammar`].
///
/// Production 0 is always the augmented start production
/// `$accept -> <start>`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProdId(pub(crate) u32);

impl ProdId {
    /// Dense index of this production in [`Grammar::productions`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a production id from a raw index previously obtained
    /// from [`ProdId::index`].
    pub fn from_index(index: usize) -> ProdId {
        ProdId(index as u32)
    }
}

impl fmt::Debug for ProdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prod#{}", self.0)
    }
}

/// Operator associativity, used for conflict resolution (§2.4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Assoc {
    /// `%left` — the reduction wins a same-precedence shift/reduce conflict.
    Left,
    /// `%right` — the shift wins.
    Right,
    /// `%nonassoc` — same-precedence conflicts become syntax errors.
    Nonassoc,
}

/// A precedence level with associativity.
///
/// Higher `level` binds tighter. Two terminals declared on the same
/// `%left`/`%right`/`%nonassoc` line share a level.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Precedence {
    /// Binding strength; larger wins.
    pub level: u16,
    /// Associativity used to break same-level shift/reduce ties.
    pub assoc: Assoc,
}

/// A single production `lhs -> rhs[0] rhs[1] ...`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Production {
    pub(crate) lhs: SymbolId,
    pub(crate) rhs: Vec<SymbolId>,
    pub(crate) prec: Option<Precedence>,
    /// Source line of the alternative in the grammar DSL (`0` = unknown,
    /// e.g. a builder-constructed grammar without location info).
    pub(crate) line: u32,
}

impl Production {
    /// The left-hand-side nonterminal.
    pub fn lhs(&self) -> SymbolId {
        self.lhs
    }

    /// The right-hand-side symbols (empty for an ε-production).
    pub fn rhs(&self) -> &[SymbolId] {
        &self.rhs
    }

    /// The production's precedence: an explicit `%prec`, or inherited from
    /// the last terminal of the right-hand side.
    pub fn precedence(&self) -> Option<Precedence> {
        self.prec
    }

    /// The source line of this production in the grammar DSL, when known.
    ///
    /// Populated by [`Grammar::parse`] (and [`GrammarBuilder::rule_at`]);
    /// `None` for rules added without location info.
    pub fn line(&self) -> Option<u32> {
        (self.line != 0).then_some(self.line)
    }
}

#[derive(Clone)]
struct SymbolInfo {
    name: String,
    kind: SymbolKind,
    /// Terminal index or nonterminal index, depending on `kind`.
    dense: u32,
    prec: Option<Precedence>,
    /// Line of the symbol's declaration (`%token` / `%left` / … for
    /// terminals, first producing rule for nonterminals); `0` = unknown.
    decl_line: u32,
}

/// Errors from building or parsing a grammar.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GrammarError {
    /// No `%start` was given and no production exists to infer one from.
    NoStartSymbol,
    /// The start symbol has no productions (it would be a terminal).
    StartIsTerminal(String),
    /// A declared `%token` appeared on the left of a rule.
    TokenOnLhs(String),
    /// A `%prec` referred to a symbol that is not a terminal with declared
    /// precedence.
    BadPrecSymbol(String),
    /// The grammar DSL text was malformed; carries a line number and message.
    Parse { line: u32, msg: String },
    /// A name was declared twice with conflicting roles.
    DuplicateDecl(String),
    /// A structural limit was exceeded. The caps ([`MAX_PRODUCTIONS`],
    /// [`MAX_RHS_SYMBOLS`]) are far beyond any real grammar (Table 1's
    /// largest row has about a thousand productions) and exist so
    /// pathological or fuzzed inputs fail with a structured error instead
    /// of driving the downstream automaton construction into memory
    /// exhaustion.
    Limit {
        /// Which structural quantity overflowed.
        what: &'static str,
        /// The enforced cap.
        limit: usize,
        /// The offending value.
        actual: usize,
    },
}

/// Maximum number of productions a grammar may declare (the augmented
/// `$accept` production does not count). See [`GrammarError::Limit`].
pub const MAX_PRODUCTIONS: usize = 65_536;

/// Maximum number of symbols on one production's right-hand side.
/// See [`GrammarError::Limit`].
pub const MAX_RHS_SYMBOLS: usize = 4_096;

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::NoStartSymbol => write!(f, "grammar has no start symbol"),
            GrammarError::StartIsTerminal(s) => {
                write!(f, "start symbol `{s}` has no productions")
            }
            GrammarError::TokenOnLhs(s) => {
                write!(
                    f,
                    "declared token `{s}` appears on the left-hand side of a rule"
                )
            }
            GrammarError::BadPrecSymbol(s) => {
                write!(
                    f,
                    "`%prec {s}` does not name a terminal with declared precedence"
                )
            }
            GrammarError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GrammarError::DuplicateDecl(s) => write!(f, "symbol `{s}` declared twice"),
            GrammarError::Limit {
                what,
                limit,
                actual,
            } => write!(f, "grammar exceeds the {what} limit: {actual} > {limit}"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// An immutable context-free grammar with interned symbols.
///
/// Construct one with [`GrammarBuilder`] or [`Grammar::parse`]. The grammar
/// is *augmented*: a fresh start symbol `$accept` with the single production
/// `$accept -> start` is production 0, and the end-of-input terminal `$end`
/// is [`SymbolId::EOF`].
#[derive(Clone)]
pub struct Grammar {
    symbols: Vec<SymbolInfo>,
    by_name: HashMap<String, SymbolId>,
    productions: Vec<Production>,
    /// Productions of each nonterminal, indexed by nonterminal dense index.
    prods_of: Vec<Vec<ProdId>>,
    terminals: Vec<SymbolId>,
    nonterminals: Vec<SymbolId>,
    start: SymbolId,
    accept: SymbolId,
}

impl Grammar {
    /// Looks up a symbol by its name.
    pub fn symbol_named(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// The name of a symbol. `$end` and `$accept` are internal names; see
    /// [`Grammar::display_name`] for user-facing output.
    pub fn name(&self, sym: SymbolId) -> &str {
        &self.symbols[sym.index()].name
    }

    /// User-facing name: `$end` is shown as `$`.
    pub fn display_name(&self, sym: SymbolId) -> &str {
        if sym == SymbolId::EOF {
            "$"
        } else {
            self.name(sym)
        }
    }

    /// The kind (terminal / nonterminal) of a symbol.
    pub fn kind(&self, sym: SymbolId) -> SymbolKind {
        self.symbols[sym.index()].kind
    }

    /// `true` if `sym` is a terminal.
    pub fn is_terminal(&self, sym: SymbolId) -> bool {
        self.kind(sym) == SymbolKind::Terminal
    }

    /// `true` if `sym` is a nonterminal.
    pub fn is_nonterminal(&self, sym: SymbolId) -> bool {
        self.kind(sym) == SymbolKind::Nonterminal
    }

    /// Number of terminals, including `$end`.
    pub fn terminal_count(&self) -> usize {
        self.terminals.len()
    }

    /// Number of nonterminals, including `$accept`.
    pub fn nonterminal_count(&self) -> usize {
        self.nonterminals.len()
    }

    /// Total number of symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Iterates over all symbols in id order.
    pub fn symbols(&self) -> impl Iterator<Item = SymbolId> + '_ {
        (0..self.symbols.len() as u32).map(SymbolId)
    }

    /// Dense terminal index of a terminal symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is a nonterminal.
    pub fn tindex(&self, sym: SymbolId) -> usize {
        debug_assert!(self.is_terminal(sym), "tindex of nonterminal");
        self.symbols[sym.index()].dense as usize
    }

    /// Dense nonterminal index of a nonterminal symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is a terminal.
    pub fn ntindex(&self, sym: SymbolId) -> usize {
        debug_assert!(self.is_nonterminal(sym), "ntindex of terminal");
        self.symbols[sym.index()].dense as usize
    }

    /// The terminal with dense index `tindex`.
    pub fn terminal(&self, tindex: usize) -> SymbolId {
        self.terminals[tindex]
    }

    /// The nonterminal with dense index `ntindex`.
    pub fn nonterminal(&self, ntindex: usize) -> SymbolId {
        self.nonterminals[ntindex]
    }

    /// All productions; index with [`ProdId::index`].
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// Estimated resident bytes: the symbol table with its name index,
    /// the productions with their right-hand sides, and the per-nonterminal
    /// production lists.
    pub fn estimated_bytes(&self) -> usize {
        let names: usize = self.symbols.iter().map(|s| s.name.len()).sum();
        let rhs: usize = self.productions.iter().map(|p| p.rhs.len()).sum();
        // Each name is stored twice (symbol table and `by_name` key); a
        // hash-map slot costs its key, value and control byte.
        self.symbols.len()
            * (std::mem::size_of::<SymbolInfo>() + std::mem::size_of::<(String, SymbolId)>() + 1)
            + 2 * names
            + self.productions.len() * std::mem::size_of::<Production>()
            + rhs * std::mem::size_of::<SymbolId>()
            + self.productions.len() * std::mem::size_of::<ProdId>()
            + self.prods_of.len() * std::mem::size_of::<Vec<ProdId>>()
            + (self.terminals.len() + self.nonterminals.len()) * std::mem::size_of::<SymbolId>()
    }

    /// Number of productions, including the augmented start production.
    pub fn prod_count(&self) -> usize {
        self.productions.len()
    }

    /// A production by id.
    pub fn prod(&self, id: ProdId) -> &Production {
        &self.productions[id.index()]
    }

    /// Iterates over all production ids.
    pub fn prod_ids(&self) -> impl Iterator<Item = ProdId> + '_ {
        (0..self.productions.len() as u32).map(ProdId)
    }

    /// Production ids of a nonterminal.
    pub fn prods_of(&self, nonterminal: SymbolId) -> &[ProdId] {
        &self.prods_of[self.ntindex(nonterminal)]
    }

    /// The user start symbol (right-hand side of the augmented production).
    pub fn start(&self) -> SymbolId {
        self.start
    }

    /// The augmented start symbol `$accept`.
    pub fn accept(&self) -> SymbolId {
        self.accept
    }

    /// The augmented start production `$accept -> start`.
    pub fn accept_prod(&self) -> ProdId {
        ProdId(0)
    }

    /// Declared precedence of a terminal, if any.
    pub fn terminal_prec(&self, sym: SymbolId) -> Option<Precedence> {
        self.symbols[sym.index()].prec
    }

    /// Source line of the symbol's declaration, when known: the
    /// `%token`/`%left`/`%right`/`%nonassoc` line for declared terminals,
    /// the first producing rule for nonterminals, or the first use
    /// otherwise.
    pub fn decl_line(&self, sym: SymbolId) -> Option<u32> {
        let l = self.symbols[sym.index()].decl_line;
        (l != 0).then_some(l)
    }

    /// Formats a sequence of symbols as a space-separated string.
    pub fn format_symbols(&self, syms: &[SymbolId]) -> String {
        syms.iter()
            .map(|&s| self.display_name(s))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Formats a production like `stmt -> IF expr THEN stmt`.
    pub fn format_prod(&self, id: ProdId) -> String {
        let p = self.prod(id);
        if p.rhs.is_empty() {
            format!("{} -> <empty>", self.display_name(p.lhs))
        } else {
            format!(
                "{} -> {}",
                self.display_name(p.lhs),
                self.format_symbols(&p.rhs)
            )
        }
    }
}

impl fmt::Debug for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grammar")
            .field("terminals", &self.terminal_count())
            .field("nonterminals", &self.nonterminal_count())
            .field("productions", &self.prod_count())
            .field("start", &self.name(self.start))
            .finish()
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for id in self.prod_ids().skip(1) {
            writeln!(f, "{}", self.format_prod(id))?;
        }
        Ok(())
    }
}

#[derive(Clone)]
struct RuleDraft {
    lhs: String,
    rhs: Vec<String>,
    prec_sym: Option<String>,
    /// Source line of the alternative (`0` = unknown).
    line: u32,
}

#[derive(Clone)]
struct TokenDraft {
    name: String,
    prec: Option<Precedence>,
    /// Line of the declaration (`0` = unknown).
    line: u32,
}

/// Incrementally builds a [`Grammar`].
///
/// Symbols are referred to by name. Any name that appears on the left-hand
/// side of a rule becomes a nonterminal; every other name becomes a terminal
/// (the yacc convention), so `%token` declarations are optional unless a
/// precedence is attached.
///
/// # Example
///
/// ```
/// use lalrcex_grammar::GrammarBuilder;
///
/// let mut b = GrammarBuilder::new();
/// b.start("list");
/// b.rule("list", &["item"]);
/// b.rule("list", &["list", "item"]);
/// b.rule("item", &["ID"]);
/// let g = b.build()?;
/// assert_eq!(g.prod_count(), 4); // 3 rules + augmented start
/// # Ok::<(), lalrcex_grammar::GrammarError>(())
/// ```
#[derive(Default)]
pub struct GrammarBuilder {
    tokens: Vec<TokenDraft>,
    rules: Vec<RuleDraft>,
    start: Option<String>,
    next_level: u16,
}

impl GrammarBuilder {
    /// Creates an empty builder.
    pub fn new() -> GrammarBuilder {
        GrammarBuilder {
            next_level: 1,
            ..GrammarBuilder::default()
        }
    }

    /// Declares a token (terminal). Optional unless precedence matters.
    pub fn token(&mut self, name: &str) -> &mut Self {
        self.token_at(name, 0)
    }

    /// [`GrammarBuilder::token`] with a source line for diagnostics.
    pub fn token_at(&mut self, name: &str, line: u32) -> &mut Self {
        if let Some(entry) = self.tokens.iter_mut().find(|t| t.name == name) {
            if entry.line == 0 {
                entry.line = line;
            }
        } else {
            self.tokens.push(TokenDraft {
                name: name.to_owned(),
                prec: None,
                line,
            });
        }
        self
    }

    /// Declares a precedence level for `names`, like a yacc
    /// `%left`/`%right`/`%nonassoc` line. Later calls bind tighter.
    pub fn prec_level(&mut self, assoc: Assoc, names: &[&str]) -> &mut Self {
        self.prec_level_at(assoc, names, 0)
    }

    /// [`GrammarBuilder::prec_level`] with a source line for diagnostics.
    pub fn prec_level_at(&mut self, assoc: Assoc, names: &[&str], line: u32) -> &mut Self {
        let level = self.next_level;
        self.next_level += 1;
        for &name in names {
            let prec = Some(Precedence { level, assoc });
            if let Some(entry) = self.tokens.iter_mut().find(|t| t.name == name) {
                entry.prec = prec;
                if line != 0 {
                    entry.line = line;
                }
            } else {
                self.tokens.push(TokenDraft {
                    name: name.to_owned(),
                    prec,
                    line,
                });
            }
        }
        self
    }

    /// Sets the start symbol. Defaults to the first rule's left-hand side.
    pub fn start(&mut self, name: &str) -> &mut Self {
        self.start = Some(name.to_owned());
        self
    }

    /// Adds a production `lhs -> rhs`.
    pub fn rule(&mut self, lhs: &str, rhs: &[&str]) -> &mut Self {
        self.rule_at(lhs, rhs, 0)
    }

    /// [`GrammarBuilder::rule`] with a source line for diagnostics.
    pub fn rule_at(&mut self, lhs: &str, rhs: &[&str], line: u32) -> &mut Self {
        self.rules.push(RuleDraft {
            lhs: lhs.to_owned(),
            rhs: rhs.iter().map(|s| (*s).to_owned()).collect(),
            prec_sym: None,
            line,
        });
        self
    }

    /// Adds a production with an explicit `%prec` terminal.
    pub fn rule_prec(&mut self, lhs: &str, rhs: &[&str], prec_sym: &str) -> &mut Self {
        self.rule_prec_at(lhs, rhs, prec_sym, 0)
    }

    /// [`GrammarBuilder::rule_prec`] with a source line for diagnostics.
    pub fn rule_prec_at(
        &mut self,
        lhs: &str,
        rhs: &[&str],
        prec_sym: &str,
        line: u32,
    ) -> &mut Self {
        self.rules.push(RuleDraft {
            lhs: lhs.to_owned(),
            rhs: rhs.iter().map(|s| (*s).to_owned()).collect(),
            prec_sym: Some(prec_sym.to_owned()),
            line,
        });
        self
    }

    /// Resolves names and produces the immutable [`Grammar`].
    ///
    /// # Errors
    ///
    /// Returns a [`GrammarError`] if the grammar is ill-formed: no start
    /// symbol can be determined, a declared token is used as a rule
    /// left-hand side, or a `%prec` symbol is unknown.
    pub fn build(&self) -> Result<Grammar, GrammarError> {
        // Structural caps first: fuzzed or generated inputs must fail with
        // a structured error before any quadratic work happens below.
        if self.rules.len() > MAX_PRODUCTIONS {
            return Err(GrammarError::Limit {
                what: "production count",
                limit: MAX_PRODUCTIONS,
                actual: self.rules.len(),
            });
        }
        if let Some(r) = self.rules.iter().find(|r| r.rhs.len() > MAX_RHS_SYMBOLS) {
            return Err(GrammarError::Limit {
                what: "right-hand-side length",
                limit: MAX_RHS_SYMBOLS,
                actual: r.rhs.len(),
            });
        }
        let start_name = match &self.start {
            Some(s) => s.clone(),
            None => self
                .rules
                .first()
                .map(|r| r.lhs.clone())
                .ok_or(GrammarError::NoStartSymbol)?,
        };

        // Classify names: LHS names are nonterminals, everything else terminal.
        let mut is_lhs: HashMap<&str, bool> = HashMap::new();
        for r in &self.rules {
            is_lhs.insert(&r.lhs, true);
        }
        for t in &self.tokens {
            if is_lhs.contains_key(t.name.as_str()) {
                return Err(GrammarError::TokenOnLhs(t.name.clone()));
            }
        }
        if !is_lhs.contains_key(start_name.as_str()) {
            return Err(GrammarError::StartIsTerminal(start_name));
        }

        let mut symbols: Vec<SymbolInfo> = Vec::new();
        let mut by_name: HashMap<String, SymbolId> = HashMap::new();
        let mut terminals: Vec<SymbolId> = Vec::new();
        let mut nonterminals: Vec<SymbolId> = Vec::new();

        let intern = |name: &str,
                      kind: SymbolKind,
                      prec: Option<Precedence>,
                      decl_line: u32,
                      symbols: &mut Vec<SymbolInfo>,
                      by_name: &mut HashMap<String, SymbolId>,
                      terminals: &mut Vec<SymbolId>,
                      nonterminals: &mut Vec<SymbolId>|
         -> SymbolId {
            if let Some(&id) = by_name.get(name) {
                // Keep the earliest known location.
                if symbols[id.index()].decl_line == 0 {
                    symbols[id.index()].decl_line = decl_line;
                }
                return id;
            }
            let id = SymbolId(symbols.len() as u32);
            let dense = match kind {
                SymbolKind::Terminal => {
                    terminals.push(id);
                    (terminals.len() - 1) as u32
                }
                SymbolKind::Nonterminal => {
                    nonterminals.push(id);
                    (nonterminals.len() - 1) as u32
                }
            };
            symbols.push(SymbolInfo {
                name: name.to_owned(),
                kind,
                dense,
                prec,
                decl_line,
            });
            by_name.insert(name.to_owned(), id);
            id
        };

        // $end is terminal 0; $accept is the first nonterminal.
        intern(
            "$end",
            SymbolKind::Terminal,
            None,
            0,
            &mut symbols,
            &mut by_name,
            &mut terminals,
            &mut nonterminals,
        );
        let accept = intern(
            "$accept",
            SymbolKind::Nonterminal,
            None,
            0,
            &mut symbols,
            &mut by_name,
            &mut terminals,
            &mut nonterminals,
        );

        // Declared tokens first (stable terminal numbering), then symbols in
        // order of appearance.
        for t in &self.tokens {
            intern(
                &t.name,
                SymbolKind::Terminal,
                t.prec,
                t.line,
                &mut symbols,
                &mut by_name,
                &mut terminals,
                &mut nonterminals,
            );
        }
        let kind_of = |name: &str, is_lhs: &HashMap<&str, bool>| {
            if is_lhs.contains_key(name) {
                SymbolKind::Nonterminal
            } else {
                SymbolKind::Terminal
            }
        };
        for r in &self.rules {
            intern(
                &r.lhs,
                SymbolKind::Nonterminal,
                None,
                r.line,
                &mut symbols,
                &mut by_name,
                &mut terminals,
                &mut nonterminals,
            );
            for s in &r.rhs {
                intern(
                    s,
                    kind_of(s, &is_lhs),
                    None,
                    r.line,
                    &mut symbols,
                    &mut by_name,
                    &mut terminals,
                    &mut nonterminals,
                );
            }
        }

        let start = by_name[&start_name];

        // Productions: augmented production first. Following CUP (and the
        // paper's Figure 5), the end-of-input marker is part of the
        // augmented production: `$accept -> start $end`.
        let mut productions = vec![Production {
            lhs: accept,
            rhs: vec![start, SymbolId::EOF],
            prec: None,
            line: 0,
        }];
        for r in &self.rules {
            let lhs = by_name[&r.lhs];
            let rhs: Vec<SymbolId> = r.rhs.iter().map(|s| by_name[s]).collect();
            let prec = match &r.prec_sym {
                Some(ps) => {
                    let sym = by_name
                        .get(ps)
                        .copied()
                        .ok_or_else(|| GrammarError::BadPrecSymbol(ps.clone()))?;
                    let info = &symbols[sym.index()];
                    if info.kind != SymbolKind::Terminal {
                        return Err(GrammarError::BadPrecSymbol(ps.clone()));
                    }
                    // A %prec symbol without declared precedence yields none,
                    // matching yacc (the rule gets no precedence).
                    info.prec
                }
                None => rhs
                    .iter()
                    .rev()
                    .find(|&&s| symbols[s.index()].kind == SymbolKind::Terminal)
                    .and_then(|&s| symbols[s.index()].prec),
            };
            productions.push(Production {
                lhs,
                rhs,
                prec,
                line: r.line,
            });
        }

        let mut prods_of = vec![Vec::new(); nonterminals.len()];
        for (i, p) in productions.iter().enumerate() {
            let nt = symbols[p.lhs.index()].dense as usize;
            prods_of[nt].push(ProdId(i as u32));
        }

        Ok(Grammar {
            symbols,
            by_name,
            productions,
            prods_of,
            terminals,
            nonterminals,
            start,
            accept,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr_grammar() -> Grammar {
        let mut b = GrammarBuilder::new();
        b.prec_level(Assoc::Left, &["+"]);
        b.prec_level(Assoc::Left, &["*"]);
        b.start("e");
        b.rule("e", &["e", "+", "e"]);
        b.rule("e", &["e", "*", "e"]);
        b.rule("e", &["NUM"]);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_augmented_grammar() {
        let g = expr_grammar();
        assert_eq!(g.prod_count(), 4);
        let accept = g.prod(g.accept_prod());
        assert_eq!(accept.lhs(), g.accept());
        assert_eq!(accept.rhs(), &[g.start(), SymbolId::EOF]);
        assert_eq!(g.name(g.accept()), "$accept");
        assert_eq!(g.display_name(SymbolId::EOF), "$");
    }

    #[test]
    fn kinds_inferred_from_lhs_usage() {
        let g = expr_grammar();
        assert!(g.is_nonterminal(g.symbol_named("e").unwrap()));
        assert!(g.is_terminal(g.symbol_named("NUM").unwrap()));
        assert!(g.is_terminal(g.symbol_named("+").unwrap()));
        assert_eq!(g.terminal_count(), 4); // $end + * NUM
        assert_eq!(g.nonterminal_count(), 2); // $accept e
    }

    #[test]
    fn dense_indices_round_trip() {
        let g = expr_grammar();
        for t in 0..g.terminal_count() {
            assert_eq!(g.tindex(g.terminal(t)), t);
        }
        for n in 0..g.nonterminal_count() {
            assert_eq!(g.ntindex(g.nonterminal(n)), n);
        }
    }

    #[test]
    fn precedence_levels_increase() {
        let g = expr_grammar();
        let plus = g.terminal_prec(g.symbol_named("+").unwrap()).unwrap();
        let star = g.terminal_prec(g.symbol_named("*").unwrap()).unwrap();
        assert!(star.level > plus.level);
        assert_eq!(plus.assoc, Assoc::Left);
    }

    #[test]
    fn production_inherits_last_terminal_precedence() {
        let g = expr_grammar();
        let e = g.symbol_named("e").unwrap();
        let prods = g.prods_of(e);
        let plus_prod = g.prod(prods[0]);
        assert_eq!(
            plus_prod.precedence(),
            g.terminal_prec(g.symbol_named("+").unwrap())
        );
        let num_prod = g.prod(prods[2]);
        assert_eq!(num_prod.precedence(), None);
    }

    #[test]
    fn explicit_prec_overrides() {
        let mut b = GrammarBuilder::new();
        b.prec_level(Assoc::Right, &["UMINUS"]);
        b.rule_prec("e", &["-", "e"], "UMINUS");
        b.rule("e", &["NUM"]);
        let g = b.build().unwrap();
        let e = g.symbol_named("e").unwrap();
        let p = g.prod(g.prods_of(e)[0]);
        assert_eq!(p.precedence().unwrap().assoc, Assoc::Right);
    }

    #[test]
    fn token_on_lhs_is_error() {
        let mut b = GrammarBuilder::new();
        b.token("x");
        b.rule("x", &["y"]);
        assert_eq!(b.build().unwrap_err(), GrammarError::TokenOnLhs("x".into()));
    }

    #[test]
    fn missing_start_is_error() {
        let b = GrammarBuilder::new();
        assert_eq!(b.build().unwrap_err(), GrammarError::NoStartSymbol);
    }

    #[test]
    fn start_defaults_to_first_rule() {
        let mut b = GrammarBuilder::new();
        b.rule("s", &["a"]);
        b.rule("a", &["X"]);
        let g = b.build().unwrap();
        assert_eq!(g.name(g.start()), "s");
    }

    #[test]
    fn start_must_be_nonterminal() {
        let mut b = GrammarBuilder::new();
        b.start("X");
        b.rule("s", &["X"]);
        assert_eq!(
            b.build().unwrap_err(),
            GrammarError::StartIsTerminal("X".into())
        );
    }

    #[test]
    fn empty_production_allowed() {
        let mut b = GrammarBuilder::new();
        b.rule("s", &[]);
        let g = b.build().unwrap();
        let s = g.symbol_named("s").unwrap();
        assert!(g.prod(g.prods_of(s)[0]).rhs().is_empty());
        assert!(g.format_prod(g.prods_of(s)[0]).contains("<empty>"));
    }

    #[test]
    fn display_lists_user_productions() {
        let g = expr_grammar();
        let shown = g.to_string();
        assert!(shown.contains("e -> e + e"));
        assert!(!shown.contains("$accept"), "augmented prod hidden: {shown}");
    }
}
