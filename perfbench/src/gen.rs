//! Benchmark inputs: the seeded stress-grammar family and a grammar
//! emitter that re-renders any parsed grammar in DSL or yacc syntax with
//! renamed nonterminals.
//!
//! Everything here is a pure function of its seed, so the same seed
//! always yields byte-identical texts.

use lalrcex::grammar::{Assoc, Grammar, SymbolId};
use lalrcex::prng::XorShift;
use std::fmt::Write as _;

/// Output syntax of an emitted grammar.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Syntax {
    /// The native grammar DSL.
    Dsl,
    /// POSIX yacc / Bison, with a C prologue and per-alternative actions.
    Yacc,
}

impl Syntax {
    pub fn name(self) -> &'static str {
        match self {
            Syntax::Dsl => "dsl",
            Syntax::Yacc => "yacc",
        }
    }
}

/// Mixes a seed with a stream index (splitmix64 finalizer), so per-op
/// generators are independent of each other.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i + 1));
    }
}

/// Binary operators the stress family draws its precedence levels from.
/// Every level of one family uses distinct operators, which is what keeps
/// the expression grammars LALR(1)-clean.
const OPERATORS: &[&str] = &[
    "+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&", "|", "^", "&&", "||", "<<",
    ">>", "~>", "<~",
];

/// Shape of one stress grammar. The shape fixes every structural count
/// (productions, LR(0) states); the seed only renames symbols, picks
/// operators and permutes families and alternatives.
#[derive(Clone, Copy, Debug)]
pub struct StressShape {
    /// Independent statement families, each led by its own keywords.
    pub families: usize,
    /// Binary-operator precedence levels per family.
    pub levels: usize,
}

/// Default stress shape: 100 families of 24 productions each, 2 504
/// productions and 4 906 LR(0) states in all.
pub const STRESS_SHAPE: StressShape = StressShape {
    families: 100,
    levels: 4,
};

/// One rule of an abstract grammar: `lhs : alt | alt ... ;`, symbols
/// written as they appear in the emitted text (terminals quoted).
struct Rule {
    lhs: String,
    alts: Vec<Vec<String>>,
}

/// Generates a stress grammar of the given shape in the given syntax.
///
/// The grammar is LALR(1)-clean by construction: each family's statements
/// start with keywords no other family uses, so LR(0) states never mix two
/// families; inside a family, each precedence level is a left-recursive
/// chain over operators used by no other level of that family, and the
/// primary expressions start with distinct tokens.
pub fn stress_grammar(seed: u64, shape: StressShape, syntax: Syntax) -> String {
    let mut rng = XorShift::new(mix(seed, 0x5743_5245_5353));
    let tag = format!("g{:x}", rng.next_u64() & 0xfff);
    let mut rules = Vec::new();
    let mut families: Vec<usize> = (0..shape.families).collect();
    shuffle(&mut families, &mut rng);
    rules.push(Rule {
        lhs: "program".into(),
        alts: vec![vec!["items".into()]],
    });
    rules.push(Rule {
        lhs: "items".into(),
        alts: vec![vec!["items".into(), "item".into()], vec!["item".into()]],
    });
    rules.push(Rule {
        lhs: "item".into(),
        alts: families
            .iter()
            .map(|f| vec![format!("stmt_{tag}_{f}")])
            .collect(),
    });
    for &f in &families {
        let q = |s: &str| format!("'{s}'");
        let nt = |s: &str| format!("{s}_{tag}_{f}");
        let e = |l: usize| format!("e{l}_{tag}_{f}");
        let kw = q(&format!("kw_{tag}_{f}"));
        let blk = q(&format!("blk_{tag}_{f}"));
        let end = q(&format!("end_{tag}_{f}"));
        let call = q(&format!("call_{tag}_{f}"));
        rules.push(Rule {
            lhs: nt("stmt"),
            alts: vec![
                vec![kw.clone(), e(0), end.clone()],
                vec![kw.clone(), q("let"), q("id"), q("="), e(0), end.clone()],
                vec![blk, nt("list"), end],
            ],
        });
        rules.push(Rule {
            lhs: nt("list"),
            alts: vec![vec![nt("list"), q(";"), nt("stmt")], vec![nt("stmt")]],
        });
        let mut ops: Vec<&str> = OPERATORS.to_vec();
        shuffle(&mut ops, &mut rng);
        for l in 0..shape.levels {
            let next = e(l + 1);
            rules.push(Rule {
                lhs: e(l),
                alts: vec![
                    vec![e(l), q(ops[2 * l]), next.clone()],
                    vec![e(l), q(ops[2 * l + 1]), next.clone()],
                    vec![next],
                ],
            });
        }
        rules.push(Rule {
            lhs: e(shape.levels),
            alts: vec![
                vec![q("("), e(0), q(")")],
                vec![q("id")],
                vec![q("num")],
                vec![call, q("("), nt("args"), q(")")],
                vec![q("!"), e(shape.levels)],
            ],
        });
        rules.push(Rule {
            lhs: nt("args"),
            alts: vec![vec![nt("args"), q(","), e(0)], vec![e(0)]],
        });
    }
    for r in &mut rules {
        shuffle(&mut r.alts, &mut rng);
    }
    let header = format!(
        "stress grammar seed {seed:#x}: {} families x {} levels",
        shape.families, shape.levels
    );
    render(&header, &[], "program", &rules, syntax)
}

/// Re-renders a parsed grammar with every nonterminal renamed to
/// `<name>_<suffix>`: the same language and LR structure under a distinct
/// text. Terminals keep their names (always quoted); precedence levels and
/// `%prec` overrides are reproduced.
pub fn emit(g: &Grammar, suffix: &str, syntax: Syntax) -> String {
    let name = |s: SymbolId| -> String {
        if g.is_terminal(s) {
            quote(g.name(s))
        } else {
            format!("{}_{suffix}", g.name(s))
        }
    };
    // Precedence declarations, weakest level first.
    let mut levels: Vec<(u16, Assoc, Vec<SymbolId>)> = Vec::new();
    for s in g.symbols().filter(|&s| g.is_terminal(s)) {
        if let Some(p) = g.terminal_prec(s) {
            match levels.iter_mut().find(|(l, _, _)| *l == p.level) {
                Some((_, _, syms)) => syms.push(s),
                None => levels.push((p.level, p.assoc, vec![s])),
            }
        }
    }
    levels.sort_by_key(|(l, _, _)| *l);
    let decls: Vec<String> = levels
        .iter()
        .map(|(_, assoc, syms)| {
            let kw = match assoc {
                Assoc::Left => "%left",
                Assoc::Right => "%right",
                Assoc::Nonassoc => "%nonassoc",
            };
            let names: Vec<String> = syms.iter().map(|&s| name(s)).collect();
            format!("{kw} {}", names.join(" "))
        })
        .collect();
    let mut rules = Vec::new();
    for nt in (0..g.nonterminal_count()).map(|i| g.nonterminal(i)) {
        if nt == g.accept() {
            continue;
        }
        let alts = g
            .prods_of(nt)
            .iter()
            .map(|&p| {
                let prod = g.prod(p);
                let mut alt: Vec<String> = prod.rhs().iter().map(|&s| name(s)).collect();
                let inherited = prod
                    .rhs()
                    .iter()
                    .rev()
                    .find(|&&s| g.is_terminal(s))
                    .and_then(|&s| g.terminal_prec(s));
                if let Some(p) = prod.precedence().filter(|&p| Some(p) != inherited) {
                    if let Some(t) = levels
                        .iter()
                        .find(|(l, a, _)| *l == p.level && *a == p.assoc)
                        .map(|(_, _, syms)| syms[0])
                    {
                        alt.push(format!("%prec {}", name(t)));
                    }
                }
                alt
            })
            .collect();
        rules.push(Rule {
            lhs: name(nt),
            alts,
        });
    }
    let header = format!("renamed variant (suffix {suffix})");
    render(&header, &decls, &name(g.start()), &rules, syntax)
}

/// Quotes a terminal name so both frontends read it as a literal token.
fn quote(s: &str) -> String {
    let q = if s.contains('\'') { '"' } else { '\'' };
    let mut out = String::with_capacity(s.len() + 2);
    out.push(q);
    for c in s.chars() {
        if c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push(q);
    out
}

fn render(header: &str, decls: &[String], start: &str, rules: &[Rule], syntax: Syntax) -> String {
    let mut out = String::new();
    match syntax {
        Syntax::Dsl => {
            let _ = writeln!(out, "// {header}");
        }
        Syntax::Yacc => {
            let _ = writeln!(out, "/* {header} */\n%{{\n#include <stdio.h>\n%}}");
        }
    }
    for d in decls {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(out, "%start {start}\n%%");
    for r in rules {
        let _ = write!(out, "{} :", r.lhs);
        for (i, alt) in r.alts.iter().enumerate() {
            if i > 0 {
                out.push_str("\n    |");
            }
            if alt.is_empty() {
                out.push_str(" %empty");
            }
            for s in alt {
                out.push(' ');
                out.push_str(s);
            }
            if syntax == Syntax::Yacc {
                out.push_str(" { $$ = $1; }");
            }
        }
        out.push_str("\n    ;\n");
    }
    if syntax == Syntax::Yacc {
        out.push_str("%%\nint yyerror(const char *s) { return fprintf(stderr, \"%s\\n\", s); }\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalrcex::lr::Automaton;

    const SMALL: StressShape = StressShape {
        families: 6,
        levels: 3,
    };

    fn parse(text: &str, syntax: Syntax) -> Grammar {
        match syntax {
            Syntax::Dsl => Grammar::parse(text).expect("DSL stress grammar parses"),
            Syntax::Yacc => lalrcex::yacc::parse(text).expect("yacc stress grammar parses"),
        }
    }

    #[test]
    fn stress_grammar_is_deterministic_per_seed() {
        for syntax in [Syntax::Dsl, Syntax::Yacc] {
            assert_eq!(
                stress_grammar(7, SMALL, syntax),
                stress_grammar(7, SMALL, syntax)
            );
            assert_ne!(
                stress_grammar(7, SMALL, syntax),
                stress_grammar(8, SMALL, syntax)
            );
        }
    }

    #[test]
    fn stress_grammar_is_lalr1_clean_with_a_seed_independent_shape() {
        let mut shapes = Vec::new();
        for seed in [1, 2, 3, 0xdead_beef] {
            for syntax in [Syntax::Dsl, Syntax::Yacc] {
                let g = parse(&stress_grammar(seed, SMALL, syntax), syntax);
                let auto = Automaton::build(&g);
                let tables = auto.tables(&g);
                assert!(tables.conflicts().is_empty(), "seed {seed} {syntax:?}");
                assert!(tables.resolutions().is_empty(), "seed {seed} {syntax:?}");
                shapes.push((g.prod_count(), auto.state_count()));
            }
        }
        assert!(shapes.windows(2).all(|w| w[0] == w[1]), "{shapes:?}");
    }

    #[test]
    fn full_stress_shape_has_thousands_of_productions() {
        let g = parse(&stress_grammar(1, STRESS_SHAPE, Syntax::Dsl), Syntax::Dsl);
        assert!(g.prod_count() >= 2000, "{} productions", g.prod_count());
    }

    #[test]
    fn emitted_variants_keep_the_lr_structure() {
        for name in ["SQL.1", "Pascal.2", "figure1"] {
            let entry = lalrcex::corpus::by_name(name).unwrap();
            let g = entry.load().unwrap();
            let auto = Automaton::build(&g);
            let tables = auto.tables(&g);
            for syntax in [Syntax::Dsl, Syntax::Yacc] {
                let text = emit(&g, "v1", syntax);
                let v = parse(&text, syntax);
                let va = Automaton::build(&v);
                let vt = va.tables(&v);
                assert_eq!(v.prod_count(), g.prod_count(), "{name} {syntax:?}");
                assert_eq!(va.state_count(), auto.state_count(), "{name} {syntax:?}");
                assert_eq!(vt.conflicts().len(), tables.conflicts().len(), "{name}");
                assert_eq!(vt.resolutions().len(), tables.resolutions().len(), "{name}");
            }
        }
    }
}
