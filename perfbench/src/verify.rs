//! `verify_large`: `build::Verifier::verify_source` on large conflict-free
//! grammars, each op a distinct text, alternating DSL and yacc syntax.

use crate::gen::{self, Syntax, STRESS_SHAPE};
use crate::ledger::{Ledger, VerifyResult};
use crate::replay::{Counters, Op};
use crate::trace::Recorder;
use crate::{Outcome, Run, ServeLayers};
use lalrcex::build::Verifier;
use lalrcex::grammar::Grammar;
use lalrcex::GrammarFormat;
use std::collections::BTreeMap;
use std::time::Instant;

/// The conflict-free base grammars of the BV10 rows.
const BASES: [&str; 4] = ["sql", "pascal", "c89", "java"];

/// Input classes in the order ops visit them, one op in five each. Their
/// times are far apart (sql < pascal < c89 < java < stress), so the op-time
/// median is the median of the c89 ops and the 90th percentile the median
/// of the stress ops, never a point in a class's tail or on the edge
/// between two classes.
const CYCLE: [&str; 5] = ["sql", "pascal", "c89", "java", "stress"];

fn base_text(class: &str) -> &'static str {
    match class {
        "sql" => include_str!("../../crates/corpus/grammars/sql.y"),
        "pascal" => include_str!("../../crates/corpus/grammars/pascal.y"),
        "c89" => include_str!("../../crates/corpus/grammars/c89.y"),
        _ => include_str!("../../crates/corpus/grammars/java.y"),
    }
}

/// One op's input.
pub struct Input {
    pub class: &'static str,
    pub syntax: Syntax,
    pub text: String,
}

/// Parsed base grammars, from which every base-class input is re-emitted.
pub struct Bases(Vec<(&'static str, Grammar)>);

impl Bases {
    pub fn load() -> Bases {
        Bases(
            BASES
                .iter()
                .map(|&c| {
                    (
                        c,
                        Grammar::parse(base_text(c)).expect("base grammar parses"),
                    )
                })
                .collect(),
        )
    }

    /// The input of op `i` under `seed`: a renamed base grammar or a fresh
    /// stress grammar, in DSL on even visits of its class and yacc on odd.
    pub fn input(&self, seed: u64, i: usize) -> Input {
        let (round, slot) = (i / CYCLE.len(), i % CYCLE.len());
        let class = CYCLE[slot];
        let per_round = CYCLE.iter().filter(|&&c| c == class).count();
        let earlier = CYCLE[..slot].iter().filter(|&&c| c == class).count();
        let visit = round * per_round + earlier;
        let syntax = if visit % 2 == 0 {
            Syntax::Dsl
        } else {
            Syntax::Yacc
        };
        let op_seed = gen::mix(seed, i as u64);
        let text = match self.0.iter().find(|(c, _)| *c == class) {
            Some((_, g)) => gen::emit(g, &format!("v{op_seed:x}"), syntax),
            None => gen::stress_grammar(op_seed, STRESS_SHAPE, syntax),
        };
        Input {
            class,
            syntax,
            text,
        }
    }
}

fn format_of(syntax: Syntax) -> GrammarFormat {
    match syntax {
        Syntax::Dsl => GrammarFormat::Dsl,
        Syntax::Yacc => GrammarFormat::Yacc,
    }
}

/// One op: verify the text; returns its shape and the op time.
fn run_one(input: &Input) -> Result<(VerifyResult, f64), String> {
    let label = format!("{}.{}", input.class, input.syntax.name());
    let t = Instant::now();
    let verified = Verifier::new()
        .format(format_of(input.syntax))
        .verify_source(input.text.as_str(), &label)
        .map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        VerifyResult {
            states: verified.states as u64,
            productions: verified.productions as u64,
        },
        ms,
    ))
}

/// The answers the ledger pins: one entry per class, from both syntaxes.
pub fn expected() -> Vec<(&'static str, VerifyResult)> {
    let bases = Bases::load();
    let mut out: Vec<(&'static str, VerifyResult)> = Vec::new();
    for i in 0..2 * CYCLE.len() {
        let input = bases.input(0, i);
        match run_one(&input) {
            Ok((r, _)) => {
                if let Some((_, prev)) = out.iter().find(|(c, _)| *c == input.class) {
                    assert_eq!(*prev, r, "{} differs between syntaxes", input.class);
                } else {
                    out.push((input.class, r));
                }
            }
            Err(e) => panic!("{}: {e}", input.class),
        }
    }
    out
}

pub fn run(run: &Run, ledger: &Ledger) -> Outcome {
    let mut out = Outcome::default();
    let bases = Bases::load();
    let setup_s = crate::measure_setup(run, || {
        let b = Bases::load();
        (0..CYCLE.len())
            .map(|i| b.input(run.seed, i).text.len())
            .sum::<usize>()
    });

    let mut op_ms = Vec::new();
    let mut by_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut busy_s = 0.0;
    let start = Instant::now();
    while start.elapsed() < run.seconds {
        let i = out.attempted as usize;
        let input = bases.input(run.seed, i);
        out.attempted += 1;
        match run_one(&input) {
            Ok((r, ms)) => {
                op_ms.push(ms);
                by_class
                    .entry(format!("{}.{}", input.class, input.syntax.name()))
                    .or_default()
                    .push(ms);
                busy_s += ms / 1e3;
                let diffs = ledger.check_verify(input.class, r);
                out.fail_all(diffs.into_iter().map(|d| format!("op{i}: {d}")).collect());
            }
            Err(e) => out.fail(format!(
                "op{i}: {} {}: {e}",
                input.class,
                input.syntax.name()
            )),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb(None);
    out.note(format!(
        "median ms per class: {}",
        by_class
            .iter()
            .map(|(c, v)| format!("{c}={:.1}", crate::trace::median(v)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(format!(
        "{} ops over {} input classes, {:.1} s verifying",
        op_ms.len(),
        CYCLE.len(),
        busy_s
    ));

    if run.trace {
        trace(run, &bases, &op_ms, &mut out);
    } else {
        out.end_to_end(
            setup_s,
            wall_s,
            op_ms.len() as f64 / busy_s,
            &op_ms,
            peak_rss_mb,
        );
        // Every verdict is "verified clean" with no search cutoff.
        out.metric("decided_frac", 1.0);
    }
    out
}

/// Replays the untraced run's inputs through the layer calls.
fn trace(run: &Run, bases: &Bases, untraced_ms: &[f64], out: &mut Outcome) {
    let rec = Recorder::new();
    let mut counters = Counters::default();
    for i in 0..untraced_ms.len() {
        let input = bases.input(run.seed, i);
        let mut op = Op::begin(&rec, i as u32);
        if let Err(e) = op.construct(&input.text, input.syntax) {
            out.fail(format!("op{i}: replay: {e}"));
        }
        let c = op.end();
        if c.conflicts != 0 {
            out.fail(format!("op{i}: replay found {} conflicts", c.conflicts));
        }
        counters.add(&c);
    }
    crate::layer_metrics(
        out,
        &rec,
        &counters,
        untraced_ms.len(),
        untraced_ms,
        run,
        &ServeLayers::default(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_distinct_deterministic_and_cover_both_syntaxes() {
        let bases = Bases::load();
        let texts: Vec<String> = (0..2 * CYCLE.len())
            .map(|i| bases.input(3, i).text)
            .collect();
        let again: Vec<String> = (0..2 * CYCLE.len())
            .map(|i| bases.input(3, i).text)
            .collect();
        assert_eq!(texts, again);
        let distinct: std::collections::BTreeSet<&String> = texts.iter().collect();
        assert_eq!(distinct.len(), texts.len(), "every op is a distinct text");
        for class in BASES.iter().chain(["stress"].iter()) {
            let syntaxes: std::collections::BTreeSet<&str> = (0..2 * CYCLE.len())
                .map(|i| bases.input(3, i))
                .filter(|inp| inp.class == *class)
                .map(|inp| inp.syntax.name())
                .collect();
            assert_eq!(syntaxes.len(), 2, "{class} appears in DSL and yacc");
        }
    }
}
