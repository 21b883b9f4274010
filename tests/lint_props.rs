//! Property-based tests for the lint engine over randomly generated
//! grammars: linting must never panic, must be deterministic (two runs,
//! and two independent `Linter` instances, produce byte-identical output),
//! and its diagnostics must respect basic structural invariants.
//!
//! The random grammars come from the same hand-rolled [`XorShift`]-driven
//! generator idiom as `tests/props.rs`, extended with random precedence
//! declarations so the precedence-sensitive passes (L008/L009) are
//! exercised too. Every failure is reproducible from the printed seed.

use lalrcex::core::Engine;
use lalrcex::grammar::{Assoc, Grammar, GrammarBuilder};
use lalrcex::lint::{render_json, render_text, worst_severity, Diagnostic, Linter, Severity};
use lalrcex::prng::XorShift;

fn lint(g: &Grammar) -> Vec<Diagnostic> {
    Linter::new().run(&Engine::new(g))
}

const NT_COUNT: usize = 3;
const T_COUNT: usize = 4;

fn nt_name(i: usize) -> String {
    format!("n{i}")
}

fn sym_name(code: u8) -> String {
    if (code as usize) < T_COUNT {
        format!("t{code}")
    } else {
        nt_name((code as usize - T_COUNT) % NT_COUNT)
    }
}

/// A random grammar: 3 nonterminals with 1–3 productions of 0–3 symbols
/// each, plus (half the time) 1–2 random precedence levels over the
/// terminal alphabet — the ingredient `tests/props.rs` doesn't need but
/// the precedence passes do.
fn gen_grammar(rng: &mut XorShift) -> Grammar {
    let mut b = GrammarBuilder::new();
    b.start(&nt_name(0));
    if rng.chance(1, 2) {
        let levels = 1 + rng.gen_range(2);
        for _ in 0..levels {
            let assoc = match rng.gen_range(3) {
                0 => Assoc::Left,
                1 => Assoc::Right,
                _ => Assoc::Nonassoc,
            };
            let n = 1 + rng.gen_range(2);
            let names: Vec<String> = (0..n)
                .map(|_| format!("t{}", rng.gen_range(T_COUNT)))
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b.prec_level(assoc, &refs);
        }
    }
    for i in 0..NT_COUNT {
        let lhs = nt_name(i);
        let nprods = 1 + rng.gen_range(3);
        for _ in 0..nprods {
            let len = rng.gen_range(4);
            let names: Vec<String> = (0..len)
                .map(|_| sym_name(rng.gen_range(T_COUNT + NT_COUNT) as u8))
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b.rule(&lhs, &refs);
        }
    }
    b.build().expect("random grammars are structurally valid")
}

const CASES: u64 = 64;

/// Linting a random grammar never panics, whatever the grammar's shape
/// (cycles, nullable storms, dead symbols, silenced conflicts, ...).
#[test]
fn lint_never_panics() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0x11AB + seed);
        let g = gen_grammar(&mut rng);
        let diags = lint(&g);
        // While here: structural invariants of every diagnostic.
        for d in &diags {
            assert!(
                d.code.id.starts_with('L'),
                "seed {seed}: code id {:?}",
                d.code.id
            );
            assert!(!d.message.is_empty(), "seed {seed}: empty message");
            if let Some(s) = d.span {
                assert!(s.line >= 1, "seed {seed}: 0 line in span");
            }
        }
        match worst_severity(&diags) {
            None => assert!(diags.is_empty()),
            Some(w) => assert!(diags.iter().any(|d| d.severity == w)),
        }
    }
}

/// Two lint runs of the same grammar are byte-identical — across repeated
/// calls, across independent `Linter` instances, and through both
/// renderers. The masking probe is budgeted in explored nodes, not wall
/// time, so this holds on arbitrarily loaded machines.
#[test]
fn lint_is_deterministic() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0x5EED + seed);
        let g = gen_grammar(&mut rng);
        let a = lint(&g);
        let b = lint(&g);
        assert_eq!(a, b, "seed {seed}: diagnostics differ between runs");
        let c = Linter::new().run(&Engine::new(&g));
        assert_eq!(a, c, "seed {seed}: diagnostics differ between linters");
        assert_eq!(
            render_text("g.y", &a),
            render_text("g.y", &b),
            "seed {seed}"
        );
        assert_eq!(
            render_json("g.y", &a),
            render_json("g.y", &b),
            "seed {seed}"
        );
    }
}

/// Diagnostics come out sorted by (line, code, message) — the order the
/// snapshot format and the CLI rely on.
#[test]
fn lint_output_is_sorted() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0x0DDE + seed);
        let g = gen_grammar(&mut rng);
        let diags = lint(&g);
        let keys: Vec<_> = diags
            .iter()
            .map(|d| (d.span.map_or(0, |s| s.line), d.code.id, d.message.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "seed {seed}");
    }
}

/// Error severity only ever comes from the passes documented to produce
/// it (unproductive nonterminals and reachable productive cycles); every
/// other pass warns.
#[test]
fn error_severity_is_reserved() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0xE507 + seed);
        let g = gen_grammar(&mut rng);
        for d in lint(&g) {
            if d.severity == Severity::Error {
                assert!(
                    d.code.id == "L002" || d.code.id == "L005",
                    "seed {seed}: unexpected error from {}",
                    d.code.id
                );
            }
        }
    }
}

/// Provenance classification and rendering over the same random grammars:
/// never panics, and its output respects the structural invariants the
/// explain surfaces rely on — every classified conflict renders to
/// non-empty text, every chain step renders, shift/reduce conflicts are
/// never merge artifacts (merging equal-core LR(1) states cannot
/// introduce one), and `counts()` agrees with a manual tally.
#[test]
fn provenance_rendering_never_panics() {
    use lalrcex::core::{
        format_provenance, render_chain_step, Classification, Engine, ProvenanceOutcome,
    };
    use lalrcex::lr::ConflictKind;
    for seed in 0..CASES {
        let mut rng = XorShift::new(0x9307 + seed);
        let g = gen_grammar(&mut rng);
        let p = Engine::new(&g)
            .provenance()
            .expect("provenance on a random grammar never faults");
        let counts = p.counts();
        let mut tac = 0u64;
        let mut merge = 0u64;
        let mut internal = 0u64;
        for outcome in &p.conflicts {
            match outcome {
                ProvenanceOutcome::Classified(cp) => {
                    match cp.classification {
                        Classification::TrueAmbiguityCandidate => tac += 1,
                        Classification::MergeArtifact => merge += 1,
                        Classification::PrecedenceResolved => {
                            panic!("seed {seed}: reported conflict classified resolved")
                        }
                    }
                    if matches!(cp.conflict.kind, ConflictKind::ShiftReduce { .. }) {
                        assert_eq!(
                            cp.classification,
                            Classification::TrueAmbiguityCandidate,
                            "seed {seed}: S/R conflict classified as merge artifact"
                        );
                    }
                    let text = format_provenance(&g, cp);
                    assert!(!text.is_empty(), "seed {seed}: empty rendering");
                    for step in &cp.chain {
                        assert!(
                            !render_chain_step(&g, step).is_empty(),
                            "seed {seed}: empty chain step"
                        );
                    }
                }
                ProvenanceOutcome::Internal(_) => internal += 1,
            }
        }
        assert_eq!(counts.true_candidates, tac, "seed {seed}");
        assert_eq!(counts.merge_artifacts, merge, "seed {seed}");
        assert_eq!(counts.internal, internal, "seed {seed}");
        assert_eq!(
            counts.precedence_resolved,
            p.resolutions.len() as u64,
            "seed {seed}"
        );
        for r in &p.resolutions {
            assert_eq!(
                r.classification,
                Classification::PrecedenceResolved,
                "seed {seed}"
            );
            for step in &r.chain {
                assert!(
                    !render_chain_step(&g, step).is_empty(),
                    "seed {seed}: empty resolution chain step"
                );
            }
        }
    }
}

/// Provenance is byte-deterministic: two independent engines over the
/// same grammar render identical chains, classifications, and merge
/// evidence for every conflict and resolution.
#[test]
fn provenance_is_deterministic() {
    use lalrcex::core::{format_provenance, Engine, ProvenanceOutcome};
    for seed in 0..CASES / 2 {
        let mut rng = XorShift::new(0xDE7E + seed);
        let g = gen_grammar(&mut rng);
        let render = |e: &Engine| -> String {
            let p = e.provenance().expect("no faults injected");
            let mut out = String::new();
            for outcome in &p.conflicts {
                match outcome {
                    ProvenanceOutcome::Classified(cp) => out.push_str(&format_provenance(&g, cp)),
                    ProvenanceOutcome::Internal(e) => out.push_str(&format!("internal: {e}")),
                }
                out.push('\n');
            }
            out
        };
        let a = Engine::new(&g);
        let b = Engine::new(&g);
        assert_eq!(render(&a), render(&b), "seed {seed}: renderings differ");
        // The memoized second call is identical to the first.
        assert_eq!(render(&a), render(&a), "seed {seed}: memo differs");
    }
}
