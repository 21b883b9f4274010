//! Classify every conflict of the evaluation corpus — the data behind the
//! EXPERIMENTS.md provenance table.
//!
//! Run with `cargo run --release --example classify_corpus`.
//!
//! For each Table 1 grammar this runs only the provenance precomputation
//! (no counterexample searches), printing the three-way classification
//! counts, the canonical LR(1) states the merge check explored, and the
//! precompute wall time. The whole corpus takes a few seconds.

use lalrcex::core::{Classification, Engine, ProvenanceOutcome};

fn main() {
    println!(
        "{:<14} {:>6} {:>5} {:>6} {:>5} {:>10} {:>9}",
        "grammar", "conf", "tac", "merge", "prec", "lr1-states", "prov(ms)"
    );
    let mut total = (0u64, 0u64, 0u64, 0u64);
    for entry in lalrcex::corpus::all() {
        let g = entry.load().expect("corpus grammars parse");
        let p = Engine::new(&g)
            .provenance()
            .expect("provenance never faults on the corpus");
        let c = p.counts();
        println!(
            "{:<14} {:>6} {:>5} {:>6} {:>5} {:>10} {:>9.1}",
            entry.name,
            p.conflicts.len(),
            c.true_candidates,
            c.merge_artifacts,
            c.precedence_resolved,
            p.lr1_states,
            p.compute_time.as_secs_f64() * 1e3,
        );
        for o in &p.conflicts {
            if let ProvenanceOutcome::Classified(cp) = o {
                if cp.classification == Classification::MergeArtifact {
                    let m = cp.merge.as_ref().expect("merge artifacts carry evidence");
                    println!(
                        "  merge artifact: state {} merged {} LR(1) variants",
                        m.merged_state.index(),
                        m.variant_count
                    );
                }
            }
        }
        total.0 += p.conflicts.len() as u64;
        total.1 += c.true_candidates;
        total.2 += c.merge_artifacts;
        total.3 += c.precedence_resolved;
    }
    println!(
        "total: {} conflicts — {} true-ambiguity-candidate, {} merge-artifact; \
         {} precedence-resolved resolutions",
        total.0, total.1, total.2, total.3
    );
}
