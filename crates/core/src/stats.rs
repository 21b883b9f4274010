//! Observability counters for the counterexample engine.
//!
//! Every phase of a conflict's diagnosis is metered: the shortest
//! lookahead-sensitive spine search (§4), the product-parser unifying
//! search (§5), and the nonunifying construction. The per-conflict
//! [`SearchStats`] ride on [`crate::ConflictReport`]; the grammar-wide
//! [`GrammarStats`] aggregate rides on [`crate::GrammarReport`] and feeds
//! the `--stats` output of the CLI and the explored-state columns of the
//! Table 1 harness.
//!
//! Counters are exact and deterministic for a given conflict; wall-clock
//! durations and memo hit/miss splits depend on scheduling and are
//! explicitly *excluded* from the engine's determinism guarantee.

use std::time::Duration;

/// Counters from one product-parser search (§5).
///
/// `explored`, `enqueued`, `deduped`, and `frontier_peak` count **arena
/// records** — configurations committed to the search's configuration
/// arena — not transient queue operations, so they are invariant under the
/// queue implementation and the worker count.
/// `enqueued > explored` is a legitimate final state: a search that finds
/// its unifying example (or hits a cutoff) returns with a nonempty
/// frontier, whose members were enqueued but never explored (stackovf10 in
/// EXPERIMENTS.md Table 1 is the canonical instance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchMetrics {
    /// Configurations taken off the frontier and expanded.
    pub explored: u64,
    /// Configurations accepted into the arena (including the initial
    /// configuration), i.e. survivors of the visited-set dedup.
    pub enqueued: u64,
    /// Successor configurations dropped because their core was already
    /// visited (the §5.2 dedup).
    pub deduped: u64,
    /// High-water mark of the frontier (pending arena records), sampled
    /// after each cost bucket is expanded.
    pub frontier_peak: u64,
    /// Item-sequence cons cells allocated — the arena footprint behind the
    /// record counts. Deterministic.
    pub arena_cells: u64,
}

impl SearchMetrics {
    /// Accumulates another search's counters into this one (peaks are a
    /// max, everything else a sum).
    pub fn merge(&mut self, other: &SearchMetrics) {
        self.explored += other.explored;
        self.enqueued += other.enqueued;
        self.deduped += other.deduped;
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.arena_cells += other.arena_cells;
    }
}

/// Everything metered while diagnosing one conflict.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Product-parser search counters.
    pub search: SearchMetrics,
    /// Nodes expanded by the shortest lookahead-sensitive path search
    /// (zero when the spine came from the per-grammar memo).
    pub spine_nodes: u64,
    /// Whether the spine was served from the per-grammar memo.
    pub spine_memo_hit: bool,
    /// Whether the conflict's decided verdict was served from the
    /// per-engine verdict memo; `search` then holds the counters of the
    /// search that decided it, and no search ran.
    pub verdict_memo_hit: bool,
    /// Supervised re-runs of this conflict slot after a contained fault
    /// (the service layer's fault-retry supervision). Zero on first
    /// runs; filled by the supervisor, not by the engine.
    pub retries: u64,
    /// Time locating (or fetching) the spine.
    pub time_spine: Duration,
    /// Time in the unifying search.
    pub time_unifying: Duration,
    /// Time constructing the nonunifying example.
    pub time_nonunifying: Duration,
}

/// Time building the conflict-independent state shared by every conflict,
/// one duration per layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecomputeTimes {
    /// The LR(0) states.
    pub lr0: Duration,
    /// Grammar analyses, DeRemer–Pennello relations and per-item LALR(1)
    /// lookaheads.
    pub lookaheads: Duration,
    /// Parse tables with precedence resolution.
    pub tables: Duration,
    /// The state-item graph with its reverse edges; zero while the graph
    /// is unbuilt (a grammar without conflicts or probed resolutions never
    /// builds it).
    pub state_graph: Duration,
}

impl PrecomputeTimes {
    /// The four layers together.
    pub fn total(&self) -> Duration {
        self.lr0 + self.lookaheads + self.tables + self.state_graph
    }
}

/// Grammar-wide aggregate over all conflicts of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrammarStats {
    /// Time building the conflict-independent state shared by every
    /// conflict, per layer.
    pub precompute: PrecomputeTimes,
    /// Worker threads used by `analyze_all`.
    pub workers: usize,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Spine-memo hits across all conflicts.
    pub spine_memo_hits: u64,
    /// Spine-memo misses (spines actually computed).
    pub spine_memo_misses: u64,
    /// Conflicts whose decided verdict was served from the verdict memo,
    /// without searching.
    pub verdict_memo_hits: u64,
    /// Aggregate product-parser search counters.
    pub search: SearchMetrics,
    /// Aggregate LSSI nodes expanded (misses only).
    pub spine_nodes: u64,
    /// CPU time summed across conflicts (≥ wall time when parallel).
    pub cpu_time: Duration,
    /// Engine-cache hits, cumulative for the session that produced this
    /// run. Zero when no [`crate::cache::EngineCache`] is in front of the
    /// engine (direct `Engine` runs). Filled by the session
    /// layer, not by `absorb`.
    pub cache_hits: u64,
    /// Engine-cache misses (engines actually built); see [`Self::cache_hits`].
    pub cache_misses: u64,
    /// Engine-cache evictions; see [`Self::cache_hits`].
    pub cache_evictions: u64,
    /// Conflicts classified true-ambiguity-candidate by the provenance
    /// analysis. Filled by [`Self::record_provenance`] when the caller ran
    /// it; all-zero classification counters mean provenance was not
    /// requested.
    pub class_true_candidates: u64,
    /// Conflicts classified merge-artifact; see [`Self::class_true_candidates`].
    pub class_merge_artifacts: u64,
    /// Precedence-resolved (silenced) conflicts; see
    /// [`Self::class_true_candidates`].
    pub class_precedence_resolved: u64,
    /// Conflict slots whose classification faulted (contained); see
    /// [`Self::class_true_candidates`].
    pub class_internal: u64,
    /// Conflict slots re-run by fault-retry supervision after a
    /// contained `Internal` fault. Filled by the session layer (like the
    /// cache counters), not by `absorb`.
    pub slot_retries: u64,
    /// Retried slots whose re-run completed (the fault was transient —
    /// e.g. a one-shot injected fault — and the slot recovered).
    pub slots_recovered: u64,
    /// Canonical LR(1) states explored by the merge-artifact check.
    pub lr1_states: u64,
    /// Time spent in the provenance analysis (zero on a memoized engine).
    pub provenance_time: Duration,
}

impl GrammarStats {
    /// Folds one conflict's stats into the aggregate.
    pub fn absorb(&mut self, s: &SearchStats) {
        self.conflicts += 1;
        if s.spine_memo_hit {
            self.spine_memo_hits += 1;
        } else {
            self.spine_memo_misses += 1;
        }
        self.verdict_memo_hits += u64::from(s.verdict_memo_hit);
        self.search.merge(&s.search);
        self.spine_nodes += s.spine_nodes;
        self.cpu_time += s.time_spine + s.time_unifying + s.time_nonunifying;
    }

    /// Folds a grammar's provenance classification tallies into the
    /// aggregate (called by the layer that ran the provenance analysis).
    pub fn record_provenance(&mut self, p: &crate::provenance::GrammarProvenance) {
        let c = p.counts();
        self.class_true_candidates += c.true_candidates;
        self.class_merge_artifacts += c.merge_artifacts;
        self.class_precedence_resolved += c.precedence_resolved;
        self.class_internal += c.internal;
        self.lr1_states += p.lr1_states as u64;
        self.provenance_time += p.compute_time;
    }
}

/// One-line rendering of a conflict's counters for `--stats` output.
pub fn format_conflict_stats(s: &SearchStats) -> String {
    format!(
        "explored={} enqueued={} deduped={} frontier-peak={} spine={} spine-nodes={} verdict={} t-spine={:.1}ms t-search={:.1}ms t-nonunif={:.1}ms",
        s.search.explored,
        s.search.enqueued,
        s.search.deduped,
        s.search.frontier_peak,
        if s.spine_memo_hit { "memo" } else { "computed" },
        s.spine_nodes,
        if s.verdict_memo_hit { "memo" } else { "computed" },
        s.time_spine.as_secs_f64() * 1e3,
        s.time_unifying.as_secs_f64() * 1e3,
        s.time_nonunifying.as_secs_f64() * 1e3,
    )
}

/// Multi-line rendering of the grammar aggregate for `--stats` output.
/// The provenance line reads `not run` when there were conflicts but no
/// classification was recorded (see [`GrammarStats::class_true_candidates`]).
pub fn format_grammar_stats(stats: &GrammarStats, wall: Duration) -> String {
    let classified = stats.class_true_candidates
        + stats.class_merge_artifacts
        + stats.class_precedence_resolved
        + stats.class_internal;
    let provenance = if stats.conflicts > 0 && classified == 0 {
        "not run".to_string()
    } else {
        format!(
            "{} true-ambiguity / {} merge-artifact / {} precedence-resolved / {} internal (lr1 states {}, {:.1}ms)",
            stats.class_true_candidates,
            stats.class_merge_artifacts,
            stats.class_precedence_resolved,
            stats.class_internal,
            stats.lr1_states,
            stats.provenance_time.as_secs_f64() * 1e3,
        )
    };
    format!(
        "grammar stats: {} conflicts, {} workers, precompute {:.1}ms \
         (lr0 {:.1}ms, lookaheads {:.1}ms, tables {:.1}ms, state graph {:.1}ms)\n\
         \u{20} spine memo: {} hits / {} misses ({} LSSI nodes expanded)\n\
         \u{20} verdict memo: {} hits\n\
         \u{20} unifying search: {} explored, {} enqueued, {} deduped, frontier peak {}, {} arena cells\n\
         \u{20} supervision: {} slot retries / {} recovered\n\
         \u{20} engine cache: {} hits / {} misses / {} evictions\n\
         \u{20} provenance: {}\n\
         \u{20} time: {:.1}ms wall, {:.1}ms cpu across conflicts",
        stats.conflicts,
        stats.workers,
        stats.precompute.total().as_secs_f64() * 1e3,
        stats.precompute.lr0.as_secs_f64() * 1e3,
        stats.precompute.lookaheads.as_secs_f64() * 1e3,
        stats.precompute.tables.as_secs_f64() * 1e3,
        stats.precompute.state_graph.as_secs_f64() * 1e3,
        stats.spine_memo_hits,
        stats.spine_memo_misses,
        stats.spine_nodes,
        stats.verdict_memo_hits,
        stats.search.explored,
        stats.search.enqueued,
        stats.search.deduped,
        stats.search.frontier_peak,
        stats.search.arena_cells,
        stats.slot_retries,
        stats.slots_recovered,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        provenance,
        wall.as_secs_f64() * 1e3,
        stats.cpu_time.as_secs_f64() * 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = SearchMetrics {
            explored: 1,
            enqueued: 2,
            deduped: 3,
            frontier_peak: 10,
            arena_cells: 7,
        };
        let b = SearchMetrics {
            explored: 10,
            enqueued: 20,
            deduped: 30,
            frontier_peak: 4,
            arena_cells: 70,
        };
        a.merge(&b);
        assert_eq!(a.explored, 11);
        assert_eq!(a.enqueued, 22);
        assert_eq!(a.deduped, 33);
        assert_eq!(a.frontier_peak, 10);
        assert_eq!(a.arena_cells, 77);
    }

    #[test]
    fn absorb_counts_memo_hits() {
        let mut g = GrammarStats::default();
        let mut s = SearchStats {
            spine_memo_hit: true,
            ..SearchStats::default()
        };
        g.absorb(&s);
        s.spine_memo_hit = false;
        g.absorb(&s);
        assert_eq!(g.conflicts, 2);
        assert_eq!(g.spine_memo_hits, 1);
        assert_eq!(g.spine_memo_misses, 1);
    }

    #[test]
    fn renderings_mention_key_counters() {
        let s = SearchStats::default();
        assert!(format_conflict_stats(&s).contains("explored=0"));
        let g = GrammarStats::default();
        let out = format_grammar_stats(&g, Duration::ZERO);
        assert!(out.contains("spine memo"));
        assert!(out.contains("verdict memo: 0 hits"));
        assert!(out.contains("lookaheads 0.0ms"));
        assert!(out.contains("unifying search"));
        assert!(out.contains("provenance: 0 true-ambiguity / 0 merge-artifact"));
        let unclassified = GrammarStats {
            conflicts: 3,
            ..GrammarStats::default()
        };
        let out = format_grammar_stats(&unclassified, Duration::ZERO);
        assert!(out.contains("provenance: not run\n"), "{out}");
        let classified = GrammarStats {
            class_true_candidates: 3,
            ..unclassified
        };
        let out = format_grammar_stats(&classified, Duration::ZERO);
        assert!(out.contains("provenance: 3 true-ambiguity / 0 merge-artifact"));
    }
}
