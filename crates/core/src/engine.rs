//! The parallel shared-precomputation conflict engine.
//!
//! Everything conflict-*independent* is built at most once per grammar —
//! the LALR automaton and the resolved parse tables eagerly, the
//! state-item graph with its reverse edges (§6 "Data structures") on first
//! use, since only conflict explanations need it — and shared read-only
//! across all conflicts. On top of that sits a memo of §4 shortest
//! lookahead-sensitive spines keyed by `(reduce state-item, conflict
//! terminal)`: conflicts that share a reduce item under the same lookahead
//! (common in reduce/reduce clusters and the conflict storms of Java.2)
//! reuse one spine search for both the unifying-search pruning set and the
//! nonunifying construction. The lint engine's precedence-resolution probes
//! ([`Engine::probe_resolution`]) are memoized the same way, keyed by the
//! resolution and its node budget, so a warm engine answers a repeated lint
//! without searching again.
//!
//! The fourth memo holds each conflict's *decided verdict* — its
//! [`ExampleKind`], both examples and the search counters that produced
//! them — keyed by the conflict and the work caps of its search
//! (`extended`, `max_configs`). Only a search that ended on
//! its own (a unifying example, or an exhausted space) with no fault and
//! no cancel is stored, so a warm `analyze` or `explain` of the same
//! grammar returns every decided conflict without searching, and a
//! conflict that was cut off is searched again next time. The per-conflict
//! `time_limit` is not part of the key: a stored verdict is what any run
//! whose clock does not fire returns, so a warm call under a tighter clock
//! gets the decided verdict where a cold run might have been cut off.
//!
//! Per-conflict work — the product-parser unifying search (§5) and the
//! nonunifying construction — fans out across a [`std::thread::scope`]
//! worker pool whose first worker is the calling thread. A
//! deadline-aware scheduler enforces both limits of §6: each conflict's
//! search runs under `min(time_limit, remaining grammar budget)`, and once
//! the grammar-wide `cumulative_limit` is exhausted the remaining
//! conflicts skip the expensive search but still receive their cheap
//! nonunifying counterexamples. Reports are collected in conflict table
//! order, so for runs where no limit fires the output is byte-identical
//! whatever the worker count.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lalrcex_grammar::{Analysis, Derivation, Grammar, ProdId, SymbolId};
use lalrcex_lr::{Automaton, Conflict, ConflictKind, Resolution, StateId, Tables};

use crate::cancel::CancelToken;
use crate::contain::contain;
use crate::error::EngineError;
use crate::lssi::{self, LsNode};
use crate::nonunifying::{nonunifying_example, NonunifyingExample};
use crate::provenance::{self, GrammarProvenance};
use crate::report::{CexConfig, ConflictOutcome, ConflictReport, ExampleKind, GrammarReport};
use crate::search::{unifying_search_cancellable, SearchConfig, SearchOutcome, UnifyingExample};
use crate::state_graph::{StateGraph, StateItemId};
use crate::stats::{GrammarStats, PrecomputeTimes, SearchMetrics, SearchStats};

/// A memoized §4 spine: the shortest lookahead-sensitive path to a
/// conflict's reduce item, plus the derived state set that prunes the
/// unifying search (§6).
pub struct Spine {
    /// The path (`None` when no lookahead-sensitive path exists, which for
    /// genuine LALR conflicts does not happen).
    pub path: Option<Vec<LsNode>>,
    /// The automaton states visited by the path, sorted and deduplicated.
    pub states: Vec<StateId>,
    /// Lookahead-sensitive nodes expanded to find the path.
    pub nodes_expanded: u64,
}

/// The per-grammar engine: conflict-independent state built once, then
/// shared read-only by every per-conflict search (and every worker).
///
/// The engine borrows its grammar ([`Engine::new`]) or owns it
/// ([`Engine::try_new`], which the engine cache builds its entries with).
pub struct Engine<'g> {
    g: Cow<'g, Grammar>,
    auto: Automaton,
    tables: Tables,
    /// The state-item graph and its build time, built on first use.
    graph: OnceLock<(StateGraph, Duration)>,
    /// Build times of the eager layers (`state_graph` stays zero here).
    precompute: PrecomputeTimes,
    spines: Memo<(StateItemId, usize), Arc<Spine>>,
    prov: Memo<(), Arc<GrammarProvenance>>,
    probes: Memo<ProbeKey, ResolutionProbe>,
    verdicts: Memo<VerdictKey, Arc<Verdict>>,
}

/// The policy every engine memo shares. A miss is computed outside the
/// lock: racing workers may duplicate deterministic work rather than
/// block behind it, and the first insert of a key wins. Entries are
/// complete before insertion, so a lock poisoned by a panic contained
/// elsewhere still guards a valid map and is recovered.
struct Memo<K, V>(Mutex<HashMap<K, V>>);

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Memo<K, V> {
        Memo(Mutex::new(HashMap::new()))
    }

    fn map(&self) -> MutexGuard<'_, HashMap<K, V>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored value for `key`, if any.
    fn get(&self, key: &K) -> Option<V> {
        self.map().get(key).cloned()
    }

    /// Stores `value` unless `key` already has one; returns the stored one.
    fn insert(&self, key: K, value: V) -> V {
        self.map().entry(key).or_insert(value).clone()
    }

    /// The sum of `cost` over the stored values.
    fn cost(&self, cost: impl Fn(&V) -> usize) -> usize {
        self.map().values().map(cost).sum()
    }
}

/// The probe memo key: the resolution (state, terminal, reduce production)
/// and the node budget it was probed under.
type ProbeKey = (StateId, SymbolId, ProdId, usize);

/// The verdict memo key: the conflict and the work caps of its search —
/// `extended` and `max_configs`, but not the clock.
type VerdictKey = (Conflict, bool, usize);

/// A conflict's decided verdict: what its search and nonunifying
/// construction produced, and the counters of that search.
struct Verdict {
    kind: ExampleKind,
    unifying: Option<UnifyingExample>,
    nonunifying: Option<NonunifyingExample>,
    search: SearchMetrics,
}

/// The outcome of replaying a precedence-resolved conflict through the
/// unifying search (see [`Engine::probe_resolution`]).
#[derive(Clone, Debug)]
pub enum ResolutionProbe {
    /// The silenced conflict is a genuine ambiguity: here is the proof.
    Ambiguous(Box<UnifyingExample>),
    /// The bounded search exhausted its space without finding ambiguity —
    /// the precedence resolution was (as far as the search can tell) a
    /// harmless tie-break.
    NotProven,
    /// The deterministic node budget ran out before a verdict.
    BudgetExhausted,
    /// The resolution has no reconstructible conflict item pair (e.g. an
    /// accept-state edge case); nothing to probe.
    NotProbed,
    /// The probe faulted internally; the fault was contained at the probe
    /// boundary, so the remaining resolutions still get probed.
    Internal(EngineError),
}

/// The bytes charged for a derivation tree: one [`Derivation`] per node,
/// leaves and dot markers included.
fn derivation_bytes(d: &Derivation) -> usize {
    let children = match d {
        Derivation::Node(_, children) => children.iter().map(derivation_bytes).sum(),
        Derivation::Leaf(_) | Derivation::Dot => 0,
    };
    std::mem::size_of::<Derivation>() + children
}

/// The worker-pool size implied by a configured worker count: `0` means
/// one per available CPU.
pub fn hardware_workers(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Resolves a configured worker count to the number of per-conflict
/// workers: [`hardware_workers`] clamped to `[1, conflicts]`. Each worker
/// runs one conflict's search at a time, single-threaded.
pub fn resolve_workers(configured: usize, conflicts: usize) -> usize {
    hardware_workers(configured).clamp(1, conflicts.max(1))
}

impl<'g> Engine<'g> {
    /// Builds the eager conflict-independent state for `g` — automaton and
    /// tables — with an empty spine memo. The state-item graph waits for
    /// its first use ([`Engine::graph`]).
    pub fn new(g: &'g Grammar) -> Engine<'g> {
        Engine::build(Cow::Borrowed(g))
    }

    fn build(g: Cow<'g, Grammar>) -> Engine<'g> {
        let auto = Automaton::build(&g);
        let t0 = Instant::now();
        let tables = auto.tables(&g);
        let (lr0, lookaheads) = auto.build_times();
        let precompute = PrecomputeTimes {
            lr0,
            lookaheads,
            tables: t0.elapsed(),
            state_graph: Duration::ZERO,
        };
        Engine {
            g,
            auto,
            tables,
            graph: OnceLock::new(),
            precompute,
            spines: Memo::new(),
            prov: Memo::new(),
            probes: Memo::new(),
            verdicts: Memo::new(),
        }
    }

    /// An engine that owns `g`, with the precomputation contained: a panic
    /// while building the automaton or tables is caught at this boundary
    /// and reported as a structured [`EngineError`] (phase `"precompute"`)
    /// instead of unwinding into the caller.
    pub fn try_new(g: Grammar) -> Result<Engine<'static>, EngineError> {
        contain("precompute", || Engine::build(Cow::Owned(g)))
    }

    /// The grammar this engine was built for.
    pub fn grammar(&self) -> &Grammar {
        &self.g
    }

    /// The LALR automaton.
    pub fn automaton(&self) -> &Automaton {
        &self.auto
    }

    /// The resolved parse tables (with the conflict list).
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The state-item graph, built on the first call and shared after.
    ///
    /// Concurrent first callers wait for one build. A panic during the
    /// build propagates to the caller (the conflict phases and lint probes
    /// contain it at their boundary) and leaves the graph unbuilt, so the
    /// next call builds it afresh.
    pub fn graph(&self) -> &StateGraph {
        &self
            .graph
            .get_or_init(|| {
                crate::fail_point!("state_graph.build");
                let t = Instant::now();
                let graph = StateGraph::build(&self.g, &self.auto);
                (graph, t.elapsed())
            })
            .0
    }

    /// The grammar analyses (nullable / FIRST / FOLLOW / reachability /
    /// productivity), computed once as part of automaton construction.
    pub fn analysis(&self) -> &Analysis {
        self.auto.analysis()
    }

    /// Time spent building the conflict-independent state, per layer;
    /// `state_graph` is zero while the graph has not been built.
    pub fn precompute_times(&self) -> PrecomputeTimes {
        PrecomputeTimes {
            state_graph: self.graph.get().map_or(Duration::ZERO, |&(_, t)| t),
            ..self.precompute
        }
    }

    /// A rough estimate of the resident bytes this engine accounts for —
    /// the grammar and its analyses, automaton items, lookahead sets (one
    /// per kernel item and one `Follow` row per goto, which closure items
    /// share), state transitions, the relation edges, the sparse parse
    /// table rows, the state-item graph once built, and the current spine
    /// memo, provenance, probe memo (a fixed cost per probe, plus the
    /// derivation trees of an `Ambiguous` one) and verdict memo (a fixed
    /// cost per verdict, plus the derivation trees of its examples). Not an
    /// allocator truth: it feeds the [`crate::cache::EngineCache`]
    /// byte-budget eviction.
    pub fn estimated_bytes(&self) -> usize {
        let tset_bytes = self.g.terminal_count().div_ceil(8) + 24;
        let rel = self.auto.relations();
        let mut bytes = 256
            + self.g.estimated_bytes()
            + self.auto.analysis().estimated_bytes()
            + self.tables.estimated_bytes()
            + rel.estimated_bytes()
            + rel.goto_count() * tset_bytes;
        if let Some((graph, _)) = self.graph.get() {
            bytes += graph.node_count() * 96;
        }
        for id in self.auto.state_ids() {
            let st = self.auto.state(id);
            bytes +=
                st.items().len() * 12 + st.kernel_len() * tset_bytes + st.transitions().len() * 16;
        }
        bytes += self.spines.cost(|spine| {
            64 + std::mem::size_of_val(spine.states.as_slice())
                + spine.path.as_deref().map_or(0, std::mem::size_of_val)
        });
        bytes += self.provenance_bytes();
        bytes += self.probes.cost(|probe| match probe {
            ResolutionProbe::Ambiguous(ex) => {
                64 + derivation_bytes(&ex.derivation1) + derivation_bytes(&ex.derivation2)
            }
            _ => 64,
        });
        bytes += self.verdicts.cost(|v| {
            128 + v.unifying.as_ref().map_or(0, |ex| {
                derivation_bytes(&ex.derivation1) + derivation_bytes(&ex.derivation2)
            }) + v.nonunifying.as_ref().map_or(0, |ex| {
                derivation_bytes(&ex.reduce_derivation)
                    + ex.other_derivation.as_ref().map_or(0, derivation_bytes)
            })
        });
        bytes
    }

    /// The provenance share of [`Engine::estimated_bytes`]: `0` until the
    /// first successful [`Engine::provenance`] call.
    pub fn provenance_bytes(&self) -> usize {
        self.prov.cost(|p| p.estimated_bytes())
    }

    /// The lookahead provenance analysis for this grammar: per-conflict
    /// classification (true-ambiguity candidate / LALR merge artifact /
    /// precedence-resolved) and the chains of the automaton's
    /// DeRemer–Pennello relation edges that carried each conflict terminal.
    /// Computed once per engine and memoized, like the spine memo;
    /// byte-deterministic at any worker count.
    ///
    /// The analysis runs under containment (phase
    /// `"provenance.compute"`, with a fault-injection probe of the same
    /// name); a fault there fails the whole query. Per-conflict
    /// classification faults are contained *inside* the analysis, one slot
    /// each, so they degrade only their own conflict. Errors are not
    /// memoized — a faulted build is retried on the next call.
    pub fn provenance(&self) -> Result<Arc<GrammarProvenance>, EngineError> {
        if let Some(p) = self.prov.get(&()) {
            return Ok(p);
        }
        let computed = contain("provenance.compute", || {
            crate::fail_point!("provenance.compute");
            provenance::compute(&self.g, &self.auto, &self.tables)
        })?;
        Ok(self.prov.insert((), Arc::new(computed)))
    }

    /// Reconstructs the conflict a precedence [`Resolution`] silenced, when
    /// the conflict items still exist in the state (they always do for
    /// shift/reduce resolutions).
    pub fn resolved_conflict(&self, res: &Resolution) -> Option<Conflict> {
        let shift_item = self
            .auto
            .state(res.state)
            .items()
            .iter()
            .copied()
            .find(|it| it.next_symbol(&self.g) == Some(res.terminal))?;
        Some(Conflict {
            state: res.state,
            terminal: res.terminal,
            reduce_prod: res.reduce_prod,
            kind: ConflictKind::ShiftReduce { shift_item },
        })
    }

    /// Replays a precedence-resolved conflict through the §5 unifying
    /// search under a *deterministic* node budget (`max_configs`; no time
    /// limit, so two runs give byte-identical answers on any machine).
    ///
    /// The answer is a pure function of the grammar, the resolution and
    /// `max_configs`, so it is memoized per engine under that key, like the
    /// spine memo: a repeat probe at the same budget is served without
    /// searching (and without reaching the `lint.probe` fault-injection
    /// probe). [`ResolutionProbe::Internal`] is never memoized, so a
    /// contained fault is retried on the next call. The spine comes from
    /// the same memo the real conflict searches use, so probing the
    /// resolutions of a grammar whose surviving conflicts were already
    /// analyzed is nearly free of precomputation.
    ///
    /// This powers the lint engine's *conflict-masking* pass: a resolution
    /// whose probe returns [`ResolutionProbe::Ambiguous`] silenced a
    /// conflict that a counterexample search proves genuinely ambiguous.
    pub fn probe_resolution(&self, res: &Resolution, max_configs: usize) -> ResolutionProbe {
        let key = (res.state, res.terminal, res.reduce_prod, max_configs);
        if let Some(p) = self.probes.get(&key) {
            return p;
        }
        match self.probe_uncached(res, max_configs) {
            probe @ ResolutionProbe::Internal(_) => probe,
            probe => self.probes.insert(key, probe),
        }
    }

    /// [`Engine::probe_resolution`] without the memo.
    fn probe_uncached(&self, res: &Resolution, max_configs: usize) -> ResolutionProbe {
        let Some(conflict) = self.resolved_conflict(res) else {
            return ResolutionProbe::NotProbed;
        };
        let probe = contain("lint.probe", || {
            crate::fail_point!("lint.probe");
            let (spine, _) = self.spine(&conflict);
            let cfg = SearchConfig {
                // Effectively infinite (a bounded search never gets anywhere
                // near this): determinism comes from the node budget alone.
                time_limit: Duration::from_secs(3600),
                extended: false,
                max_configs,
            };
            let mut metrics = crate::stats::SearchMetrics::default();
            match unifying_search_cancellable(
                &self.g,
                &self.auto,
                self.graph(),
                &conflict,
                &spine.states,
                &cfg,
                &CancelToken::new(),
                &mut metrics,
            ) {
                SearchOutcome::Unifying(ex) => ResolutionProbe::Ambiguous(ex),
                SearchOutcome::Exhausted => ResolutionProbe::NotProven,
                SearchOutcome::TimedOut => ResolutionProbe::BudgetExhausted,
            }
        });
        probe.unwrap_or_else(ResolutionProbe::Internal)
    }

    /// The spine for a conflict, served from the per-grammar memo when a
    /// previous conflict shared the same `(reduce state-item, terminal)`
    /// key. Returns the spine and whether it was a memo hit.
    pub fn spine(&self, conflict: &Conflict) -> (Arc<Spine>, bool) {
        let graph = self.graph();
        let key = (
            graph.node(conflict.state, conflict.reduce_item(&self.g)),
            self.g.tindex(conflict.terminal),
        );
        if let Some(s) = self.spines.get(&key) {
            return (s, true);
        }
        let (path, nodes_expanded) =
            lssi::shortest_path_metered(&self.g, &self.auto, graph, key.0, key.1);
        let states = path
            .as_deref()
            .map(|p| lssi::states_of_path(graph, p))
            .unwrap_or_default();
        let spine = Spine {
            path,
            states,
            nodes_expanded,
        };
        (self.spines.insert(key, Arc::new(spine)), false)
    }

    /// Diagnoses one conflict under a grammar-wide deadline and a shared
    /// [`CancelToken`]: the unifying search gets `min(per-conflict
    /// time_limit, time until deadline)`. Every phase is contained at its
    /// boundary (DESIGN.md "Failure domains & degradation ladder"):
    ///
    /// * a panic in the **spine** phase faults the whole slot (nothing
    ///   downstream can run without the spine);
    /// * a panic in the **unifying** search still attempts the cheap
    ///   nonunifying construction, exactly like a timeout would;
    /// * a panic in the **nonunifying** construction keeps whatever the
    ///   earlier phases produced;
    /// * the first fault wins and the slot reports
    ///   [`ConflictOutcome::Internal`] with a stable diagnostic.
    ///
    /// A cancellation observed between phases skips the remaining phases;
    /// an expired `deadline` only skips the expensive unifying search,
    /// preserving §6 graceful cutoff.
    ///
    /// Where the unifying search would start — the token live, the
    /// deadline ahead and the per-conflict `time_limit` above zero — the
    /// verdict memo is consulted first: a conflict already decided on this
    /// engine under the same `extended` and `max_configs` returns its
    /// stored report, with the stored search counters and
    /// [`SearchStats::verdict_memo_hit`] set, and neither search phase
    /// runs. A verdict is stored only when the search ended
    /// [`ExampleKind::Unifying`] or [`ExampleKind::NonunifyingExhausted`],
    /// no phase faulted and the token was not cancelled; cut-off, skipped,
    /// cancelled and faulted slots are computed afresh on every call.
    pub fn analyze_conflict_cancellable(
        &self,
        conflict: &Conflict,
        cfg: &CexConfig,
        deadline: Instant,
        cancel: &CancelToken,
    ) -> ConflictReport {
        let started = Instant::now();
        let mut stats = SearchStats::default();

        let t0 = Instant::now();
        let spine_result = contain("spine", || {
            crate::fail_point!("engine.conflict");
            self.spine(conflict)
        });
        stats.time_spine = t0.elapsed();
        let (spine, memo_hit) = match spine_result {
            Ok(s) => s,
            Err(e) => {
                return ConflictReport {
                    conflict: *conflict,
                    outcome: ConflictOutcome::Internal(e),
                    unifying: None,
                    nonunifying: None,
                    elapsed: started.elapsed(),
                    stats,
                };
            }
        };
        stats.spine_memo_hit = memo_hit;
        if !memo_hit {
            stats.spine_nodes = spine.nodes_expanded;
        }

        let key = (*conflict, cfg.search.extended, cfg.search.max_configs);
        let mut fault: Option<EngineError> = None;
        let remaining = deadline.saturating_duration_since(Instant::now());
        let (kind, unifying) = if cancel.is_cancelled() {
            (ExampleKind::Cancelled, None)
        } else if remaining.is_zero() {
            // Budget exhausted before this conflict's search started:
            // skip it, keep the cheap phases (§6).
            (ExampleKind::NonunifyingSkipped, None)
        } else {
            let effective = SearchConfig {
                time_limit: cfg.search.time_limit.min(remaining),
                ..cfg.search
            };
            let t1 = Instant::now();
            if !effective.time_limit.is_zero() {
                if let Some(v) = self.verdicts.get(&key) {
                    stats.verdict_memo_hit = true;
                    stats.search = v.search;
                    stats.time_unifying = t1.elapsed();
                    return ConflictReport {
                        conflict: *conflict,
                        outcome: ConflictOutcome::Completed(v.kind),
                        unifying: v.unifying.clone(),
                        nonunifying: v.nonunifying.clone(),
                        elapsed: started.elapsed(),
                        stats,
                    };
                }
            }
            let outcome = contain("unifying", || {
                unifying_search_cancellable(
                    &self.g,
                    &self.auto,
                    self.graph(),
                    conflict,
                    &spine.states,
                    &effective,
                    cancel,
                    &mut stats.search,
                )
            });
            stats.time_unifying = t1.elapsed();
            match outcome {
                Ok(SearchOutcome::Unifying(ex)) => (ExampleKind::Unifying, Some(*ex)),
                Ok(SearchOutcome::Exhausted) => (ExampleKind::NonunifyingExhausted, None),
                Ok(SearchOutcome::TimedOut) => (ExampleKind::NonunifyingTimeout, None),
                Err(e) => {
                    // A faulted unifying search degrades like a timeout:
                    // the nonunifying fallback below still runs.
                    fault = Some(e);
                    (ExampleKind::NonunifyingTimeout, None)
                }
            }
        };

        let t2 = Instant::now();
        let nonunifying = if cancel.is_cancelled() {
            None
        } else {
            match contain("nonunifying", || {
                spine.path.as_deref().and_then(|p| {
                    nonunifying_example(&self.g, &self.auto, self.graph(), conflict, p)
                })
            }) {
                Ok(n) => n,
                Err(e) => {
                    fault.get_or_insert(e);
                    None
                }
            }
        };
        stats.time_nonunifying = t2.elapsed();

        let decided = matches!(
            kind,
            ExampleKind::Unifying | ExampleKind::NonunifyingExhausted
        );
        if decided && fault.is_none() && !cancel.is_cancelled() {
            let verdict = Verdict {
                kind,
                unifying: unifying.clone(),
                nonunifying: nonunifying.clone(),
                search: stats.search,
            };
            self.verdicts.insert(key, Arc::new(verdict));
        }
        let outcome = match fault {
            Some(e) => ConflictOutcome::Internal(e),
            None => ConflictOutcome::Completed(kind),
        };
        ConflictReport {
            conflict: *conflict,
            outcome,
            unifying,
            nonunifying,
            elapsed: started.elapsed(),
            stats,
        }
    }

    /// Analyzes every conflict with the full `cumulative_limit` budget.
    pub fn analyze_all(&self, cfg: &CexConfig) -> GrammarReport {
        let deadline = Instant::now() + cfg.cumulative_limit;
        self.analyze_all_cancellable(cfg, deadline, &CancelToken::new())
    }

    /// A stub report filling the slot of a conflict whose diagnosis never
    /// started because the run was cancelled.
    fn cancelled_stub(conflict: &Conflict) -> ConflictReport {
        ConflictReport {
            conflict: *conflict,
            outcome: ConflictOutcome::Completed(ExampleKind::Cancelled),
            unifying: None,
            nonunifying: None,
            elapsed: Duration::ZERO,
            stats: SearchStats::default(),
        }
    }

    /// Analyzes every conflict under a grammar-wide `deadline` (what
    /// [`Engine::analyze_all`] takes as `now + cumulative_limit`) and an
    /// external [`CancelToken`]: a cancel stops every worker at its next
    /// check and stubs unstarted conflicts with [`ExampleKind::Cancelled`]
    /// reports, so the grammar report always has one entry per conflict.
    /// Per-conflict work is tagged with its conflict-slot scope for the
    /// deterministic fault-injection probes (`crate::faultpoint`).
    pub fn analyze_all_cancellable(
        &self,
        cfg: &CexConfig,
        deadline: Instant,
        cancel: &CancelToken,
    ) -> GrammarReport {
        let started = Instant::now();
        let conflicts = self.tables.conflicts();
        let workers = resolve_workers(cfg.workers, conflicts.len());

        // Per-conflict fan-out, work-stealing by atomic index: cheap, and
        // each report lands in its conflict's slot, so the report order is
        // deterministic regardless of scheduling. Each search stays on the
        // worker that claimed it; one worker runs on the calling thread.
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<ConflictReport>> =
            conflicts.iter().map(|_| OnceLock::new()).collect();
        let work = || {
            while !cancel.is_cancelled() {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(c) = conflicts.get(i) else { break };
                let report = crate::faultpoint::with_scope(i as u64, || {
                    self.analyze_conflict_cancellable(c, cfg, deadline, cancel)
                });
                let _ = slots[i].set(report);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        // Cancellation may leave unstarted slots: stub them so the
        // report still carries one entry per conflict.
        let reports: Vec<ConflictReport> = slots
            .into_iter()
            .zip(conflicts)
            .map(|(slot, c)| slot.into_inner().unwrap_or_else(|| Self::cancelled_stub(c)))
            .collect();

        // Sampled after the fan-out, so a graph built by the first
        // conflict's spine is counted.
        let mut stats = GrammarStats {
            precompute: self.precompute_times(),
            workers,
            ..GrammarStats::default()
        };
        for r in &reports {
            stats.absorb(&r.stats);
        }
        GrammarReport {
            reports,
            total_time: started.elapsed(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::format_report;

    fn figure1() -> Grammar {
        Grammar::parse(
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
        .unwrap()
    }

    #[test]
    fn resolve_workers_clamps() {
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(1, 100), 1);
        assert_eq!(resolve_workers(8, 0), 1, "no conflicts still needs 1");
        assert!(resolve_workers(0, 100) >= 1, "auto resolves to >= 1");
    }

    #[test]
    fn spine_memo_hits_on_repeat() {
        let g = figure1();
        let engine = Engine::new(&g);
        let c = engine.tables().conflicts()[0];
        let (first, hit1) = engine.spine(&c);
        assert!(!hit1, "first lookup computes");
        assert!(first.nodes_expanded > 0);
        let (second, hit2) = engine.spine(&c);
        assert!(hit2, "second lookup is memoized");
        assert!(Arc::ptr_eq(&first, &second), "same spine shared");
    }

    #[test]
    fn parallel_reports_match_sequential() {
        let g = figure1();
        let engine = Engine::new(&g);
        let seq_cfg = CexConfig {
            workers: 1,
            ..CexConfig::default()
        };
        let par_cfg = CexConfig {
            workers: 3,
            ..CexConfig::default()
        };
        let seq = engine.analyze_all(&seq_cfg);
        let par = engine.analyze_all(&par_cfg);
        assert_eq!(seq.reports.len(), par.reports.len());
        for (a, b) in seq.reports.iter().zip(&par.reports) {
            assert_eq!(format_report(&g, a), format_report(&g, b));
        }
        assert_eq!(par.stats.workers, 3);
        assert!(par.stats.search.explored > 0);
    }

    #[test]
    fn exhausted_budget_still_builds_nonunifying() {
        let g = figure1();
        let engine = Engine::new(&g);
        let cfg = CexConfig {
            cumulative_limit: Duration::ZERO,
            workers: 2,
            ..CexConfig::default()
        };
        let report = engine.analyze_all(&cfg);
        assert_eq!(report.reports.len(), 3);
        for r in &report.reports {
            assert_eq!(r.kind(), Some(ExampleKind::NonunifyingSkipped));
            assert!(
                r.nonunifying.is_some(),
                "cheap nonunifying path must still run"
            );
        }
        assert_eq!(report.stats.search.explored, 0, "no search was run");
    }

    #[test]
    fn probe_resolution_flags_masked_ambiguity() {
        // `%left '+'` silences the classic `e + e · + e` ambiguity — the
        // probe must prove it is genuine.
        let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
        let engine = Engine::new(&g);
        assert!(engine.tables().conflicts().is_empty());
        let res: Vec<_> = engine.tables().resolutions().to_vec();
        assert!(!res.is_empty());
        let probe = engine.probe_resolution(&res[0], 1 << 16);
        match probe {
            ResolutionProbe::Ambiguous(ex) => {
                assert_eq!(g.display_name(ex.nonterminal), "e");
            }
            other => panic!("expected Ambiguous, got {other:?}"),
        }
    }

    #[test]
    fn probe_resolution_budget_is_deterministic() {
        let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
        let engine = Engine::new(&g);
        let res = engine.tables().resolutions()[0];
        // A tiny budget exhausts identically on every run.
        let a = format!("{:?}", engine.probe_resolution(&res, 2));
        let b = format!("{:?}", engine.probe_resolution(&res, 2));
        assert_eq!(a, b);
        assert!(
            matches!(
                engine.probe_resolution(&res, 2),
                ResolutionProbe::BudgetExhausted
            ),
            "2 configs cannot complete the search"
        );
    }

    #[test]
    fn clean_grammar_never_builds_the_graph() {
        let g = Grammar::parse("%% s : s 'a' | 'a' ;").unwrap();
        let engine = Engine::new(&g);
        assert!(engine.tables().conflicts().is_empty());
        assert!(engine.tables().resolutions().is_empty());
        let report = engine.analyze_all(&CexConfig::default());
        assert_eq!(report.stats.precompute.state_graph, Duration::ZERO);
        assert_eq!(engine.precompute_times().state_graph, Duration::ZERO);
        let bytes = engine.estimated_bytes();
        let graph = engine.graph();
        assert!(graph.node_count() > 0);
        assert!(engine.precompute_times().state_graph > Duration::ZERO);
        assert!(engine.estimated_bytes() > bytes, "a built graph is charged");
    }

    #[test]
    fn conflicts_build_the_graph_and_time_it() {
        let g = figure1();
        let engine = Engine::new(&g);
        assert_eq!(engine.precompute_times().state_graph, Duration::ZERO);
        let report = engine.analyze_all(&CexConfig::default());
        assert!(report.stats.precompute.state_graph > Duration::ZERO);
        assert_eq!(
            report.stats.precompute,
            engine.precompute_times(),
            "stats sample the times after the graph was built"
        );
    }

    #[test]
    fn estimated_bytes_cover_the_sparse_tables() {
        // A chain of 100 nonterminals, each with its own terminal: about
        // 300 states × 100 terminals, of which each state uses a few.
        let mut text = String::from("%%\ns : p0 ;\n");
        for i in 0..100 {
            text.push_str(&format!("p{i} : 't{i}' | 'a' p{} ;\n", i + 1));
        }
        text.push_str("p100 : 'z' ;\n");
        let g = Grammar::parse(&text).unwrap();
        let engine = Engine::new(&g);
        let tables = engine.tables();
        assert!(tables.conflicts().is_empty() && tables.resolutions().is_empty());
        assert!(engine.estimated_bytes() >= tables.estimated_bytes());
        let (mut actions, mut gotos, mut states) = (0, 0, 0);
        for s in engine.automaton().state_ids() {
            states += 1;
            actions += (0..g.terminal_count())
                .filter(|&t| tables.action(&g, s, g.terminal(t)) != lalrcex_lr::Action::Error)
                .count();
            gotos += (0..g.nonterminal_count())
                .filter(|&n| tables.goto(&g, s, g.nonterminal(n)).is_some())
                .count();
        }
        let offsets = 2 * (states + 1) * std::mem::size_of::<u32>();
        assert_eq!(
            tables.estimated_bytes(),
            actions * std::mem::size_of::<(u32, lalrcex_lr::Action)>()
                + gotos * std::mem::size_of::<(u32, StateId)>()
                + offsets
        );
    }

    fn eqn() -> Grammar {
        lalrcex_corpus::by_name("eqn")
            .expect("corpus entry")
            .load()
            .expect("corpus grammar parses")
    }

    /// A configuration whose outcomes depend on the work caps alone: the
    /// clocks are far larger than any search here.
    fn clockless(max_configs: usize) -> CexConfig {
        CexConfig {
            search: SearchConfig {
                time_limit: Duration::from_secs(3600),
                max_configs,
                ..SearchConfig::default()
            },
            cumulative_limit: Duration::from_secs(3600),
            workers: 1,
        }
    }

    /// One conflict's diagnosis under a far deadline and a live token.
    fn diagnose(engine: &Engine<'_>, c: &Conflict, cfg: &CexConfig) -> ConflictReport {
        let deadline = Instant::now() + cfg.cumulative_limit;
        engine.analyze_conflict_cancellable(c, cfg, deadline, &CancelToken::new())
    }

    #[test]
    fn verdicts_are_charged_to_the_engine() {
        let g = figure1();
        let engine = Engine::new(&g);
        // Build the spines (and with them the graph) first, so only the
        // verdict memo can move the charge.
        for c in engine.tables().conflicts() {
            engine.spine(c);
        }
        let cfg = clockless(1 << 21);
        let before = engine.estimated_bytes();
        let cold = engine.analyze_all(&cfg);
        assert_eq!(cold.stats.verdict_memo_hits, 0);
        let after = engine.estimated_bytes();
        assert!(after > before, "verdict memo charged: {before} -> {after}");
        let warm = engine.analyze_all(&cfg);
        assert_eq!(warm.stats.verdict_memo_hits, 3);
        assert_eq!(
            engine.estimated_bytes(),
            after,
            "a warm analysis adds nothing"
        );
    }

    #[test]
    fn capped_verdicts_are_searched_again() {
        let g = eqn();
        let engine = Engine::new(&g);
        let c = engine.tables().conflicts()[0];
        let cfg = clockless(1_000);
        let first = diagnose(&engine, &c, &cfg);
        assert_eq!(first.kind(), Some(ExampleKind::NonunifyingTimeout));
        let second = diagnose(&engine, &c, &cfg);
        assert_eq!(second.kind(), Some(ExampleKind::NonunifyingTimeout));
        assert!(
            !second.stats.verdict_memo_hit,
            "a capped verdict is not stored"
        );
        assert!(second.stats.search.explored > 0, "the search ran again");
        assert_eq!(second.stats.search, first.stats.search);
    }

    #[test]
    fn warm_engines_degrade_like_cold_ones() {
        let g = figure1();
        let cfg = clockless(1 << 21);
        let warm = Engine::new(&g);
        warm.analyze_all(&cfg);
        let live = CancelToken::new();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let ahead = Instant::now() + Duration::from_secs(3600);
        let no_clock = CexConfig {
            search: SearchConfig {
                time_limit: Duration::ZERO,
                ..cfg.search
            },
            ..cfg
        };
        let ladder = [
            (&cfg, ahead, &cancelled, ExampleKind::Cancelled),
            (&cfg, Instant::now(), &live, ExampleKind::NonunifyingSkipped),
            (&no_clock, ahead, &live, ExampleKind::NonunifyingTimeout),
        ];
        for c in warm.tables().conflicts() {
            for (cfg, deadline, token, kind) in ladder {
                let w = warm.analyze_conflict_cancellable(c, cfg, deadline, token);
                let cold = Engine::new(&g).analyze_conflict_cancellable(c, cfg, deadline, token);
                assert_eq!(w.kind(), Some(kind));
                assert!(!w.stats.verdict_memo_hit, "{kind:?} never reads the memo");
                assert_eq!(w.stats.search, cold.stats.search, "{kind:?}");
                assert_eq!(format_report(&g, &w), format_report(&g, &cold), "{kind:?}");
            }
        }
    }

    #[test]
    fn a_tighter_clock_gets_the_stored_verdict() {
        let g = eqn();
        let engine = Engine::new(&g);
        let c = engine.tables().conflicts()[0];
        let cfg = clockless(1 << 21);
        let decided = diagnose(&engine, &c, &cfg);
        assert_ne!(decided.kind(), Some(ExampleKind::NonunifyingTimeout));
        let tight = CexConfig {
            search: SearchConfig {
                time_limit: Duration::from_nanos(1),
                ..cfg.search
            },
            ..cfg
        };
        // A fresh engine's search is cut off by a 1 ns clock...
        let cold = diagnose(&Engine::new(&g), &c, &tight);
        assert_eq!(cold.kind(), Some(ExampleKind::NonunifyingTimeout));
        // ...but a warm one answers with the verdict its caps decided.
        let warm = diagnose(&engine, &c, &tight);
        assert!(warm.stats.verdict_memo_hit);
        assert_eq!(warm.stats.search, decided.stats.search);
        assert_eq!(format_report(&g, &warm), format_report(&g, &decided));
    }

    #[test]
    fn stats_are_populated_on_normal_runs() {
        let g = figure1();
        let engine = Engine::new(&g);
        let report = engine.analyze_all(&CexConfig::default());
        assert_eq!(report.stats.conflicts, 3);
        assert!(report.stats.search.explored > 0);
        assert!(report.stats.search.enqueued >= report.stats.search.explored);
        assert!(report.stats.spine_nodes > 0);
        assert_eq!(
            report.stats.spine_memo_hits + report.stats.spine_memo_misses,
            3
        );
    }
}
