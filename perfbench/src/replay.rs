//! The traced replay: one operation pushed through the layers' public
//! functions in pipeline order, with a span around every call.
//!
//! 1. `Grammar::parse` / `yacc::parse`
//! 2. `Automaton::build` (LR(0) + LALR lookaheads + grammar analyses)
//! 3. `Automaton::tables`
//! 4. `StateGraph::build`
//! 5. `Engine::spine`
//! 6. `unifying_search_metered`
//! 7. `nonunifying_example`
//! 8. `format_report` / `report_document`
//! 9. `Engine::provenance`
//! 10. the lint passes
//!
//! Steps 5–10 need an [`Engine`]; the replay builds one per grammar text
//! *outside* the op span (scaffolding, not counted), and reuses it the way
//! the engine cache would.

use crate::gen::Syntax;
use crate::trace::Recorder;
use lalrcex::api::json::Json;
use lalrcex::core::{
    nonunifying_example, resolve_workers, unifying_search_metered, CexConfig, ConflictOutcome,
    ConflictReport, Engine, ExampleKind, GrammarReport, SearchConfig, SearchMetrics, SearchOutcome,
    SearchStats, StateGraph,
};
use lalrcex::grammar::Grammar;
use lalrcex::lr::Automaton;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic work counters gathered at the layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub productions: u64,
    pub states: u64,
    pub items: u64,
    pub conflicts: u64,
    pub resolutions: u64,
    pub graph_nodes: u64,
    pub spine_calls: u64,
    pub spine_hits: u64,
    pub searches: u64,
    pub search_cutoffs: u64,
    pub search: SearchMetrics,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.productions += o.productions;
        self.states += o.states;
        self.items += o.items;
        self.conflicts += o.conflicts;
        self.resolutions += o.resolutions;
        self.graph_nodes += o.graph_nodes;
        self.spine_calls += o.spine_calls;
        self.spine_hits += o.spine_hits;
        self.searches += o.searches;
        self.search_cutoffs += o.search_cutoffs;
        self.search.merge(&o.search);
    }
}

/// One traced operation: its root span and the recorder it writes to.
pub struct Op<'r> {
    pub rec: &'r Recorder,
    pub id: u32,
    pub root: usize,
    pub counters: Counters,
}

impl<'r> Op<'r> {
    pub fn begin(rec: &'r Recorder, id: u32) -> Op<'r> {
        let root = rec.open("op", id, None);
        Op {
            rec,
            id,
            root,
            counters: Counters::default(),
        }
    }

    pub fn end(self) -> Counters {
        self.rec.close(self.root);
        self.counters
    }

    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.span(name, self.id, Some(self.root), f)
    }

    /// Steps 1–4: frontend, automaton, tables, state-item graph.
    pub fn construct(&mut self, text: &str, syntax: Syntax) -> Result<(), String> {
        let g = match syntax {
            Syntax::Dsl => self.span("grammar.parse", || Grammar::parse(text)),
            Syntax::Yacc => self.span("yacc.parse", || lalrcex::yacc::parse(text)),
        }
        .map_err(|e| e.to_string())?;
        let auto = self.span("lr.automaton", || Automaton::build(&g));
        let tables = self.span("lr.tables", || auto.tables(&g));
        let graph = self.span("core.state_graph", || StateGraph::build(&g, &auto));
        let c = &mut self.counters;
        c.productions += g.prod_count() as u64;
        c.states += auto.state_count() as u64;
        c.items += auto
            .state_ids()
            .map(|s| auto.state(s).items().len() as u64)
            .sum::<u64>();
        c.conflicts += tables.conflicts().len() as u64;
        c.resolutions += tables.resolutions().len() as u64;
        c.graph_nodes += graph.node_count() as u64;
        Ok(())
    }

    /// Steps 5–7 for every conflict of `engine`, spread over the same
    /// number of workers the engine would use; the grammar-wide
    /// cumulative budget and per-conflict clock are applied as the engine
    /// applies them.
    pub fn conflicts(&mut self, engine: &Engine<'_>, cfg: &CexConfig) -> GrammarReport {
        let g = engine.grammar();
        let conflicts = engine.tables().conflicts();
        let deadline = Instant::now() + cfg.cumulative_limit;
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<(ConflictReport, Counters)>>> =
            Mutex::new((0..conflicts.len()).map(|_| None).collect());
        let workers = resolve_workers(cfg.workers, conflicts.len());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(conflict) = conflicts.get(i) else {
                        break;
                    };
                    let mut c = Counters::default();
                    let mut stats = SearchStats::default();
                    let started = Instant::now();
                    let (spine, hit) = self.span("core.spine", || engine.spine(conflict));
                    c.spine_calls += 1;
                    c.spine_hits += u64::from(hit);
                    stats.spine_memo_hit = hit;
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    let (kind, unifying) = if remaining.is_zero() {
                        (ExampleKind::NonunifyingSkipped, None)
                    } else {
                        let search = SearchConfig {
                            time_limit: cfg.search.time_limit.min(remaining),
                            ..cfg.search
                        };
                        let outcome = self.span("core.search", || {
                            unifying_search_metered(
                                g,
                                engine.automaton(),
                                engine.graph(),
                                conflict,
                                &spine.states,
                                &search,
                                &mut stats.search,
                            )
                        });
                        c.searches += 1;
                        match outcome {
                            SearchOutcome::Unifying(ex) => (ExampleKind::Unifying, Some(*ex)),
                            SearchOutcome::Exhausted => (ExampleKind::NonunifyingExhausted, None),
                            SearchOutcome::TimedOut => {
                                c.search_cutoffs += 1;
                                (ExampleKind::NonunifyingTimeout, None)
                            }
                        }
                    };
                    c.search.merge(&stats.search);
                    let nonunifying = self.span("core.nonunifying", || {
                        spine.path.as_deref().and_then(|p| {
                            nonunifying_example(g, engine.automaton(), engine.graph(), conflict, p)
                        })
                    });
                    let report = ConflictReport {
                        conflict: *conflict,
                        outcome: ConflictOutcome::Completed(kind),
                        unifying,
                        nonunifying,
                        elapsed: started.elapsed(),
                        stats,
                    };
                    slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some((report, c));
                });
            }
        });
        let mut reports = Vec::with_capacity(conflicts.len());
        for (report, c) in slots
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .flatten()
        {
            self.counters.add(&c);
            reports.push(report);
        }
        GrammarReport {
            reports,
            total_time: Duration::ZERO,
            stats: Default::default(),
        }
    }

    /// Step 8, text form: the same bytes `AnalysisReply::render_text` and
    /// `lalrcex cex` produce.
    pub fn render_text(&self, g: &Grammar, report: &GrammarReport) -> String {
        self.span("core.render_text", || {
            let mut out = String::new();
            for r in &report.reports {
                out.push_str(&lalrcex::core::format_report(g, r));
                out.push('\n');
            }
            out
        })
    }

    /// Step 8, JSON form (schema v1, as `serve` answers `analyze`).
    pub fn render_json(&self, label: &str, engine: &Engine<'_>, report: &GrammarReport) -> String {
        self.span("api.render_json", || {
            lalrcex::api::report_document(
                label,
                engine.grammar(),
                engine.automaton().state_count(),
                engine.tables().resolutions(),
                report,
            )
            .to_string()
        })
    }

    /// Steps 9 and 8: provenance, then the explain document.
    pub fn explain_json(
        &self,
        label: &str,
        engine: &Engine<'_>,
        report: &GrammarReport,
    ) -> Result<String, String> {
        let prov = self
            .span("core.provenance", || engine.provenance())
            .map_err(|e| e.to_string())?;
        Ok(self.span("api.render_json", || {
            lalrcex::api::explain_document(
                label,
                engine.grammar(),
                engine.automaton().state_count(),
                engine.tables().resolutions(),
                report,
                &prov,
            )
            .to_string()
        }))
    }

    /// Step 10: every lint pass, rendered as `serve` renders diagnostics.
    pub fn lint(&self, engine: &Engine<'_>) -> Json {
        let diags = self.span("lint", || lalrcex::lint::Linter::new().run(engine));
        diagnostics_json(&diags)
    }
}

/// The lint diagnostics array in the shape `serve` sends, re-serialized by
/// the protocol's own JSON writer.
pub fn diagnostics_json(diags: &[lalrcex::lint::Diagnostic]) -> Json {
    let doc = lalrcex::lint::render_json("", diags);
    lalrcex::api::json::parse(&doc)
        .ok()
        .and_then(|j| j.get("diagnostics").cloned())
        .unwrap_or(Json::Null)
}
