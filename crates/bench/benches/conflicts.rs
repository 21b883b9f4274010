//! Micro-benchmarks for the counterexample pipeline — one group per
//! measurable claim of the paper's evaluation, on the hermetic
//! `std::time::Instant` harness (`lalrcex_bench::micro`):
//!
//! * `automaton` — LALR construction cost on grammars of growing size
//!   (the fixed setup cost before any conflict is diagnosed).
//! * `lssi` — the shortest lookahead-sensitive path search (§4).
//! * `unifying` — the product-parser search (§5) per conflict.
//! * `full_conflict` — end-to-end per-conflict diagnosis time, the
//!   quantity reported in Table 1's "Average" column.
//! * `baseline` — the grammar-filtered bounded search on the same
//!   conflict, the paper's comparison point (parenthesised column).
//! * `lint` — the static-analysis passes: cold (engine built per run)
//!   vs shared-facts (engine reused), quantifying the fact-sharing seam.
//! * `search_throughput` — explored-configurations/sec of the §5 search
//!   under a fixed configuration budget; emits the machine-readable
//!   `BENCH_search.json` report when `LALRCEX_BENCH_JSON=<path>` is set.
//!
//! Filter with `cargo bench -- NAME` (substring match on `group/bench`).

use std::time::{Duration, Instant};

use lalrcex_baselines::{amber, filtered};
use lalrcex_bench::micro::{Group, MicroConfig};
use lalrcex_core::{
    lssi, unifying_search_metered, CancelToken, CexConfig, Engine, SearchConfig, SearchMetrics,
    StateGraph,
};
use lalrcex_lr::Automaton;

fn automaton_construction(cfg: MicroConfig, filter: Option<String>) {
    let mut group = Group::new("automaton", cfg, filter);
    for name in ["figure1", "SQL.1", "eqn", "C.1", "Java.1"] {
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        group.bench(name, || Automaton::build(&g).state_count());
    }
}

fn lssi_search(cfg: MicroConfig, filter: Option<String>) {
    let mut group = Group::new("lssi", cfg, filter);
    for name in ["figure1", "eqn", "C.1", "Java.1"] {
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        let graph = StateGraph::build(&g, &auto);
        let conflict = tables.conflicts()[0];
        let target = graph.node(conflict.state, conflict.reduce_item(&g));
        group.bench(name, || {
            lssi::shortest_path(&g, &auto, &graph, target, g.tindex(conflict.terminal))
                .expect("path exists")
                .len()
        });
    }
}

fn unifying(cfg: MicroConfig, filter: Option<String>) {
    let mut group = Group::new("unifying", cfg, filter);
    for name in ["figure1", "figure7", "SQL.1", "simp2"] {
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        let graph = StateGraph::build(&g, &auto);
        let conflict = tables.conflicts()[0];
        let target = graph.node(conflict.state, conflict.reduce_item(&g));
        let path = lssi::shortest_path(&g, &auto, &graph, target, g.tindex(conflict.terminal))
            .expect("path");
        let states = lssi::states_of_path(&graph, &path);
        let scfg = SearchConfig::default();
        group.bench(name, || {
            let mut m = SearchMetrics::default();
            unifying_search_metered(&g, &auto, &graph, &conflict, &states, &scfg, &mut m)
        });
    }
}

fn full_conflict(cfg: MicroConfig, filter: Option<String>) {
    let mut group = Group::new("full_conflict", cfg, filter);
    for name in ["figure1", "eqn", "SQL.1", "Pascal.3", "C.1", "Java.1"] {
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        group.bench(name, || {
            let engine = Engine::new(&g);
            let conflict = engine.tables().conflicts()[0];
            let cfg = CexConfig::default();
            let deadline = Instant::now() + cfg.cumulative_limit;
            engine
                .analyze_conflict_cancellable(&conflict, &cfg, deadline, &CancelToken::new())
                .kind()
        });
    }
}

fn baseline(cfg: MicroConfig, filter: Option<String>) {
    let mut group = Group::new("baseline_filtered", cfg, filter);
    for name in ["figure1", "SQL.1"] {
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        let conflict = tables.conflicts()[0];
        let budget = amber::Budget {
            max_len: 12,
            time_limit: Duration::from_secs(20),
            max_steps: 50_000_000,
        };
        group.bench(name, || filtered::search(&g, &conflict, &budget));
    }
}

/// The lint engine, cold vs shared-facts: `cold` builds the `Engine`
/// (automaton and tables; the state-item graph only when a resolution is
/// probed) inside the timed region — the cost a standalone linter would
/// pay; `shared` reuses an engine built once outside it — the cost when
/// lint rides on a conflict analysis that already precomputed everything.
/// The gap is the fact-sharing win.
fn lint_passes(cfg: MicroConfig, filter: Option<String>) {
    use lalrcex_lint::Linter;

    let mut group = Group::new("lint", cfg, filter);
    for name in ["figure1", "simp2", "SQL.1", "C.1"] {
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        let linter = Linter::new();
        group.bench(&format!("{name}/cold"), || {
            linter.run(&Engine::new(&g)).len()
        });
        let engine = Engine::new(&g);
        group.bench(&format!("{name}/shared"), || linter.run(&engine).len());
    }
}

/// Search-core throughput (the data-oriented-core acceptance gate): each
/// family runs the §5 search on its heaviest conflict under a fixed
/// configuration budget, and the explored-configurations/sec rate is
/// reported. A budgeted search is far too heavy for the calibrated
/// batching harness, so this group times bounded runs directly: each
/// sample repeats the search until it covers at least 10 ms and divides
/// by the repetitions, so a search of a few hundred configurations still
/// reads a stable rate, and the best sample is reported. The budget makes
/// `explored` deterministic, so the rate is comparable across machines
/// and changes.
///
/// Environment knobs:
/// * `LALRCEX_BENCH_JSON=<path>` — write the records as
///   `BENCH_search.json` (format: `micro::throughput_json`).
/// * `LALRCEX_BENCH_SMOKE=1` — shrink budget and samples, and time one
///   search per sample, so the check.sh bench leg finishes in seconds.
fn search_throughput(filter: Option<String>) {
    use lalrcex_bench::micro::{write_throughput_json, ThroughputRecord};

    let smoke = std::env::var_os("LALRCEX_BENCH_SMOKE").is_some_and(|v| v != "0");
    let budget: usize = if smoke { 20_000 } else { 200_000 };
    let samples: usize = if smoke { 1 } else { 3 };
    let min_sample = if smoke {
        Duration::ZERO
    } else {
        Duration::from_millis(10)
    };
    let mut records: Vec<ThroughputRecord> = Vec::new();
    let mut printed = false;
    for name in ["figure1", "SQL.1", "stackovf08", "stackovf10"] {
        let full = format!("search_throughput/{name}");
        if let Some(flt) = &filter {
            if !full.contains(flt.as_str()) {
                continue;
            }
        }
        if !printed {
            println!("\n== search_throughput (budget {budget} configs) ==");
            println!(
                "{:<28} {:>12} {:>12} {:>14} {:>12}",
                "benchmark", "explored", "best", "configs/s", "ns/config"
            );
            printed = true;
        }
        let g = lalrcex_corpus::by_name(name).unwrap().load().unwrap();
        let engine = Engine::new(&g);
        // Heaviest conflict by a cheap bounded probe: throughput on a
        // trivially-exhausted conflict measures setup, not the search loop.
        let probe_cfg = SearchConfig {
            time_limit: Duration::from_secs(3600),
            max_configs: 5_000,
            ..SearchConfig::default()
        };
        let mut best: Option<(usize, u64)> = None;
        for (i, c) in engine.tables().conflicts().iter().take(40).enumerate() {
            let (spine, _) = engine.spine(c);
            let mut m = SearchMetrics::default();
            unifying_search_metered(
                &g,
                engine.automaton(),
                engine.graph(),
                c,
                &spine.states,
                &probe_cfg,
                &mut m,
            );
            if best.is_none_or(|(_, e)| m.explored > e) {
                best = Some((i, m.explored));
            }
        }
        let (idx, _) = best.expect("corpus grammar has conflicts");
        let conflict = engine.tables().conflicts()[idx];
        let (spine, _) = engine.spine(&conflict);
        let scfg = SearchConfig {
            time_limit: Duration::from_secs(3600),
            max_configs: budget,
            ..SearchConfig::default()
        };
        let mut explored = 0u64;
        let mut elapsed = Duration::MAX;
        for _ in 0..samples {
            let t = Instant::now();
            let mut reps = 0u32;
            while reps == 0 || t.elapsed() < min_sample {
                let mut m = SearchMetrics::default();
                unifying_search_metered(
                    &g,
                    engine.automaton(),
                    engine.graph(),
                    &conflict,
                    &spine.states,
                    &scfg,
                    &mut m,
                );
                explored = m.explored;
                reps += 1;
            }
            elapsed = elapsed.min(t.elapsed() / reps);
        }
        let rec = ThroughputRecord {
            family: name.to_string(),
            explored,
            elapsed,
        };
        println!(
            "{:<28} {:>12} {:>9.2} ms {:>14.0} {:>12.1}",
            name,
            rec.explored,
            rec.elapsed.as_secs_f64() * 1e3,
            rec.explored_per_sec(),
            rec.ns_per_config(),
        );
        records.push(rec);
    }
    if let Ok(path) = std::env::var("LALRCEX_BENCH_JSON") {
        if !records.is_empty() {
            write_throughput_json(&path, &records).expect("write BENCH_search.json");
            println!("wrote {path}");
        }
    }
}

fn main() {
    // `cargo bench -- FILTER` puts the filter in argv; `cargo bench` also
    // passes `--bench`, which we ignore.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let cfg = MicroConfig::default();
    let slow = MicroConfig {
        samples: 10,
        min_time: Duration::from_millis(500),
        ..cfg
    };
    automaton_construction(cfg, filter.clone());
    lssi_search(cfg, filter.clone());
    unifying(slow, filter.clone());
    full_conflict(slow, filter.clone());
    baseline(slow, filter.clone());
    lint_passes(slow, filter.clone());
    search_throughput(filter);
}
