//! Determinism of the parallel conflict engine, and graceful degradation
//! of the grammar-wide cumulative budget.
//!
//! The engine's guarantee: for runs where no time limit fires (budgets far
//! larger than the work) or where the budget is already exhausted (zero),
//! `analyze_all` produces byte-identical formatted reports regardless of
//! the worker count. Wall-clock fields and the memo hit/miss split are
//! explicitly outside the guarantee and are not compared.

use std::time::Duration;

use lalrcex::core::{format_report, CexConfig, Engine, ExampleKind, GrammarReport, SearchConfig};
use lalrcex::grammar::Grammar;

fn load(name: &str) -> Grammar {
    lalrcex::corpus::by_name(name)
        .expect("corpus entry")
        .load()
        .expect("corpus grammar parses")
}

fn generous(workers: usize) -> CexConfig {
    CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_secs(30),
            ..Default::default()
        },
        cumulative_limit: Duration::from_secs(600),
        workers,
    }
}

fn run(g: &Grammar, cfg: &CexConfig) -> GrammarReport {
    Engine::new(g).analyze_all(cfg)
}

/// Asserts the determinism contract between two runs of the same grammar.
fn assert_identical(g: &Grammar, a: &GrammarReport, b: &GrammarReport) {
    assert_eq!(a.reports.len(), b.reports.len(), "same conflict count");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.conflict.state, y.conflict.state, "conflict order");
        assert_eq!(x.conflict.terminal, y.conflict.terminal, "conflict order");
        assert_eq!(x.outcome, y.outcome, "same outcome");
        assert_eq!(
            format_report(g, x),
            format_report(g, y),
            "byte-identical report"
        );
    }
    // Deterministic search counters (wall-clock and memo splits excluded).
    assert_eq!(a.stats.search.explored, b.stats.search.explored);
    assert_eq!(a.stats.search.enqueued, b.stats.search.enqueued);
    assert_eq!(a.stats.search.deduped, b.stats.search.deduped);
}

#[test]
fn figure1_parallel_matches_sequential() {
    let g = load("figure1");
    let seq = run(&g, &generous(1));
    let par = run(&g, &generous(4));
    assert_eq!(seq.reports.len(), 3, "figure1 has three conflicts");
    assert_identical(&g, &seq, &par);
}

#[test]
fn eqn_parallel_matches_sequential() {
    let g = load("eqn");
    let seq = run(&g, &generous(1));
    let par = run(&g, &generous(4));
    assert_identical(&g, &seq, &par);
}

#[test]
fn pascal_parallel_matches_sequential() {
    let g = load("Pascal.2");
    let seq = run(&g, &generous(1));
    let par = run(&g, &generous(4));
    assert!(!seq.reports.is_empty(), "Pascal.2 has conflicts");
    assert_identical(&g, &seq, &par);
}

/// §6 degradation: a spent cumulative budget must not cost the user the
/// cheap nonunifying counterexamples — every conflict still gets one, and
/// the skip decision is deterministic across worker counts.
#[test]
fn exhausted_budget_degrades_gracefully_on_c89() {
    let g = load("C.3");
    let tiny = |workers| CexConfig {
        cumulative_limit: Duration::ZERO,
        workers,
        ..CexConfig::default()
    };
    let seq = run(&g, &tiny(1));
    let par = run(&g, &tiny(2));
    assert!(!seq.reports.is_empty(), "C.3 has conflicts");
    for r in &seq.reports {
        assert_eq!(r.kind(), Some(ExampleKind::NonunifyingSkipped));
        assert!(
            r.nonunifying.is_some(),
            "nonunifying example survives budget exhaustion"
        );
        assert!(r.unifying.is_none());
        assert_eq!(r.stats.search.explored, 0, "search really skipped");
    }
    assert_identical(&g, &seq, &par);
    assert_eq!(seq.stats.search.explored, 0);
}

/// A mid-run budget (big enough for some conflicts, too small for all) may
/// split kinds differently run to run, but must never lose the nonunifying
/// fallback and must keep conflict order.
#[test]
fn partial_budget_never_loses_nonunifying() {
    let g = load("C.3");
    let cfg = CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_millis(50),
            ..Default::default()
        },
        cumulative_limit: Duration::from_millis(100),
        workers: 2,
    };
    let report = run(&g, &cfg);
    // Report order must match the conflict table even when workers race.
    let engine = Engine::new(&g);
    let table = engine.tables().conflicts();
    assert_eq!(report.reports.len(), table.len());
    for (r, c) in report.reports.iter().zip(table) {
        assert_eq!(r.conflict.state, c.state);
        assert_eq!(r.conflict.terminal, c.terminal);
    }
    for r in &report.reports {
        assert!(
            r.nonunifying.is_some(),
            "every conflict keeps a nonunifying example under a tiny budget"
        );
    }
}

/// The per-conflict fan-out must not leak into partial results:
/// stackovf08's deep conflicts blow a bounded configuration budget, and
/// the resulting `TimedOut` partial stats — explored, enqueued, deduped,
/// frontier peak, arena cells — must be byte-identical at workers 1, 2,
/// and 4, whichever worker happens to run which conflict.
#[test]
fn stackovf08_partial_stats_match_across_workers() {
    let g = load("stackovf08");
    let bounded = |workers| CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_secs(3600),
            max_configs: 20_000,
            ..Default::default()
        },
        cumulative_limit: Duration::from_secs(3600),
        workers,
    };
    let one = run(&g, &bounded(1));
    let two = run(&g, &bounded(2));
    let four = run(&g, &bounded(4));
    assert!(
        one.reports
            .iter()
            .any(|r| r.kind() == Some(ExampleKind::NonunifyingTimeout)),
        "the configuration budget must actually bite so partial stats are exercised"
    );
    for other in [&two, &four] {
        assert_identical(&g, &one, other);
        for (x, y) in one.reports.iter().zip(&other.reports) {
            assert_eq!(x.stats.search.explored, y.stats.search.explored);
            assert_eq!(x.stats.search.enqueued, y.stats.search.enqueued);
            assert_eq!(x.stats.search.deduped, y.stats.search.deduped);
            assert_eq!(x.stats.search.frontier_peak, y.stats.search.frontier_peak);
            assert_eq!(x.stats.search.arena_cells, y.stats.search.arena_cells);
        }
    }
}

/// Equal-cost pop ordering: this grammar's first unifying example is
/// reachable through two equal-cost frontiers (associativity of `+` and
/// the `+`/`-` interleaving), so whichever surfaces is decided purely by
/// the queue's FIFO-within-bucket order. Pin the reported derivations cold
/// vs warm (spine memo) and at workers 1 vs 4 — a LIFO regression or a
/// merge-order change flips them.
#[test]
fn equal_cost_frontiers_pin_the_reported_example() {
    let g = Grammar::parse("%%\ne : e '+' e | e '-' e | N ;").expect("inline grammar");
    let engine = Engine::new(&g);
    let cold = engine.analyze_all(&generous(1));
    let warm = engine.analyze_all(&generous(1));
    let wide = run(&g, &generous(4));
    assert!(!cold.reports.is_empty(), "ambiguous grammar has conflicts");
    for r in &cold.reports {
        assert_eq!(r.kind(), Some(ExampleKind::Unifying), "ambiguity proven");
    }
    assert_identical(&g, &cold, &warm);
    assert_identical(&g, &cold, &wide);
    // Pin the actual winner of the first conflict's equal-cost race, not
    // just run-to-run agreement: both derivations flatten to the same
    // three-terminal sentence, deriving it two ways.
    let ex = cold.reports[0].unifying.as_ref().expect("unifying example");
    assert_ne!(
        ex.derivation1.pretty(&g),
        ex.derivation2.pretty(&g),
        "two distinct derivations of one sentence"
    );
    assert_eq!(
        ex.derivation1.flat(&g),
        ex.derivation2.flat(&g),
        "derivations unify on the same sentential form"
    );
}

/// A token cancelled before the run starts stops every search before it
/// explores a single configuration, and no slot reports a unifying
/// example — on the threaded fan-out and on the single worker that runs
/// on the calling thread.
#[test]
fn precancelled_token_explores_nothing() {
    let g = load("figure1");
    let cancel = lalrcex::core::CancelToken::new();
    cancel.cancel();
    for workers in [2, 1] {
        let cfg = generous(workers);
        let deadline = std::time::Instant::now() + cfg.cumulative_limit;
        let report = Engine::new(&g).analyze_all_cancellable(&cfg, deadline, &cancel);
        assert_eq!(report.stats.search.explored, 0, "no work after cancel");
        for r in &report.reports {
            assert_ne!(r.kind(), Some(ExampleKind::Unifying));
        }
    }
}

/// The explain surface inherits the engine's determinism end to end: the
/// rendered text and the schema-v1 JSON document are byte-identical at
/// workers 1 vs 4, and a warm-cache run (second explain of the same
/// grammar text through the same `Session`) matches the cold run exactly.
#[test]
fn explain_is_deterministic_across_workers_and_cache_state() {
    use lalrcex::{AnalysisRequest, Session};

    let entry = lalrcex::corpus::by_name("figure1").expect("corpus entry");
    let text = entry.text();
    let req = |workers: usize| {
        AnalysisRequest::new(&text)
            .label("figure1.y")
            .config(generous(workers))
    };

    let session = Session::new();
    let cold = session.explain(&req(1)).expect("cold explain");
    assert!(!cold.cache_hit, "first explain misses the cache");
    let warm = session.explain(&req(1)).expect("warm explain");
    assert!(warm.cache_hit, "second explain hits the cache");
    assert_eq!(
        cold.render_explain(None),
        warm.render_explain(None),
        "cold vs warm cache"
    );
    assert_eq!(
        cold.to_json().to_string(),
        warm.to_json().to_string(),
        "cold vs warm cache (json)"
    );

    // A fresh session at a different worker count: byte-identical still.
    let wide = Session::new().explain(&req(4)).expect("workers=4 explain");
    assert_eq!(
        cold.render_explain(None),
        wide.render_explain(None),
        "workers=1 vs workers=4"
    );
    assert_eq!(
        cold.to_json().to_string(),
        wide.to_json().to_string(),
        "workers=1 vs workers=4 (json)"
    );

    // Single-conflict rendering is a strict filter of the full rendering.
    let one = cold.render_explain(Some(0));
    assert!(cold.render_explain(None).contains("== conflict #0 =="));
    assert!(one.contains("== conflict #0 ==") && !one.contains("== conflict #1 =="));
}

/// A warm `Session::lint` (engine and L009 probes served from the cache)
/// renders the same JSON bytes as a cold `Linter` run on a fresh engine.
#[test]
fn warm_lint_matches_a_cold_linter() {
    use lalrcex::lint::{render_json, Linter};
    use lalrcex::Session;

    let eqn = lalrcex::corpus::by_name("eqn")
        .expect("corpus entry")
        .text();
    // eqn's masking probes prove nothing; `%left '+'` masks an ambiguity.
    for (text, code) in [
        (eqn.as_ref(), "L011"),
        ("%left '+' %% e : e '+' e | NUM ;", "L009"),
    ] {
        let cold = render_json(
            "g.y",
            &Linter::new().run(&Engine::new(&Grammar::parse(text).unwrap())),
        );
        assert!(cold.contains(code), "{cold}");
        let session = Session::new();
        for round in 0..2 {
            let reply = session.lint(text).expect("lint");
            assert_eq!(reply.cache_hit, round == 1);
            assert_eq!(
                render_json("g.y", &reply.diagnostics),
                cold,
                "round {round}"
            );
        }
    }
}

/// A warm `Session::analyze` serves every decided conflict from the
/// engine's verdict memo and still renders the cold bytes. Covers the
/// `serve_mixed` working set plus two grammars whose searches exhaust
/// their space (figure3, ambfailed01), at workers 1 and 2: the second run
/// through one session searches nothing, reports the counters of the
/// search that decided each verdict, and matches a cold run in text and
/// schema-v1 JSON.
#[test]
fn warm_verdicts_match_cold_reports() {
    use lalrcex::{AnalysisRequest, Session};

    let names = [
        "figure1",
        "abcd",
        "simp2",
        "eqn",
        "stackexc01",
        "stackovf07",
        "SQL.2",
        "Pascal.2",
        "C.2",
        "Java.4",
        "figure3",
        "ambfailed01",
    ];
    for name in names {
        let text = lalrcex::corpus::by_name(name).expect("corpus entry").text();
        let req = |workers: usize| {
            AnalysisRequest::new(&text)
                .label(name)
                .config(generous(workers))
        };
        let cold = Session::new().analyze(&req(1)).expect("cold analyze");
        let (cold_text, cold_json) = (cold.render_text(), cold.to_json().to_string());
        let conflicts = cold.report.reports.len() as u64;
        assert!(conflicts > 0, "{name} has conflicts");
        for workers in [1, 2] {
            let session = Session::new();
            let first = session.analyze(&req(workers)).expect("first analyze");
            let second = session.analyze(&req(workers)).expect("second analyze");
            assert!(second.cache_hit, "{name}: same engine");
            assert_eq!(first.report.stats.verdict_memo_hits, 0, "{name}");
            assert_eq!(
                second.report.stats.verdict_memo_hits, conflicts,
                "{name} workers={workers}: every verdict decided and served"
            );
            assert_eq!(
                second.report.stats.search.explored, first.report.stats.search.explored,
                "{name} workers={workers}"
            );
            for (run, reply) in [("first", &first), ("second", &second)] {
                assert_eq!(
                    reply.render_text(),
                    cold_text,
                    "{name} {run} workers={workers}"
                );
                assert_eq!(
                    reply.to_json().to_string(),
                    cold_json,
                    "{name} {run} workers={workers} (json)"
                );
            }
        }
    }
}

/// Every deterministic counter of one unifying search per conflict of
/// corpus grammar `name` (or only its conflict number `only`), in
/// conflict-table order: `[explored, enqueued, deduped, frontier_peak,
/// arena_cells]`.
fn search_counters(name: &str, cfg: &SearchConfig, only: Option<usize>) -> Vec<[u64; 5]> {
    use lalrcex::core::{unifying_search_metered, SearchMetrics};

    let g = load(name);
    let engine = Engine::new(&g);
    let conflicts = engine.tables().conflicts();
    let picked = match only {
        Some(i) => &conflicts[i..=i],
        None => conflicts,
    };
    picked
        .iter()
        .map(|c| {
            let (spine, _) = engine.spine(c);
            let mut m = SearchMetrics::default();
            unifying_search_metered(
                &g,
                engine.automaton(),
                engine.graph(),
                c,
                &spine.states,
                cfg,
                &mut m,
            );
            [
                m.explored,
                m.enqueued,
                m.deduped,
                m.frontier_peak,
                m.arena_cells,
            ]
        })
        .collect()
}

/// Pins all five search counters, not only `explored` (which the
/// benchmark ledger pins): a change to the order in which the search
/// dedups, interns and commits successors shows up here even when every
/// report stays the same. Covers searches that complete and (below) one
/// cut off at the configuration cap.
#[test]
fn search_counters_are_pinned() {
    let clockless = SearchConfig {
        time_limit: Duration::from_secs(3600),
        ..Default::default()
    };
    let pinned: [(&str, &[[u64; 5]]); 5] = [
        (
            "figure1",
            &[
                [3885, 5211, 1866, 1742, 7370],
                [118, 189, 41, 94, 246],
                [975, 1454, 600, 746, 1674],
            ],
        ),
        (
            "figure7",
            &[[108, 121, 58, 29, 188], [137, 143, 80, 24, 226]],
        ),
        ("eqn", &[[37418, 92068, 15598, 71615, 103521]]),
        (
            "SQL.5",
            &[
                [49048, 185698, 96604, 148250, 197179],
                [23680, 86013, 36051, 69473, 93384],
                [22572, 84785, 36051, 68892, 92532],
            ],
        ),
        (
            "stackovf10",
            &[
                [11140, 15718, 6034, 11910, 18159],
                [11140, 15718, 6034, 11910, 18159],
                [11140, 15718, 6034, 11910, 18159],
                [11140, 15718, 6034, 11910, 18159],
                [8688, 13559, 3289, 8765, 16697],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [8688, 13559, 3289, 8765, 16697],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [8688, 13559, 3289, 8765, 16697],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [11138, 15721, 6023, 11962, 18429],
                [8688, 13559, 3289, 8765, 16697],
            ],
        ),
    ];
    for (name, counters) in pinned {
        assert_eq!(search_counters(name, &clockless, None), counters, "{name}");
    }
}

/// One of stackovf08's heaviest conflicts, cut off by a 200 000
/// configuration cap: a deep, narrow search (frontier peak 8) whose
/// item arena holds over 280 000 cells.
#[test]
fn capped_search_counters_are_pinned() {
    let capped = SearchConfig {
        time_limit: Duration::from_secs(3600),
        max_configs: 200_000,
        ..Default::default()
    };
    assert_eq!(
        search_counters("stackovf08", &capped, Some(0)),
        [[199999, 200002, 68168, 8, 286362]]
    );
}

/// `max_configs` bounds what a search stores: once a search stores more
/// than the cap it expands nothing more, so it overshoots by the
/// successors of one configuration (3 to 12 here) rather than by a whole
/// cost bucket (up to 24 293 here). The next pop reports the cutoff, so
/// `explored` is what it was when the last bucket was expanded in full.
#[test]
fn capped_searches_stop_at_max_configs() {
    const CAP: u64 = 20_000;
    let capped = SearchConfig {
        time_limit: Duration::from_secs(3600),
        max_configs: CAP as usize,
        ..Default::default()
    };
    let pinned: [(&str, &[[u64; 5]]); 2] = [
        (
            "SQL.5",
            &[
                [8459, 20003, 8446, 11545, 21372],
                [6367, 20005, 5553, 14553, 21882],
                [5632, 20005, 5553, 14498, 21801],
            ],
        ),
        ("eqn", &[[4088, 20012, 3432, 15925, 22266]]),
    ];
    for (name, counters) in pinned {
        let got = search_counters(name, &capped, None);
        for [_, enqueued, ..] in &got {
            assert!(
                (CAP + 1..=CAP + 16).contains(enqueued),
                "{name}: {enqueued}"
            );
        }
        assert_eq!(got, counters, "{name}");
    }
}

/// All five counters of eqn's conflict and SQL.5's three conflicts at a
/// ladder of small `max_configs` caps: the cap, and with it the cutoff
/// inside a cost bucket, falls at many different places in the expansion
/// order (before any successor, inside one configuration's successors,
/// right after a bucket ends). Each row is `(cap, [eqn, SQL.5 #0, SQL.5
/// #1, SQL.5 #2])`.
#[test]
fn cap_ladder_counters_are_pinned() {
    #[rustfmt::skip]
    let pinned: [(usize, [[u64; 5]; 4]); 24] = [
        (0, [[1, 1, 0, 0, 2], [1, 1, 0, 0, 2], [1, 1, 0, 0, 2], [1, 1, 0, 0, 2]]),
        (1, [[2, 2, 1, 1, 4], [2, 2, 0, 1, 4], [2, 2, 0, 1, 4], [2, 2, 0, 1, 4]]),
        (2, [[3, 3, 2, 1, 6], [3, 5, 0, 3, 7], [3, 7, 0, 5, 9], [3, 7, 0, 5, 9]]),
        (3, [[4, 4, 3, 1, 8], [3, 5, 0, 3, 7], [3, 7, 0, 5, 9], [3, 7, 0, 5, 9]]),
        (5, [[5, 19, 18, 15, 23], [6, 6, 0, 3, 9], [3, 7, 0, 5, 9], [3, 7, 0, 5, 9]]),
        (8, [[5, 19, 18, 15, 23], [9, 14, 0, 6, 19], [7, 13, 0, 7, 16], [7, 13, 0, 7, 16]]),
        (13, [[5, 19, 18, 15, 23], [9, 14, 0, 6, 19], [7, 18, 0, 12, 21], [7, 18, 0, 12, 21]]),
        (16, [[5, 19, 18, 15, 23], [15, 20, 0, 6, 25], [7, 18, 0, 12, 21], [7, 18, 0, 12, 21]]),
        (17, [[5, 19, 18, 15, 23], [15, 20, 0, 6, 25], [7, 18, 0, 12, 21], [7, 18, 0, 12, 21]]),
        (21, [[19, 23, 18, 15, 31], [15, 26, 0, 12, 31], [7, 23, 0, 17, 26], [7, 23, 0, 17, 26]]),
        (32, [[19, 43, 18, 25, 56], [15, 38, 0, 24, 43], [17, 37, 0, 21, 41], [18, 35, 0, 18, 40]]),
        (33, [[19, 43, 18, 25, 56], [15, 38, 0, 24, 43], [17, 37, 0, 21, 41], [18, 35, 0, 18, 40]]),
        (34, [[19, 43, 18, 25, 56], [15, 38, 0, 24, 43], [17, 37, 0, 21, 41], [18, 35, 0, 18, 40]]),
        (55, [[19, 59, 18, 41, 73], [16, 58, 0, 43, 65], [17, 59, 0, 43, 65], [18, 57, 0, 40, 64]]),
        (89, [[19, 91, 18, 73, 107], [43, 95, 0, 53, 103], [36, 94, 0, 59, 106], [38, 93, 0, 56, 108]]),
        (144, [[39, 148, 27, 110, 190], [43, 145, 0, 103, 155], [78, 145, 0, 83, 180], [64, 146, 0, 83, 182]]),
        (233, [[123, 236, 30, 177, 284], [60, 241, 0, 182, 256], [173, 238, 0, 107, 290], [102, 237, 0, 136, 293]]),
        (377, [[123, 382, 56, 260, 442], [155, 379, 36, 276, 404], [173, 378, 0, 206, 435], [159, 380, 0, 222, 440]]),
        (610, [[123, 625, 95, 503, 697], [155, 615, 40, 461, 654], [294, 611, 0, 318, 683], [202, 616, 6, 415, 688]]),
        (987, [[236, 991, 108, 756, 1099], [321, 991, 130, 671, 1054], [355, 990, 0, 636, 1118], [424, 989, 37, 566, 1097]]),
        (1597, [[740, 1598, 158, 1251, 1760], [321, 1602, 460, 1282, 1710], [643, 1599, 36, 957, 1882], [699, 1601, 37, 1158, 1765]]),
        (2584, [[740, 2591, 319, 1852, 2825], [617, 2590, 524, 1974, 2782], [1279, 2593, 37, 1650, 2941], [699, 2587, 421, 1889, 2819]]),
        (4181, [[740, 4196, 603, 3457, 4616], [1721, 4182, 1238, 2462, 4472], [1279, 4183, 605, 2905, 4763], [1453, 4182, 612, 2858, 4547]]),
        (6765, [[1586, 6774, 612, 5189, 7350], [1721, 6768, 2832, 5048, 7218], [2165, 6766, 620, 4602, 7658], [3280, 6774, 898, 4297, 7541]]),
    ];
    for (cap, counters) in pinned {
        let capped = SearchConfig {
            time_limit: Duration::from_secs(3600),
            max_configs: cap,
            ..Default::default()
        };
        let mut got = search_counters("eqn", &capped, None);
        got.extend(search_counters("SQL.5", &capped, None));
        assert_eq!(got, counters, "max_configs {cap}");
    }
}
