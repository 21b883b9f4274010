//! Budget-exhaustion edge cases (§6 graceful cutoff, ISSUE 3 satellite):
//! zeroed budgets — `time_limit == 0`, `max_configs == 0`, a cumulative
//! deadline already in the past — must degrade into complete,
//! deterministic reports (`TimedOut` / `NonunifyingSkipped` with the cheap
//! nonunifying fallback intact), never hang, panic, or lose a conflict.
//! Both the engine path and the lint masking-probe path are covered.

use std::time::{Duration, Instant};

use lalrcex_core::engine::ResolutionProbe;
use lalrcex_core::{
    unifying_search_metered, CancelToken, CexConfig, Engine, ExampleKind, SearchConfig,
    SearchMetrics, SearchOutcome,
};
use lalrcex_grammar::Grammar;

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

/// Runs the bare unifying search on figure1's first conflict under `cfg`.
fn search_outcome(cfg: &SearchConfig) -> (SearchOutcome, SearchMetrics) {
    let g = figure1();
    let engine = Engine::new(&g);
    let conflict = engine.tables().conflicts()[0];
    let (spine, _) = engine.spine(&conflict);
    let mut m = SearchMetrics::default();
    let out = unifying_search_metered(
        &g,
        engine.automaton(),
        engine.graph(),
        &conflict,
        &spine.states,
        cfg,
        &mut m,
    );
    (out, m)
}

#[test]
fn zero_time_limit_times_out_before_exploring() {
    let cfg = SearchConfig {
        time_limit: Duration::ZERO,
        ..SearchConfig::default()
    };
    let (out, m) = search_outcome(&cfg);
    assert!(matches!(out, SearchOutcome::TimedOut));
    assert_eq!(m.explored, 0, "a zero budget must not start the search");
}

#[test]
fn zero_max_configs_times_out_deterministically() {
    let cfg = SearchConfig {
        time_limit: Duration::from_secs(3600),
        max_configs: 0,
        ..SearchConfig::default()
    };
    let (out, m) = search_outcome(&cfg);
    assert!(matches!(out, SearchOutcome::TimedOut));
    // Run twice: the explored count under a node budget is deterministic.
    let (_, m2) = search_outcome(&cfg);
    assert_eq!(m.explored, m2.explored);
}

#[test]
fn zero_time_limit_reports_stay_complete() {
    let g = figure1();
    let cfg = CexConfig {
        search: SearchConfig {
            time_limit: Duration::ZERO,
            ..SearchConfig::default()
        },
        ..CexConfig::default()
    };
    let report = Engine::new(&g).analyze_all(&cfg);
    assert_eq!(report.reports.len(), 3, "one report per conflict");
    for r in &report.reports {
        assert_eq!(r.kind(), Some(ExampleKind::NonunifyingTimeout));
        assert!(r.nonunifying.is_some(), "fallback survives a zero budget");
        assert!(!r.is_internal());
    }
}

#[test]
fn past_deadline_skips_search_but_keeps_fallback() {
    let g = figure1();
    let engine = Engine::new(&g);
    let cfg = CexConfig::default();
    let past = Instant::now() - Duration::from_secs(1);
    for c in engine.tables().conflicts() {
        let r = engine.analyze_conflict_cancellable(c, &cfg, past, &CancelToken::new());
        assert_eq!(r.kind(), Some(ExampleKind::NonunifyingSkipped));
        assert!(r.nonunifying.is_some());
        assert_eq!(r.stats.search.explored, 0, "search must not start");
    }
}

#[test]
fn zero_cumulative_budget_across_worker_counts() {
    let g = figure1();
    for workers in [1usize, 4] {
        let cfg = CexConfig {
            cumulative_limit: Duration::ZERO,
            workers,
            ..CexConfig::default()
        };
        let report = Engine::new(&g).analyze_all(&cfg);
        assert_eq!(report.reports.len(), 3);
        for r in &report.reports {
            assert_eq!(r.kind(), Some(ExampleKind::NonunifyingSkipped));
            assert!(r.nonunifying.is_some());
        }
        assert_eq!(report.stats.search.explored, 0);
    }
}

/// The lint masking probe under a zero node budget: deterministic
/// `BudgetExhausted`, never a hang or a panic, and the same engine still
/// completes an unconstrained probe afterwards.
#[test]
fn lint_probe_zero_budget_is_exhausted_not_stuck() {
    let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
    let engine = Engine::new(&g);
    let res = engine.tables().resolutions()[0];
    match engine.probe_resolution(&res, 0) {
        ResolutionProbe::BudgetExhausted => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    match engine.probe_resolution(&res, 1 << 16) {
        ResolutionProbe::Ambiguous(_) => {}
        other => panic!("expected Ambiguous on the healthy retry, got {other:?}"),
    }
}
