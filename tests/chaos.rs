//! Chaos suite: deterministic fault injection against the conflict engine.
//!
//! Compiled and run only with the `failpoints` feature:
//!
//! ```text
//! cargo test --features failpoints --test chaos
//! ```
//!
//! The invariants under test (ISSUE 3, tentpole 3):
//!
//! 1. **Every conflict yields a report.** Whatever a fault plan does to one
//!    conflict's diagnosis — panic mid-search, zero its budget, jump its
//!    clock — `analyze_all` still returns exactly one entry per conflict.
//! 2. **Containment is local.** The conflicts the plan did *not* touch
//!    produce byte-identical formatted reports to a clean run.
//! 3. **Worker-count independence.** Because probes are scoped to the
//!    conflict slot and each slot's diagnosis is single-threaded and
//!    deterministic, a faulted run at `workers = 1` and `workers = 4`
//!    produces byte-identical reports.
//!
//! Determinism hazard: the `spine.expand` probe sits inside the memoized
//! §4 spine search, and *which* conflict pays for a shared spine depends on
//! worker scheduling. Cross-worker assertions therefore only use the
//! per-conflict-deterministic probes (`engine.conflict`, `unify.expand`,
//! `nonunify.complete`).
//!
//! All searches here run under pure node budgets (huge time limits), so
//! clean runs are byte-deterministic and comparisons are exact.

#![cfg(feature = "failpoints")]

use std::time::Duration;

use lalrcex::core::faultpoint::{install, FaultAction, FaultPlan, NO_SCOPE};
use lalrcex::core::{
    format_report, CexConfig, ConflictOutcome, Engine, ExampleKind, GrammarReport, SearchConfig,
};
use lalrcex::grammar::Grammar;

fn load(name: &str) -> Grammar {
    lalrcex::corpus::by_name(name)
        .expect("corpus entry")
        .load()
        .expect("corpus grammar parses")
}

/// A configuration whose outcome depends only on deterministic node
/// budgets, never on the clock: runs are byte-identical across machines,
/// worker counts, and fault-plan repetitions.
fn deterministic(workers: usize) -> CexConfig {
    CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_secs(3600),
            max_configs: 5_000,
            ..SearchConfig::default()
        },
        cumulative_limit: Duration::from_secs(3600),
        workers,
    }
}

/// Runs `analyze_all` under an *empty* fault plan. Installing the empty
/// plan takes the chaos serialization lock, so a clean baseline can never
/// race against another test's installed triggers.
fn clean_run(g: &Grammar, workers: usize) -> GrammarReport {
    let _guard = install(FaultPlan::new());
    Engine::new(g).analyze_all(&deterministic(workers))
}

fn faulted_run(g: &Grammar, plan: FaultPlan, workers: usize) -> GrammarReport {
    let _guard = install(plan);
    Engine::new(g).analyze_all(&deterministic(workers))
}

fn formatted(g: &Grammar, r: &GrammarReport) -> Vec<String> {
    r.reports.iter().map(|x| format_report(g, x)).collect()
}

/// The acceptance scenario: a plan that panics inside ONE conflict's
/// unifying search. The report still has one entry per conflict, the
/// faulted slot is a structured `Internal` outcome from the `unifying`
/// phase, and every unfaulted slot is byte-identical to the clean run —
/// at `workers = 1` and `workers = 4` alike.
#[test]
fn panic_in_one_unifying_search_is_contained() {
    for name in ["figure1", "SQL.2", "C.3"] {
        let g = load(name);
        let clean = clean_run(&g, 1);
        let n = clean.reports.len();
        assert!(n > 0, "{name} has conflicts");
        // Fault the *last* slot so the test also covers mid-fleet slots on
        // multi-conflict grammars (slot 0 is the common easy case).
        let slot = (n - 1) as u64;
        for workers in [1usize, 4] {
            let plan = FaultPlan::new().trigger(slot, "unify.expand", 1, FaultAction::Panic);
            let faulted = faulted_run(&g, plan, workers);
            assert_eq!(faulted.reports.len(), n, "{name}: one report per conflict");
            assert_eq!(faulted.internal_count(), 1, "{name}: exactly one fault");
            let clean_fmt = formatted(&g, &clean);
            let faulted_fmt = formatted(&g, &faulted);
            for (i, r) in faulted.reports.iter().enumerate() {
                if i as u64 == slot {
                    let ConflictOutcome::Internal(e) = &r.outcome else {
                        panic!("{name}: faulted slot must be Internal, got {:?}", r.outcome);
                    };
                    assert_eq!(e.phase, "unifying");
                    assert!(e.message.contains("unify.expand"), "stable diagnostic");
                    assert!(
                        r.nonunifying.is_some(),
                        "{name}: faulted unifying search still degrades to the \
                         cheap nonunifying example"
                    );
                } else {
                    assert_eq!(
                        faulted_fmt[i], clean_fmt[i],
                        "{name} workers={workers}: unfaulted slot {i} must be \
                         byte-identical to the clean run"
                    );
                }
            }
        }
    }
}

/// A panic in the spine phase (the `engine.conflict` probe fires before the
/// spine search) faults the whole slot — nothing downstream can run — but
/// the remaining conflicts are untouched.
#[test]
fn panic_in_spine_phase_faults_only_that_slot() {
    let g = load("figure1");
    let clean = clean_run(&g, 1);
    for workers in [1usize, 4] {
        let plan = FaultPlan::new().trigger(1, "engine.conflict", 1, FaultAction::Panic);
        let faulted = faulted_run(&g, plan, workers);
        assert_eq!(faulted.reports.len(), clean.reports.len());
        let r = &faulted.reports[1];
        let ConflictOutcome::Internal(e) = &r.outcome else {
            panic!("slot 1 must fault, got {:?}", r.outcome);
        };
        assert_eq!(e.phase, "spine");
        assert!(r.unifying.is_none() && r.nonunifying.is_none());
        for i in [0usize, 2] {
            assert_eq!(
                format_report(&g, &faulted.reports[i]),
                format_report(&g, &clean.reports[i]),
            );
        }
    }
}

/// Non-panic actions degrade, they don't fault: a zeroed budget or a
/// clock jump in the unifying search ends it `TimedOut`, the slot keeps
/// its nonunifying fallback, and the outcome is `Completed`, not
/// `Internal`.
#[test]
fn budget_and_clock_faults_degrade_like_timeouts() {
    let g = load("figure1");
    for action in [FaultAction::BudgetZero, FaultAction::ClockJump] {
        let plan = FaultPlan::new().trigger(0, "unify.expand", 1, action);
        let faulted = faulted_run(&g, plan, 1);
        let r = &faulted.reports[0];
        assert_eq!(
            r.kind(),
            Some(ExampleKind::NonunifyingTimeout),
            "{action:?}"
        );
        assert!(r.nonunifying.is_some(), "{action:?} keeps the fallback");
        assert_eq!(faulted.internal_count(), 0);
    }
}

/// Every slot faults (wildcard scope, first `unify.expand` hit): the
/// worker pool survives all of them, each conflict still reports, and the
/// engine — whose spine-memo mutex may have been poisoned by the unwinds —
/// remains usable for a clean run afterwards.
#[test]
fn worker_pool_survives_a_panic_storm() {
    let g = load("figure1");
    let clean = clean_run(&g, 1);
    let engine = Engine::new(&g);
    {
        let _guard =
            install(FaultPlan::new().trigger(NO_SCOPE, "unify.expand", 1, FaultAction::Panic));
        let storm = engine.analyze_all(&deterministic(4));
        assert_eq!(storm.reports.len(), clean.reports.len());
        assert_eq!(storm.internal_count(), storm.reports.len());
        for r in &storm.reports {
            assert!(r.is_internal());
            assert!(r.nonunifying.is_some(), "fallback survives the storm");
        }
    }
    // Same engine, clean plan: poisoned memo locks must have recovered.
    let _guard = install(FaultPlan::new());
    let after = engine.analyze_all(&deterministic(1));
    assert_eq!(formatted(&g, &after), formatted(&g, &clean));
}

/// The lint masking probe contains its own faults: a panic inside
/// `probe_resolution` yields `ResolutionProbe::Internal`, and the next
/// probe on the same engine runs clean.
/// A panic while building the lazy state-item graph faults only the slot
/// whose spine started the build (phase `spine`). The graph stays unbuilt,
/// so the next conflict builds it afresh and matches the clean run; a lint
/// probe that faults the same way recovers on its next call. One worker:
/// with more, which slot starts the build depends on scheduling.
#[test]
fn panic_in_lazy_graph_build_is_contained_and_retried() {
    use lalrcex::core::engine::ResolutionProbe;

    let g = load("figure1");
    let clean = clean_run(&g, 1);
    {
        let _guard =
            install(FaultPlan::new().trigger(0, "state_graph.build", 1, FaultAction::Panic));
        let engine = Engine::new(&g);
        let faulted = engine.analyze_all(&deterministic(1));
        assert_eq!(faulted.reports.len(), clean.reports.len());
        let ConflictOutcome::Internal(e) = &faulted.reports[0].outcome else {
            panic!("slot 0 must fault, got {:?}", faulted.reports[0].outcome);
        };
        assert_eq!(e.phase, "spine");
        assert!(e.message.contains("state_graph.build"), "stable diagnostic");
        for i in 1..clean.reports.len() {
            assert_eq!(
                format_report(&g, &faulted.reports[i]),
                format_report(&g, &clean.reports[i]),
            );
        }
        assert!(!engine.precompute_times().state_graph.is_zero());
    }

    let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
    let engine = Engine::new(&g);
    let res = engine.tables().resolutions()[0];
    let _guard =
        install(FaultPlan::new().trigger(NO_SCOPE, "state_graph.build", 1, FaultAction::Panic));
    match engine.probe_resolution(&res, 1 << 16) {
        ResolutionProbe::Internal(e) => assert_eq!(e.phase, "lint.probe"),
        other => panic!("expected Internal, got {other:?}"),
    }
    assert!(engine.precompute_times().state_graph.is_zero());
    match engine.probe_resolution(&res, 1 << 16) {
        ResolutionProbe::Ambiguous(_) => {}
        other => panic!("expected Ambiguous after the fault, got {other:?}"),
    }
}

#[test]
fn lint_probe_contains_its_fault() {
    use lalrcex::core::engine::ResolutionProbe;

    let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
    let engine = Engine::new(&g);
    let res = engine.tables().resolutions()[0];
    let _guard = install(FaultPlan::new().trigger(NO_SCOPE, "lint.probe", 1, FaultAction::Panic));
    match engine.probe_resolution(&res, 1 << 16) {
        ResolutionProbe::Internal(e) => assert_eq!(e.phase, "lint.probe"),
        other => panic!("expected Internal, got {other:?}"),
    }
    // The trigger fired once; the second probe is clean and proves the
    // masked ambiguity as usual.
    match engine.probe_resolution(&res, 1 << 16) {
        ResolutionProbe::Ambiguous(_) => {}
        other => panic!("expected Ambiguous after the fault, got {other:?}"),
    }
}

/// A clean probe is memoized per budget: a `lint.probe` trigger installed
/// after it never fires on a repeat at the same `max_configs` (the memo
/// answers without probing), but does fire at a different budget.
#[test]
fn memoized_lint_probe_skips_the_fault_point() {
    use lalrcex::core::engine::ResolutionProbe;

    let g = Grammar::parse("%left '+' %% e : e '+' e | NUM ;").unwrap();
    let engine = Engine::new(&g);
    let res = engine.tables().resolutions()[0];
    {
        let _guard = install(FaultPlan::new());
        let clean = engine.probe_resolution(&res, 1 << 16);
        assert!(matches!(clean, ResolutionProbe::Ambiguous(_)), "{clean:?}");
    }
    let _guard = install(FaultPlan::new().trigger(NO_SCOPE, "lint.probe", 1, FaultAction::Panic));
    match engine.probe_resolution(&res, 1 << 16) {
        ResolutionProbe::Ambiguous(_) => {}
        other => panic!("expected the memoized Ambiguous, got {other:?}"),
    }
    match engine.probe_resolution(&res, 1 << 15) {
        ResolutionProbe::Internal(e) => assert_eq!(e.phase, "lint.probe"),
        other => panic!("expected the trigger to fire at a new budget, got {other:?}"),
    }
}

/// A decided verdict is memoized per engine under its work caps: an
/// `unify.expand` panic installed after a clean analyze never fires on a
/// repeat at the same budgets (the memo answers without searching), but
/// does fire at another `max_configs`. The slot it faults is not stored,
/// so a clean run at that budget searches it again.
#[test]
fn memoized_verdict_skips_the_search_fault_point() {
    let g = load("figure1");
    let engine = Engine::new(&g);
    // Room for every figure1 search to decide (the `deterministic` cap of
    // 5 000 cuts conflict 0 off).
    let budgets = |max_configs| CexConfig {
        search: SearchConfig {
            max_configs,
            ..deterministic(1).search
        },
        ..deterministic(1)
    };
    let cfg = budgets(1 << 16);
    let clean = {
        let _guard = install(FaultPlan::new());
        engine.analyze_all(&cfg)
    };
    assert_eq!(clean.stats.verdict_memo_hits, 0);
    let panic_in_slot_0 = || FaultPlan::new().trigger(0, "unify.expand", 1, FaultAction::Panic);
    {
        let _guard = install(panic_in_slot_0());
        let warm = engine.analyze_all(&cfg);
        assert!(warm.reports.iter().all(|r| !r.is_internal()));
        assert_eq!(warm.stats.verdict_memo_hits, 3);
        assert_eq!(formatted(&g, &warm), formatted(&g, &clean));
    }
    let other = budgets(1 << 15);
    {
        let _guard = install(panic_in_slot_0());
        let faulted = engine.analyze_all(&other);
        assert_eq!(
            faulted.reports[0].error().map(|e| e.phase),
            Some("unifying")
        );
        assert_eq!(faulted.stats.verdict_memo_hits, 0);
    }
    let _guard = install(FaultPlan::new());
    let rerun = engine.analyze_all(&other);
    let hits: Vec<bool> = rerun
        .reports
        .iter()
        .map(|r| r.stats.verdict_memo_hit)
        .collect();
    assert_eq!(
        hits,
        [false, true, true],
        "only the faulted slot searches again"
    );
    assert_eq!(formatted(&g, &rerun), formatted(&g, &clean));
}

/// Property sweep: PRNG-seeded single-trigger plans over the
/// per-conflict-deterministic probes. For every seed, (a) both worker
/// counts return one report per conflict, (b) the two runs are
/// byte-identical to *each other*, and (c) slots the plan cannot have
/// touched are byte-identical to the clean baseline.
#[test]
fn seeded_plans_are_reproducible_across_worker_counts() {
    let probes = ["engine.conflict", "unify.expand", "nonunify.complete"];
    for name in ["figure1", "SQL.2"] {
        let g = load(name);
        let clean = clean_run(&g, 1);
        let n = clean.reports.len() as u64;
        for seed in 0..12u64 {
            let run1 = faulted_run(&g, FaultPlan::seeded(seed, n, &probes, 40), 1);
            let run4 = faulted_run(&g, FaultPlan::seeded(seed, n, &probes, 40), 4);
            assert_eq!(run1.reports.len() as u64, n, "{name} seed {seed}");
            assert_eq!(
                formatted(&g, &run1),
                formatted(&g, &run4),
                "{name} seed {seed}: workers=1 vs workers=4 must agree"
            );
            let clean_fmt = formatted(&g, &clean);
            let fmt = formatted(&g, &run1);
            let differing = (0..n as usize).filter(|&i| fmt[i] != clean_fmt[i]).count();
            assert!(
                differing <= 1,
                "{name} seed {seed}: a single-trigger plan may perturb at \
                 most one slot, saw {differing}"
            );
        }
    }
}

/// The serve loop under fault injection: a *persistent* plan that panics
/// inside one conflict's unifying search (armed for the first run and the
/// supervised retry alike) still yields an `ok:true` analyze response —
/// the fault is contained to its conflict slot and surfaced as
/// `internal_count` once supervision gives up — and the loop keeps
/// serving: a fresh loop under a clean plan produces a report that
/// matches a run that was never faulted.
#[test]
fn serve_contains_engine_faults_per_request() {
    use lalrcex::api::json::{self, Json};
    use lalrcex::service::{serve, ServeOptions};
    use std::io::Cursor;

    let text = lalrcex::corpus::by_name("figure1")
        .expect("corpus entry")
        .text();
    let analyze = format!(
        r#"{{"op":"analyze","id":"a","grammar":{},"file":"figure1.y"}}"#,
        Json::str(&text)
    );
    let run_one = |plan: FaultPlan| -> Json {
        let _guard = install(plan);
        let input = format!("{}\n{}\n", analyze, r#"{"op":"shutdown","id":"z"}"#);
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(input.into_bytes()),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        );
        assert!(summary.shutdown);
        assert_eq!(
            summary.errors, 0,
            "a contained fault is not a protocol error"
        );
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| json::parse(l).expect("valid response lines"))
            .find(|r| r.get("id").and_then(Json::as_str) == Some("a"))
            .expect("analyze response")
    };

    let clean = run_one(FaultPlan::new());
    assert_eq!(clean.get("internal_count").and_then(Json::as_u64), Some(0));

    let faulted = run_one(
        FaultPlan::new()
            .trigger(0, "unify.expand", 1, FaultAction::Panic)
            .trigger(0, "unify.expand", 2, FaultAction::Panic),
    );
    assert_eq!(faulted.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        faulted.get("internal_count").and_then(Json::as_u64),
        Some(1),
        "the fault is contained to its conflict slot"
    );
    assert_eq!(
        faulted.get("retried_slots").and_then(Json::as_u64),
        Some(1),
        "supervision retried once before giving up on the persistent fault"
    );
    let conflicts = faulted
        .get("report")
        .and_then(|r| r.get("conflicts"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(
        conflicts[0].get("outcome").and_then(Json::as_str),
        Some("internal")
    );
    assert!(
        conflicts[0].get("internal").unwrap().get("phase").is_some(),
        "structured fault detail survives into the document"
    );

    // Fresh serve loop, clean plan: byte-identical to the first clean run.
    let again = run_one(FaultPlan::new());
    assert_eq!(
        again.get("report").unwrap().to_string(),
        clean.get("report").unwrap().to_string(),
        "a fault in one serve loop leaves no residue for the next"
    );
}

/// End-to-end process check: the CLI built with `failpoints` honours
/// `LALRCEX_FAULT_PLAN` and maps a contained fault to the partial-failure
/// exit code 3 (a clean conflict-bearing run exits 1), at both worker
/// counts.
#[test]
fn cli_exits_with_partial_failure_code() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let run = |plan: Option<&str>, workers: &str| {
        let mut cmd = std::process::Command::new(&cargo);
        cmd.args([
            "run",
            "-q",
            "-p",
            "lalrcex-cli",
            "--features",
            "failpoints",
            "--",
            "--workers",
            workers,
            "crates/corpus/grammars/figure1.y",
        ]);
        cmd.env_remove("LALRCEX_FAULT_PLAN");
        if let Some(p) = plan {
            cmd.env("LALRCEX_FAULT_PLAN", p);
        }
        cmd.output().expect("cargo run lalrcex-cli")
    };
    for workers in ["1", "4"] {
        let clean = run(None, workers);
        assert_eq!(clean.status.code(), Some(1), "conflicts found, no faults");
        let faulted = run(Some("0:unify.expand:1:panic"), workers);
        assert_eq!(
            faulted.status.code(),
            Some(3),
            "workers={workers}: contained fault must exit 3; stderr: {}",
            String::from_utf8_lossy(&faulted.stderr)
        );
        let stdout = String::from_utf8_lossy(&faulted.stdout);
        assert!(
            stdout.contains("Internal fault while diagnosing this conflict"),
            "report carries the contained-fault entry; got:\n{stdout}"
        );
        assert_eq!(
            stdout.matches("conflict found in state").count(),
            3,
            "one report entry per conflict"
        );
    }
    // A malformed plan must abort loudly with the usage exit code.
    let bad = run(Some("not-a-plan"), "1");
    assert_eq!(bad.status.code(), Some(2), "typo'd fault plan exits 2");
}

/// The provenance precomputation contains its own faults at both
/// boundaries. A trigger *scoped to one conflict slot* degrades exactly
/// that slot to `Internal` (phase `"provenance.compute"`) and leaves every
/// other slot's rendered provenance byte-identical to a clean engine's. An
/// *unscoped* trigger fails the whole query — and because errors are not
/// memoized, the next call on the same engine recomputes clean.
#[test]
fn provenance_probe_contains_its_fault() {
    use lalrcex::core::{format_provenance, ProvenanceOutcome};

    let g = load("figure1");

    let clean: Vec<String> = {
        let engine = Engine::new(&g);
        let p = engine.provenance().expect("clean run");
        assert_eq!(p.counts().internal, 0);
        p.conflicts
            .iter()
            .map(|o| match o {
                ProvenanceOutcome::Classified(cp) => format_provenance(&g, cp),
                ProvenanceOutcome::Internal(e) => panic!("clean run faulted: {e}"),
            })
            .collect()
    };
    assert_eq!(clean.len(), 3, "figure1 has three conflicts");

    // Scoped fault: only slot 1 degrades.
    {
        let engine = Engine::new(&g);
        let _guard =
            install(FaultPlan::new().trigger(1, "provenance.compute", 1, FaultAction::Panic));
        let p = engine.provenance().expect("slot faults are contained");
        assert_eq!(p.counts().internal, 1);
        for (i, o) in p.conflicts.iter().enumerate() {
            match o {
                ProvenanceOutcome::Internal(e) => {
                    assert_eq!(i, 1, "only the scoped slot faults");
                    assert_eq!(e.phase, "provenance.compute");
                }
                ProvenanceOutcome::Classified(cp) => {
                    assert_eq!(format_provenance(&g, cp), clean[i], "slot {i} untouched");
                }
            }
        }
    }

    // Unscoped fault: the whole query fails — and because errors are not
    // memoized, the same engine recomputes clean once the plan is gone
    // (an any-scope trigger would re-fire at each slot's first hit, so
    // the guard must drop before the retry).
    {
        let engine = Engine::new(&g);
        {
            let _guard = install(FaultPlan::new().trigger(
                NO_SCOPE,
                "provenance.compute",
                1,
                FaultAction::Panic,
            ));
            let err = engine.provenance().expect_err("whole-query fault");
            assert_eq!(err.phase, "provenance.compute");
        }
        let p = engine.provenance().expect("retry after fault is clean");
        let again: Vec<String> = p
            .conflicts
            .iter()
            .map(|o| match o {
                ProvenanceOutcome::Classified(cp) => format_provenance(&g, cp),
                ProvenanceOutcome::Internal(e) => panic!("retry faulted: {e}"),
            })
            .collect();
        assert_eq!(again, clean, "retry matches the never-faulted engine");
    }
}

/// Fault-retry supervision at the session layer: after a one-shot fault
/// leaves a slot `Internal`, `retry_internal_slots` re-runs it under the
/// same slot scope — the spent trigger cannot re-fire, so the slot
/// recovers to an outcome byte-identical to a never-faulted run, and the
/// supervision counters record the retry and the recovery.
#[test]
fn supervised_slot_retry_recovers_one_shot_faults() {
    use lalrcex::api::{AnalysisRequest, Session};

    let g = load("figure1");
    let clean = clean_run(&g, 1);
    let text = lalrcex::corpus::by_name("figure1").unwrap().text();

    let _guard = install(FaultPlan::new().trigger(0, "unify.expand", 1, FaultAction::Panic));
    let session = Session::new();
    let request = AnalysisRequest::new(text).config(deterministic(1));
    let mut reply = session.analyze(&request).expect("contained fault");
    assert_eq!(reply.report.internal_count(), 1, "slot 0 faulted");

    let retried = session.retry_internal_slots(&mut reply, &request);
    assert_eq!(retried, 1);
    assert_eq!(
        reply.report.internal_count(),
        0,
        "the one-shot fault was spent on the first run, so the retry \
         recovers the slot"
    );
    assert_eq!(reply.report.stats.slot_retries, 1);
    assert_eq!(reply.report.stats.slots_recovered, 1);
    assert_eq!(reply.report.reports[0].stats.retries, 1);
    assert_eq!(
        formatted(&g, &reply.report),
        formatted(&g, &clean),
        "the recovered report is byte-identical to a never-faulted run"
    );
}

/// A *persistent* fault (triggers armed for both the first run and the
/// retry) stays `Internal` after supervision: exactly one retry is spent,
/// nothing recovers, and the loop does not retry again.
#[test]
fn persistent_fault_stays_internal_after_one_retry() {
    use lalrcex::api::{AnalysisRequest, Session};

    let text = lalrcex::corpus::by_name("figure1").unwrap().text();
    let _guard = install(
        FaultPlan::new()
            .trigger(0, "unify.expand", 1, FaultAction::Panic)
            .trigger(0, "unify.expand", 2, FaultAction::Panic),
    );
    let session = Session::new();
    let request = AnalysisRequest::new(text).config(deterministic(1));
    let mut reply = session.analyze(&request).expect("contained fault");
    assert_eq!(reply.report.internal_count(), 1);

    let retried = session.retry_internal_slots(&mut reply, &request);
    assert_eq!(retried, 1, "exactly one supervised re-run");
    assert_eq!(reply.report.internal_count(), 1, "still faulted");
    assert_eq!(reply.report.stats.slot_retries, 1);
    assert_eq!(reply.report.stats.slots_recovered, 0);
}

/// `Session::evict` is the poisoned-engine hook: after eviction the next
/// analysis of the same text rebuilds from scratch (a cache miss), so no
/// state a fault may have corrupted is ever re-served.
#[test]
fn session_evict_forces_a_rebuild() {
    use lalrcex::api::{AnalysisRequest, Session};

    let _guard = install(FaultPlan::new());
    let text = lalrcex::corpus::by_name("figure1").unwrap().text();
    let session = Session::new();
    let request = AnalysisRequest::new(text.clone()).config(deterministic(1));
    assert!(!session.analyze(&request).unwrap().cache_hit);
    assert!(session.analyze(&request).unwrap().cache_hit);
    assert!(session.evict(&text));
    assert!(!session.evict(&text), "second evict finds nothing");
    assert!(
        !session.analyze(&request).unwrap().cache_hit,
        "the evicted engine is rebuilt, not re-served"
    );
}

/// The serve loop's two supervision tiers, end to end, for both report
/// ops. A one-shot fault in a conflict slot is healed by the slot retry:
/// the response reports `retried_slots:1`, no internal fault (`analyze`'s
/// `internal_count:0`, `explain`'s `classification.internal:0`), and a
/// report byte-identical to a clean run of the same op. A one-shot
/// whole-request panic (the `serve.request` probe) is healed by the
/// evict-and-rerun tier: same clean outcome, no error response ever
/// emitted.
#[test]
fn serve_supervision_heals_one_shot_faults() {
    use lalrcex::api::json::{self, Json};
    use lalrcex::service::{serve, ServeOptions};
    use std::io::Cursor;

    let text = lalrcex::corpus::by_name("figure1").unwrap().text();
    for op in ["analyze", "explain"] {
        let request = format!(
            r#"{{"op":"{op}","id":"a","grammar":{},"file":"figure1.y"}}"#,
            Json::str(&text)
        );
        let run_one = |plan: FaultPlan| -> Json {
            let _guard = install(plan);
            let input = format!("{}\n{}\n", request, r#"{"op":"shutdown","id":"z"}"#);
            let mut out = Vec::new();
            let summary = serve(
                Cursor::new(input.into_bytes()),
                &mut out,
                &ServeOptions {
                    workers: 1,
                    ..ServeOptions::default()
                },
            );
            assert!(summary.shutdown);
            assert_eq!(summary.errors, 0, "{op}: supervision never leaks an error");
            String::from_utf8(out)
                .unwrap()
                .lines()
                .map(|l| json::parse(l).expect("valid response lines"))
                .find(|r| r.get("id").and_then(Json::as_str) == Some("a"))
                .expect("report response")
        };
        // The op's own count of internal faults.
        let internal = |r: &Json| match op {
            "analyze" => r.get("internal_count").and_then(Json::as_u64),
            _ => r
                .get("classification")
                .and_then(|c| c.get("internal"))
                .and_then(Json::as_u64),
        };

        let clean = run_one(FaultPlan::new());
        let report = |r: &Json| r.get("report").unwrap().to_string();
        assert_eq!(internal(&clean), Some(0), "{op}: clean run");

        // Tier 1: slot retry.
        let slot = run_one(FaultPlan::new().trigger(0, "unify.expand", 1, FaultAction::Panic));
        assert_eq!(slot.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(slot.get("op").and_then(Json::as_str), Some(op));
        assert_eq!(slot.get("retried_slots").and_then(Json::as_u64), Some(1));
        assert_eq!(
            internal(&slot),
            Some(0),
            "{op}: the retried slot reports Completed, not Internal"
        );
        assert_eq!(
            report(&slot),
            report(&clean),
            "{op}: healed run is byte-identical"
        );

        // Tier 2: whole-request evict-and-rerun.
        let whole =
            run_one(FaultPlan::new().trigger(NO_SCOPE, "serve.request", 1, FaultAction::Panic));
        assert_eq!(whole.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(internal(&whole), Some(0));
        assert_eq!(
            report(&whole),
            report(&clean),
            "{op}: the evicted engine rebuilds and the re-run matches clean"
        );
    }
}
