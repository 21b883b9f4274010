//! Deterministic fault injection for the chaos suite.
//!
//! Named probe points — `fail_point!("spine.expand")` — are compiled into
//! the engine's hot paths. Without the `failpoints` cargo feature they
//! expand to nothing; with it, each probe consults the installed
//! `FaultPlan`, which fires a `FaultAction` at the Nth hit of a probe
//! *within a scope* (the conflict slot the engine tags around each
//! per-conflict unit of work).
//!
//! Scoping per conflict is what makes chaos runs reproducible across
//! worker counts: each conflict's diagnosis is single-threaded and
//! deterministic, so its probe hit counts are identical whether one worker
//! or eight are running — a plan that panics at hit 3 of `unify.expand` in
//! conflict 2 panics at exactly the same configuration pop either way.
//!
//! Plans are installed process-globally; `install` returns a guard that
//! holds a lock for the duration, serializing chaos tests against each
//! other, and clears the plan on drop.

#[cfg(feature = "failpoints")]
mod imp {
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The scope value when no scope is set ("match any-scope triggers
    /// only").
    pub const NO_SCOPE: u64 = u64::MAX;

    /// What a fired probe does.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FaultAction {
        /// Panic at the probe site (exercises containment).
        Panic,
        /// Zero out the remaining budget (the search ends `TimedOut`).
        BudgetZero,
        /// Jump the clock past the deadline (the search ends `TimedOut`).
        ClockJump,
    }

    impl FaultAction {
        fn parse(s: &str) -> Option<FaultAction> {
            match s {
                "panic" => Some(FaultAction::Panic),
                "budget" => Some(FaultAction::BudgetZero),
                "clock" => Some(FaultAction::ClockJump),
                _ => None,
            }
        }
    }

    /// One trigger: fire `action` at the `at`-th hit (1-based) of `probe`
    /// within `scope`.
    #[derive(Clone, Debug)]
    struct Trigger {
        scope: u64,
        probe: String,
        at: u64,
        action: FaultAction,
    }

    /// A deterministic fault schedule.
    #[derive(Clone, Debug, Default)]
    pub struct FaultPlan {
        triggers: Vec<Trigger>,
    }

    impl FaultPlan {
        /// An empty plan (no probe ever fires).
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Adds a trigger: `action` at the `at`-th (1-based) hit of
        /// `probe` inside `scope` (the engine scopes per conflict slot).
        pub fn trigger(
            mut self,
            scope: u64,
            probe: &str,
            at: u64,
            action: FaultAction,
        ) -> FaultPlan {
            self.triggers.push(Trigger {
                scope,
                probe: probe.to_owned(),
                at: at.max(1),
                action,
            });
            self
        }

        /// A PRNG-seeded plan: picks one trigger over `scopes` conflict
        /// slots and the given probes, with a random action and hit index
        /// in `1..=max_hit`. Same seed, same plan — the chaos property
        /// suite sweeps seeds.
        pub fn seeded(seed: u64, scopes: u64, probes: &[&str], max_hit: u64) -> FaultPlan {
            let mut s = seed.wrapping_mul(2).wrapping_add(1); // nonzero
                                                              // xorshift64* — same generator as the repo's test PRNG.
            let mut next = move || {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                s.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            let scope = next() % scopes.max(1);
            let probe = probes[(next() % probes.len().max(1) as u64) as usize];
            let at = 1 + next() % max_hit.max(1);
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::BudgetZero,
                _ => FaultAction::ClockJump,
            };
            FaultPlan::new().trigger(scope, probe, at, action)
        }

        /// Parses a plan from the `SCOPE:PROBE:NTH:ACTION[;...]` format of
        /// the `LALRCEX_FAULT_PLAN` environment variable, where `ACTION`
        /// is `panic`, `budget`, or `clock` and `SCOPE` may be `*`.
        pub fn parse(spec: &str) -> Result<FaultPlan, String> {
            let mut plan = FaultPlan::new();
            for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
                let fields: Vec<&str> = part.trim().split(':').collect();
                let [scope, probe, nth, action] = fields[..] else {
                    return Err(format!(
                        "bad fault trigger `{part}`: want SCOPE:PROBE:NTH:ACTION"
                    ));
                };
                let scope = if scope == "*" {
                    NO_SCOPE
                } else {
                    scope
                        .parse::<u64>()
                        .map_err(|_| format!("bad fault scope `{scope}`"))?
                };
                let nth = nth
                    .parse::<u64>()
                    .map_err(|_| format!("bad fault hit index `{nth}`"))?;
                let action = FaultAction::parse(action)
                    .ok_or_else(|| format!("bad fault action `{action}` (panic|budget|clock)"))?;
                plan = plan.trigger(scope, probe, nth, action);
            }
            Ok(plan)
        }
    }

    struct Active {
        plan: FaultPlan,
        hits: HashMap<(u64, String), u64>,
    }

    fn active() -> &'static Mutex<Option<Active>> {
        static ACTIVE: OnceLock<Mutex<Option<Active>>> = OnceLock::new();
        ACTIVE.get_or_init(|| Mutex::new(None))
    }

    /// Serializes plan installations (two chaos tests can't overlap).
    fn install_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// Keeps a [`FaultPlan`] installed; uninstalls (and releases the
    /// serialization lock) on drop.
    pub struct FaultGuard {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *active().lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Installs `plan` process-globally, serializing against other
    /// installs. Hit counters start at zero.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        let lock = install_lock()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *active().lock().unwrap_or_else(PoisonError::into_inner) = Some(Active {
            plan,
            hits: HashMap::new(),
        });
        FaultGuard { _lock: lock }
    }

    /// Installs the plan described by `LALRCEX_FAULT_PLAN`, if set (the
    /// CLI calls this when built with `--features failpoints`). An
    /// unparsable plan aborts loudly — a chaos harness with a typo must
    /// not silently run clean.
    pub fn install_from_env() -> Option<FaultGuard> {
        let spec = std::env::var("LALRCEX_FAULT_PLAN").ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(install(plan)),
            Err(e) => {
                eprintln!("lalrcex: LALRCEX_FAULT_PLAN: {e}");
                std::process::exit(2);
            }
        }
    }

    thread_local! {
        static SCOPE: Cell<u64> = const { Cell::new(NO_SCOPE) };
    }

    /// Runs `f` with the current thread's probe scope set to `scope` (the
    /// engine passes the conflict slot index).
    pub fn with_scope<T>(scope: u64, f: impl FnOnce() -> T) -> T {
        SCOPE.with(|s| {
            let prev = s.replace(scope);
            // Restore on unwind too: injected panics must not leak scope.
            struct Restore<'a>(&'a Cell<u64>, u64);
            impl Drop for Restore<'_> {
                fn drop(&mut self) {
                    self.0.set(self.1);
                }
            }
            let _restore = Restore(s, prev);
            f()
        })
    }

    /// The current thread's probe scope.
    pub fn current_scope() -> u64 {
        SCOPE.with(Cell::get)
    }

    /// Records a hit of `probe` in the current scope and returns the
    /// action to perform if a trigger fires on exactly this hit.
    pub fn hit(probe: &str) -> Option<FaultAction> {
        let scope = current_scope();
        let mut guard = active().lock().unwrap_or_else(PoisonError::into_inner);
        let state = guard.as_mut()?;
        let count = state
            .hits
            .entry((scope, probe.to_owned()))
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let count = *count;
        state
            .plan
            .triggers
            .iter()
            .find(|t| {
                (t.scope == scope || t.scope == NO_SCOPE) && t.probe == probe && t.at == count
            })
            .map(|t| t.action)
    }

    /// [`hit`] that immediately panics on [`FaultAction::Panic`] — the
    /// body of the `fail_point!` macro. Non-panic actions are ignored at
    /// panic-only probe sites.
    pub fn panic_hit(probe: &str) {
        if hit(probe) == Some(FaultAction::Panic) {
            panic!("failpoint `{probe}` injected panic");
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::*;

/// No-op scope wrapper when the `failpoints` feature is off: call sites
/// (the engine's per-conflict fan-out, the lint probe loop) tag scopes
/// unconditionally and pay nothing in production builds.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn with_scope<T>(_scope: u64, f: impl FnOnce() -> T) -> T {
    f()
}

/// A named fault-injection probe. Expands to nothing unless the
/// `failpoints` cargo feature is enabled; with it, consults the installed
/// `FaultPlan` and panics if a `Panic` trigger fires at this hit. Probe
/// sites that can honor non-panic actions (budget-zero, clock-jump) call
/// `crate::faultpoint::hit` directly.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        #[cfg(feature = "failpoints")]
        $crate::faultpoint::panic_hit($name);
    };
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn nth_hit_fires_in_matching_scope_only() {
        let _guard = install(FaultPlan::new().trigger(7, "p", 2, FaultAction::Panic));
        assert_eq!(hit("p"), None, "unscoped hit 1");
        with_scope(7, || {
            assert_eq!(hit("p"), None, "scope-7 hit 1");
            assert_eq!(hit("p"), Some(FaultAction::Panic), "scope-7 hit 2 fires");
            assert_eq!(hit("p"), None, "fires exactly once");
        });
        assert_eq!(hit("q"), None, "other probes silent");
    }

    #[test]
    fn wildcard_scope_matches_everywhere() {
        let _guard = install(FaultPlan::new().trigger(NO_SCOPE, "w", 1, FaultAction::BudgetZero));
        with_scope(3, || assert_eq!(hit("w"), Some(FaultAction::BudgetZero)));
    }

    /// The probe names are ones no engine code hits: engine unit tests
    /// running alongside would otherwise add hits to the same counters
    /// (and could take the injected panic).
    #[test]
    fn parse_round_trips_env_format() {
        let plan = FaultPlan::parse("1:test.scoped:3:panic; *:test.any:1:clock").unwrap();
        let _guard = install(plan);
        with_scope(1, || {
            assert_eq!(hit("test.scoped"), None);
            assert_eq!(hit("test.scoped"), None);
            assert_eq!(hit("test.scoped"), Some(FaultAction::Panic));
        });
        assert_eq!(hit("test.any"), Some(FaultAction::ClockJump));
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("1:p:x:panic").is_err());
        assert!(FaultPlan::parse("1:p:1:explode").is_err());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let probes = ["a", "b"];
        let p1 = format!("{:?}", FaultPlan::seeded(42, 5, &probes, 10));
        let p2 = format!("{:?}", FaultPlan::seeded(42, 5, &probes, 10));
        assert_eq!(p1, p2);
    }

    #[test]
    fn scope_restored_on_unwind() {
        let _guard = install(FaultPlan::new().trigger(2, "boom", 1, FaultAction::Panic));
        let r = std::panic::catch_unwind(|| with_scope(2, || panic_hit("boom")));
        assert!(r.is_err());
        assert_eq!(current_scope(), NO_SCOPE);
    }
}
