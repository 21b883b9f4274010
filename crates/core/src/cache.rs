//! The grammar-keyed engine cache.
//!
//! The engine's precomputation — LALR automaton, resolved tables, the
//! lazily built state-item graph, the spine, provenance, lint-probe and
//! verdict memos — is pure in the grammar text, so a long-lived process (the
//! `lalrcex serve` service, the `batch` driver, or any embedder using
//! [`crate::Engine`] repeatedly) can key
//! built engines by a content hash of the text and skip construction
//! entirely when the same grammar comes back: the interactive edit /
//! re-run / read loop the paper frames (§1), where a reverted edit or a
//! repeated query would otherwise pay the full automaton build again.
//!
//! Each entry is a [`CachedEngine`]: an engine that owns the grammar it
//! parsed ([`Engine::try_new`]) next to the text it was parsed from, so an
//! entry is one self-contained value that borrows nothing.
//!
//! [`EngineCache`] is an LRU keyed by a 64-bit FNV-1a hash of the grammar
//! text (entries also keep the text itself, so a hash collision is
//! detected and treated as an eviction, never a wrong answer). Eviction is
//! *byte-budget-aware*: every entry is charged
//! [`Engine::estimated_bytes`] — re-sampled on each hit, because the memos
//! grow as conflicts are analyzed and lints probed, and the state-item
//! graph is built on first use — and the least-recently-used
//! entries are dropped until the total fits the budget. The most recently
//! touched entry is never evicted, so one grammar larger than the whole
//! budget still caches (and simply pins the cache to itself).
//!
//! The cache is also *scan-resistant*: an entry is marked reused on its
//! first hit, and at most [`MAX_UNREUSED`] entries that were never hit stay
//! resident — inserting one more evicts the least recently used of them
//! (each counted as an eviction). A stream of one-shot grammars therefore
//! displaces only other one-shots, never the reused working set, and
//! cannot park hundreds of MiB of never-reused engines under a generous
//! byte budget. The bound needs no option: it counts entries, not bytes,
//! so it cannot thrash a working set whose entries outgrow a byte share.
//!
//! Concurrency: the cache's lock covers only lookup, insertion, and
//! accounting. Engines are handed out as `Arc<CachedEngine>`, so two
//! requests analyzing different grammars run fully in parallel, and an
//! entry evicted while another thread still holds it stays alive until the
//! last holder drops.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use lalrcex_grammar::{Grammar, GrammarError};

use crate::engine::Engine;
use crate::error::EngineError;
use crate::stats::PrecomputeTimes;

/// How many never-hit entries may stay resident (see the module docs).
pub const MAX_UNREUSED: usize = 32;

/// The byte budget in MiB that every front end's cache starts from: a new
/// `Session`, `lalrcex serve` and `lalrcex batch`.
pub const DEFAULT_BUDGET_MB: usize = 256;

/// 64-bit FNV-1a over the grammar text: the cache key.
pub fn content_hash(text: &str) -> u64 {
    tagged_hash(0, text)
}

/// The cache key for a grammar behind a non-default frontend: FNV-1a with
/// the frontend tag folded in before the text. Tag `0` is the default
/// frontend and hashes identically to [`content_hash`], so existing keys
/// (and key-exposing surfaces like `entry_stats`) are unchanged; any other
/// tag salts the stream, keeping byte-identical texts parsed by different
/// frontends apart. A cross-tag hash collision is handled like any other:
/// entries are verified against (tag, full text) before being served.
pub fn tagged_hash(tag: u8, text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    if tag != 0 {
        h ^= u64::from(tag);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An engine that owns the grammar it was built from, together with the
/// text that grammar was parsed from, as one shareable unit (the cache's
/// value type).
pub struct CachedEngine {
    engine: Engine<'static>,
    text: Box<str>,
}

impl fmt::Debug for CachedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedEngine")
            .field("text_bytes", &self.text.len())
            .field("states", &self.engine.automaton().state_count())
            .finish()
    }
}

impl CachedEngine {
    /// Parses `text` and builds an engine owning the parsed grammar, with
    /// the precomputation contained (a panic while building reports as a
    /// structured [`EngineError`] instead of unwinding).
    pub fn build(text: &str) -> Result<CachedEngine, BuildError> {
        CachedEngine::build_with(text, Grammar::parse)
    }

    /// [`CachedEngine::build`] with a caller-chosen grammar frontend: any
    /// pure `text -> Grammar` parse (the yacc frontend, a test stub). The
    /// cache's purity argument only needs the *pairing* of text and engine
    /// to be consistent, which holding the parse output next to its input
    /// text preserves for any deterministic `parse`.
    pub fn build_with(
        text: &str,
        parse: impl FnOnce(&str) -> Result<Grammar, GrammarError>,
    ) -> Result<CachedEngine, BuildError> {
        Ok(CachedEngine {
            engine: Engine::try_new(parse(text)?)?,
            text: text.into(),
        })
    }

    /// The engine, with its lifetime narrowed to this borrow.
    pub fn engine(&self) -> &Engine<'_> {
        &self.engine
    }

    /// The parsed grammar (owned by the engine).
    pub fn grammar(&self) -> &Grammar {
        self.engine.grammar()
    }

    /// The exact text this entry was built from.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Why a cache lookup could not produce an engine.
#[derive(Debug)]
pub enum BuildError {
    /// The grammar text did not parse.
    Grammar(GrammarError),
    /// Building the engine faulted (contained).
    Engine(EngineError),
}

impl From<GrammarError> for BuildError {
    fn from(e: GrammarError) -> BuildError {
        BuildError::Grammar(e)
    }
}

impl From<EngineError> for BuildError {
    fn from(e: EngineError) -> BuildError {
        BuildError::Engine(e)
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Grammar(e) => write!(f, "{e}"),
            BuildError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A point-in-time snapshot of the cache's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a cached engine.
    pub hits: u64,
    /// Lookups that had to build the engine.
    pub misses: u64,
    /// Entries dropped to fit the byte budget (or displaced by a hash
    /// collision).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes charged to resident entries.
    pub live_bytes: usize,
    /// The configured byte budget (`usize::MAX` = unlimited).
    pub budget_bytes: usize,
}

/// A per-entry byte breakdown, re-sampled at snapshot time (see
/// [`EngineCache::entry_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntryStats {
    /// The content hash keying the entry.
    pub key: u64,
    /// Bytes of grammar text the entry was built from.
    pub text_bytes: usize,
    /// The entry's total charge: [`Engine::estimated_bytes`], freshly
    /// re-sampled (spine memo *and* provenance tables grow after build).
    pub bytes: usize,
    /// The provenance share of `bytes` (`0` until the entry's first
    /// `explain`).
    pub provenance_bytes: usize,
    /// The time the entry's engine took to build, per layer.
    pub precompute: PrecomputeTimes,
}

struct Entry {
    engine: Arc<CachedEngine>,
    /// The frontend tag the entry was built under (0 = default/DSL):
    /// verified on every hit alongside the full text, so two frontends
    /// interpreting byte-identical text never serve each other's engines.
    tag: u8,
    bytes: usize,
    last_used: u64,
    /// Set on the entry's first hit; never-reused entries are bounded
    /// by [`MAX_UNREUSED`].
    reused: bool,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    live_bytes: usize,
}

/// A grammar-content-hash-keyed LRU of built [`Engine`]s with
/// byte-budget-aware eviction. See the module docs for the policy.
pub struct EngineCache {
    budget: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EngineCache {
    /// A cache that evicts past `budget` estimated bytes
    /// (`usize::MAX` = never evict).
    pub fn with_budget_bytes(budget: usize) -> EngineCache {
        EngineCache {
            budget,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                live_bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with a budget in mebibytes (`0` = unlimited).
    pub fn with_budget_mb(mb: usize) -> EngineCache {
        if mb == 0 {
            EngineCache::with_budget_bytes(usize::MAX)
        } else {
            EngineCache::with_budget_bytes(mb.saturating_mul(1 << 20))
        }
    }

    /// The engine for `text`: served from the cache when the same text was
    /// seen before, built (and inserted) otherwise. The boolean is `true`
    /// on a cache hit.
    pub fn get_or_build(&self, text: &str) -> Result<(Arc<CachedEngine>, bool), BuildError> {
        self.get_or_build_with(0, text, Grammar::parse)
    }

    /// [`EngineCache::get_or_build`] under a caller-chosen grammar
    /// frontend. `tag` names the frontend (0 = default/DSL; the facade
    /// assigns the others) and both salts the cache key and is verified on
    /// hits, so the cache stays correct even when two frontends could
    /// parse the same bytes differently. `parse` must be a pure function
    /// of `text` for the given tag — the same contract [`Grammar::parse`]
    /// already satisfies.
    pub fn get_or_build_with(
        &self,
        tag: u8,
        text: &str,
        parse: impl FnOnce(&str) -> Result<Grammar, GrammarError>,
    ) -> Result<(Arc<CachedEngine>, bool), BuildError> {
        let key = tagged_hash(tag, text);
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                if e.tag == tag && e.engine.text() == text {
                    e.last_used = tick;
                    e.reused = true;
                    let engine = Arc::clone(&e.engine);
                    // The memos grow as conflicts are analyzed and lints
                    // probed: re-sample the entry's charge so eviction
                    // decisions see the real footprint.
                    let bytes = engine.engine().estimated_bytes();
                    let old = e.bytes;
                    e.bytes = bytes;
                    inner.live_bytes = inner.live_bytes - old + bytes;
                    self.evict_over_budget(&mut inner, key);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((engine, true));
                }
                // Hash collision with different text: the newcomer wins the
                // slot (counted as an eviction); correctness is preserved
                // because entries are verified against the full text.
                let old = inner.map.remove(&key).map(|e| e.bytes).unwrap_or_default();
                inner.live_bytes -= old;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Build outside the lock: a slow automaton construction must not
        // serialize unrelated lookups. Two racing builders of the same text
        // duplicate work; whichever inserts last wins the slot (both
        // engines are valid, being pure functions of the text).
        let engine = Arc::new(CachedEngine::build_with(text, parse)?);
        let bytes = engine.engine().estimated_bytes();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(displaced) = inner.map.insert(
            key,
            Entry {
                engine: Arc::clone(&engine),
                tag,
                bytes,
                last_used: tick,
                reused: false,
            },
        ) {
            inner.live_bytes -= displaced.bytes;
        }
        inner.live_bytes += bytes;
        self.evict_unreused(&mut inner, key);
        self.evict_over_budget(&mut inner, key);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((engine, false))
    }

    /// Drops the least recently used never-hit entries until at most
    /// [`MAX_UNREUSED`] remain. `keep` (the entry just inserted) counts
    /// toward the bound but is never evicted.
    fn evict_unreused(&self, inner: &mut Inner, keep: u64) {
        let mut unreused: Vec<(u64, u64)> = inner
            .map
            .iter()
            .filter(|(k, e)| !e.reused && **k != keep)
            .map(|(k, e)| (e.last_used, *k))
            .collect();
        let excess = (unreused.len() + 1).saturating_sub(MAX_UNREUSED);
        if excess == 0 {
            return;
        }
        unreused.sort_unstable();
        for &(_, victim) in &unreused[..excess] {
            if let Some(e) = inner.map.remove(&victim) {
                inner.live_bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops least-recently-used entries until the charged total fits the
    /// budget. `keep` (the entry just touched) is never evicted, so a
    /// single over-budget grammar still caches.
    fn evict_over_budget(&self, inner: &mut Inner, keep: u64) {
        while inner.live_bytes > self.budget && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.map.remove(&victim) {
                inner.live_bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops the entry for exactly `text`, if resident, counting it as
    /// an eviction. Returns `true` when an entry was dropped.
    ///
    /// This is the fault-retry supervision hook: when a contained fault
    /// hit an entry's precomputation or lazily built state, the entry may
    /// be poisoned, and evicting it guarantees the retry rebuilds from
    /// scratch instead of re-serving the same engine. Holders of the
    /// `Arc` keep the evicted engine alive until they drop, as with any
    /// eviction.
    pub fn evict_text(&self, text: &str) -> bool {
        self.evict_text_with(0, text)
    }

    /// [`EngineCache::evict_text`] under a frontend tag: only the entry
    /// built from exactly (`tag`, `text`) is dropped.
    pub fn evict_text_with(&self, tag: u8, text: &str) -> bool {
        let key = tagged_hash(tag, text);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get(&key) {
            Some(e) if e.tag == tag && e.engine.text() == text => {}
            _ => return false,
        }
        if let Some(e) = inner.map.remove(&key) {
            inner.live_bytes -= e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// A point-in-time snapshot of the counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            live_bytes: inner.live_bytes,
            budget_bytes: self.budget,
        }
    }

    /// Per-entry byte breakdowns, most recently used first.
    ///
    /// Each entry's charge is re-sampled (the spine memo and the lazily
    /// built provenance tables both grow after construction), so the
    /// cache's accounting — and any later eviction decision — reflects the
    /// entries' real footprints, not their build-time estimates.
    pub fn entry_stats(&self) -> Vec<CacheEntryStats> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(inner.map.len());
        let mut live = inner.live_bytes;
        for (key, e) in &mut inner.map {
            let bytes = e.engine.engine().estimated_bytes();
            live = live - e.bytes + bytes;
            e.bytes = bytes;
            out.push((
                e.last_used,
                CacheEntryStats {
                    key: *key,
                    text_bytes: e.engine.text().len(),
                    bytes,
                    provenance_bytes: e.engine.engine().provenance_bytes(),
                    precompute: e.engine.engine().precompute_times(),
                },
            ));
        }
        inner.live_bytes = live;
        out.sort_by_key(|e| std::cmp::Reverse(e.0));
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
        inner.live_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{format_report, CexConfig};

    const FIG1: &str = "%start stmt
        %%
        stmt : 'if' expr 'then' stmt 'else' stmt
             | 'if' expr 'then' stmt
             ;
        expr : ID ;";
    const EXPR: &str = "%% e : e '+' e | NUM ;";
    const EXPR2: &str = "%% e : e '*' e | NUM ;";

    #[test]
    fn second_lookup_hits_and_shares_the_engine() {
        let cache = EngineCache::with_budget_mb(64);
        let (a, hit_a) = cache.get_or_build(FIG1).unwrap();
        let (b, hit_b) = cache.get_or_build(FIG1).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "one shared engine");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.live_bytes > 0);
    }

    #[test]
    fn cached_engine_analyzes_like_a_fresh_one() {
        // The cached engine owns its grammar; the fresh one borrows it.
        let cache = EngineCache::with_budget_mb(64);
        for text in [FIG1, EXPR] {
            let (cached, _) = cache.get_or_build(text).unwrap();
            let owned = cached.engine().analyze_all(&CexConfig::default());
            let g = Grammar::parse(text).unwrap();
            let borrowed = Engine::new(&g).analyze_all(&CexConfig::default());
            assert_eq!(owned.unifying_count(), borrowed.unifying_count());
            assert_eq!(owned.reports.len(), borrowed.reports.len());
            assert!(!owned.reports.is_empty(), "{text} has conflicts");
            for (a, b) in owned.reports.iter().zip(&borrowed.reports) {
                assert_eq!(
                    format_report(cached.grammar(), a),
                    format_report(&g, b),
                    "{text}: byte-identical report"
                );
            }
        }
    }

    #[test]
    fn parse_errors_surface_and_cache_nothing() {
        let cache = EngineCache::with_budget_mb(64);
        let err = cache.get_or_build("%% totally not a grammar").unwrap_err();
        assert!(matches!(err, BuildError::Grammar(_)));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0, "failed builds are not misses");
    }

    #[test]
    fn tiny_budget_evicts_lru_but_keeps_newest() {
        // Budget of one byte: any second entry forces the first out.
        let cache = EngineCache::with_budget_bytes(1);
        cache.get_or_build(EXPR).unwrap();
        assert_eq!(cache.stats().entries, 1, "sole entry is never evicted");
        cache.get_or_build(EXPR2).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        // The evicted grammar rebuilds: a miss, not a hit.
        let (_, hit) = cache.get_or_build(EXPR).unwrap();
        assert!(!hit);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = EngineCache::with_budget_bytes(usize::MAX);
        cache.get_or_build(EXPR).unwrap();
        cache.get_or_build(EXPR2).unwrap();
        cache.get_or_build(EXPR).unwrap(); // EXPR is now more recent
        let fig_bytes = {
            let (e, _) = cache.get_or_build(FIG1).unwrap();
            e.engine().estimated_bytes()
        };
        // Shrink-wrap a fresh cache: budget fits all three minus one, so
        // inserting the third evicts exactly the stalest (EXPR2).
        let (a, _) = cache.get_or_build(EXPR).unwrap();
        let (b, _) = cache.get_or_build(EXPR2).unwrap();
        let budget = a.engine().estimated_bytes() + b.engine().estimated_bytes() + fig_bytes
            - b.engine().estimated_bytes() / 2;
        let tight = EngineCache::with_budget_bytes(budget);
        tight.get_or_build(EXPR).unwrap();
        tight.get_or_build(EXPR2).unwrap();
        tight.get_or_build(EXPR).unwrap();
        tight.get_or_build(FIG1).unwrap();
        let (_, expr_hit) = tight.get_or_build(EXPR).unwrap();
        assert!(expr_hit, "recently-used survives");
        let (_, expr2_hit) = tight.get_or_build(EXPR2).unwrap();
        assert!(!expr2_hit, "least-recently-used was evicted");
    }

    #[test]
    fn one_shot_scans_evict_only_one_shots_oldest_first() {
        let cache = EngineCache::with_budget_bytes(usize::MAX);
        let one_shot = |i: usize| format!("%% s : 't{i}' ;");
        cache.get_or_build(EXPR).unwrap();
        cache.get_or_build(EXPR).unwrap(); // EXPR is reused
        for i in 0..40 {
            cache.get_or_build(&one_shot(i)).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, MAX_UNREUSED + 1, "the one-shots plus EXPR");
        assert_eq!(s.evictions, (40 - MAX_UNREUSED) as u64);
        let (_, hit) = cache.get_or_build(EXPR).unwrap();
        assert!(hit, "the reused grammar survives the scan");
        for i in 40 - MAX_UNREUSED..40 {
            assert!(
                cache.evict_text(&one_shot(i)),
                "newest one-shot {i} resident"
            );
        }
        for i in 0..40 - MAX_UNREUSED {
            assert!(
                !cache.evict_text(&one_shot(i)),
                "oldest one-shot {i} evicted"
            );
        }
    }

    #[test]
    fn evicted_entry_stays_alive_for_holders() {
        let cache = EngineCache::with_budget_bytes(1);
        let (held, _) = cache.get_or_build(EXPR).unwrap();
        cache.get_or_build(EXPR2).unwrap(); // evicts EXPR
                                            // The Arc keeps the evicted engine (and its grammar) alive.
        assert_eq!(held.grammar().prod_count(), 3);
        assert!(held.engine().tables().conflicts().len() == 1);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = EngineCache::with_budget_mb(64);
        cache.get_or_build(EXPR).unwrap();
        cache.get_or_build(EXPR).unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.live_bytes, 0);
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn evict_text_drops_exactly_one_entry() {
        let cache = EngineCache::with_budget_mb(64);
        cache.get_or_build(EXPR).unwrap();
        cache.get_or_build(EXPR2).unwrap();
        assert!(!cache.evict_text(FIG1), "absent text evicts nothing");
        assert!(cache.evict_text(EXPR));
        assert!(!cache.evict_text(EXPR), "already gone");
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        // The survivor still hits; the evicted text rebuilds.
        let (_, hit2) = cache.get_or_build(EXPR2).unwrap();
        assert!(hit2);
        let (_, hit) = cache.get_or_build(EXPR).unwrap();
        assert!(!hit, "evicted entry rebuilds from scratch");
    }

    #[test]
    fn content_hash_is_stable_and_text_sensitive() {
        assert_eq!(content_hash("abc"), content_hash("abc"));
        assert_ne!(content_hash("abc"), content_hash("abd"));
    }

    #[test]
    fn tag_zero_hashes_identically_to_content_hash() {
        assert_eq!(tagged_hash(0, EXPR), content_hash(EXPR));
        assert_ne!(tagged_hash(1, EXPR), content_hash(EXPR));
        assert_ne!(tagged_hash(1, EXPR), tagged_hash(2, EXPR));
    }

    #[test]
    fn same_text_under_different_tags_coexists() {
        let cache = EngineCache::with_budget_mb(64);
        let (a, hit_a) = cache.get_or_build_with(0, EXPR, Grammar::parse).unwrap();
        let (b, hit_b) = cache.get_or_build_with(7, EXPR, Grammar::parse).unwrap();
        assert!(!hit_a && !hit_b, "different tags never share an entry");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
        // Each tag hits its own entry on the way back.
        let (a2, hit_a2) = cache.get_or_build_with(0, EXPR, Grammar::parse).unwrap();
        let (b2, hit_b2) = cache.get_or_build_with(7, EXPR, Grammar::parse).unwrap();
        assert!(hit_a2 && hit_b2);
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(Arc::ptr_eq(&b, &b2));
    }

    #[test]
    fn evict_by_tag_leaves_the_other_frontend_warm() {
        let cache = EngineCache::with_budget_mb(64);
        cache.get_or_build_with(0, EXPR, Grammar::parse).unwrap();
        cache.get_or_build_with(7, EXPR, Grammar::parse).unwrap();
        assert!(!cache.evict_text_with(3, EXPR), "absent tag evicts nothing");
        assert!(cache.evict_text_with(7, EXPR));
        let (_, dsl_hit) = cache.get_or_build_with(0, EXPR, Grammar::parse).unwrap();
        assert!(dsl_hit, "tag-0 entry untouched");
        let (_, yacc_hit) = cache.get_or_build_with(7, EXPR, Grammar::parse).unwrap();
        assert!(!yacc_hit, "tagged entry rebuilds after its eviction");
    }

    #[test]
    fn build_with_uses_the_caller_frontend() {
        // A stub frontend that ignores the text entirely: the cache must
        // pair the engine with the *stub's* output, not `Grammar::parse`.
        let stub = |_: &str| Grammar::parse(FIG1);
        let cache = EngineCache::with_budget_mb(64);
        let (e, _) = cache.get_or_build_with(9, "unparseable ! @", stub).unwrap();
        assert!(e.grammar().symbol_named("stmt").is_some());
        assert_eq!(e.text(), "unparseable ! @");
    }
}
