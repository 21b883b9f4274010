//! Integration tests for the JSON-Lines analysis service (protocol v1).
//!
//! The harness wires `lalrcex::service::serve` to an in-memory channel
//! reader and a shared output buffer, so tests can pace requests — send
//! one, wait for its response, send the next — and exercise genuinely
//! in-flight behavior (cancellation, duplicate ids) that a pre-canned
//! input script cannot reach.

use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lalrcex::api::json::{self, Json};
use lalrcex::service::{serve, ServeOptions, ServeSummary};

/// A `BufRead` fed by an mpsc channel: `fill_buf` blocks until the test
/// sends another chunk, and reports EOF when the sender is dropped.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => {
                    self.buf.clear();
                    self.pos = 0;
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

#[derive(Clone)]
struct SharedWriter(Arc<Mutex<Vec<u8>>>);

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A serve loop running on its own thread, driven by the test.
struct Harness {
    tx: Option<Sender<Vec<u8>>>,
    out: Arc<Mutex<Vec<u8>>>,
    join: std::thread::JoinHandle<ServeSummary>,
}

impl Harness {
    fn start(opts: ServeOptions) -> Harness {
        let (tx, rx) = std::sync::mpsc::channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        let writer = SharedWriter(Arc::clone(&out));
        let join = std::thread::spawn(move || {
            let reader = ChannelReader {
                rx,
                buf: Vec::new(),
                pos: 0,
            };
            serve(reader, writer, &opts)
        });
        Harness {
            tx: Some(tx),
            out,
            join,
        }
    }

    fn send(&self, line: &str) {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.tx.as_ref().unwrap().send(bytes).unwrap();
    }

    /// The complete response lines written so far, parsed.
    fn responses(&self) -> Vec<Json> {
        let out = self.out.lock().unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        text.lines()
            .map(|l| json::parse(l).expect("every response line is valid JSON"))
            .collect()
    }

    /// Blocks until `n` response lines have been written.
    fn wait_responses(&self, n: usize) -> Vec<Json> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let rs = self.responses();
            if rs.len() >= n {
                return rs;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {n} responses; have {}",
                rs.len()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Drops the sender (EOF) and joins the serve loop.
    fn finish(mut self) -> (Vec<Json>, ServeSummary) {
        drop(self.tx.take());
        let summary = self.join.join().expect("serve loop must not panic");
        let out = self.out.lock().unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        let responses = text
            .lines()
            .map(|l| json::parse(l).expect("every response line is valid JSON"))
            .collect();
        (responses, summary)
    }
}

fn corpus_text(name: &str) -> String {
    lalrcex::corpus::by_name(name)
        .expect("corpus entry")
        .text()
        .to_owned()
}

fn analyze_line(id: &str, grammar: &str, extra: &str) -> String {
    let g = Json::str(grammar).to_string();
    format!(r#"{{"op":"analyze","id":"{id}","grammar":{g},"file":"g.y"{extra}}}"#)
}

fn by_id<'a>(responses: &'a [Json], id: &str) -> &'a Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id}"))
}

/// A ~400-production chain grammar (conflict-free, so analysis is pure
/// engine construction) with a salt in its terminal names, for filling the
/// engine cache with distinct multi-hundred-KB entries.
fn big_grammar(salt: u32) -> String {
    let n = 400;
    let mut s = String::from("%%\ns : p0 ;\n");
    for i in 0..n {
        let tail = if i + 1 < n {
            format!("'a' p{}", i + 1)
        } else {
            "'z'".to_owned()
        };
        s.push_str(&format!("p{i} : 's{salt}t{i}' | {tail} ;\n"));
    }
    s
}

#[test]
fn malformed_and_oversized_lines_answer_structurally() {
    let h = Harness::start(ServeOptions {
        max_line_bytes: 128,
        ..ServeOptions::default()
    });
    h.send("this is not json");
    h.send(&format!(
        r#"{{"op":"stats","id":"pad","x":"{}"}}"#,
        "y".repeat(200)
    ));
    h.send(r#"{"op":"frobnicate","id":"u"}"#);
    h.send(r#"{"op":"analyze","id":"nog"}"#);
    h.send(r#"{"op":"stats","id":"s"}"#);
    let rs = h.wait_responses(5);
    let (_, summary) = {
        h.send(r#"{"op":"shutdown","id":"z"}"#);
        h.finish()
    };

    assert_eq!(rs[0].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        rs[0].get("id"),
        Some(&Json::Null),
        "unparsable line has no id"
    );
    let kind = |r: &Json| {
        r.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    assert_eq!(kind(&rs[0]).as_deref(), Some("protocol"));
    assert_eq!(kind(&rs[1]).as_deref(), Some("budget"), "oversized line");
    assert_eq!(rs[1].get("id"), Some(&Json::Null));
    assert_eq!(
        kind(by_id(&rs, "u")).as_deref(),
        Some("protocol"),
        "unknown op"
    );
    assert_eq!(
        kind(by_id(&rs, "nog")).as_deref(),
        Some("protocol"),
        "analyze without grammar"
    );
    assert_eq!(
        by_id(&rs, "s").get("ok").and_then(Json::as_bool),
        Some(true),
        "the loop keeps serving after every malformed line"
    );
    assert!(summary.shutdown);
    assert_eq!(summary.errors, 4);
}

/// Cold vs. warm cache, and workers=1 vs. workers=4: the embedded schema-v1
/// `report` document is byte-identical every time; only the envelope's
/// `cache` member distinguishes the runs.
#[test]
fn warm_cache_reports_are_byte_identical_across_worker_counts() {
    let text = corpus_text("figure1");
    let h = Harness::start(ServeOptions {
        workers: 4,
        ..ServeOptions::default()
    });
    h.send(&analyze_line("cold", &text, r#","workers":1"#));
    h.wait_responses(1);
    h.send(&analyze_line("warm", &text, r#","workers":4"#));
    h.wait_responses(2);
    // A version-1 client may still send the retired memory-limit member;
    // like any unknown member it is ignored.
    h.send(&analyze_line(
        "legacy",
        &text,
        r#","workers":4,"max_live_mb":1"#,
    ));
    h.wait_responses(3);
    h.send(r#"{"op":"stats","id":"s"}"#);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, _) = h.finish();

    let cold = by_id(&rs, "cold");
    let warm = by_id(&rs, "warm");
    assert_eq!(cold.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        warm.get("cache").and_then(Json::as_str),
        Some("hit"),
        "second analysis of identical text must reuse the cached engine"
    );
    let report = |r: &Json| r.get("report").unwrap().to_string();
    assert_eq!(
        report(cold),
        report(warm),
        "cold and warm reports must be byte-identical"
    );
    let legacy = by_id(&rs, "legacy");
    assert_eq!(legacy.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(legacy.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(
        report(cold),
        report(legacy),
        "an ignored retired member must not change the report"
    );
    let cache = by_id(&rs, "s").get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
}

/// Under a deliberately small `--cache-mb`, filling the cache with
/// distinct large grammars evicts in LRU order, and the `stats` op
/// surfaces the eviction count.
#[test]
fn small_cache_budget_evicts_lru() {
    let h = Harness::start(ServeOptions {
        cache_mb: 1,
        ..ServeOptions::default()
    });
    // Each engine is a few hundred KB (about 0.44 MB); five distinct ones
    // overflow 1 MiB about twice over.
    for (i, salt) in [1u32, 2, 3, 4, 5].iter().enumerate() {
        h.send(&analyze_line(&format!("g{salt}"), &big_grammar(*salt), ""));
        h.wait_responses(i + 1);
    }
    h.send(r#"{"op":"stats","id":"s"}"#);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, _) = h.finish();

    let cache = by_id(&rs, "s").get("cache").unwrap();
    let evictions = cache.get("evictions").and_then(Json::as_u64).unwrap();
    let entries = cache.get("entries").and_then(Json::as_u64).unwrap();
    assert!(evictions >= 1, "three large engines must overflow 1 MiB");
    assert!(entries < 3, "evicted entries leave the cache");
    // The most recent grammar is never evicted: re-analyzing it hits.
    let h2 = Harness::start(ServeOptions {
        cache_mb: 1,
        ..ServeOptions::default()
    });
    h2.send(&analyze_line("a", &big_grammar(7), ""));
    h2.wait_responses(1);
    h2.send(&analyze_line("b", &big_grammar(7), ""));
    h2.wait_responses(2);
    let (rs2, _) = h2.finish();
    assert_eq!(
        by_id(&rs2, "b").get("cache").and_then(Json::as_str),
        Some("hit"),
        "a single over-budget entry still serves warm hits"
    );
}

/// Under an unlimited budget, a stream of one-shot grammars keeps at most
/// `MAX_UNREUSED` never-hit engines resident, evicting the oldest first,
/// and never displaces a grammar that was hit.
#[test]
fn one_shot_grammars_cannot_flush_a_reused_entry() {
    use lalrcex::core::cache::MAX_UNREUSED;

    let h = Harness::start(ServeOptions {
        cache_mb: 0,
        ..ServeOptions::default()
    });
    let reused = corpus_text("figure1");
    let one_shot = |i: usize| format!("%% s : 't{i}' ;");
    let mut sent = 0;
    let mut send = |line: String| {
        h.send(&line);
        sent += 1;
        h.wait_responses(sent);
    };
    send(analyze_line("a1", &reused, ""));
    send(analyze_line("a2", &reused, ""));
    for i in 0..40 {
        send(analyze_line(&format!("n{i}"), &one_shot(i), ""));
    }
    send(r#"{"op":"stats","id":"s"}"#.to_owned());
    send(analyze_line("a3", &reused, ""));
    send(analyze_line("newest", &one_shot(39), ""));
    send(analyze_line("oldest", &one_shot(0), ""));
    let (rs, _) = h.finish();

    let cache = by_id(&rs, "s").get("cache").unwrap();
    let entries = cache.get("entries").and_then(Json::as_u64).unwrap();
    let evictions = cache.get("evictions").and_then(Json::as_u64).unwrap();
    assert_eq!(
        entries,
        MAX_UNREUSED as u64 + 1,
        "the one-shots plus figure1"
    );
    assert_eq!(evictions, 40 - MAX_UNREUSED as u64);
    let cache_of = |id| by_id(&rs, id).get("cache").and_then(Json::as_str);
    assert_eq!(cache_of("a3"), Some("hit"), "the reused grammar survives");
    assert_eq!(cache_of("newest"), Some("hit"), "recent one-shots stay");
    assert_eq!(cache_of("oldest"), Some("miss"), "the oldest went first");
}

/// `cancel` stops an in-flight analysis: the target's response arrives
/// with `cancelled:true` (and stub conflict entries), the cancel request
/// itself reports `found:true`, and the loop keeps serving.
#[test]
fn cancel_stops_in_flight_analysis() {
    let text = corpus_text("Java.2");
    let h = Harness::start(ServeOptions::default());
    // Extended search over Java.2 with an hour-scale budget: guaranteed to
    // still be in flight when the cancel lands.
    h.send(&analyze_line(
        "slow",
        &text,
        r#","extended":true,"time_limit_ms":3600000,"total_limit_ms":3600000"#,
    ));
    // A duplicate in-flight id is rejected without touching the original.
    h.send(&analyze_line("slow", "%% e : 'a' ;", ""));
    let rs = h.wait_responses(1);
    assert_eq!(
        rs[0].get("ok").and_then(Json::as_bool),
        Some(false),
        "duplicate id answers first, while the original is still in flight"
    );
    assert_eq!(rs[0].get("id").and_then(Json::as_str), Some("slow"));
    std::thread::sleep(Duration::from_millis(300));
    h.send(r#"{"op":"cancel","id":"c","target":"slow"}"#);
    let rs = h.wait_responses(3);
    let cancel = by_id(&rs, "c");
    assert_eq!(cancel.get("found").and_then(Json::as_bool), Some(true));
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, summary) = h.finish();
    let slow = rs
        .iter()
        .find(|r| {
            r.get("id").and_then(Json::as_str) == Some("slow")
                && r.get("op").and_then(Json::as_str) == Some("analyze")
        })
        .expect("the cancelled analysis still answers");
    assert_eq!(slow.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        slow.get("cancelled").and_then(Json::as_bool),
        Some(true),
        "hard cancel surfaces on the response envelope"
    );
    assert!(summary.shutdown);
}

/// EOF without `shutdown` drains in-flight work and returns cleanly.
#[test]
fn eof_drains_in_flight_requests() {
    let text = corpus_text("figure1");
    let h = Harness::start(ServeOptions::default());
    h.send(&analyze_line("a", &text, ""));
    let (rs, summary) = h.finish();
    assert!(!summary.shutdown, "EOF is not a shutdown");
    assert_eq!(summary.served, 1);
    assert_eq!(
        by_id(&rs, "a").get("ok").and_then(Json::as_bool),
        Some(true),
        "the in-flight analysis is drained, not dropped"
    );
}

/// The `explain` op classifies every conflict, its report carries the
/// schema-v1 `provenance` blocks, and a follow-up `stats` op surfaces the
/// per-entry provenance table bytes the computation added to the cached
/// engine's footprint.
#[test]
fn explain_op_classifies_and_stats_reports_provenance_bytes() {
    let text = corpus_text("figure1");
    let g = Json::str(&text).to_string();
    let h = Harness::start(ServeOptions::default());
    h.send(&format!(
        r#"{{"op":"explain","id":"e1","grammar":{g},"file":"figure1.y"}}"#
    ));
    h.wait_responses(1);
    h.send(r#"{"op":"stats","id":"s"}"#);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, summary) = h.finish();

    let e1 = by_id(&rs, "e1");
    assert_eq!(e1.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(e1.get("op").and_then(Json::as_str), Some("explain"));
    let class = e1.get("classification").expect("classification counts");
    let count = |k: &str| class.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(
        count("true_ambiguity_candidates") + count("merge_artifacts") + count("internal"),
        3,
        "every figure1 conflict is classified"
    );
    assert_eq!(count("internal"), 0);

    let report = e1.get("report").expect("report document");
    let conflicts = report
        .get("conflicts")
        .and_then(Json::as_arr)
        .expect("conflicts array");
    assert_eq!(conflicts.len(), 3);
    for c in conflicts {
        let p = c.get("provenance").expect("explain adds provenance");
        let label = p.get("classification").and_then(Json::as_str).unwrap();
        assert!(
            label == "true-ambiguity-candidate" || label == "merge-artifact",
            "unexpected classification {label}"
        );
        assert!(p.get("chain").and_then(Json::as_arr).is_some());
    }

    let stats = by_id(&rs, "s");
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("explain"))
            .and_then(Json::as_u64),
        Some(1)
    );
    let entries = stats
        .get("entries")
        .and_then(Json::as_arr)
        .expect("per-entry stats");
    assert_eq!(entries.len(), 1, "one cached engine");
    let prov_bytes = entries[0]
        .get("provenance_bytes")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        prov_bytes > 0,
        "explain populated the provenance tables, so the re-sampled \
         entry footprint must charge for them"
    );
    assert!(
        entries[0].get("bytes").and_then(Json::as_u64).unwrap() >= prov_bytes,
        "total entry bytes include the provenance share"
    );
    assert_eq!(summary.served, 3);
}

/// A `cancel` whose target already completed reports `found:false`, and
/// the completed id is free for reuse — only *in-flight* ids collide.
#[test]
fn cancel_after_completion_and_id_reuse() {
    let text = corpus_text("figure1");
    let h = Harness::start(ServeOptions::default());
    h.send(&analyze_line("r", &text, ""));
    h.wait_responses(1);
    h.send(r#"{"op":"cancel","id":"c","target":"r"}"#);
    let rs = h.wait_responses(2);
    let cancel = by_id(&rs, "c");
    assert_eq!(
        cancel.get("found").and_then(Json::as_bool),
        Some(false),
        "cancel after completion finds nothing in flight"
    );
    // Reusing the id of a completed request is not a duplicate.
    h.send(&analyze_line("r", &text, ""));
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, summary) = h.finish();
    let reuse = rs
        .iter()
        .filter(|r| r.get("id").and_then(Json::as_str) == Some("r"))
        .collect::<Vec<_>>();
    assert_eq!(reuse.len(), 2);
    assert!(reuse
        .iter()
        .all(|r| r.get("ok").and_then(Json::as_bool) == Some(true)));
    assert_eq!(
        reuse[1].get("cache").and_then(Json::as_str),
        Some("hit"),
        "the reused id re-analyzes the cached grammar"
    );
    assert!(summary.shutdown);
}

/// `shutdown` racing a just-admitted analysis: both are answered — the
/// admitted request is drained, never dropped.
#[test]
fn shutdown_races_just_admitted_request() {
    let text = corpus_text("figure1");
    let h = Harness::start(ServeOptions::default());
    h.send(&analyze_line("a", &text, ""));
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, summary) = h.finish();
    assert!(summary.shutdown);
    assert_eq!(summary.served, 2);
    assert_eq!(
        by_id(&rs, "a").get("ok").and_then(Json::as_bool),
        Some(true),
        "the admitted analysis completes through the drain"
    );
    assert_eq!(
        by_id(&rs, "z").get("ok").and_then(Json::as_bool),
        Some(true)
    );
}

/// An effectively already-expired deadline (1 ms on a heavy grammar)
/// degrades to a partial report — skipped unifying searches with their
/// nonunifying fallbacks constructed — and never a protocol error.
/// Verified cold (engine built after expiry) and warm (cache hit).
#[test]
fn expired_deadline_degrades_to_partial_report_cold_and_warm() {
    let text = corpus_text("Java.2");
    let h = Harness::start(ServeOptions::default());
    // Cold: building the Java.2 engine alone outlives the deadline, so
    // every slot sees a spent budget.
    h.send(&analyze_line(
        "cold",
        &text,
        r#","extended":true,"deadline_ms":1"#,
    ));
    h.wait_responses(1);
    h.send(&analyze_line(
        "warm",
        &text,
        r#","extended":true,"deadline_ms":1"#,
    ));
    h.wait_responses(2);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, _) = h.finish();

    for id in ["cold", "warm"] {
        let r = by_id(&rs, id);
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "{id}: deadline expiry is degradation, not an error"
        );
        assert_eq!(
            r.get("deadline_expired").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(r.get("cancelled").and_then(Json::as_bool), Some(false));
        assert_eq!(r.get("internal_count").and_then(Json::as_u64), Some(0));
        let conflicts = r
            .get("report")
            .and_then(|d| d.get("conflicts"))
            .and_then(Json::as_arr)
            .expect("partial report still carries every conflict");
        assert!(!conflicts.is_empty());
        let mut skipped = 0;
        for c in conflicts {
            let outcome = c.get("outcome").and_then(Json::as_str).unwrap();
            assert!(
                outcome.starts_with("nonunifying") || outcome == "unifying",
                "{id}: expiry lands on the degradation ladder, got {outcome}"
            );
            if outcome == "nonunifying-skipped" {
                skipped += 1;
                assert!(
                    !matches!(c.get("nonunifying"), None | Some(&Json::Null)),
                    "{id}: skipped slots still carry their nonunifying fallback"
                );
            }
        }
        assert!(
            skipped > 0,
            "{id}: a 1 ms deadline cannot run every Java.2 unifying search"
        );
    }
    assert_eq!(
        by_id(&rs, "cold").get("cache").and_then(Json::as_str),
        Some("miss")
    );
    assert_eq!(
        by_id(&rs, "warm").get("cache").and_then(Json::as_str),
        Some("hit")
    );
}

/// Admission control at `max_inflight:1`: with one slow analysis running,
/// `health` reports `shedding` and a second submission is shed with a
/// structured `overloaded` error carrying `retry_after_ms` — while the
/// admitted request keeps its budget and completes.
#[test]
fn overload_sheds_at_admission_with_retry_hint() {
    let text = corpus_text("Java.2");
    let h = Harness::start(ServeOptions {
        max_inflight: 1,
        ..ServeOptions::default()
    });
    // The reader admits (inserts) before reading the next line, so by the
    // time the requests below are parsed the slot is deterministically
    // taken.
    h.send(&analyze_line(
        "slow",
        &text,
        r#","extended":true,"time_limit_ms":3600000,"total_limit_ms":3600000"#,
    ));
    h.send(r#"{"op":"health","id":"h1"}"#);
    h.send(&analyze_line("shed", "%% e : 'a' ;", ""));
    h.send(r#"{"op":"health","id":"h2"}"#);
    let rs = h.wait_responses(3);

    let h1 = by_id(&rs, "h1");
    assert_eq!(h1.get("status").and_then(Json::as_str), Some("shedding"));
    assert_eq!(h1.get("inflight").and_then(Json::as_u64), Some(1));
    assert_eq!(h1.get("max_inflight").and_then(Json::as_u64), Some(1));

    let shed = by_id(&rs, "shed");
    assert_eq!(shed.get("ok").and_then(Json::as_bool), Some(false));
    let err = shed.get("error").expect("structured shed error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(err.get("inflight").and_then(Json::as_u64), Some(1));
    assert_eq!(err.get("limit").and_then(Json::as_u64), Some(1));
    assert_eq!(
        err.get("retry_after_ms").and_then(Json::as_u64),
        Some(100),
        "deterministic backoff hint"
    );

    let h2 = by_id(&rs, "h2");
    assert_eq!(
        h2.get("counters")
            .and_then(|c| c.get("overloaded"))
            .and_then(Json::as_u64),
        Some(1)
    );

    h.send(r#"{"op":"cancel","id":"c","target":"slow"}"#);
    h.wait_responses(5);
    h.send(r#"{"op":"stats","id":"s"}"#);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, summary) = h.finish();
    let slow = rs
        .iter()
        .find(|r| {
            r.get("id").and_then(Json::as_str) == Some("slow")
                && r.get("op").and_then(Json::as_str) == Some("analyze")
        })
        .expect("the admitted request is answered, not shed");
    assert_eq!(slow.get("ok").and_then(Json::as_bool), Some(true));
    let stats = by_id(&rs, "s");
    let sup = stats.get("supervision").expect("stats supervision block");
    assert_eq!(sup.get("overloaded").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("inflight").and_then(Json::as_u64),
        Some(0),
        "stats derives inflight from the live map"
    );
    assert!(summary.shutdown);
}

/// A worker takes its id out of the in-flight map before it writes the
/// response, so a `stats` read sent once the response has arrived never
/// still counts that request.
#[test]
fn stats_after_a_response_counts_nothing_in_flight() {
    let h = Harness::start(ServeOptions::default());
    for i in 0..50 {
        h.send(&analyze_line(&format!("a{i}"), "%% e : 'a' ;", ""));
        h.wait_responses(2 * i + 1);
        h.send(&format!(r#"{{"op":"stats","id":"s{i}"}}"#));
        let rs = h.wait_responses(2 * i + 2);
        let stats = by_id(&rs, &format!("s{i}"));
        assert_eq!(
            stats.get("inflight").and_then(Json::as_u64),
            Some(0),
            "stats read after response {i}"
        );
    }
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    assert!(h.finish().1.shutdown);
}

/// A writer that starts failing on demand — the in-process stand-in for a
/// peer that hung up (EPIPE on write).
#[derive(Clone)]
struct HangupWriter {
    out: Arc<Mutex<Vec<u8>>>,
    dead: Arc<std::sync::atomic::AtomicBool>,
}

impl Write for HangupWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
        }
        self.out.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// When the peer hangs up mid-analysis, the next failed response write
/// hard-cancels the in-flight work and the loop drains promptly instead
/// of burning an hour of search budget for a dead client.
#[test]
fn peer_hangup_cancels_in_flight_work_and_drains() {
    let text = corpus_text("Java.2");
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let out = Arc::new(Mutex::new(Vec::new()));
    let dead = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = HangupWriter {
        out: Arc::clone(&out),
        dead: Arc::clone(&dead),
    };
    let join = std::thread::spawn(move || {
        let reader = ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        };
        serve(reader, writer, &ServeOptions::default())
    });
    let send = |line: &str| {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        tx.send(bytes).unwrap();
    };
    // An hour-budget extended search: without the hangup fix this test
    // would hang for the full budget at the drain.
    send(&analyze_line(
        "slow",
        &text,
        r#","extended":true,"time_limit_ms":3600000,"total_limit_ms":3600000"#,
    ));
    std::thread::sleep(Duration::from_millis(300));
    dead.store(true, std::sync::atomic::Ordering::SeqCst);
    // The peer is gone: this response write fails, which must cancel the
    // slow analysis and flag the loop to stop.
    send(r#"{"op":"stats","id":"s"}"#);
    drop(tx);
    let started = Instant::now();
    let summary = join.join().expect("serve loop must not panic");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "hangup must drain promptly, not run out the hour budget"
    );
    assert!(summary.hangup, "the summary reports the hangup");
    assert!(!summary.shutdown);
}

/// The additive `format` member: a `.y` grammar analyzed as
/// `"format":"yacc"` round-trips, a warm repeat under `"format":"auto"`
/// hits the same cache entry, and the embedded report is byte-identical
/// across cache temperature and format spelling.
#[test]
fn yacc_format_round_trips_with_warm_cache_byte_identity() {
    let twin = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/yacc_twins/figure1.y"
    ))
    .expect("committed yacc twin (cargo run --example make_yacc_twins)");
    let h = Harness::start(ServeOptions::default());
    h.send(&analyze_line("cold", &twin, r#","format":"yacc""#));
    h.wait_responses(1);
    // Auto must sniff the same frontend, land on the same cache entry.
    h.send(&analyze_line("warm", &twin, r#","format":"auto""#));
    h.wait_responses(2);
    // The DSL original renders the same conflicts but is a *different*
    // cache entry: same grammar, different frontend and text.
    h.send(&analyze_line("dsl", &corpus_text("figure1"), ""));
    h.send(r#"{"op":"stats","id":"s"}"#);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (rs, summary) = h.finish();

    let cold = by_id(&rs, "cold");
    let warm = by_id(&rs, "warm");
    assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        warm.get("cache").and_then(Json::as_str),
        Some("hit"),
        "auto-sniffed repeat of the same yacc text must hit the cache"
    );
    let report = |r: &Json| r.get("report").unwrap().to_string();
    assert_eq!(
        report(cold),
        report(warm),
        "cold and warm yacc reports must be byte-identical"
    );
    let dsl = by_id(&rs, "dsl");
    assert_eq!(
        dsl.get("cache").and_then(Json::as_str),
        Some("miss"),
        "the DSL original is keyed separately from its yacc twin"
    );
    let conflicts = |r: &Json| {
        r.get("report")
            .and_then(|d| d.get("conflicts"))
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
    };
    assert_eq!(
        conflicts(cold),
        conflicts(dsl),
        "both frontends agree on the conflict set"
    );
    assert!(summary.shutdown);
}

/// An unknown `format` value is a structured `unsupported_format` error
/// that echoes the offending value, and the loop keeps serving.
#[test]
fn unknown_format_is_a_structured_error() {
    let h = Harness::start(ServeOptions::default());
    h.send(&analyze_line("bad", "%% s : A ;", r#","format":"bison""#));
    h.send(&analyze_line("num", "%% s : A ;", r#","format":7"#));
    h.send(&analyze_line("ok", "%% s : A ;", r#","format":"dsl""#));
    let rs = h.wait_responses(3);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    let (_, summary) = h.finish();

    for (id, echoed) in [("bad", "bison"), ("num", "7")] {
        let r = by_id(&rs, id);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let err = r.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("unsupported_format")
        );
        assert_eq!(
            err.get("format").and_then(Json::as_str),
            Some(echoed),
            "{id}: the error echoes the offending format value"
        );
    }
    let ok = by_id(&rs, "ok");
    assert_eq!(
        ok.get("ok").and_then(Json::as_bool),
        Some(true),
        "the loop keeps serving after format rejections"
    );
    assert!(summary.shutdown);
}

/// A yacc-frontend parse failure surfaces as a `yacc_parse` error, not a
/// generic `grammar` one, so callers can tell which frontend rejected.
#[test]
fn yacc_parse_errors_carry_their_own_kind() {
    let h = Harness::start(ServeOptions::default());
    // The unquoted `%union` brace makes the sniffer pick yacc; the
    // mid-rule action is then a structured frontend rejection.
    h.send(&analyze_line(
        "mid",
        "%union { int n; }\n%%\ns : A { act(); } B ;\n",
        r#","format":"auto""#,
    ));
    let rs = h.wait_responses(1);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    h.finish();

    let r = by_id(&rs, "mid");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    let err = r.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("yacc_parse"));
    let msg = err.get("message").and_then(Json::as_str).unwrap();
    assert!(
        msg.contains("mid-rule action"),
        "message names the unsupported feature: {msg}"
    );
}

/// A `lint` reply's `diagnostics` member carries the same bytes as the
/// `diagnostics` member `lalrcex lint --format json` writes for the same
/// text, including the escaping of quote and backslash terminals.
#[test]
fn lint_reply_diagnostics_match_the_lint_renderer() {
    use lalrcex::core::Engine;
    use lalrcex::grammar::Grammar;
    use lalrcex::lint::{render_json, Linter};

    let text = "%token GHOST\n%%\ne : e '\"' e | e '\\\\' e | NUM ;\ndead : 'q' ;\n";
    let h = Harness::start(ServeOptions::default());
    let g = Json::str(text).to_string();
    h.send(&format!(
        r#"{{"op":"lint","id":"l","grammar":{g},"file":"g.y"}}"#
    ));
    let rs = h.wait_responses(1);
    h.send(r#"{"op":"shutdown","id":"z"}"#);
    h.finish();

    let r = by_id(&rs, "l");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    let served = r.get("diagnostics").unwrap().to_string();
    let diags = Linter::new().run(&Engine::new(&Grammar::parse(text).unwrap()));
    let doc = render_json("g.y", &diags);
    let rendered = doc
        .strip_prefix(r#"{"file":"g.y","diagnostics":"#)
        .and_then(|d| d.strip_suffix("}\n"))
        .expect("render_json's document shape");
    assert!(
        rendered.contains(r#"\""#) && rendered.contains(r"\\"),
        "messages exercise escaping: {rendered}"
    );
    assert_eq!(served, rendered);
}
