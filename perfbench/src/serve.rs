//! `serve_mixed`: one `lalrcex serve` child (default options) driven over
//! stdio by a closed-loop client that keeps two requests in flight.
//!
//! The traffic comes in rounds. Every round asks, for each grammar of a
//! working set of corpus grammars, `analyze` twice, `explain` once and
//! `lint` once — cache hits once the set is warm — plus [`FRESH`] requests
//! on freshly renamed variants that miss and insert into the cache. The
//! seed shuffles each round and names the variants. Each reply's payload
//! must be byte-identical to a cold in-process `Session` run of the same
//! text; a mismatch, an error or an `overloaded` reply counts as failed.

use crate::gen::{self, Syntax};
use crate::ledger::fnv64;
use crate::replay::{diagnostics_json, Counters, Op};
use crate::trace::{median, ratio, Recorder};
use crate::{Outcome, Run, ServeLayers};
use lalrcex::api::json::{self, obj, Json};
use lalrcex::core::CachedEngine;
use lalrcex::prng::XorShift;
use lalrcex::{AnalysisRequest, Session};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Corpus grammars the traffic repeats.
pub const WORKING_SET: [&str; 10] = [
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
];

/// Requests per round on fresh variants (cache misses).
pub const FRESH: usize = 5;

/// Requests kept in flight.
const IN_FLIGHT: usize = 2;

/// Longest wait for any one reply before the run is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Kind {
    Analyze,
    Explain,
    Lint,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Explain => "explain",
            Kind::Lint => "lint",
        }
    }
}

/// A running `lalrcex serve` child.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
}

impl Server {
    /// Starts the server and waits for its `health` reply.
    pub fn start(lalrcex: &Path) -> Result<Server, String> {
        let mut child = Command::new(lalrcex)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| e.to_string())?;
        let stdin = child.stdin.take().ok_or("no stdin")?;
        let stdout = child.stdout.take().ok_or("no stdout")?;
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            child,
            stdin,
            lines,
        };
        let answer = server
            .send(&control("health", "setup-health"))
            .and_then(|()| server.recv());
        match answer {
            Ok(line) if parse_reply(&line).ok => Ok(server),
            other => {
                server.shutdown();
                Err(other.map_or_else(|e| e, |line| format!("unexpected health reply: {line}")))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to server: {e}"))
    }

    pub fn recv(&self) -> Result<String, String> {
        match self.lines.recv_timeout(REPLY_TIMEOUT) {
            Ok(l) => Ok(l),
            Err(RecvTimeoutError::Timeout) => Err("server reply timed out".into()),
            Err(RecvTimeoutError::Disconnected) => Err("server closed its output".into()),
        }
    }

    /// Sends `shutdown`, closes stdin and waits for the child to exit
    /// (killing it if it does not within the reply timeout).
    pub fn shutdown(mut self) {
        let _ = self.send(&control("shutdown", "bye"));
        drop(self.stdin);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

fn control(op: &str, id: &str) -> String {
    obj()
        .push("protocol", Json::num(1))
        .push("id", Json::str(id))
        .push("op", Json::str(op))
        .build()
        .to_string()
}

/// What the client reads from one reply line.
#[derive(Debug, Default, PartialEq)]
pub struct Reply {
    pub id: String,
    pub ok: bool,
    pub error_kind: Option<String>,
    pub cache_hit: Option<bool>,
    pub elapsed_ms: Option<f64>,
    /// FNV-1a of the payload bytes: the `report` member of analyze/explain
    /// replies, the `diagnostics` member of lint replies.
    pub payload: Option<u64>,
}

/// Splits a reply into envelope fields and payload without re-serializing
/// the payload: the envelope members precede it, so the prefix plus `}` is
/// a JSON object of its own.
pub fn parse_reply(line: &str) -> Reply {
    let (head, payload) = if let Some(p) = line.find(",\"report\":") {
        let body = line.get(p + 10..line.len().saturating_sub(1));
        (format!("{}}}", &line[..p]), body)
    } else if let (Some(p), Some(q)) = (line.find(",\"diagnostics\":"), line.rfind(",\"worst\":")) {
        (format!("{}{}", &line[..p], &line[q..]), line.get(p + 15..q))
    } else {
        (line.to_owned(), None)
    };
    let Ok(env) = json::parse(&head) else {
        return Reply::default();
    };
    Reply {
        id: env
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        ok: env.get("ok").and_then(Json::as_bool) == Some(true),
        error_kind: env
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_owned),
        cache_hit: env.get("cache").and_then(Json::as_str).map(|c| c == "hit"),
        elapsed_ms: env.get("elapsed_ms").and_then(|v| match v {
            Json::Num(n) => Some(*n),
            _ => None,
        }),
        payload: payload.map(|p| fnv64(p.as_bytes())),
    }
}

/// One planned request.
#[derive(Clone, Debug)]
pub struct Request {
    pub kind: Kind,
    /// Index into the text table.
    pub text: usize,
    pub fresh: bool,
}

/// The grammar texts the traffic uses, `(label, text)`; the working set
/// first, fresh variants appended as rounds are planned.
pub struct Texts(pub Vec<(String, String)>);

impl Texts {
    pub fn working_set() -> Texts {
        Texts(
            WORKING_SET
                .iter()
                .map(|n| {
                    let text = lalrcex::corpus::by_name(n)
                        .map(|e| e.text())
                        .unwrap_or_default();
                    ((*n).to_owned(), text)
                })
                .collect(),
        )
    }
}

/// Plans round `round`: the working-set requests plus [`FRESH`] requests
/// on new renamed variants, in a seeded order.
pub fn plan_round(seed: u64, round: usize, texts: &mut Texts) -> Vec<Request> {
    let mut rng = XorShift::new(gen::mix(seed, 0x5e7e_0000 + round as u64));
    let mut reqs = Vec::new();
    for i in 0..WORKING_SET.len() {
        for kind in [Kind::Analyze, Kind::Analyze, Kind::Explain, Kind::Lint] {
            reqs.push(Request {
                kind,
                text: i,
                fresh: false,
            });
        }
    }
    for k in 0..FRESH {
        let base = (round * FRESH + k) % WORKING_SET.len();
        let g = lalrcex::grammar::Grammar::parse(&texts.0[base].1).expect("corpus grammar parses");
        let suffix = format!(
            "r{:x}",
            gen::mix(seed, (round * FRESH + k) as u64) & 0xffff_ffff
        );
        let label = format!("{}.{suffix}", WORKING_SET[base]);
        texts.0.push((label, gen::emit(&g, &suffix, Syntax::Dsl)));
        reqs.push(Request {
            kind: if k % 2 == 0 {
                Kind::Analyze
            } else {
                Kind::Explain
            },
            text: texts.0.len() - 1,
            fresh: true,
        });
    }
    gen::shuffle(&mut reqs, &mut rng);
    reqs
}

fn request_line(id: &str, req: &Request, texts: &Texts) -> String {
    let (label, text) = &texts.0[req.text];
    obj()
        .push("protocol", Json::num(1))
        .push("id", Json::str(id))
        .push("op", Json::str(req.kind.name()))
        .push("grammar", Json::str(text.as_str()))
        .push("file", Json::str(format!("{label}.y")))
        .build()
        .to_string()
}

/// One answered request.
struct Done {
    req: Request,
    latency_ms: f64,
    reply: Reply,
}

/// Drives `server` closed-loop, [`IN_FLIGHT`] requests at a time, `plan`
/// first and then whole rounds while time is left.
fn drive(
    server: &mut Server,
    run: &Run,
    texts: &mut Texts,
    first_round: usize,
    timed: bool,
) -> Result<(Vec<Done>, f64), String> {
    let mut round = first_round;
    let mut queue: std::collections::VecDeque<Request> = plan_round(run.seed, round, texts).into();
    let mut inflight: HashMap<String, (Request, Instant)> = HashMap::new();
    let mut done = Vec::new();
    let mut next_id = 0u64;
    let start = Instant::now();
    loop {
        while inflight.len() < IN_FLIGHT {
            if queue.is_empty() && timed && start.elapsed() < run.seconds {
                round += 1;
                queue = plan_round(run.seed, round, texts).into();
            }
            let Some(req) = queue.pop_front() else { break };
            let id = format!("q{next_id}");
            next_id += 1;
            let line = request_line(&id, &req, texts);
            let sent = Instant::now();
            server.send(&line)?;
            inflight.insert(id, (req, sent));
        }
        if inflight.is_empty() {
            break;
        }
        let line = server.recv()?;
        let arrived = Instant::now();
        let reply = parse_reply(&line);
        if let Some((req, sent)) = inflight.remove(&reply.id) {
            done.push(Done {
                req,
                latency_ms: (arrived - sent).as_secs_f64() * 1e3,
                reply,
            });
        }
    }
    Ok((done, start.elapsed().as_secs_f64()))
}

/// Cache counters from the `stats` op: (hits, misses, evictions, live bytes).
fn cache_stats(server: &mut Server) -> Result<[f64; 4], String> {
    server.send(&control("stats", "stats"))?;
    let line = server.recv()?;
    let j = json::parse(&line).map_err(|e| e.to_string())?;
    let c = j.get("cache").ok_or("stats reply without cache")?;
    let num = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    Ok([
        num("hits"),
        num("misses"),
        num("evictions"),
        num("live_bytes"),
    ])
}

/// The verdict tallies behind an expected analyze/explain payload.
#[derive(Clone, Copy, Default)]
struct Verdicts {
    conflicts: u64,
    decided: u64,
    unifying: u64,
}

/// Cold in-process answers: payload hash (and verdicts) per (kind, text).
fn expected(texts: &Texts, wanted: &[(Kind, usize)]) -> BTreeMap<(Kind, usize), (u64, Verdicts)> {
    let mut out = BTreeMap::new();
    for &(kind, t) in wanted {
        let (label, text) = &texts.0[t];
        let req = AnalysisRequest::new(text.as_str()).label(format!("{label}.y"));
        let session = Session::new();
        let answer = match kind {
            Kind::Analyze => session.analyze(&req).map(|r| {
                let v = verdicts(&r.report);
                (fnv64(r.to_json().to_string().as_bytes()), v)
            }),
            Kind::Explain => session.explain(&req).map(|r| {
                let v = verdicts(&r.report);
                (fnv64(r.to_json().to_string().as_bytes()), v)
            }),
            Kind::Lint => session.lint(text.as_str()).map(|r| {
                let d = diagnostics_json(&r.diagnostics).to_string();
                (fnv64(d.as_bytes()), Verdicts::default())
            }),
        };
        if let Ok(a) = answer {
            out.insert((kind, t), a);
        }
    }
    out
}

fn verdicts(r: &lalrcex::core::GrammarReport) -> Verdicts {
    Verdicts {
        conflicts: r.reports.len() as u64,
        decided: (r.unifying_count() + r.exhausted_count()) as u64,
        unifying: r.unifying_count() as u64,
    }
}

/// Whether a reply is a success; errors and `overloaded` sheds are not.
pub fn reply_failure(reply: &Reply) -> Option<String> {
    if reply.ok {
        None
    } else {
        Some(format!(
            "error reply ({})",
            reply.error_kind.as_deref().unwrap_or("unparsable")
        ))
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut server = None;
    let mut setup_times = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        let texts = Texts::working_set();
        std::hint::black_box(&texts);
        match Server::start(&run.lalrcex) {
            Ok(s) => {
                setup_times.push(t.elapsed().as_secs_f64());
                if let Some(old) = server.replace(s) {
                    old.shutdown();
                }
            }
            Err(e) => {
                if let Some(old) = server.take() {
                    old.shutdown();
                }
                eprintln!("perfbench: cannot start {}: {e}", run.lalrcex.display());
                std::process::exit(1);
            }
        }
    }
    let setup_s = median(&setup_times);
    let Some(mut server) = server else {
        std::process::exit(1);
    };
    let result = session(&mut server, run, &mut out);
    let rss = crate::peak_rss_mb(Some(server.pid()));
    server.shutdown();
    match result {
        Ok((done, wall_s, texts, layers)) => {
            finish(run, &mut out, &done, wall_s, &texts, setup_s, rss, layers);
        }
        Err(e) => out.fail(format!("serve: {e}")),
    }
    out
}

type Traffic = (Vec<Done>, f64, Texts, ServeLayers);

/// Warm-up round (untimed), then the timed rounds between two `stats`
/// snapshots.
fn session(server: &mut Server, run: &Run, out: &mut Outcome) -> Result<Traffic, String> {
    let mut texts = Texts::working_set();
    drive(server, run, &mut texts, 0, false)?;
    let before = cache_stats(server)?;
    let (done, wall_s) = drive(server, run, &mut texts, 1, true)?;
    let after = cache_stats(server)?;
    let hits = after[0] - before[0];
    let misses = after[1] - before[1];
    let mut layers = ServeLayers {
        cache_hit_frac: ratio(hits, hits + misses),
        cache_evictions: after[2] - before[2],
        cache_live_mb: after[3] / (1024.0 * 1024.0),
        ..ServeLayers::default()
    };
    let timed: Vec<&Done> = done
        .iter()
        .filter(|d| d.reply.elapsed_ms.is_some())
        .collect();
    let engine: Vec<f64> = timed.iter().filter_map(|d| d.reply.elapsed_ms).collect();
    let overhead: Vec<f64> = timed
        .iter()
        .filter_map(|d| d.reply.elapsed_ms.map(|e| d.latency_ms - e))
        .collect();
    layers.engine_ms_p50 = median(&engine);
    layers.overhead_ms_p50 = median(&overhead);
    let planned = 4.0 * WORKING_SET.len() as f64 / (4 * WORKING_SET.len() + FRESH) as f64;
    out.note(format!(
        "cache hit share {:.4} (planned repeat share {planned:.4}), {} evictions",
        layers.cache_hit_frac, layers.cache_evictions
    ));
    Ok((done, wall_s, texts, layers))
}

#[allow(clippy::too_many_arguments)]
fn finish(
    run: &Run,
    out: &mut Outcome,
    done: &[Done],
    wall_s: f64,
    texts: &Texts,
    setup_s: f64,
    rss: f64,
    layers: ServeLayers,
) {
    let mut wanted: Vec<(Kind, usize)> = done.iter().map(|d| (d.req.kind, d.req.text)).collect();
    wanted.sort();
    wanted.dedup();
    let answers = expected(texts, &wanted);
    let mut v = Verdicts::default();
    let mut op_ms = Vec::new();
    for (i, d) in done.iter().enumerate() {
        out.attempted += 1;
        op_ms.push(d.latency_ms);
        let key = (d.req.kind, d.req.text);
        let label = &texts.0[d.req.text].0;
        if let Some(f) = reply_failure(&d.reply) {
            out.fail(format!("req{i}: {} {label}: {f}", d.req.kind.name()));
            continue;
        }
        match answers.get(&key) {
            Some((hash, verdicts)) if d.reply.payload == Some(*hash) => {
                v.conflicts += verdicts.conflicts;
                v.decided += verdicts.decided;
                v.unifying += verdicts.unifying;
            }
            Some(_) => out.fail(format!(
                "req{i}: {} {label}: reply differs from a cold in-process run",
                d.req.kind.name()
            )),
            None => out.fail(format!(
                "req{i}: {} {label}: no in-process answer",
                d.req.kind.name()
            )),
        }
    }
    let fresh = done.iter().filter(|d| d.req.fresh).count();
    out.note(format!(
        "{} requests ({fresh} on fresh variants), {} in flight, {} working-set grammars",
        done.len(),
        IN_FLIGHT,
        WORKING_SET.len()
    ));
    out.extra(
        "unifying_frac",
        ratio(v.unifying as f64, v.conflicts as f64),
        "frac",
    );
    if run.trace {
        trace(run, out, done, texts, &layers);
    } else {
        out.end_to_end(setup_s, wall_s, done.len() as f64 / wall_s, &op_ms, rss);
        out.metric("decided_frac", ratio(v.decided as f64, v.conflicts as f64));
    }
}

/// Replays the timed requests in order through the layer calls: the
/// construction layers on the requests the server answered from a cache
/// miss, the conflict, provenance, rendering and lint layers on every
/// request, with one scaffolding engine per text standing in for the
/// server's cache entry.
fn trace(run: &Run, out: &mut Outcome, done: &[Done], texts: &Texts, layers: &ServeLayers) {
    let rec = Recorder::new();
    let mut counters = Counters::default();
    let cfg = *AnalysisRequest::new("").effective_config();
    let mut engines: HashMap<usize, CachedEngine> = HashMap::new();
    let mut replayed = 0;
    for (i, d) in done.iter().enumerate() {
        let (label, text) = &texts.0[d.req.text];
        if let std::collections::hash_map::Entry::Vacant(slot) = engines.entry(d.req.text) {
            match CachedEngine::build(text) {
                Ok(e) => {
                    slot.insert(e);
                }
                Err(e) => {
                    out.fail(format!("req{i}: replay: {e:?}"));
                    continue;
                }
            }
        }
        let engine = engines[&d.req.text].engine();
        let mut op = Op::begin(&rec, i as u32);
        if d.reply.cache_hit == Some(false) {
            if let Err(e) = op.construct(text, Syntax::Dsl) {
                out.fail(format!("req{i}: replay: {e}"));
            }
        }
        let label = format!("{label}.y");
        match d.req.kind {
            Kind::Analyze => {
                let report = op.conflicts(engine, &cfg);
                op.render_json(&label, engine, &report);
            }
            Kind::Explain => {
                let report = op.conflicts(engine, &cfg);
                if let Err(e) = op.explain_json(&label, engine, &report) {
                    out.fail(format!("req{i}: replay: {e}"));
                }
            }
            Kind::Lint => {
                op.lint(engine);
            }
        }
        counters.add(&op.end());
        replayed += 1;
        if d.req.fresh {
            engines.remove(&d.req.text);
        }
    }
    // The untraced base is the server's own time per request (lint replies
    // carry no `elapsed_ms`; their client latency stands in).
    let engine_ms: Vec<f64> = done
        .iter()
        .map(|d| d.reply.elapsed_ms.unwrap_or(d.latency_ms))
        .collect();
    crate::layer_metrics(out, &rec, &counters, replayed, &engine_ms, run, layers);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_and_overloaded_replies_count_as_failed() {
        let overloaded = r#"{"protocol":1,"id":"q3","ok":false,"error":{"kind":"overloaded","message":"busy","inflight":2,"limit":2,"retry_after_ms":200}}"#;
        let r = parse_reply(overloaded);
        assert_eq!(r.id, "q3");
        assert!(reply_failure(&r).unwrap().contains("overloaded"));
        let error =
            r#"{"protocol":1,"id":"q4","ok":false,"error":{"kind":"grammar","message":"bad"}}"#;
        assert!(reply_failure(&parse_reply(error))
            .unwrap()
            .contains("grammar"));
        assert!(reply_failure(&parse_reply("not json")).is_some());
    }

    #[test]
    fn payloads_are_split_from_the_envelope_byte_for_byte() {
        let analyze = r#"{"protocol":1,"id":"q1","ok":true,"op":"analyze","cache":"hit","elapsed_ms":1.5,"cancelled":false,"report":{"a":[1,2]}}"#;
        let r = parse_reply(analyze);
        assert!(r.ok && reply_failure(&r).is_none());
        assert_eq!(r.cache_hit, Some(true));
        assert_eq!(r.elapsed_ms, Some(1.5));
        assert_eq!(r.payload, Some(fnv64(br#"{"a":[1,2]}"#)));
        let lint = r#"{"protocol":1,"id":"q2","ok":true,"op":"lint","cache":"miss","deadline_expired":false,"diagnostics":[{"id":"L001"}],"worst":"warning"}"#;
        let r = parse_reply(lint);
        assert_eq!(r.cache_hit, Some(false));
        assert_eq!(r.payload, Some(fnv64(br#"[{"id":"L001"}]"#)));
    }

    #[test]
    fn rounds_are_seeded_and_mix_repeats_with_fresh_variants() {
        let mut a = Texts::working_set();
        let mut b = Texts::working_set();
        let ra = plan_round(9, 1, &mut a);
        let rb = plan_round(9, 1, &mut b);
        assert_eq!(a.0, b.0);
        let kinds = |r: &[Request]| r.iter().map(|q| (q.kind, q.text)).collect::<Vec<_>>();
        assert_eq!(kinds(&ra), kinds(&rb));
        assert_eq!(ra.len(), 4 * WORKING_SET.len() + FRESH);
        assert_eq!(ra.iter().filter(|q| q.fresh).count(), FRESH);
        assert_eq!(a.0.len(), WORKING_SET.len() + FRESH);
        let mut c = Texts::working_set();
        let rc = plan_round(10, 1, &mut c);
        assert_ne!(kinds(&ra), kinds(&rc), "another seed, another order");
    }
}
