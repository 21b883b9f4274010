//! End-to-end tests for the `lalrcex` binary: the uniform argument
//! contract across all five subcommands, the JSON report surface, the
//! serve/batch wiring, and byte-level goldens of the `cex` and `explain`
//! output modes (`tests/golden/`; regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p lalrcex-cli --test cli`).

use std::io::Write;
use std::process::{Command, Output, Stdio};

use lalrcex::api::json::{self, Json};

const BIN: &str = env!("CARGO_BIN_EXE_lalrcex");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn lalrcex")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lalrcex-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const FIG1: &str = "%%\ne : e '+' e | NUM ;\n";

/// Satellite bugfix: every subcommand funnels through one argument
/// scanner, so an unknown flag is exit 2 + usage on stderr everywhere,
/// and `--help` is exit 0 + usage on stdout everywhere.
#[test]
fn argument_contract_is_uniform_across_subcommands() {
    for args in [
        vec!["cex", "--bogus", "g.y"],
        vec!["--bogus", "g.y"], // legacy implicit cex
        vec!["lint", "--bogus", "g.y"],
        vec!["serve", "--bogus"],
        vec!["batch", "--bogus", "m.txt"],
        vec!["cex", "--time-limit"],      // flag missing its value
        vec!["cex", "--workers", "soon"], // not a number
        vec!["cex", "--format", "yaml", "g.y"],
        vec!["lint", "--format", "yaml", "g.y"],
        vec!["batch", "--format", "yaml", "m.txt"],
        vec!["explain", "--bogus", "g.y"],
        vec!["explain", "--extended", "g.y"], // a cex-only flag
    ] {
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?} prints usage on stderr");
        assert!(out.stdout.is_empty(), "{args:?} writes nothing to stdout");
    }
    for args in [
        vec!["--help"],
        vec!["cex", "--help"],
        vec!["lint", "-h"],
        vec!["serve", "--help"],
        vec!["batch", "--help"],
        vec!["explain", "--help"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?} exits 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{args:?} prints usage on stdout");
    }
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "no arguments is a usage error");
}

#[test]
fn cex_json_emits_schema_v1_and_conflict_exit_code() {
    let g = write_temp("fig1.y", FIG1);
    let out = run(&["cex", "--format", "json", g.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "conflicts reported");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = json::parse(stdout.trim()).expect("stdout is one JSON document");
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(
        doc.get("grammar")
            .and_then(|g| g.get("conflicts"))
            .and_then(Json::as_u64),
        Some(1)
    );
    // Text mode on the same grammar agrees on the exit code.
    let text = run(&[g.to_str().unwrap()]);
    assert_eq!(text.status.code(), Some(1));
}

#[test]
fn cex_rejects_unreadable_and_unparsable_grammars() {
    let out = run(&["cex", "/nonexistent/lalrcex-test.y"]);
    assert_eq!(out.status.code(), Some(2));
    let bad = write_temp("bad.y", "%% e : ;;;;");
    let out = run(&["cex", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_end_to_end_over_stdio() {
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "2", "--max-line", "65536"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lalrcex serve");
    let mut stdin = child.stdin.take().unwrap();
    let grammar = Json::str(FIG1).to_string();
    writeln!(
        stdin,
        "{{\"op\":\"analyze\",\"id\":\"a\",\"grammar\":{grammar},\"file\":\"fig1.y\"}}\n\
         not json\n\
         {{\"op\":\"shutdown\",\"id\":\"z\"}}"
    )
    .unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| json::parse(l).expect("response lines are JSON"))
        .collect();
    assert_eq!(responses.len(), 3);
    for r in &responses {
        assert_eq!(r.get("protocol").and_then(Json::as_u64), Some(1));
    }
    let analyze = responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("a"))
        .unwrap();
    assert_eq!(analyze.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        analyze
            .get("report")
            .and_then(|d| d.get("schema_version"))
            .and_then(Json::as_u64),
        Some(1)
    );
    let bad = responses
        .iter()
        .find(|r| r.get("ok").and_then(Json::as_bool) == Some(false))
        .expect("the malformed line gets a structured error");
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("protocol")
    );
}

#[test]
fn batch_shares_one_cache_across_manifest_entries() {
    let manifest = write_temp(
        "manifest.txt",
        "# twice on purpose: the second run must hit the cache\n\
         corpus:figure1\n\
         corpus:figure1\n",
    );
    let out = run(&[
        "batch",
        "--format",
        "json",
        "--stats",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "figure1 has conflicts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let docs: Vec<&str> = stdout.lines().collect();
    assert_eq!(docs.len(), 2, "one document per manifest entry");
    assert_eq!(
        docs[0], docs[1],
        "cold and warm documents are byte-identical"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("1 hits / 1 misses"),
        "--stats surfaces the cache counters; stderr: {stderr}"
    );
    assert!(
        stderr.contains("2/2 entries analyzed, 0 failed"),
        "end-of-run summary; stderr: {stderr}"
    );
}

/// Satellite: one bad manifest entry no longer aborts the run. Failed
/// entries are reported and counted in the end-of-run summary, the good
/// entries still analyze, and the exit code is nonzero iff any entry
/// failed.
#[test]
fn batch_isolates_per_entry_failures() {
    let mixed = write_temp(
        "manifest-mixed.txt",
        "corpus:figure1\n\
         corpus:no-such-grammar\n\
         /nonexistent/lalrcex-batch-test.y\n\
         corpus:figure1\n",
    );
    let out = run(&["batch", "--format", "json", mixed.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "failed entries dominate the exit code"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().count(),
        2,
        "both good entries around the failures still analyze"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown corpus grammar"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
    assert!(
        stderr.contains("2/4 entries analyzed, 2 failed"),
        "end-of-run summary; stderr: {stderr}"
    );
    // An all-good run with conflicts keeps the conflict exit code.
    let good = write_temp("manifest-good.txt", "corpus:figure1\n");
    let out = run(&["batch", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "conflicts, no failed entries");
}

/// The admission flags end to end: an over-cap grammar is shed with a
/// structured `too_large` error, `health` answers inline, and a request
/// carrying `deadline_ms` far in the past of any real budget degrades to
/// `ok:true` with `deadline_expired`.
#[test]
fn serve_admission_flags_end_to_end() {
    let mut child = Command::new(BIN)
        .args(["serve", "--max-inflight", "4", "--max-grammar-bytes", "64"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lalrcex serve");
    let mut stdin = child.stdin.take().unwrap();
    let big = Json::str(format!("%%\ne : e '+' e | NUM ; // {}", "x".repeat(80))).to_string();
    let small = Json::str(FIG1).to_string();
    writeln!(
        stdin,
        "{{\"op\":\"analyze\",\"id\":\"big\",\"grammar\":{big}}}\n\
         {{\"op\":\"health\",\"id\":\"h\"}}\n\
         {{\"op\":\"analyze\",\"id\":\"ok\",\"grammar\":{small},\"deadline_ms\":1}}\n\
         {{\"op\":\"shutdown\",\"id\":\"z\"}}"
    )
    .unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| json::parse(l).expect("response lines are JSON"))
        .collect();
    let by_id = |id: &str| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no response {id}"))
    };
    let big = by_id("big");
    assert_eq!(big.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        big.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("too_large")
    );
    let health = by_id("h");
    assert_eq!(health.get("op").and_then(Json::as_str), Some("health"));
    assert_eq!(health.get("max_inflight").and_then(Json::as_u64), Some(4));
    let ok = by_id("ok");
    assert_eq!(
        ok.get("ok").and_then(Json::as_bool),
        Some(true),
        "deadline expiry degrades, never errors"
    );
}

/// Satellite: the serve loop notices a dead peer. With the reader end of
/// its stdout closed mid-analysis, the next response write fails, the
/// hour-budget search is hard-cancelled, and the process exits 0 promptly
/// instead of finishing work nobody will read.
#[test]
fn serve_exits_promptly_when_reader_dies_mid_analysis() {
    use std::time::{Duration, Instant};

    let java = lalrcex::corpus::by_name("Java.2")
        .expect("corpus entry")
        .text();
    let mut child = Command::new(BIN)
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lalrcex serve");
    let mut stdin = child.stdin.take().unwrap();
    let grammar = Json::str(&java).to_string();
    // An hour-budget extended search: without hangup detection the drain
    // would run it to completion.
    writeln!(
        stdin,
        "{{\"op\":\"analyze\",\"id\":\"slow\",\"grammar\":{grammar},\
         \"extended\":true,\"time_limit_ms\":3600000,\"total_limit_ms\":3600000}}"
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(500));
    // Kill the reader: the next response write comes back EPIPE.
    drop(child.stdout.take());
    writeln!(stdin, "{{\"op\":\"stats\",\"id\":\"s\"}}").unwrap();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(90);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("serve did not exit after its peer hung up");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "hangup is an orderly exit");
}

/// The workspace root: golden runs pass grammar paths relative to it, so
/// the labels echoed in the output are the same on every checkout.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_in_root(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("spawn lalrcex")
}

const FIGURE1_Y: &str = "crates/corpus/grammars/figure1.y";
const MERGE_ARTIFACT_Y: &str = "crates/lint/fixtures/merge_artifact.y";

/// Byte-level goldens of every `cex` and `explain` output mode that has
/// no timing in it, plus the usage text of every subcommand. Both
/// grammars' searches finish far inside the default budgets, so the
/// output is deterministic.
#[test]
fn output_modes_match_goldens() {
    let cases: [(&str, &[&str], i32); 19] = [
        ("explain_figure1.txt", &["explain", FIGURE1_Y], 1),
        (
            "explain_figure1.json",
            &["explain", "--format", "json", FIGURE1_Y],
            1,
        ),
        (
            "explain_figure1_conflict1.txt",
            &["explain", "--conflict", "1", FIGURE1_Y],
            1,
        ),
        (
            "explain_figure1_conflict2.json",
            &["explain", "--format", "json", "--conflict", "2", FIGURE1_Y],
            1,
        ),
        (
            "explain_merge_artifact.txt",
            &["explain", MERGE_ARTIFACT_Y],
            1,
        ),
        (
            "explain_merge_artifact.json",
            &["explain", "--format", "json", MERGE_ARTIFACT_Y],
            1,
        ),
        (
            "cex_figure1_summary.txt",
            &["cex", "--summary", FIGURE1_Y],
            1,
        ),
        ("cex_figure1_path.txt", &["cex", "--path", FIGURE1_Y], 1),
        (
            "cex_figure1_dump_states.txt",
            &["cex", "--dump-states", FIGURE1_Y],
            1,
        ),
        (
            "cex_merge_artifact_summary.txt",
            &["cex", "--summary", MERGE_ARTIFACT_Y],
            1,
        ),
        (
            "cex_merge_artifact_path.txt",
            &["cex", "--path", MERGE_ARTIFACT_Y],
            1,
        ),
        (
            "cex_merge_artifact_dump_states.txt",
            &["cex", "--dump-states", MERGE_ARTIFACT_Y],
            1,
        ),
        ("help_global.txt", &["--help"], 0),
        ("help_cex.txt", &["cex", "--help"], 0),
        ("help_explain.txt", &["explain", "--help"], 0),
        ("help_lint.txt", &["lint", "--help"], 0),
        ("help_serve.txt", &["serve", "--help"], 0),
        ("help_batch.txt", &["batch", "--help"], 0),
        (
            "lint_merge_artifact.json",
            &["lint", "--format", "json", MERGE_ARTIFACT_Y],
            0,
        ),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, args, code) in cases {
        let out = run_in_root(args);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{args:?}; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let path = dir.join(name);
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &stdout).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (UPDATE_GOLDEN=1 to create)", path.display()));
        assert_eq!(stdout, golden, "{args:?} drifted from tests/golden/{name}");
    }
}

/// `explain --conflict N` with N past the last conflict is a usage error:
/// exit 2, a diagnostic naming the count on stderr, nothing on stdout.
#[test]
fn explain_conflict_out_of_range_exits_2() {
    for format in ["text", "json"] {
        let out = run_in_root(&["explain", "--format", format, "--conflict", "3", FIGURE1_Y]);
        assert_eq!(out.status.code(), Some(2), "--format {format}");
        assert!(out.stdout.is_empty(), "--format {format} writes no report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("conflict index 3 out of range (3 conflict(s))"),
            "stderr: {stderr}"
        );
    }
}
