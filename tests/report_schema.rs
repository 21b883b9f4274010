//! Schema-v1 JSON report: golden-file pin plus determinism contract.
//!
//! The golden file (`snapshots/cex_report_v1.json`) is the compatibility
//! contract for `lalrcex cex --format json` and the serve protocol's
//! `report` member: any byte-level drift is a schema change and must be
//! reviewed. Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test report_schema
//! ```

use std::time::Duration;

use lalrcex::api::json::{self, Json};
use lalrcex::api::{CexConfig, SearchConfig};
use lalrcex::{AnalysisRequest, Session};

/// The figure1 analysis is fully deterministic under default budgets (the
/// searches complete long before any time limit), so its document is a
/// stable golden.
fn figure1_document() -> String {
    let text = lalrcex::corpus::by_name("figure1").unwrap().text();
    let session = Session::new();
    let reply = session
        .analyze(&AnalysisRequest::new(text).label("figure1.y"))
        .expect("figure1 analyzes");
    let mut doc = reply.to_json().to_string();
    doc.push('\n');
    doc
}

#[test]
fn schema_v1_document_matches_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/snapshots/cex_report_v1.json");
    let doc = figure1_document();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &doc).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("snapshots/cex_report_v1.json exists (UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        doc, golden,
        "schema-v1 document drifted from the golden file; if the change is \
         deliberate, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn document_shape_is_stable() {
    let doc = json::parse(figure1_document().trim()).unwrap();
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("file").and_then(Json::as_str), Some("figure1.y"));
    let g = doc.get("grammar").unwrap();
    for key in [
        "terminals",
        "nonterminals",
        "productions",
        "states",
        "conflicts",
    ] {
        assert!(g.get(key).and_then(Json::as_u64).is_some(), "grammar.{key}");
    }
    let conflicts = doc.get("conflicts").and_then(Json::as_arr).unwrap();
    assert!(!conflicts.is_empty());
    for c in conflicts {
        for key in [
            "state",
            "terminal",
            "kind",
            "reduce_item",
            "other_item",
            "outcome",
            "internal",
            "unifying",
            "nonunifying",
        ] {
            assert!(c.get(key).is_some(), "conflict member {key} must exist");
        }
    }
}

/// The document deliberately carries no wall-clock times or cache/memo
/// flags, so cold vs. warm sessions and any worker count serialize to the
/// same bytes.
#[test]
fn documents_are_byte_identical_cold_warm_and_across_workers() {
    let text = lalrcex::corpus::by_name("figure1").unwrap().text();
    let session = Session::new();
    let mut docs = Vec::new();
    for workers in [1usize, 4, 1] {
        let reply = session
            .analyze(
                &AnalysisRequest::new(text.as_str())
                    .label("figure1.y")
                    .config(CexConfig {
                        search: SearchConfig {
                            time_limit: Duration::from_secs(3600),
                            ..SearchConfig::default()
                        },
                        workers,
                        ..CexConfig::default()
                    }),
            )
            .unwrap();
        docs.push(reply.to_json().to_string());
    }
    assert_eq!(docs[0], docs[1], "workers=1 vs workers=4");
    assert_eq!(docs[0], docs[2], "cold vs warm cache");
}
