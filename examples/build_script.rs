//! The `build.rs` workflow, runnable outside a build script.
//!
//! Run with `cargo run --example build_script`.
//!
//! In a real parser crate the whole integration is one line in `build.rs`:
//!
//! ```no_run
//! fn main() {
//!     lalrcex::build::verify("src/grammar.y").unwrap();
//! }
//! ```
//!
//! A clean grammar builds; a conflicted one fails the build with the full
//! counterexample report in the compiler output (the `Debug` impl behind
//! that `unwrap` renders `Display`, so the panic message *is* the
//! report). This example walks the same machinery against the committed
//! yacc twin of the paper's Figure 1 grammar — which has three conflicts,
//! all provably ambiguous — and against a clean grammar, and checks that
//! the report a build script shows is byte-identical to what the
//! interactive `lalrcex cex` pipeline prints for the DSL original.

// The doctest shows a complete build.rs; its `fn main` is the point.
#![allow(clippy::needless_doctest_main)]

use std::time::Duration;

use lalrcex::api::{CexConfig, SearchConfig};
use lalrcex::build::{Verifier, VerifyError};
use lalrcex::{AnalysisRequest, GrammarSource, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let twin = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/yacc_twins/figure1.y");

    // 1. A conflicted grammar: `verify` returns the structured outcome.
    //    The `.y` extension routes the text through the yacc frontend;
    //    the budgets are generous so the unifying searches always finish
    //    and the report is deterministic.
    let generous = CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_secs(600),
            ..SearchConfig::default()
        },
        cumulative_limit: Duration::from_secs(3600),
        workers: 1,
    };
    let verifier = || Verifier::new().config(generous);
    let found = match verifier().verify_path(twin) {
        Err(VerifyError::Conflicts(found)) => found,
        other => return Err(format!("expected conflicts, got {other:?}").into()),
    };
    println!("== what a failing build log shows ==\n{found}");
    assert_eq!(found.conflicts, 3, "figure1 has three conflicts");
    assert_eq!(found.unifying, 3, "all three are provably ambiguous");

    // 2. The report matches the interactive pipeline on the DSL original,
    //    byte for byte: a build-script failure and a `lalrcex cex` run
    //    never disagree about the same grammar.
    let dsl = lalrcex::corpus::by_name("figure1").expect("corpus").text();
    let reply =
        Session::new().analyze(&AnalysisRequest::new(GrammarSource::dsl(dsl)).config(generous))?;
    assert_eq!(
        found.report,
        reply.render_text(),
        "build-script report must match the interactive report"
    );

    // 3. `on_conflicts` observes the outcome before the error is
    //    returned — the hook for custom `cargo:warning=` forwarding.
    let mut saw = false;
    let seen = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let seen_cb = std::rc::Rc::clone(&seen);
    let result = verifier()
        .on_conflicts(move |f| seen_cb.set(f.conflicts))
        .verify_path(twin);
    if let Err(VerifyError::Conflicts(f)) = &result {
        saw = seen.get() == f.conflicts;
    }
    assert!(saw, "the callback runs before the error returns");

    // 4. A clean grammar verifies: this is the quiet everyday path.
    let ok = verifier().verify_source(
        GrammarSource::yacc("%token NUM\n%% e : e '+' NUM { $$ = $1 + $3; } | NUM ;\n"),
        "clean.y",
    )?;
    println!(
        "== clean grammar == {}: {} states, {} productions, no conflicts",
        ok.label, ok.states, ok.productions
    );
    Ok(())
}
