//! Stable JSON conflict-report schema, version 1.
//!
//! One document shape serves both surfaces: `lalrcex cex --format json`
//! prints it, and the serve protocol embeds it as the `report` member of
//! an `analyze` response. The schema is pinned by a committed golden file
//! (`snapshots/cex_report_v1.json`); widen it only by *adding* members,
//! and bump `schema_version` on any breaking change.
//!
//! Determinism contract: the document contains no wall-clock times, no
//! memo/cache hit flags, and no search counters — exactly the fields the
//! engine guarantees byte-identical across runs, worker counts, and warm
//! versus cold caches. Observability data lives in the serve `stats`
//! request and the CLI's `--stats` text output instead.

use lalrcex_core::{
    display_item_cup, flat_top, pretty_top, render_chain_step, ChainStep, ConflictOutcome,
    ConflictReport, ExampleKind, GrammarProvenance, GrammarReport, ProvenanceOutcome,
};
use lalrcex_grammar::Grammar;
use lalrcex_lr::{ConflictKind, Resolution};

use super::json::{obj, Json};

/// The current schema version emitted in every document.
pub const SCHEMA_VERSION: u32 = 1;

/// Builds the schema-v1 document for one grammar analysis.
///
/// `label` is the file name (or request-supplied label) echoed back in the
/// document; `states` is the automaton state count.
pub fn report_document(
    label: &str,
    g: &Grammar,
    states: usize,
    resolutions: &[Resolution],
    report: &GrammarReport,
) -> Json {
    document(label, g, states, resolutions, report, None)
}

/// [`report_document`] with the optional `provenance` block attached to
/// every conflict and resolution — the document `lalrcex explain` and the
/// serve `explain` op emit. Still schema version 1: the block is purely
/// additive, so consumers (and the committed golden) of the plain document
/// are unaffected.
pub fn explain_document(
    label: &str,
    g: &Grammar,
    states: usize,
    resolutions: &[Resolution],
    report: &GrammarReport,
    provenance: &GrammarProvenance,
) -> Json {
    document(label, g, states, resolutions, report, Some(provenance))
}

/// The one builder behind both documents: the `provenance` block rides
/// along when `provenance` is `Some`.
pub(crate) fn document(
    label: &str,
    g: &Grammar,
    states: usize,
    resolutions: &[Resolution],
    report: &GrammarReport,
    provenance: Option<&GrammarProvenance>,
) -> Json {
    let grammar = obj()
        .push("terminals", Json::num((g.terminal_count() - 1) as u32))
        .push(
            "nonterminals",
            Json::num((g.nonterminal_count() - 1) as u32),
        )
        .push("productions", Json::num(g.prod_count() as u32))
        .push("states", Json::num(states as u32))
        .push("conflicts", Json::num(report.reports.len() as u32))
        .build();
    let resolutions = Json::Arr(
        resolutions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut b = obj()
                    .push("state", Json::num(r.state.index() as u32))
                    .push("terminal", Json::str(g.display_name(r.terminal)));
                if let Some(rp) = provenance.and_then(|p| p.resolutions.get(i)) {
                    b = b.push("provenance", resolution_provenance_document(g, rp));
                }
                b.build()
            })
            .collect(),
    );
    let conflicts = Json::Arr(
        report
            .reports
            .iter()
            .enumerate()
            .map(|(i, r)| conflict_document(g, r, provenance.and_then(|p| p.conflicts.get(i))))
            .collect(),
    );
    obj()
        .push("schema_version", Json::num(SCHEMA_VERSION))
        .push("file", Json::str(label))
        .push("grammar", grammar)
        .push("resolutions", resolutions)
        .push("conflicts", conflicts)
        .build()
}

/// The stable string for an outcome.
fn outcome_label(outcome: &ConflictOutcome) -> &'static str {
    match outcome {
        ConflictOutcome::Internal(_) => "internal",
        ConflictOutcome::Completed(ExampleKind::Unifying) => "unifying",
        ConflictOutcome::Completed(ExampleKind::NonunifyingExhausted) => "nonunifying-exhausted",
        ConflictOutcome::Completed(ExampleKind::NonunifyingTimeout) => "nonunifying-timeout",
        ConflictOutcome::Completed(ExampleKind::NonunifyingSkipped) => "nonunifying-skipped",
        ConflictOutcome::Completed(ExampleKind::Cancelled) => "cancelled",
    }
}

/// The stable string naming a chain step's relation.
fn step_kind(step: &ChainStep) -> &'static str {
    match step {
        ChainStep::Lookback { .. } => "lookback",
        ChainStep::Includes { .. } => "includes",
        ChainStep::Reads { .. } => "reads",
        ChainStep::DirectRead { .. } => "direct-read",
    }
}

/// Renders a provenance chain as an array of `{relation, text}` objects.
fn chain_document(g: &Grammar, chain: &[ChainStep]) -> Json {
    Json::Arr(
        chain
            .iter()
            .map(|s| {
                obj()
                    .push("relation", Json::str(step_kind(s)))
                    .push("text", Json::str(render_chain_step(g, s)))
                    .build()
            })
            .collect(),
    )
}

/// Renders a dense terminal-index set as an array of display names.
fn lookahead_document(g: &Grammar, tindices: &[usize]) -> Json {
    Json::Arr(
        tindices
            .iter()
            .map(|&t| Json::str(g.display_name(g.terminal(t))))
            .collect(),
    )
}

/// The optional `provenance` member of a conflict document.
///
/// `corroborated` is the §5 join: `true` when the search proved the
/// candidate genuinely ambiguous with a unifying example.
fn conflict_provenance_document(
    g: &Grammar,
    outcome: &ProvenanceOutcome,
    corroborated: bool,
) -> Json {
    let p = match outcome {
        ProvenanceOutcome::Classified(p) => p,
        ProvenanceOutcome::Internal(e) => {
            return obj()
                .push("classification", Json::Null)
                .push(
                    "internal",
                    obj()
                        .push("phase", Json::str(e.phase))
                        .push("message", Json::str(&e.message))
                        .build(),
                )
                .build();
        }
    };
    obj()
        .push("classification", Json::str(p.classification.label()))
        .push("lr1_checked", Json::Bool(p.lr1_checked))
        .push("corroborated", Json::Bool(corroborated))
        .push("chain", chain_document(g, &p.chain))
        .push(
            "merge",
            match &p.merge {
                Some(m) => obj()
                    .push("merged_state", Json::num(m.merged_state.index() as u32))
                    .push("variant_count", Json::num(m.variant_count as u32))
                    .push(
                        "variants",
                        Json::Arr(
                            m.variants
                                .iter()
                                .map(|v| {
                                    obj()
                                        .push(
                                            "reduce_lookahead",
                                            lookahead_document(g, &v.reduce_lookahead),
                                        )
                                        .push(
                                            "other_lookahead",
                                            lookahead_document(g, &v.other_lookahead),
                                        )
                                        .build()
                                })
                                .collect(),
                        ),
                    )
                    .build(),
                None => Json::Null,
            },
        )
        .build()
}

/// The `provenance` member of a resolution document.
fn resolution_provenance_document(g: &Grammar, rp: &lalrcex_core::ResolutionProvenance) -> Json {
    obj()
        .push("classification", Json::str(rp.classification.label()))
        .push("chain", chain_document(g, &rp.chain))
        .build()
}

fn conflict_document(g: &Grammar, r: &ConflictReport, prov: Option<&ProvenanceOutcome>) -> Json {
    let c = &r.conflict;
    let kind = match c.kind {
        ConflictKind::ShiftReduce { .. } => "shift-reduce",
        ConflictKind::ReduceReduce { .. } => "reduce-reduce",
    };
    let mut b = obj()
        .push("state", Json::num(c.state.index() as u32))
        .push("terminal", Json::str(g.display_name(c.terminal)))
        .push("kind", Json::str(kind))
        .push(
            "reduce_item",
            Json::str(display_item_cup(g, c.reduce_item(g))),
        )
        .push(
            "other_item",
            Json::str(display_item_cup(g, c.other_item(g))),
        )
        .push("outcome", Json::str(outcome_label(&r.outcome)));

    b = b.push(
        "internal",
        match &r.outcome {
            ConflictOutcome::Internal(e) => obj()
                .push("phase", Json::str(e.phase))
                .push("message", Json::str(&e.message))
                .push(
                    "location",
                    e.location.as_deref().map_or(Json::Null, Json::str),
                )
                .build(),
            ConflictOutcome::Completed(_) => Json::Null,
        },
    );

    b = b.push(
        "unifying",
        match &r.unifying {
            Some(u) => obj()
                .push("nonterminal", Json::str(g.display_name(u.nonterminal)))
                .push("sentence", Json::str(u.derivation1.flat(g)))
                .push("derivation_reduce", Json::str(u.derivation1.pretty(g)))
                .push("derivation_other", Json::str(u.derivation2.pretty(g)))
                .build(),
            None => Json::Null,
        },
    );

    b = b.push(
        "nonunifying",
        match &r.nonunifying {
            Some(n) => {
                let mut nb = obj()
                    .push(
                        "example_reduce",
                        Json::str(flat_top(g, &n.reduce_derivation)),
                    )
                    .push(
                        "derivation_reduce",
                        Json::str(pretty_top(g, &n.reduce_derivation)),
                    );
                nb = match &n.other_derivation {
                    Some(o) => nb
                        .push("example_other", Json::str(flat_top(g, o)))
                        .push("derivation_other", Json::str(pretty_top(g, o))),
                    None => nb
                        .push("example_other", Json::Null)
                        .push("derivation_other", Json::Null),
                };
                nb.build()
            }
            None => Json::Null,
        },
    );

    if let Some(outcome) = prov {
        b = b.push(
            "provenance",
            conflict_provenance_document(g, outcome, r.unifying.is_some()),
        );
    }

    b.build()
}
