//! Deterministic renderers for lint diagnostics: a compiler-style text
//! format and a JSON format built with the workspace's JSON writer.
//!
//! Both renderers are pure functions of their inputs, so output is
//! byte-identical across runs — a property the committed corpus snapshots
//! rely on.

use crate::{Diagnostic, Span};
use lalrcex_core::json::{obj, Json};
use std::fmt::Write as _;

/// Renders diagnostics in a `file:line: severity[name/id] message` compiler
/// style, one primary line per diagnostic plus indented `note:` lines for
/// related locations.
///
/// Diagnostics without a span print `file:-:` so every line still starts
/// with the file name (grep-friendly).
pub fn render_text(file: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        match d.span {
            Some(s) => {
                let _ = write!(out, "{}:{}: ", file, s.line);
            }
            None => {
                let _ = write!(out, "{}:-: ", file);
            }
        }
        let _ = writeln!(
            out,
            "{}[{}/{}] {}",
            d.severity.label(),
            d.code.name,
            d.code.id,
            d.message
        );
        for r in &d.related {
            match r.span {
                Some(s) => {
                    let _ = writeln!(out, "    note: {} ({}:{})", r.message, file, s.line);
                }
                None => {
                    let _ = writeln!(out, "    note: {}", r.message);
                }
            }
        }
    }
    out
}

/// The diagnostics as a JSON array, in the shape `lalrcex lint --format
/// json` and the serve `lint` reply both carry:
///
/// ```json
/// [{"id":"L001","name":"...","severity":"warning","message":"...","line":3,
///   "related":[{"message":"...","line":1}]}]
/// ```
///
/// `line` is `null` when the grammar carries no source information.
pub fn diagnostics_json(diags: &[Diagnostic]) -> Json {
    let line = |span: Option<Span>| span.map_or(Json::Null, |s| Json::num(s.line));
    Json::Arr(
        diags
            .iter()
            .map(|d| {
                let related = d
                    .related
                    .iter()
                    .map(|r| {
                        obj()
                            .push("message", Json::str(&r.message))
                            .push("line", line(r.span))
                            .build()
                    })
                    .collect();
                obj()
                    .push("id", Json::str(d.code.id))
                    .push("name", Json::str(d.code.name))
                    .push("severity", Json::str(d.severity.label()))
                    .push("message", Json::str(&d.message))
                    .push("line", line(d.span))
                    .push("related", Json::Arr(related))
                    .build()
            })
            .collect(),
    )
}

/// Renders diagnostics as a JSON document,
/// `{"file":"g.y","diagnostics":[...]}` (see [`diagnostics_json`]), plus a
/// trailing newline.
pub fn render_json(file: &str, diags: &[Diagnostic]) -> String {
    let doc = obj()
        .push("file", Json::str(file))
        .push("diagnostics", diagnostics_json(diags))
        .build();
    format!("{doc}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lint;
    use lalrcex_grammar::Grammar;

    #[test]
    fn text_format_is_compiler_style() {
        let g = Grammar::parse("%% s : 'x' ;\ndead : 'y' ;\n").unwrap();
        let diags = lint(&g);
        let text = render_text("g.y", &diags);
        assert!(
            text.contains("g.y:2: warning[unreachable-nonterminal/L001]"),
            "got: {text}"
        );
    }

    #[test]
    fn json_is_wellformed() {
        let g = Grammar::parse("%% s : 'x' ;\ndead : 'y' ;\n").unwrap();
        let diags = lint(&g);
        let json = render_json("g.y", &diags);
        assert!(json.starts_with("{\"file\":\"g.y\",\"diagnostics\":["));
        assert!(json.ends_with("]}\n"));
        // Crude balance check: equal numbers of braces/brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        let lb = json.matches('[').count();
        let rb = json.matches(']').count();
        assert_eq!(lb, rb);
    }

    #[test]
    fn json_strings_are_escaped() {
        use crate::{Diagnostic, LintCode, Severity};
        let d = Diagnostic {
            code: LintCode {
                id: "L999",
                name: "test",
            },
            severity: Severity::Info,
            message: "quote \" backslash \\ newline \n control \u{1}".into(),
            span: None,
            related: vec![],
        };
        let json = render_json("g\".y", std::slice::from_ref(&d));
        assert!(json.contains("\"file\":\"g\\\".y\""));
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n control \\u0001"));
    }

    #[test]
    fn renderers_are_deterministic() {
        let g = Grammar::parse("%token A B\n%% s : 'x' ;\ndead : 'y' ;\n").unwrap();
        let d1 = lint(&g);
        let d2 = lint(&g);
        assert_eq!(render_text("g.y", &d1), render_text("g.y", &d2));
        assert_eq!(render_json("g.y", &d1), render_json("g.y", &d2));
    }

    #[test]
    fn spanless_diagnostics_render() {
        use crate::{Diagnostic, LintCode, Severity};
        let d = Diagnostic {
            code: LintCode {
                id: "L999",
                name: "test",
            },
            severity: Severity::Info,
            message: "no span".into(),
            span: None,
            related: vec![],
        };
        let text = render_text("g.y", std::slice::from_ref(&d));
        assert!(text.starts_with("g.y:-: info[test/L999] no span"));
        let json = render_json("g.y", std::slice::from_ref(&d));
        assert!(json.contains("\"line\":null"));
    }
}
