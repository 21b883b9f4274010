//! The committed known-answer ledger (`perfbench/ledger.txt`).
//!
//! One line per expected result, `kind name key=value ...`:
//!
//! ```text
//! corpus xi conflicts=6 unifying=4 exhausted=0 cutoffs=2 clock_cutoffs=0 internal=0 explored=2180772 report=9f0c...
//! verify stress states=5101 productions=2403
//! ```
//!
//! `corpus` lines pin each `corpus_cex` grammar's verdict tallies, how many
//! of its searches the per-conflict clock (not a work cap) ended, its
//! explored-configuration count and an FNV-1a hash of its text report, so a
//! search cut off by the clock on a slow host is a failure, not noise. For a
//! row the workload names clock-bound, only the tallies and the report are
//! compared: how far its clock-limited search gets depends on host speed.
//! `verify` lines pin the LR(0) state count each `verify_large` input class
//! must verify with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The outcome of one `corpus_cex` grammar, as pinned in the ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorpusResult {
    pub conflicts: u64,
    pub unifying: u64,
    pub exhausted: u64,
    pub cutoffs: u64,
    /// Cutoffs where the search ran into the per-conflict clock.
    pub clock_cutoffs: u64,
    pub internal: u64,
    pub explored: u64,
    /// FNV-1a of the rendered text report.
    pub report: u64,
}

impl CorpusResult {
    /// Conflicts that got a verdict without a cutoff.
    pub fn decided(&self) -> u64 {
        self.unifying + self.exhausted
    }

    fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("conflicts", self.conflicts),
            ("unifying", self.unifying),
            ("exhausted", self.exhausted),
            ("cutoffs", self.cutoffs),
            ("clock_cutoffs", self.clock_cutoffs),
            ("internal", self.internal),
            ("explored", self.explored),
        ]
    }
}

/// The expected shape of one `verify_large` input class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyResult {
    pub states: u64,
    pub productions: u64,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub corpus: BTreeMap<String, CorpusResult>,
    pub verify: BTreeMap<String, VerifyResult>,
}

impl Ledger {
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let mut ledger = Ledger::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let (Some(kind), Some(name)) = (words.next(), words.next()) else {
                return Err(format!("ledger line {}: expected `kind name ...`", n + 1));
            };
            let mut kv = BTreeMap::new();
            for w in words {
                let (k, v) = w
                    .split_once('=')
                    .ok_or_else(|| format!("ledger line {}: `{w}` is not key=value", n + 1))?;
                kv.insert(k, v);
            }
            let num = |k: &str| -> Result<u64, String> {
                kv.get(k)
                    .ok_or_else(|| format!("ledger line {}: missing `{k}`", n + 1))?
                    .parse()
                    .map_err(|_| format!("ledger line {}: bad number for `{k}`", n + 1))
            };
            match kind {
                "corpus" => {
                    let report = kv
                        .get("report")
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| format!("ledger line {}: bad `report`", n + 1))?;
                    let r = CorpusResult {
                        conflicts: num("conflicts")?,
                        unifying: num("unifying")?,
                        exhausted: num("exhausted")?,
                        cutoffs: num("cutoffs")?,
                        clock_cutoffs: num("clock_cutoffs")?,
                        internal: num("internal")?,
                        explored: num("explored")?,
                        report,
                    };
                    ledger.corpus.insert(name.to_owned(), r);
                }
                "verify" => {
                    let r = VerifyResult {
                        states: num("states")?,
                        productions: num("productions")?,
                    };
                    ledger.verify.insert(name.to_owned(), r);
                }
                other => return Err(format!("ledger line {}: unknown kind `{other}`", n + 1)),
            }
        }
        Ok(ledger)
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Known answers for the lalrcex benchmark; regenerate with\n\
             # `bash perfbench/run.sh --write-ledger` after a deliberate change.\n",
        );
        for (name, r) in &self.corpus {
            let _ = write!(out, "corpus {name}");
            for (k, v) in r.fields() {
                let _ = write!(out, " {k}={v}");
            }
            let _ = writeln!(out, " report={:016x}", r.report);
        }
        for (name, r) in &self.verify {
            let _ = writeln!(
                out,
                "verify {name} states={} productions={}",
                r.states, r.productions
            );
        }
        out
    }

    /// Compares one corpus grammar's outcome with its pinned answer;
    /// returns a description of every difference. A `clock_bound` row is
    /// not held to its explored and clock-cutoff counts.
    pub fn check_corpus(&self, name: &str, got: &CorpusResult, clock_bound: bool) -> Vec<String> {
        let Some(want) = self.corpus.get(name) else {
            return vec![format!("{name}: not in the ledger")];
        };
        let mut diffs: Vec<String> = want
            .fields()
            .iter()
            .zip(got.fields())
            .filter(|(w, g)| w.1 != g.1)
            .filter(|(w, _)| !(clock_bound && matches!(w.0, "explored" | "clock_cutoffs")))
            .map(|(w, g)| format!("{name}: {} expected {} got {}", w.0, w.1, g.1))
            .collect();
        if want.report != got.report {
            diffs.push(format!("{name}: text report differs from the pinned one"));
        }
        diffs
    }

    pub fn check_verify(&self, class: &str, got: VerifyResult) -> Vec<String> {
        match self.verify.get(class) {
            None => vec![format!("{class}: not in the ledger")],
            Some(&want) if want != got => vec![format!("{class}: expected {want:?} got {got:?}")],
            Some(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Ledger, CorpusResult) {
        let r = CorpusResult {
            conflicts: 3,
            unifying: 2,
            exhausted: 0,
            cutoffs: 1,
            clock_cutoffs: 0,
            internal: 0,
            explored: 4978,
            report: fnv64(b"report text"),
        };
        let mut ledger = Ledger::default();
        ledger.corpus.insert("figure1".into(), r.clone());
        ledger.verify.insert(
            "stress".into(),
            VerifyResult {
                states: 10,
                productions: 20,
            },
        );
        (ledger, r)
    }

    #[test]
    fn render_and_parse_round_trip() {
        let (ledger, _) = sample();
        assert_eq!(Ledger::parse(&ledger.render()).unwrap(), ledger);
    }

    #[test]
    fn matching_results_pass() {
        let (ledger, r) = sample();
        assert!(ledger.check_corpus("figure1", &r, false).is_empty());
        let v = VerifyResult {
            states: 10,
            productions: 20,
        };
        assert!(ledger.check_verify("stress", v).is_empty());
    }

    #[test]
    fn a_corrupted_report_is_flagged() {
        let (ledger, mut r) = sample();
        r.report = fnv64(b"report texT");
        let diffs = ledger.check_corpus("figure1", &r, false);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("text report differs"));
    }

    #[test]
    fn a_clock_cutoff_shows_as_an_explored_count_mismatch() {
        let (ledger, mut r) = sample();
        r.explored -= 1;
        let diffs = ledger.check_corpus("figure1", &r, false);
        assert_eq!(
            diffs,
            vec!["figure1: explored expected 4978 got 4977".to_owned()]
        );
        assert!(!ledger.check_corpus("unknown", &r, false).is_empty());
        let v = VerifyResult {
            states: 11,
            productions: 20,
        };
        assert_eq!(ledger.check_verify("stress", v).len(), 1);
    }

    #[test]
    fn a_clock_cutoff_is_flagged_unless_the_row_is_clock_bound() {
        let (ledger, mut r) = sample();
        r.clock_cutoffs = 1;
        r.explored += 100;
        let diffs = ledger.check_corpus("figure1", &r, false);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(ledger.check_corpus("figure1", &r, true).is_empty());
        r.cutoffs += 1;
        assert_eq!(ledger.check_corpus("figure1", &r, true).len(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Ledger::parse("corpus x conflicts=1").is_err());
        assert!(Ledger::parse("bogus x a=1").is_err());
        assert!(Ledger::parse("verify x states=abc productions=1").is_err());
    }
}
