//! The span recorder behind the traced run, and the small statistics the
//! benchmark reports (percentiles, medians, self times).
//!
//! Spans live in memory; [`Recorder::write_tsv`] writes them out once, at
//! exit. Layer spans are recorded by the benchmark around its calls into
//! each layer's public functions, never from inside the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The op (one benchmark operation) the span belongs to.
    pub op: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it is stored with its start time at once (so children
    /// can name it as parent) and closed by [`Recorder::close`].
    pub fn open(&self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().unwrap_or_else(|e| e.into_inner())[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes every span as one TSV line: name, op, start_ns, end_ns,
    /// parent index (or `-`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("name\top\tstart_ns\tend_ns\tparent\n");
        for s in self.spans() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start, s.end, parent
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-layer self time and whole-trace coverage.
#[derive(Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Self time (ns) per span name: duration minus the part its children
    /// cover.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration (ns) of the root (op) spans.
    pub op_ns: u64,
    /// Part of the op spans no child span covers (ns).
    pub unaccounted_ns: u64,
}

impl Breakdown {
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    pub fn unaccounted_frac(&self) -> f64 {
        ratio(self.unaccounted_ns as f64, self.op_ns as f64)
    }
}

/// Computes self times of every span and the unaccounted share of the root
/// spans.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut b = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        let cover = covered(&mut children[i], s.start, s.end);
        let own = s.duration() - cover.min(s.duration());
        *b.self_ns.entry(s.name).or_insert(0) += own;
        if s.parent.is_none() {
            b.op_ns += s.duration();
            b.unaccounted_ns += own;
        }
    }
    b
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Percentile `p` (0–100) by linear interpolation between closest ranks;
/// 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100): parse [0,10), two overlapping searches [20,60) and
        // [40,80) (parallel workers), render [90,95).
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("search", 20, 60, Some(0)),
            span("search", 40, 80, Some(0)),
            span("render", 90, 95, Some(0)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.op_ns, 100);
        // Covered: 10 + 60 (union of the searches) + 5 = 75.
        assert_eq!(b.self_ns("op"), 25);
        assert_eq!(b.unaccounted_ns, 25);
        assert_eq!(b.self_ns("search"), 80);
        assert_eq!(b.self_ns("parse"), 10);
        assert!((b.unaccounted_frac() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nested_children_are_clipped_to_the_parent() {
        let spans = vec![
            span("op", 0, 50, None),
            span("layer", 10, 40, Some(0)),
            span("inner", 30, 45, Some(1)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.self_ns("layer"), 20, "only [30,40) of inner is inside");
        assert_eq!(b.self_ns("inner"), 15);
        assert_eq!(b.unaccounted_ns, 20);
    }

    #[test]
    fn recorder_keeps_parents_and_ops() {
        let r = Recorder::new();
        let op = r.open("op", 7, None);
        r.span("child", 7, Some(op), || std::hint::black_box(1 + 1));
        r.close(op);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
