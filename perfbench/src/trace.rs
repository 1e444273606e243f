//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into the system in a span named
//! `<layer>.<operation>` after the crate that owns the call. Spans carry a
//! start, an end, the span that caused them and the step (iteration or
//! dispatch) they belong to. They stay in memory and are written out when
//! the run ends, as Chrome trace-event JSON and as a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin; `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The step (training iteration or serving dispatch) the span is part
    /// of, shared by all spans of that step.
    pub step: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the step identifier the next spans carry.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time in seconds: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Self time aggregated over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed duration (self + children), seconds.
    pub total_s: f64,
    /// Spans of this name.
    pub calls: usize,
    /// Distinct steps that recorded a span of this name.
    pub steps: usize,
}

/// Aggregates self times by span name over the spans `keep` accepts.
pub fn by_name(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut last_step: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(selfs).filter(|(s, _)| keep(s)) {
        let row = out.entry(s.name).or_default();
        row.self_s += self_s;
        row.total_s += s.seconds();
        row.calls += 1;
        if last_step.insert(s.name, s.step) != Some(s.step) {
            row.steps += 1;
        }
    }
    out
}

/// Renders `spans` as Chrome trace-event JSON (complete `X` events, in
/// microseconds), which Perfetto and `chrome://tracing` open. Only the
/// first `limit` spans are written; `truncated` in the metadata says how
/// many were left out.
pub fn chrome_json(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.step,
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans\":{},\"truncated\":{}}}}}\n",
        spans.len(),
        spans.len().saturating_sub(limit)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let st: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(st, vec![30, 20, 10, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 120, Some(0)),
        ];
        let root = self_times(&spans)[0];
        assert_eq!((root * 1e9).round() as u64, 10, "only [0,10) is uncovered");
    }

    #[test]
    fn recorder_nests_and_aggregates_by_name() {
        let mut r = Recorder::default();
        for step in 0..3 {
            r.set_step(step);
            let outer = r.open("engine.step");
            r.time("models.forward", || std::hint::black_box(1 + 1));
            r.time("models.forward", || ());
            r.close(outer);
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        let rows = by_name(spans, |_| true);
        assert_eq!(rows["models.forward"].calls, 6);
        assert_eq!(rows["models.forward"].steps, 3);
        assert_eq!(rows["engine.step"].steps, 3);
        let late = by_name(spans, |s| s.step >= 1);
        assert_eq!(late["models.forward"].calls, 4);
        let json = chrome_json(spans, 4);
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(json.matches("\"ph\"").count(), 4);
        assert!(json.contains("\"truncated\":5"));
    }
}
