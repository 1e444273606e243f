//! Metric declarations, the human-readable table, the provenance record
//! and the one-line JSON result.

use std::fmt::Write as _;

/// What produced a number. Measured and modelled seconds are never added
/// together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall clock (or host memory) on this machine.
    Measured,
    /// `CostModel` device seconds or the simulated serving clock.
    Modelled,
    /// A count or a ratio of counts.
    Count,
}

impl Kind {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modelled => "modelled",
            Kind::Count => "count",
        }
    }
}

/// A declared metric: the name, unit and direction `BENCHMARK.json`
/// carries, plus its kind.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured, modelled or count.
    pub kind: Kind,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
}

const fn decl(name: &'static str, unit: &'static str, kind: Kind, lower: bool) -> Decl {
    Decl {
        name,
        unit,
        kind,
        lower_is_better: lower,
    }
}

use Kind::{Count, Measured, Modelled};

/// End-to-end metrics, reported by every workload with `--trace 0`. A
/// "step" is a training iteration, or one replay of the request trace
/// through `serve_trace`; the workload-specific name each stands for is
/// printed next to it. The median step time is an information line: on a
/// shared host its run-to-run spread exceeds any bound the contract
/// allows (README.md).
pub const END_TO_END: [Decl; 7] = [
    decl("setup_s", "s", Measured, true),
    decl("peak_rss_mb", "MB", Measured, true),
    decl("host_throughput_per_s", "1/s", Measured, false),
    decl("host_step_tail_s", "s", Measured, true),
    decl("micro_batches_per_step", "count", Count, true),
    decl("modelled_mean_ms", "ms", Modelled, true),
    decl("modelled_max_rate_per_s", "1/s", Modelled, false),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. Times
/// are seconds of self time per step that used the layer.
pub const PER_LAYER: [Decl; 29] = [
    decl("sampling.sample_s", "s", Measured, true),
    decl("sampling.edges", "count", Count, true),
    decl("bucketing.schedule_s", "s", Measured, true),
    decl("bucketing.groups", "count", Count, true),
    decl("bucketing.imbalance", "ratio", Count, true),
    decl("bucketing.estimate_err", "ratio", Count, true),
    decl("bucketing.split_frac", "ratio", Count, true),
    decl("blocks.restrict_s", "s", Measured, true),
    decl("blocks.generate_s", "s", Measured, true),
    decl("blocks.edges", "count", Count, true),
    decl("blocks.redundancy", "ratio", Count, true),
    decl("graph.gather_s", "s", Measured, true),
    decl("graph.gather_bytes", "B", Count, true),
    decl("graph.gather_gbps", "GB/s", Measured, false),
    decl("models.forward_s", "s", Measured, true),
    decl("models.backward_s", "s", Measured, true),
    decl("models.loss_s", "s", Measured, true),
    decl("models.forward_gflops", "GFLOP/s", Measured, false),
    decl("models.backward_p99_over_p50", "ratio", Measured, true),
    decl("optim.step_s", "s", Measured, true),
    decl("checkpoint.save_s", "s", Measured, true),
    decl("checkpoint.bytes", "B", Count, true),
    decl("memsim.compute_s", "s", Modelled, true),
    decl("memsim.transfer_s", "s", Modelled, true),
    decl("memsim.peak_frac", "ratio", Modelled, true),
    decl("engine.step_s", "s", Measured, true),
    decl("engine.self_s", "s", Measured, true),
    decl("engine.seeds_per_step", "count", Count, false),
    decl("bench.trace_overhead_frac", "ratio", Measured, true),
];

/// One reported value.
#[derive(Debug, Clone)]
struct Value {
    decl: Decl,
    value: f64,
    note: String,
}

/// Collects a run's metrics, notes and gate failures, then prints them.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<Value>,
    info: Vec<String>,
    /// Gate failures; non-empty means the outputs were wrong.
    pub failures: Vec<String>,
    /// Operations attempted (iterations, or requests offered).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Report {
    /// Records declared metric `name`. `note` names the workload-specific
    /// metric it stands for on this workload, or how it was derived.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let decl = *END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        self.values.push(Value {
            decl,
            value,
            note: note.into(),
        });
    }

    /// Adds an informational line (printed, not part of the result).
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Records a gate outcome; a passing gate is noted once.
    pub fn gate(&mut self, name: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => {
                let line = format!("gate {name}: ok");
                if !self.info.contains(&line) {
                    self.info.push(line);
                }
            }
            Err(e) => self.failures.push(format!("{name}: {e}")),
        }
    }

    /// Prints the table and, as the last line, the JSON result for
    /// `declared`. Returns whether every gate passed and every declared
    /// metric was reported finite.
    pub fn finish(mut self, declared: &[Decl]) -> bool {
        for d in declared {
            match self.values.iter().find(|v| v.decl.name == d.name) {
                None => self
                    .failures
                    .push(format!("metric {} not reported", d.name)),
                Some(v) if !v.value.is_finite() => self
                    .failures
                    .push(format!("metric {} is {}", d.name, v.value)),
                Some(_) => {}
            }
        }
        for line in &self.info {
            println!("{line}");
        }
        println!(
            "{:<30} {:>16} {:<8} {:<9} note",
            "metric", "value", "unit", "kind"
        );
        for v in &self.values {
            println!(
                "{:<30} {:>16.6} {:<8} {:<9} {}",
                v.decl.name,
                v.value,
                v.decl.unit,
                v.decl.kind.as_str(),
                v.note
            );
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let correct = self.failures.is_empty();
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for d in declared {
            if let Some(v) = self
                .values
                .iter()
                .find(|v| v.decl.name == d.name && v.value.is_finite())
            {
                let _ = write!(
                    json,
                    "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    if first { "" } else { ", " },
                    d.name,
                    v.value,
                    d.unit
                );
                first = false;
            }
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

/// The git revision of the checkout, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host and configuration record stamped on every result.
pub fn provenance(workload: &str, seed: u64, kernel_threads: usize, simd: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features: Vec<String> = buffalo_simd::detected_features()
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect();
    let kinds: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|d| format!("\"{}\": \"{}\"", d.name, d.kind.as_str()))
        .collect();
    format!(
        "provenance {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"cpu_features\": {{{}}}, \"simd_backend\": \"{simd}\", \"kernel_threads\": {kernel_threads}, \
         \"git_revision\": {}, \"kinds\": {{{}}}}}",
        features.join(", "),
        git_revision().map_or_else(|| "null".to_string(), |r| format!("\"{r}\"")),
        kinds.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        assert!(names.iter().all(|n| crate::stats::valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
    }

    /// `BENCHMARK.json` lists exactly the metrics this program reports,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_declarations() {
        let json = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                if d.lower_is_better { "lower" } else { "higher" }
            );
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::WORKLOADS {
            assert!(crate::stats::valid_name(w), "{w}");
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        assert_eq!(json.matches("\"why\"").count(), crate::WORKLOADS.len());
    }

    #[test]
    fn result_line_reports_declared_metrics_only() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for d in &END_TO_END {
            r.set(d.name, 1.5, "");
        }
        r.set("graph.gather_s", 0.25, "");
        assert!(r.finish(&END_TO_END));
        let mut r = Report::default();
        r.set("setup_s", f64::NAN, "");
        assert!(!r.finish(&END_TO_END), "missing and NaN metrics fail");
    }
}
