//! The result line and the human-readable summary.

use std::collections::BTreeMap;

use crate::{Args, END_TO_END, PER_LAYER};

/// What one run measured and whether every answer checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra lines for the summary on standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed correctness check (the run still reports).
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", what.into()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line. End-to-end metrics must all be present (a
    /// missing one is a bug in the workload); per-layer metrics a
    /// workload never touches report 0.
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("workload did not report end-to-end metric {name}"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn summary(&self, args: &Args) -> String {
        let mut out = format!(
            "{} seed={} seconds={} trace={}: correct={} attempted={} failed={}\n",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.correct,
            self.attempted,
            self.failed
        );
        for (name, value) in &self.metrics {
            out.push_str(&format!("  {name:<30} {value:.6}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        out
    }
}

/// Shortest round-trip decimal form; integers keep a `.0`-free form.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}
