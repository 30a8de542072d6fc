//! What a run reports: named metrics with units, the correctness checks
//! with the failure ledger, and the result line.

use std::time::Instant;

use mmt_telemetry::json::{self, JsonObject};

use crate::stats::FailLedger;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness findings and the failure ledger of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Every failed check, in order.
    pub problems: Vec<String>,
    /// Attempted and failed operations.
    pub ledger: FailLedger,
}

impl Checks {
    /// Record a check; `what` describes the failure and is only built
    /// when `ok` is false. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let what = what();
            println!("check FAILED: {what}");
            self.problems.push(what);
        }
        ok
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Repeat `rep` while one more repetition of the mean length so far
/// still fits in `seconds`, and at least `min` times.
pub fn repeat(seconds: f64, min: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        rep(n);
        n += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if n >= min && elapsed + elapsed / n as f64 > seconds {
            return;
        }
    }
}

/// Print every metric with its unit, then the result line (last line of
/// standard output).
pub fn emit(checks: &Checks, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<36} {:>18} {}",
            m.name,
            json::number(m.value),
            m.unit
        );
    }
    println!(
        "fail_ratio {} ({} failed of {} attempted)",
        json::number(checks.ledger.ratio()),
        checks.ledger.failed,
        checks.ledger.attempted
    );
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{}",
                json::escape(m.name),
                JsonObject::new()
                    .f64("value", m.value)
                    .str("unit", m.unit)
                    .finish()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", checks.correct())
            .u64("attempted", checks.ledger.attempted)
            .u64("failed", checks.ledger.failed)
            .raw("metrics", &format!("{{{body}}}"))
            .finish()
    );
}
