//! The benchmark's own arithmetic: medians, quartiles, tail percentiles,
//! failure accounting and the wall-time reconciliation. Everything the
//! final JSON line reports passes through here, so it is unit-tested.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here is the spread a reader recomputes from the
/// runs. Needs at least two values; fewer give `(v, v)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// every figure is printed with. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of the percentiles p50, p90, p99, p99.9, p99.99 that still
/// has at least `min_beyond` of `samples` above it, or `None` when even
/// the median has too few. A tail figure with fewer samples beyond it is
/// one or two unlucky values, not a percentile.
pub fn highest_supported_quantile(samples: u64, min_beyond: u64) -> Option<f64> {
    const LADDER: [(u64, f64); 5] = [
        (2, 0.5),
        (10, 0.9),
        (100, 0.99),
        (1_000, 0.999),
        (10_000, 0.9999),
    ];
    LADDER
        .iter()
        .rev()
        .find(|(denominator, _)| samples / denominator >= min_beyond)
        .map(|&(_, q)| q)
}

/// Attempted and failed operations of one run. A failed operation is a
/// message that was not delivered exactly once within its age budget; a
/// run whose correctness check fails counts all its messages as failed,
/// so a failure is never dropped from the ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailLedger {
    /// Messages offered.
    pub attempted: u64,
    /// Messages that failed.
    pub failed: u64,
}

impl FailLedger {
    /// Account one repetition that offered `offered` messages of which
    /// `good` arrived exactly once and on time. `run_ok` is false for an
    /// aborted or degraded run, or one whose check failed: then every
    /// offered message counts as failed.
    pub fn add(&mut self, offered: u64, good: u64, run_ok: bool) {
        self.attempted += offered;
        self.failed += if run_ok {
            offered.saturating_sub(good)
        } else {
            offered
        };
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One line of the reconciliation: a layer's measured cost per operation
/// times the number of operations the traced run counted, or a span the
/// benchmark timed directly (`count` 1, `ns_per_op` the span).
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// What the term covers (`wire.encode_into_ns × encode events`, …).
    pub name: String,
    /// Measured nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations counted.
    pub count: f64,
}

impl Term {
    /// A per-operation term.
    pub fn per_op(name: &str, ns_per_op: f64, count: u64) -> Term {
        Term {
            name: name.to_string(),
            ns_per_op,
            count: count as f64,
        }
    }

    /// A directly timed span.
    pub fn span(name: &str, ns: f64) -> Term {
        Term {
            name: name.to_string(),
            ns_per_op: ns,
            count: 1.0,
        }
    }

    /// Nanoseconds the term accounts for.
    pub fn ns(&self) -> f64 {
        self.ns_per_op * self.count
    }
}

/// Σ(cost × count) against the wall time it should explain.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    /// The terms, in print order.
    pub terms: Vec<Term>,
    /// Wall nanoseconds of the traced pass being explained.
    pub wall_ns: f64,
}

impl Reconciliation {
    /// Nanoseconds the terms account for.
    pub fn explained_ns(&self) -> f64 {
        self.terms.iter().map(Term::ns).sum()
    }

    /// Explained share of the wall time (may exceed 1 when layer costs
    /// measured in isolation overstate their cost inside the workload).
    pub fn explained_frac(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            0.0
        } else {
            self.explained_ns() / self.wall_ns
        }
    }

    /// Human-readable table: one line per term with its share of the
    /// wall time, then the total and the unexplained share.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let share = |ns: f64| {
            if self.wall_ns > 0.0 {
                ns / self.wall_ns
            } else {
                0.0
            }
        };
        for t in &self.terms {
            out.push_str(&format!(
                "reconcile {workload} {:<52} {:>14.1} ns/op x {:>12.0} = {:>9.4} s ({:>6.1}%)\n",
                t.name,
                t.ns_per_op,
                t.count,
                t.ns() / 1e9,
                100.0 * share(t.ns()),
            ));
        }
        let explained = self.explained_frac();
        out.push_str(&format!(
            "reconcile {workload} explained {:.4} s of wall {:.4} s: explained_frac {:.4}, unexplained {:.4}\n",
            self.explained_ns() / 1e9,
            self.wall_ns / 1e9,
            explained,
            1.0 - explained,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: the
        // exclusive method extrapolates past the data for tiny samples.
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(19, 10), None);
        assert_eq!(highest_supported_quantile(20, 10), Some(0.5));
        assert_eq!(highest_supported_quantile(99, 10), Some(0.5));
        assert_eq!(highest_supported_quantile(100, 10), Some(0.9));
        assert_eq!(highest_supported_quantile(9_999, 10), Some(0.99));
        assert_eq!(highest_supported_quantile(10_000, 10), Some(0.999));
        assert_eq!(highest_supported_quantile(20_000, 10), Some(0.999));
        assert_eq!(highest_supported_quantile(100_000, 10), Some(0.9999));
        // p99.9 of 20 000 samples has 20 beyond it: at least ten.
        let q = highest_supported_quantile(20_000, 10).unwrap();
        assert!((20_000.0 * (1.0 - q)).round() >= 10.0);
    }

    #[test]
    fn fail_ledger_counts_an_aborted_run_as_all_its_messages() {
        let mut ledger = FailLedger::default();
        ledger.add(10_000, 10_000, true);
        assert_eq!(ledger.failed, 0);
        // A degraded io run that still delivered 9 990 counts all 10 000.
        ledger.add(10_000, 9_990, false);
        assert_eq!(ledger.attempted, 20_000);
        assert_eq!(ledger.failed, 10_000);
        // A complete run with 3 aged deliveries fails exactly those 3.
        ledger.add(20_000, 19_997, true);
        assert_eq!(ledger.failed, 10_003);
        assert!((ledger.ratio() - 10_003.0 / 40_000.0).abs() < 1e-15);
        assert_eq!(FailLedger::default().ratio(), 0.0);
    }

    #[test]
    fn reconciliation_sums_cost_times_count_against_wall() {
        let r = Reconciliation {
            terms: vec![
                Term::per_op("a", 100.0, 1_000),
                Term::per_op("b", 2.5, 4_000),
                Term::span("merge", 50_000.0),
            ],
            wall_ns: 400_000.0,
        };
        assert_eq!(r.explained_ns(), 100_000.0 + 10_000.0 + 50_000.0);
        assert!((r.explained_frac() - 0.4).abs() < 1e-15);
        let text = r.render("w");
        assert!(text.contains("explained_frac 0.4000, unexplained 0.6000"));
        assert_eq!(text.lines().count(), 4);
        let empty = Reconciliation {
            terms: vec![],
            wall_ns: 0.0,
        };
        assert_eq!(empty.explained_frac(), 0.0);
    }
}
