//! The many-flow scale bench: wall-clock throughput of the fleet under
//! 1/2/4(/N) shards, emitted as `BENCH_scale.json`.
//!
//! The simulator side ([`mmt_pilot::manyflow`] over
//! [`mmt_netsim::ShardedSim`]) is deliberately clock-free — the
//! determinism lint bans wall time inside sim-critical crates — so this
//! module owns every non-deterministic measurement: elapsed wall time,
//! packets/sec, events/sec, and the peak-RSS proxy read from
//! `/proc/self/status` (0 where unavailable).
//!
//! ## Per-flow memory cells
//!
//! `VmHWM` is monotone, so honesty about *per-flow* resident cost needs
//! careful ordering: the memory ladder ([`ScaleBenchConfig::memory_sensors`])
//! runs FIRST in the process — before the warm-up and the throughput
//! sweep — in ascending K, and each cell snapshots the high-water mark
//! right after its fleet completes. `peak_rss_per_flow_bytes` therefore
//! includes the process baseline amortized over K (pessimistic, never
//! flattering), and a later, larger run can never pollute an earlier,
//! smaller cell. [`check_budget`] turns the figures into a regression
//! gate against a checked-in budget file.

use std::time::Instant;

use mmt_netsim::SpanProfiler;
use mmt_pilot::manyflow::{self, ManyFlowConfig};
use mmt_telemetry::json::{self, JsonObject};

/// Parameters of a scale bench run.
#[derive(Debug, Clone)]
pub struct ScaleBenchConfig {
    /// Total sensors (K).
    pub sensors: usize,
    /// Packets each sensor emits.
    pub packets_per_sensor: usize,
    /// Shard counts to sweep; the first entry is the speedup baseline
    /// (conventionally 1, the serial run).
    pub shard_counts: Vec<usize>,
    /// Root seed (shared by every sweep point so digests must agree).
    pub seed: u64,
    /// Run every sweep point with the hot-path span profiler on and
    /// record the per-stage attribution in the result.
    pub profile: bool,
    /// Fleet sizes for the per-flow memory ladder, run before anything
    /// else in ascending order (see the module docs on `VmHWM`
    /// monotonicity). Empty = no memory cells.
    pub memory_sensors: Vec<usize>,
}

impl ScaleBenchConfig {
    /// The acceptance shape: K = 10 000 sensors, serial vs 2 and 4 shards,
    /// profiler on (the default `BENCH_scale.json` must attribute stages),
    /// memory cells at K = 10 000 and K = 100 000.
    pub fn full() -> ScaleBenchConfig {
        ScaleBenchConfig {
            sensors: 10_000,
            packets_per_sensor: 8,
            shard_counts: vec![1, 2, 4],
            seed: 1,
            profile: true,
            memory_sensors: vec![10_000, 100_000],
        }
    }

    /// A seconds-fast variant for CI smoke.
    pub fn quick() -> ScaleBenchConfig {
        ScaleBenchConfig {
            sensors: 256,
            packets_per_sensor: 4,
            shard_counts: vec![1, 2, 4],
            seed: 1,
            profile: false,
            memory_sensors: vec![256, 1024],
        }
    }

    /// With the span profiler on.
    #[must_use]
    pub fn with_profile(mut self) -> ScaleBenchConfig {
        self.profile = true;
        self
    }

    /// With the span profiler off (the `--profile 0` CLI override).
    #[must_use]
    pub fn without_profile(mut self) -> ScaleBenchConfig {
        self.profile = false;
        self
    }

    /// Replace the memory ladder (the `--sensors` CLI flag derives cells
    /// from the target K). Cells are sorted ascending — `VmHWM` is
    /// monotone, so any other order would corrupt the smaller cells.
    #[must_use]
    pub fn with_memory_sensors(mut self, cells: Vec<usize>) -> ScaleBenchConfig {
        self.memory_sensors = cells;
        self.memory_sensors.sort_unstable();
        self.memory_sensors.dedup();
        self
    }
}

/// One rung of the per-flow memory ladder.
#[derive(Debug, Clone)]
pub struct MemoryCell {
    /// Fleet size (K).
    pub sensors: usize,
    /// Packets the cell's fleet delivered (completeness check: the RSS
    /// figure is meaningless if the run died early).
    pub packets: u64,
    /// `VmHWM` right after this cell's fleet completed (kB).
    pub peak_rss_kb: u64,
    /// `peak_rss_kb × 1024 / sensors` — resident bytes per flow,
    /// process baseline included (see the module docs).
    pub peak_rss_per_flow_bytes: u64,
}

/// One sweep point: the fleet at a given shard count.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Shards used.
    pub shards: usize,
    /// Wall-clock nanoseconds for the whole fleet.
    pub wall_ns: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Delivered packets per wall-clock second.
    pub packets_per_sec: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Speedup over the first (baseline) row.
    pub speedup: f64,
    /// Merged digest — equal across rows or the bench is invalid.
    pub digest: u64,
    /// Each shard's share of events (sums to 1).
    pub shard_utilization: Vec<f64>,
}

/// The bench outcome: one row per shard count plus process-level context.
#[derive(Debug, Clone)]
pub struct ScaleBenchResult {
    /// The configuration measured.
    pub config: ScaleBenchConfig,
    /// One row per entry of `config.shard_counts`.
    pub rows: Vec<ScaleRow>,
    /// The per-flow memory ladder (one cell per
    /// `config.memory_sensors` entry, ascending K).
    pub memory: Vec<MemoryCell>,
    /// Peak resident set (kB) after the sweep — a proxy, read once at the
    /// end, so it reflects the largest configuration run.
    pub peak_rss_kb: u64,
    /// Cores available to this process. `ShardedSim` clamps its worker
    /// threads to this, so speedup is bounded by `min(shards, host_cores)`
    /// — a 1-core container reports ≈1× by construction.
    pub host_cores: usize,
    /// Per-stage span attribution from the baseline sweep point (zeroed
    /// unless `config.profile`); identical across shard counts, which the
    /// run asserts via the merged digests.
    pub profile: SpanProfiler,
}

impl ScaleBenchResult {
    /// Whether every row produced the same merged digest: the shard
    /// count may change wall time, never the outcome.
    pub fn deterministic(&self) -> bool {
        self.rows.windows(2).all(|w| w[0].digest == w[1].digest)
    }

    /// The best speedup over the baseline row.
    pub fn best_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.speedup).fold(0.0, f64::max)
    }

    /// Render as the `BENCH_scale.json` document.
    pub fn to_json(&self) -> String {
        // With the profiler off the span totals are all zero — emitting
        // them as rows would read as "profiled, and everything cost
        // nothing". Emit an explicit null instead.
        let profile = if self.config.profile {
            json::array(
                self.profile
                    .rows()
                    .into_iter()
                    .map(|(stage, events, vtime_ns)| {
                        JsonObject::new()
                            .str("stage", stage)
                            .u64("events", events)
                            .u64("vtime_ns", vtime_ns)
                            .finish()
                    }),
            )
        } else {
            "null".to_string()
        };
        let rows = self.rows.iter().map(|r| {
            JsonObject::new()
                .u64("shards", r.shards as u64)
                .u64("wall_ns", r.wall_ns)
                .u64("packets", r.packets)
                .u64("events", r.events)
                .f64("packets_per_sec", r.packets_per_sec)
                .f64("events_per_sec", r.events_per_sec)
                .f64("speedup", r.speedup)
                .str("digest", &format!("{:016x}", r.digest))
                .raw(
                    "shard_utilization",
                    &json::array(r.shard_utilization.iter().map(|u| json::number(*u))),
                )
                .finish()
        });
        let memory = self.memory.iter().map(|c| {
            JsonObject::new()
                .u64("sensors", c.sensors as u64)
                .u64("packets", c.packets)
                .u64("peak_rss_kb", c.peak_rss_kb)
                .u64("peak_rss_per_flow_bytes", c.peak_rss_per_flow_bytes)
                .finish()
        });
        JsonObject::new()
            .str("bench", "scale")
            .u64("sensors", self.config.sensors as u64)
            .u64("packets_per_sensor", self.config.packets_per_sensor as u64)
            .u64("seed", self.config.seed)
            .bool("deterministic", self.deterministic())
            .f64("best_speedup", self.best_speedup())
            .u64("peak_rss_kb", self.peak_rss_kb)
            .u64("host_cores", self.host_cores as u64)
            .raw("memory", &json::array(memory))
            .raw("rows", &json::array(rows))
            .raw("profile", &profile)
            .finish()
    }
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`);
/// 0 when the file or field is unavailable (non-Linux).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(char::is_ascii_digit).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// Run the sweep. Each shard count runs the *same* fleet (same seed, same
/// groups); only the thread layout differs, which is why the digests must
/// match and wall time may not.
pub fn run(cfg: &ScaleBenchConfig) -> ScaleBenchResult {
    let mut rows = Vec::with_capacity(cfg.shard_counts.len());
    // The memory ladder runs before anything else touches the heap in
    // anger: VmHWM is monotone, so each ascending cell's snapshot is the
    // true high-water mark of "process baseline + a K-flow fleet" and the
    // later throughput sweep cannot deflate or inflate it retroactively.
    let mut memory = Vec::with_capacity(cfg.memory_sensors.len());
    {
        let mut ladder = cfg.memory_sensors.clone();
        ladder.sort_unstable();
        for k in ladder {
            let mut fleet = ManyFlowConfig::fleet(k, 1, cfg.seed);
            fleet.packets_per_sensor = cfg.packets_per_sensor;
            let report = manyflow::run(&fleet);
            let rss_kb = peak_rss_kb();
            memory.push(MemoryCell {
                sensors: k,
                packets: report.shard.packets,
                peak_rss_kb: rss_kb,
                peak_rss_per_flow_bytes: rss_kb
                    .saturating_mul(1024)
                    .checked_div(k as u64)
                    .unwrap_or(0),
            });
        }
    }
    // Warm-up: run the full fleet once, unmeasured, so the first measured
    // row doesn't pay the process's page faults and allocator growth for
    // everyone (row order would otherwise masquerade as speedup).
    {
        let mut warm = ManyFlowConfig::fleet(cfg.sensors, 1, cfg.seed);
        warm.packets_per_sensor = cfg.packets_per_sensor;
        let _ = manyflow::run(&warm);
    }
    let mut profile = SpanProfiler::new();
    let mut baseline_wall_ns = 0u64;
    for &shards in &cfg.shard_counts {
        let mut fleet = ManyFlowConfig::fleet(cfg.sensors, shards, cfg.seed);
        fleet.packets_per_sensor = cfg.packets_per_sensor;
        fleet.profile = cfg.profile;
        let start = Instant::now();
        let report = manyflow::run(&fleet);
        let wall_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if baseline_wall_ns == 0 {
            baseline_wall_ns = wall_ns.max(1);
            profile = report.shard.profile.clone();
        }
        let secs = (wall_ns.max(1)) as f64 / 1e9;
        rows.push(ScaleRow {
            shards,
            wall_ns,
            packets: report.shard.packets,
            events: report.shard.events,
            packets_per_sec: report.shard.packets as f64 / secs,
            events_per_sec: report.shard.events as f64 / secs,
            speedup: baseline_wall_ns as f64 / wall_ns.max(1) as f64,
            digest: report.shard.trace_digest,
            shard_utilization: report.shard.shard_utilization(),
        });
    }
    ScaleBenchResult {
        config: cfg.clone(),
        rows,
        memory,
        peak_rss_kb: peak_rss_kb(),
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        profile,
    }
}

/// One budget line parsed from `BENCH_budget.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetCell {
    /// Fleet size the budget applies to.
    pub sensors: u64,
    /// Budgeted resident bytes per flow.
    pub peak_rss_per_flow_bytes: u64,
}

/// First unsigned integer following `"key":` in `text`. Whitespace
/// between the colon and the digits is tolerated; anything else fails the
/// lookup (strictness over guessing).
fn u64_after(text: &str, key: &str) -> Option<u64> {
    let probe = format!("\"{key}\"");
    let at = text.find(&probe)? + probe.len();
    let rest = text.get(at..)?.trim_start().strip_prefix(':')?;
    let digits = rest.trim_start();
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(digits.len(), |(i, _)| i);
    digits.get(..end)?.parse().ok()
}

/// Parse the checked-in budget file: a JSON document whose `cells` array
/// holds `{"sensors": K, "peak_rss_per_flow_bytes": N}` objects. The
/// parser is a lenient scanner (this workspace has no JSON reader and
/// takes no dependencies): each `"sensors"` occurrence opens a cell, and
/// the per-flow figure is read from the text between it and the next
/// `"sensors"` occurrence.
pub fn parse_budget(text: &str) -> Vec<BudgetCell> {
    let probe = "\"sensors\"";
    let mut cells = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    let mut from = 0usize;
    while let Some(found) = text.get(from..).and_then(|t| t.find(probe)) {
        starts.push(from + found);
        from += found + probe.len();
    }
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(text.len());
        let Some(chunk) = text.get(start..end) else {
            continue;
        };
        if let (Some(sensors), Some(per_flow)) = (
            u64_after(chunk, "sensors"),
            u64_after(chunk, "peak_rss_per_flow_bytes"),
        ) {
            cells.push(BudgetCell {
                sensors,
                peak_rss_per_flow_bytes: per_flow,
            });
        }
    }
    cells
}

/// The RSS regression gate: every measured memory cell with a matching
/// budget line must stay within +10% of its budget. Returns a
/// human-readable violation list on failure; cells without a budget line
/// (new ladder rungs) pass, and an empty/unparseable budget fails loudly
/// rather than silently waving runs through.
pub fn check_budget(measured: &[MemoryCell], budget_text: &str) -> Result<(), String> {
    let budget = parse_budget(budget_text);
    if budget.is_empty() {
        return Err("budget file contains no parseable cells".to_string());
    }
    let mut violations = Vec::new();
    for cell in measured {
        let Some(b) = budget.iter().find(|b| b.sensors == cell.sensors as u64) else {
            continue;
        };
        let limit = b.peak_rss_per_flow_bytes + b.peak_rss_per_flow_bytes / 10;
        if cell.peak_rss_per_flow_bytes > limit {
            violations.push(format!(
                "K={}: {} B/flow exceeds budget {} B/flow (+10% limit {})",
                cell.sensors, cell.peak_rss_per_flow_bytes, b.peak_rss_per_flow_bytes, limit
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_deterministic_and_well_formed() {
        let result = run(&ScaleBenchConfig::quick());
        assert_eq!(result.rows.len(), 3, "one row per shard count");
        assert!(result.deterministic(), "digests diverged across shards");
        assert!(result.rows.iter().all(|r| r.packets == 256 * 4));
        assert!(result.rows.iter().all(|r| r.packets_per_sec > 0.0));
        let json = result.to_json();
        assert!(json.contains("\"bench\":\"scale\""));
        assert!(json.contains("\"deterministic\":true"));
        assert!(json.contains("\"rows\":["));
        // Profiling was off: the field must be an explicit null, not an
        // array of all-zero rows masquerading as a measurement.
        assert!(json.contains("\"profile\":null"));
        assert!(!json.contains("\"profile\":["));
        assert_eq!(result.profile.total_events(), 0);
    }

    #[test]
    fn profiled_sweep_records_hot_path_stages() {
        let result = run(&ScaleBenchConfig::quick().with_profile());
        assert!(result.deterministic(), "digests diverged across shards");
        let rows = result.profile.rows();
        assert_eq!(rows.len(), 7, "full stage taxonomy must render");
        let active = rows.iter().filter(|(_, events, _)| *events > 0).count();
        assert!(active >= 5, "expected >=5 active stages, got {active}");
        let vtime_total: u64 = rows.iter().map(|(_, _, v)| v).sum();
        assert!(vtime_total > 0, "virtual-time attribution must be nonzero");
        let json = result.to_json();
        assert!(json.contains("\"profile\":["));
        assert!(json.contains("\"stage\":\"link_delivery\""));
        // The regression the full-bench artifact once shipped: a profile
        // block whose seven stages all read 0 events. Pin the hot stage.
        let link = rows
            .iter()
            .find(|(stage, _, _)| *stage == "link_delivery")
            .map(|(_, events, _)| *events)
            .unwrap_or(0);
        assert!(link > 0, "link_delivery must attribute events");
    }

    #[test]
    fn full_config_profiles_and_ladders_by_default() {
        let cfg = ScaleBenchConfig::full();
        assert!(
            cfg.profile,
            "default BENCH_scale.json must attribute stages"
        );
        assert_eq!(cfg.memory_sensors, vec![10_000, 100_000]);
        assert!(!ScaleBenchConfig::quick().profile, "CI smoke stays cheap");
    }

    #[test]
    fn memory_cells_report_per_flow_figures() {
        let mut cfg = ScaleBenchConfig::quick();
        cfg.shard_counts = vec![1];
        cfg.memory_sensors = vec![1024, 256]; // run() must sort ascending
        let result = run(&cfg);
        assert_eq!(result.memory.len(), 2);
        assert_eq!(result.memory[0].sensors, 256, "ascending K");
        assert_eq!(result.memory[1].sensors, 1024);
        for cell in &result.memory {
            assert_eq!(cell.packets, cell.sensors as u64 * 4);
            if cfg!(target_os = "linux") {
                assert!(cell.peak_rss_kb > 0);
                assert!(cell.peak_rss_per_flow_bytes > 0);
            }
        }
        // VmHWM is monotone, so ascending cells never report shrinkage.
        assert!(result.memory[1].peak_rss_kb >= result.memory[0].peak_rss_kb);
        let json = result.to_json();
        assert!(json.contains("\"memory\":[{\"sensors\":256"));
        assert!(json.contains("\"peak_rss_per_flow_bytes\":"));
    }

    #[test]
    fn budget_parser_reads_cells_and_gate_enforces_ten_percent() {
        let budget = r#"{
            "budget": "flow-rss",
            "cells": [
                {"sensors": 10000, "peak_rss_per_flow_bytes": 200},
                {"sensors": 100000, "peak_rss_per_flow_bytes": 150}
            ]
        }"#;
        let cells = parse_budget(budget);
        assert_eq!(
            cells,
            vec![
                BudgetCell {
                    sensors: 10000,
                    peak_rss_per_flow_bytes: 200
                },
                BudgetCell {
                    sensors: 100000,
                    peak_rss_per_flow_bytes: 150
                },
            ]
        );
        let cell = |sensors: usize, per_flow: u64| MemoryCell {
            sensors,
            packets: 1,
            peak_rss_kb: 0,
            peak_rss_per_flow_bytes: per_flow,
        };
        // Within budget, exactly at the +10% limit, and unbudgeted cells
        // all pass; one byte over the limit fails with the cell named.
        assert!(check_budget(&[cell(10000, 199)], budget).is_ok());
        assert!(check_budget(&[cell(10000, 220)], budget).is_ok());
        assert!(check_budget(&[cell(1, 999_999)], budget).is_ok());
        let err = check_budget(&[cell(10000, 221), cell(100000, 140)], budget)
            .expect_err("over-limit cell must fail");
        assert!(err.contains("K=10000"), "violation names the cell: {err}");
        assert!(!err.contains("K=100000"), "in-budget cell not named: {err}");
        // An empty or unparseable budget fails loudly.
        assert!(check_budget(&[cell(10000, 1)], "{}").is_err());
    }

    #[test]
    fn rss_proxy_reports_on_linux() {
        let rss = peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }
}
