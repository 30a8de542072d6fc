//! The runs pinned in `tests/golden/digests.txt` and how each is
//! reduced to one FNV-64 digest. Shared by `golden_digests.rs`, which
//! checks and regenerates the whole file, and by the equivalence suites,
//! which hold other layouts and entry points to the same pinned cells.

use std::path::PathBuf;

use mmt::netsim::shard::{Fnv64, ShardReport};
use mmt::netsim::{FaultSpec, PeriodicOutage, ShardedSim, Time};
use mmt::pilot::manyflow::{self, ManyFlowConfig};
use mmt::pilot::{Pilot, PilotConfig};
use mmt::protocol::controller::{ControllerConfig, ModeController};
use mmt::telemetry::{prometheus, series};

pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt")
}

/// The golden file's cells as `(name, digest)`, in file order.
pub fn pinned() -> Vec<(String, String)> {
    let path = golden_path();
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); regenerate with \
             `cargo test --test golden_digests -- --ignored regenerate_golden`",
            path.display()
        )
    });
    on_disk
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .map(|(name, d)| (name.to_string(), d.to_string()))
        .collect()
}

/// FNV-64 over the concatenated rendered parts, each part terminated by
/// a separator line so a byte cannot migrate between parts unnoticed.
fn digest(parts: &[&str]) -> u64 {
    let mut h = Fnv64::new();
    for part in parts {
        h.write(part.as_bytes());
        h.write(b"\n--\n");
    }
    h.finish()
}

/// One many-flow fleet run on `cfg.shards` shards and `workers` worker
/// threads.
pub fn fleet_cell(cfg: &ManyFlowConfig, workers: usize) -> u64 {
    let sharded = ShardedSim::new(cfg.seed, cfg.shards).with_workers(workers);
    report_digest(
        cfg.seed,
        &sharded.run(cfg.dtns, |g, gs| manyflow::run_group(cfg, g, gs)),
    )
}

/// The digest of a finished fleet run, however it was driven.
pub fn report_digest(seed: u64, report: &ShardReport) -> u64 {
    let prom = prometheus::render(&report.registry);
    assert!(!prom.is_empty(), "seed {seed}: fleet exported no metrics");
    digest(&[
        &prom,
        &format!("{:016x}", report.trace_digest),
        &series::to_jsonl(&report.series),
    ])
}

/// One Fig. 4 pilot run, open loop (`Pilot::run`) or under the closed
/// adaptation loop (`Pilot::run_adaptive`, which also counts the
/// transitions applied).
pub fn pilot_cell(cfg: PilotConfig, adaptive: bool) -> u64 {
    let mut pilot = Pilot::build(cfg);
    pilot.enable_trace_bounded(4096);
    pilot.enable_series(Time::from_millis(1));
    let applied = if adaptive {
        let mut controller = ModeController::new(ControllerConfig::default());
        pilot.run_adaptive(Time::from_secs(300), Time::from_millis(5), &mut controller)
    } else {
        pilot.run(Time::from_secs(300));
        0
    };
    let trace = pilot
        .trace_records()
        .iter()
        .map(|r| r.to_json())
        .collect::<Vec<_>>()
        .join("\n");
    digest(&[
        &prometheus::render(&pilot.metrics()),
        &trace,
        &series::to_jsonl(&pilot.take_series()),
        &applied.to_string(),
    ])
}

/// E12-style: composed WAN faults (reorder, duplication, jitter,
/// periodic flaps) on top of corruption loss.
pub fn faulted_pilot(seed: u64) -> PilotConfig {
    let mut cfg = PilotConfig::default_run();
    cfg.seed = seed;
    cfg.message_count = 400;
    cfg.wan_fault = FaultSpec::none()
        .with_reorder(0.05, Time::from_micros(500))
        .with_duplication(0.02, Time::from_micros(50))
        .with_jitter(Time::from_micros(100))
        .with_scheduled_outage(PeriodicOutage {
            first_down: Time::from_micros(200),
            down_for: Time::from_millis(2),
            period: Time::from_millis(50),
        });
    cfg
}

/// E13-style: DTN 1 crashes mid-run with a standby in the chain, then
/// restarts.
pub fn crash_pilot(seed: u64) -> PilotConfig {
    let mut cfg = PilotConfig::default_run();
    cfg.seed = seed;
    cfg.message_count = 300;
    cfg.standby = true;
    cfg.crash_node = Some("dtn1".to_string());
    cfg.crash_at = Time::from_millis(4);
    cfg.restart_at = Some(Time::from_millis(40));
    cfg
}

/// `None` when `got` equals the golden file's digest for cell `name`,
/// else a line naming the cell and both digests.
pub fn mismatch(pins: &[(String, String)], name: &str, got: u64) -> Option<String> {
    let got = format!("{got:016x}");
    match pins.iter().find(|(n, _)| n == name) {
        Some((_, pin)) if *pin == got => None,
        Some((_, pin)) => Some(format!("{name}: computed {got}, pinned {pin}")),
        None => Some(format!("{name}: computed {got}, not in the golden file")),
    }
}
