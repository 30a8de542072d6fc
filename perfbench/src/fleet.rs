//! The E14 fleet stream: `mmt_pilot::manyflow` with K = 100 000 sensors
//! in 16 DTN groups, 8 × 8 KiB virtual-tail packets each, serially and at
//! shards = host cores. The per-packet path — wire encode/decode, the
//! packet arena, the timer wheel and link, the flow table, link stats and
//! the shard merge — with ~15 MB of flow state, and no dataplane, NAK
//! recovery, controller or sockets.
//!
//! Every traced run makes this stream and reports the shard-layer
//! figures, events per packet and resident bytes per flow from it. It is
//! not a timed workload of its own: its serial wall time follows the
//! host's memory-system load, and across ten runs on the tuning host it
//! spread 0.14–0.38 (IQR over median) depending on the hour, above the
//! largest bound a benchmark metric may have.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mmt_netsim::shard::ShardReport;
use mmt_netsim::{ShardedSim, SpanProfiler, Stage};
use mmt_pilot::manyflow::{self, ManyFlowConfig};

use crate::context::{host_cores, peak_rss_mb};
use crate::layers::Layers;
use crate::report::Checks;
use crate::stats::{median, Reconciliation, Term};

/// Sensors (flows) in the fleet.
const SENSORS: usize = 100_000;
/// Untraced serial, traced serial and sharded fleets made per traced run,
/// each.
const ROUNDS: usize = 2;
/// Merged digest of the seed-1 fleet: the shard merge must reproduce it
/// at every shard count.
const SEED_1_DIGEST: u64 = 0x15ad_965a_5c06_f856;

/// Shard-layer figures of the fleet stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardLayer {
    /// Serial wall time over wall time at shards = host cores.
    pub speedup: f64,
    /// Slowest group span over the mean group span.
    pub group_max_over_mean: f64,
    /// Serial wall time spent outside `run_group`: seeding, the ordered
    /// merge and link-stat materialization.
    pub merge_s: f64,
}

fn fleet(shards: usize, seed: u64) -> ManyFlowConfig {
    ManyFlowConfig::fleet(SENSORS, shards, seed)
}

fn decode_errors(report: &ShardReport, groups: usize) -> u64 {
    (0..groups)
        .map(|g| {
            report.registry.counter(
                "mmt_manyflow_decode_errors_total",
                &[("group", g.to_string().as_str())],
            )
        })
        .sum()
}

/// Check a finished fleet: everything offered was delivered and decoded.
fn check_fleet(
    checks: &mut Checks,
    cfg: &ManyFlowConfig,
    report: &ShardReport,
    digests: &mut Vec<u64>,
) {
    let offered = cfg.offered_packets();
    let errors = decode_errors(report, cfg.dtns);
    let ok = checks.check(report.packets == offered && errors == 0, || {
        format!(
            "fleet shards={} delivered {} of {offered} with {errors} decode errors",
            cfg.shards, report.packets
        )
    });
    checks.ledger.add(offered, report.packets, ok);
    digests.push(report.trace_digest);
}

fn check_digests(checks: &mut Checks, seed: u64, digests: &[u64]) {
    let first = digests.first().copied().unwrap_or(0);
    checks.check(digests.iter().all(|&d| d == first), || {
        format!("fleet digests differ across shard counts or repeats: {digests:016x?}")
    });
    if seed == 1 && !digests.is_empty() {
        checks.check(first == SEED_1_DIGEST, || {
            format!("seed-1 fleet digest {first:016x}, expected {SEED_1_DIGEST:016x}")
        });
    }
    println!("fleet digest {first:016x} over {} runs", digests.len());
}

/// `manyflow::run`, timed.
fn timed_run(cfg: &ManyFlowConfig) -> (f64, ShardReport) {
    let t = Instant::now();
    let report = manyflow::run(cfg).shard;
    (t.elapsed().as_nanos() as f64, report)
}

/// `manyflow::run` with a span around every `run_group` call.
fn instrumented(cfg: &ManyFlowConfig) -> (ShardReport, Vec<f64>, f64) {
    // A statistic per group; the worker threads are joined inside `run`
    // before the spans are read, so relaxed stores suffice.
    let spans: Vec<AtomicU64> = (0..cfg.dtns).map(|_| AtomicU64::new(0)).collect();
    let t = Instant::now();
    let report = ShardedSim::new(cfg.seed, cfg.shards).run(cfg.dtns, |g, group_seed| {
        let t = Instant::now();
        let result = manyflow::run_group(cfg, g, group_seed);
        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if let Some(slot) = spans.get(g) {
            slot.store(ns, Ordering::Relaxed);
        }
        result
    });
    let wall = t.elapsed().as_nanos() as f64;
    let spans = spans
        .iter()
        .map(|s| s.load(Ordering::Relaxed) as f64)
        .collect();
    (report, spans, wall)
}

fn group_stats(spans: &[f64], wall: f64) -> (f64, f64) {
    let total: f64 = spans.iter().sum();
    let mean = total / spans.len().max(1) as f64;
    let max = spans.iter().copied().fold(0.0, f64::max);
    let max_over_mean = if mean > 0.0 { max / mean } else { 0.0 };
    (max_over_mean, (wall - total).max(0.0) / 1e9)
}

/// What the traced fleet run measured.
pub struct Traced {
    /// Shard-layer figures of the full fleet.
    pub shard: ShardLayer,
    /// Simulator events per delivered packet.
    pub events_per_msg: f64,
    /// Peak resident bytes per flow, process baseline included.
    pub rss_bytes_per_flow: f64,
    /// Traced over untraced wall time, minus one.
    pub overhead_frac: f64,
    /// Per-stage event counts of the last profiled fleet.
    profile: SpanProfiler,
    /// Median wall time of the profiled fleets, ns.
    traced_ns: f64,
}

/// The traced stream: untraced and traced serial fleets alternate (the
/// traced one with the span profiler on and a span around every group),
/// plus untraced sharded fleets for the speedup. It runs first in a
/// traced run, so the peak RSS it reports per flow is the fleet's.
pub fn traced(seed: u64, checks: &mut Checks) -> Result<Traced, String> {
    let (mut plain, mut traced, mut sharded) = (vec![], vec![], vec![]);
    let (mut over, mut merge) = (vec![], vec![]);
    let mut digests = Vec::new();
    let mut profile = None;
    // The first fleet of a process pays its page faults; it is checked
    // but not timed.
    let cfg = fleet(1, seed);
    check_fleet(checks, &cfg, &timed_run(&cfg).1, &mut digests);
    for _ in 0..ROUNDS {
        let cfg = fleet(1, seed);
        let (wall, report) = timed_run(&cfg);
        check_fleet(checks, &cfg, &report, &mut digests);
        plain.push(wall);
        let cfg = fleet(1, seed).with_profile();
        let (report, spans, wall) = instrumented(&cfg);
        check_fleet(checks, &cfg, &report, &mut digests);
        let (max_over_mean, merge_s) = group_stats(&spans, wall);
        over.push(max_over_mean);
        merge.push(merge_s);
        traced.push(wall);
        profile = Some((report.profile, report.events, report.packets));
        let cfg = fleet(host_cores(), seed);
        let (wall, report) = timed_run(&cfg);
        check_fleet(checks, &cfg, &report, &mut digests);
        sharded.push(wall);
    }
    check_digests(checks, seed, &digests);
    let (profile, events, packets) = profile.ok_or("no traced fleet run")?;
    for (stage, n, vtime) in profile.rows() {
        println!("profile fleet {stage:<16} events {n:>12} vtime_ns {vtime}");
    }
    let merge_s = median(&merge);
    Ok(Traced {
        shard: ShardLayer {
            speedup: median(&plain) / median(&sharded),
            group_max_over_mean: median(&over),
            merge_s,
        },
        events_per_msg: events as f64 / packets.max(1) as f64,
        rss_bytes_per_flow: peak_rss_mb() * 1e6 / SENSORS as f64,
        overhead_frac: median(&traced) / median(&plain) - 1.0,
        profile,
        traced_ns: median(&traced),
    })
}

impl Traced {
    /// Layer costs × the profiled fleet's stage counts, plus the merge
    /// span, against the profiled fleets' wall time.
    pub fn reconcile(&self, layers: &Layers) -> Reconciliation {
        let count = |s: Stage| self.profile.get(s).events;
        Reconciliation {
            terms: vec![
                Term::per_op(
                    "wire.encode_into_ns x encode",
                    layers.get("wire.encode_into_ns"),
                    count(Stage::Encode),
                ),
                Term::per_op(
                    "netsim.arena_frame_virtual_ns x encode",
                    layers.get("netsim.arena_frame_virtual_ns"),
                    count(Stage::Encode),
                ),
                Term::per_op(
                    "core.flowtable_sweep_ns_per_flow x encode",
                    layers.get("core.flowtable_sweep_ns_per_flow"),
                    count(Stage::Encode),
                ),
                Term::per_op(
                    "wire.decode_from_ns x decode",
                    layers.get("wire.decode_from_ns"),
                    count(Stage::Decode),
                ),
                Term::per_op(
                    "telemetry.sketch_record_ns x decode",
                    layers.get("telemetry.sketch_record_ns"),
                    count(Stage::Decode),
                ),
                Term::per_op(
                    "netsim.link_ns_per_pkt x link_delivery",
                    layers.get("netsim.link_ns_per_pkt"),
                    count(Stage::LinkDelivery),
                ),
                Term::per_op(
                    "netsim.wheel_schedule_ns x timer_dispatch",
                    layers.get("netsim.wheel_schedule_ns"),
                    count(Stage::TimerDispatch),
                ),
                Term::per_op(
                    "netsim.wheel_pop_ns x timer_dispatch",
                    layers.get("netsim.wheel_pop_ns"),
                    count(Stage::TimerDispatch),
                ),
                Term::span("netsim.merge_s (span)", self.shard.merge_s * 1e9),
            ],
            wall_ns: self.traced_ns,
        }
    }
}
