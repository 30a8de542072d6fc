//! The lossy pilot stream: the Fig. 4 three-mode pilot via `Pilot::build`
//! and `run_adaptive` — 8 KiB DUNE messages over a 10 ms RTT WAN with
//! 5×10⁻³ random loss, the closed-loop controller engaged and the standby
//! buffer armed. Dataplane programs on physical payloads, the core sender,
//! retransmit buffer and receiver with gaps and NAKs, and the
//! `ModeController`.
//!
//! Every traced run makes this stream, with and without the span
//! profiler, and reports the pilot-, dataplane- and recovery-layer
//! figures from it. It is not a timed workload of its own: it allocates
//! and frees ~400 MB per repetition, and on the tuning host its wall time
//! spread 0.27–0.30 (IQR over median) across ten runs, above any bound
//! the benchmark may set.

use std::time::Instant;

use mmt_core::controller::ModeController;
use mmt_netsim::{LossModel, Stage, Time};
use mmt_pilot::experiments::failover;
use mmt_pilot::{Pilot, PilotConfig, PilotReport};

use crate::layers::Layers;
use crate::report::Checks;
use crate::stats::{highest_supported_quantile, median, Reconciliation, Term};

/// Messages in the pilot stream. At 20 000 the adaptive arm delivers
/// every message exactly once and on time on every seed tried, so no
/// operation fails; longer streams start ageing messages out.
const MESSAGES: usize = 20_000;
/// Virtual-time horizon and controller sampling interval (as
/// `mmt-sim pilot --adapt 1`).
const HORIZON: Time = Time::from_secs(300);
const INTERVAL: Time = Time::from_millis(5);
/// `Pilot::build` calls timed for `pilot.build_s`.
const BUILD_REPS: usize = 9;
/// Untraced and traced pilots made per traced run, each.
const PAIRS: usize = 2;

/// The stream's pilot: the defaults of `mmt-sim pilot --loss 5e-3
/// --adapt 1`, with the age bound at the deadline budget.
fn config(seed: u64) -> PilotConfig {
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = MESSAGES;
    cfg.wan_loss = LossModel::Random(5e-3);
    cfg.max_age = cfg.deadline_budget;
    cfg.standby = true;
    cfg.seed = seed;
    cfg
}

/// Pilot-layer spans of the traced pilots.
#[derive(Debug, Clone, Copy, Default)]
pub struct PilotLayer {
    /// `run_adaptive` wall time.
    pub run_s: f64,
    /// `report` wall time.
    pub report_s: f64,
}

/// Everything deterministic a run produced; equal across repeats.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    delivered: u64,
    lost: u64,
    aged: u64,
    naks: u64,
    recovered: u64,
    transitions: u64,
    completed_at_ns: Option<u64>,
    latency_samples: u64,
    latency_tail_ns: Option<u64>,
    events: u64,
}

/// One pilot: build, adaptive run, report — each timed.
struct Rep {
    build_ns: f64,
    run_ns: f64,
    report_ns: f64,
    outcome: Outcome,
    report: PilotReport,
    pilot: Pilot,
}

fn run_pilot(cfg: &PilotConfig, profile: bool) -> Rep {
    let t = Instant::now();
    let mut pilot = Pilot::build(cfg.clone());
    let build_ns = t.elapsed().as_nanos() as f64;
    if profile {
        pilot.enable_profiler();
    }
    let mut controller = ModeController::new(failover::controller_config());
    let t = Instant::now();
    let transitions = pilot.run_adaptive(HORIZON, INTERVAL, &mut controller);
    let run_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let mut report = pilot.report();
    let report_ns = t.elapsed().as_nanos() as f64;
    let samples = report.latency.count() as u64;
    let tail = highest_supported_quantile(samples, 10)
        .and_then(|q| report.latency.quantile(q))
        .map(|t| t.as_nanos());
    let outcome = Outcome {
        delivered: report.receiver.delivered,
        lost: report.receiver.lost,
        aged: report.receiver.aged_deliveries,
        naks: report.receiver.naks_sent,
        recovered: report.receiver.recovered,
        transitions,
        completed_at_ns: report.completed_at.map(|t| t.as_nanos()),
        latency_samples: samples,
        latency_tail_ns: tail,
        events: pilot.sim.events_processed(),
    };
    Rep {
        build_ns,
        run_ns,
        report_ns,
        outcome,
        report,
        pilot,
    }
}

/// The stream completes, nothing is lost, and every repeat produces the
/// same deliveries and virtual times.
fn check(checks: &mut Checks, rep: &Rep, first: &mut Option<Outcome>) {
    let o = &rep.outcome;
    let offered = MESSAGES as u64;
    let ok = checks.check(
        o.completed_at_ns.is_some() && o.delivered == offered && o.lost == 0,
        || {
            format!(
                "pilot incomplete: delivered {} of {offered}, lost {}",
                o.delivered, o.lost
            )
        },
    );
    checks
        .ledger
        .add(offered, o.delivered.saturating_sub(o.aged), ok);
    match first {
        None => *first = Some(o.clone()),
        Some(f) => {
            checks.check(f == o, || {
                format!("pilot outcome differs across repeats: {f:?} vs {o:?}")
            });
        }
    }
}

/// Median `Pilot::build` time of the stream's pilot.
pub fn build_s(seed: u64) -> f64 {
    let cfg = config(seed);
    let samples: Vec<f64> = (0..BUILD_REPS)
        .map(|_| {
            let t = Instant::now();
            let pilot = Pilot::build(cfg.clone());
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(pilot));
            s
        })
        .collect();
    median(&samples)
}

/// What the traced pilot stream measured.
pub struct Traced {
    /// Spans of the traced pilots.
    pub pilot: PilotLayer,
    /// Simulator events per delivered message.
    pub events_per_msg: f64,
    /// NAKs the receiver sent.
    pub naks_sent: u64,
    /// Sequences recovered through NAKs.
    pub recovered: u64,
    /// Mode transitions the controller applied.
    pub mode_transitions: u64,
    /// Deliveries past their age bound.
    pub aged: u64,
    /// Frames the dataplane programs processed: border upgrades at DTN 1,
    /// the Tofino transit and the DTN 2 NIC.
    pub dataplane_pkts: u64,
    /// Virtual stream completion time, ms.
    pub vt_fct_ms: f64,
    /// Virtual per-message latency at the highest percentile with ten
    /// samples beyond it (p99.9 at 20 000 messages), ms.
    pub vt_tail_ms: f64,
    /// Latency samples behind `vt_tail_ms`.
    pub vt_samples: u64,
    /// Layer costs × counts against the traced wall time.
    pub reconcile: Reconciliation,
    /// Traced over untraced wall time, minus one.
    pub overhead_frac: f64,
}

/// The traced stream: untraced pilots and pilots with the span profiler
/// on alternate; spans around build, run and report.
pub fn traced(seed: u64, layers: &Layers, checks: &mut Checks) -> Result<Traced, String> {
    let cfg = config(seed);
    let (mut plain, mut traced) = (vec![], vec![]);
    let (mut run, mut report, mut build) = (vec![], vec![], vec![]);
    let mut first = None;
    let mut last = None;
    // The first pilot of a process pays its page faults; it is checked but
    // not timed.
    check(checks, &run_pilot(&cfg, false), &mut first);
    for _ in 0..PAIRS {
        for profile in [false, true] {
            let rep = run_pilot(&cfg, profile);
            check(checks, &rep, &mut first);
            let wall = rep.build_ns + rep.run_ns + rep.report_ns;
            if profile {
                traced.push(wall);
                run.push(rep.run_ns);
                report.push(rep.report_ns);
                build.push(rep.build_ns);
                last = Some(rep);
            } else {
                plain.push(wall);
            }
        }
    }
    let rep = last.ok_or("no traced pilot run")?;
    let profile = rep
        .pilot
        .profile()
        .ok_or("pilot profiler was not enabled")?;
    for (stage, n, vtime) in profile.rows() {
        println!("profile pilot {stage:<16} events {n:>12} vtime_ns {vtime}");
    }
    let r = &rep.report;
    let o = &rep.outcome;
    let count = |s: Stage| profile.get(s).events;
    let dataplane_pkts = r.buffer.forwarded + r.tofino.processed + r.dtn2_switch.processed;
    let reconcile = Reconciliation {
        terms: vec![
            Term::per_op(
                "wire.emit_mode2_ns x encode",
                layers.get("wire.emit_mode2_ns"),
                count(Stage::Encode),
            ),
            Term::per_op(
                "dataplane.border_upgrade_ns x dtn1 forwarded",
                layers.get("dataplane.border_upgrade_ns"),
                r.buffer.forwarded,
            ),
            Term::per_op(
                "dataplane.transit_age_ns x tofino processed",
                layers.get("dataplane.transit_age_ns"),
                r.tofino.processed,
            ),
            Term::per_op(
                "dataplane.parse_classify_ns x dtn2 processed",
                layers.get("dataplane.parse_classify_ns"),
                r.dtn2_switch.processed,
            ),
            Term::per_op(
                "wire.parse_mode2_ns x decode",
                layers.get("wire.parse_mode2_ns"),
                count(Stage::Decode),
            ),
            Term::per_op(
                "core.seqtrack_in_order_ns x decode",
                layers.get("core.seqtrack_in_order_ns"),
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
            Term::per_op(
                "core.controller_observe_ns x mode_control",
                layers.get("core.controller_observe_ns"),
                count(Stage::ModeControl),
            ),
            Term::span("pilot.build_s (span)", median(&build)),
            Term::span("pilot.report_s (span)", median(&report)),
        ],
        wall_ns: median(&traced),
    };
    Ok(Traced {
        pilot: PilotLayer {
            run_s: median(&run) / 1e9,
            report_s: median(&report) / 1e9,
        },
        events_per_msg: o.events as f64 / o.delivered.max(1) as f64,
        naks_sent: o.naks,
        recovered: o.recovered,
        mode_transitions: o.transitions,
        aged: o.aged,
        dataplane_pkts,
        vt_fct_ms: o.completed_at_ns.unwrap_or(0) as f64 / 1e6,
        vt_tail_ms: o.latency_tail_ns.unwrap_or(0) as f64 / 1e6,
        vt_samples: o.latency_samples,
        reconcile,
        overhead_frac: median(&traced) / median(&plain) - 1.0,
    })
}
