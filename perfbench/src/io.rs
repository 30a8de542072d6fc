//! The io workloads: `mmt_io::run_loopback` open loop over a real UDP
//! loopback pair, 1 KiB messages at 25 000 msg/s. They are the only
//! workloads that cross real sockets, the RTO estimator, the watchdog and
//! the fault injector; they skip `netsim`. Wall time is set by the send
//! schedule, so a cost change shows as CPU per message, not as goodput.
//!
//! - `io-loopback`: 1% injected drop on the data direction, so NAK
//!   recovery runs.
//! - `io-clean`: no injected faults, so only the send, receive and
//!   in-order path runs; the recovery share of `io-loopback`'s cost shows
//!   by difference.

use std::time::Instant;

use mmt_io::{run_loopback, IoError, IoPilotConfig, IoPilotReport};
use mmt_netsim::Time;

use crate::context::{peak_rss_mb, thread_cpu_ns};
use crate::layers::Layers;
use crate::report::{metric, repeat, Checks, Metric};
use crate::stats::{median, Reconciliation, Term};

/// Messages per loopback run: many short runs per benchmark run keep the
/// median CPU per message steady.
const MESSAGES: u64 = 5_000;
/// Pacing gap: 25 000 msg/s, about half the rate at which runs start to
/// degrade, so a cost change shows as CPU per message, not lost goodput.
const GAP: Time = Time::from_micros(40);
/// Injected drop probability on the data direction of `io-loopback`.
pub const LOOPBACK_LOSS: f64 = 0.01;
/// `io-clean` injects no faults.
pub const CLEAN_LOSS: f64 = 0.0;

/// One-message runs timed for set-up after every run: each takes tens of
/// µs, so several are taken each time.
const SETUP_REPS: u64 = 5;

/// NAK retry budget, per sequence and for the run's RTO backoff. A host
/// stall longer than the kernel receive buffer holds (~4 ms at this rate)
/// makes the catch-up burst overflow it, and the NAK storm that follows
/// spends a backoff on every barren round. The default budget of 16 runs
/// out in that storm and the run degrades: under a CPU hog on both cores
/// 5 of 200 loopbacks lost 107–1 600 messages each. With this budget none
/// of 200 did (slowest 2.6 s), so the watchdog's deadline ladder, not the
/// budget, bounds a stalled run, and the workload measures the cost of
/// recovery instead of whether a stall happened to land in it.
const NAK_RETRIES: u32 = 1_000;

/// The loopback configuration for repetition `rep` of a run seeded
/// `seed` with injected drop `loss`: every repetition gets its own
/// fault-injector stream.
fn config(loss: f64, seed: u64, rep: u64) -> IoPilotConfig {
    let mut cfg = IoPilotConfig::defaults();
    cfg.messages = MESSAGES;
    cfg.gap = GAP;
    cfg.loss = loss;
    cfg.seed = seed.wrapping_mul(1_000_003).wrapping_add(rep);
    // Several times the schedule, so the watchdog ladder (shed at half the
    // deadline) never engages on a healthy run, yet short enough that a
    // stuck run cannot hold the benchmark past its time limit.
    cfg.deadline = Time::from_secs(10);
    cfg.nak_retries = NAK_RETRIES;
    cfg
}

/// io-layer figures of a workload's traced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoLayer {
    /// How late the open-loop generator finished, ms: elapsed time past
    /// the last message's scheduled send.
    pub completion_lag_ms: f64,
    /// Final smoothed RTT, µs.
    pub srtt_us: f64,
    /// RTT samples folded into the RTO estimator.
    pub rto_samples: f64,
    /// On-CPU time over elapsed time of the driving thread.
    pub busy_frac: f64,
    /// Datagrams through both sockets per message.
    pub datagrams_per_msg: f64,
    /// Recovered sequences per dropped datagram (injected drops plus
    /// kernel-buffer overflows, which the socket layer counts alike).
    pub recovered_per_injected_drop: f64,
}

/// One loopback run.
struct Rep {
    wall_ns: f64,
    cpu_ns: f64,
    report: IoPilotReport,
}

fn run(cfg: &IoPilotConfig, checks: &mut Checks) -> Result<Option<Rep>, String> {
    let cpu0 = thread_cpu_ns()?;
    let t = Instant::now();
    let result = run_loopback(cfg);
    let wall_ns = t.elapsed().as_nanos() as f64;
    let cpu_ns = thread_cpu_ns()?.saturating_sub(cpu0) as f64;
    let report = match result {
        Ok(report) => report,
        Err(IoError::WatchdogAbort { elapsed_ns, .. }) => {
            // An aborted run is an accounted outcome: all its messages
            // failed.
            println!("io run seed {} aborted after {elapsed_ns} ns", cfg.seed);
            checks.ledger.add(cfg.messages, 0, false);
            return Ok(None);
        }
        Err(e) => return Err(format!("io loopback: {e}")),
    };
    let r = &report;
    // Output consistency: every expected message is either delivered
    // once or accounted lost, and a complete run lost nothing.
    checks.check(
        r.delivered + r.lost == r.messages && (!r.completed || r.exactly_once()),
        || {
            format!(
                "io accounting broken: delivered {} + lost {} != {} (completed {})",
                r.delivered, r.lost, r.messages, r.completed
            )
        },
    );
    let exactly_once = r.exactly_once();
    if !exactly_once {
        println!(
            "io run seed {} degraded: delivered {} lost {}",
            cfg.seed, r.delivered, r.lost
        );
    }
    checks.ledger.add(r.messages, r.delivered, exactly_once);
    Ok(Some(Rep {
        wall_ns,
        cpu_ns,
        report,
    }))
}

fn layer(reps: &[Rep]) -> IoLayer {
    let col = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    IoLayer {
        completion_lag_ms: col(&|r| {
            let scheduled = GAP.as_nanos() * r.report.messages.saturating_sub(1);
            r.report.elapsed.as_nanos().saturating_sub(scheduled) as f64 / 1e6
        }),
        srtt_us: col(&|r| r.report.srtt_ns as f64 / 1e3),
        rto_samples: col(&|r| r.report.rto_samples as f64),
        busy_frac: col(&|r| r.cpu_ns / r.wall_ns),
        datagrams_per_msg: col(&|r| {
            (r.report.data_socket.sent + r.report.control_socket.sent) as f64
                / r.report.messages.max(1) as f64
        }),
        recovered_per_injected_drop: col(&|r| {
            r.report.recovered as f64 / r.report.faults.dropped.max(1) as f64
        }),
    }
}

/// One set-up sample: a one-message loopback — sockets bound, both
/// endpoints built, one message carried, everything torn down.
fn setup(seed: u64, rep: u64, checks: &mut Checks) -> Result<f64, String> {
    // Without injected loss: a lone message that is dropped leaves the
    // receiver nothing to NAK, and the run would wait for its watchdog.
    let mut cfg = config(0.0, seed, rep);
    cfg.messages = 1;
    let t = Instant::now();
    let report = run_loopback(&cfg).map_err(|e| format!("io set-up loopback: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    checks.check(report.delivered == 1, || {
        "one-message loopback did not deliver".to_string()
    });
    Ok(s)
}

/// Loopback runs until `seconds` are used, each followed by
/// [`SETUP_REPS`] set-up samples, so set-up is sampled across the run and
/// always in a warm process.
fn runs(
    loss: f64,
    seed: u64,
    seconds: f64,
    first_rep: u64,
    checks: &mut Checks,
) -> Result<(Vec<Rep>, Vec<f64>), String> {
    let (mut reps, mut setups) = (Vec::new(), Vec::new());
    let mut error = None;
    repeat(seconds, 3, |i| {
        let rep = first_rep + i as u64;
        match run(&config(loss, seed, rep), checks) {
            Ok(Some(r)) => reps.push(r),
            Ok(None) => {}
            Err(e) => error = Some(e),
        }
        for k in 0..SETUP_REPS {
            match setup(seed, 1_000_000 + rep * SETUP_REPS + k, checks) {
                Ok(s) => setups.push(s),
                Err(e) => error = Some(e),
            }
        }
    });
    match error {
        Some(e) => Err(e),
        None if reps.is_empty() => Err("every io run aborted".to_string()),
        None => Ok((reps, setups)),
    }
}

/// The end-to-end run (tracing off).
pub fn timed(
    loss: f64,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let (reps, setups) = runs(loss, seed, seconds, 0, checks)?;
    for r in &reps {
        println!(
            "rep wall {:.4} s cpu {:.4} s recovered {} dropped {} srtt {} ns",
            r.wall_ns / 1e9,
            r.cpu_ns / 1e9,
            r.report.recovered,
            r.report.faults.dropped,
            r.report.srtt_ns
        );
    }
    let col = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", col(&|r| r.wall_ns / 1e9), "s"),
        metric(
            "msgs_per_s",
            col(&|r| r.report.delivered as f64 * 1e9 / r.wall_ns),
            "1/s",
        ),
        metric(
            "cpu_us_per_msg",
            col(&|r| r.cpu_ns / 1e3 / r.report.delivered.max(1) as f64),
            "us",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ])
}

/// What the traced io run measured.
pub struct Traced {
    /// io-layer figures of the workload's runs.
    pub io: IoLayer,
    /// Layer costs × counts against the wall time of a run.
    pub reconcile: Reconciliation,
    /// Traced over untraced wall time, minus one.
    pub overhead_frac: f64,
}

/// The traced run. The io plane has no profiler; its trace is the
/// benchmark's own spans and counters around `run_loopback`, so untraced
/// and traced runs alternate to show what recording them costs.
pub fn traced(
    loss: f64,
    seed: u64,
    seconds: f64,
    layers: &Layers,
    checks: &mut Checks,
) -> Result<Traced, String> {
    let (plain, _) = runs(loss, seed, seconds / 2.0, 0, checks)?;
    let (traced, _) = runs(loss, seed, seconds / 2.0, 500_000, checks)?;
    for r in &traced {
        println!(
            "span io run_loopback wall {:.4} s cpu {:.4} s data sent {} recv {} ctrl sent {} recv {}",
            r.wall_ns / 1e9,
            r.cpu_ns / 1e9,
            r.report.data_socket.sent,
            r.report.data_socket.received,
            r.report.control_socket.sent,
            r.report.control_socket.received
        );
    }
    let col =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let wall = |r: &Rep| r.wall_ns;
    let sent = col(&traced, &|r| {
        (r.report.data_socket.sent + r.report.control_socket.sent) as f64
    });
    let received = col(&traced, &|r| {
        (r.report.data_socket.received + r.report.control_socket.received) as f64
    });
    let messages = col(&traced, &|r| r.report.messages as f64);
    let off_cpu = col(&traced, &|r| (r.wall_ns - r.cpu_ns).max(0.0));
    let round = |v: f64| v.round() as u64;
    let reconcile = Reconciliation {
        terms: vec![
            Term::per_op(
                "io.send_ns x datagrams sent",
                layers.get("io.send_ns"),
                round(sent),
            ),
            Term::per_op(
                "io.recv_ns x datagrams received",
                layers.get("io.recv_ns"),
                round(received),
            ),
            Term::per_op(
                "wire.emit_mode2_ns x messages",
                layers.get("wire.emit_mode2_ns"),
                round(messages),
            ),
            Term::per_op(
                "wire.parse_mode2_ns x messages",
                layers.get("wire.parse_mode2_ns"),
                round(messages),
            ),
            Term::per_op(
                "core.seqtrack_in_order_ns x messages",
                layers.get("core.seqtrack_in_order_ns"),
                round(messages),
            ),
            Term::span("off-CPU: sleeping on the send schedule (span)", off_cpu),
        ],
        wall_ns: col(&traced, &wall),
    };
    Ok(Traced {
        io: layer(&traced),
        reconcile,
        overhead_frac: col(&traced, &wall) / col(&plain, &wall) - 1.0,
    })
}
