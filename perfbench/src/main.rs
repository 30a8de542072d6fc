//! The mmt benchmark: two io workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run (which also makes
//! the E14 fleet, the lossy pilot and the paper-table streams),
//! correctness checks on every workload's and stream's outputs. See
//! `perfbench/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload io-loopback --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.

#![forbid(unsafe_code)]

mod context;
mod fleet;
mod io;
mod layers;
mod paper;
mod pilot;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use mmt_telemetry::QuantileSketch;

use report::{metric, Checks, Metric};

/// The benchmark's workloads, by name, with their injected drop.
const WORKLOADS: [(&str, f64); 2] = [
    ("io-loopback", io::LOOPBACK_LOSS),
    ("io-clean", io::CLEAN_LOSS),
];

/// Parsed command line.
struct Args {
    workload: &'static str,
    loss: f64,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.0).collect()
}

fn parse_args() -> Result<Args, String> {
    let mut workload: Option<(&'static str, f64)> = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.0 == value)
                        .ok_or_else(|| {
                            format!("unknown workload {value:?}; one of {:?}", names())
                        })?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let (workload, loss) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        loss,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Time `f` and print how long the traced run spent in `name`.
fn section<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    println!("section {name} {:.2} s", t.elapsed().as_secs_f64());
    out
}

/// The traced run of `workload`: the fleet stream first, so the peak RSS
/// it reports per flow is the fleet's; then the layer suite, the lossy
/// pilot stream, the paper stream and the workload's own traced pass.
fn traced(a: &Args, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let fleet = section("fleet-stream", || fleet::traced(a.seed, checks))?;
    let layers = section("layers", layers::measure)?;
    print!("{}", layers.render());
    let fleet_reconcile = fleet.reconcile(&layers);
    print!("{}", fleet_reconcile.render("fleet-stream"));
    println!(
        "trace fleet-stream overhead_frac {:.4}",
        fleet.overhead_frac
    );
    let build_s = section("pilot-build", || pilot::build_s(a.seed));
    let p = section("pilot-stream", || pilot::traced(a.seed, &layers, checks))?;
    print!("{}", p.reconcile.render("pilot-stream"));
    println!(
        "trace pilot-stream overhead_frac {:.4} events_per_msg {:.4}",
        p.overhead_frac, p.events_per_msg
    );
    let paper = section("paper-stream", || paper::traced(a.seed, &layers, checks))?;
    print!("{}", paper.reconcile.render("paper-stream"));
    println!(
        "trace paper-stream overhead_frac {:.4}",
        paper.overhead_frac
    );
    // A third of the timed run's length: the streams above take ~40 s,
    // and the whole traced run stays well inside its time limit.
    let w = section(a.workload, || {
        io::traced(a.loss, a.seed, a.seconds as f64 / 3.0, &layers, checks)
    })?;
    print!("{}", w.reconcile.render(a.workload));
    println!(
        "trace {} overhead_frac {:.4} (traced wall over untraced wall, minus one)",
        a.workload, w.overhead_frac
    );
    let (shard, transport, io_layer) = (fleet.shard, paper.transport, w.io);
    let nak_yield = if p.naks_sent > 0 {
        p.recovered as f64 / p.naks_sent as f64
    } else {
        0.0
    };
    let mut out: Vec<Metric> = layers
        .probes
        .iter()
        .map(|p| metric(p.name, p.median(), p.unit))
        .collect();
    out.extend([
        metric("netsim.events_per_msg", fleet.events_per_msg, "count"),
        metric("netsim.shard_speedup", shard.speedup, "ratio"),
        metric(
            "netsim.group_max_over_mean",
            shard.group_max_over_mean,
            "ratio",
        ),
        metric("netsim.merge_s", shard.merge_s, "s"),
        metric("core.naks_sent", p.naks_sent as f64, "count"),
        metric("core.recovered", p.recovered as f64, "count"),
        metric("core.nak_yield", nak_yield, "ratio"),
        metric("core.mode_transitions", p.mode_transitions as f64, "count"),
        metric("core.aged", p.aged as f64, "count"),
        metric("core.rss_bytes_per_flow", fleet.rss_bytes_per_flow, "bytes"),
        metric("dataplane.pkts", p.dataplane_pkts as f64, "count"),
        metric(
            "transport.tcp_ns_per_segment",
            transport.tcp_ns_per_segment,
            "ns",
        ),
        metric("transport.mmt_ns_per_msg", transport.mmt_ns_per_msg, "ns"),
        metric("transport.e1_s", transport.e1_s, "s"),
        metric("transport.e2_s", transport.e2_s, "s"),
        metric("transport.e3_s", transport.e3_s, "s"),
        metric(
            "telemetry.sketch_error_bound",
            QuantileSketch::MAX_RELATIVE_ERROR,
            "ratio",
        ),
        metric("pilot.build_s", build_s, "s"),
        metric("pilot.run_s", p.pilot.run_s, "s"),
        metric("pilot.report_s", p.pilot.report_s, "s"),
        metric("pilot.vt_fct_ms", p.vt_fct_ms, "ms_virtual"),
        metric("pilot.vt_p999_latency_ms", p.vt_tail_ms, "ms_virtual"),
        metric("pilot.vt_latency_samples", p.vt_samples as f64, "count"),
        metric(
            "pilot.reconcile_explained_frac",
            p.reconcile.explained_frac(),
            "ratio",
        ),
        metric("pilot.trace_overhead_frac", p.overhead_frac, "ratio"),
        metric(
            "fleet.reconcile_explained_frac",
            fleet_reconcile.explained_frac(),
            "ratio",
        ),
        metric("fleet.trace_overhead_frac", fleet.overhead_frac, "ratio"),
        metric(
            "paper.reconcile_explained_frac",
            paper.reconcile.explained_frac(),
            "ratio",
        ),
        metric("paper.trace_overhead_frac", paper.overhead_frac, "ratio"),
        metric("io.datagrams_per_msg", io_layer.datagrams_per_msg, "ratio"),
        metric("io.busy_frac", io_layer.busy_frac, "ratio"),
        metric(
            "io.recovered_per_injected_drop",
            io_layer.recovered_per_injected_drop,
            "ratio",
        ),
        metric("io.completion_lag_ms", io_layer.completion_lag_ms, "ms"),
        metric("io.srtt_us", io_layer.srtt_us, "us"),
        metric("io.rto_samples", io_layer.rto_samples, "count"),
        metric(
            "reconcile.explained_frac",
            w.reconcile.explained_frac(),
            "ratio",
        ),
        metric("trace.overhead_frac", w.overhead_frac, "ratio"),
    ]);
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    print!(
        "{}",
        context::render(args.workload, args.seed, args.seconds, args.trace)
    );
    let mut checks = Checks::default();
    let result = if args.trace {
        traced(&args, &mut checks)
    } else {
        io::timed(args.loss, args.seed, args.seconds as f64, &mut checks)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attempted = checks.ledger.attempted;
    checks.check(attempted > 0, || {
        "the run attempted no operations".to_string()
    });
    for m in &metrics {
        checks.check(m.value.is_finite(), || {
            format!("metric {} is not a finite number", m.name)
        });
    }
    report::emit(&checks, &metrics);
    ExitCode::SUCCESS
}
