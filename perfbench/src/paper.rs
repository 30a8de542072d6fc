//! The paper stream: E1, E2 and E3 at `tables --quick` scale through
//! `mmt_pilot::experiments::{fct::run_all, hol::run_all,
//! throughput::{run_tcp, run_mmt}}`. The only shape that runs the
//! `transport` TCP baseline (CUBIC/Reno/HyStart), so `netsim` sees one
//! deep ACK-clocked flow rather than a wide fleet; it is also what a
//! reproducer waits on in `tables`.
//!
//! Every traced run makes this stream and reports the transport-layer
//! figures from it. It is not a timed workload of its own: it is
//! compute-bound, and on the tuning host its wall time moved +23% between
//! two sets of ten runs an hour apart while its spread reached 0.24–0.26
//! (IQR over median), at the largest bound a benchmark metric may have.

use std::time::Instant;

use mmt_core::receiver::{MmtReceiver, ReceiverConfig};
use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_netsim::shard::Fnv64;
use mmt_netsim::{Bandwidth, LinkSpec, Simulator, SpanProfiler, Stage, Time};
use mmt_pilot::experiments::fct::{self, FctParams, FctResult};
use mmt_pilot::experiments::hol::{self, HolParams, HolResult};
use mmt_pilot::experiments::throughput::{self, ThroughputResult};
use mmt_transport::{CcProfile, TcpReceiver, TcpSender};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;

use crate::layers::Layers;
use crate::report::Checks;
use crate::stats::{Reconciliation, Term};

/// `tables --quick` scale: 10 MB E1 transfers, 4 000 E2 messages, E3
/// transfers at a tenth of full size.
const E1_BYTES: u64 = 10_000_000;
const E1_LOSSES: [f64; 3] = [1e-4, 1e-3, 1e-2];
const E2_MESSAGES: usize = 4_000;
const E2_LOSSES: [f64; 3] = [0.0, 1e-3, 5e-3];
const E3_SCALE: f64 = 0.1;
const E3_RATES_GBPS: [u64; 4] = [10, 40, 100, 400];
/// Message and segment size of all three experiments.
const MSG: u64 = 8192;
/// Virtual-time horizon of an E3 run: a run that finishes reports its
/// goodput over its completion time, one that does not over this.
const E3_HORIZON: Time = Time::from_secs(600);
/// One-way delay of the E3 link (10 ms RTT).
const E3_DELAY: Time = Time::from_millis(5);
/// Simulator seed of every E3 run.
const E3_SIM_SEED: u64 = 31;
/// E3's modelled MMT host cost per message (the NIC-DMA floor).
const E3_MMT_HOST_NS: u64 = 120;
/// Digest of the E3 rows. E3 has no loss and a fixed internal seed, so
/// the rows are the same for every benchmark seed.
const E3_DIGEST: u64 = 0xb745_954a_ee59_0cbb;

/// transport-layer figures of the paper stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportLayer {
    /// Wall time of E1 (`fct::run_all` over its loss rates), s.
    pub e1_s: f64,
    /// Wall time of E2 (`hol::run_all` over its loss rates), s.
    pub e2_s: f64,
    /// Wall time of E3 (every `run_tcp`/`run_mmt` call of the sweep), s.
    pub e3_s: f64,
    /// `throughput::run_tcp` wall time per 8 KiB segment carried, ns.
    pub tcp_ns_per_segment: f64,
    /// `throughput::run_mmt` wall time per 8 KiB message carried, ns.
    pub mmt_ns_per_msg: f64,
}

/// One E3 cell, in the order `throughput::sweep` makes them: per rate,
/// untuned TCP (capped at 100 MB), tuned, tuned-2024, then MMT.
#[derive(Clone, Copy)]
struct Cell {
    link: Bandwidth,
    /// `None` for MMT.
    tcp: Option<CcProfile>,
    bytes: u64,
}

fn e3_cells(scale: f64, rates: &[u64]) -> Vec<Cell> {
    rates
        .iter()
        .flat_map(|&gbps| {
            let link = Bandwidth::gbps(gbps);
            let bytes = ((gbps as f64) * 1e9 / 8.0 * 0.5 * scale) as u64;
            let tcp = |profile, bytes| Cell {
                link,
                tcp: Some(profile),
                bytes,
            };
            [
                tcp(CcProfile::untuned(), bytes.min(100_000_000)),
                tcp(CcProfile::tuned_dtn(), bytes),
                tcp(CcProfile::tuned_dtn_2024(), bytes),
                Cell {
                    link,
                    tcp: None,
                    bytes,
                },
            ]
        })
        .collect()
}

impl Cell {
    /// The public call `throughput::sweep` makes for this cell.
    fn run(&self) -> ThroughputResult {
        match self.tcp {
            Some(profile) => throughput::run_tcp(self.link, profile, self.bytes),
            None => throughput::run_mmt(self.link, self.bytes),
        }
    }

    /// The same simulation built from the public `netsim`, `transport`
    /// and `core` types, with the span profiler on: `run_tcp`/`run_mmt`
    /// keep their simulator to themselves, so this is the only way to
    /// count E3's link deliveries and timer dispatches from outside. Its
    /// rows are checked against theirs.
    fn run_profiled(&self) -> (ThroughputResult, SpanProfiler) {
        let mut sim = Simulator::new(E3_SIM_SEED);
        sim.enable_profiler();
        let spec = LinkSpec::new(self.link, E3_DELAY);
        let msg = MSG as usize;
        let (variant, goodput_bps) = match self.tcp {
            Some(profile) => {
                let snd = sim.add_node(
                    "snd",
                    Box::new(TcpSender::bulk(profile, 1, self.bytes, msg)),
                );
                let rcv = sim.add_node(
                    "rcv",
                    Box::new(TcpReceiver::new(1, msg, profile.max_window_bytes)),
                );
                sim.connect(snd, 0, rcv, 0, spec);
                sim.run_until(E3_HORIZON);
                let goodput = match sim.node_as::<TcpSender>(snd).map(|s| &s.stats) {
                    Some(s) => match s.completed_at {
                        Some(fct) => self.bytes as f64 * 8.0 / fct.as_secs_f64(),
                        None => s.bytes_acked as f64 * 8.0 / E3_HORIZON.as_secs_f64(),
                    },
                    None => 0.0,
                };
                (profile.name, goodput)
            }
            None => {
                let exp = ExperimentId::new(2, 0);
                let count = (self.bytes as usize).div_ceil(msg);
                let gap = self
                    .link
                    .tx_time(msg + 50)
                    .max(Time::from_nanos(E3_MMT_HOST_NS));
                let snd = sim.add_node(
                    "sensor",
                    Box::new(MmtSender::new(SenderConfig::regular(exp, msg, gap, count))),
                );
                let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
                rcfg.expect_messages = Some(count as u64);
                let rcv = sim.add_node("receiver", Box::new(MmtReceiver::new(rcfg)));
                sim.connect(snd, 0, rcv, 0, spec);
                sim.run_until(E3_HORIZON);
                let goodput = match sim.node_as::<MmtReceiver>(rcv).map(|r| &r.stats) {
                    Some(s) => match s.completed_at {
                        Some(fct) => (count * msg) as f64 * 8.0 / fct.as_secs_f64(),
                        None => (s.delivered * MSG) as f64 * 8.0 / E3_HORIZON.as_secs_f64(),
                    },
                    None => 0.0,
                };
                ("MMT", goodput)
            }
        };
        let result = ThroughputResult {
            link: self.link,
            variant,
            goodput_bps,
        };
        (result, sim.profiler().cloned().unwrap_or_default())
    }
}

fn fct_params(seed: u64, loss: f64) -> FctParams {
    FctParams {
        transfer_bytes: E1_BYTES,
        loss,
        seed,
        ..FctParams::default_run()
    }
}

fn hol_params(seed: u64, loss: f64) -> HolParams {
    HolParams {
        messages: E2_MESSAGES,
        loss,
        seed,
        ..HolParams::default_run()
    }
}

fn e1(seed: u64) -> Vec<FctResult> {
    E1_LOSSES
        .iter()
        .flat_map(|&loss| fct::run_all(&fct_params(seed, loss)))
        .collect()
}

fn e2(seed: u64) -> Vec<HolResult> {
    E2_LOSSES
        .iter()
        .flat_map(|&loss| hol::run_all(&hol_params(seed, loss)))
        .collect()
}

fn e1_digest(rows: &[FctResult]) -> u64 {
    let mut h = Fnv64::new();
    for r in rows {
        h.write(r.variant.name().as_bytes());
        h.write_u64(r.fct.as_nanos());
        h.write_u64(r.retransmissions);
        h.write_u64(r.wire_losses);
        h.write_u64(u64::from(r.completed));
    }
    h.finish()
}

fn e2_digest(rows: &[HolResult]) -> u64 {
    let mut h = Fnv64::new();
    for r in rows {
        h.write(r.variant.as_bytes());
        h.write_u64(r.latency.sketch().digest());
        h.write_u64(r.impacted_fraction.to_bits());
        h.write_u64(r.delivered as u64);
    }
    h.finish()
}

fn e3_digest(rows: &[ThroughputResult]) -> u64 {
    let mut h = Fnv64::new();
    for r in rows {
        h.write(r.variant.as_bytes());
        h.write_u64(r.link.as_bps());
        h.write_u64(r.goodput_bps.to_bits());
    }
    h.finish()
}

/// Account every flow of one E1 and E2 pass: an E1 flow that did not
/// complete or an E2 stream short of its messages fails all its
/// messages.
fn check_e1_e2(checks: &mut Checks, e1: &[FctResult], e2: &[HolResult]) {
    let per_flow = E1_BYTES.div_ceil(MSG);
    for r in e1 {
        let ok = checks.check(r.completed, || {
            format!("E1 {} did not complete", r.variant.name())
        });
        checks
            .ledger
            .add(per_flow, if ok { per_flow } else { 0 }, ok);
    }
    for r in e2 {
        let offered = E2_MESSAGES as u64;
        let ok = checks.check(r.delivered as u64 == offered, || {
            format!("E2 {} delivered {} of {offered}", r.variant, r.delivered)
        });
        checks.ledger.add(offered, r.delivered as u64, ok);
    }
}

/// Account one E3 transfer: one that ran out its horizon fails all its
/// segments.
fn check_e3(checks: &mut Checks, cell: &Cell, r: &ThroughputResult) {
    let segments = cell.bytes.div_ceil(MSG);
    let finished = r.goodput_bps > cell.bytes as f64 * 8.0 / E3_HORIZON.as_secs_f64();
    let ok = checks.check(finished, || {
        format!("E3 {} at {} did not finish", r.variant, r.link)
    });
    checks
        .ledger
        .add(segments, if ok { segments } else { 0 }, ok);
}

/// What the paper stream measured.
pub struct Traced {
    /// Spans of the stream's public calls.
    pub transport: TransportLayer,
    /// Layer costs × E3's profiled stage counts, plus the E1 and E2 spans,
    /// against the traced wall time.
    pub reconcile: Reconciliation,
    /// Traced over untraced wall time, minus one.
    pub overhead_frac: f64,
}

/// The paper stream. E1 and E2 run twice through their public entry
/// points (the second pass timed). Every E3 cell runs twice: through the
/// public call, timed, and rebuilt with the span profiler on, in
/// alternating order so neither always meets the colder process. All
/// repeats must produce the same rows, and E3 its pinned rows.
pub fn traced(seed: u64, layers: &Layers, checks: &mut Checks) -> Result<Traced, String> {
    let (e1_first, e2_first) = (e1(seed), e2(seed));
    check_e1_e2(checks, &e1_first, &e2_first);
    let t = Instant::now();
    let e1_rows = e1(seed);
    let e1_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let e2_rows = e2(seed);
    let e2_ns = t.elapsed().as_nanos() as f64;
    check_e1_e2(checks, &e1_rows, &e2_rows);
    let (d1, d2) = (e1_digest(&e1_rows), e2_digest(&e2_rows));
    checks.check(
        d1 == e1_digest(&e1_first) && d2 == e2_digest(&e2_first),
        || "E1 or E2 rows differ across repeats".to_string(),
    );

    let cells = e3_cells(E3_SCALE, &E3_RATES_GBPS);
    let (mut plain_rows, mut profiled_rows) = (vec![], vec![]);
    let mut profile = SpanProfiler::default();
    let (mut tcp_ns, mut tcp_segments, mut mmt_ns, mut mmt_messages) = (0.0, 0, 0.0, 0);
    let (mut plain_ns, mut profiled_ns) = (0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        for profiled in [i % 2 == 1, i % 2 == 0] {
            let t = Instant::now();
            if profiled {
                let (row, p) = cell.run_profiled();
                profiled_ns += t.elapsed().as_nanos() as f64;
                profile.merge(&p);
                profiled_rows.push(row);
            } else {
                let row = cell.run();
                let ns = t.elapsed().as_nanos() as f64;
                plain_ns += ns;
                if cell.tcp.is_some() {
                    tcp_ns += ns;
                    tcp_segments += cell.bytes.div_ceil(MSG);
                } else {
                    mmt_ns += ns;
                    mmt_messages += cell.bytes.div_ceil(MSG);
                }
                check_e3(checks, cell, &row);
                plain_rows.push(row);
            }
        }
    }
    let d3 = e3_digest(&plain_rows);
    checks.check(d3 == E3_DIGEST, || {
        format!("E3 rows digest {d3:016x}, expected {E3_DIGEST:016x}")
    });
    checks.check(e3_digest(&profiled_rows) == d3, || {
        "E3 rows of the profiled rebuild differ from throughput::run_tcp/run_mmt".to_string()
    });
    println!("paper digests e1 {d1:016x} e2 {d2:016x} e3 {d3:016x}");
    for (stage, n, vtime) in profile.rows() {
        println!("profile paper-e3 {stage:<16} events {n:>12} vtime_ns {vtime}");
    }

    let count = |s: Stage| profile.get(s).events;
    let reconcile = Reconciliation {
        terms: vec![
            Term::span("transport.e1_s (span)", e1_ns),
            Term::span("transport.e2_s (span)", e2_ns),
            Term::per_op(
                "netsim.link_ns_per_pkt x E3 link_delivery",
                layers.get("netsim.link_ns_per_pkt"),
                count(Stage::LinkDelivery),
            ),
            Term::per_op(
                "netsim.wheel_schedule_ns x E3 timer_dispatch",
                layers.get("netsim.wheel_schedule_ns"),
                count(Stage::TimerDispatch),
            ),
            Term::per_op(
                "netsim.wheel_pop_ns x E3 timer_dispatch",
                layers.get("netsim.wheel_pop_ns"),
                count(Stage::TimerDispatch),
            ),
        ],
        wall_ns: e1_ns + e2_ns + profiled_ns,
    };
    Ok(Traced {
        transport: TransportLayer {
            e1_s: e1_ns / 1e9,
            e2_s: e2_ns / 1e9,
            e3_s: plain_ns / 1e9,
            tcp_ns_per_segment: tcp_ns / tcp_segments.max(1) as f64,
            mmt_ns_per_msg: mmt_ns / mmt_messages.max(1) as f64,
        },
        reconcile,
        overhead_frac: (e1_ns + e2_ns + profiled_ns) / (e1_ns + e2_ns + plain_ns) - 1.0,
    })
}
