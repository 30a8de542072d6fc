//! Per-layer cost probes: each times one crate's public call from the
//! outside, on inputs shaped like the workload that exercises it, and
//! reports ns/op per measurement window. The suite is identical in every
//! traced run so the figures compare across workloads and commits.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use mmt_core::controller::{HealthSample, ModeController};
use mmt_core::{FlowTable, SeqTracker};
use mmt_dataplane::action::Intrinsics;
use mmt_dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
use mmt_dataplane::programs::{self, BorderConfig};
use mmt_io::{FaultInjector, FaultPlan, FaultySocket};
use mmt_netsim::linkstats::{LINK_COUNTERS, LINK_GAUGES};
use mmt_netsim::{
    Bandwidth, Context, LinkSpec, LinkStatsBlock, Node, Packet, PacketArena, PortId, SimRng,
    Simulator, Time, TimerWheel,
};
use mmt_pilot::experiments::failover;
use mmt_telemetry::QuantileSketch;
use mmt_wire::mmt::{ExperimentId, Features, MmtRepr};
use mmt_wire::{EthernetAddress, Ipv4Address};

use crate::stats;

/// Measurement windows per probe; the median over them is reported.
const WINDOWS: usize = 7;
/// Target timed length of one window.
const WINDOW: Duration = Duration::from_millis(20);

/// Flows (sensors) in one fleet group: K = 100 000 over 16 DTN groups.
/// Group-local structures — the timer wheel, the flow table, the link
/// stats block — hold this many entries while the fleet runs.
const GROUP_FLOWS: usize = 100_000 / 16;
/// Pacing gap between a fleet sensor's packets.
const SENSOR_GAP_NS: u64 = 100_000;
/// Payload bytes of a fleet or pilot message.
const PAYLOAD: usize = 8192;

/// One probe's per-window figures.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Metric name, `<crate>.<what>_ns`.
    pub name: &'static str,
    /// Unit of the figures.
    pub unit: &'static str,
    /// One figure per window.
    pub windows: Vec<f64>,
}

impl Probe {
    /// Median over the windows.
    pub fn median(&self) -> f64 {
        stats::median(&self.windows)
    }
}

/// The measured suite.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Probes in print order.
    pub probes: Vec<Probe>,
}

impl Layers {
    /// Median of the named probe; NaN for a name the suite does not
    /// measure, which the finite-metric check then reports.
    pub fn get(&self, name: &str) -> f64 {
        self.probes
            .iter()
            .find(|p| p.name == name)
            .map_or(f64::NAN, Probe::median)
    }

    fn push(&mut self, name: &'static str, unit: &'static str, windows: Vec<f64>) {
        self.probes.push(Probe {
            name,
            unit,
            windows,
        });
    }

    /// One line per probe: median, quartiles and spread over the windows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.probes {
            let (q1, q3) = stats::quartiles(&p.windows);
            out.push_str(&format!(
                "layer {:<36} median {:>14.3} {:<3} q1 {:>14.3} q3 {:>14.3} spread {:.4} windows {}\n",
                p.name,
                p.median(),
                p.unit,
                q1,
                q3,
                stats::spread(&p.windows),
                p.windows.len()
            ));
        }
        out
    }
}

/// Run `batch` (which returns operations done and the time they took)
/// until each window has accumulated [`WINDOW`] of timed work; one ns/op
/// figure per window. One unrecorded batch runs first as warm-up.
fn sample(mut batch: impl FnMut() -> (u64, Duration)) -> Vec<f64> {
    batch();
    (0..WINDOWS)
        .map(|_| {
            let (mut ops, mut timed) = (0u64, Duration::ZERO);
            while timed < WINDOW {
                let (n, t) = batch();
                ops += n;
                timed += t;
            }
            timed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect()
}

/// Time `n` calls of `op`.
fn timed(n: u64, mut op: impl FnMut()) -> (u64, Duration) {
    let t = Instant::now();
    for _ in 0..n {
        op();
    }
    (n, t.elapsed())
}

/// The fleet sensor's data header (mode 1: sequence only).
fn fleet_repr() -> MmtRepr {
    MmtRepr::data(ExperimentId::new(3, 0)).with_sequence(0)
}

/// A mode-2 WAN header as DTN 1 stamps it in the pilot: sequence,
/// retransmit source, deadline, age and NAK service.
fn mode2_repr() -> MmtRepr {
    MmtRepr::data(ExperimentId::new(2, 0))
        .with_sequence(42)
        .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
        .with_timeliness(1_000_000, Ipv4Address::new(10, 0, 0, 9))
        .with_age(1_500, false)
        .with_flags(Features::ACK_NAK)
}

fn wire(out: &mut Layers) {
    let base = fleet_repr();
    let mut buf = vec![0u8; base.header_len()];
    let mut seq = 0u64;
    out.push(
        "wire.encode_into_ns",
        "ns",
        sample(|| {
            timed(4096, || {
                seq = seq.wrapping_add(1);
                black_box(
                    base.with_sequence(seq)
                        .encode_into(black_box(&mut buf))
                        .ok(),
                );
            })
        }),
    );
    out.push(
        "wire.decode_from_ns",
        "ns",
        sample(|| {
            timed(4096, || {
                black_box(MmtRepr::decode_from(black_box(&buf)).ok());
            })
        }),
    );
    let wan = mode2_repr();
    let mut buf = vec![0u8; wan.header_len()];
    out.push(
        "wire.emit_mode2_ns",
        "ns",
        sample(|| {
            timed(4096, || {
                black_box(wan.emit(black_box(&mut buf)).ok());
            })
        }),
    );
    out.push(
        "wire.parse_mode2_ns",
        "ns",
        sample(|| {
            timed(4096, || {
                black_box(MmtRepr::parse(black_box(&buf)).ok());
            })
        }),
    );
}

/// Wheel operations at a fleet group's timer occupancy: the wheel holds
/// [`GROUP_FLOWS`] sensor timers; each batch pops a quarter of them and
/// re-arms each one sensor gap later (as a sensor does after sending),
/// then schedules and cancels a quarter more.
fn wheel(out: &mut Layers) {
    let mut rng = SimRng::new(7);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    for i in 0..GROUP_FLOWS {
        wheel.schedule(rng.next_bounded(SENSOR_GAP_NS), i as u32);
    }
    let quarter = GROUP_FLOWS / 4;
    let mut popped: Vec<(u64, u32)> = Vec::with_capacity(quarter);
    let mut tokens = Vec::with_capacity(quarter);
    let (mut pop, mut schedule, mut cancel) = (Vec::new(), Vec::new(), Vec::new());
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..quarter {
            if let Some(entry) = wheel.pop() {
                popped.push(entry);
            }
        }
        let pop_t = t.elapsed();
        let n = popped.len() as u64;
        let last = popped.last().map_or(0, |e| e.0);
        let t = Instant::now();
        for (at, v) in popped.drain(..) {
            black_box(wheel.schedule(at + SENSOR_GAP_NS, v));
        }
        let schedule_t = t.elapsed();
        for i in 0..quarter {
            tokens.push(wheel.schedule(last + rng.next_bounded(SENSOR_GAP_NS), i as u32));
        }
        let t = Instant::now();
        for tok in tokens.drain(..) {
            black_box(wheel.cancel(tok));
        }
        let cancel_t = t.elapsed();
        (n, pop_t, schedule_t, cancel_t)
    };
    batch();
    for _ in 0..WINDOWS {
        let (mut ops, mut p, mut s, mut c) = (0u64, Duration::ZERO, Duration::ZERO, Duration::ZERO);
        while p + s + c < WINDOW * 3 {
            let (n, pt, st, ct) = batch();
            ops += n;
            p += pt;
            s += st;
            c += ct;
        }
        let per = |d: Duration| d.as_nanos() as f64 / ops.max(1) as f64;
        pop.push(per(p));
        schedule.push(per(s));
        cancel.push(per(c));
    }
    out.push("netsim.wheel_schedule_ns", "ns", schedule);
    out.push("netsim.wheel_pop_ns", "ns", pop);
    out.push("netsim.wheel_cancel_ns", "ns", cancel);
}

/// A node that sends `n` 1500-byte packets at start.
struct Burst(usize);

impl Node for Burst {
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.0 {
            ctx.send(0, Packet::new(vec![0u8; 1500]));
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A node that drops everything it receives.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn netsim(out: &mut Layers) {
    let header_len = fleet_repr().header_len();
    let mut arena = PacketArena::new();
    let mut flow = 0u64;
    out.push(
        "netsim.arena_frame_virtual_ns",
        "ns",
        sample(|| {
            timed(4096, || {
                flow += 1;
                let pkt = arena.frame_virtual(header_len, header_len + PAYLOAD, flow);
                arena.recycle(black_box(pkt));
            })
        }),
    );
    // The ROADMAP's one-link delivery case: 10 000 packets over one link.
    const PKTS: usize = 10_000;
    out.push(
        "netsim.link_ns_per_pkt",
        "ns",
        sample(|| {
            let t = Instant::now();
            let mut sim = Simulator::new(1);
            let src = sim.add_node("src", Box::new(Burst(PKTS)));
            let dst = sim.add_node("dst", Box::new(Sink));
            sim.add_oneway(
                src,
                0,
                dst,
                0,
                LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(1)),
            );
            sim.run();
            black_box(sim.now());
            (PKTS as u64, t.elapsed())
        }),
    );
    // One group's per-link cells folded into the shard accumulator: every
    // group after the first folds into existing rows.
    let mut block = LinkStatsBlock::new();
    for link in 0..GROUP_FLOWS as u32 {
        let c = u64::from(link);
        block.push(
            link,
            "sensor",
            "dtn",
            [c; LINK_COUNTERS.len()],
            [0.5; LINK_GAUGES.len()],
        );
    }
    let mut acc = LinkStatsBlock::new();
    acc.merge_from(&block);
    out.push(
        "netsim.linkstats_merge_ns",
        "ns",
        sample(|| {
            let t = Instant::now();
            acc.merge_from(black_box(&block));
            (GROUP_FLOWS as u64, t.elapsed())
        }),
    );
}

fn telemetry(out: &mut Layers) {
    let mut rng = SimRng::new(11);
    // Fleet-like latencies: 50–250 µs propagation plus serialization.
    let values: Vec<u64> = (0..4096)
        .map(|_| 50_000 + rng.next_bounded(200_000) + 6_600)
        .collect();
    let mut sketch = QuantileSketch::new();
    out.push(
        "telemetry.sketch_record_ns",
        "ns",
        sample(|| {
            let t = Instant::now();
            for &v in &values {
                sketch.record(black_box(v));
            }
            (values.len() as u64, t.elapsed())
        }),
    );
    let other = sketch.clone();
    out.push(
        "telemetry.sketch_merge_ns",
        "ns",
        sample(|| timed(64, || sketch.merge(black_box(&other)))),
    );
}

fn core(out: &mut Layers) {
    // A fleet group's flow table; one sweep touches every row the way a
    // sensor emission plus a DTN delivery do.
    let mut table = FlowTable::with_capacity(GROUP_FLOWS);
    let flows: Vec<_> = (0..GROUP_FLOWS)
        .filter_map(|_| {
            let id = table.alloc()?;
            table.set_remaining(id, 8);
            Some(id)
        })
        .collect();
    out.push(
        "core.flowtable_sweep_ns_per_flow",
        "ns",
        sample(|| {
            let t = Instant::now();
            for &id in &flows {
                let seq = table.seq(id).unwrap_or(0);
                let remaining = table.remaining(id).unwrap_or(0);
                table.set_seq(id, seq.wrapping_add(1));
                table.set_remaining(id, black_box(remaining));
                table.add_occupancy(id, 1);
            }
            (flows.len() as u64, t.elapsed())
        }),
    );
    // The ROADMAP's seqtrack cases: 10k records in order, and 10k records
    // with every other sequence missing plus a NAK-range query.
    out.push(
        "core.seqtrack_in_order_ns",
        "ns",
        sample(|| {
            let t = Instant::now();
            let mut tracker = SeqTracker::new();
            for s in 0..10_000u64 {
                tracker.record(s);
            }
            black_box(tracker.received_count());
            (10_000, t.elapsed())
        }),
    );
    out.push(
        "core.seqtrack_gaps_ns",
        "ns",
        sample(|| {
            let t = Instant::now();
            let mut tracker = SeqTracker::new();
            for s in (0..20_000u64).step_by(2) {
                tracker.record(s);
            }
            black_box(tracker.missing_ranges(32).len());
            (10_000, t.elapsed())
        }),
    );
    // One 5 ms control interval of the lossy pilot: ~5 000 WAN packets,
    // 0.5% of them lost, a half-full retransmit buffer.
    let mut controller = ModeController::new(failover::controller_config());
    let samples: Vec<HealthSample> = (0..16u64)
        .map(|i| HealthSample {
            wan_tx: 5_000,
            wan_lost: 20 + i % 11,
            nak_retries_exhausted: 0,
            deadline_misses: 0,
            buffer_occupancy_bytes: 20_000_000 + i * 1_000_000,
            primary_alive: true,
        })
        .collect();
    out.push(
        "core.controller_observe_ns",
        "ns",
        sample(|| {
            let t = Instant::now();
            for s in &samples {
                black_box(controller.observe(black_box(s)));
            }
            (samples.len() as u64, t.elapsed())
        }),
    );
}

/// Time `process` over batches of freshly parsed copies of `frame`; the
/// copies are made outside the timed region.
fn batched_frames(
    frame: &[u8],
    mut prepare: impl FnMut(Vec<u8>) -> ParsedPacket,
    mut process: impl FnMut(&mut ParsedPacket),
) -> Vec<f64> {
    const BATCH: usize = 128;
    let mut batch: Vec<ParsedPacket> = Vec::with_capacity(BATCH);
    sample(|| {
        batch.extend((0..BATCH).map(|_| prepare(frame.to_vec())));
        let t = Instant::now();
        for pkt in &mut batch {
            process(pkt);
        }
        let took = t.elapsed();
        batch.clear();
        (BATCH as u64, took)
    })
}

fn dataplane(out: &mut Layers) {
    let intrinsics = Intrinsics {
        now_ns: 100,
        created_at_ns: 0,
    };
    let mac = |b| EthernetAddress([2, 0, 0, 0, 0, b]);
    let sensor_frame = build_eth_mmt_frame(
        mac(1),
        mac(2),
        &MmtRepr::data(ExperimentId::new(2, 0)),
        &[0u8; PAYLOAD],
    );
    let mut border = programs::daq_to_wan_border(BorderConfig {
        daq_port: 0,
        wan_port: 1,
        retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
        deadline_budget_ns: 50_000_000,
        notify_addr: Ipv4Address::new(10, 0, 0, 1),
        priority_class: None,
    });
    out.push(
        "dataplane.border_upgrade_ns",
        "ns",
        batched_frames(
            &sensor_frame,
            |f| ParsedPacket::parse(f, 0),
            |pkt| {
                black_box(border.process(pkt, intrinsics));
            },
        ),
    );
    let wan_frame = build_eth_mmt_frame(mac(1), mac(2), &mode2_repr(), &[0u8; PAYLOAD]);
    let mut transit = programs::wan_transit(0, 1, 40_000_000);
    out.push(
        "dataplane.transit_age_ns",
        "ns",
        batched_frames(
            &wan_frame,
            |f| ParsedPacket::parse(f, 0),
            |pkt| {
                black_box(transit.process(pkt, intrinsics));
            },
        ),
    );
    let mut frames: Vec<Vec<u8>> = Vec::new();
    out.push(
        "dataplane.parse_classify_ns",
        "ns",
        sample(|| {
            frames.extend((0..128).map(|_| wan_frame.clone()));
            let t = Instant::now();
            for f in frames.drain(..) {
                black_box(ParsedPacket::parse(f, 0));
            }
            (128, t.elapsed())
        }),
    );
}

/// `FaultySocket` send and receive over a clean loopback pair, with
/// io-loopback's 1 KiB messages plus header; batches stay far below the
/// kernel receive buffer so nothing is dropped.
fn io(out: &mut Layers) -> Result<(), String> {
    let err = |e: std::io::Error| format!("loopback socket: {e}");
    let a = UdpSocket::bind(("127.0.0.1", 0)).map_err(err)?;
    let b = UdpSocket::bind(("127.0.0.1", 0)).map_err(err)?;
    let (a_addr, b_addr) = (a.local_addr().map_err(err)?, b.local_addr().map_err(err)?);
    let io_err = |e: mmt_io::IoError| format!("loopback socket: {e}");
    let mut tx = FaultySocket::new(a, Some(b_addr), FaultInjector::new(1, FaultPlan::clean()))
        .map_err(io_err)?;
    let mut rx = FaultySocket::new(b, Some(a_addr), FaultInjector::new(2, FaultPlan::clean()))
        .map_err(io_err)?;
    let datagram = vec![0x5au8; 1024 + mode2_repr().header_len()];
    let mut buf = vec![0u8; 65_536];
    const BATCH: u64 = 32;
    let mut batch = || -> Result<(Duration, Duration), String> {
        let t = Instant::now();
        for _ in 0..BATCH {
            tx.send(Time::ZERO, black_box(&datagram)).map_err(io_err)?;
        }
        let send_t = t.elapsed();
        let t = Instant::now();
        let mut got = 0u64;
        let mut idle = 0u32;
        while got < BATCH {
            match rx.recv(&mut buf).map_err(io_err)? {
                Some(_) => got += 1,
                None if idle < 1_000_000 => idle += 1,
                None => return Err("loopback probe lost datagrams".to_string()),
            }
        }
        Ok((send_t, t.elapsed()))
    };
    batch()?;
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    for _ in 0..WINDOWS {
        let (mut ops, mut s, mut r) = (0u64, Duration::ZERO, Duration::ZERO);
        while s + r < WINDOW * 2 {
            let (st, rt) = batch()?;
            ops += BATCH;
            s += st;
            r += rt;
        }
        send.push(s.as_nanos() as f64 / ops as f64);
        recv.push(r.as_nanos() as f64 / ops as f64);
    }
    out.push("io.send_ns", "ns", send);
    out.push("io.recv_ns", "ns", recv);
    Ok(())
}

/// Measure the whole suite.
pub fn measure() -> Result<Layers, String> {
    let mut out = Layers::default();
    wire(&mut out);
    wheel(&mut out);
    netsim(&mut out);
    telemetry(&mut out);
    core(&mut out);
    dataplane(&mut out);
    io(&mut out)?;
    Ok(out)
}
