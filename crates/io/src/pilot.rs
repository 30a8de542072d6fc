//! The `io-pilot` scenario: the pilot sender→DTN→receiver chain over
//! real UDP sockets.
//!
//! One poll loop drives every deployment shape. The three runners only
//! bind sockets and choose which ends of the chain they bring to it:
//!
//! - [`run_loopback`] — both ends in one process over a loopback socket
//!   pair. This is the CI shape: deterministic-enough, no peer
//!   coordination, exercises the full recovery path.
//! - [`run_connect`] — the sending end (sensor + border DTN), aimed at a
//!   remote receiver.
//! - [`run_listen`] — the receiving end, bound to an address, peer
//!   learned from the first datagram.
//!
//! Which ends are present decides when the loop stops. A receiver stops
//! it on complete delivery, or degraded once every message is delivered
//! or lost and the sender is done (or, listening, has been heard at all:
//! hearing nothing by the deadline is [`IoError::NoPeer`]). A lone sender
//! stops once its schedule is drained and the wire has gone quiet.
//!
//! Faults are injected on the *data* direction only (at the sending
//! socket); the NAK path stays clean, modelling a lossy WAN with a
//! protected control channel. The receiver's NAK retry interval is driven
//! by the [`RtoEstimator`]: each NAK→recovery round-trip feeds a sample,
//! each barren retry backs the timeout off, and an exhausted retry budget
//! degrades the flow early. A [`Watchdog`] ladder guards the configured
//! deadline: shed → degrade → abort-with-flight-dump.

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use mmt_core::{MmtReceiver, MmtSender, ReceiverConfig, RetransmitBuffer, SenderConfig};
use mmt_netsim::{Packet, Time};
use mmt_telemetry::{flight, MetricRegistry, TraceRecord};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;

use crate::clock::IoClock;
use crate::driver::{ReceiverSide, SenderSide};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::rto::RtoEstimator;
use crate::socket::{FaultySocket, SocketStats};
use crate::watchdog::{Watchdog, WatchdogStage};
use crate::IoError;

/// Idle sleep granularity: short enough to keep µs-scale schedules
/// honest, long enough not to spin a core.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Configuration for an io-pilot run.
#[derive(Debug, Clone)]
pub struct IoPilotConfig {
    /// Messages the sender emits.
    pub messages: u64,
    /// Payload bytes per message.
    pub message_len: usize,
    /// Gap between scheduled messages.
    pub gap: Time,
    /// Injected drop probability on the data direction.
    pub loss: f64,
    /// Injected duplication probability on the data direction.
    pub dup: f64,
    /// Injected fixed delay on the data direction.
    pub delay: Time,
    /// Seed for the fault injector rng.
    pub seed: u64,
    /// RTO floor.
    pub rto_min: Time,
    /// RTO ceiling.
    pub rto_max: Time,
    /// Per-sequence NAK retry budget (also the RTO backoff budget).
    pub nak_retries: u32,
    /// Total flow deadline (drives the watchdog ladder).
    pub deadline: Time,
    /// Flight-recorder ring capacity.
    pub flight_cap: usize,
}

impl IoPilotConfig {
    /// Defaults sized for a loopback smoke run: 200 × 1 KiB messages at
    /// a 50 µs pace, 5 ms RTO floor, 2 s deadline.
    pub fn defaults() -> IoPilotConfig {
        IoPilotConfig {
            messages: 200,
            message_len: 1024,
            gap: Time::from_micros(50),
            loss: 0.0,
            dup: 0.0,
            delay: Time::ZERO,
            seed: 1,
            rto_min: Time::from_millis(5),
            rto_max: Time::from_millis(500),
            nak_retries: 16,
            deadline: Time::from_secs(2),
            flight_cap: 4096,
        }
    }
}

/// Outcome of an io-pilot run.
#[derive(Debug, Clone)]
pub struct IoPilotReport {
    /// Messages the run expected end-to-end.
    pub messages: u64,
    /// Deduplicated deliveries at the receiver (0 on the connect side,
    /// which has no receiver).
    pub delivered: u64,
    /// Duplicate packets the receiver suppressed.
    pub duplicates: u64,
    /// NAKs the receiver sent.
    pub naks_sent: u64,
    /// Sequences recovered via NAK.
    pub recovered: u64,
    /// Sequences abandoned as lost.
    pub lost: u64,
    /// Sequences abandoned because their retry budget ran out.
    pub nak_retries_exhausted: u64,
    /// Datagrams the sender emitted.
    pub sent: u64,
    /// Whether the flow completed (every expected message delivered).
    pub completed: bool,
    /// Wall time consumed.
    pub elapsed: Time,
    /// Final watchdog stage.
    pub watchdog_stage: WatchdogStage,
    /// Watchdog transitions taken, with their times.
    pub watchdog_transitions: Vec<(Time, WatchdogStage)>,
    /// Final smoothed RTT estimate (ns; 0 if no sample).
    pub srtt_ns: u64,
    /// Final effective RTO (ns).
    pub rto_ns: u64,
    /// RTT samples folded into the estimator.
    pub rto_samples: u64,
    /// Fault-injection counters from the data direction.
    pub faults: FaultStats,
    /// Kernel-level counters for the data-direction socket.
    pub data_socket: SocketStats,
    /// Kernel-level counters for the control-direction socket.
    pub control_socket: SocketStats,
    /// The newest `flight_cap` flight-recorder records of the run.
    pub flight: Vec<TraceRecord>,
    /// Fault-injector seed (stamped into flight dumps).
    pub seed: u64,
    /// Order-sensitive FNV digest of `(msg_index, seq)` deliveries —
    /// comparable against a sim receiver's
    /// [`MmtReceiver::delivery_digest`] for driver equivalence (0 on the
    /// connect side, which has no receiver).
    pub delivery_digest: u64,
}

impl IoPilotReport {
    /// Exactly-once delivery: every expected message delivered, nothing
    /// abandoned. (Duplicate *packets* may well have arrived — the
    /// receiver's dedup is what this property tests.)
    pub fn exactly_once(&self) -> bool {
        self.delivered == self.messages && self.lost == 0
    }

    /// Render the flight recorder for this run.
    pub fn render_flight(&self, reason: &str) -> String {
        render_dump(reason, self.seed, self.elapsed, &self.flight)
    }

    /// Export run counters into a metric registry under the `io_pilot`
    /// node label, alongside whatever the machines themselves export.
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        let labels = [("node", "io_pilot")];
        for (name, help, value) in [
            (
                "mmt_io_sent_total",
                "Datagrams emitted by the sending endpoint.",
                self.sent,
            ),
            (
                "mmt_io_delivered_total",
                "Messages delivered (deduplicated).",
                self.delivered,
            ),
            (
                "mmt_io_recovered_total",
                "Sequences recovered via NAK over the real path.",
                self.recovered,
            ),
            (
                "mmt_io_lost_total",
                "Sequences abandoned as lost.",
                self.lost,
            ),
            (
                "mmt_io_faults_dropped_total",
                "Datagrams dropped by the socket fault injector.",
                self.faults.dropped,
            ),
            (
                "mmt_io_faults_duplicated_total",
                "Datagrams duplicated by the socket fault injector.",
                self.faults.duplicated,
            ),
            (
                "mmt_io_rto_samples_total",
                "RTT samples folded into the RTO estimator.",
                self.rto_samples,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        reg.describe(
            "mmt_io_srtt_ns",
            "Final smoothed RTT estimate in nanoseconds.",
        );
        reg.gauge_set("mmt_io_srtt_ns", &labels, self.srtt_ns as f64);
        reg.describe("mmt_io_rto_ns", "Final effective RTO in nanoseconds.");
        reg.gauge_set("mmt_io_rto_ns", &labels, self.rto_ns as f64);
    }
}

/// Render a flight dump. `events` counts every record the run made,
/// evicted ones included: that is the newest record's id.
fn render_dump(reason: &str, seed: u64, now: Time, records: &[TraceRecord]) -> String {
    let events = records.last().map_or(0, |r| r.packet_id);
    flight::render(reason, seed, now.as_nanos(), events, records)
}

/// Bounded flight recorder for io runs. Once full, each new record
/// evicts the oldest, so the tail of a failing run survives.
struct Flight {
    records: VecDeque<TraceRecord>,
    cap: usize,
    next_id: u64,
}

impl Flight {
    fn new(cap: usize) -> Flight {
        Flight {
            records: VecDeque::new(),
            cap: cap.max(1),
            next_id: 0,
        }
    }

    fn event(&mut self, now: Time, kind: &str, len_bytes: u64) {
        self.next_id += 1;
        if self.records.len() == self.cap {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord {
            ts_ns: now.as_nanos(),
            kind: kind.to_string(),
            node: None,
            node_name: Some("io_pilot".to_string()),
            link: None,
            packet_id: self.next_id,
            flow: 0,
            seq: None,
            config: None,
            len_bytes,
        });
    }
}

/// Receiver-side control bookkeeping: RTO feeding, backoff, degrade.
struct RxGovernor {
    rto: RtoEstimator,
    last_recovered: u64,
    last_naks: u64,
    nak_outstanding: Option<Time>,
    degraded: bool,
}

impl RxGovernor {
    /// Collapse retry budgets so outstanding gaps exhaust quickly and
    /// are accounted instead of retried past the deadline.
    fn degrade(&mut self, rx: &mut ReceiverSide, now: Time, flight: &mut Flight) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        let rcfg = rx.receiver_mut().config_mut();
        rcfg.max_nak_retries = 1;
        rcfg.give_up_after = self.rto.current();
        flight.event(now, "io_degrade", 0);
    }

    /// Fold the receiver's counters into RTO state after an iteration.
    fn after_iter(&mut self, now: Time, rx: &mut ReceiverSide, flight: &mut Flight) {
        let stats = rx.receiver().stats;
        if stats.recovered > self.last_recovered {
            if let Some(t0) = self.nak_outstanding.take() {
                self.rto.observe(now.saturating_sub(t0));
                flight.event(now, "io_rto_sample", self.rto.srtt_ns());
            }
            self.last_recovered = stats.recovered;
            self.apply(rx);
        }
        if stats.naks_sent > self.last_naks {
            if self.nak_outstanding.is_some() {
                // A retry round passed with no recovery: back off.
                if !self.rto.back_off() {
                    self.degrade(rx, now, flight);
                }
                flight.event(now, "io_rto_backoff", self.rto.current().as_nanos());
            } else {
                self.nak_outstanding = Some(now);
            }
            self.last_naks = stats.naks_sent;
            self.apply(rx);
        }
    }

    /// Push the current RTO estimate into the receiver's NAK interval.
    fn apply(&self, rx: &mut ReceiverSide) {
        rx.receiver_mut().config_mut().nak_interval = self.rto.current();
    }
}

/// The sending end: sensor + border DTN, the data socket they transmit
/// on (where faults are injected), and their queued wire output.
struct TxEnd {
    side: SenderSide,
    sock: FaultySocket,
    wire: Vec<Packet>,
}

impl TxEnd {
    fn new(cfg: &IoPilotConfig, sock: UdpSocket, peer: SocketAddr) -> Result<TxEnd, IoError> {
        let plan = FaultPlan {
            drop: cfg.loss,
            dup: cfg.dup,
            delay: cfg.delay,
        };
        let sock = FaultySocket::new(sock, Some(peer), FaultInjector::new(cfg.seed, plan))?;
        let exp = ExperimentId::new(2, 0);
        let sender = MmtSender::new(SenderConfig::regular(
            exp,
            cfg.message_len,
            cfg.gap,
            cfg.messages as usize,
        ));
        let buffer = RetransmitBuffer::with_defaults(
            exp,
            Ipv4Address::new(10, 0, 0, 5),
            cfg.deadline.as_nanos(),
            1 << 30,
        )
        .with_retx_holdoff(cfg.rto_min / 2);
        Ok(TxEnd {
            side: SenderSide::new(sender, buffer),
            sock,
            wire: Vec::new(),
        })
    }
}

/// The receiving end: the receiver, its RTO governor, the control socket
/// its NAKs leave by, and its queued wire output.
struct RxEnd {
    side: ReceiverSide,
    gov: RxGovernor,
    sock: FaultySocket,
    wire: Vec<Packet>,
}

impl RxEnd {
    /// `peer` is `None` on a listen side: the socket learns it from the
    /// first datagram.
    fn new(
        cfg: &IoPilotConfig,
        sock: UdpSocket,
        peer: Option<SocketAddr>,
    ) -> Result<RxEnd, IoError> {
        let sock = FaultySocket::new(
            sock,
            peer,
            FaultInjector::new(cfg.seed ^ 0x5ca1ab1e, FaultPlan::clean()),
        )?;
        let exp = ExperimentId::new(2, 0);
        let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
        rcfg.expect_messages = Some(cfg.messages);
        rcfg.reorder_delay = (cfg.rto_min / 8).max(Time::from_micros(100));
        // The NAK interval starts at the pre-sample RTO and is re-tuned by
        // the governor as samples arrive.
        let gov = RxGovernor {
            rto: RtoEstimator::new(cfg.rto_min, cfg.rto_max, cfg.nak_retries),
            last_recovered: 0,
            last_naks: 0,
            nak_outstanding: None,
            degraded: false,
        };
        rcfg.nak_interval = gov.rto.current();
        rcfg.nak_interval_max = cfg.deadline.max(rcfg.nak_interval);
        rcfg.max_nak_retries = cfg.nak_retries;
        // Time-based give-up is the watchdog's job out here.
        rcfg.give_up_after = cfg.deadline;
        Ok(RxEnd {
            side: ReceiverSide::new(MmtReceiver::new(rcfg)),
            gov,
            sock,
            wire: Vec::new(),
        })
    }
}

fn apply_watchdog_stage(
    stage: WatchdogStage,
    rx: Option<&mut RxEnd>,
    now: Time,
    flight: &mut Flight,
) {
    match stage {
        WatchdogStage::Shed => {
            flight.event(now, "io_watchdog_shed", 0);
            if let Some(rx) = rx {
                // Reduce retry pressure on the struggling path.
                let rcfg = rx.side.receiver_mut().config_mut();
                rcfg.nak_interval = rcfg.nak_interval * 2;
            }
        }
        WatchdogStage::Degraded => {
            flight.event(now, "io_watchdog_degrade", 0);
            if let Some(rx) = rx {
                rx.gov.degrade(&mut rx.side, now, flight);
            }
        }
        WatchdogStage::Aborted => flight.event(now, "io_watchdog_abort", 0),
        WatchdogStage::Healthy => {}
    }
}

/// The exit rule, decided by which ends are present: `Some(completed)`
/// once the run is over. `quiet` says the wire has been still for the
/// linger period.
fn finished(
    cfg: &IoPilotConfig,
    tx: Option<&TxEnd>,
    rx: Option<&RxEnd>,
    quiet: bool,
) -> Option<bool> {
    let sender_done = tx.map(|tx| tx.side.sender().is_complete());
    match rx {
        // A lone sender cannot see delivery: it is done once its schedule
        // is drained and NAKs have stopped coming.
        None => (sender_done == Some(true) && quiet).then_some(true),
        Some(rx) if rx.side.receiver().is_complete() => Some(true),
        // Degraded: every message is delivered or lost, and the sender is
        // known to be done — locally, or because a peer has been heard.
        Some(rx) => {
            let stats = rx.side.receiver().stats;
            let peer_done = sender_done.unwrap_or(rx.sock.stats.received > 0);
            (peer_done && stats.delivered + stats.lost >= cfg.messages).then_some(false)
        }
    }
}

/// The one poll loop. Each pass runs its phases across both ends in a
/// fixed order — watchdog, timers, receives, sends, flushes, governor —
/// and sleeps until the next wakeup when nothing moved.
fn drive(
    cfg: &IoPilotConfig,
    mut tx: Option<TxEnd>,
    mut rx: Option<RxEnd>,
) -> Result<IoPilotReport, IoError> {
    let mut watchdog = Watchdog::new(cfg.deadline);
    let mut flight = Flight::new(cfg.flight_cap);
    // A lone sender keeps serving NAKs until the wire has been quiet this
    // long.
    let linger = (cfg.rto_min * 4).max(Time::from_millis(200));
    let mut last_traffic = Time::ZERO;

    let clock = IoClock::start();
    let mut buf = vec![0u8; 65536];
    if let Some(tx) = &mut tx {
        tx.side.start(clock.now(), &mut tx.wire);
    }
    flight.event(Time::ZERO, "io_start", 0);

    let (completed, elapsed) = loop {
        let now = clock.now();
        if let Some(stage) = watchdog.check(now) {
            apply_watchdog_stage(stage, rx.as_mut(), now, &mut flight);
            if stage == WatchdogStage::Aborted {
                if tx.is_none() && rx.as_ref().is_some_and(|rx| rx.sock.stats.received == 0) {
                    return Err(IoError::NoPeer);
                }
                let records = flight.records.make_contiguous();
                let flight = render_dump("watchdog_abort", cfg.seed, now, records);
                let elapsed_ns = now.as_nanos();
                return Err(IoError::WatchdogAbort { flight, elapsed_ns });
            }
        }
        if let Some(tx) = &mut tx {
            tx.side.poll_timers(now, &mut tx.wire);
        }
        if let Some(rx) = &mut rx {
            rx.side.poll_timers(now, &mut rx.wire);
        }

        let mut moved = false;
        if let Some(tx) = &mut tx {
            while let Some(n) = tx.sock.recv(&mut buf)? {
                moved = true;
                flight.event(now, "io_rx_nak", n as u64);
                tx.side.wire_in(now, buf[..n].to_vec(), &mut tx.wire);
            }
        }
        if let Some(rx) = &mut rx {
            while let Some(n) = rx.sock.recv(&mut buf)? {
                moved = true;
                rx.side.wire_in(now, buf[..n].to_vec(), &mut rx.wire);
            }
        }
        if let Some(tx) = &mut tx {
            for pkt in tx.wire.drain(..) {
                moved = true;
                tx.sock.send(now, &pkt.bytes)?;
            }
        }
        if let Some(rx) = &mut rx {
            for pkt in rx.wire.drain(..) {
                moved = true;
                flight.event(now, "io_tx_nak", pkt.bytes.len() as u64);
                rx.sock.send(now, &pkt.bytes)?;
            }
        }
        if let Some(tx) = &mut tx {
            tx.sock.flush(now)?;
        }
        if let Some(rx) = &mut rx {
            rx.sock.flush(now)?;
            rx.gov.after_iter(now, &mut rx.side, &mut flight);
        }

        if moved {
            last_traffic = now;
        }
        let quiet = now.saturating_sub(last_traffic) >= linger;
        if let Some(completed) = finished(cfg, tx.as_ref(), rx.as_ref(), quiet) {
            break (completed, now);
        }
        if !moved {
            // Sleep until the next wakeup, at most IDLE_SLEEP; when one is
            // already due, loop again at once.
            let next = [
                tx.as_mut().and_then(|tx| tx.side.next_wake()),
                rx.as_mut().and_then(|rx| rx.side.next_wake()),
                tx.as_ref().and_then(|tx| tx.sock.next_release()),
                rx.as_ref().and_then(|rx| rx.sock.next_release()),
                watchdog.next_threshold(),
                // A lone sender also wakes when its linger runs out.
                last_traffic.checked_add(linger).filter(|_| rx.is_none()),
            ];
            let nap = next.into_iter().flatten().min().map_or(IDLE_SLEEP, |at| {
                Duration::from_nanos(at.saturating_sub(now).as_nanos()).min(IDLE_SLEEP)
            });
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    };

    flight.event(elapsed, "io_done", 0);
    // A missing end reports zeros for its counters.
    let (sent, faults, data_socket) = tx.as_ref().map_or(Default::default(), |tx| {
        (
            tx.side.sender().stats.sent,
            tx.sock.fault_stats(),
            tx.sock.stats,
        )
    });
    let (stats, delivery_digest, control_socket) = rx.as_ref().map_or(Default::default(), |rx| {
        let receiver = rx.side.receiver();
        (receiver.stats, receiver.delivery_digest(), rx.sock.stats)
    });
    let rto = rx.as_ref().map(|rx| &rx.gov.rto);
    Ok(IoPilotReport {
        messages: cfg.messages,
        delivered: stats.delivered,
        duplicates: stats.duplicates,
        naks_sent: stats.naks_sent,
        recovered: stats.recovered,
        lost: stats.lost,
        nak_retries_exhausted: stats.nak_retries_exhausted,
        sent,
        completed,
        elapsed,
        watchdog_stage: watchdog.stage(),
        watchdog_transitions: watchdog.transitions,
        srtt_ns: rto.map_or(0, RtoEstimator::srtt_ns),
        rto_ns: rto.map_or(0, |rto| rto.current().as_nanos()),
        rto_samples: rto.map_or(0, RtoEstimator::samples),
        faults,
        data_socket,
        control_socket,
        flight: flight.records.into(),
        seed: cfg.seed,
        delivery_digest,
    })
}

/// Run both endpoints in one process over a loopback socket pair.
pub fn run_loopback(cfg: &IoPilotConfig) -> Result<IoPilotReport, IoError> {
    let data_sock = UdpSocket::bind(("127.0.0.1", 0))?;
    let ctrl_sock = UdpSocket::bind(("127.0.0.1", 0))?;
    let data_addr = data_sock.local_addr()?;
    let ctrl_addr = ctrl_sock.local_addr()?;
    let tx = TxEnd::new(cfg, data_sock, ctrl_addr)?;
    let rx = RxEnd::new(cfg, ctrl_sock, Some(data_addr))?;
    drive(cfg, Some(tx), Some(rx))
}

/// Run the sending half against a remote receiver at `addr`.
pub fn run_connect(cfg: &IoPilotConfig, addr: &str) -> Result<IoPilotReport, IoError> {
    let peer: SocketAddr = addr.parse().map_err(|_| IoError::Addr(addr.to_string()))?;
    let tx = TxEnd::new(cfg, UdpSocket::bind(("0.0.0.0", 0))?, peer)?;
    drive(cfg, Some(tx), None)
}

/// Run the receiving half, bound to `addr`; the peer is learned from the
/// first datagram.
pub fn run_listen(cfg: &IoPilotConfig, addr: &str) -> Result<IoPilotReport, IoError> {
    let bound: SocketAddr = addr.parse().map_err(|_| IoError::Addr(addr.to_string()))?;
    let rx = RxEnd::new(cfg, UdpSocket::bind(bound)?, None)?;
    drive(cfg, None, Some(rx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_clean_run_delivers_exactly_once() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 50;
        cfg.gap = Time::from_micros(20);
        let report = run_loopback(&cfg).expect("loopback run");
        assert!(report.completed, "clean run completes: {report:?}");
        assert!(report.exactly_once());
        assert_eq!(report.delivered, 50);
        assert_eq!(report.lost, 0);
    }

    #[test]
    fn loopback_with_loss_recovers_via_nak() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 100;
        cfg.gap = Time::from_micros(20);
        cfg.loss = 0.1;
        cfg.seed = 7;
        cfg.rto_min = Time::from_millis(2);
        let report = run_loopback(&cfg).expect("lossy run");
        assert!(report.completed, "lossy run completes: {report:?}");
        assert!(report.exactly_once());
        assert!(
            report.faults.dropped > 0,
            "the injector actually dropped something"
        );
        assert!(report.recovered > 0, "recovery went through the NAK path");
        assert!(report.naks_sent > 0);
    }

    #[test]
    fn impossible_deadline_aborts_with_flight_dump() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 50;
        cfg.loss = 1.0; // nothing ever arrives
        cfg.deadline = Time::from_millis(50);
        match run_loopback(&cfg) {
            Err(IoError::WatchdogAbort { flight, elapsed_ns }) => {
                assert!(flight.contains("\"flight\":\"v1\""));
                assert!(flight.contains("watchdog_abort"));
                assert!(elapsed_ns >= Time::from_millis(50).as_nanos());
            }
            other => panic!("expected watchdog abort, got {other:?}"),
        }
    }

    /// A numeric field of a flight dump's header line.
    fn header_field(dump: &str, key: &str) -> u64 {
        let header = dump.lines().next().unwrap_or_default();
        let pat = format!("\"{key}\":");
        let at = header.find(&pat).expect("header field") + pat.len();
        let digits: String = header[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("numeric header field")
    }

    #[test]
    fn full_flight_recorder_keeps_the_newest_records() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 50;
        cfg.loss = 1.0;
        cfg.deadline = Time::from_millis(50);
        cfg.flight_cap = 2;
        match run_loopback(&cfg) {
            Err(IoError::WatchdogAbort { flight, .. }) => {
                let records: Vec<&str> = flight.lines().skip(1).collect();
                assert_eq!(records.len(), 2, "{flight}");
                assert!(
                    records[1].contains("\"io_watchdog_abort\""),
                    "the abort is the newest record: {flight}"
                );
                // io_start, the three watchdog stages, the degrade.
                assert!(header_field(&flight, "events") >= 5, "{flight}");
                assert_eq!(header_field(&flight, "records"), 2);
            }
            other => panic!("expected watchdog abort, got {other:?}"),
        }
    }

    #[test]
    fn flight_header_counts_every_event_not_only_the_kept_ones() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 100;
        cfg.gap = Time::from_micros(20);
        cfg.loss = 0.1;
        cfg.seed = 7;
        cfg.rto_min = Time::from_millis(2);
        cfg.flight_cap = 3;
        let report = run_loopback(&cfg).expect("lossy run");
        assert_eq!(report.flight.len(), 3);
        let last = report.flight.last().expect("a record").packet_id;
        assert!(last > 3, "NAK traffic overflowed the recorder");
        let dump = report.render_flight("complete");
        assert_eq!(header_field(&dump, "events"), last);
        assert_eq!(header_field(&dump, "records"), 3);
        assert_eq!(report.flight[2].kind, "io_done");
    }

    /// Start `run_listen` on a loopback port that was free a moment ago
    /// (bind `:0`, read the port, release it). Another socket may take the
    /// port in between, so a listener that fails to bind within 50 ms is
    /// started again on a fresh port.
    fn spawn_listener(
        cfg: &IoPilotConfig,
    ) -> (
        String,
        std::thread::JoinHandle<Result<IoPilotReport, IoError>>,
    ) {
        for _ in 0..5 {
            let addr = UdpSocket::bind(("127.0.0.1", 0))
                .and_then(|s| s.local_addr())
                .expect("probe a free port")
                .to_string();
            let (listen_cfg, listen_addr) = (cfg.clone(), addr.clone());
            let listener = std::thread::spawn(move || run_listen(&listen_cfg, &listen_addr));
            std::thread::sleep(std::time::Duration::from_millis(50));
            if !listener.is_finished() {
                return (addr, listener);
            }
            match listener.join().expect("listen thread") {
                Err(IoError::Socket(e)) if e.kind() == std::io::ErrorKind::AddrInUse => {}
                other => panic!("listener ended before its peer started: {other:?}"),
            }
        }
        panic!("no free loopback port in 5 tries");
    }

    #[test]
    fn lossy_listen_connect_pair_delivers_exactly_once() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.loss = 0.05;
        cfg.seed = 3;
        let (addr, listener) = spawn_listener(&cfg);
        let connector = run_connect(&cfg, &addr).expect("connect run");
        let listener = listener.join().expect("listen thread").expect("listen run");
        assert!(listener.completed, "lossy pair completes: {listener:?}");
        assert!(listener.exactly_once());
        assert!(listener.naks_sent > 0, "losses went through the NAK path");
        assert!(connector.completed);
        assert!(connector.faults.dropped > 0);
    }

    #[test]
    fn listener_without_a_peer_reports_no_peer() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.deadline = Time::from_millis(50);
        match run_listen(&cfg, "127.0.0.1:0") {
            Err(IoError::NoPeer) => {}
            other => panic!("expected NoPeer, got {other:?}"),
        }
    }
}
