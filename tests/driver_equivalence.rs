//! Driver equivalence: the *same* sans-io machines, driven once by the
//! virtual-time simulator and once by the real-time UDP plane, must
//! deliver the same messages in the same order.
//!
//! The comparison runs over a lossless path (sim links without loss; io
//! loopback with the fault injector off) so wall-clock jitter cannot
//! change *what* is delivered — only when. The digest is therefore taken
//! over the core-level delivery log — `(msg_index, seq)` pairs in arrival
//! order — not over any time-stamped telemetry.

use std::sync::mpsc;
use std::time::Duration;

use mmt::io::{run_connect, run_listen, run_loopback, IoError, IoPilotConfig, IoPilotReport};
use mmt::netsim::{Bandwidth, LinkSpec, Simulator, Time};
use mmt::protocol::buffer::{PORT_DAQ, PORT_WAN};
use mmt::protocol::{MmtReceiver, MmtSender, ReceiverConfig, RetransmitBuffer, SenderConfig};
use mmt::wire::mmt::ExperimentId;
use mmt::wire::Ipv4Address;

const MESSAGES: u64 = 120;
const LEN: usize = 512;
const GAP: Time = Time::from_micros(20);
const SEED: u64 = 11;

/// Wall-clock ceiling for the two-process pair, well above the in-run
/// 2 s deadline so the watchdog (not the harness) bounds a bad run.
const HARNESS_TIMEOUT: Duration = Duration::from_secs(20);

struct SimOutcome {
    delivered: u64,
    lost: u64,
    duplicates: u64,
    digest: u64,
    log: Vec<(u64, Option<u64>)>,
}

/// The sim side of the comparison: sender → DTN → receiver over
/// lossless, low-latency links, with node configs matching the io
/// pilot's builders.
fn run_sim() -> SimOutcome {
    let exp = ExperimentId::new(2, 0);
    let mut sim = Simulator::new(SEED);
    let sensor = sim.add_node(
        "sensor",
        Box::new(MmtSender::new(SenderConfig::regular(
            exp,
            LEN,
            GAP,
            MESSAGES as usize,
        ))),
    );
    let dtn = sim.add_node(
        "dtn1",
        Box::new(RetransmitBuffer::with_defaults(
            exp,
            Ipv4Address::new(10, 0, 0, 5),
            Time::from_secs(2).as_nanos(),
            1 << 30,
        )),
    );
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.expect_messages = Some(MESSAGES);
    let receiver = sim.add_node("receiver", Box::new(MmtReceiver::new(rcfg)));
    let fast = LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5));
    // `connect` wires both directions, so the receiver's NAK path back
    // to the DTN rides the same WAN link spec.
    sim.connect(sensor, 0, dtn, PORT_DAQ, fast);
    sim.connect(dtn, PORT_WAN, receiver, 0, fast);
    sim.run_until(Time::from_secs(5));
    let rx = sim.node_as::<MmtReceiver>(receiver).expect("receiver");
    let log = rx
        .log()
        .iter()
        .map(|m| (m.msg_index, m.seq))
        .collect::<Vec<_>>();
    SimOutcome {
        delivered: rx.stats.delivered,
        lost: rx.stats.lost,
        duplicates: rx.stats.duplicates,
        digest: rx.delivery_digest(),
        log,
    }
}

fn io_config() -> IoPilotConfig {
    let mut cfg = IoPilotConfig::defaults();
    cfg.messages = MESSAGES;
    cfg.message_len = LEN;
    cfg.gap = GAP;
    cfg.loss = 0.0;
    cfg.dup = 0.0;
    cfg.delay = Time::ZERO;
    cfg.seed = SEED;
    cfg
}

#[test]
fn sim_and_io_drivers_deliver_identical_sequences() {
    let sim = run_sim();
    assert_eq!(sim.delivered, MESSAGES, "sim driver must be lossless here");
    assert_eq!(sim.lost, 0);
    assert_eq!(sim.duplicates, 0);

    let report = run_loopback(&io_config()).expect("io loopback run");
    assert!(report.completed, "io driver must complete: {report:?}");

    // Conservation and exactly-once on the real path.
    assert_eq!(report.delivered, MESSAGES);
    assert_eq!(report.lost, 0);
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.naks_sent, 0, "lossless loopback needs no recovery");

    // The heart of the test: byte-identical delivery logs.
    assert_eq!(
        report.delivery_digest, sim.digest,
        "sim and io drivers disagreed on the delivered (msg_index, seq) sequence\nsim log head: {:?}",
        &sim.log[..sim.log.len().min(5)]
    );
}

#[test]
fn sim_delivery_log_shape_is_the_expected_identity() {
    // Belt and braces for the digest above: the lossless sim log is the
    // identity mapping (message i ↔ sequence i, in order), so a matching
    // io digest really does mean "same messages, same order".
    let log = run_sim().log;
    assert_eq!(log.len(), MESSAGES as usize);
    for (i, (msg_index, seq)) in log.iter().enumerate() {
        assert_eq!(*msg_index, i as u64);
        assert_eq!(*seq, Some(i as u64));
    }
}

#[test]
fn io_driver_runs_are_reproducible_at_the_delivery_level() {
    // Wall-clock timing varies run to run; the delivered sequence must
    // not. Two lossless runs agree with each other (and with the sim,
    // per the test above).
    let a = run_loopback(&io_config()).expect("first run");
    let b = run_loopback(&io_config()).expect("second run");
    assert_eq!(a.delivery_digest, b.delivery_digest);
    assert_eq!(a.delivered, b.delivered);
}

type Half = mpsc::Receiver<Result<IoPilotReport, IoError>>;

/// Start `run_listen` on a loopback port that was free a moment ago: bind
/// `:0`, read the port the kernel picked, release the socket. Another
/// socket may take the port in between, so a listener that fails to bind
/// within 50 ms is started again on a fresh port.
fn spawn_listener() -> (String, Half) {
    for _ in 0..5 {
        let port = std::net::UdpSocket::bind(("127.0.0.1", 0))
            .and_then(|s| s.local_addr())
            .expect("probe a free port")
            .port();
        let addr = format!("127.0.0.1:{port}");
        let (tx, rx) = mpsc::channel();
        let listen_addr = addr.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run_listen(&io_config(), &listen_addr));
        });
        match rx.recv_timeout(Duration::from_millis(50)) {
            // Still running: bound, and waiting for its peer.
            Err(mpsc::RecvTimeoutError::Timeout) => return (addr, rx),
            Ok(Err(IoError::Socket(e))) if e.kind() == std::io::ErrorKind::AddrInUse => {}
            other => panic!("listener ended before its peer started: {other:?}"),
        }
    }
    panic!("no free loopback port in 5 tries");
}

/// Await one half of the pair, failing the test if it outlives the
/// harness timeout instead of wedging the suite.
fn await_half(label: &str, rx: &Half) -> IoPilotReport {
    match rx.recv_timeout(HARNESS_TIMEOUT) {
        Ok(result) => result.unwrap_or_else(|e| panic!("{label}: {e}")),
        Err(_) => panic!("{label} hung past the {HARNESS_TIMEOUT:?} harness timeout"),
    }
}

#[test]
fn listen_and_connect_pair_matches_the_sim_delivery_digest() {
    // The two-process deployment shape in one test process: the receiver
    // listens on its own thread and learns its peer from the first
    // datagram; the sender connects to it over 127.0.0.1.
    let (addr, listen_rx) = spawn_listener();
    let (connect_tx, connect_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = connect_tx.send(run_connect(&io_config(), &addr));
    });

    let listener = await_half("listen", &listen_rx);
    let connector = await_half("connect", &connect_rx);
    assert!(
        listener.completed && listener.exactly_once(),
        "listener must deliver exactly once: {listener:?}"
    );
    assert_eq!(listener.delivered, MESSAGES);
    assert_eq!(
        listener.delivery_digest,
        run_sim().digest,
        "the listen side disagreed with the sim on the delivered sequence"
    );
    assert!(
        connector.completed,
        "connect side must drain: {connector:?}"
    );
    assert_eq!(connector.sent, MESSAGES);
}
