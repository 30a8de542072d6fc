//! Nonblocking UDP with fault injection on the send path.
//!
//! [`FaultySocket`] owns a `std::net::UdpSocket` in nonblocking mode and
//! routes every outbound datagram through a [`FaultInjector`] before it
//! reaches `sendto`. Receives are plain — faults are injected exactly
//! once, at the sending socket, so a loopback pair with one faulty
//! direction models a lossy WAN with a clean control path.

use std::net::{SocketAddr, UdpSocket};

use mmt_netsim::Time;

use crate::fault::FaultInjector;
use crate::IoError;

/// Datagram counters for one socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Datagrams handed to the kernel.
    pub sent: u64,
    /// Bytes handed to the kernel.
    pub sent_bytes: u64,
    /// Datagrams received.
    pub received: u64,
    /// Bytes received.
    pub received_bytes: u64,
}

/// A nonblocking UDP socket whose sends pass through a fault injector.
#[derive(Debug)]
pub struct FaultySocket {
    sock: UdpSocket,
    peer: Option<SocketAddr>,
    injector: FaultInjector,
    ready: Vec<Vec<u8>>,
    /// Counters.
    pub stats: SocketStats,
}

impl FaultySocket {
    /// Wrap a bound socket. The socket is switched to nonblocking mode.
    /// `peer` may be `None` on a listen side — it is learned from the
    /// first received datagram.
    pub fn new(
        sock: UdpSocket,
        peer: Option<SocketAddr>,
        injector: FaultInjector,
    ) -> Result<FaultySocket, IoError> {
        sock.set_nonblocking(true)?;
        Ok(FaultySocket {
            sock,
            peer,
            injector,
            ready: Vec::new(),
            stats: SocketStats::default(),
        })
    }

    /// Queue a datagram for the peer, subject to the fault plan. Copies
    /// that survive (and are not delayed) go to the kernel immediately.
    pub fn send(&mut self, now: Time, datagram: &[u8]) -> Result<(), IoError> {
        self.injector.admit(now, datagram, &mut self.ready);
        self.flush(now)
    }

    /// Release delay-held copies that are due and push everything ready
    /// to the kernel.
    pub fn flush(&mut self, now: Time) -> Result<(), IoError> {
        self.injector.release_due(now, &mut self.ready);
        let Some(peer) = self.peer else {
            // No peer yet (listen side, nothing received): hold output.
            return Ok(());
        };
        for datagram in self.ready.drain(..) {
            match self.sock.send_to(&datagram, peer) {
                Ok(n) => {
                    self.stats.sent += 1;
                    self.stats.sent_bytes += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Kernel buffer full: treat as wire loss. The NAK
                    // path recovers it like any other drop.
                    self.injector.stats.dropped += 1;
                }
                Err(e) => return Err(IoError::Socket(e)),
            }
        }
        Ok(())
    }

    /// Try to receive one datagram. Returns `Ok(None)` when the socket
    /// has nothing pending. Learns the peer from the first arrival if it
    /// was unknown.
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<Option<usize>, IoError> {
        match self.sock.recv_from(buf) {
            Ok((n, from)) => {
                if self.peer.is_none() {
                    self.peer = Some(from);
                }
                self.stats.received += 1;
                self.stats.received_bytes += n as u64;
                Ok(Some(n))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(IoError::Socket(e)),
        }
    }

    /// When the injector will next release a held copy, if any.
    pub fn next_release(&self) -> Option<Time> {
        self.injector.next_release()
    }

    /// Fault counters accumulated on this socket's send path.
    pub fn fault_stats(&self) -> crate::fault::FaultStats {
        self.injector.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn loopback_pair() -> (FaultySocket, FaultySocket) {
        let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind a");
        let b = UdpSocket::bind(("127.0.0.1", 0)).expect("bind b");
        let a_addr = a.local_addr().expect("addr a");
        let b_addr = b.local_addr().expect("addr b");
        let fa = FaultySocket::new(a, Some(b_addr), FaultInjector::new(1, FaultPlan::clean()))
            .expect("wrap a");
        let fb = FaultySocket::new(b, Some(a_addr), FaultInjector::new(2, FaultPlan::clean()))
            .expect("wrap b");
        (fa, fb)
    }

    #[test]
    fn clean_roundtrip_over_loopback() {
        let (mut a, mut b) = loopback_pair();
        a.send(Time::ZERO, b"hello").expect("send");
        let mut buf = [0u8; 64];
        let mut got = None;
        for _ in 0..100 {
            if let Some(n) = b.recv(&mut buf).expect("recv") {
                got = Some(buf[..n].to_vec());
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));
        assert_eq!(a.stats.sent, 1);
        assert_eq!(b.stats.received, 1);
    }

    #[test]
    fn full_drop_plan_sends_nothing() {
        let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let peer = a.local_addr().expect("addr");
        let plan = FaultPlan {
            drop: 1.0,
            dup: 0.0,
            delay: Time::ZERO,
        };
        let mut s = FaultySocket::new(a, Some(peer), FaultInjector::new(3, plan)).expect("wrap");
        for _ in 0..10 {
            s.send(Time::ZERO, b"x").expect("send");
        }
        assert_eq!(s.stats.sent, 0);
        assert_eq!(s.fault_stats().dropped, 10);
    }
}
