//! The sans-io state-machine contract.
//!
//! Every protocol node in the workspace is a pure state machine: it
//! consumes an [`Input`] at a caller-supplied instant and pushes
//! [`Output`]s — and that is *all* it can do. No clocks (time arrives as
//! the `now` argument), no sockets (frames arrive as inputs and leave as
//! outputs), no threads, no sleeping (a machine that needs the future
//! asks for it with [`Output::WakeAt`]). The same machines therefore run
//! unchanged under two drivers:
//!
//! * this simulator: every [`Machine`] is a [`Node`] through one blanket
//!   impl whose hooks forward to [`Machine::poll`], and
//! * the real-socket runtime (`mmt-io`), which feeds UDP datagrams and a
//!   monotonic clock into the identical `poll` functions.
//!
//! Because the adapter replays outputs in exactly the order the machine
//! pushed them, the simulator's event stream — and with it every
//! determinism digest — is byte-identical to a direct-`Context`
//! implementation.

use std::any::Any;

use crate::node::{Context, Node, PortId, TimerToken};
use crate::packet::Packet;
use crate::time::Time;

/// One event presented to a state machine.
#[derive(Debug)]
pub enum Input {
    /// The node has been started (driver boot, `t = 0` in the sim).
    Start,
    /// A frame arrived on `port`.
    Frame {
        /// The ingress port.
        port: PortId,
        /// The frame, with driver metadata.
        pkt: Packet,
    },
    /// A previously requested [`Output::WakeAt`] instant has been reached.
    Timer {
        /// The token the machine passed when requesting the wake-up.
        token: TimerToken,
    },
    /// The node has been restarted after a crash.
    Restart,
}

/// One effect requested by a state machine. The driver performs these in
/// the order they were pushed.
#[derive(Debug)]
pub enum Output {
    /// Transmit `pkt` out of `port`.
    Transmit {
        /// The egress port.
        port: PortId,
        /// The frame to send.
        pkt: Packet,
    },
    /// Deliver `Input::Timer { token }` at (or as soon as possible after)
    /// the absolute instant `at`.
    WakeAt {
        /// The absolute wake-up instant (same clock as `poll`'s `now`).
        at: Time,
        /// Echoed back in the matching [`Input::Timer`].
        token: TimerToken,
    },
    /// Hand `pkt` to the local application (endpoint delivery).
    DeliverLocal {
        /// The delivered frame.
        pkt: Packet,
    },
}

/// A strictly sans-io protocol state machine.
///
/// `poll` is the *only* way time or packets reach the machine, and `out`
/// is the only way effects leave it. Implementations must not read
/// clocks, touch sockets, or spawn threads — `mmt-lint` rule D2 enforces
/// this for every sim-critical crate.
pub trait Machine {
    /// Advance the machine: consume `input` at instant `now`, pushing any
    /// requested effects onto `out` in execution order.
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>);

    /// The node lost power: volatile state is gone. No outputs — a dead
    /// node cannot transmit.
    fn crash(&mut self) {}

    /// The reusable output buffer driver adapters scratch into (so steady
    /// state allocates nothing). Implementations return a `Vec` field.
    fn outbox(&mut self) -> &mut Vec<Output>;
}

/// Replay buffered outputs into a simulator [`Context`], preserving
/// order. `WakeAt` converts back to a relative delay against the
/// context's current instant; an `at` in the past fires immediately
/// (delay zero).
fn replay(out: &mut Vec<Output>, ctx: &mut Context<'_>) {
    let now = ctx.now();
    for o in out.drain(..) {
        match o {
            Output::Transmit { port, pkt } => ctx.send(port, pkt),
            Output::WakeAt { at, token } => ctx.set_timer(at.saturating_sub(now), token),
            Output::DeliverLocal { pkt } => ctx.deliver_local(pkt),
        }
    }
}

/// Drive one machine step from a simulator callback: poll into the
/// machine's own outbox, then replay the outputs into `ctx`. The outbox
/// is taken and restored so its capacity is reused across events.
fn step<M: Machine + ?Sized>(m: &mut M, ctx: &mut Context<'_>, input: Input) {
    let mut out = std::mem::take(m.outbox());
    m.poll(ctx.now(), input, &mut out);
    replay(&mut out, ctx);
    *m.outbox() = out;
}

/// The one simulator adapter: every hook becomes the matching [`Input`]
/// (`on_crash` becomes [`Machine::crash`]), polled through `step`.
impl<M: Machine + 'static> Node for M {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        step(self, ctx, Input::Frame { port, pkt });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        step(self, ctx, Input::Timer { token });
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        step(self, ctx, Input::Start);
    }

    fn on_crash(&mut self) {
        Machine::crash(self);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        step(self, ctx, Input::Restart);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
