//! The node behaviour trait and the context handed to callbacks.

use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::Time;

/// Identifies a node within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A port index on a node.
pub type PortId = usize;

/// An opaque timer token chosen by the node when scheduling.
pub type TimerToken = u64;

/// Actions a node can request during a callback; applied by the simulator
/// after the callback returns (keeps borrows simple and execution order
/// deterministic).
#[derive(Debug)]
pub(crate) enum Action {
    Send { port: PortId, pkt: Packet },
    Timer { delay: Time, token: TimerToken },
    DeliverLocal { pkt: Packet },
}

/// The API a node sees during `on_packet` / `on_timer`.
pub struct Context<'a> {
    pub(crate) now: Time,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) actions: &'a mut Vec<Action>,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Deterministic randomness (shared simulator stream).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Transmit a packet out of `port`. If no link is attached the packet
    /// is counted as an unrouted drop.
    pub fn send(&mut self, port: PortId, pkt: Packet) {
        self.actions.push(Action::Send { port, pkt });
    }

    /// Schedule `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: Time, token: TimerToken) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Record a packet as delivered to the local application. The simulator
    /// collects these per node; experiment drivers read them after the run.
    pub fn deliver_local(&mut self, pkt: Packet) {
        self.actions.push(Action::DeliverLocal { pkt });
    }
}

/// Behaviour of a simulated node (host NIC stack, switch, DTN, ...).
///
/// Implementations are droppped into the simulator with
/// [`crate::Simulator::add_node`]; after a run, experiment code can
/// downcast back via [`crate::Simulator::node_as`] using the `as_any`
/// hooks.
pub trait Node {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let _ = (ctx, token);
    }

    /// Called once when the simulation starts, before any packet flows.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// The node crashed (scheduled via [`crate::Simulator::schedule_crash`]).
    /// Implementations drop whatever soft state the failure model says a
    /// power loss destroys (e.g. a retransmit store). No [`Context`] is
    /// provided: a dead node cannot send, deliver, or arm timers.
    fn on_crash(&mut self) {}

    /// The node came back up after a crash. Unlike [`Node::on_start`] this
    /// runs with the simulation already in flight; use it to re-arm
    /// periodic timers. Default: no-op.
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Downcast support (`&dyn Any`).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Downcast support (`&mut dyn Any`).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The stock terminal node: hands every arrival to its local
/// application (read back with [`crate::Simulator::local_deliveries`]).
pub struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        ctx.deliver_local(pkt);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        started: bool,
    }

    impl Node for Probe {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortId, _pkt: Packet) {}
        fn on_start(&mut self, _ctx: &mut Context<'_>) {
            self.started = true;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn context_buffers_actions() {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: Time::from_nanos(5),
            node: NodeId(3),
            rng: &mut rng,
            actions: &mut actions,
        };
        assert_eq!(ctx.now(), Time::from_nanos(5));
        assert_eq!(ctx.node_id(), NodeId(3));
        let _ = ctx.rng().next_u64();
        ctx.send(1, Packet::new(vec![1]));
        ctx.set_timer(Time::from_millis(1), 42);
        ctx.deliver_local(Packet::new(vec![2]));
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Send { port: 1, .. }));
        assert!(matches!(actions[1], Action::Timer { token: 42, .. }));
        assert!(matches!(actions[2], Action::DeliverLocal { .. }));
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let mut probe = Probe { started: false };
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: Time::ZERO,
            node: NodeId(0),
            rng: &mut rng,
            actions: &mut actions,
        };
        probe.on_timer(&mut ctx, 7); // default impl: no effect
        probe.on_crash();
        probe.on_restart(&mut ctx);
        probe.on_start(&mut ctx);
        assert!(actions.is_empty());
        assert!(probe.started);
    }

    #[test]
    fn sink_records_deliveries() {
        let mut sim = crate::Simulator::new(1);
        let s = sim.add_node("s", Box::new(Sink));
        sim.inject(Time::ZERO, s, 0, Packet::new(vec![1, 2, 3]));
        sim.run();
        assert_eq!(sim.local_deliveries(s).len(), 1);
    }
}
