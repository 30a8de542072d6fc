//! Per-flow deadline watchdogs.
//!
//! A flow that cannot meet its deadline should fail *gracefully*, in
//! stages, with an audit trail — not hang. The ladder:
//!
//! 1. **Shed** (half the budget spent): reduce pressure — the driver
//!    widens the NAK retry interval so a struggling path is not hammered.
//! 2. **Degrade** (three quarters spent): give up on completeness —
//!    retry budgets collapse so outstanding gaps exhaust quickly and are
//!    counted `nak_retries_exhausted` instead of retried past the
//!    deadline.
//! 3. **Abort** (budget spent): stop — the driver dumps the flight
//!    recorder and exits nonzero.
//!
//! The watchdog itself is pure state over `now`: the driver polls it each
//! loop and applies the actions, so the ladder is testable without a
//! clock.

use mmt_netsim::Time;

/// Escalation stages, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WatchdogStage {
    /// Within budget; no intervention.
    Healthy,
    /// Half the budget spent: reduce retry pressure.
    Shed,
    /// Three quarters spent: collapse retry budgets, accept losses.
    Degraded,
    /// Budget spent: dump flight recorder and exit nonzero.
    Aborted,
}

impl WatchdogStage {
    /// Stable lowercase label for reports and flight records.
    pub fn label(&self) -> &'static str {
        match self {
            WatchdogStage::Healthy => "healthy",
            WatchdogStage::Shed => "shed",
            WatchdogStage::Degraded => "degraded",
            WatchdogStage::Aborted => "aborted",
        }
    }
}

/// A deadline ladder for one flow, measured from `Time::ZERO` (run start).
#[derive(Debug, Clone)]
pub struct Watchdog {
    deadline: Time,
    stage: WatchdogStage,
    /// Every transition taken, with the time it fired.
    pub transitions: Vec<(Time, WatchdogStage)>,
}

impl Watchdog {
    /// Create a watchdog with the given total deadline budget.
    pub fn new(deadline: Time) -> Watchdog {
        Watchdog {
            deadline,
            stage: WatchdogStage::Healthy,
            transitions: Vec::new(),
        }
    }

    /// The current stage.
    pub fn stage(&self) -> WatchdogStage {
        self.stage
    }

    /// Escalate if `now` has crossed a threshold. Returns the new stage
    /// on a transition, `None` otherwise. Stages only move forward —
    /// a recovered flow stays shed/degraded for audit honesty.
    pub fn check(&mut self, now: Time) -> Option<WatchdogStage> {
        let target = if now >= self.deadline {
            WatchdogStage::Aborted
        } else if now >= self.deadline * 3 / 4 {
            WatchdogStage::Degraded
        } else if now >= self.deadline / 2 {
            WatchdogStage::Shed
        } else {
            WatchdogStage::Healthy
        };
        if target > self.stage {
            self.stage = target;
            self.transitions.push((now, target));
            Some(target)
        } else {
            None
        }
    }

    /// When the next escalation threshold sits, if any remain.
    pub fn next_threshold(&self) -> Option<Time> {
        match self.stage {
            WatchdogStage::Healthy => Some(self.deadline / 2),
            WatchdogStage::Shed => Some(self.deadline * 3 / 4),
            WatchdogStage::Degraded => Some(self.deadline),
            WatchdogStage::Aborted => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_in_order() {
        let mut wd = Watchdog::new(Time::from_millis(100));
        assert_eq!(wd.check(Time::from_millis(10)), None);
        assert_eq!(wd.check(Time::from_millis(50)), Some(WatchdogStage::Shed));
        assert_eq!(wd.check(Time::from_millis(60)), None);
        assert_eq!(
            wd.check(Time::from_millis(75)),
            Some(WatchdogStage::Degraded)
        );
        assert_eq!(
            wd.check(Time::from_millis(100)),
            Some(WatchdogStage::Aborted)
        );
        assert_eq!(wd.transitions.len(), 3);
    }

    #[test]
    fn skipped_thresholds_jump_straight_to_abort() {
        let mut wd = Watchdog::new(Time::from_millis(100));
        // A stalled loop that wakes late crosses every threshold at once.
        assert_eq!(
            wd.check(Time::from_millis(250)),
            Some(WatchdogStage::Aborted)
        );
        assert_eq!(wd.transitions.len(), 1);
    }

    #[test]
    fn stages_never_regress() {
        let mut wd = Watchdog::new(Time::from_millis(100));
        wd.check(Time::from_millis(80));
        assert_eq!(wd.stage(), WatchdogStage::Degraded);
        assert_eq!(wd.check(Time::from_millis(10)), None);
        assert_eq!(wd.stage(), WatchdogStage::Degraded);
    }

    #[test]
    fn next_threshold_tracks_stage() {
        let mut wd = Watchdog::new(Time::from_millis(100));
        assert_eq!(wd.next_threshold(), Some(Time::from_millis(50)));
        wd.check(Time::from_millis(50));
        assert_eq!(wd.next_threshold(), Some(Time::from_millis(75)));
        wd.check(Time::from_millis(100));
        assert_eq!(wd.next_threshold(), None);
    }
}
