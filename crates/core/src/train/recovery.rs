//! The recovery vocabulary both ladders share, the training policy, and
//! estimator headroom calibration.
//!
//! The scheduler's Algorithm 3 guards against OOM at *plan* time; the
//! recovery ladders guard *execution* time, where an estimator
//! under-prediction, an injected fault, or a mid-epoch budget shrink can
//! still make the device refuse an allocation. Training climbs its ladder
//! in the pipeline's Execute stage (degrade double-buffering → bounded
//! retries → re-split the micro-batch → fail over a lost device to the
//! survivors); serving climbs its own in [`crate::serve`]. Both record
//! every rung as a [`RecoveryEvent`], share one failover rung, and end in
//! the same structured
//! [`TrainError::RecoveryExhausted`](crate::TrainError::RecoveryExhausted)
//! carrying the full trail.

use crate::TrainError;
use buffalo_memsim::{Device, OomError};
use std::time::Duration;

/// Limits and knobs for execution-time OOM recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. When `false`, any execution-time OOM propagates
    /// immediately — the pre-recovery behavior and the trainers' default.
    pub enabled: bool,
    /// Pure retries of the same allocation before escalating. Retries are
    /// safe because allocation happens *before* any forward/backward work:
    /// a failed micro-batch has contributed nothing to the gradients.
    pub max_retries: usize,
    /// Recursive re-split depth: how many times one micro-batch may be
    /// re-scheduled into smaller groups before giving up.
    pub max_resplits: usize,
    /// Base sleep for exponential backoff on *transient* faults (doubling
    /// per retry). Keep at zero in tests and simulation; real transient
    /// faults (fragmentation, co-tenant spikes) benefit from waiting.
    pub backoff_base: Duration,
    /// Initial headroom multiplier for the [`HeadroomCalibrator`]. `1.0`
    /// means scheduling starts out trusting the estimator exactly.
    pub headroom: f64,
}

impl RecoveryPolicy {
    /// Recovery switched off: every OOM is terminal. This is the default
    /// for trainers so that existing OOM semantics (the paper's "OOM"
    /// table cells) are unchanged unless a caller opts in.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            ..RecoveryPolicy::default()
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_retries: 3,
            max_resplits: 2,
            backoff_base: Duration::ZERO,
            headroom: 1.0,
        }
    }
}

/// One rung of a recovery ladder.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// Double-buffered residency was dropped to serial so only one
    /// micro-batch stays resident (training).
    DegradeSerial,
    /// The serving loop's coalescing width was halved so future
    /// dispatches are smaller (serving).
    DegradeBatch {
        /// Width before degrading.
        from: usize,
        /// Width after degrading.
        to: usize,
    },
    /// The same allocation was retried.
    Retry {
        /// 1-based retry attempt number.
        attempt: usize,
        /// Backoff charged before this retry, seconds: slept when
        /// training, added to the simulated latency when serving.
        backoff_seconds: f64,
    },
    /// The failing micro-batch (or dispatch) was cut into smaller groups
    /// by seed.
    Resplit {
        /// Seeds in the offending group.
        seeds: usize,
        /// Number of sub-groups it was split into.
        into: usize,
    },
    /// A whole device was permanently lost: it is marked dead, its
    /// in-flight work replays on a survivor, and its unfinished bucket
    /// groups re-shard across the surviving devices.
    DeviceLost {
        /// Index of the lost device.
        device: usize,
        /// Live devices remaining after marking it dead.
        survivors: usize,
    },
    /// No rung remained; the structured error was surfaced.
    Exhausted,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryAction::DegradeSerial => write!(f, "degrade double-buffer to serial"),
            RecoveryAction::DegradeBatch { from, to } => {
                write!(f, "degrade batch width {from} -> {to}")
            }
            RecoveryAction::Retry {
                attempt,
                backoff_seconds,
            } => write!(f, "retry #{attempt} (backoff {backoff_seconds:.6} s)"),
            RecoveryAction::Resplit { seeds, into } => {
                write!(f, "re-split {seeds} seeds into {into} groups")
            }
            RecoveryAction::DeviceLost { device, survivors } => {
                write!(
                    f,
                    "device {device} lost; re-sharding onto {survivors} survivor(s)"
                )
            }
            RecoveryAction::Exhausted => write!(f, "recovery exhausted"),
        }
    }
}

/// One recovery action taken in response to one device refusal, with the
/// refusal's context attached.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// What hit the fault: the micro-batch (in execution order) when
    /// training, the dispatch (coalesced batch) when serving.
    pub index: usize,
    /// The ladder rung taken.
    pub action: RecoveryAction,
    /// Bytes the failed allocation requested.
    pub requested: u64,
    /// Bytes in use on the device at refusal time.
    pub in_use: u64,
    /// Device budget at refusal time.
    pub budget: u64,
    /// Whether the refusal was an injected transient fault (retry-able)
    /// rather than a genuine capacity shortfall.
    pub transient: bool,
}

impl RecoveryEvent {
    /// The event for taking `action` at `index` in response to `oom`.
    pub fn new(index: usize, action: RecoveryAction, oom: &OomError) -> Self {
        RecoveryEvent {
            index,
            action,
            requested: oom.requested,
            in_use: oom.in_use,
            budget: oom.budget,
            transient: oom.transient,
        }
    }
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{}: {} (requested {} B, {} B in use, budget {} B{})",
            self.index,
            self.action,
            self.requested,
            self.in_use,
            self.budget,
            if self.transient { ", transient" } else { "" }
        )
    }
}

/// Counts of each ladder rung over a recovery trail, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCounts {
    /// Retries.
    pub retries: usize,
    /// Degradations, of residency or of batch width.
    pub degrades: usize,
    /// Re-splits.
    pub resplits: usize,
    /// Device-loss failovers.
    pub failovers: usize,
}

impl RecoveryCounts {
    /// Tallies a recovery trail.
    pub fn from_events(events: &[RecoveryEvent]) -> Self {
        let mut c = RecoveryCounts::default();
        for e in events {
            match e.action {
                RecoveryAction::Retry { .. } => c.retries += 1,
                RecoveryAction::DegradeSerial | RecoveryAction::DegradeBatch { .. } => {
                    c.degrades += 1
                }
                RecoveryAction::Resplit { .. } => c.resplits += 1,
                RecoveryAction::DeviceLost { .. } => c.failovers += 1,
                RecoveryAction::Exhausted => {}
            }
        }
        c
    }

    /// Total rungs taken.
    pub fn total(&self) -> usize {
        self.retries + self.degrades + self.resplits + self.failovers
    }
}

/// Ends a ladder: records [`RecoveryAction::Exhausted`] at `index` and
/// returns the error carrying the whole trail.
pub(crate) fn exhausted(
    index: usize,
    oom: OomError,
    events: &mut Vec<RecoveryEvent>,
) -> TrainError {
    events.push(RecoveryEvent::new(index, RecoveryAction::Exhausted, &oom));
    TrainError::RecoveryExhausted {
        events: events.clone(),
        last: oom,
    }
}

/// The failover rung both ladders climb on a `device_lost` refusal: marks
/// the active device lost and records [`RecoveryAction::DeviceLost`].
/// When no device survives — always the case for a plain device, which
/// has nothing to fail over to — the ladder is [`exhausted`] instead.
///
/// On `Ok` the caller re-routes with [`Device::begin_micro_batch`] and
/// replays with a fresh retry budget.
pub(crate) fn fail_over(
    device: &dyn Device,
    index: usize,
    oom: OomError,
    events: &mut Vec<RecoveryEvent>,
) -> Result<(), TrainError> {
    let (lost, survivors) = device.mark_active_lost();
    if survivors == 0 {
        return Err(exhausted(index, oom, events));
    }
    events.push(RecoveryEvent::new(
        index,
        RecoveryAction::DeviceLost {
            device: lost,
            survivors,
        },
        &oom,
    ));
    Ok(())
}

/// Online calibration of the memory estimator's safety margin.
///
/// The scheduler admits a group when its Eq.-2 estimate fits the
/// constraint; if the device then refuses the allocation, the estimate was
/// short. The calibrator tracks the worst observed actual/estimated ratio
/// and scales *subsequent* scheduling constraints down by it
/// (`constraint = budget / multiplier`), so near-misses teach the
/// scheduler to leave headroom. Injected transient faults say nothing
/// about the estimator and must not be fed in.
///
/// The multiplier starts at the configured floor (1.0 by default) and only
/// grows on evidence, so a fault-free run with an accurate estimator
/// schedules exactly as it would without the calibrator.
#[derive(Debug, Clone)]
pub struct HeadroomCalibrator {
    multiplier: f64,
    floor: f64,
}

/// Hard cap on the headroom multiplier: never hand the scheduler less
/// than a quarter of the true budget, or recovery would spiral into
/// absurdly small micro-batches.
const HEADROOM_CAP: f64 = 4.0;

impl HeadroomCalibrator {
    /// Starts with `multiplier = floor` (clamped to `[1, 4]`).
    pub fn new(floor: f64) -> Self {
        let floor = floor.clamp(1.0, HEADROOM_CAP);
        HeadroomCalibrator {
            multiplier: floor,
            floor,
        }
    }

    /// The current safety multiplier.
    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }

    /// The configured floor the multiplier never drops below.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Sets the multiplier directly, clamped to `[floor, cap]` — used by
    /// checkpoint restore and the rollback rung, which must be able to
    /// impose a *larger* margin than the snapshot recorded.
    pub fn set_multiplier(&mut self, multiplier: f64) {
        self.multiplier = multiplier.clamp(self.floor, HEADROOM_CAP);
    }

    /// The scheduling constraint to use for `budget` bytes of device
    /// memory: `budget / multiplier`, never below 1 byte.
    pub fn constrain(&self, budget: u64) -> u64 {
        ((budget as f64 / self.multiplier) as u64).max(1)
    }

    /// Feeds one completed micro-batch: `estimated` bytes at plan time vs
    /// `actual` bytes allocated. Ratchets the multiplier up to the worst
    /// under-prediction seen.
    pub fn observe(&mut self, estimated: u64, actual: u64) {
        if estimated == 0 || actual <= estimated {
            return;
        }
        let ratio = actual as f64 / estimated as f64;
        self.multiplier = self.multiplier.max(ratio.min(HEADROOM_CAP));
    }

    /// Feeds one genuine (non-transient) device refusal for which no
    /// estimate comparison is available: grow the margin geometrically.
    pub fn observe_oom(&mut self) {
        self.multiplier = (self.multiplier * 1.25).min(HEADROOM_CAP);
    }

    /// Resets to the starting floor.
    pub fn reset(&mut self) {
        self.multiplier = self.floor;
    }
}

impl Default for HeadroomCalibrator {
    fn default() -> Self {
        HeadroomCalibrator::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_is_default_off() {
        let p = RecoveryPolicy::disabled();
        assert!(!p.enabled);
        assert!(RecoveryPolicy::default().enabled);
    }

    #[test]
    fn calibrator_starts_neutral_and_ratchets() {
        let mut c = HeadroomCalibrator::new(1.0);
        assert_eq!(c.constrain(1000), 1000);
        c.observe(100, 90); // over-prediction: no change
        assert_eq!(c.multiplier(), 1.0);
        c.observe(100, 150); // 1.5× under-prediction
        assert!((c.multiplier() - 1.5).abs() < 1e-12);
        assert_eq!(c.constrain(1500), 1000);
        c.observe(100, 120); // milder: ratchet holds
        assert!((c.multiplier() - 1.5).abs() < 1e-12);
        c.observe(1, 100); // absurd ratio clamps at the cap
        assert!((c.multiplier() - 4.0).abs() < 1e-12);
        c.reset();
        assert_eq!(c.multiplier(), 1.0);
    }

    #[test]
    fn oom_observation_grows_geometrically_to_cap() {
        let mut c = HeadroomCalibrator::default();
        for _ in 0..20 {
            c.observe_oom();
        }
        assert!((c.multiplier() - 4.0).abs() < 1e-12);
        assert_eq!(c.constrain(4000), 1000);
    }

    #[test]
    fn constrain_never_returns_zero() {
        let mut c = HeadroomCalibrator::default();
        c.observe_oom();
        assert_eq!(c.constrain(0), 1);
        assert_eq!(c.constrain(1), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Repeated genuine refusals monotonically tighten the
            /// constraint (never loosen it), for any starting floor and
            /// any budget.
            #[test]
            fn genuine_refusals_monotonically_tighten(
                floor in 1.0f64..4.0,
                budget in 1u64..u64::MAX / 2,
                refusals in 1usize..40,
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                let mut prev_mult = c.multiplier();
                let mut prev_constraint = c.constrain(budget);
                for _ in 0..refusals {
                    c.observe_oom();
                    prop_assert!(c.multiplier() >= prev_mult);
                    let constraint = c.constrain(budget);
                    prop_assert!(constraint <= prev_constraint);
                    prev_mult = c.multiplier();
                    prev_constraint = constraint;
                }
            }

            /// No sequence of observations — refusals, arbitrary
            /// estimate/actual pairs, resets — drives the multiplier below
            /// the configured floor or above the cap.
            #[test]
            fn never_tightens_below_floor_or_beyond_cap(
                floor in 1.0f64..4.0,
                ops in collection::vec(
                    (0u8..3, 0u64..u64::MAX, 0u64..u64::MAX), 1..60),
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                let floor = c.floor();
                for (op, est, act) in ops {
                    match op {
                        0 => c.observe_oom(),
                        1 => c.observe(est, act),
                        _ => c.reset(),
                    }
                    prop_assert!(c.multiplier() >= floor - 1e-12,
                        "multiplier {} fell below floor {floor}", c.multiplier());
                    prop_assert!(c.multiplier() <= HEADROOM_CAP + 1e-12);
                }
            }

            /// `set_multiplier` clamps into `[floor, cap]` from any input,
            /// including NaN-free extremes.
            #[test]
            fn set_multiplier_clamps(
                floor in 1.0f64..4.0,
                m in -1e12f64..1e12,
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                c.set_multiplier(m);
                prop_assert!(c.multiplier() >= c.floor());
                prop_assert!(c.multiplier() <= HEADROOM_CAP);
            }

            /// The constraint is always at least 1 byte and never exceeds
            /// the budget it was derived from.
            #[test]
            fn constraint_stays_in_bounds(
                floor in 1.0f64..4.0,
                budget in 0u64..u64::MAX / 2,
                refusals in 0usize..20,
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                for _ in 0..refusals {
                    c.observe_oom();
                }
                let constraint = c.constrain(budget);
                prop_assert!(constraint >= 1);
                prop_assert!(constraint <= budget.max(1));
            }
        }
    }

    #[test]
    fn events_display_their_context() {
        let ev = RecoveryEvent {
            index: 3,
            action: RecoveryAction::Retry {
                attempt: 2,
                backoff_seconds: 0.002,
            },
            requested: 100,
            in_use: 40,
            budget: 120,
            transient: true,
        };
        let s = ev.to_string();
        assert!(s.contains("#3"), "{s}");
        assert!(s.contains("retry #2 (backoff 0.002000 s)"), "{s}");
        assert!(s.contains("transient"));
        let s = RecoveryEvent {
            action: RecoveryAction::Resplit { seeds: 64, into: 2 },
            transient: false,
            ..ev
        }
        .to_string();
        assert!(s.contains("re-split 64 seeds into 2 groups"));
        assert!(!s.contains("transient"));
        let s = RecoveryAction::DeviceLost {
            device: 1,
            survivors: 3,
        }
        .to_string();
        assert!(s.contains("device 1 lost"), "{s}");
        assert!(s.contains("3 survivor"), "{s}");
        let s = RecoveryAction::DegradeBatch { from: 64, to: 32 }.to_string();
        assert!(s.contains("64 -> 32"), "{s}");
    }

    #[test]
    fn counts_tally_each_rung() {
        let oom = OomError::new(0, 0, 0);
        let events: Vec<RecoveryEvent> = [
            RecoveryAction::Retry {
                attempt: 1,
                backoff_seconds: 0.0,
            },
            RecoveryAction::Retry {
                attempt: 2,
                backoff_seconds: 0.0,
            },
            RecoveryAction::DegradeBatch { from: 8, to: 4 },
            RecoveryAction::DegradeSerial,
            RecoveryAction::Resplit { seeds: 8, into: 2 },
            RecoveryAction::DeviceLost {
                device: 0,
                survivors: 1,
            },
            RecoveryAction::Exhausted,
        ]
        .into_iter()
        .map(|action| RecoveryEvent::new(0, action, &oom))
        .collect();
        let c = RecoveryCounts::from_events(&events);
        assert_eq!(c.retries, 2);
        assert_eq!(c.degrades, 2);
        assert_eq!(c.resplits, 1);
        assert_eq!(c.failovers, 1);
        assert_eq!(c.total(), 6, "Exhausted is not a rung");
    }
}
