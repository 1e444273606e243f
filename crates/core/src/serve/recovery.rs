//! The serving recovery ladder: the inference-side mirror of the
//! training ladder in [`crate::train`].
//!
//! A dispatch that hits a device refusal climbs, in order:
//!
//! 1. **failover** — a permanent device loss
//!    ([`OomError::device_lost`](buffalo_memsim::OomError::device_lost))
//!    short-circuits everything else: mark the device dead, re-route onto
//!    the survivors via [`DevicePool`](crate::train::DevicePool)
//!    round-robin, reset the retry budget, charge a simulated failover
//!    penalty;
//! 2. **bounded retry** — transient faults retry up to
//!    [`ServeRecoveryPolicy::max_retries`] times with exponential
//!    *simulated* backoff (never a wall-clock sleep — latency numbers
//!    must replay bit-identically);
//! 3. **degrade batch size** — the first non-transient refusal halves the
//!    loop's effective coalescing width so *future* dispatches are
//!    smaller (recorded once per dispatch);
//! 4. **re-split** — the failing batch is cut in half by seed and each
//!    half retried recursively, up to
//!    [`ServeRecoveryPolicy::max_resplits`] levels deep.
//!
//! Because serving samples each request's neighborhood in isolation
//! (see [`BatchSampler::sample_isolated`](buffalo_sampling::BatchSampler::sample_isolated)),
//! none of these rungs can move an answer bit: a re-split half contains
//! exact copies of its requests' sampled closures, and a failover replays
//! them unchanged on the survivor. Only latencies shift.
//!
//! Every rung taken is recorded in the training ladder's vocabulary, as a
//! [`RecoveryEvent`] indexed by dispatch; the failover rung is the
//! training ladder's own. Only when no rung remains does a structured
//! [`TrainError::RecoveryExhausted`] carrying the full trail reach the
//! caller.

use crate::train::recovery::{exhausted, fail_over};
use crate::train::{Engine, RecoveryAction, RecoveryEvent};
use crate::TrainError;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{CostModel, Device};
use buffalo_sampling::Batch;

/// Limits and knobs for the serving recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRecoveryPolicy {
    /// Master switch. When `false`, any inference failure propagates
    /// immediately — the pre-resilience behavior.
    pub enabled: bool,
    /// Bounded retries of a transiently-failing dispatch before
    /// escalating to degrade/re-split.
    pub max_retries: usize,
    /// Recursive re-split depth: how many times one dispatch may be cut
    /// in half before giving up.
    pub max_resplits: usize,
    /// Base *simulated* backoff seconds for transient retries (doubling
    /// per attempt). Simulated time — it is added to the dispatch's
    /// service latency, never slept.
    pub backoff_base: f64,
    /// Simulated seconds one device-loss failover costs (detection +
    /// re-route), added to the dispatch latency.
    pub failover_penalty: f64,
}

impl ServeRecoveryPolicy {
    /// Recovery switched off: every inference failure is terminal.
    pub fn disabled() -> Self {
        ServeRecoveryPolicy {
            enabled: false,
            ..ServeRecoveryPolicy::default()
        }
    }
}

impl Default for ServeRecoveryPolicy {
    fn default() -> Self {
        ServeRecoveryPolicy {
            enabled: true,
            max_retries: 3,
            max_resplits: 2,
            backoff_base: 1e-3,
            failover_penalty: 5e-3,
        }
    }
}

/// What one recovered dispatch produced: [`Engine::infer`] outputs plus
/// the simulated seconds recovery itself cost.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredInference {
    /// `(dataset node id, predicted class)` for every request node.
    pub predictions: Vec<(NodeId, u32)>,
    /// Micro-batches executed (summed across re-split halves).
    pub num_micro_batches: usize,
    /// Peak simulated device memory, bytes (max across halves).
    pub peak_mem_bytes: u64,
    /// Simulated device service seconds (summed across halves).
    pub service_seconds: f64,
    /// Simulated seconds charged by recovery: backoffs + failover
    /// penalties.
    pub penalty_seconds: f64,
}

/// Mutable loop state the ladder can adjust across dispatches.
pub(crate) struct LadderState<'a> {
    /// The serve loop's current coalescing width; the degrade rung halves
    /// it (floor 1) so future dispatches shrink.
    pub effective_max_batch: &'a mut usize,
    /// The run-wide recovery trail (appended in rung order).
    pub events: &'a mut Vec<RecoveryEvent>,
}

/// Everything about one top-level dispatch that the ladder does not
/// change while climbing: the engine, the workload, the device, and the
/// policy, plus the dispatch's event label.
#[derive(Clone, Copy)]
pub(crate) struct DispatchCtx<'a> {
    pub engine: &'a Engine,
    pub ds: &'a Dataset,
    pub device: &'a dyn Device,
    pub cost: &'a CostModel,
    pub policy: &'a ServeRecoveryPolicy,
    /// Index of the dispatch (coalesced batch), labels recovery events.
    pub batch_idx: usize,
}

/// Runs [`Engine::infer`] on `batch`, climbing the serving
/// recovery ladder on OOM. `micro_base` is the run-cumulative
/// micro-batch count (keeps pool round-robin rotating across
/// dispatches); `depth` is the current re-split recursion level;
/// `degraded` tracks whether the degrade rung already fired for this
/// top-level dispatch.
pub(crate) fn infer_with_recovery(
    ctx: &DispatchCtx<'_>,
    batch: &Batch,
    micro_base: usize,
    depth: usize,
    degraded: &mut bool,
    st: &mut LadderState<'_>,
) -> Result<RecoveredInference, TrainError> {
    let DispatchCtx {
        engine,
        ds,
        device,
        cost,
        policy,
        batch_idx,
    } = *ctx;
    let mut attempt = 0usize;
    let mut penalty = 0.0f64;
    let oom = loop {
        match engine.infer(ds, batch, device, cost, micro_base) {
            Ok(stats) => {
                return Ok(RecoveredInference {
                    predictions: stats.predictions,
                    num_micro_batches: stats.num_micro_batches,
                    peak_mem_bytes: stats.peak_mem_bytes,
                    service_seconds: stats.service_seconds,
                    penalty_seconds: penalty,
                })
            }
            Err(TrainError::Oom(oom)) => {
                if !policy.enabled {
                    return Err(TrainError::Oom(oom));
                }
                // Rung: failover. A lost device cannot serve anything —
                // mark it dead and replay the dispatch on the survivors
                // (the pool re-routes via round-robin over live members).
                if oom.device_lost {
                    fail_over(device, batch_idx, oom, st.events)?;
                    device.begin_micro_batch(micro_base);
                    penalty += policy.failover_penalty;
                    // Fresh device, fresh retry budget.
                    attempt = 0;
                    continue;
                }
                // Rung: bounded retry with simulated exponential backoff.
                // Inference is read-only, so a retry repeats no state
                // change; only transient faults are worth it.
                if oom.transient && attempt < policy.max_retries {
                    attempt += 1;
                    let backoff = policy.backoff_base * (1u64 << (attempt - 1).min(16)) as f64;
                    let retry = RecoveryAction::Retry {
                        attempt,
                        backoff_seconds: backoff,
                    };
                    st.events.push(RecoveryEvent::new(batch_idx, retry, &oom));
                    penalty += backoff;
                    continue;
                }
                break oom;
            }
            Err(other) => return Err(other),
        }
    };
    // Rung: degrade the coalescing width, once per top-level dispatch.
    // This cannot save the *current* batch (the engine re-plans
    // identically), but it shrinks every future one.
    if !*degraded && *st.effective_max_batch > 1 {
        *degraded = true;
        let from = *st.effective_max_batch;
        let to = (from / 2).max(1);
        *st.effective_max_batch = to;
        let degrade = RecoveryAction::DegradeBatch { from, to };
        st.events.push(RecoveryEvent::new(batch_idx, degrade, &oom));
    }
    // Rung: re-split. Cut the batch in half by seed and retry each half
    // recursively. Isolated sampling makes the halves exact sub-copies,
    // so answers cannot move.
    if depth < policy.max_resplits && batch.num_seeds > 1 {
        let mid = batch.num_seeds.div_ceil(2);
        let resplit = RecoveryAction::Resplit {
            seeds: batch.num_seeds,
            into: 2,
        };
        st.events.push(RecoveryEvent::new(batch_idx, resplit, &oom));
        let locals: Vec<NodeId> = (0..batch.num_seeds as NodeId).collect();
        let mut merged = RecoveredInference {
            predictions: Vec::with_capacity(batch.num_seeds),
            num_micro_batches: 0,
            peak_mem_bytes: 0,
            service_seconds: 0.0,
            penalty_seconds: penalty,
        };
        for half in [&locals[..mid], &locals[mid..]] {
            let sub = batch.restrict_to_seeds(half);
            let out = infer_with_recovery(
                ctx,
                &sub,
                micro_base + merged.num_micro_batches,
                depth + 1,
                degraded,
                st,
            )?;
            merged.predictions.extend(out.predictions);
            merged.num_micro_batches += out.num_micro_batches;
            merged.peak_mem_bytes = merged.peak_mem_bytes.max(out.peak_mem_bytes);
            merged.service_seconds += out.service_seconds;
            merged.penalty_seconds += out.penalty_seconds;
        }
        return Ok(merged);
    }
    Err(exhausted(batch_idx, oom, st.events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_and_disable() {
        let p = ServeRecoveryPolicy::default();
        assert!(p.enabled);
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.max_resplits, 2);
        assert!(!ServeRecoveryPolicy::disabled().enabled);
    }
}
