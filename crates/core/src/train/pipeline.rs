//! The staged micro-batch pipeline engine.
//!
//! One training iteration is split into two stages:
//!
//! * **Prepare** (CPU): seed restriction → fast block generation →
//!   feature/label gather, producing a [`PreparedBlocks`] handle per
//!   micro-batch. When the pipeline is enabled this stage runs on a worker
//!   thread feeding a one-slot channel.
//! * **Execute** (simulated device): allocate → forward/backward → free,
//!   consuming prepared micro-batches strictly in submission order on the
//!   caller's thread.
//!
//! Training ([`run_pipeline`]) and inference ([`run_inference`]) share
//! the one stage loop ([`stage_loop`]); they differ only in what Execute
//! does with a prepared micro-batch.
//!
//! Because Execute is in-order and single-threaded, gradient accumulation
//! happens in exactly the same order as the serial path — pipelined and
//! serial training produce **bit-identical** losses. The pipeline only
//! changes *when* CPU preparation happens (overlapped with device compute
//! of the previous micro-batch) and *how long* micro-batch tensors stay
//! resident on the simulated device (double-buffered: the previous
//! allocation is released only after the next one lands, falling back to
//! serial residency when both do not fit).
//!
//! Execute is also where OOM **recovery** lives: the device allocation
//! happens *before* any forward/backward work, so a refused micro-batch
//! has contributed nothing to the gradients and every rung of the recovery
//! ladder (degrade double-buffering → bounded retries → re-split →
//! fail over a lost device) is free
//! to re-attempt it without perturbing the math. A retry-only recovery is
//! bit-identical to an undisturbed run; a re-split changes the micro-batch
//! partition (and hence f32 summation order) but still trains every seed
//! exactly once with the original gradient divisor.
//!
//! When the device handle fronts a *pool* (see
//! [`DevicePool`](crate::train::DevicePool)), Execute routes each
//! top-level micro-batch to a pool member via
//! [`Device::begin_micro_batch`] — round-robin over the live devices —
//! and a permanent whole-device loss climbs the failover rung: the dead
//! device is excluded from routing, the in-flight micro-batch replays on
//! a survivor, and the math is unchanged because execution stays in-order
//! on the caller's thread, so gradient accumulation order is independent
//! of which device an allocation landed on.

use crate::models::GnnModel;
use crate::train::recovery::{
    exhausted, fail_over, HeadroomCalibrator, RecoveryAction, RecoveryEvent, RecoveryPolicy,
};
use crate::TrainError;
use buffalo_blocks::{GenerateOptions, PreparedBlocks};
use buffalo_bucketing::{BuffaloScheduler, SchedulePlan};
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{measure, AllocId, CostModel, Device, DeviceTimeline, GnnShape, StageTimings};
use buffalo_sampling::Batch;
use buffalo_tensor::{softmax_cross_entropy, Tensor};
use std::sync::mpsc;
use std::time::Instant;

/// How an engine schedules its Prepare and Execute stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Whether preparation of micro-batch *i + 1* overlaps device
    /// execution of micro-batch *i* (double buffering: at most two
    /// micro-batches in flight).
    pub enabled: bool,
}

impl PipelineConfig {
    /// Strictly serial staging — the classic one-micro-batch-at-a-time
    /// loop. This is the default.
    pub fn serial() -> Self {
        PipelineConfig { enabled: false }
    }

    /// Double-buffered overlap of Prepare and Execute.
    pub fn overlapped() -> Self {
        PipelineConfig { enabled: true }
    }

    /// Whether a run of `micro_batches` actually overlaps: a single
    /// micro-batch has nothing to overlap with.
    fn overlaps(&self, micro_batches: usize) -> bool {
        self.enabled && micro_batches > 1
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::serial()
    }
}

/// What one iteration's Execute stage accumulated.
#[derive(Debug, Clone)]
pub(crate) struct PipelineOutcome {
    /// Summed (un-normalized) loss over all output nodes.
    pub loss_sum: f64,
    /// Correctly classified output nodes.
    pub correct: usize,
    /// Micro-batches executed.
    pub micro_batches: usize,
    /// Full timing breakdown, including the overlapped makespan.
    pub timings: StageTimings,
    /// Recovery actions taken this iteration, in order. Empty in an
    /// undisturbed run.
    pub recovery: Vec<RecoveryEvent>,
}

/// One work item for the Prepare stage.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroSpec<'a> {
    /// Train on the whole sampled batch (Algorithm 1).
    Whole,
    /// Restrict the batch to these seed ids first (Algorithm 2).
    Seeds(&'a [NodeId]),
}

/// The micro-batch work list for one batch: the whole batch when there is
/// no plan, else one spec per non-empty bucket group, paired with the
/// group's plan-time memory estimate (0 when the plan has none).
pub(crate) fn plan_specs(plan: Option<&SchedulePlan>) -> (Vec<MicroSpec<'_>>, Vec<u64>) {
    let Some(plan) = plan else {
        return (vec![MicroSpec::Whole], Vec::new());
    };
    plan.groups
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .map(|(i, g)| {
            let estimate = plan.group_estimates.get(i).copied().unwrap_or(0);
            (MicroSpec::Seeds(g), estimate)
        })
        .unzip()
}

/// Runs the full Prepare stage for one micro-batch. Returns the handle
/// plus the seconds spent on seed restriction (reported as part of block
/// generation — both are graph-structure work).
pub(crate) fn prepare_one(
    ds: &Dataset,
    batch: &Batch,
    spec: MicroSpec<'_>,
    num_layers: usize,
) -> (f64, PreparedBlocks) {
    // lint:allow(wallclock-taint): StageTimings telemetry; overlap accounting never alters numerics (suppresses chain: prepare_one → Instant::now)
    let t0 = Instant::now();
    let restricted;
    let micro: &Batch = match spec {
        MicroSpec::Whole => batch,
        MicroSpec::Seeds(group) => {
            restricted = batch.restrict_to_seeds(group);
            &restricted
        }
    };
    let restrict_seconds = t0.elapsed().as_secs_f64();
    let mut prepared = PreparedBlocks::generate(
        &micro.graph,
        micro.num_seeds,
        num_layers,
        GenerateOptions::default(),
    );
    let dim = ds.spec.feat_dim;
    // lint:allow(wallclock-taint): StageTimings telemetry; gathered features are clock-independent (suppresses chain: prepare_one → Instant::now)
    let t1 = Instant::now();
    let globals: Vec<u32> = prepared
        .input_srcs()
        .iter()
        .map(|&l| micro.global_ids[l as usize])
        .collect();
    let mut features = vec![0.0f32; globals.len() * dim];
    ds.gather_features(&globals, &mut features);
    prepared.set_features(features, dim, t1.elapsed().as_secs_f64());
    // lint:allow(wallclock-taint): StageTimings telemetry; gathered labels are clock-independent (suppresses chain: prepare_one → Instant::now)
    let t2 = Instant::now();
    let labels: Vec<u32> = prepared
        .output_dsts()
        .iter()
        .map(|&l| ds.label(micro.global_ids[l as usize]))
        .collect();
    prepared.set_labels(labels, t2.elapsed().as_secs_f64());
    // Dataset-global output ids: training ignores them, but inference
    // needs them to key predictions (the restricted micro-batch and its
    // id map are dropped when this function returns).
    let out_globals: Vec<NodeId> = prepared
        .output_dsts()
        .iter()
        .map(|&l| micro.global_ids[l as usize])
        .collect();
    prepared.set_output_globals(out_globals);
    (restrict_seconds, prepared)
}

/// Device residency policy for the Execute stage.
///
/// Serial: each micro-batch's allocation is released as soon as its
/// backward pass finishes. Double-buffered: the allocation is held until
/// the *next* micro-batch's allocation succeeds (its tensors land while
/// the previous one computes), so two prepared micro-batches are resident
/// at once; when both do not fit the budget, the policy degrades to serial
/// residency for that handoff instead of faulting.
struct Residency<'d> {
    device: &'d dyn Device,
    double_buffer: bool,
    held: Option<AllocId>,
}

impl<'d> Residency<'d> {
    fn new(device: &'d dyn Device, double_buffer: bool) -> Self {
        Residency {
            device,
            double_buffer,
            held: None,
        }
    }

    fn acquire(&mut self, bytes: u64) -> Result<(), TrainError> {
        if !self.double_buffer {
            self.held = Some(self.device.alloc(bytes)?);
            return Ok(());
        }
        match self.device.alloc(bytes) {
            Ok(id) => {
                if let Some(prev) = self.held.take() {
                    self.device.free(prev);
                }
                self.held = Some(id);
                Ok(())
            }
            Err(first) => {
                // Both micro-batches do not fit together: release the
                // previous one first and retry once, serial-style.
                match self.held.take() {
                    Some(prev) => {
                        self.device.free(prev);
                        match self.device.alloc(bytes) {
                            Ok(id) => {
                                self.held = Some(id);
                                Ok(())
                            }
                            Err(mut second) => {
                                // Attribute both attempts: the caller sees
                                // the solo-allocation failure, with the
                                // co-resident attempt's numbers chained.
                                second.first_attempt = Some(Box::new(first));
                                Err(second.into())
                            }
                        }
                    }
                    None => Err(first.into()),
                }
            }
        }
    }

    /// Drops double-buffering for the rest of the iteration, freeing any
    /// held allocation. Returns `false` when already serial (so callers
    /// can tell whether this rung of the recovery ladder did anything).
    fn degrade_to_serial(&mut self) -> bool {
        if !self.double_buffer {
            return false;
        }
        self.double_buffer = false;
        if let Some(id) = self.held.take() {
            self.device.free(id);
        }
        true
    }

    fn release_after_step(&mut self) {
        if !self.double_buffer {
            if let Some(id) = self.held.take() {
                self.device.free(id);
            }
        }
    }

    fn finish(&mut self) {
        if let Some(id) = self.held.take() {
            self.device.free(id);
        }
    }
}

/// Everything one iteration's pipeline run needs besides the model: the
/// data source, the work list, and the execution environment.
pub(crate) struct PipelineRequest<'a> {
    /// The dataset supplying features and labels.
    pub ds: &'a Dataset,
    /// The sampled batch the specs refer into.
    pub batch: &'a Batch,
    /// One entry per micro-batch, in gradient-accumulation order.
    pub specs: &'a [MicroSpec<'a>],
    /// Plan-time memory estimate per spec, bytes (empty or zero entries
    /// when no estimate exists, e.g. the whole-batch path). Feeds the
    /// headroom calibrator on completion.
    pub estimates: &'a [u64],
    /// Model shape (for memory/cost accounting).
    pub shape: &'a GnnShape,
    /// Loss-gradient divisor (total output nodes of the iteration).
    pub grad_divisor: usize,
    /// The simulated device to allocate on.
    pub device: &'a dyn Device,
    /// The device cost model.
    pub cost: &'a CostModel,
    /// Staging mode.
    pub pipeline: PipelineConfig,
    /// Execution-time OOM recovery limits.
    pub policy: &'a RecoveryPolicy,
    /// Scheduler for the re-split rung of the recovery ladder; `None`
    /// disables re-splitting (e.g. the whole-batch trainer).
    pub scheduler: Option<&'a BuffaloScheduler>,
    /// Online headroom calibration fed by observed peaks and refusals.
    pub calibrator: Option<&'a mut HeadroomCalibrator>,
    /// Serial scheduling prefix, seconds — it cannot overlap (the plan
    /// must exist before the first micro-batch can be prepared) and is
    /// folded into the reported timings.
    pub schedule_seconds: f64,
}

/// Immutable per-iteration context shared by every Execute call.
struct ExecCtx<'a> {
    ds: &'a Dataset,
    batch: &'a Batch,
    shape: &'a GnnShape,
    grad_divisor: usize,
    cost: &'a CostModel,
    policy: &'a RecoveryPolicy,
    scheduler: Option<&'a BuffaloScheduler>,
}

/// Mutable Execute-stage accumulators.
struct ExecState<'d, 'c> {
    residency: Residency<'d>,
    timeline: DeviceTimeline,
    timings: StageTimings,
    loss_sum: f64,
    correct: usize,
    micro_batches: usize,
    events: Vec<RecoveryEvent>,
    calibrator: Option<&'c mut HeadroomCalibrator>,
}

/// One prepared micro-batch queued for execution.
struct MicroWork<'s> {
    /// Seconds spent restricting the batch to this micro-batch's seeds.
    restrict_s: f64,
    /// The generated blocks, gathered features, and labels.
    prepared: PreparedBlocks,
    /// The micro-batch's seed group when known (required for the
    /// re-split rung of the recovery ladder).
    seeds: Option<&'s [NodeId]>,
    /// Plan-time memory estimate, bytes (0 when unknown).
    estimate: u64,
    /// Current re-split recursion depth.
    depth: usize,
    /// Top-level spec index — the round-robin shard key a device pool
    /// routes by. Re-split sub-groups inherit their parent's index so
    /// they execute on the device the parent was assigned to.
    assign_idx: usize,
}

/// Executes one prepared micro-batch, climbing the recovery ladder on
/// device refusal.
fn consume_one(
    model: &mut GnnModel,
    ctx: &ExecCtx<'_>,
    st: &mut ExecState<'_, '_>,
    work: MicroWork<'_>,
) -> Result<(), TrainError> {
    let MicroWork {
        restrict_s,
        prepared,
        seeds,
        estimate,
        depth,
        assign_idx,
    } = work;
    let block_gen = restrict_s + prepared.block_gen_seconds();
    let gather = prepared.gather_seconds();
    let (blocks, features, feat_dim, labels) = prepared.into_parts();
    let bytes = measure::training_memory(&blocks, ctx.shape).total();
    let mut attempt = 0usize;
    let mut observed_oom = false;
    let oom = loop {
        match st.residency.acquire(bytes) {
            Ok(()) => break None,
            Err(TrainError::Oom(oom)) => {
                if !ctx.policy.enabled {
                    return Err(TrainError::Oom(oom));
                }
                // Failover rung: a permanent whole-device loss. Retrying
                // or degrading residency cannot help — the device is gone
                // — so mark it dead, re-route this micro-batch (and, via
                // round-robin over the survivors, every unfinished group
                // the dead device would have taken) and replay the
                // allocation. The loss says nothing about the estimator,
                // so the calibrator is *not* fed.
                if oom.device_lost {
                    fail_over(st.residency.device, st.micro_batches, oom, &mut st.events)?;
                    st.residency.device.begin_micro_batch(assign_idx);
                    // Fresh device, fresh retry budget.
                    attempt = 0;
                    continue;
                }
                // A genuine refusal (not an injected transient fault) is
                // evidence about the estimator: grow the safety margin so
                // subsequent scheduling leaves headroom. One incident is
                // one piece of evidence — retries of the same refusal do
                // not compound it.
                if !oom.transient && !observed_oom {
                    observed_oom = true;
                    if let Some(cal) = st.calibrator.as_deref_mut() {
                        cal.observe_oom();
                    }
                }
                // Rung 1: stop holding two micro-batches resident.
                if st.residency.degrade_to_serial() {
                    let ev =
                        RecoveryEvent::new(st.micro_batches, RecoveryAction::DegradeSerial, &oom);
                    st.events.push(ev);
                    continue;
                }
                // Rung 2: bounded pure retries. Allocation precedes all
                // compute, so a retry repeats no work and perturbs no
                // gradient. Transient faults back off exponentially.
                if attempt < ctx.policy.max_retries {
                    attempt += 1;
                    let backoff = if oom.transient {
                        ctx.policy.backoff_base * (1u32 << (attempt - 1).min(16))
                    } else {
                        std::time::Duration::ZERO
                    };
                    let retry = RecoveryAction::Retry {
                        attempt,
                        backoff_seconds: backoff.as_secs_f64(),
                    };
                    st.events
                        .push(RecoveryEvent::new(st.micro_batches, retry, &oom));
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    continue;
                }
                // Rung 3: re-split this micro-batch into smaller groups.
                break Some(oom);
            }
            Err(other) => return Err(other),
        }
    };
    if let Some(oom) = oom {
        if depth < ctx.policy.max_resplits {
            if let (Some(scheduler), Some(seeds)) = (ctx.scheduler, seeds) {
                if seeds.len() > 1 {
                    let constraint = match st.calibrator.as_deref_mut() {
                        Some(cal) => cal.constrain(st.residency.device.budget()),
                        None => st.residency.device.budget(),
                    };
                    if let Ok(plan) = scheduler.resplit_group(&ctx.batch.graph, seeds, constraint) {
                        let resplit = RecoveryAction::Resplit {
                            seeds: seeds.len(),
                            into: plan.groups.len(),
                        };
                        st.events
                            .push(RecoveryEvent::new(st.micro_batches, resplit, &oom));
                        // The discarded preparation still happened:
                        // account for it as prepare-only pipeline time.
                        st.timeline.record(block_gen + gather, 0.0);
                        st.timings.block_gen_seconds += block_gen;
                        st.timings.gather_seconds += gather;
                        for (i, group) in plan.groups.iter().filter(|g| !g.is_empty()).enumerate() {
                            let (r_s, prep) = prepare_one(
                                ctx.ds,
                                ctx.batch,
                                MicroSpec::Seeds(group),
                                ctx.shape.num_layers,
                            );
                            let est = plan.group_estimates.get(i).copied().unwrap_or(0);
                            consume_one(
                                model,
                                ctx,
                                st,
                                MicroWork {
                                    restrict_s: r_s,
                                    prepared: prep,
                                    seeds: Some(group),
                                    estimate: est,
                                    depth: depth + 1,
                                    assign_idx,
                                },
                            )?;
                        }
                        return Ok(());
                    }
                }
            }
        }
        return Err(exhausted(st.micro_batches, oom, &mut st.events));
    }
    // Allocation landed: forward, loss, backward.
    let features = Tensor::from_vec(features.len() / feat_dim, feat_dim, features);
    let (logits, cache) = model.forward(&blocks, &features);
    let out = softmax_cross_entropy(&logits, &labels, Some(ctx.grad_divisor));
    model.backward(&blocks, &cache, &out.dlogits);
    st.residency.release_after_step();
    if estimate > 0 {
        if let Some(cal) = st.calibrator.as_deref_mut() {
            cal.observe(estimate, bytes);
        }
    }
    let compute = ctx.cost.training_seconds(&blocks, ctx.shape);
    let transfer = ctx
        .cost
        .transfer_seconds(measure::transfer_bytes(&blocks, ctx.shape) as f64);
    st.timeline.record(block_gen + gather, compute + transfer);
    st.timings.block_gen_seconds += block_gen;
    st.timings.gather_seconds += gather;
    st.timings.sim_compute_seconds += compute;
    st.timings.sim_transfer_seconds += transfer;
    st.loss_sum += out.loss as f64 * labels.len() as f64;
    st.correct += out.correct;
    st.micro_batches += 1;
    Ok(())
}

/// What the shared stage loop prepares, and where it routes the result.
struct StageInput<'a> {
    ds: &'a Dataset,
    batch: &'a Batch,
    specs: &'a [MicroSpec<'a>],
    num_layers: usize,
    device: &'a dyn Device,
    /// Offset added to each spec's index for [`Device::begin_micro_batch`].
    micro_base: usize,
}

/// The Prepare→Execute loop both training and inference run: prepares
/// every spec in order — inline, or with `overlap` on one scoped producer
/// thread that stays one micro-batch ahead — routes each micro-batch's
/// allocations to a device (a pool round-robins over its live members;
/// plain devices no-op), and hands it to `execute` strictly in spec
/// order on the caller's thread. Stops at the first Execute error; the
/// producer then sees the hang-up and stops preparing.
fn stage_loop(
    input: StageInput<'_>,
    overlap: bool,
    mut execute: impl FnMut(usize, f64, PreparedBlocks) -> Result<(), TrainError>,
) -> Result<(), TrainError> {
    let StageInput {
        ds,
        batch,
        specs,
        num_layers,
        device,
        micro_base,
    } = input;
    if !overlap {
        for (idx, &spec) in specs.iter().enumerate() {
            let (restrict_s, prepared) = prepare_one(ds, batch, spec, num_layers);
            device.begin_micro_batch(micro_base + idx);
            execute(idx, restrict_s, prepared)?;
        }
        return Ok(());
    }
    std::thread::scope(|s| {
        // One-slot channel: the producer stays at most one prepared but
        // unconsumed micro-batch ahead (host-side staging); device
        // residency is capped separately at two allocations by
        // `Residency`.
        let (tx, rx) = mpsc::sync_channel::<(usize, f64, PreparedBlocks)>(1);
        s.spawn(move || {
            for (idx, &spec) in specs.iter().enumerate() {
                let (restrict_s, prepared) = prepare_one(ds, batch, spec, num_layers);
                if tx.send((idx, restrict_s, prepared)).is_err() {
                    break;
                }
            }
        });
        for (idx, restrict_s, prepared) in rx {
            device.begin_micro_batch(micro_base + idx);
            execute(idx, restrict_s, prepared)?;
        }
        Ok(())
    })
}

/// Runs one iteration's micro-batches through the Prepare/Execute
/// pipeline, accumulating gradients into `model` in spec order.
pub(crate) fn run_pipeline(
    model: &mut GnnModel,
    req: PipelineRequest<'_>,
) -> Result<PipelineOutcome, TrainError> {
    let PipelineRequest {
        ds,
        batch,
        specs,
        estimates,
        shape,
        grad_divisor,
        device,
        cost,
        pipeline,
        policy,
        scheduler,
        calibrator,
        schedule_seconds,
    } = req;
    let overlap = pipeline.overlaps(specs.len());
    let ctx = ExecCtx {
        ds,
        batch,
        shape,
        grad_divisor,
        cost,
        policy,
        scheduler,
    };
    let mut st = ExecState {
        residency: Residency::new(device, overlap),
        timeline: DeviceTimeline::new(if overlap { 2 } else { 1 }),
        timings: StageTimings {
            schedule_seconds,
            ..StageTimings::default()
        },
        loss_sum: 0.0,
        correct: 0,
        micro_batches: 0,
        events: Vec::new(),
        calibrator,
    };
    stage_loop(
        StageInput {
            ds,
            batch,
            specs,
            num_layers: shape.num_layers,
            device,
            micro_base: 0,
        },
        overlap,
        |idx, restrict_s, prepared| {
            consume_one(
                model,
                &ctx,
                &mut st,
                MicroWork {
                    restrict_s,
                    prepared,
                    seeds: match specs[idx] {
                        MicroSpec::Whole => None,
                        MicroSpec::Seeds(s) => Some(s),
                    },
                    estimate: estimates.get(idx).copied().unwrap_or(0),
                    depth: 0,
                    assign_idx: idx,
                },
            )
        },
    )?;
    st.residency.finish();
    st.timings.overlapped_makespan = schedule_seconds + st.timeline.makespan();
    Ok(PipelineOutcome {
        loss_sum: st.loss_sum,
        correct: st.correct,
        micro_batches: st.micro_batches,
        timings: st.timings,
        recovery: st.events,
    })
}

/// Everything one inference pass needs besides the model: the data
/// source, the micro-batch work list, and the execution environment.
/// Forward-only — no gradient divisor, no recovery policy (an OOM
/// propagates so the serving driver can account the rejection).
pub(crate) struct InferRequest<'a> {
    /// The dataset supplying features (labels are gathered but unused).
    pub ds: &'a Dataset,
    /// The sampled batch the specs refer into.
    pub batch: &'a Batch,
    /// One entry per micro-batch, in execution order.
    pub specs: &'a [MicroSpec<'a>],
    /// Model shape (for memory/cost accounting).
    pub shape: &'a GnnShape,
    /// The simulated device to allocate on.
    pub device: &'a dyn Device,
    /// The device cost model.
    pub cost: &'a CostModel,
    /// Staging mode (overlap prepares exactly as in training).
    pub pipeline: PipelineConfig,
    /// Offset added to each spec's index when assigning micro-batches to
    /// pool members ([`Device::begin_micro_batch`]). Serving passes its
    /// run-cumulative micro-batch count so successive dispatches
    /// round-robin across a [`DevicePool`](super::DevicePool) instead of
    /// all landing on member 0; identity (no-op) on single devices.
    pub micro_base: usize,
}

/// What one inference pass produced.
#[derive(Debug, Clone)]
pub(crate) struct InferOutcome {
    /// `(dataset node id, predicted class)` per output node, in execution
    /// order.
    pub predictions: Vec<(NodeId, u32)>,
    /// Micro-batches executed.
    pub micro_batches: usize,
    /// Simulated device seconds (forward compute + transfer) summed over
    /// the micro-batches. Derived entirely from the [`CostModel`], never
    /// the wall clock, so it is bit-stable across runs and hosts.
    pub device_seconds: f64,
}

/// Deterministic argmax: the first class whose logit is strictly greater
/// than every earlier one (ties break toward the lower class id).
fn argmax_row(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (j, &x) in row.iter().enumerate().skip(1) {
        if x > row[best] {
            best = j;
        }
    }
    best as u32
}

/// Executes one prepared micro-batch forward-only: allocate, forward,
/// argmax, release.
fn infer_one(
    model: &GnnModel,
    req: &InferRequest<'_>,
    residency: &mut Residency<'_>,
    out: &mut InferOutcome,
    prepared: PreparedBlocks,
) -> Result<(), TrainError> {
    let globals = prepared.output_globals().to_vec();
    let (blocks, features, feat_dim, _labels) = prepared.into_parts();
    // Admission uses the same footprint the bucket scheduler's estimator
    // plans against, keeping serving consistent with training admission.
    let bytes = measure::training_memory(&blocks, req.shape).total();
    residency.acquire(bytes)?;
    let features = Tensor::from_vec(features.len() / feat_dim, feat_dim, features);
    let (logits, _cache) = model.forward(&blocks, &features);
    let classes = logits.cols();
    let data = logits.data();
    for (i, &node) in globals.iter().enumerate() {
        out.predictions
            .push((node, argmax_row(&data[i * classes..(i + 1) * classes])));
    }
    residency.release_after_step();
    let compute = req.cost.inference_seconds(&blocks, req.shape);
    let transfer = req
        .cost
        .transfer_seconds(measure::transfer_bytes(&blocks, req.shape) as f64);
    out.device_seconds += compute + transfer;
    out.micro_batches += 1;
    Ok(())
}

/// Runs a forward-only pass over the request's micro-batches through the
/// same Prepare/Execute pipeline as training: CPU preparation (optionally
/// overlapped on a worker thread), in-order device execution with the same
/// residency policy. Takes `&GnnModel` — the pass cannot touch parameters
/// or optimizer state by construction.
pub(crate) fn run_inference(
    model: &GnnModel,
    req: InferRequest<'_>,
) -> Result<InferOutcome, TrainError> {
    let overlap = req.pipeline.overlaps(req.specs.len());
    let mut residency = Residency::new(req.device, overlap);
    let mut out = InferOutcome {
        predictions: Vec::new(),
        micro_batches: 0,
        device_seconds: 0.0,
    };
    stage_loop(
        StageInput {
            ds: req.ds,
            batch: req.batch,
            specs: req.specs,
            num_layers: req.shape.num_layers,
            device: req.device,
            micro_base: req.micro_base,
        },
        overlap,
        |_idx, _restrict_s, prepared| infer_one(model, &req, &mut residency, &mut out, prepared),
    )?;
    residency.finish();
    Ok(out)
}
