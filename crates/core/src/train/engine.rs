//! The shared training/serving engine.
//!
//! [`Engine`] owns every piece of long-lived state the Prepare/Execute
//! pipeline needs — the [`GnnModel`] with its Adam moments, the
//! [`BuffaloScheduler`] (in scheduled mode), the [`PipelineConfig`],
//! [`RecoveryPolicy`], and [`HeadroomCalibrator`] — and exposes the three
//! things a *driver* can do with that state:
//!
//! * [`train_iteration`](Engine::train_iteration) — one gradient step
//!   (whole-batch or bucket-scheduled, depending on how the engine was
//!   built), exactly the math the paper's Algorithms 1 and 2 specify;
//! * [`infer`](Engine::infer) — a forward-only pass over a sampled batch
//!   through the same pipeline and (in scheduled mode) the same bucket
//!   scheduler for admission under the device budget, touching no
//!   parameter or optimizer state;
//! * [`evaluate`](Engine::evaluate) — held-out accuracy, preparing the
//!   whole batch with the same Prepare stage the pipeline runs;
//! * [`capture_state`](Engine::capture_state) /
//!   [`restore_state`](Engine::restore_state) — the single bit-exact
//!   snapshot implementation the checkpoint subsystem targets.
//!
//! The engine is the only driver type. The epoch loop in
//! [`run_epochs`](crate::train::run_epochs) and the serving loop in
//! [`serve`](crate::serve) borrow it call by call; the golden trail in
//! `tests/golden/` gates that training through it stays bitwise stable.

use crate::checkpoint::{CheckpointError, ParamState, TrainerState};
use crate::models::GnnModel;
use crate::train::pipeline::{
    plan_specs, prepare_one, run_inference, run_pipeline, InferRequest, MicroSpec, PipelineRequest,
};
use crate::train::recovery::{HeadroomCalibrator, RecoveryPolicy};
use crate::train::{IterationStats, PipelineConfig, TrainConfig};
use crate::TrainError;
use buffalo_bucketing::BuffaloScheduler;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{CostModel, Device};
use buffalo_sampling::{Batch, BatchSampler};
use buffalo_tensor::{softmax_cross_entropy, Adam, Optimizer, Tensor};

/// Result of a forward-only inference pass (see [`Engine::infer`]).
#[derive(Debug, Clone)]
pub struct InferenceStats {
    /// `(dataset node id, predicted class)` for every output node, in
    /// execution order (micro-batch by micro-batch).
    pub predictions: Vec<(NodeId, u32)>,
    /// Micro-batches executed (1 in whole-batch mode).
    pub num_micro_batches: usize,
    /// Peak simulated device memory over the pass, bytes.
    pub peak_mem_bytes: u64,
    /// Simulated device service seconds (compute + transfer, costed by
    /// the [`CostModel`]). Deterministic — no wall clock feeds it — so
    /// serving latency distributions replay bit-identically.
    pub service_seconds: f64,
}

/// The long-lived core shared by every driver: model + optimizer state,
/// the bucket scheduler, and the pipeline/recovery configuration.
///
/// Built in one of two modes:
///
/// * [`Engine::full_batch`] — no scheduler; a batch trains or serves as
///   one micro-batch (Algorithm 1, the DGL/PyG strategy).
/// * [`Engine::buffalo`] — the [`BuffaloScheduler`] splits every batch
///   into memory-balanced bucket groups under the device budget
///   (Algorithm 2).
///
/// State-ownership rule: the engine owns everything that must survive
/// across iterations and requests; drivers own only per-call inputs (the
/// dataset, the sampled batch, the device handle, the cost model) and
/// borrow the engine for each call.
#[derive(Debug)]
pub struct Engine {
    config: TrainConfig,
    model: GnnModel,
    opt: Adam,
    /// `Some` in scheduled (Buffalo) mode, `None` in whole-batch mode.
    scheduler: Option<BuffaloScheduler>,
    pipeline: PipelineConfig,
    recovery: RecoveryPolicy,
    calibrator: HeadroomCalibrator,
}

impl Engine {
    /// Creates a whole-batch engine (Algorithm 1): no scheduler, a batch
    /// is one micro-batch, and an over-budget batch fails with
    /// [`TrainError::Oom`] — the paper's OOM cells.
    pub fn full_batch(config: TrainConfig) -> Self {
        let model = GnnModel::for_shape(&config.shape, config.seed);
        let opt = Adam::new(config.lr);
        Engine {
            config,
            model,
            opt,
            scheduler: None,
            pipeline: PipelineConfig::serial(),
            recovery: RecoveryPolicy::disabled(),
            calibrator: HeadroomCalibrator::default(),
        }
    }

    /// Creates a bucket-scheduled engine (Algorithm 2). `clustering` is
    /// the dataset's average clustering coefficient `C` (Table II),
    /// consumed by the redundancy-aware memory estimator.
    pub fn buffalo(config: TrainConfig, clustering: f64) -> Self {
        let scheduler =
            BuffaloScheduler::new(config.shape.clone(), config.fanouts.clone(), clustering);
        let model = GnnModel::for_shape(&config.shape, config.seed);
        let opt = Adam::new(config.lr);
        Engine {
            config,
            model,
            opt,
            scheduler: Some(scheduler),
            pipeline: PipelineConfig::serial(),
            recovery: RecoveryPolicy::disabled(),
            calibrator: HeadroomCalibrator::default(),
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The model this engine owns.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Sets the pipeline configuration, builder-style.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the OOM recovery policy. In scheduled mode this re-seeds the
    /// headroom calibrator from the policy's `headroom` floor; in
    /// whole-batch mode there is no calibrator to seed (the whole-batch
    /// path cannot re-schedule, so only the retry rungs apply).
    pub fn set_recovery(&mut self, recovery: RecoveryPolicy) {
        if self.scheduler.is_some() {
            self.calibrator = HeadroomCalibrator::new(recovery.headroom);
        }
        self.recovery = recovery;
    }

    /// Builder-style [`set_recovery`](Self::set_recovery).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.set_recovery(recovery);
        self
    }

    /// The calibrator's current headroom multiplier: scheduling
    /// constraints are `budget / multiplier`. Always `1.0` in whole-batch
    /// mode (nothing is scheduled, so nothing is calibrated).
    pub fn headroom_multiplier(&self) -> f64 {
        if self.scheduler.is_some() {
            self.calibrator.multiplier()
        } else {
            1.0
        }
    }

    /// Ensures the headroom multiplier is at least `multiplier` — the
    /// rollback rung calls this with a compounding boost so each rollback
    /// schedules more conservatively than the last. A no-op in
    /// whole-batch mode: with no scheduler there is no plan to make more
    /// conservative (see the drift regression test below).
    pub fn force_headroom(&mut self, multiplier: f64) {
        if self.scheduler.is_some() && multiplier > self.calibrator.multiplier() {
            self.calibrator.set_multiplier(multiplier);
        }
    }

    /// Captures model, optimizer, and calibrator state for a checkpoint.
    /// This is the single snapshot implementation the checkpoint
    /// subsystem targets; whole-batch mode reports a multiplier of `1.0`.
    pub fn capture_state(&mut self) -> TrainerState {
        TrainerState {
            adam_t: self.opt.t(),
            headroom_multiplier: if self.scheduler.is_some() {
                self.calibrator.multiplier()
            } else {
                1.0
            },
            params: capture_params(&mut self.model),
        }
    }

    /// Restores captured state bit-exactly. In scheduled mode the
    /// calibrator's multiplier is restored too; whole-batch mode ignores
    /// it (it has no calibrated plan — the historical behavior).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::StateMismatch`] if the snapshot's parameters do
    /// not fit this model.
    pub fn restore_state(&mut self, state: &TrainerState) -> Result<(), CheckpointError> {
        restore_params(&mut self.model, &state.params)?;
        self.opt.set_t(state.adam_t);
        if self.scheduler.is_some() {
            self.calibrator.set_multiplier(state.headroom_multiplier);
        }
        Ok(())
    }

    /// Trains one iteration on `batch` under the device budget: schedule
    /// (in scheduled mode), run every micro-batch through the
    /// Prepare/Execute pipeline accumulating gradients, then step the
    /// optimizer once.
    ///
    /// # Errors
    ///
    /// * [`TrainError::Schedule`] if no feasible grouping exists
    ///   (scheduled mode only).
    /// * [`TrainError::Oom`] if a micro-batch exceeds the budget and
    ///   recovery is disabled.
    /// * [`TrainError::RecoveryExhausted`] if recovery is enabled and
    ///   every rung of the ladder failed.
    pub fn train_iteration(
        &mut self,
        ds: &Dataset,
        batch: &Batch,
        device: &dyn Device,
        cost: &CostModel,
    ) -> Result<IterationStats, TrainError> {
        let Engine {
            config,
            model,
            opt,
            scheduler,
            pipeline,
            recovery,
            calibrator,
        } = self;
        config.parallelism.install();
        device.free_all();
        device.reset_peak();
        // The calibrated constraint: `budget / multiplier`, the plain
        // budget until the calibrator has seen an under-prediction.
        // Planned against the *schedule* budget — the tightest live member
        // of a device pool — so every group fits whichever device it is
        // routed to.
        let plan = match scheduler.as_ref() {
            Some(s) => Some(s.schedule(
                &batch.graph,
                batch.num_seeds,
                calibrator.constrain(device.schedule_budget()),
            )?),
            None => None,
        };
        let (specs, estimates) = plan_specs(plan.as_ref());
        // The re-split rung and online calibration need a scheduler and an
        // enabled recovery policy.
        let recovering = recovery.enabled && scheduler.is_some();
        model.zero_grad();
        let outcome = run_pipeline(
            model,
            PipelineRequest {
                ds,
                batch,
                specs: &specs,
                estimates: &estimates,
                shape: &config.shape,
                grad_divisor: batch.num_seeds,
                device,
                cost,
                pipeline: *pipeline,
                policy: recovery,
                scheduler: scheduler.as_ref().filter(|_| recovering),
                calibrator: recovering.then_some(calibrator),
                schedule_seconds: plan
                    .as_ref()
                    .map_or(0.0, |p| p.scheduling_time.as_secs_f64()),
            },
        )?;
        // One optimizer step after all partial gradients accumulated
        // (Algorithm 2 line 13; trivially one micro-batch in whole-batch
        // mode).
        opt.step(&mut model.params_mut());
        let total = batch.num_seeds;
        Ok(IterationStats {
            loss: (outcome.loss_sum / total as f64) as f32,
            accuracy: outcome.correct as f32 / total as f32,
            num_micro_batches: outcome.micro_batches,
            peak_mem_bytes: device.peak(),
            timings: outcome.timings,
            recovery: outcome.recovery,
        })
    }

    /// Forward-only inference over `batch`: the same Prepare/Execute
    /// pipeline and (in scheduled mode) the same bucket scheduler for
    /// admission under the device budget, but no loss, no gradients, no
    /// optimizer step. Takes `&self` — the type system guarantees serving
    /// cannot perturb training state.
    ///
    /// Micro-batch allocations use the training-memory footprint, the
    /// same quantity the scheduler's estimator plans against, so
    /// admission-control decisions are consistent between training and
    /// serving.
    ///
    /// `micro_base` numbers the pass's micro-batches for
    /// [`Device::begin_micro_batch`]: the serving loop passes its
    /// run-cumulative micro-batch count so successive dispatches keep
    /// rotating across [`DevicePool`] members instead of re-starting at
    /// member 0 every call. A single pass passes 0.
    ///
    /// [`DevicePool`]: crate::train::DevicePool
    ///
    /// # Errors
    ///
    /// * [`TrainError::Schedule`] if no feasible grouping exists
    ///   (scheduled mode only).
    /// * [`TrainError::Oom`] if a micro-batch exceeds the budget.
    pub fn infer(
        &self,
        ds: &Dataset,
        batch: &Batch,
        device: &dyn Device,
        cost: &CostModel,
        micro_base: usize,
    ) -> Result<InferenceStats, TrainError> {
        self.config.parallelism.install();
        device.free_all();
        device.reset_peak();
        let plan = match &self.scheduler {
            Some(s) => Some(s.schedule(
                &batch.graph,
                batch.num_seeds,
                self.calibrator.constrain(device.schedule_budget()),
            )?),
            None => None,
        };
        let (specs, _) = plan_specs(plan.as_ref());
        let outcome = run_inference(
            &self.model,
            InferRequest {
                ds,
                batch,
                specs: &specs,
                shape: &self.config.shape,
                device,
                cost,
                pipeline: self.pipeline,
                micro_base,
            },
        )?;
        Ok(InferenceStats {
            predictions: outcome.predictions,
            num_micro_batches: outcome.micro_batches,
            peak_mem_bytes: device.peak(),
            service_seconds: outcome.device_seconds,
        })
    }

    /// Forward-only evaluation: classification accuracy of the engine's
    /// model on `nodes`, sampling their neighborhoods with the engine's
    /// configured fanouts.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn evaluate(&self, ds: &Dataset, nodes: &[NodeId], seed: u64) -> f32 {
        assert!(!nodes.is_empty(), "evaluation set must be non-empty");
        let batch = BatchSampler::new(self.config.fanouts.clone()).sample(&ds.graph, nodes, seed);
        let (_, prepared) = prepare_one(ds, &batch, MicroSpec::Whole, self.config.shape.num_layers);
        let (blocks, features, feat_dim, labels) = prepared.into_parts();
        let features = Tensor::from_vec(features.len() / feat_dim, feat_dim, features);
        let (logits, _) = self.model.forward(&blocks, &features);
        let out = softmax_cross_entropy(&logits, &labels, None);
        out.correct as f32 / labels.len() as f32
    }
}

/// Copies every parameter's value and Adam moments out of `model`, in the
/// model's canonical parameter order. Gradients are not captured: state is
/// taken between iterations, where they are dead.
fn capture_params(model: &mut GnnModel) -> Vec<ParamState> {
    model
        .params_mut()
        .iter()
        .map(|p| ParamState {
            rows: p.value.rows() as u32,
            cols: p.value.cols() as u32,
            value: p.value.data().to_vec(),
            m: p.m.data().to_vec(),
            v: p.v.data().to_vec(),
        })
        .collect()
}

/// Writes captured parameter state back into `model` bit-exactly.
///
/// # Errors
///
/// [`CheckpointError::StateMismatch`] if the parameter count or any
/// tensor shape differs — the snapshot belongs to a different model.
fn restore_params(model: &mut GnnModel, params: &[ParamState]) -> Result<(), CheckpointError> {
    let mut live = model.params_mut();
    if live.len() != params.len() {
        return Err(CheckpointError::StateMismatch {
            reason: format!(
                "snapshot has {} parameters, model has {}",
                params.len(),
                live.len()
            ),
        });
    }
    for (i, (p, s)) in live.iter_mut().zip(params).enumerate() {
        if p.value.rows() != s.rows as usize || p.value.cols() != s.cols as usize {
            return Err(CheckpointError::StateMismatch {
                reason: format!(
                    "parameter {i} is {}x{}, snapshot has {}x{}",
                    p.value.rows(),
                    p.value.cols(),
                    s.rows,
                    s.cols
                ),
            });
        }
        p.value.data_mut().copy_from_slice(&s.value);
        p.m.data_mut().copy_from_slice(&s.m);
        p.v.data_mut().copy_from_slice(&s.v);
        p.zero_grad();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{AggregatorKind, DeviceMemory, GnnShape};
    use buffalo_par::Parallelism;
    use buffalo_sampling::BatchSampler;

    fn small_setup() -> (Dataset, Batch, TrainConfig) {
        let ds = datasets::load(DatasetName::Cora, 7);
        let seeds: Vec<u32> = (0..64).collect();
        let batch = BatchSampler::new(vec![5, 5]).sample(&ds.graph, &seeds, 3);
        let config = TrainConfig {
            shape: GnnShape::new(
                ds.spec.feat_dim,
                16,
                2,
                ds.spec.num_classes,
                AggregatorKind::Mean,
            ),
            fanouts: vec![5, 5],
            lr: 0.01,
            seed: 99,
            parallelism: Parallelism::auto(),
        };
        (ds, batch, config)
    }

    /// FNV-1a over every parameter byte plus the Adam moments — the
    /// "nothing moved" witness for read-only paths.
    fn param_fingerprint(state: &TrainerState) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(state.adam_t);
        for p in &state.params {
            for x in p.value.iter().chain(&p.m).chain(&p.v) {
                eat(x.to_bits() as u64);
            }
        }
        h
    }

    /// Headroom bookkeeping differs by mode: whole-batch mode has no
    /// calibrator, so it always captures a multiplier of 1.0, ignores the
    /// snapshot's multiplier on restore, and ignores `force_headroom`;
    /// only scheduled mode re-seeds a calibrator in `set_recovery`.
    #[test]
    fn headroom_drift_between_modes_is_preserved() {
        let (_, _, config) = small_setup();
        // Whole-batch mode: headroom is inert end to end.
        let mut full = Engine::full_batch(config.clone());
        full.set_recovery(RecoveryPolicy {
            headroom: 2.0,
            ..RecoveryPolicy::default()
        });
        full.force_headroom(3.0);
        assert_eq!(full.headroom_multiplier(), 1.0);
        assert_eq!(full.capture_state().headroom_multiplier, 1.0);
        let mut snap = full.capture_state();
        snap.headroom_multiplier = 7.5;
        full.restore_state(&snap).unwrap();
        assert_eq!(full.headroom_multiplier(), 1.0, "restore must ignore it");
        // Scheduled mode: set_recovery seeds the calibrator floor,
        // force_headroom ratchets, restore_state restores.
        let mut buf = Engine::buffalo(config, 0.24);
        buf.set_recovery(RecoveryPolicy {
            headroom: 1.5,
            ..RecoveryPolicy::default()
        });
        assert_eq!(buf.headroom_multiplier(), 1.5);
        buf.force_headroom(2.5);
        assert_eq!(buf.headroom_multiplier(), 2.5);
        buf.force_headroom(2.0); // ratchet: never lowers
        assert_eq!(buf.headroom_multiplier(), 2.5);
        let snap = buf.capture_state();
        buf.force_headroom(4.0);
        buf.restore_state(&snap).unwrap();
        assert_eq!(buf.headroom_multiplier(), 2.5);
    }

    #[test]
    fn infer_is_read_only_and_deterministic() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(24.0);
        let mut engine = Engine::buffalo(config, 0.24);
        // Train a little so the parameters are not at init.
        for _ in 0..3 {
            engine.train_iteration(&ds, &batch, &device, &cost).unwrap();
        }
        let before = param_fingerprint(&engine.capture_state());
        let a = engine.infer(&ds, &batch, &device, &cost, 0).unwrap();
        let b = engine.infer(&ds, &batch, &device, &cost, 0).unwrap();
        let after = param_fingerprint(&engine.capture_state());
        assert_eq!(before, after, "inference touched parameter state");
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(
            a.service_seconds.to_bits(),
            b.service_seconds.to_bits(),
            "simulated service time must be deterministic"
        );
        assert_eq!(a.predictions.len(), batch.num_seeds);
        // Every seed answered exactly once, by its dataset node id.
        let mut nodes: Vec<NodeId> = a.predictions.iter().map(|&(n, _)| n).collect();
        nodes.sort_unstable();
        let mut expected: Vec<NodeId> = (0..batch.num_seeds).map(|l| batch.global_ids[l]).collect();
        expected.sort_unstable();
        assert_eq!(nodes, expected);
    }

    #[test]
    fn infer_splits_under_tight_budget_and_respects_it() {
        use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
        use buffalo_memsim::measure;
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let blocks =
            generate_blocks_fast(&batch.graph, batch.num_seeds, 2, GenerateOptions::default());
        let budget = measure::training_memory(&blocks, &config.shape).total() * 3 / 4;
        let device = DeviceMemory::new(budget);
        let engine = Engine::buffalo(config, 0.24);
        let stats = engine.infer(&ds, &batch, &device, &cost, 0).unwrap();
        assert!(stats.num_micro_batches > 1, "budget did not force split");
        assert!(stats.peak_mem_bytes <= budget);
        assert_eq!(stats.predictions.len(), batch.num_seeds);
        assert!(stats.service_seconds > 0.0);
    }
}
