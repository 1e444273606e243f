//! Gradient-equivalence verification: machine-checkable evidence for the
//! paper's §IV-B claim that Buffalo's micro-batch training is the same
//! computation as whole-batch training.
//!
//! The check compares the *accumulated gradients* the two execution
//! strategies produce from identical weights — the mathematically
//! meaningful quantity. (Comparing weights after several optimizer steps
//! is not robust: Adam divides by √v̂, so a 1e-7 float-reassociation
//! difference in a near-zero gradient can flip a step's sign and push
//! weight trajectories percent-level apart while the computation is still
//! equivalent.)

use crate::models::GnnModel;
use crate::train::pipeline::{plan_specs, run_pipeline, MicroSpec, PipelineRequest};
use crate::train::{PipelineConfig, RecoveryPolicy, TrainConfig};
use crate::TrainError;
use buffalo_bucketing::BuffaloScheduler;
use buffalo_graph::datasets::Dataset;
use buffalo_memsim::{CostModel, DeviceMemory, GnnShape};
use buffalo_sampling::Batch;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalenceReport {
    /// Worst absolute gradient difference between the whole-batch and the
    /// accumulated micro-batch runs, normalized by each tensor's own
    /// maximum gradient magnitude.
    pub max_grad_divergence: f64,
    /// Relative difference between the whole-batch loss and the
    /// accumulated micro-batch loss.
    pub loss_divergence: f64,
    /// Micro-batches Buffalo used (must exceed 1 for the check to be
    /// meaningful).
    pub micro_batches: usize,
}

impl EquivalenceReport {
    /// Whether the two strategies computed the same gradients within f32
    /// reassociation noise.
    pub fn equivalent(&self) -> bool {
        self.micro_batches > 1 && self.max_grad_divergence < 5e-3 && self.loss_divergence < 1e-4
    }
}

/// Runs `specs` of `batch` through the training pipeline on a roomy
/// device, from fresh weights seeded with `seed`: returns the model with
/// its accumulated gradients and the summed (not averaged) loss. Every
/// micro-batch divides its loss gradient by the whole batch's seed count.
fn accumulate(
    shape: &GnnShape,
    seed: u64,
    ds: &Dataset,
    batch: &Batch,
    specs: &[MicroSpec<'_>],
) -> Result<(GnnModel, f64), TrainError> {
    let mut model = GnnModel::for_shape(shape, seed);
    model.zero_grad();
    let outcome = run_pipeline(
        &mut model,
        PipelineRequest {
            ds,
            batch,
            specs,
            estimates: &[],
            shape,
            grad_divisor: batch.num_seeds,
            device: &DeviceMemory::with_gib(1024.0),
            cost: &CostModel::rtx6000(),
            pipeline: PipelineConfig::serial(),
            policy: &RecoveryPolicy::disabled(),
            scheduler: None,
            calibrator: None,
            schedule_seconds: 0.0,
        },
    )?;
    Ok((model, outcome.loss_sum))
}

/// Computes whole-batch and Buffalo micro-batch gradients from identical
/// weights and reports the worst divergence.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn verify_gradient_equivalence(
    ds: &Dataset,
    batch: &Batch,
    config: &TrainConfig,
    clustering: f64,
    budget_bytes: u64,
) -> Result<EquivalenceReport, TrainError> {
    let n = batch.num_seeds as f64;
    let (mut whole, whole_loss) =
        accumulate(&config.shape, config.seed, ds, batch, &[MicroSpec::Whole])?;
    // Micro-batch gradient accumulation over a Buffalo plan.
    let scheduler = BuffaloScheduler::new(config.shape.clone(), config.fanouts.clone(), clustering);
    let plan = scheduler.schedule(&batch.graph, batch.num_seeds, budget_bytes)?;
    let (specs, _) = plan_specs(Some(&plan));
    let (mut micro, micro_loss) = accumulate(&config.shape, config.seed, ds, batch, &specs)?;
    let (whole_loss, micro_loss) = (whole_loss / n, micro_loss / n);
    // Compare gradients with per-tensor normalization: the worst absolute
    // entry difference relative to the tensor's own gradient magnitude
    // (the standard `allclose`-style check). Summation-order noise is a
    // uniform ~1e-6 absolute floor in f32 regardless of entry magnitude,
    // so per-entry relative errors on near-zero entries are meaningless.
    let mut max_grad_divergence = 0.0f64;
    let ga = whole.params_mut();
    let gb = micro.params_mut();
    for (a, b) in ga.iter().zip(gb.iter()) {
        let scale = a
            .grad
            .data()
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(1e-9) as f64;
        for (&x, &y) in a.grad.data().iter().zip(b.grad.data()) {
            let d = (x - y).abs() as f64 / scale;
            max_grad_divergence = max_grad_divergence.max(d);
        }
    }
    Ok(EquivalenceReport {
        max_grad_divergence,
        loss_divergence: (whole_loss - micro_loss).abs() / whole_loss.abs().max(1e-9),
        micro_batches: specs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{measure, AggregatorKind};
    use buffalo_sampling::BatchSampler;

    fn setup(aggregator: AggregatorKind) -> (Dataset, Batch, TrainConfig, u64) {
        let ds = datasets::load(DatasetName::OgbnArxiv, 13);
        let seeds: Vec<u32> = (0..96).collect();
        let batch = BatchSampler::new(vec![4, 6]).sample(&ds.graph, &seeds, 11);
        let config = TrainConfig {
            shape: GnnShape::new(ds.spec.feat_dim, 16, 2, ds.spec.num_classes, aggregator),
            fanouts: vec![4, 6],
            lr: 0.02,
            seed: 5,
            parallelism: buffalo_par::Parallelism::auto(),
        };
        let blocks =
            generate_blocks_fast(&batch.graph, batch.num_seeds, 2, GenerateOptions::default());
        let whole = measure::training_memory(&blocks, &config.shape).total();
        (ds, batch, config, whole * 7 / 10)
    }

    fn check(aggregator: AggregatorKind) {
        let (ds, batch, config, budget) = setup(aggregator);
        let report = verify_gradient_equivalence(&ds, &batch, &config, 0.2, budget).unwrap();
        assert!(
            report.micro_batches > 1,
            "{aggregator:?}: budget did not force a split"
        );
        assert!(
            report.equivalent(),
            "{aggregator:?}: grads {}, loss {}",
            report.max_grad_divergence,
            report.loss_divergence
        );
    }

    #[test]
    fn mean_gradients_are_equivalent() {
        check(AggregatorKind::Mean);
    }

    #[test]
    fn maxpool_gradients_are_equivalent() {
        check(AggregatorKind::MaxPool);
    }

    #[test]
    fn lstm_gradients_are_equivalent() {
        // Order-sensitive aggregation: requires the order-preserving
        // micro-batch relabeling in `Batch::restrict_to_seeds`.
        check(AggregatorKind::Lstm);
    }

    #[test]
    fn attention_gradients_are_equivalent() {
        check(AggregatorKind::Attention);
    }

    #[test]
    fn different_weights_are_detected() {
        // Sanity: the metric must flag genuinely different gradients.
        let (ds, batch, config, _) = setup(AggregatorKind::Mean);
        let whole = [MicroSpec::Whole];
        let (mut a, _) = accumulate(&config.shape, 5, &ds, &batch, &whole).unwrap();
        let (mut b, _) = accumulate(&config.shape, 999, &ds, &batch, &whole).unwrap();
        let mut worst = 0.0f64;
        for (x, y) in a.params_mut().iter().zip(b.params_mut().iter()) {
            for (&u, &v) in x.grad.data().iter().zip(y.grad.data()) {
                worst = worst.max((u - v).abs() as f64 / (1e-6 + u.abs().max(v.abs()) as f64));
            }
        }
        assert!(
            worst > 1e-2,
            "different models must produce different grads"
        );
    }
}
