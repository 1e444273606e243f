//! Cross-crate integration tests: the full training pipeline from dataset
//! generation through Buffalo scheduling to converged weights.

use buffalo::core::train::{Engine, TrainConfig};
use buffalo::core::TrainError;
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::memsim::{AggregatorKind, CostModel, DeviceMemory, GnnShape};
use buffalo::sampling::BatchSampler;

fn setup(
    name: DatasetName,
    num_seeds: u32,
    aggregator: AggregatorKind,
) -> (
    datasets::Dataset,
    buffalo::sampling::Batch,
    TrainConfig,
    CostModel,
) {
    let ds = datasets::load(name, 11);
    let seeds: Vec<u32> = (0..num_seeds).collect();
    let batch = BatchSampler::new(vec![4, 6]).sample(&ds.graph, &seeds, 3);
    let config = TrainConfig {
        shape: GnnShape::new(ds.spec.feat_dim, 16, 2, ds.spec.num_classes, aggregator),
        fanouts: vec![4, 6],
        lr: 0.02,
        seed: 5,
        parallelism: buffalo::par::Parallelism::auto(),
    };
    (ds, batch, config, CostModel::rtx6000())
}

#[test]
fn whole_pipeline_learns_the_synthetic_task() {
    let (ds, batch, config, cost) = setup(DatasetName::Cora, 128, AggregatorKind::Mean);
    let device = DeviceMemory::with_gib(24.0);
    let mut trainer = Engine::full_batch(config);
    let mut losses = Vec::new();
    for _ in 0..25 {
        losses.push(
            trainer
                .train_iteration(&ds, &batch, &device, &cost)
                .unwrap()
                .loss,
        );
    }
    let first = losses[0];
    let last = *losses.last().unwrap();
    assert!(
        last < 0.7 * first,
        "expected >30% loss reduction: {first} -> {last}"
    );
}

#[test]
fn buffalo_and_full_batch_converge_identically() {
    // The central claim of the paper's §IV-B: micro-batch training with
    // gradient accumulation is the same computation.
    //
    // The recurrent/attention aggregators run on OGBN-arxiv (feature dim
    // 128): an LSTM aggregator's cell is `feat_dim²`-sized, so Cora's
    // 1433-dim features would make a debug-mode forward take minutes.
    for (name, aggregator) in [
        (DatasetName::Cora, AggregatorKind::Mean),
        (DatasetName::Cora, AggregatorKind::MaxPool),
        (DatasetName::OgbnArxiv, AggregatorKind::Lstm),
        (DatasetName::OgbnArxiv, AggregatorKind::Attention),
    ] {
        let (ds, batch, config, cost) = setup(name, 96, aggregator);
        let unlimited = DeviceMemory::new(u64::MAX);
        let mut probe = Engine::full_batch(config.clone());
        let whole = probe
            .train_iteration(&ds, &batch, &unlimited, &cost)
            .unwrap();
        // Small batches on small graphs saturate their closures, so the
        // smallest feasible budget varies: probe downward for the
        // tightest one the scheduler accepts.
        let budget = [60u64, 70, 80, 90]
            .iter()
            .map(|pct| DeviceMemory::new(whole.peak_mem_bytes * pct / 100))
            .find(|b| {
                Engine::buffalo(config.clone(), 0.24)
                    .train_iteration(&ds, &batch, b, &cost)
                    .is_ok()
            })
            .unwrap_or_else(|| panic!("{aggregator:?}: no feasible sub-whole budget"));
        let mut full = Engine::full_batch(config.clone());
        let mut buffalo = Engine::buffalo(config, 0.24);
        let mut saw_multiple_micro_batches = false;
        for i in 0..6 {
            let sf = full
                .train_iteration(&ds, &batch, &unlimited, &cost)
                .unwrap();
            let sb = buffalo
                .train_iteration(&ds, &batch, &budget, &cost)
                .unwrap();
            saw_multiple_micro_batches |= sb.num_micro_batches > 1;
            // Gradients are equivalent (see core::verify), but Adam's
            // 1/sqrt(v) step amplifies f32 reassociation noise once the
            // loss approaches zero — compare with an absolute floor.
            let diff = (sf.loss - sb.loss).abs();
            assert!(
                diff < 0.02 * sf.loss.abs().max(0.1),
                "{aggregator:?} iter {i}: whole {} vs micro {} (diff {diff})",
                sf.loss,
                sb.loss,
            );
        }
        assert!(
            saw_multiple_micro_batches,
            "{aggregator:?}: budget never forced a split"
        );
    }
}

#[test]
fn buffalo_never_exceeds_its_budget() {
    let (ds, batch, config, cost) = setup(DatasetName::OgbnArxiv, 256, AggregatorKind::Lstm);
    let unlimited = DeviceMemory::new(u64::MAX);
    let mut probe = Engine::full_batch(config.clone());
    let whole = probe
        .train_iteration(&ds, &batch, &unlimited, &cost)
        .unwrap();
    for divisor in [2u64, 3, 4] {
        let budget = DeviceMemory::new(whole.peak_mem_bytes / divisor);
        let mut trainer = Engine::buffalo(config.clone(), 0.06);
        match trainer.train_iteration(&ds, &batch, &budget, &cost) {
            Ok(stats) => {
                assert!(
                    stats.peak_mem_bytes <= budget.budget(),
                    "1/{divisor}: peak {} over budget {}",
                    stats.peak_mem_bytes,
                    budget.budget()
                );
            }
            Err(TrainError::Schedule(_)) => {
                // A too-tight budget may be genuinely infeasible; that is a
                // valid outcome, not a budget violation.
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

#[test]
fn full_batch_oom_is_deterministic_and_clean() {
    let (ds, batch, config, cost) = setup(DatasetName::Cora, 128, AggregatorKind::Lstm);
    let device = DeviceMemory::new(1 << 20); // 1 MiB: hopeless
    let mut trainer = Engine::full_batch(config);
    for _ in 0..3 {
        let err = trainer
            .train_iteration(&ds, &batch, &device, &cost)
            .unwrap_err();
        assert!(matches!(err, TrainError::Oom(_)));
        // The failed iteration must not leak allocations.
        assert_eq!(device.in_use(), 0);
    }
}

#[test]
fn gat_trains_on_citation_graph_with_zero_in_degree_nodes() {
    // OGBN-papers stand-in has never-cited nodes; the models must handle
    // empty neighborhoods (Betty cannot — see baselines.rs).
    let (ds, batch, config, cost) = setup(DatasetName::OgbnPapers, 64, AggregatorKind::Attention);
    let device = DeviceMemory::with_gib(24.0);
    let mut trainer = Engine::full_batch(config);
    let stats = trainer
        .train_iteration(&ds, &batch, &device, &cost)
        .unwrap();
    assert!(stats.loss.is_finite());
}
