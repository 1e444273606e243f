//! Convergence equivalence (paper Figure 17 / Table IV): Buffalo's
//! micro-batch training with gradient accumulation is mathematically the
//! same computation as whole-batch training, so the loss curves coincide.
//!
//! Run with: `cargo run --release --example convergence`

use buffalo::core::train::{Engine, TrainConfig};
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::memsim::{AggregatorKind, CostModel, DeviceMemory, GnnShape};
use buffalo::sampling::BatchSampler;

fn main() {
    let ds = datasets::load(DatasetName::Pubmed, 42);
    let seeds: Vec<u32> = (0..384).collect();
    let batch = BatchSampler::new(vec![5, 10]).sample(&ds.graph, &seeds, 3);
    let cost = CostModel::rtx6000();

    for aggregator in [AggregatorKind::Mean, AggregatorKind::MaxPool] {
        let config = TrainConfig {
            shape: GnnShape::new(ds.spec.feat_dim, 32, 2, ds.spec.num_classes, aggregator),
            fanouts: vec![5, 10],
            lr: 0.01,
            seed: 77,
            parallelism: buffalo::par::Parallelism::auto(),
        };
        // Probe the whole-batch footprint, then squeeze Buffalo.
        let unlimited = DeviceMemory::new(u64::MAX);
        let mut probe = Engine::full_batch(config.clone());
        let whole = probe
            .train_iteration(&ds, &batch, &unlimited, &cost)
            .unwrap();
        let budget = DeviceMemory::new(whole.peak_mem_bytes * 3 / 5);

        let mut full = Engine::full_batch(config.clone());
        let mut buffalo = Engine::buffalo(config, 0.06);
        println!("aggregator {aggregator}:");
        println!(
            "{:>5} {:>12} {:>12} {:>8}",
            "iter", "whole-batch", "micro-batch", "K"
        );
        for i in 0..12 {
            let sf = full
                .train_iteration(&ds, &batch, &unlimited, &cost)
                .unwrap();
            let sb = buffalo
                .train_iteration(&ds, &batch, &budget, &cost)
                .unwrap();
            println!(
                "{i:>5} {:>12.5} {:>12.5} {:>8}",
                sf.loss, sb.loss, sb.num_micro_batches
            );
        }
        println!();
    }
    println!("identical curves: micro-batch gradients accumulate to the whole-batch");
    println!("gradient (same divisor, same edges), so the optimizer sees the same step.");
}
