//! Criterion bench: the parallel CPU compute kernels — tiled matmul and
//! block-parallel SAGE aggregation — serial vs thread-pooled.
//!
//! On a multi-core host the 4-thread rows should show near-linear
//! speedup at 512×512 and above; on a single-core container (the CI
//! image) all configs time-slice one CPU, so compare shapes rather than
//! thread counts there.

use buffalo_blocks::Block;
use buffalo_core::models::SageLayer;
use buffalo_memsim::AggregatorKind;
use buffalo_par::Parallelism;
use buffalo_tensor::Tensor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::borrow::Cow;

fn config(threads: usize) -> Parallelism {
    Parallelism {
        threads,
        min_parallel_rows: 1,
        ..Parallelism::auto()
    }
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for &n in &[256usize, 512] {
        let a = Tensor::xavier(n, n, 1);
        let b = Tensor::xavier(n, n, 2);
        for &threads in &[1usize, 4] {
            let par = config(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("{n}x{n}"), format!("{threads}t")),
                &(&a, &b),
                |bch, (a, b)| bch.iter(|| a.matmul_with(b, &par)),
            );
        }
    }
    group.finish();
}

/// A block where every destination averages `deg` sources.
fn dense_block(n_dst: usize, n_src: usize, deg: usize) -> Block {
    let dst_nodes: Vec<u32> = (0..n_dst as u32).collect();
    let src_nodes: Vec<u32> = (0..n_src as u32).collect();
    let offsets: Vec<usize> = (0..=n_dst).map(|i| i * deg).collect();
    let indices: Vec<u32> = (0..n_dst * deg)
        .map(|e| ((e * 2654435761) % n_src) as u32)
        .collect();
    Block::from_parts(dst_nodes, src_nodes, offsets, indices)
}

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("sage_aggregate");
    group.sample_size(10);
    let n_dst = 2_048;
    let n_src = 4_096;
    let dim = 64;
    let block = dense_block(n_dst, n_src, 12);
    let h = Tensor::xavier(n_src, dim, 3);
    let layer = SageLayer::new(dim, dim, AggregatorKind::Mean, false, 5);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("mean_forward", format!("{threads}t")),
            &(&block, &h),
            |bch, (block, h)| {
                config(threads).install();
                bch.iter(|| layer.forward(block, Cow::Borrowed(h)));
            },
        );
    }
    Parallelism::auto().install();
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_aggregate);
criterion_main!(benches);
