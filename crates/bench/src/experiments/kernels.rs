//! CPU kernel microbenchmark: tiled matmul and block-parallel SAGE
//! aggregation, serial vs thread-pooled and scalar vs SIMD, written to
//! `BENCH_kernels.json`.
//!
//! The JSON records the host context next to every number so a reader can
//! judge what the numbers mean:
//!
//! * `host_threads` — what `std::thread::available_parallelism` reports.
//!   When it is below `parallel_threads`, all thread configs time-slice
//!   the same CPUs and a parallel/serial ratio measures dispatch overhead,
//!   not scalability — so `speedup` is written as JSON `null` and the
//!   `note` says why.
//! * `cpu_features` — the ISA extensions `is_x86_feature_detected!` found,
//!   so a `simd_ops` row for a backend can be traced to the hardware that
//!   produced it.
//!
//! Every timed configuration is checked for correctness first: thread
//! counts must be bit-identical under a fixed backend, each SIMD backend
//! must be run-to-run deterministic, and the bf16 widening kernel must be
//! exact (a pure `u16 << 16` bit shift) on every backend.

use buffalo_blocks::Block;
use buffalo_core::models::SageLayer;
use buffalo_memsim::AggregatorKind;
use buffalo_par::Parallelism;
use buffalo_simd::{detected_features, f32_to_bf16, SimdBackend};
use buffalo_tensor::Tensor;
use std::borrow::Cow;
use std::time::Instant;

const PARALLEL_THREADS: usize = 4;

fn config(threads: usize, simd: SimdBackend) -> Parallelism {
    Parallelism {
        threads,
        min_parallel_rows: 1,
        simd,
        ..Parallelism::auto()
    }
}

/// Median-of-runs wall time in seconds.
fn time_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct OpResult {
    name: String,
    serial_s: f64,
    parallel_s: f64,
}

impl OpResult {
    fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.serial_s / self.parallel_s
        } else {
            0.0
        }
    }
}

/// One `(op, backend)` timing row for the SIMD comparison table.
struct SimdRow {
    op: String,
    backend: SimdBackend,
    time_s: f64,
}

fn dense_block(n_dst: usize, n_src: usize, deg: usize) -> Block {
    let dst_nodes: Vec<u32> = (0..n_dst as u32).collect();
    let src_nodes: Vec<u32> = (0..n_src as u32).collect();
    let offsets: Vec<usize> = (0..=n_dst).map(|i| i * deg).collect();
    let indices: Vec<u32> = (0..n_dst * deg)
        .map(|e| ((e * 2654435761) % n_src) as u32)
        .collect();
    Block::from_parts(dst_nodes, src_nodes, offsets, indices)
}

fn bench_matmul(n: usize, reps: usize) -> OpResult {
    let a = Tensor::xavier(n, n, 1);
    let b = Tensor::xavier(n, n, 2);
    let serial = config(1, SimdBackend::Scalar);
    let parallel = config(PARALLEL_THREADS, SimdBackend::Scalar);
    // Equality first: under a fixed backend the parallel kernel must be
    // bit-identical to the serial one.
    assert_eq!(
        a.matmul_with(&b, &serial).data(),
        a.matmul_with(&b, &parallel).data(),
        "matmul {n}x{n}: parallel result diverged"
    );
    OpResult {
        name: format!("matmul_{n}x{n}"),
        serial_s: time_secs(reps, || {
            a.matmul_with(&b, &serial);
        }),
        parallel_s: time_secs(reps, || {
            a.matmul_with(&b, &parallel);
        }),
    }
}

fn bench_aggregate(reps: usize) -> OpResult {
    let (n_dst, n_src, dim) = (2_048, 4_096, 64);
    let block = dense_block(n_dst, n_src, 12);
    let h = Tensor::xavier(n_src, dim, 3);
    let layer = SageLayer::new(dim, dim, AggregatorKind::Mean, false, 5);
    config(1, SimdBackend::Scalar).install();
    let (want, _) = layer.forward(&block, Cow::Borrowed(&h));
    config(PARALLEL_THREADS, SimdBackend::Scalar).install();
    let (got, _) = layer.forward(&block, Cow::Borrowed(&h));
    assert_eq!(
        want.data(),
        got.data(),
        "sage aggregation: parallel result diverged"
    );
    config(1, SimdBackend::Scalar).install();
    let serial_s = time_secs(reps, || {
        layer.forward(&block, Cow::Borrowed(&h));
    });
    config(PARALLEL_THREADS, SimdBackend::Scalar).install();
    let parallel_s = time_secs(reps, || {
        layer.forward(&block, Cow::Borrowed(&h));
    });
    Parallelism::auto().install();
    OpResult {
        name: "sage_mean_forward_2048x64".into(),
        serial_s,
        parallel_s,
    }
}

/// Times the matmul axpy path (NN), the dot path (NT), SAGE mean
/// aggregation, and the bf16 widening gather under every backend the host
/// supports, asserting run-to-run determinism for each row.
fn bench_simd_ops(n: usize, reps: usize) -> Vec<SimdRow> {
    let mut rows = Vec::new();
    let a = Tensor::xavier(n, n, 1);
    let b = Tensor::xavier(n, n, 2);
    let (n_dst, n_src, dim) = (2_048, 4_096, 64);
    let block = dense_block(n_dst, n_src, 12);
    let h = Tensor::xavier(n_src, dim, 3);
    let layer = SageLayer::new(dim, dim, AggregatorKind::Mean, false, 5);
    // A non-lane-multiple element count so SIMD tails are exercised.
    let bf16_table: Vec<u16> = (0..n * n + 5)
        .map(|i| f32_to_bf16((i as f32).sin()))
        .collect();
    let mut widened = vec![0.0f32; bf16_table.len()];

    for backend in SimdBackend::available() {
        let par = config(1, backend);

        // matmul, axpy path: run twice, assert bitwise determinism.
        let first = a.matmul_with(&b, &par);
        assert_eq!(
            first.data(),
            a.matmul_with(&b, &par).data(),
            "matmul {backend:?}: run-to-run nondeterminism"
        );
        rows.push(SimdRow {
            op: format!("matmul_{n}x{n}"),
            backend,
            time_s: time_secs(reps, || {
                a.matmul_with(&b, &par);
            }),
        });

        // matmul_nt, dot path.
        let first = a.matmul_nt_with(&b, &par);
        assert_eq!(
            first.data(),
            a.matmul_nt_with(&b, &par).data(),
            "matmul_nt {backend:?}: run-to-run nondeterminism"
        );
        rows.push(SimdRow {
            op: format!("matmul_nt_{n}x{n}"),
            backend,
            time_s: time_secs(reps, || {
                a.matmul_nt_with(&b, &par);
            }),
        });

        // SAGE mean aggregation (axpy over neighbor rows).
        par.install();
        let (first, _) = layer.forward(&block, Cow::Borrowed(&h));
        let (second, _) = layer.forward(&block, Cow::Borrowed(&h));
        assert_eq!(
            first.data(),
            second.data(),
            "sage mean {backend:?}: run-to-run nondeterminism"
        );
        rows.push(SimdRow {
            op: "sage_mean_forward_2048x64".into(),
            backend,
            time_s: time_secs(reps, || {
                layer.forward(&block, Cow::Borrowed(&h));
            }),
        });

        // bf16 widening gather: exactness, not just determinism — widening
        // is a pure left shift, so every backend must agree bitwise.
        backend.widen_bf16(&mut widened, &bf16_table);
        for (&w, &h16) in widened.iter().zip(&bf16_table) {
            assert_eq!(
                w.to_bits(),
                (h16 as u32) << 16,
                "widen_bf16 {backend:?}: inexact widening"
            );
        }
        rows.push(SimdRow {
            op: format!("widen_bf16_{}", bf16_table.len()),
            backend,
            time_s: time_secs(reps, || {
                backend.widen_bf16(&mut widened, &bf16_table);
            }),
        });
    }
    Parallelism::auto().install();
    rows
}

/// Runs the kernel microbenchmarks; with `write_bench` it also rewrites
/// `BENCH_kernels.json`.
pub fn kernels(quick: bool, write_bench: bool) {
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let host_limited = host_threads < PARALLEL_THREADS;
    let (sizes, reps): (&[usize], usize) = if quick { (&[256], 3) } else { (&[256, 512], 5) };
    let mut results: Vec<OpResult> = sizes.iter().map(|&n| bench_matmul(n, reps)).collect();
    results.push(bench_aggregate(reps));
    let simd_rows = bench_simd_ops(sizes[0], reps);

    let features = detected_features();
    let feature_list: Vec<String> = features
        .iter()
        .map(|(name, on)| format!("{name}={on}"))
        .collect();
    println!(
        "host_threads={host_threads} parallel_threads={PARALLEL_THREADS} cpu: {}",
        feature_list.join(" ")
    );
    for r in &results {
        let speedup = if host_limited {
            "n/a (host-limited)".to_string()
        } else {
            format!("{:.2}x", r.speedup())
        };
        println!(
            "{:<28} serial {:.4}s  {}t {:.4}s  speedup {speedup}",
            r.name, r.serial_s, PARALLEL_THREADS, r.parallel_s
        );
    }
    for r in &simd_rows {
        println!("{:<28} {:<6} {:.4}s", r.op, r.backend.as_str(), r.time_s);
    }

    let note = if host_limited {
        "host_threads < parallel_threads: all thread configs time-slice the same \
         CPUs, so thread speedups are written as null (they would measure \
         dispatch overhead, not scalability); simd_ops rows are single-threaded \
         and remain meaningful"
    } else {
        "speedups are meaningful only when host_threads >= parallel_threads; \
         on a 1-core host all configs time-slice one CPU"
    };
    let ops: Vec<String> = results
        .iter()
        .map(|r| {
            let speedup = if host_limited {
                "null".to_string()
            } else {
                format!("{:.4}", r.speedup())
            };
            format!(
                "    {{\"op\": \"{}\", \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {speedup}}}",
                r.name, r.serial_s, r.parallel_s
            )
        })
        .collect();
    let simd_ops: Vec<String> = simd_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"op\": \"{}\", \"backend\": \"{}\", \"time_s\": {:.6}}}",
                r.op,
                r.backend.as_str(),
                r.time_s
            )
        })
        .collect();
    let cpu_features: Vec<String> = features
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect();
    let json = format!(
        "{{\n  \"host_threads\": {host_threads},\n  \"parallel_threads\": {PARALLEL_THREADS},\n  \"cpu_features\": {{{}}},\n  \"note\": \"{note}\",\n  \"ops\": [\n{}\n  ],\n  \"simd_ops\": [\n{}\n  ]\n}}\n",
        cpu_features.join(", "),
        ops.join(",\n"),
        simd_ops.join(",\n")
    );
    crate::output::write_artifact("BENCH_kernels.json", &json, write_bench);
}
