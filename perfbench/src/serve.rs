//! The `arxiv-serve` workload: an open-loop seeded Poisson trace served
//! by `serve_trace` on a warmed ogbn-arxiv engine, and, in the traced run,
//! a replay of every dispatch through the layers' entry points.

use crate::gates;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::train::{self, Checkpoints, Replica, MIN_STEPS};
use crate::{Args, Layers};
use buffalo_bucketing::BuffaloScheduler;
use buffalo_core::serve::{serve_trace, RequestTrace, ServeConfig, ServeReport};
use buffalo_core::train::{Engine, HeadroomCalibrator, TrainConfig};
use buffalo_graph::datasets::{self, Dataset, DatasetName};
use buffalo_graph::{stats as graph_stats, NodeId};
use buffalo_memsim::{measure, AggregatorKind, CostModel, Device, DeviceMemory, GnnShape};
use buffalo_par::Parallelism;
use buffalo_sampling::{Batch, BatchSampler, SeedBatches};
use buffalo_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Kernel threads.
const THREADS: usize = 1;
/// Requests per trace.
const REQUESTS: usize = 8_192;
/// Seed of the trace that sizes the budget: the device is part of the
/// deployment, not of the workload's inputs, so it does not follow the
/// workload seed.
const PROBE_SEED: u64 = 7;
/// Offered rate on the simulated clock, requests per second.
const RATE: f64 = 256.0;
const MAX_BATCH: usize = 64;
const MAX_WAIT_S: f64 = 0.050;
/// Budget as a share of the roomy single-dispatch peak.
const BUDGET_SHARE: f64 = 0.6;
/// Warm-up: iterations on one sampled batch of this many seeds.
const WARMUP_ITERS: usize = 3;
const WARMUP_SEEDS: usize = 2_048;
/// The capacity ladder: offered rates from 128 to 512 requests per
/// second in steps of 32, and the p99 limit they are held to.
const LADDER: (f64, f64, f64) = (128.0, 512.0, 32.0);
const P99_LIMIT_S: f64 = 0.250;

const DATASET_SEED: u64 = 42;
const MODEL_SEED: u64 = 17;

fn config(ds: &Dataset) -> TrainConfig {
    TrainConfig {
        shape: GnnShape::new(
            ds.spec.feat_dim,
            32,
            2,
            ds.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: vec![5, 10],
        lr: 0.01,
        seed: MODEL_SEED,
        parallelism: Parallelism::with_threads(THREADS),
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        max_wait: MAX_WAIT_S,
        ..ServeConfig::default()
    }
}

/// The warmed engine, its trace, and the budget it serves under.
struct Setup {
    ds: Dataset,
    clustering: f64,
    engine: Engine,
    trace: RequestTrace,
    budget: u64,
    checkpoint_bytes: u64,
}

fn warmup_batch(ds: &Dataset) -> Batch {
    let seeds = SeedBatches::new(ds.graph.num_nodes(), WARMUP_SEEDS, 7);
    BatchSampler::new(vec![5, 10]).sample(&ds.graph, seeds.batch(0), 11)
}

/// How set-up warms the engine: train it and snapshot the served model,
/// returning the snapshot's size.
type Warm<'a> = dyn FnMut(&mut Engine, &Dataset, &Batch, f64) -> u64 + 'a;

/// Dataset + clustering + engine, warm-up training with a snapshot of the
/// served model, and the footprint probe that sets the budget.
fn setup(seed: u64, warm: &mut Warm<'_>) -> Setup {
    let ds = datasets::load(DatasetName::OgbnArxiv, DATASET_SEED);
    let clustering = graph_stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let mut engine = Engine::buffalo(config(&ds), clustering);
    let batch = warmup_batch(&ds);
    let checkpoint_bytes = warm(&mut engine, &ds, &batch, clustering);
    let roomy = DeviceMemory::with_gib(24.0);
    let trace = RequestTrace::poisson(REQUESTS, RATE, ds.graph.num_nodes(), seed)
        .expect("valid trace parameters");
    // The roomy single-dispatch peak: the largest dispatch footprint of
    // the probe trace served with no budget pressure.
    let probe = RequestTrace::poisson(REQUESTS, RATE, ds.graph.num_nodes(), PROBE_SEED)
        .expect("valid trace parameters");
    let peak = serve_trace(
        &engine,
        &ds,
        &roomy,
        &CostModel::rtx6000(),
        &probe,
        &serve_config(),
    )
    .expect("the probe fits a roomy device")
    .peak_mem_bytes;
    Setup {
        ds,
        clustering,
        engine,
        trace,
        budget: (peak as f64 * BUDGET_SHARE) as u64,
        checkpoint_bytes,
    }
}

fn checkpoints(out: &Path, engine: &Engine, ds: &Dataset) -> Checkpoints {
    Checkpoints::create(
        out,
        "arxiv-serve",
        engine.config(),
        WARMUP_SEEDS,
        ds.graph.num_nodes(),
    )
}

fn answers(r: &ServeReport) -> Vec<(usize, NodeId, u32)> {
    r.requests
        .iter()
        .map(|q| (q.index, q.node, q.class))
        .collect()
}

/// Per-call checks: exact accounting and the report's own digest.
fn check_report(r: &ServeReport, report: &mut Report) {
    report.gate(
        "serve-accounting",
        gates::check_accounting(
            r.num_admitted,
            r.requests.len(),
            r.shed.len(),
            r.deadline_missed.len(),
        ),
    );
    report.gate(
        "answers-digest",
        gates::check_digest(
            "report vs recomputed",
            r.answer_digest,
            gates::answer_digest(&answers(r)),
        ),
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, out: &Path, report: &mut Report) {
    let mut warm = |engine: &mut Engine, ds: &Dataset, batch: &Batch, _: f64| {
        let roomy = DeviceMemory::with_gib(24.0);
        for _ in 0..WARMUP_ITERS {
            engine
                .train_iteration(ds, batch, &roomy, &CostModel::rtx6000())
                .expect("warm-up fits a roomy device");
        }
        checkpoints(out, engine, ds).save(engine, &roomy, &[])
    };
    let (s, setup_s) = train::timed_setup(|| setup(args.seed, &mut warm));
    let device = DeviceMemory::new(s.budget);
    let cost = CostModel::rtx6000();
    let cfg = serve_config();
    let mut walls = Vec::new();
    let mut completed = 0usize;
    let mut first: Option<ServeReport> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    while walls.len() < MIN_STEPS || t_run.elapsed() < budget {
        let t0 = Instant::now();
        let r = serve_trace(&s.engine, &s.ds, &device, &cost, &s.trace, &cfg);
        walls.push(t0.elapsed().as_secs_f64());
        report.attempted += REQUESTS as u64;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                report.failed += REQUESTS as u64;
                report.info(format!("serve_trace failed: {e}"));
                continue;
            }
        };
        report.failed += (r.shed.len() + r.deadline_missed.len()) as u64;
        completed += r.requests.len();
        match &first {
            None => {
                check_report(&r, report);
                first = Some(r);
            }
            Some(f) => report.gate(
                "replay-determinism",
                gates::check_digest(
                    "output digest vs first replay",
                    f.output_digest,
                    r.output_digest,
                ),
            ),
        }
    }
    let Some(first) = first else {
        return report.gate("serve", Err("every serve_trace call failed".into()));
    };
    let wall: f64 = walls.iter().sum();
    let t = tail(&walls).expect("at least MIN_STEPS replays");
    report.set(
        "setup_s",
        setup_s,
        format!(
            "dataset + clustering + engine + warm-up + snapshot + probe, median of {}",
            train::SETUPS
        ),
    );
    report.set(
        "host_throughput_per_s",
        completed as f64 / wall,
        "serve_host_rps",
    );
    report.info(format!(
        "serve_trace_p50_s {} (measured): median serve_trace wall per replay of the \
         {REQUESTS}-request trace, {} replays",
        median(&walls),
        walls.len()
    ));
    report.set(
        "host_step_tail_s",
        t.value,
        format!("same, p{:.1} of {} replays", t.percentile, t.n),
    );
    report.set(
        "micro_batches_per_step",
        first.num_micro_batches as f64 / first.num_batches as f64,
        "micro_batches_per_dispatch",
    );
    report.set(
        "modelled_mean_ms",
        1e3 * first.latency.mean,
        "mean modelled request latency",
    );
    let latencies: Vec<f64> = first.requests.iter().map(|q| q.latency).collect();
    if let Some(lt) = tail(&latencies) {
        report.info(format!(
            "modelled request latency ms: serve_p50_ms {}, serve_p99_ms {}, p{:.2} {} of {} requests (modelled)",
            1e3 * first.latency.p50,
            1e3 * first.latency.p99,
            lt.percentile,
            1e3 * lt.value,
            lt.n
        ));
    }
    let max_rate = ladder(&s, &cost, report);
    report.set(
        "modelled_max_rate_per_s",
        max_rate,
        format!("serve_max_rate_rps: p99 <= {:.0} ms", 1e3 * P99_LIMIT_S),
    );
    report.info(format!(
        "serve: {} dispatches, {} micro-batches, budget {} B",
        first.num_batches, first.num_micro_batches, s.budget
    ));
    report.info(format!(
        "failed_frac {} (count): {} failed of {} offered",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.info(format!("answers: {:016x}", first.answer_digest));
}

/// Serves a trace at each ladder rate and returns the highest rate whose
/// modelled p99 meets [`P99_LIMIT_S`], interpolated linearly between the
/// last rate that meets it and the first that does not.
fn ladder(s: &Setup, cost: &CostModel, report: &mut Report) -> f64 {
    let device = DeviceMemory::new(s.budget);
    let mut points: Vec<(f64, f64)> = Vec::new();
    let (mut rate, top, step) = LADDER;
    // Rates above the first one that misses the limit cannot be needed.
    while rate <= top && points.last().is_none_or(|&(_, p99)| p99 <= P99_LIMIT_S) {
        let trace = RequestTrace::poisson(REQUESTS, rate, s.ds.graph.num_nodes(), s.trace.seed)
            .expect("valid trace parameters");
        match serve_trace(&s.engine, &s.ds, &device, cost, &trace, &serve_config()) {
            Ok(r) => points.push((rate, r.latency.p99)),
            Err(e) => {
                report.info(format!("ladder rate {rate}: {e}"));
                points.push((rate, f64::INFINITY));
            }
        }
        rate += step;
    }
    report.info(format!(
        "ladder p99 ms: {}",
        points
            .iter()
            .map(|(r, p)| format!("{r:.0}/s {:.1}", 1e3 * p))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    max_rate(&points, P99_LIMIT_S)
}

/// The interpolated highest rate meeting `limit` on `(rate, p99)` points
/// in increasing rate order.
pub fn max_rate(points: &[(f64, f64)], limit: f64) -> f64 {
    match points.iter().position(|&(_, p)| p > limit) {
        None => points.last().map_or(0.0, |&(r, _)| r),
        Some(0) => points[0].0 * limit / points[0].1,
        Some(i) => {
            let ((r0, p0), (r1, p1)) = (points[i - 1], points[i]);
            if p1.is_finite() {
                r0 + (r1 - r0) * (limit - p0) / (p1 - p0)
            } else {
                r0
            }
        }
    }
}

/// Splits a report's completed requests into its dispatches: members of
/// one dispatch share a completion time, and dispatches complete at least
/// one service time apart.
fn dispatch_groups(r: &ServeReport) -> Vec<&[buffalo_core::serve::ServedRequest]> {
    let mut groups = Vec::new();
    let mut start = 0;
    let done = |i: usize| r.requests[i].arrival + r.requests[i].latency;
    for i in 1..=r.requests.len() {
        if i == r.requests.len() || (done(i) - done(i - 1)).abs() > 1e-9 * done(i).max(1.0) {
            groups.push(&r.requests[start..i]);
            start = i;
        }
    }
    groups
}

/// Deterministic argmax, ties to the lower class, as the engine's.
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0;
    for (j, &x) in row.iter().enumerate().skip(1) {
        if x > row[best] {
            best = j;
        }
    }
    best as u32
}

/// Replays one dispatch's query set: isolated sampling → schedule →
/// restrict → generate → gather → forward. Returns each queried node's
/// class.
fn replay_dispatch(
    s: &Setup,
    scheduler: &BuffaloScheduler,
    nodes: &[NodeId],
    device: &dyn Device,
    rec: &mut Recorder,
    acc: &mut Layers,
) -> Result<BTreeMap<NodeId, u32>, String> {
    let engine = &s.engine;
    let shape = &engine.config().shape;
    let cost = CostModel::rtx6000();
    let mut seeds = nodes.to_vec();
    seeds.sort_unstable();
    seeds.dedup();
    let sampler = BatchSampler::new(engine.config().fanouts.clone());
    let batch = rec.time("sampling.sample", || {
        sampler.sample_isolated(&s.ds.graph, &seeds, s.trace.seed)
    });
    acc.sample_edges += batch.num_edges() as f64;
    acc.seeds += batch.num_seeds as f64;
    let constraint = HeadroomCalibrator::default().constrain(device.schedule_budget());
    let plan = rec
        .time("bucketing.schedule", || {
            scheduler.schedule(&batch.graph, batch.num_seeds, constraint)
        })
        .map_err(|e| e.to_string())?;
    acc.plan(&plan.groups, plan.imbalance());
    let mut classes = BTreeMap::new();
    let mut inputs = Vec::new();
    let mut peak = 0u64;
    for (i, group) in plan.groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let p = train::prepare(&s.ds, &batch, group, shape, rec);
        let blocks = p.blocks.blocks();
        acc.micro_batch(blocks, shape, p.features.len(), p.labels.len());
        acc.estimate(plan.group_estimates.get(i).copied(), blocks, shape);
        acc.compute_s += cost.inference_seconds(blocks, shape);
        acc.transfer_s += cost.transfer_seconds(measure::transfer_bytes(blocks, shape) as f64);
        peak = peak.max(measure::training_memory(blocks, shape).total());
        let dim = s.ds.spec.feat_dim;
        let feats = Tensor::from_vec(p.features.len() / dim, dim, p.features);
        let (logits, _cache) =
            rec.time("models.forward", || engine.model().forward(blocks, &feats));
        let k = logits.cols();
        for (row, &node) in p.outputs.iter().enumerate() {
            classes.insert(node, argmax(&logits.data()[row * k..(row + 1) * k]));
        }
        inputs.push(p.inputs);
    }
    acc.redundancy(&inputs);
    acc.peak(peak, s.budget);
    Ok(classes)
}

/// The traced run: per-layer metrics. The warm-up iterations run beside a
/// training replica; each `serve_trace` call runs untraced inside one
/// span, then every dispatch is replayed through the layers and its
/// classes checked against the report.
pub fn run_traced(args: &Args, out: &Path, report: &mut Report) {
    let mut rec = Recorder::default();
    let mut acc = Layers::default();
    let mut warm_trail = (Vec::new(), Vec::new());
    let mut replica_error = None;
    let s = setup(args.seed, &mut |engine, ds, batch, clustering| {
        let mut replica = Replica::new(engine.config(), clustering);
        let roomy = DeviceMemory::with_gib(24.0);
        let mut warm_acc = Layers::default();
        for i in 0..WARMUP_ITERS {
            rec.set_step(i as u64);
            let stats = rec
                .time("engine.train_iteration", || {
                    engine.train_iteration(ds, batch, &roomy, &CostModel::rtx6000())
                })
                .expect("warm-up fits a roomy device");
            warm_trail.0.push(stats.loss);
            let id = rec.open("replica.iteration");
            match replica.train(ds, batch, roomy.schedule_budget(), &mut rec, &mut warm_acc) {
                Ok(l) => warm_trail.1.push(l),
                Err(e) => replica_error = Some(e),
            }
            rec.close(id);
        }
        let mut ckpt = checkpoints(out, engine, ds);
        rec.time("checkpoint.save", || ckpt.save(engine, &roomy, &[]))
    });
    if let Some(e) = replica_error {
        report.gate("replica", Err(e));
    }
    report.gate(
        "replica-loss-bits",
        gates::check_same_bits("warm-up engine vs replica", &warm_trail.0, &warm_trail.1),
    );
    report.gate("finite-loss", gates::check_finite(&warm_trail.0));
    acc.checkpoint(s.checkpoint_bytes);
    let device = DeviceMemory::new(s.budget);
    let cost = CostModel::rtx6000();
    let scheduler = BuffaloScheduler::new(
        s.engine.config().shape.clone(),
        s.engine.config().fanouts.clone(),
        s.clustering,
    );
    let first_step = WARMUP_ITERS as u64;
    let mut step = first_step;
    let mut calls = 0usize;
    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    while calls == 0 || t_run.elapsed() < budget {
        calls += 1;
        rec.set_step(step);
        let r = rec.time("engine.serve_trace", || {
            serve_trace(&s.engine, &s.ds, &device, &cost, &s.trace, &serve_config())
        });
        report.attempted += REQUESTS as u64;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                report.failed += REQUESTS as u64;
                report.gate("serve", Err(e.to_string()));
                break;
            }
        };
        report.failed += (r.shed.len() + r.deadline_missed.len()) as u64;
        check_report(&r, report);
        let groups = dispatch_groups(&r);
        if groups.len() != r.num_batches {
            report.gate(
                "dispatch-groups",
                Err(format!(
                    "{} groups, {} dispatches",
                    groups.len(),
                    r.num_batches
                )),
            );
            break;
        }
        let mut replayed = Vec::with_capacity(r.requests.len());
        for group in groups {
            step += 1;
            rec.set_step(step);
            let nodes: Vec<NodeId> = group.iter().map(|q| q.node).collect();
            let id = rec.open("replica.dispatch");
            let classes = replay_dispatch(&s, &scheduler, &nodes, &device, &mut rec, &mut acc);
            rec.close(id);
            acc.steps += 1.0;
            match classes {
                Ok(c) => replayed.extend(
                    group
                        .iter()
                        .map(|q| (q.index, q.node, c.get(&q.node).copied().unwrap_or(u32::MAX))),
                ),
                Err(e) => report.gate("replay", Err(e)),
            }
        }
        report.gate(
            "replayed-classes",
            gates::check_answers(&answers(&r), &replayed),
        );
        report.gate(
            "replayed-digest",
            gates::check_digest(
                "report vs replay",
                r.answer_digest,
                gates::answer_digest(&replayed),
            ),
        );
        if calls == 1 {
            report.info(format!("answers: {:016x}", r.answer_digest));
        }
        step += 1;
    }
    report.info(format!("{calls} serve_trace calls traced"));
    crate::finish_traced(
        "arxiv-serve",
        &rec,
        &acc,
        ("engine.serve_trace", "replica.dispatch", first_step),
        out,
        report,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_between_ladder_steps() {
        let pts = [(128.0, 0.1), (256.0, 0.2), (384.0, 0.4)];
        assert_eq!(max_rate(&pts, 0.3), 320.0);
        assert_eq!(max_rate(&pts, 0.5), 384.0, "every rate meets the limit");
        assert_eq!(max_rate(&pts, 0.05), 64.0, "no rate meets the limit");
        let pts = [(128.0, 0.1), (256.0, f64::INFINITY)];
        assert_eq!(max_rate(&pts, 0.3), 128.0);
    }
}
