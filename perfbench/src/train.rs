//! The training workloads: `Engine::train_iteration` driven by an epoch
//! loop, and, in the traced run, a replica of the same iteration made of
//! the layers' entry points.

use crate::gates;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::{Args, Layers};
use buffalo_blocks::{GenerateOptions, PreparedBlocks};
use buffalo_bucketing::BuffaloScheduler;
use buffalo_core::checkpoint::{config_fingerprint, CheckpointRing, TrainSnapshot};
use buffalo_core::models::GnnModel;
use buffalo_core::train::{Engine, EpochConfig, HeadroomCalibrator, IterationStats, TrainConfig};
use buffalo_graph::datasets::{self, Dataset, DatasetName};
use buffalo_graph::{stats as graph_stats, NodeId};
use buffalo_memsim::{AggregatorKind, CostModel, Device, DeviceMemory, GnnShape};
use buffalo_par::Parallelism;
use buffalo_sampling::{Batch, BatchSampler, SeedBatches};
use buffalo_tensor::{softmax_cross_entropy, Adam, Optimizer, Tensor};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Seed of the cora golden run (`tests/golden/cora_epochs2_bits.txt`):
/// `buffalo train cora --epochs 2 --budget 12M` shuffles with epoch seed 5.
pub const GOLDEN_SEED: u64 = 5;
const GOLDEN: &str = include_str!("../../tests/golden/cora_epochs2_bits.txt");

/// Dataset generation seed and model initialization seed of the CLI.
const DATASET_SEED: u64 = 42;
const MODEL_SEED: u64 = 17;
const LR: f32 = 0.01;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest measured steps: with ten samples beyond it, the tail
/// percentile is then at least the median.
pub const MIN_STEPS: usize = 20;

/// One training workload's configuration.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Workload name.
    pub name: &'static str,
    /// Dataset stand-in.
    pub dataset: DatasetName,
    /// Hidden width.
    pub hidden: usize,
    /// Fanouts, output layer first.
    pub fanouts: Vec<usize>,
    /// Seeds per iteration.
    pub batch_size: usize,
    /// Training nodes the epoch loop shuffles and chunks.
    pub train_nodes: usize,
    /// Simulated device budget, bytes.
    pub budget: u64,
    /// Kernel threads.
    pub threads: usize,
    /// A checkpoint snapshot every this many iterations.
    pub checkpoint_every: u64,
    /// The shuffle and sampling seed when it must not follow the
    /// workload seed.
    pub fixed_seed: Option<u64>,
}

impl TrainSpec {
    /// The epoch loop's shuffle and sampling seed for workload `seed`.
    pub fn stream_seed(&self, seed: u64) -> u64 {
        self.fixed_seed.unwrap_or(seed)
    }
}

const MIB: u64 = 1 << 20;

/// `cora-saturating`: the cora golden configuration, run past the loss
/// collapse, where backward stalls on subnormals.
///
/// Its inputs are the golden run's at every workload seed. Which
/// iterations stall, and how badly, is a chaotic function of the training
/// trajectory: on a 2-vCPU x86-64 host, over eight other shuffle seeds the
/// first 20 iterations took 7.3 to 25.9 s, so a seed-dependent trajectory
/// would bury any kernel change under seed noise.
pub fn cora_saturating(nproc: usize) -> TrainSpec {
    TrainSpec {
        name: "cora-saturating",
        dataset: DatasetName::Cora,
        hidden: 32,
        fanouts: vec![5, 10],
        batch_size: 256,
        // The CLI's split: a quarter of the nodes, within [batch, 2048].
        train_nodes: (2_708 / 4usize).clamp(256, 2_048),
        budget: 12 * MIB,
        threads: nproc.clamp(1, 2),
        checkpoint_every: 8,
        fixed_seed: Some(GOLDEN_SEED),
    }
}

/// `products-tight`: big batches under a budget that splits each into
/// about a dozen micro-batches.
pub fn products_tight() -> TrainSpec {
    TrainSpec {
        name: "products-tight",
        dataset: DatasetName::OgbnProducts,
        hidden: 32,
        fanouts: vec![10, 25],
        batch_size: 2_048,
        train_nodes: 16_384,
        budget: 32 * MIB,
        threads: 1,
        checkpoint_every: 4,
        fixed_seed: None,
    }
}

/// What one set-up builds.
pub struct Setup {
    /// The dataset.
    pub ds: Dataset,
    /// Its sampled average clustering coefficient.
    pub clustering: f64,
    /// A fresh engine.
    pub engine: Engine,
}

/// Dataset + clustering estimate + engine.
pub fn setup(spec: &TrainSpec) -> Setup {
    let ds = datasets::load(spec.dataset, DATASET_SEED);
    let clustering = graph_stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let engine = Engine::buffalo(train_config(spec, &ds), clustering);
    Setup {
        ds,
        clustering,
        engine,
    }
}

fn train_config(spec: &TrainSpec, ds: &Dataset) -> TrainConfig {
    TrainConfig {
        shape: GnnShape::new(
            ds.spec.feat_dim,
            spec.hidden,
            spec.fanouts.len(),
            ds.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: spec.fanouts.clone(),
        lr: LR,
        seed: MODEL_SEED,
        parallelism: Parallelism::with_threads(spec.threads),
    }
}

/// Times [`SETUPS`] set-ups and keeps the last.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The epoch loop of `run_epochs`: shuffle seed `seed ^ epoch·φ`,
/// sampling seed `seed + i` for the epoch's `i`-th batch.
pub struct EpochStream {
    train_nodes: usize,
    batch_size: usize,
    seed: u64,
    epoch: u64,
    next: usize,
    batches: SeedBatches,
}

impl EpochStream {
    /// Starts at epoch 0.
    pub fn new(train_nodes: usize, batch_size: usize, seed: u64) -> Self {
        EpochStream {
            train_nodes,
            batch_size,
            seed,
            epoch: 0,
            next: 0,
            batches: SeedBatches::new(train_nodes, batch_size, seed),
        }
    }

    /// The next batch's seed nodes and sampling seed.
    pub fn next_batch(&mut self) -> (Vec<NodeId>, u64) {
        if self.next == self.batches.num_batches() {
            self.epoch += 1;
            self.next = 0;
            self.batches = SeedBatches::new(
                self.train_nodes,
                self.batch_size,
                self.seed ^ self.epoch.wrapping_mul(0x9E37_79B9),
            );
        }
        let i = self.next;
        self.next += 1;
        (self.batches.batch(i).to_vec(), self.seed + i as u64)
    }
}

/// A checkpoint ring in a temporary directory under `out/`, removed on drop.
pub struct Checkpoints {
    ring: CheckpointRing,
    dir: PathBuf,
    fingerprint: u64,
}

impl Checkpoints {
    /// A ring of two snapshots for an engine with `cfg`, trained on
    /// `batch_size`-seed batches drawn from `train_nodes` nodes.
    pub fn create(
        out: &Path,
        workload: &str,
        cfg: &TrainConfig,
        batch_size: usize,
        train_nodes: usize,
    ) -> Self {
        let dir = out.join(format!("ckpt-{workload}-{}", std::process::id()));
        let ring = CheckpointRing::create(&dir, 2).expect("checkpoint directory is writable");
        let epoch_cfg = EpochConfig {
            batch_size,
            epochs: usize::MAX,
            train_nodes,
            eval_nodes: 0,
            seed: 0,
        };
        Checkpoints {
            ring,
            dir,
            fingerprint: config_fingerprint(cfg, &epoch_cfg),
        }
    }

    /// Captures the engine and writes a snapshot; returns its size.
    pub fn save(&mut self, engine: &mut Engine, device: &dyn Device, trail: &[f32]) -> u64 {
        let snap = TrainSnapshot {
            config_hash: self.fingerprint,
            epoch: 0,
            epoch_iter: trail.len() as u64,
            global_iter: trail.len() as u64,
            device_allocs: device.per_device_alloc_calls(),
            dead_devices: device.dead_devices(),
            rollbacks: 0,
            epoch_loss_sum: trail.iter().map(|&l| l as f64).sum(),
            epoch_acc_sum: 0.0,
            loss_trail: trail.to_vec(),
            trainer: engine.capture_state(),
        };
        let path = self.ring.save(&snap).expect("checkpoint write succeeds");
        std::fs::metadata(path).map_or(0, |m| m.len())
    }
}

impl Drop for Checkpoints {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &TrainSpec, args: &Args, out: &Path, report: &mut Report) {
    let (s, setup_s) = timed_setup(|| setup(spec));
    let Setup { ds, mut engine, .. } = s;
    let device = DeviceMemory::new(spec.budget);
    let cost = CostModel::rtx6000();
    let sampler = BatchSampler::new(spec.fanouts.clone());
    let mut stream = EpochStream::new(
        spec.train_nodes,
        spec.batch_size,
        spec.stream_seed(args.seed),
    );
    let mut ckpt = Checkpoints::create(
        out,
        spec.name,
        engine.config(),
        spec.batch_size,
        spec.train_nodes,
    );
    let mut trail: Vec<f32> = Vec::new();
    let (mut walls, mut modelled, mut micro) = (Vec::new(), Vec::new(), Vec::new());
    let mut seeds = 0usize;
    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    while walls.len() < MIN_STEPS || t_run.elapsed() < budget {
        let t0 = Instant::now();
        let (nodes, sample_seed) = stream.next_batch();
        let batch = sampler.sample(&ds.graph, &nodes, sample_seed);
        report.attempted += 1;
        match engine.train_iteration(&ds, &batch, &device, &cost) {
            Ok(stats) => {
                trail.push(stats.loss);
                seeds += batch.num_seeds;
                modelled.push(modelled_seconds(&stats));
                micro.push(stats.num_micro_batches as f64);
            }
            Err(e) => {
                report.failed += 1;
                report.info(format!("iteration {} failed: {e}", walls.len()));
            }
        }
        if (walls.len() as u64 + 1).is_multiple_of(spec.checkpoint_every) {
            ckpt.save(&mut engine, &device, &trail);
        }
        walls.push(t0.elapsed().as_secs_f64());
    }
    let wall: f64 = walls.iter().sum();
    let t = tail(&walls).expect("at least MIN_STEPS iterations");
    report.set(
        "setup_s",
        setup_s,
        format!("dataset + clustering + engine, median of {SETUPS}"),
    );
    report.set(
        "host_throughput_per_s",
        seeds as f64 / wall,
        "train_seeds_per_s",
    );
    report.info(format!(
        "iter_p50_s {} (measured): median of {} iterations",
        median(&walls),
        walls.len()
    ));
    report.set(
        "host_step_tail_s",
        t.value,
        format!("iter_tail_s: p{:.1} of {} iterations", t.percentile, t.n),
    );
    finish_modelled(report, &modelled, &micro, seeds);
    report.info(format!(
        "iterations {}, wall {wall:.3}s, last loss {:e}",
        walls.len(),
        trail.last().copied().unwrap_or(f32::NAN)
    ));
    report.info(format!(
        "failed_frac {} (count): {} failed of {} attempted",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    train_gates(spec, &trail, report);
}

fn modelled_seconds(stats: &IterationStats) -> f64 {
    stats.timings.sim_compute_seconds + stats.timings.sim_transfer_seconds
}

fn finish_modelled(report: &mut Report, modelled: &[f64], micro: &[f64], seeds: usize) {
    if modelled.is_empty() {
        return;
    }
    let n = modelled.len() as f64;
    let total: f64 = modelled.iter().sum();
    report.set(
        "micro_batches_per_step",
        micro.iter().sum::<f64>() / n,
        "micro_batches_per_iter",
    );
    report.set(
        "modelled_mean_ms",
        1e3 * total / n,
        "modelled_device_s_per_iter: sim_compute + sim_transfer, mean",
    );
    report.set(
        "modelled_max_rate_per_s",
        seeds as f64 / total,
        "seeds per modelled device second",
    );
    if let Some(t) = tail(modelled) {
        report.info(format!(
            "modelled device ms per iteration: p50 {}, p{:.1} {} of {} iterations (modelled)",
            1e3 * median(modelled),
            t.percentile,
            1e3 * t.value,
            t.n
        ));
    }
}

/// Golden prefix, finite losses, and the trail digest.
fn train_gates(spec: &TrainSpec, trail: &[f32], report: &mut Report) {
    report.gate("finite-loss", gates::check_finite(trail));
    // Over a prefix every run reaches, so runs of any length compare.
    let prefix = &trail[..trail.len().min(MIN_STEPS)];
    report.info(format!(
        "loss-trail-digest {:016x} over the first {} iterations",
        gates::trail_digest(prefix),
        prefix.len()
    ));
    if spec.dataset != DatasetName::Cora {
        return;
    }
    let golden = match gates::golden_trail(GOLDEN) {
        Ok(g) => g,
        Err(e) => return report.gate("cora-golden", Err(e)),
    };
    // The measured run is the golden run: its trail must start with the
    // golden bits.
    report.gate("cora-golden", gates::check_golden(trail, &golden));
}

/// The engine's iteration rebuilt from the layers' public entry points:
/// schedule → restrict → generate → gather → forward → loss → backward →
/// step, on its own identically seeded model and optimizer.
pub struct Replica {
    model: GnnModel,
    opt: Adam,
    scheduler: BuffaloScheduler,
    shape: GnnShape,
}

impl Replica {
    /// A replica of a freshly built engine with `config`.
    pub fn new(config: &TrainConfig, clustering: f64) -> Self {
        Replica {
            model: GnnModel::for_shape(&config.shape, config.seed),
            opt: Adam::new(config.lr),
            scheduler: BuffaloScheduler::new(
                config.shape.clone(),
                config.fanouts.clone(),
                clustering,
            ),
            shape: config.shape.clone(),
        }
    }

    /// One traced training iteration; returns the loss.
    pub fn train(
        &mut self,
        ds: &Dataset,
        batch: &Batch,
        budget: u64,
        rec: &mut Recorder,
        acc: &mut Layers,
    ) -> Result<f32, String> {
        let constraint = HeadroomCalibrator::default().constrain(budget);
        let plan = rec
            .time("bucketing.schedule", || {
                self.scheduler
                    .schedule(&batch.graph, batch.num_seeds, constraint)
            })
            .map_err(|e| e.to_string())?;
        acc.plan(&plan.groups, plan.imbalance());
        self.model.zero_grad();
        let mut loss_sum = 0.0f64;
        let mut inputs = Vec::new();
        for (i, group) in plan.groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let p = prepare(ds, batch, group, &self.shape, rec);
            let (blocks, labels) = (p.blocks.blocks(), &p.labels);
            acc.micro_batch(blocks, &self.shape, p.features.len(), labels.len());
            acc.estimate(plan.group_estimates.get(i).copied(), blocks, &self.shape);
            inputs.push(p.inputs);
            let dim = ds.spec.feat_dim;
            let feats = Tensor::from_vec(p.features.len() / dim, dim, p.features);
            let (logits, cache) = rec.time("models.forward", || self.model.forward(blocks, &feats));
            let out = rec.time("models.loss", || {
                softmax_cross_entropy(&logits, labels, Some(batch.num_seeds))
            });
            rec.time("models.backward", || {
                self.model.backward(blocks, &cache, &out.dlogits)
            });
            loss_sum += out.loss as f64 * labels.len() as f64;
        }
        acc.redundancy(&inputs);
        let model = &mut self.model;
        let opt = &mut self.opt;
        rec.time("optim.step", || opt.step(&mut model.params_mut()));
        Ok((loss_sum / batch.num_seeds as f64) as f32)
    }
}

/// One micro-batch after the Prepare stage.
pub struct Prepared {
    /// Generated blocks.
    pub blocks: PreparedBlocks,
    /// Gathered input features, row-major.
    pub features: Vec<f32>,
    /// Labels of the output nodes.
    pub labels: Vec<u32>,
    /// Dataset ids of the input nodes.
    pub inputs: Vec<NodeId>,
    /// Dataset ids of the output nodes.
    pub outputs: Vec<NodeId>,
}

/// Restrict → generate → gather for one micro-batch, as the engine's
/// Prepare stage does it.
pub fn prepare(
    ds: &Dataset,
    batch: &Batch,
    group: &[NodeId],
    shape: &GnnShape,
    rec: &mut Recorder,
) -> Prepared {
    let micro = rec.time("blocks.restrict", || batch.restrict_to_seeds(group));
    let prepared = rec.time("blocks.generate", || {
        PreparedBlocks::generate(
            &micro.graph,
            micro.num_seeds,
            shape.num_layers,
            GenerateOptions::default(),
        )
    });
    let global = |locals: &[NodeId]| -> Vec<NodeId> {
        locals
            .iter()
            .map(|&l| micro.global_ids[l as usize])
            .collect()
    };
    let (features, labels, inputs, outputs) = rec.time("graph.gather", || {
        let inputs = global(prepared.input_srcs());
        let mut features = vec![0.0f32; inputs.len() * ds.spec.feat_dim];
        ds.gather_features(&inputs, &mut features);
        let outputs = global(prepared.output_dsts());
        let labels: Vec<u32> = outputs.iter().map(|&n| ds.label(n)).collect();
        (features, labels, inputs, outputs)
    });
    Prepared {
        blocks: prepared,
        features,
        labels,
        inputs,
        outputs,
    }
}

/// The traced run: per-layer metrics. Each iteration runs
/// `Engine::train_iteration` untraced inside one span, then the replica
/// on the same batch; their losses must agree bit for bit.
pub fn run_traced(spec: &TrainSpec, args: &Args, out: &Path, report: &mut Report) {
    let Setup {
        ds,
        clustering,
        mut engine,
    } = setup(spec);
    let mut replica = Replica::new(engine.config(), clustering);
    let device = DeviceMemory::new(spec.budget);
    let cost = CostModel::rtx6000();
    let sampler = BatchSampler::new(spec.fanouts.clone());
    let mut stream = EpochStream::new(
        spec.train_nodes,
        spec.batch_size,
        spec.stream_seed(args.seed),
    );
    let mut ckpt = Checkpoints::create(
        out,
        spec.name,
        engine.config(),
        spec.batch_size,
        spec.train_nodes,
    );
    let mut rec = Recorder::default();
    let mut acc = Layers::default();
    let (mut trail, mut replica_trail) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    let mut step = 0u64;
    while (step as usize) < MIN_STEPS || t_run.elapsed() < budget {
        rec.set_step(step);
        let outer = rec.open("bench.step");
        let (nodes, sample_seed) = stream.next_batch();
        let batch = rec.time("sampling.sample", || {
            sampler.sample(&ds.graph, &nodes, sample_seed)
        });
        acc.sample_edges += batch.num_edges() as f64;
        acc.seeds += batch.num_seeds as f64;
        report.attempted += 1;
        let stats = rec.time("engine.train_iteration", || {
            engine.train_iteration(&ds, &batch, &device, &cost)
        });
        match stats {
            Ok(stats) => {
                trail.push(stats.loss);
                acc.engine_step(&stats, spec.budget);
                let id = rec.open("replica.iteration");
                let r = replica.train(&ds, &batch, device.schedule_budget(), &mut rec, &mut acc);
                rec.close(id);
                match r {
                    Ok(loss) => replica_trail.push(loss),
                    Err(e) => report.gate("replica", Err(e)),
                }
            }
            Err(e) => {
                report.failed += 1;
                report.info(format!("iteration {step} failed: {e}"));
            }
        }
        if (step + 1).is_multiple_of(spec.checkpoint_every) {
            let bytes = rec.time("checkpoint.save", || {
                ckpt.save(&mut engine, &device, &trail)
            });
            acc.checkpoint(bytes);
        }
        rec.close(outer);
        step += 1;
    }
    acc.steps = step as f64;
    report.gate(
        "replica-loss-bits",
        gates::check_same_bits("engine vs replica", &trail, &replica_trail),
    );
    train_gates(spec, &trail, report);
    crate::finish_traced(
        spec.name,
        &rec,
        &acc,
        ("engine.train_iteration", "replica.iteration", 0),
        out,
        report,
    );
}
