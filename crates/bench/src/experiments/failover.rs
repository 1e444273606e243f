//! Elastic multi-device failover experiment, written to
//! `BENCH_failover.json`.
//!
//! Trains the same workload over device pools of 2 and 4 members while
//! killing 0, 1, 2, or all members mid-run with `lose:` faults. For each
//! scenario we record the completion rate (iterations that produced a
//! gradient step), the failover activity (`DeviceLost` events, the
//! iteration the loss landed in), the re-shard latency (extra wall time
//! of the failover iteration over the pre-loss mean), the pre- and
//! post-loss throughput, the per-member allocation counts, and — the
//! headline determinism claim — whether the per-iteration loss trail is
//! bitwise identical to the fault-free run on the same pool size.
//! Failover is pure re-routing of an in-order Execute stage, so every
//! survivable scenario must reproduce the baseline losses exactly; the
//! lose-all scenario is the honest failure floor (recovery exhausts, the
//! remaining iterations contribute nothing).
//!
//! The `at_alloc` fire points are derived from each pool's fault-free
//! baseline (a fraction of the victim's total allocation count), so the
//! loss always lands mid-run regardless of workload size.

use crate::context::load_workload;
use crate::output::Table;
use buffalo_core::train::{DevicePool, Engine, RecoveryAction, RecoveryPolicy, TrainConfig};
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel, Device, DeviceMemory, FaultPlan, GnnShape};
use std::time::Instant;

const FANOUTS: [usize; 2] = [5, 10];
const MAX_GPUS: usize = 4;

struct Scenario {
    name: &'static str,
    gpus: usize,
    /// Member indices to kill, paired with the fraction of the victim's
    /// fault-free allocation count at which the loss fires.
    losses: &'static [(usize, f64)],
}

struct Outcome {
    name: String,
    gpus: usize,
    lost: usize,
    iterations: usize,
    completed: usize,
    device_lost_events: usize,
    /// Iteration index (0-based) of the first `DeviceLost` event.
    failover_iter: Option<usize>,
    iter_walls: Vec<f64>,
    losses: Vec<f32>,
    per_device_allocs: Vec<u64>,
    dead: Vec<usize>,
}

impl Outcome {
    fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.iterations.max(1) as f64
    }

    /// Extra wall seconds the failover iteration took over the mean of
    /// the iterations before it — the observable cost of marking the
    /// device dead, re-routing, and replaying the in-flight micro-batch.
    /// Wall-clock telemetry: noisy on a loaded machine, zero when the
    /// loss landed in iteration 0 (no pre-loss mean to compare against).
    fn reshard_latency_s(&self) -> f64 {
        let Some(at) = self.failover_iter else {
            return 0.0;
        };
        if at == 0 || at >= self.iter_walls.len() {
            return 0.0;
        }
        let pre_mean = self.iter_walls[..at].iter().sum::<f64>() / at as f64;
        (self.iter_walls[at] - pre_mean).max(0.0)
    }

    /// Iterations per second over `range` of the wall list.
    fn throughput(&self, walls: &[f64]) -> f64 {
        let total: f64 = walls.iter().sum();
        if total > 0.0 {
            walls.len() as f64 / total
        } else {
            0.0
        }
    }

    fn pre_loss_throughput(&self) -> f64 {
        match self.failover_iter {
            Some(at) if at > 0 => self.throughput(&self.iter_walls[..at]),
            _ => self.throughput(&self.iter_walls),
        }
    }

    fn post_loss_throughput(&self) -> f64 {
        match self.failover_iter {
            // Skip the failover iteration itself: it pays the re-shard
            // cost, which reshard_latency_s reports separately.
            Some(at) if at + 1 < self.iter_walls.len() => {
                self.throughput(&self.iter_walls[at + 1..])
            }
            _ => 0.0,
        }
    }
}

fn run_scenario(
    sc: &Scenario,
    spec: &str,
    iters: usize,
    config: &TrainConfig,
    w: &crate::context::Workload,
    budget: u64,
    cost: &CostModel,
) -> Outcome {
    let plan = if spec.is_empty() {
        FaultPlan::none()
    } else {
        FaultPlan::parse(spec).expect("scenario fault spec parses")
    };
    let pool = DevicePool::homogeneous(sc.gpus, budget, &plan).expect("non-empty pool");
    let mut trainer = Engine::buffalo(config.clone(), w.clustering).with_recovery(RecoveryPolicy {
        max_retries: 8,
        ..RecoveryPolicy::default()
    });
    let mut out = Outcome {
        name: sc.name.to_string(),
        gpus: sc.gpus,
        lost: sc.losses.len(),
        iterations: iters,
        completed: 0,
        device_lost_events: 0,
        failover_iter: None,
        iter_walls: Vec::with_capacity(iters),
        losses: Vec::with_capacity(iters),
        per_device_allocs: Vec::new(),
        dead: Vec::new(),
    };
    for i in 0..iters {
        let t = Instant::now();
        match trainer.train_iteration(&w.dataset, &w.batch, &pool, cost) {
            Ok(stats) => {
                out.completed += 1;
                out.losses.push(stats.loss);
                for ev in &stats.recovery {
                    if matches!(ev.action, RecoveryAction::DeviceLost { .. }) {
                        out.device_lost_events += 1;
                        out.failover_iter.get_or_insert(i);
                    }
                }
            }
            Err(e) => {
                // No gradient step; keep going so the completion rate
                // reflects how often the pool could not recover.
                eprintln!("  [{}] iteration failed: {e}", sc.name);
            }
        }
        out.iter_walls.push(t.elapsed().as_secs_f64());
    }
    out.per_device_allocs = pool.per_device_alloc_calls();
    out.dead = pool.dead();
    out
}

/// Runs the device-loss failover sweep; with `write_bench` it also
/// rewrites `BENCH_failover.json`.
pub fn failover(quick: bool, write_bench: bool) {
    let w = load_workload(DatasetName::Cora, quick);
    let cost = CostModel::rtx6000();
    let iters = if quick { 6 } else { 12 };
    let config = TrainConfig {
        shape: GnnShape::new(
            w.dataset.spec.feat_dim,
            32,
            2,
            w.dataset.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: FANOUTS.to_vec(),
        lr: 0.01,
        seed: 17,
        parallelism: buffalo_par::Parallelism::auto(),
    };
    // Probe the whole-batch footprint, then give every pool member a
    // budget that forces several micro-batches, so the round-robin has
    // real work to shard.
    let mut probe = Engine::buffalo(config.clone(), w.clustering);
    let big = DeviceMemory::new(u64::MAX);
    let whole = probe
        .train_iteration(&w.dataset, &w.batch, &big, &cost)
        .expect("unlimited device");
    let budget = (whole.peak_mem_bytes * 3 / 5).max(1);

    let scenarios = [
        Scenario {
            name: "2gpu-fault-free",
            gpus: 2,
            losses: &[],
        },
        Scenario {
            name: "2gpu-lose-1",
            gpus: 2,
            losses: &[(1, 0.34)],
        },
        Scenario {
            name: "2gpu-lose-all",
            gpus: 2,
            losses: &[(0, 0.55), (1, 0.34)],
        },
        Scenario {
            name: "4gpu-fault-free",
            gpus: 4,
            losses: &[],
        },
        Scenario {
            name: "4gpu-lose-1",
            gpus: 4,
            losses: &[(2, 0.34)],
        },
        Scenario {
            name: "4gpu-lose-2",
            gpus: 4,
            losses: &[(1, 0.25), (3, 0.55)],
        },
    ];

    // Fault-free baselines per pool size: the bitwise reference trail and
    // the per-member allocation counts the `lose:` fire points scale off.
    let mut baselines: Vec<Option<Outcome>> = (0..=MAX_GPUS).map(|_| None).collect();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        let spec = match baselines[sc.gpus].as_ref() {
            None => String::new(),
            Some(base) => sc
                .losses
                .iter()
                .map(|&(victim, frac)| {
                    let total = base.per_device_allocs.get(victim).copied().unwrap_or(0);
                    let at = ((total as f64 * frac) as u64).max(1);
                    format!("lose:{victim},{at}")
                })
                .collect::<Vec<_>>()
                .join(";"),
        };
        let out = run_scenario(sc, &spec, iters, &config, &w, budget, &cost);
        if sc.losses.is_empty() {
            baselines[sc.gpus] = Some(Outcome {
                name: out.name.clone(),
                iter_walls: out.iter_walls.clone(),
                losses: out.losses.clone(),
                per_device_allocs: out.per_device_allocs.clone(),
                dead: out.dead.clone(),
                ..out
            });
        }
        outcomes.push(out);
    }

    let mut t = Table::new([
        "scenario",
        "pool",
        "lost",
        "completed",
        "loss identical",
        "reshard s",
        "pre it/s",
        "post it/s",
        "allocs/device",
    ]);
    for o in &outcomes {
        let base_losses = baselines[o.gpus]
            .as_ref()
            .map(|b| b.losses.as_slice())
            .unwrap_or(&[]);
        t.row([
            o.name.clone(),
            o.gpus.to_string(),
            o.lost.to_string(),
            format!("{}/{}", o.completed, o.iterations),
            (o.losses == base_losses).to_string(),
            format!("{:.4}", o.reshard_latency_s()),
            format!("{:.2}", o.pre_loss_throughput()),
            if o.failover_iter.is_some() {
                format!("{:.2}", o.post_loss_throughput())
            } else {
                "-".into()
            },
            format!("{:?}", o.per_device_allocs),
        ]);
    }
    t.print();
    println!(
        "(per-device budget {budget} B = 60% of whole-batch peak; every \
         survivable loss scenario must be bitwise identical to its pool's \
         fault-free run; lose-all is the expected failure floor)"
    );

    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let base_losses = baselines[o.gpus]
                .as_ref()
                .map(|b| b.losses.as_slice())
                .unwrap_or(&[]);
            let allocs: Vec<String> = o.per_device_allocs.iter().map(u64::to_string).collect();
            let dead: Vec<String> = o.dead.iter().map(usize::to_string).collect();
            format!(
                "    {{\"scenario\": \"{}\", \"pool_size\": {}, \"devices_lost\": {}, \
                 \"device_loss_rate\": {:.4}, \"iterations\": {}, \"completed\": {}, \
                 \"completion_rate\": {:.4}, \"device_lost_events\": {}, \
                 \"failover_iteration\": {}, \"reshard_latency_s\": {:.6}, \
                 \"pre_loss_iters_per_s\": {:.4}, \"post_loss_iters_per_s\": {:.4}, \
                 \"loss_bitwise_identical_to_fault_free\": {}, \
                 \"per_device_allocs\": [{}], \"dead_devices\": [{}]}}",
                o.name,
                o.gpus,
                o.lost,
                o.lost as f64 / o.gpus as f64,
                o.iterations,
                o.completed,
                o.completion_rate(),
                o.device_lost_events,
                o.failover_iter
                    .map_or("null".to_string(), |i| i.to_string()),
                o.reshard_latency_s(),
                o.pre_loss_throughput(),
                o.post_loss_throughput(),
                o.losses == base_losses,
                allocs.join(", "),
                dead.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"dataset\": \"cora\",\n  \"per_device_budget_bytes\": {budget},\n  \
         \"iterations\": {iters},\n  \"max_retries\": 8,\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    crate::output::write_artifact("BENCH_failover.json", &json, write_bench);
}
