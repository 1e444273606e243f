//! Checkpoint/resume experiment, written to `BENCH_checkpoint.json`.
//!
//! Three measurements on one small training workload:
//!
//! 1. **Overhead** — wall-clock cost of snapshotting every K iterations
//!    relative to the same run with checkpointing off, plus the snapshot
//!    size on disk. Snapshots must not perturb the math, so the two loss
//!    trails are also compared bitwise.
//! 2. **Resume fidelity** — a torn crash is injected mid-snapshot (the
//!    rename "lost", leaving garbage at the final path); the resumed run
//!    must reject the torn file by CRC, fall back through the ring, and
//!    produce a loss trail bitwise identical to the uninterrupted run.
//! 3. **Rollback rung** — a mid-run budget shrink with retries and
//!    re-splits disabled exhausts the in-iteration recovery ladder. The
//!    seed behavior (no checkpoints) aborts with `RecoveryExhausted`;
//!    with the rollback rung the run restores the last snapshot under a
//!    boosted headroom and completes every epoch.

use buffalo_core::checkpoint::CheckpointOptions;
use buffalo_core::train::{
    run_epochs_checkpointed, Engine, EpochConfig, RecoveryPolicy, TrainConfig, TrainRun,
};
use buffalo_core::TrainError;
use buffalo_graph::datasets::{self, Dataset, DatasetName};
use buffalo_memsim::{
    AggregatorKind, CostModel, CrashPoint, Device, DeviceMemory, FaultPlan, FaultyDevice, GnnShape,
};
use std::path::PathBuf;
use std::time::Instant;

const CLUSTERING: f64 = 0.24;

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
        seed: 17,
        parallelism: buffalo_par::Parallelism::auto(),
    }
}

fn epoch_cfg(quick: bool) -> EpochConfig {
    EpochConfig {
        batch_size: 64,
        epochs: 2,
        train_nodes: if quick { 128 } else { 256 },
        eval_nodes: 128,
        seed: 5,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("buffalo-bench-ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_once(
    ds: &Dataset,
    cfg: &EpochConfig,
    device: &dyn Device,
    cost: &CostModel,
    ckpt: Option<&CheckpointOptions>,
    resume: bool,
    policy: Option<RecoveryPolicy>,
) -> (Result<TrainRun, TrainError>, f64) {
    let mut trainer = Engine::buffalo(config(ds), CLUSTERING);
    if let Some(p) = policy {
        trainer = trainer.with_recovery(p);
    }
    let t = Instant::now();
    let run = run_epochs_checkpointed(&mut trainer, ds, device, cost, cfg, ckpt, resume);
    (run, t.elapsed().as_secs_f64())
}

fn trail_bits(run: &TrainRun) -> Vec<u32> {
    run.loss_trail.iter().map(|l| l.to_bits()).collect()
}

/// Runs the checkpoint/resume experiment; with `write_bench` it also
/// rewrites `BENCH_checkpoint.json`.
pub fn checkpoint(quick: bool, write_bench: bool) {
    let ds = datasets::load(DatasetName::Cora, 9);
    let cost = CostModel::rtx6000();
    let cfg = epoch_cfg(quick);
    let every = 2usize;

    // 1. Overhead: plain vs. checkpointed, same device budget, fresh
    // trainers, identical seeds.
    let plain_dev = DeviceMemory::with_gib(24.0);
    let (plain, plain_s) = run_once(&ds, &cfg, &plain_dev, &cost, None, false, None);
    let plain = plain.expect("plain run");
    let dir = tmpdir("overhead");
    let opts = CheckpointOptions {
        every,
        ..CheckpointOptions::new(&dir)
    };
    let ck_dev = DeviceMemory::with_gib(24.0);
    let (checkpointed, ck_s) = run_once(&ds, &cfg, &ck_dev, &cost, Some(&opts), false, None);
    let checkpointed = checkpointed.expect("checkpointed run");
    let snapshot_bytes = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    let overhead = if plain_s > 0.0 {
        ck_s / plain_s - 1.0
    } else {
        0.0
    };
    let no_perturb = trail_bits(&plain) == trail_bits(&checkpointed);

    // 2. Resume fidelity: tear snapshot save #4 at the final path, then
    // resume from the surviving ring and compare the full trail.
    let crash_dir = tmpdir("resume");
    let crash_opts = CheckpointOptions {
        every,
        crash: Some(CrashPoint {
            at_save: 4,
            after_bytes: None,
            torn: true,
        }),
        ..CheckpointOptions::new(&crash_dir)
    };
    let crash_dev = DeviceMemory::with_gib(24.0);
    let (crashed, _) = run_once(&ds, &cfg, &crash_dev, &cost, Some(&crash_opts), false, None);
    let crash_ok = matches!(
        crashed,
        Err(TrainError::Checkpoint(
            buffalo_core::checkpoint::CheckpointError::CrashInjected { .. }
        ))
    );
    let resume_opts = CheckpointOptions {
        every,
        ..CheckpointOptions::new(&crash_dir)
    };
    let resume_dev = DeviceMemory::with_gib(24.0);
    let (resumed, _) = run_once(
        &ds,
        &cfg,
        &resume_dev,
        &cost,
        Some(&resume_opts),
        true,
        None,
    );
    let resumed = resumed.expect("resumed run");
    let resumed_at = resumed.resumed_at.unwrap_or(0);
    let resume_identical = trail_bits(&resumed) == trail_bits(&plain);

    // 3. Rollback rung. Probe the whole-batch peak so a 40 % shrink bites
    // mid-iteration; disable the in-iteration rungs to force exhaustion.
    let peak = {
        let probe = DeviceMemory::with_gib(24.0);
        run_once(&ds, &cfg, &probe, &cost, None, false, None)
            .0
            .expect("probe run");
        probe.peak()
    };
    let policy = RecoveryPolicy {
        max_retries: 0,
        max_resplits: 0,
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::parse("shrink:at=3,factor=0.6").expect("shrink spec");
    let seed_dev = FaultyDevice::new(DeviceMemory::new(peak), plan.clone());
    let (seed_run, _) = run_once(
        &ds,
        &cfg,
        &seed_dev,
        &cost,
        None,
        false,
        Some(policy.clone()),
    );
    let seed_aborted = matches!(seed_run, Err(TrainError::RecoveryExhausted { .. }));
    let rb_dir = tmpdir("rollback");
    let rb_opts = CheckpointOptions {
        every: 1,
        ..CheckpointOptions::new(&rb_dir)
    };
    let rb_dev = FaultyDevice::new(DeviceMemory::new(peak), plan);
    let (rb_run, _) = run_once(
        &ds,
        &cfg,
        &rb_dev,
        &cost,
        Some(&rb_opts),
        false,
        Some(policy),
    );
    let (rb_completed, rollbacks, rb_epochs) = match &rb_run {
        Ok(run) => (
            run.epochs.len() == cfg.epochs && run.loss_trail.iter().all(|l| l.is_finite()),
            run.rollbacks,
            run.epochs.len(),
        ),
        Err(_) => (false, 0, 0),
    };

    let mut t = crate::output::Table::new(["measurement", "value"]);
    t.row([
        "snapshot overhead".to_string(),
        format!(
            "{:+.1}% ({} snapshots, {} B each, every {every})",
            100.0 * overhead,
            checkpointed.snapshots_written,
            snapshot_bytes
        ),
    ]);
    t.row([
        "snapshots perturb math".to_string(),
        (!no_perturb).to_string(),
    ]);
    t.row(["torn crash raised".to_string(), crash_ok.to_string()]);
    t.row([
        "resume trail identical".to_string(),
        format!("{resume_identical} (resumed at iter {resumed_at})"),
    ]);
    t.row([
        "seed aborts on exhaustion".to_string(),
        seed_aborted.to_string(),
    ]);
    t.row([
        "rollback completes run".to_string(),
        format!(
            "{rb_completed} ({rollbacks} rollbacks, {rb_epochs}/{} epochs)",
            cfg.epochs
        ),
    ]);
    t.print();

    let json = format!(
        "{{\n  \"dataset\": \"cora\",\n  \"epochs\": {},\n  \"iterations\": {},\n  \"checkpoint_every\": {every},\n  \"overhead\": {{\"plain_wall_s\": {plain_s:.6}, \"checkpointed_wall_s\": {ck_s:.6}, \"overhead_vs_plain\": {overhead:.4}, \"snapshots_written\": {}, \"snapshot_bytes\": {snapshot_bytes}, \"trail_bitwise_identical\": {no_perturb}}},\n  \"resume\": {{\"crash_at_save\": 4, \"torn\": true, \"crash_error_raised\": {crash_ok}, \"resumed_at_iteration\": {resumed_at}, \"trail_bitwise_identical\": {resume_identical}}},\n  \"rollback\": {{\"budget_bytes\": {peak}, \"shrink\": \"at=3,factor=0.6\", \"seed_aborted\": {seed_aborted}, \"rollback_completed\": {rb_completed}, \"rollbacks\": {rollbacks}, \"epochs_completed\": {rb_epochs}}}\n}}\n",
        cfg.epochs,
        plain.loss_trail.len(),
        checkpointed.snapshots_written,
    );
    crate::output::write_artifact("BENCH_checkpoint.json", &json, write_bench);

    for d in [&dir, &crash_dir, &rb_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
