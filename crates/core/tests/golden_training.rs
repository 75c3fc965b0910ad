//! Golden training trajectories. Each run below is reduced to one FNV-1a
//! digest over every epoch's `train_loss` bits (and `val_loss` bits,
//! when a validation set is tracked) and the final parameter bits, and
//! pinned. Any change to the shuffle, the learning-rate schedule, the
//! `1/(2Q)` loss scale, the guard's clipping, the checkpoint/resume path
//! or either training step's numerics moves a digest.
//!
//! Covered: the sequential per-graph step without a guard, with a guard
//! whose clipping is active, and checkpointed then cut after epoch 3
//! and resumed; and the packed step in f64 and f32.

use chainnet::config::{ModelConfig, TrainConfig};
use chainnet::data::{ChainTargets, LabeledGraph};
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, Surrogate};
use chainnet::train::{
    CheckpointSink, GuardConfig, TrainOptions, TrainReport, TrainStep, Trainer, TRAIN_CKPT_SCHEMA,
};
use chainnet_ckpt::CkptStore;
use chainnet_obs::Obs;
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
use std::path::PathBuf;

const EPOCHS: usize = 6;
const MODEL_SEED: u64 = 5;

/// Twelve graphs of mixed shape (one to three chains, one to three
/// fragments per chain), so mini-batches pack graphs of different sizes
/// together.
fn dataset() -> Vec<LabeledGraph> {
    let placements = [
        vec![vec![0, 1]],
        vec![vec![1, 0], vec![0, 1]],
        vec![vec![0, 0, 1]],
        vec![vec![1], vec![0, 1], vec![1, 1]],
    ];
    (0..12)
        .map(|s| {
            let placement = placements[s % placements.len()].clone();
            let devices = vec![
                Device::new(10.0, 1.0).unwrap(),
                Device::new(10.0, 2.0).unwrap(),
            ];
            let chains = placement
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let frags = (0..p.len())
                        .map(|_| Fragment::new(1.0, 1.0).unwrap())
                        .collect();
                    ServiceChain::new(0.2 + 0.05 * (s + i) as f64, frags).unwrap()
                })
                .collect();
            let model = SystemModel::new(devices, chains, Placement::new(placement)).unwrap();
            let graph = PlacementGraph::from_model(&model, ModelConfig::small().feature_mode);
            let targets = graph
                .chains
                .iter()
                .map(|c| ChainTargets {
                    throughput: c.arrival_rate * (1.0 - 0.3 * c.arrival_rate),
                    latency: c.total_processing * 1.5 / (1.0 - 0.5 * c.arrival_rate),
                })
                .collect();
            LabeledGraph { graph, targets }
        })
        .collect()
}

fn trainer() -> Trainer {
    Trainer::new(TrainConfig {
        epochs: EPOCHS,
        batch_size: 4,
        learning_rate: 5e-3,
        lr_decay: 0.5,
        lr_decay_period: 4,
        seed: 13,
    })
}

fn fresh_model() -> ChainNet {
    ChainNet::new(ModelConfig::small(), MODEL_SEED)
}

/// FNV-1a (64-bit) over a stream of `u64` words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(report: &TrainReport, model: &ChainNet) -> u64 {
    let mut h = Fnv::new();
    h.word(report.history.len() as u64);
    for e in &report.history {
        h.word(e.epoch as u64);
        h.word(e.train_loss.to_bits());
        if let Some(v) = e.val_loss {
            h.word(v.to_bits());
        }
    }
    let params = model.params();
    for id in params.ids() {
        for v in params.value(id).data() {
            h.word(v.to_bits());
        }
    }
    h.0
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chainnet-golden-train-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Guarded sequential training (no checkpoints).
fn guarded(model: &mut ChainNet, data: &[LabeledGraph], guard: &GuardConfig) -> TrainReport {
    let options = TrainOptions {
        step: TrainStep::Sequential,
        guard: Some(*guard),
        checkpoint: None,
    };
    trainer()
        .train_with(model, data, None, &options, &Obs::disabled())
        .expect("a healthy run does not diverge")
}

/// Guarded sequential training with a checkpoint every epoch.
fn checkpointed(
    model: &mut ChainNet,
    data: &[LabeledGraph],
    store: &CkptStore,
    resume: bool,
) -> TrainReport {
    let guard = GuardConfig {
        max_grad_norm: 0.0,
        max_trips: 3,
    };
    let options = TrainOptions {
        step: TrainStep::Sequential,
        guard: Some(guard),
        checkpoint: Some(CheckpointSink {
            store,
            every: 1,
            resume,
        }),
    };
    trainer()
        .train_with(model, data, None, &options, &Obs::disabled())
        .expect("a healthy checkpointed run succeeds")
}

#[test]
fn sequential_plain_trajectory_is_pinned() {
    let data = dataset();
    let mut model = fresh_model();
    let report = trainer().train(&mut model, &data, None);
    assert_eq!(report.history.len(), EPOCHS);
    assert_eq!(digest(&report, &model), GOLDEN_SEQUENTIAL);
}

#[test]
fn guarded_clipping_trajectory_is_pinned() {
    let data = dataset();
    let mut model = fresh_model();
    // Small enough that most steps clip, large enough to keep learning.
    let guard = GuardConfig {
        max_grad_norm: 0.05,
        max_trips: 3,
    };
    let report = guarded(&mut model, &data, &guard);
    assert_eq!(report.history.len(), EPOCHS, "no epoch may trip");
    let d = digest(&report, &model);
    // Clipping is active: the trajectory leaves the unclipped one.
    let mut plain = fresh_model();
    let plain_report = trainer().train(&mut plain, &data, None);
    assert_ne!(d, digest(&plain_report, &plain), "the guard never clipped");
    assert_eq!(d, GOLDEN_GUARDED_CLIPPED);
}

#[test]
fn checkpointed_cut_and_resumed_trajectory_is_pinned() {
    let data = dataset();
    let dir_full = tmp_dir("full");
    let store_full = CkptStore::open(&dir_full, "train", TRAIN_CKPT_SCHEMA).unwrap();
    let mut full_model = fresh_model();
    let full = checkpointed(&mut full_model, &data, &store_full, false);

    // A killed process leaves exactly the checkpoints of epochs 1..=3.
    let dir_cut = tmp_dir("cut");
    std::fs::create_dir_all(&dir_cut).unwrap();
    for seq in 1..=3u64 {
        let src = store_full.path_of(seq);
        std::fs::copy(&src, dir_cut.join(src.file_name().unwrap())).unwrap();
    }
    let store_cut = CkptStore::open(&dir_cut, "train", TRAIN_CKPT_SCHEMA).unwrap();
    let mut resumed_model = ChainNet::new(ModelConfig::small(), 999);
    let resumed = checkpointed(&mut resumed_model, &data, &store_cut, true);

    let d = digest(&resumed, &resumed_model);
    assert_eq!(d, digest(&full, &full_model));
    assert_eq!(d, GOLDEN_CHECKPOINTED_RESUMED);
    let _ = std::fs::remove_dir_all(&dir_full);
    let _ = std::fs::remove_dir_all(&dir_cut);
}

#[test]
fn packed_f64_trajectory_is_pinned() {
    let data = dataset();
    let mut model = fresh_model();
    let report = trainer().train_batched::<f64>(&mut model, &data, None, &Obs::disabled());
    assert_eq!(report.history.len(), EPOCHS);
    assert_eq!(digest(&report, &model), GOLDEN_PACKED_F64);
}

#[test]
fn packed_f32_trajectory_is_pinned() {
    let data = dataset();
    let (train, val) = data.split_at(9);
    let mut model = fresh_model();
    let report = trainer().train_batched::<f32>(&mut model, train, Some(val), &Obs::disabled());
    assert_eq!(report.history.len(), EPOCHS);
    assert!(report.history.iter().all(|e| e.val_loss.is_some()));
    assert_eq!(digest(&report, &model), GOLDEN_PACKED_F32);
}

const GOLDEN_SEQUENTIAL: u64 = 10617167104601602599;
const GOLDEN_GUARDED_CLIPPED: u64 = 4308600496527265647;
const GOLDEN_CHECKPOINTED_RESUMED: u64 = 10617167104601602599;
const GOLDEN_PACKED_F64: u64 = 2616739949884607413;
const GOLDEN_PACKED_F32: u64 = 2738123355970566786;
