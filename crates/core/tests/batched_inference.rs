//! ChainNet's tape-free inference forward — `predict` (a batch of one)
//! and `predict_batch` (stacked per skeleton) — must be **bit-identical**
//! to the tape forward `ChainNet::forward` followed by
//! `outputs_to_natural_units`. The tape is the oracle because training
//! runs on it: a prediction that drifted from it by one ULP would score
//! placements with a model slightly different from the one trained, and
//! the SA search, which treats batched and single-graph scoring as
//! interchangeable, would silently change trajectories.

use chainnet::config::{FeatureMode, ModelConfig, TargetMode};
use chainnet::data::outputs_to_natural_units;
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, PerfPrediction, Surrogate};
use chainnet_neural::tape::Tape;
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

fn devices() -> Vec<Device> {
    vec![
        Device::new(20.0, 1.0).unwrap(),
        Device::new(18.0, 2.0).unwrap(),
        Device::new(22.0, 1.5).unwrap(),
    ]
}

fn chains() -> Vec<ServiceChain> {
    vec![
        ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 2.0).unwrap(),
            ],
        )
        .unwrap(),
        ServiceChain::new(
            0.3,
            vec![
                Fragment::new(1.0, 0.5).unwrap(),
                Fragment::new(1.0, 1.0).unwrap(),
                Fragment::new(1.0, 1.5).unwrap(),
            ],
        )
        .unwrap(),
    ]
}

fn graph_for(placement: Vec<Vec<usize>>, mode: FeatureMode) -> PlacementGraph {
    let model = SystemModel::new(devices(), chains(), Placement::new(placement)).unwrap();
    PlacementGraph::from_model(&model, mode)
}

/// An SA-neighborhood-shaped batch of eight: same problem, different
/// placements, all touching the full device set (one skeleton, varied
/// wiring, shared devices exercising the attention path).
fn neighborhood(mode: FeatureMode) -> Vec<PlacementGraph> {
    [
        vec![vec![0, 1], vec![1, 2, 0]],
        vec![vec![1, 0], vec![2, 1, 0]],
        vec![vec![2, 1], vec![0, 1, 2]],
        vec![vec![0, 2], vec![1, 0, 2]],
        vec![vec![1, 2], vec![0, 2, 1]],
        vec![vec![2, 2], vec![0, 1, 1]],
        vec![vec![0, 0], vec![1, 2, 2]],
        vec![vec![1, 1], vec![1, 0, 2]],
    ]
    .into_iter()
    .map(|p| graph_for(p, mode))
    .collect()
}

/// Placements on different device subsets, interleaved: three local
/// devices, two, three, one (every step shares it), two. Each device
/// count is its own skeleton.
fn mixed(mode: FeatureMode) -> Vec<PlacementGraph> {
    [
        vec![vec![0, 1], vec![1, 2, 0]],
        vec![vec![0, 1], vec![1, 0, 1]],
        vec![vec![2, 0], vec![0, 1, 2]],
        vec![vec![2, 2], vec![2, 2, 2]],
        vec![vec![2, 1], vec![1, 1, 2]],
    ]
    .into_iter()
    .map(|p| graph_for(p, mode))
    .collect()
}

/// The oracle: the tape forward, read out in natural units.
fn tape_predict(net: &ChainNet, graph: &PlacementGraph) -> Vec<PerfPrediction> {
    let mut tape = Tape::new();
    net.forward(&mut tape, graph)
        .into_iter()
        .enumerate()
        .map(|(i, (t, l))| {
            let (throughput, latency) = outputs_to_natural_units(
                net.config().target_mode,
                graph,
                i,
                tape.value(t).item(),
                tape.value(l).item(),
            );
            PerfPrediction {
                throughput,
                latency,
            }
        })
        .collect()
}

fn assert_bitwise_equal(got: &[Vec<PerfPrediction>], net: &ChainNet, graphs: &[PlacementGraph]) {
    assert_eq!(got.len(), graphs.len());
    for (b, graph) in graphs.iter().enumerate() {
        let want = tape_predict(net, graph);
        assert_eq!(got[b].len(), want.len());
        for (i, (got, want)) in got[b].iter().zip(&want).enumerate() {
            assert_eq!(
                got.throughput.to_bits(),
                want.throughput.to_bits(),
                "graph {b} chain {i} throughput: {} vs {}",
                got.throughput,
                want.throughput
            );
            assert_eq!(
                got.latency.to_bits(),
                want.latency.to_bits(),
                "graph {b} chain {i} latency: {} vs {}",
                got.latency,
                want.latency
            );
        }
    }
}

/// `predict` at B = 1, `predict_batch` at B = 8 and on a mixed batch,
/// each against the tape.
fn assert_all_paths_match_tape(net: &ChainNet) {
    let mode = net.config().feature_mode;
    for graphs in [neighborhood(mode), mixed(mode)] {
        let singles: Vec<_> = graphs.iter().map(|g| net.predict(g)).collect();
        assert_bitwise_equal(&singles, net, &graphs);
        assert_bitwise_equal(&net.predict_batch(&graphs), net, &graphs);
    }
}

#[test]
fn inference_matches_tape_ratio_mode() {
    assert_all_paths_match_tape(&ChainNet::new(ModelConfig::small(), 7));
}

#[test]
fn inference_matches_tape_absolute_original_mode() {
    let cfg = ModelConfig::small()
        .with_feature_mode(FeatureMode::Original)
        .with_target_mode(TargetMode::Absolute);
    assert_all_paths_match_tape(&ChainNet::new(cfg, 13));
}

#[test]
fn inference_matches_tape_paper_config() {
    assert_all_paths_match_tape(&ChainNet::new(ModelConfig::paper_chainnet(), 3));
}

/// Placements using different device subsets produce different local
/// device counts. The batch is stacked once per skeleton, never run
/// graph by graph on the tape, and still returns exact, ordered results.
#[test]
fn mixed_structure_batch_is_stacked_per_skeleton() {
    let net = ChainNet::new(ModelConfig::small(), 7);
    let graphs = mixed(net.config().feature_mode);
    assert_bitwise_equal(&net.predict_batch(&graphs), &net, &graphs);
}

#[test]
fn empty_and_singleton_batches() {
    let net = ChainNet::new(ModelConfig::small(), 7);
    assert!(net.predict_batch(&[]).is_empty());
    let g = graph_for(vec![vec![0, 1], vec![1, 2, 0]], net.config().feature_mode);
    let out = net.predict_batch(std::slice::from_ref(&g));
    assert_bitwise_equal(&out, &net, std::slice::from_ref(&g));
    assert_eq!(out, vec![net.predict(&g)]);
}
