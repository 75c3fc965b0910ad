//! Benchmark-owned wrappers that time calls into the program's layers
//! from outside: a [`Surrogate`] that delegates to [`ChainNet`] and an
//! [`Evaluator`] that delegates to any evaluator. Neither changes a
//! computed value; both only read the clock around the delegated call.

use chainnet::config::ModelConfig;
use chainnet::data::ChainTargets;
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, PerfPrediction, Surrogate};
use chainnet_neural::params::ParamStore;
use chainnet_neural::tape::{Tape, Var};
use chainnet_placement::error::PlacementError;
use chainnet_placement::evaluator::{BatchEvaluator, Evaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::model::Placement;
use std::cell::Cell;
use std::time::Instant;

/// Call counts and busy time of one timed layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Calls made.
    pub calls: u64,
    /// Items processed (graphs or placements).
    pub items: u64,
    /// Seconds spent inside the calls.
    pub secs: f64,
}

impl Busy {
    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Busy) {
        self.calls += other.calls;
        self.items += other.items;
        self.secs += other.secs;
    }

    fn add(&mut self, items: u64, secs: f64) {
        self.calls += 1;
        self.items += items;
        self.secs += secs;
    }
}

/// Whether [`chainnet::model::Surrogate::predict_batch`] can stack
/// `graphs` into one batched pass: they must agree on device count,
/// chain count and every chain's length. Otherwise ChainNet falls back
/// to one sequential forward per graph. Computed from public graph
/// fields only.
pub fn batch_is_uniform(graphs: &[PlacementGraph]) -> bool {
    let Some(first) = graphs.first() else {
        return true;
    };
    graphs.iter().all(|g| {
        g.feature_mode == first.feature_mode
            && g.devices.len() == first.devices.len()
            && g.chains.len() == first.chains.len()
            && g.chains
                .iter()
                .zip(&first.chains)
                .all(|(a, b)| a.steps.len() == b.steps.len())
    })
}

/// A [`Surrogate`] that times ChainNet's forward passes.
#[derive(Debug, Clone)]
pub struct TimedSurrogate {
    inner: ChainNet,
    predict: Cell<Busy>,
    batch: Cell<Busy>,
    fallback_batches: Cell<u64>,
}

impl TimedSurrogate {
    /// Wrap a model.
    pub fn new(inner: ChainNet) -> Self {
        Self {
            inner,
            predict: Cell::new(Busy::default()),
            batch: Cell::new(Busy::default()),
            fallback_batches: Cell::new(0),
        }
    }

    /// Sequential `predict` calls (one graph each).
    pub fn predict_busy(&self) -> Busy {
        self.predict.get()
    }

    /// `predict_batch` calls of more than one graph.
    pub fn batch_busy(&self) -> Busy {
        self.batch.get()
    }

    /// Multi-graph batches that could not be stacked.
    pub fn fallback_batches(&self) -> u64 {
        self.fallback_batches.get()
    }
}

impl Surrogate for TimedSurrogate {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn params(&self) -> &ParamStore {
        self.inner.params()
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        self.inner.params_mut()
    }

    fn loss_on_graph(
        &self,
        tape: &mut Tape,
        graph: &PlacementGraph,
        targets: &[ChainTargets],
    ) -> Var {
        self.inner.loss_on_graph(tape, graph, targets)
    }

    fn predict(&self, graph: &PlacementGraph) -> Vec<PerfPrediction> {
        let t = Instant::now();
        let out = self.inner.predict(graph);
        let mut b = self.predict.get();
        b.add(1, t.elapsed().as_secs_f64());
        self.predict.set(b);
        out
    }

    fn predict_batch(&self, graphs: &[PlacementGraph]) -> Vec<Vec<PerfPrediction>> {
        if graphs.len() > 1 && !batch_is_uniform(graphs) {
            self.fallback_batches.set(self.fallback_batches.get() + 1);
        }
        let t = Instant::now();
        let out = self.inner.predict_batch(graphs);
        let mut b = self.batch.get();
        b.add(graphs.len() as u64, t.elapsed().as_secs_f64());
        self.batch.set(b);
        out
    }
}

/// An [`Evaluator`] that times every objective evaluation of the
/// evaluator it wraps.
#[derive(Debug, Clone)]
pub struct TimedEvaluator<E> {
    inner: E,
    busy: Busy,
}

impl<E> TimedEvaluator<E> {
    /// Wrap an evaluator.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            busy: Busy::default(),
        }
    }

    /// Calls, placements scored and seconds spent scoring.
    pub fn busy(&self) -> Busy {
        self.busy
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Evaluator> Evaluator for TimedEvaluator<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_throughput(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
    ) -> Result<f64, PlacementError> {
        let t = Instant::now();
        let out = self.inner.total_throughput(problem, placement);
        self.busy.add(1, t.elapsed().as_secs_f64());
        out
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }

    fn set_tracer(&mut self, tracer: chainnet_obs::Tracer) {
        self.inner.set_tracer(tracer);
    }
}

impl<E: BatchEvaluator> BatchEvaluator for TimedEvaluator<E> {
    fn total_throughput_batch(
        &mut self,
        problem: &PlacementProblem,
        placements: &[Placement],
    ) -> Vec<Result<f64, PlacementError>> {
        let t = Instant::now();
        let out = self.inner.total_throughput_batch(problem, placements);
        self.busy
            .add(placements.len() as u64, t.elapsed().as_secs_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainnet::config::FeatureMode;
    use chainnet_qsim::model::{Device, Fragment, ServiceChain, SystemModel};

    fn graph(devices: usize, lens: &[usize]) -> PlacementGraph {
        let devs = (0..devices)
            .map(|_| Device::new(50.0, 1.0).expect("device"))
            .collect();
        let chains = lens
            .iter()
            .map(|&l| {
                let frags = (0..l)
                    .map(|_| Fragment::new(1.0, 0.05).expect("fragment"))
                    .collect();
                ServiceChain::new(0.5, frags).expect("chain")
            })
            .collect();
        let routes = lens.iter().map(|&l| (0..l).collect()).collect();
        let model = SystemModel::new(devs, chains, Placement::new(routes)).expect("model");
        PlacementGraph::from_model(&model, FeatureMode::Modified)
    }

    #[test]
    fn uniformity_follows_public_graph_shape() {
        let a = graph(3, &[3, 2]);
        assert!(batch_is_uniform(&[a.clone(), a.clone()]));
        assert!(!batch_is_uniform(&[a.clone(), graph(3, &[2, 3])]));
        assert!(!batch_is_uniform(&[a.clone(), graph(3, &[3])]));
        assert!(!batch_is_uniform(&[graph(2, &[2]), graph(3, &[3])]));
        assert!(batch_is_uniform(&[]));
    }
}
