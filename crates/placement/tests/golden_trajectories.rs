//! Golden SA trajectories. Each search below is reduced to one FNV-1a
//! digest over every step's `(candidate_objective bits, accepted)` and
//! the best placement, and pinned. Any change to the RNG call order, the
//! accept/reject rule, the evaluator calls or the checkpoint/resume path
//! moves a digest.
//!
//! Covered: the lopsided toy problem and the Sec. VIII-D case study,
//! the simulator and a seeded (untrained) ChainNet surrogate, and
//! neighborhoods of width 1 and 4. Plain `optimize`, a width-1
//! neighborhood search and a checkpointed search cut after step 5 and
//! resumed must all walk the same trajectory.

use chainnet::config::ModelConfig;
use chainnet::model::ChainNet;
use chainnet_ckpt::CkptStore;
use chainnet_datagen::case_study::case_study_problem;
use chainnet_obs::Obs;
use chainnet_placement::evaluator::{BatchEvaluator, GnnEvaluator, SimEvaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SaResult, SimulatedAnnealing, SA_CKPT_SCHEMA};
use chainnet_qsim::model::{Device, Fragment, ServiceChain};
use chainnet_qsim::sim::SimConfig;

const STEPS: usize = 12;
const TRIALS: usize = 2;
const SEED: u64 = 3;

/// A problem with one obviously bad and one obviously good device.
fn lopsided_problem() -> PlacementProblem {
    let devices = vec![
        Device::new(3.0, 0.2).unwrap(),
        Device::new(50.0, 3.0).unwrap(),
        Device::new(50.0, 3.0).unwrap(),
    ];
    let chains = vec![ServiceChain::new(
        1.0,
        vec![
            Fragment::new(1.0, 1.0).unwrap(),
            Fragment::new(1.0, 1.0).unwrap(),
        ],
    )
    .unwrap()];
    PlacementProblem::new(devices, chains).unwrap()
}

#[derive(Debug, Clone, Copy)]
enum Problem {
    Lopsided,
    CaseStudy,
}

#[derive(Debug, Clone, Copy)]
enum Backend {
    Sim,
    Gnn,
}

impl Problem {
    fn build(self) -> PlacementProblem {
        match self {
            Problem::Lopsided => lopsided_problem(),
            Problem::CaseStudy => case_study_problem().unwrap(),
        }
    }
}

impl Backend {
    fn evaluator(self) -> Box<dyn BatchEvaluator> {
        match self {
            Backend::Sim => Box::new(SimEvaluator::new(SimConfig::new(300.0, 11))),
            Backend::Gnn => Box::new(GnnEvaluator::new(ChainNet::new(ModelConfig::small(), 21))),
        }
    }
}

fn sa() -> SimulatedAnnealing {
    SimulatedAnnealing::new(
        SaConfig::paper_default()
            .with_max_steps(STEPS)
            .with_seed(SEED),
    )
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of every step's decision and the best placement.
fn digest(res: &SaResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for trial in &res.trials {
        for step in &trial.steps {
            fnv(&mut h, step.candidate_objective.to_bits());
            fnv(&mut h, u64::from(step.accepted));
        }
    }
    for (c, j, k) in res.best_placement.iter() {
        for word in [c, j, k] {
            fnv(&mut h, word as u64);
        }
    }
    h
}

fn plain(problem: Problem, backend: Backend) -> SaResult {
    let p = problem.build();
    let init = p.initial_placement().unwrap();
    let mut ev = backend.evaluator();
    sa().optimize_observed(&p, &init, ev.as_mut(), TRIALS, &Obs::disabled())
}

fn neighborhood(problem: Problem, backend: Backend, k: usize) -> SaResult {
    let p = problem.build();
    let init = p.initial_placement().unwrap();
    let mut ev = backend.evaluator();
    sa().optimize_neighborhood_observed(&p, &init, ev.as_mut(), TRIALS, k, &Obs::disabled())
}

/// A checkpointed search killed right after the step-5 checkpoint of
/// trial 0, then resumed from that checkpoint by a fresh evaluator.
fn cut_and_resumed(problem: Problem, backend: Backend, k: usize) -> SaResult {
    let p = problem.build();
    let init = p.initial_placement().unwrap();
    let tag = format!("{problem:?}-{backend:?}-{k}-{}", std::process::id());
    let base = std::env::temp_dir().join(format!("chainnet-golden-{tag}"));
    let _ = std::fs::remove_dir_all(&base);
    let full = CkptStore::open(base.join("full"), "sa", SA_CKPT_SCHEMA).unwrap();
    let mut ev = backend.evaluator();
    let obs = Obs::disabled();
    sa().optimize_checkpointed_observed(&p, &init, ev.as_mut(), TRIALS, k, &full, 5, false, &obs)
        .unwrap();
    let cut = CkptStore::open(base.join("cut"), "sa", SA_CKPT_SCHEMA).unwrap();
    std::fs::copy(full.path_of(1), cut.path_of(1)).unwrap();
    let mut ev = backend.evaluator();
    let resumed = sa()
        .optimize_checkpointed_observed(&p, &init, ev.as_mut(), TRIALS, k, &cut, 5, true, &obs)
        .unwrap();
    let _ = std::fs::remove_dir_all(&base);
    resumed
}

/// `(problem, backend, k=1 digest, k=4 digest)`.
const GOLDEN: [(Problem, Backend, u64, u64); 4] = [
    (
        Problem::Lopsided,
        Backend::Sim,
        0x371b_a4c3_f64b_4d84,
        0x96d8_de01_ec56_5e5e,
    ),
    (
        Problem::Lopsided,
        Backend::Gnn,
        0xa23b_c160_96e7_fc97,
        0x3f3f_8dde_adf2_e056,
    ),
    (
        Problem::CaseStudy,
        Backend::Sim,
        0x9344_c59d_a80d_2d4e,
        0x5390_5d22_733e_8292,
    ),
    (
        Problem::CaseStudy,
        Backend::Gnn,
        0x0352_8aaa_79a2_0a6c,
        0xede6_00ae_47e5_dd2f,
    ),
];

#[test]
fn neighborhood_trajectories_match_golden_digests() {
    for (problem, backend, k1, k4) in GOLDEN {
        let d1 = digest(&neighborhood(problem, backend, 1));
        let d4 = digest(&neighborhood(problem, backend, 4));
        assert_eq!(
            (d1, d4),
            (k1, k4),
            "{problem:?}/{backend:?}: got {d1:#018x}, {d4:#018x}"
        );
    }
}

#[test]
fn plain_search_walks_the_width_one_trajectory() {
    for (problem, backend, k1, _) in GOLDEN {
        let d = digest(&plain(problem, backend));
        assert_eq!(d, k1, "{problem:?}/{backend:?}: got {d:#018x}");
    }
}

#[test]
fn resumed_search_walks_the_uninterrupted_trajectory() {
    for (problem, backend, k1, k4) in GOLDEN {
        for (k, want) in [(1, k1), (4, k4)] {
            let d = digest(&cut_and_resumed(problem, backend, k));
            assert_eq!(d, want, "{problem:?}/{backend:?} k={k}: got {d:#018x}");
        }
    }
}
