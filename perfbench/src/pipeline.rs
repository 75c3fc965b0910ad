//! The `pipeline` workload: the paper's offline path, run in-process
//! through the same public calls `chainnet-cli` makes — `gen-dataset`
//! (Type I), the dataset's JSON round trip, `train` sequential f64 and
//! `--dtype f32`, `evaluate` of the f32 model on a held-out split, and
//! `optimize` on the Sec. VIII-D case study with the simulator, the
//! GNN surrogate, and the GNN with `--neighborhood 8`. Each best
//! placement is re-simulated, as the CLI does.
//!
//! The unit of work is one *round*: every stage once, on inputs drawn
//! from the round's own sub-seed. End-to-end latency is the round's
//! wall time.

use crate::layers::{TimedEvaluator, TimedSurrogate};
use crate::report::RunReport;
use crate::stats::{mean, median};
use crate::{peak_rss_mb, Opts};
use chainnet::config::{ModelConfig, TrainConfig};
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, Surrogate};
use chainnet::train::Trainer;
use chainnet_datagen::case_study::case_study_problem;
use chainnet_datagen::dataset::{
    generate_raw_dataset_observed, to_labeled, DatasetConfig, RawSample,
};
use chainnet_datagen::typesets::NetworkParams;
use chainnet_obs::{Obs, Trace, Tracer};
use chainnet_placement::evaluator::{BatchEvaluator, Evaluator, GnnEvaluator, SimEvaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_placement::sa::{SaConfig, SaResult, SimulatedAnnealing};
use chainnet_qsim::model::Placement;
use chainnet_qsim::sim::{SimConfig, Simulator};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Round sizes. Every stage runs once per round.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Training samples generated per round.
    pub train: usize,
    /// Held-out samples generated per round.
    pub test: usize,
    /// Simulation horizon of dataset labels and of the simulator search.
    pub horizon: f64,
    /// Training epochs per trainer.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// SA steps × trials of the simulator-backed search.
    pub sim_search: (usize, usize),
    /// SA steps × trials of the sequential GNN search.
    pub gnn_search: (usize, usize),
    /// SA steps × trials of the K = 8 neighborhood GNN search.
    pub k8_search: (usize, usize),
    /// Rounds to run at least, whatever `--seconds` says.
    pub min_rounds: usize,
    /// The fixed tail percentile reported as `tail_ms`; `min_rounds`
    /// leaves at least ten rounds beyond it.
    pub tail_pct: f64,
}

/// The sizes a normal run uses.
pub const FULL: Size = Size {
    train: 24,
    test: 12,
    horizon: 2_000.0,
    epochs: 2,
    batch: 8,
    sim_search: (8, 1),
    gnn_search: (12, 1),
    k8_search: (4, 1),
    min_rounds: 40,
    tail_pct: 75.0,
};

/// The sizes of `--quick`.
pub const QUICK: Size = Size {
    train: 6,
    test: 4,
    horizon: 300.0,
    epochs: 1,
    batch: 4,
    sim_search: (2, 1),
    gnn_search: (3, 1),
    k8_search: (2, 1),
    min_rounds: 2,
    tail_pct: 50.0,
};

/// Hidden width and message-passing iterations of the trained models:
/// the CLI's `train` defaults, the same shape as the committed
/// surrogate.
const HIDDEN: usize = 32;
const ITERATIONS: usize = 4;

/// The sequential f64 trainer's final loss on the fixed reference probe
/// ([`reference_loss_bits`]), as bits. The repository's tests promise
/// this trainer is bit-identical run to run, so any change is a
/// behaviour change, not noise.
pub const REFERENCE_SEQ_LOSS_BITS: u64 = 0x3fbe_58bf_8bc9_ddae;

/// Largest relative gap allowed between the f32 and f64 trainers' final
/// losses on the same round.
pub const F32_LOSS_REL_TOL: f64 = 1e-3;
/// Largest gap allowed between the held-out throughput MAPE of the f32
/// and the f64 model on the same round.
pub const F32_MAPE_ABS_TOL: f64 = 5e-3;

/// Everything set up before the timed rounds: the committed surrogate
/// and the case-study problem.
struct Inputs {
    surrogate: ChainNet,
    problem: PlacementProblem,
    initial: Placement,
}

/// Load the surrogate and build the case study, as `chainnet-cli
/// optimize --model` does before searching.
fn set_up(model_path: &Path) -> Result<Inputs, String> {
    let surrogate: ChainNet = read_json(model_path)?;
    let problem = case_study_problem().map_err(|e| format!("case study: {e}"))?;
    let initial = problem
        .initial_placement()
        .map_err(|e| format!("initial placement: {e}"))?;
    Ok(Inputs {
        surrogate,
        problem,
        initial,
    })
}

/// The sequential f64 trainer's final loss on a fixed, seed-independent
/// probe: 12 Type I samples (seed 0, horizon 500), a small model,
/// two epochs.
pub fn reference_loss_bits() -> Result<u64, String> {
    let cfg = DatasetConfig::new(12, 0)
        .with_horizon(500.0)
        .with_threads(2);
    let raw = generate_raw_dataset_observed(NetworkParams::type_i(), &cfg, &Obs::disabled())
        .map_err(|e| format!("reference dataset: {e}"))?;
    let mut model_cfg = ModelConfig::paper_chainnet();
    model_cfg.hidden = 8;
    model_cfg.iterations = 2;
    let mut model = ChainNet::new(model_cfg, 0);
    let labeled = to_labeled(&raw, model_cfg.feature_mode);
    let report = Trainer::new(train_config(2, 4, 0)).train(&mut model, &labeled, None);
    report
        .final_train_loss()
        .map(f64::to_bits)
        .ok_or_else(|| "reference training recorded no epoch".to_string())
}

fn train_config(epochs: usize, batch: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: batch,
        learning_rate: 1e-3,
        lr_decay: 0.9,
        lr_decay_period: 10,
        seed,
    }
}

/// Per-round measurements. `wall_s` is the sum of the stage times.
#[derive(Debug, Default, Clone)]
struct Round {
    wall_s: f64,
    /// Each stage's name and seconds, in run order.
    stages: Vec<(&'static str, f64)>,
    samples: usize,
    datagen_s: f64,
    dataset_bytes: usize,
    dataset_write_s: f64,
    dataset_parse_s: f64,
    trained: usize,
    train_seq_s: f64,
    train_f32_s: f64,
    model_bytes: usize,
    model_write_s: f64,
    model_parse_s: f64,
    evaluate_s: f64,
    mape_f32: f64,
    searches: Vec<Search>,
    /// Time from the round's start to its end, checks included; the
    /// part no stage covers is the benchmark's own.
    elapsed_s: f64,
}

#[derive(Debug, Default, Clone)]
struct Search {
    wall_s: f64,
    evals: u64,
    eval_busy_s: f64,
    steps: usize,
    accepted: usize,
    loss: f64,
}

/// Layer measurements taken only in traced rounds.
#[derive(Debug, Default)]
struct LayerAcc {
    sim_events: u64,
    sim_s: Vec<f64>,
    datagen_sample_ms: Vec<f64>,
    graph_build_us: Vec<f64>,
    predict: crate::layers::Busy,
    batch: crate::layers::Busy,
    fallback_batches: u64,
    forward_self_ms: [Vec<f64>; 2],
    backward_self_ms: [Vec<f64>; 2],
    epoch_s: [Vec<f64>; 2],
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<usize, String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("encode: {e}"))?;
    chainnet_ckpt::atomic_write(path, json.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(json.len())
}

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Per-name self and total time of a trace, in seconds.
fn phase(trace: &Trace, name: &str) -> (u64, f64, f64) {
    trace
        .phase_stats()
        .get(name)
        .map(|p| (p.count, p.self_ns as f64 * 1e-9, p.total_ns as f64 * 1e-9))
        .unwrap_or((0, 0.0, 0.0))
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    size: Size,
    dir: PathBuf,
    /// Re-scores search answers with a fresh evaluator of the kind that
    /// produced them.
    gnn_check: GnnEvaluator<ChainNet>,
}

/// Time `f` as one pipeline stage: inside a `bench.*` span on `bench`,
/// its seconds recorded in `stages`.
fn stage<T>(
    bench: &Tracer,
    name: &'static str,
    stages: &mut Vec<(&'static str, f64)>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = bench.span(name);
    let (out, secs) = timed(f);
    span.close();
    stages.push((name, secs));
    (out, secs)
}

/// One `optimize` as the CLI runs it: the search, then the best
/// placement re-simulated. Returns the result and the simulated loss.
#[allow(clippy::too_many_arguments)]
fn optimize<E: BatchEvaluator>(
    problem: &PlacementProblem,
    initial: &Placement,
    (steps, trials): (usize, usize),
    neighborhood: usize,
    ev: &mut E,
    horizon: f64,
    s: u64,
    obs: &Obs,
) -> Result<(SaResult, f64), String> {
    let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(steps).with_seed(s));
    let res = if neighborhood > 0 {
        sa.optimize_neighborhood_observed(problem, initial, ev, trials, neighborhood, obs)
    } else {
        sa.optimize_observed(problem, initial, ev, trials, obs)
    };
    let model = problem
        .bind(res.best_placement.clone())
        .map_err(|e| format!("bind best placement: {e}"))?;
    let sim = Simulator::new()
        .run(&model, &SimConfig::new(horizon, s ^ 0xdead))
        .map_err(|e| format!("re-simulate: {e}"))?;
    Ok((res, sim.loss_probability))
}

/// Run one round on sub-seed `s`. Each stage is timed on its own and
/// the round's wall time is their sum, so the benchmark's checks between
/// stages never count as pipeline time. With `tracer` set, the library
/// calls get a tracing `Obs`, every stage runs in a `bench.*` span, and
/// `acc` collects the layer numbers.
fn round(
    ctx: &mut Ctx<'_>,
    s: u64,
    tracer: Option<&Tracer>,
    acc: &mut LayerAcc,
    report: &mut RunReport,
) -> Result<Round, String> {
    let size = ctx.size;
    let traced = tracer.is_some();
    let obs = match tracer {
        Some(t) => Obs::disabled().with_tracer(t.clone()),
        None => Obs::disabled(),
    };
    let bench = tracer.cloned().unwrap_or_default();
    let mut r = Round::default();
    let start = Instant::now();
    // Layer probes run inside traced rounds but are not round work.
    let mut probe_s = 0.0;

    // gen-dataset (Type I).
    let cfg = DatasetConfig::new(size.train + size.test, s)
        .with_horizon(size.horizon)
        .with_threads(2);
    let (raw, secs) = stage(&bench, "bench.datagen", &mut r.stages, || {
        generate_raw_dataset_observed(NetworkParams::type_i(), &cfg, &obs)
    });
    let raw = raw.map_err(|e| format!("gen-dataset: {e}"))?;
    r.datagen_s = secs;
    r.samples = raw.len();
    if traced {
        let (n, _, total) = phase(&bench.take(), "datagen.sample");
        if n > 0 {
            acc.datagen_sample_ms.push(total / n as f64 * 1e3);
        }
    }
    let (train_raw, test_raw) = raw.split_at(size.train);

    // The dataset artifacts, written as the CLI writes them, then the
    // training split parsed back.
    let train_path = ctx.dir.join("train.json");
    let test_path = ctx.dir.join("test.json");
    let (written, secs) = stage(&bench, "bench.json", &mut r.stages, || {
        Ok::<_, String>((
            write_json(&train_path, &train_raw)?,
            write_json(&test_path, &test_raw)?,
        ))
    });
    r.dataset_bytes = written?.0;
    r.dataset_write_s = secs;
    let (parsed, secs) = stage(&bench, "bench.json", &mut r.stages, || {
        read_json::<Vec<RawSample>>(&train_path)
    });
    let parsed = parsed?;
    r.dataset_parse_s = secs;
    report.check(parsed.as_slice() == train_raw, || {
        format!("round {s}: dataset JSON round trip changed the samples")
    });

    // train, sequential f64 then batched f32, from the same init.
    let mut model_cfg = ModelConfig::paper_chainnet();
    model_cfg.hidden = HIDDEN;
    model_cfg.iterations = ITERATIONS;
    let labeled = to_labeled(&parsed, model_cfg.feature_mode);
    let trainer = Trainer::new(train_config(size.epochs, size.batch, s));
    r.trained = labeled.len() * size.epochs;
    let mut seq = ChainNet::new(model_cfg, s);
    let mut f32_model = seq.clone();
    let (seq_report, secs) = stage(&bench, "bench.train_seq", &mut r.stages, || {
        trainer.train_observed(&mut seq, &labeled, None, &obs)
    });
    r.train_seq_s = secs;
    if traced {
        train_layers(&bench.take(), 0, size.epochs, acc);
    }
    let (f32_report, secs) = stage(&bench, "bench.train_f32", &mut r.stages, || {
        trainer.train_batched::<f32>(&mut f32_model, &labeled, None, &obs)
    });
    r.train_f32_s = secs;
    if traced {
        train_layers(&bench.take(), 1, size.epochs, acc);
    }
    let (l64, l32) = (
        seq_report.final_train_loss().unwrap_or(f64::NAN),
        f32_report.final_train_loss().unwrap_or(f64::NAN),
    );
    report.check((l32 - l64).abs() <= F32_LOSS_REL_TOL * l64.abs(), || {
        format!("round {s}: f32 loss {l32} vs f64 loss {l64} beyond {F32_LOSS_REL_TOL} relative")
    });

    // The f32 model artifact, then `evaluate` as the CLI runs it: model
    // and dataset parsed from their files, every held-out graph predicted.
    let model_path = ctx.dir.join("model_f32.json");
    let (written, secs) = stage(&bench, "bench.model_write", &mut r.stages, || {
        write_json(&model_path, &f32_model)
    });
    r.model_bytes = written?;
    r.model_write_s = secs;
    let (evaluated, secs) = stage(&bench, "bench.evaluate", &mut r.stages, || {
        let text = std::fs::read_to_string(&model_path).map_err(|e| format!("read model: {e}"))?;
        let (loaded, parse_s) = timed(|| serde_json::from_str::<ChainNet>(&text));
        let loaded = loaded.map_err(|e| format!("parse model: {e}"))?;
        let test: Vec<RawSample> = read_json(&test_path)?;
        let test_labeled = to_labeled(&test, loaded.config().feature_mode);
        let apes = Trainer::new(TrainConfig::paper_default()).evaluate_ape(&loaded, &test_labeled);
        Ok::<_, String>((loaded, parse_s, test_labeled, apes))
    });
    let (loaded, parse_s, test_labeled, apes) = evaluated?;
    r.evaluate_s = secs;
    r.model_parse_s = parse_s;
    r.mape_f32 = apes.summaries().0.map_or(f64::NAN, |t| t.mape);
    let mape64 = Trainer::new(TrainConfig::paper_default())
        .evaluate_ape(&seq, &test_labeled)
        .summaries()
        .0
        .map_or(f64::NAN, |t| t.mape);
    report.check((r.mape_f32 - mape64).abs() <= F32_MAPE_ABS_TOL, || {
        format!(
            "round {s}: f32 MAPE {} vs f64 MAPE {mape64} beyond {F32_MAPE_ABS_TOL}",
            r.mape_f32
        )
    });
    report.check(loaded.params() == f32_model.params(), || {
        format!("round {s}: model JSON round trip changed the parameters")
    });
    if traced {
        let (probed, secs) = timed(|| layer_probes(&raw, test_raw, size.horizon, s, acc));
        probed?;
        probe_s = secs;
    }

    // optimize ×3 on the case study.
    let (problem, initial) = (&ctx.inputs.problem, &ctx.inputs.initial);
    let sim_cfg = SimConfig::new(size.horizon, s);
    let mut ev = TimedEvaluator::new(SimEvaluator::new(sim_cfg));
    let (out, _) = stage(&bench, "bench.search_sim", &mut r.stages, || {
        optimize(
            problem,
            initial,
            size.sim_search,
            0,
            &mut ev,
            size.horizon,
            s,
            &obs,
        )
    });
    let rescored =
        SimEvaluator::new(sim_cfg).total_throughput(problem, &out.as_ref()?.0.best_placement);
    r.searches.push(check_search(
        problem,
        "sim",
        s,
        out?,
        ev.busy(),
        rescored,
        report,
    ));

    let surrogate = || TimedSurrogate::new(ctx.inputs.surrogate.clone());
    let mut ev = TimedEvaluator::new(GnnEvaluator::new(surrogate()));
    let (out, _) = stage(&bench, "bench.search_gnn", &mut r.stages, || {
        optimize(
            problem,
            initial,
            size.gnn_search,
            0,
            &mut ev,
            size.horizon,
            s,
            &obs,
        )
    });
    if traced {
        acc.predict.merge(ev.inner().model().predict_busy());
    }
    let rescored = ctx
        .gnn_check
        .total_throughput(problem, &out.as_ref()?.0.best_placement);
    r.searches.push(check_search(
        problem,
        "gnn",
        s,
        out?,
        ev.busy(),
        rescored,
        report,
    ));

    let mut ev = TimedEvaluator::new(GnnEvaluator::new(surrogate()));
    let (out, _) = stage(&bench, "bench.search_k8", &mut r.stages, || {
        optimize(
            problem,
            initial,
            size.k8_search,
            8,
            &mut ev,
            size.horizon,
            s,
            &obs,
        )
    });
    if traced {
        let m = ev.inner().model();
        acc.batch.merge(m.batch_busy());
        acc.fallback_batches += m.fallback_batches();
    }
    // Batched scoring is bit-identical to sequential scoring by the
    // surrogate's contract, so the sequential checker re-scores K = 8
    // answers too.
    let rescored = ctx
        .gnn_check
        .total_throughput(problem, &out.as_ref()?.0.best_placement);
    r.searches.push(check_search(
        problem,
        "gnn_k8",
        s,
        out?,
        ev.busy(),
        rescored,
        report,
    ));

    r.wall_s = r.stages.iter().map(|(_, secs)| secs).sum();
    r.elapsed_s = start.elapsed().as_secs_f64() - probe_s;
    if traced {
        bench.take();
    }
    Ok(r)
}

/// Check one search answer: feasible, and its objective re-scores bit
/// for bit with a fresh evaluator of the kind that produced it.
fn check_search(
    problem: &PlacementProblem,
    backend: &str,
    s: u64,
    (res, loss): (SaResult, f64),
    busy: crate::layers::Busy,
    rescored: Result<f64, chainnet_placement::error::PlacementError>,
    report: &mut RunReport,
) -> Search {
    report.check(problem.is_feasible(&res.best_placement), || {
        format!("round {s}: {backend} search returned an infeasible placement")
    });
    let same = matches!(&rescored, Ok(v) if v.to_bits() == res.best_objective.to_bits());
    report.check(same, || {
        format!(
            "round {s}: {backend} objective {} re-scores as {rescored:?}",
            res.best_objective
        )
    });
    let (steps, accepted) = res.trials.iter().fold((0, 0), |(n, a), t| {
        (
            n + t.steps.len(),
            a + t.steps.iter().filter(|x| x.accepted).count(),
        )
    });
    Search {
        wall_s: res.elapsed_secs,
        evals: res.evaluations,
        eval_busy_s: busy.secs,
        steps,
        accepted,
        loss,
    }
}

/// Trainer-layer numbers from the spans the trainer emits.
fn train_layers(trace: &Trace, which: usize, epochs: usize, acc: &mut LayerAcc) {
    let epochs = epochs.max(1) as f64;
    let (_, fwd_self, _) = phase(trace, "neural.forward");
    let (_, bwd_self, _) = phase(trace, "neural.backward");
    let (n, _, epoch_total) = phase(trace, "train.epoch");
    acc.forward_self_ms[which].push(fwd_self / epochs * 1e3);
    acc.backward_self_ms[which].push(bwd_self / epochs * 1e3);
    if n > 0 {
        acc.epoch_s[which].push(epoch_total / n as f64);
    }
}

/// The qsim event loop and the graph builder, timed directly on the
/// round's own inputs: the dataset's systems re-simulated exactly as
/// datagen labelled them, and the held-out graphs rebuilt.
fn layer_probes(
    raw: &[RawSample],
    test: &[RawSample],
    horizon: f64,
    s: u64,
    acc: &mut LayerAcc,
) -> Result<(), String> {
    for (i, sample) in raw.iter().enumerate().take(8) {
        let cfg = SimConfig::new(horizon, s.wrapping_add(i as u64));
        let (res, secs) = timed(|| Simulator::new().run(&sample.model, &cfg));
        let res = res.map_err(|e| format!("re-simulate sample: {e}"))?;
        acc.sim_events += res.events;
        acc.sim_s.push(secs);
    }
    let mode = ModelConfig::paper_chainnet().feature_mode;
    for sample in test {
        let (_, secs) = timed(|| PlacementGraph::from_model(&sample.model, mode));
        acc.graph_build_us.push(secs * 1e6);
    }
    Ok(())
}

/// Run the workload.
pub fn run(opts: &Opts, report: &mut RunReport) -> Result<(), String> {
    let size = if opts.quick { QUICK } else { FULL };
    let dir = opts.work_dir.join("pipeline");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // Set-up: load the surrogate and build the case study, nine times.
    let (model_path, _) = crate::write_bare_model(opts)?;
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..9 {
        let (loaded, secs) = timed(|| set_up(&model_path));
        inputs = Some(loaded?);
        setups.push(secs);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    report.put_setup(&setups);

    let reference = reference_loss_bits()?;
    report.check(reference == REFERENCE_SEQ_LOSS_BITS, || {
        format!(
            "sequential f64 reference loss bits {reference:#018x} != recorded {REFERENCE_SEQ_LOSS_BITS:#018x}"
        )
    });

    let mut ctx = Ctx {
        gnn_check: GnnEvaluator::new(inputs.surrogate.clone()),
        inputs: &inputs,
        size,
        dir,
    };
    let base = opts.seed.wrapping_mul(1_000_003).wrapping_mul(1_000);
    let budget = opts.seconds;
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut acc = LayerAcc::default();
    let tracer = Tracer::enabled();
    // A traced run spends its budget on (untraced, traced) pairs.
    let min_rounds = if opts.trace {
        size.min_rounds / 2
    } else {
        size.min_rounds
    };
    let budget = if opts.trace { budget / 2.0 } else { budget };
    let mut r = 0u64;
    while rounds.len() < min_rounds.max(1) || started.elapsed().as_secs_f64() < budget {
        let s = base.wrapping_add(r * 1_000);
        r += 1;
        report.attempted += 1;
        let before = report.check_failures.len();
        rounds.push(round(&mut ctx, s, None, &mut acc, report)?);
        if opts.trace {
            // The same inputs again with tracing on; the pair's ratio is
            // the tracing overhead.
            traced_rounds.push(round(&mut ctx, s, Some(&tracer), &mut acc, report)?);
        }
        if report.check_failures.len() > before {
            report.failed += 1;
        }
        if opts.quick && rounds.len() >= min_rounds {
            break;
        }
    }

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s * 1e3).collect();
    report.put_latency("rounds", &walls, size.tail_pct);
    report.put("peak_rss_mb", "MB", peak_rss_mb(&[std::process::id()]), 1);
    stage_metrics(&rounds, report);
    if opts.trace {
        layer_metrics(&rounds, &traced_rounds, &acc, report);
    }
    Ok(())
}

/// The paper pipeline's per-stage numbers, from untraced rounds.
fn stage_metrics(rounds: &[Round], report: &mut RunReport) {
    let n = rounds.len();
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.put(
        "stage.datagen_samples_per_s",
        "1/s",
        rate(sum(&|r| r.samples as f64), sum(&|r| r.datagen_s)),
        n,
    );
    report.put(
        "stage.train_seq_samples_per_s",
        "1/s",
        rate(sum(&|r| r.trained as f64), sum(&|r| r.train_seq_s)),
        n,
    );
    report.put(
        "stage.train_f32_samples_per_s",
        "1/s",
        rate(sum(&|r| r.trained as f64), sum(&|r| r.train_f32_s)),
        n,
    );
    let evals: Vec<f64> = rounds.iter().map(|r| r.evaluate_s).collect();
    report.put("stage.evaluate_s", "s", median(&evals), n);
    let mapes: Vec<f64> = rounds.iter().map(|r| r.mape_f32).collect();
    report.put("stage.trained_tput_mape", "share", median(&mapes), n);
    for (i, name) in [
        "stage.search_sim_evals_per_s",
        "stage.search_gnn_evals_per_s",
        "stage.search_gnn_k8_evals_per_s",
    ]
    .iter()
    .enumerate()
    {
        let e = sum(&|r| r.searches[i].evals as f64);
        let w = sum(&|r| r.searches[i].wall_s);
        report.put(name, "1/s", rate(e, w), n);
    }
    let losses: Vec<f64> = rounds
        .iter()
        .map(|r| mean(&r.searches.iter().map(|s| s.loss).collect::<Vec<_>>()))
        .collect();
    report.put("stage.search_loss_prob", "share", mean(&losses), n);

    // Each stage's share of the round wall time: a stage slowing down by
    // a factor f moves `p50_ms` by about share × (f − 1).
    let total = sum(&|r| r.wall_s);
    let mut shares: Vec<(&str, f64)> = Vec::new();
    for (name, secs) in rounds.iter().flat_map(|r| &r.stages) {
        let name = name.trim_start_matches("bench.");
        match shares.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => *t += secs,
            None => shares.push((name, *secs)),
        }
    }
    let shares: Vec<String> = shares
        .iter()
        .map(|(name, secs)| format!("{name} {:.3}", secs / total))
        .collect();
    report.note(format!(
        "stage shares of round wall time: {}",
        shares.join(", ")
    ));
}

/// Layer numbers from the traced rounds, and the tracing overhead
/// against their untraced twins.
fn layer_metrics(plain: &[Round], traced: &[Round], acc: &LayerAcc, report: &mut RunReport) {
    let n = traced.len();
    let sim_s: f64 = acc.sim_s.iter().sum();
    report.put(
        "qsim.events_per_s",
        "1/s",
        if sim_s > 0.0 {
            acc.sim_events as f64 / sim_s
        } else {
            0.0
        },
        acc.sim_s.len(),
    );
    report.put("qsim.sim_ms", "ms", mean(&acc.sim_s) * 1e3, acc.sim_s.len());
    report.put(
        "datagen.sample_ms",
        "ms",
        median(&acc.datagen_sample_ms),
        acc.datagen_sample_ms.len(),
    );
    let med = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    report.put(
        "serde_json.parse_ms.dataset",
        "ms",
        med(&|r| r.dataset_parse_s * 1e3),
        n,
    );
    report.put(
        "serde_json.parse_mb_per_s.dataset",
        "MB/s",
        med(&|r| r.dataset_bytes as f64 / r.dataset_parse_s / 1e6),
        n,
    );
    report.put(
        "serde_json.write_ms.dataset",
        "ms",
        med(&|r| r.dataset_write_s * 1e3),
        n,
    );
    report.put(
        "serde_json.parse_ms.model",
        "ms",
        med(&|r| r.model_parse_s * 1e3),
        n,
    );
    report.put(
        "serde_json.parse_mb_per_s.model",
        "MB/s",
        med(&|r| r.model_bytes as f64 / r.model_parse_s / 1e6),
        n,
    );
    report.put(
        "serde_json.write_ms.model",
        "ms",
        med(&|r| r.model_write_s * 1e3),
        n,
    );
    report.put(
        "core.graph_build_us",
        "us",
        median(&acc.graph_build_us),
        acc.graph_build_us.len(),
    );
    let per = |b: crate::layers::Busy| {
        if b.items > 0 {
            b.secs / b.items as f64 * 1e3
        } else {
            0.0
        }
    };
    report.put(
        "core.predict_ms",
        "ms",
        per(acc.predict),
        acc.predict.calls as usize,
    );
    report.put(
        "core.predict_batch_ms_per_graph",
        "ms",
        per(acc.batch),
        acc.batch.items as usize,
    );
    report.put(
        "core.batch_fallback_share",
        "share",
        if acc.batch.calls > 0 {
            acc.fallback_batches as f64 / acc.batch.calls as f64
        } else {
            0.0
        },
        acc.batch.calls as usize,
    );
    for (i, tag) in ["seq", "f32"].iter().enumerate() {
        let k = acc.epoch_s[i].len();
        report.put(
            &format!("neural.forward_self_ms.{tag}"),
            "ms",
            median(&acc.forward_self_ms[i]),
            k,
        );
        report.put(
            &format!("neural.backward_self_ms.{tag}"),
            "ms",
            median(&acc.backward_self_ms[i]),
            k,
        );
        report.put(
            &format!("neural.epoch_s.{tag}"),
            "s",
            median(&acc.epoch_s[i]),
            k,
        );
    }
    let searches: Vec<&Search> = traced.iter().flat_map(|r| &r.searches).collect();
    let wall: f64 = searches.iter().map(|s| s.wall_s).sum();
    let busy: f64 = searches.iter().map(|s| s.eval_busy_s).sum();
    let k = searches.len();
    report.put("placement.eval_share", "share", busy / wall, k);
    report.put(
        "placement.driver_self_ms",
        "ms",
        (wall - busy) / k as f64 * 1e3,
        k,
    );
    report.put(
        "placement.evals",
        "count",
        searches.iter().map(|s| s.evals).sum::<u64>() as f64 / n as f64,
        n,
    );
    let steps: usize = searches.iter().map(|s| s.steps).sum();
    let accepted: usize = searches.iter().map(|s| s.accepted).sum();
    report.put(
        "placement.accept_ratio",
        "share",
        accepted as f64 / steps.max(1) as f64,
        steps,
    );
    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let elapsed: f64 = traced.iter().map(|r| r.elapsed_s).sum();
    report.put(
        "bench.unattributed_share",
        "share",
        1.0 - traced_wall / elapsed,
        n,
    );
    let plain_wall: f64 = plain.iter().map(|r| r.wall_s).sum();
    report.put(
        "bench.trace_overhead_share",
        "share",
        traced_wall / plain_wall - 1.0,
        n,
    );
}
