//! Simulated-annealing placement search (Section VII): fragment-relocation
//! moves with swap-back of displaced fragments, geometric cooling, and
//! multi-trial restarts from a common initial placement (Section VIII-C).
//!
//! Every public entry point delegates to one private driver with one
//! trial loop and one accept/reject step. The entry points differ only
//! in what they hand it: the neighborhood width (candidates scored per
//! step), an optional checkpoint store, a trial count or a wall-clock
//! time box, and the telemetry context.

use crate::error::PlacementError;
use crate::evaluator::BatchEvaluator;
use crate::problem::PlacementProblem;
use chainnet_ckpt::{CkptError, CkptStore};
use chainnet_obs::Obs;
use chainnet_qsim::model::Placement;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::time::Instant;

/// Telemetry record emitted once per completed trial on the `sa` component.
#[derive(Debug, Clone, Copy, Serialize)]
struct SaTrialEvent {
    kind: &'static str,
    trial: usize,
    proposals: u64,
    accepted: u64,
    improvements: usize,
    best_objective: f64,
    elapsed_secs: f64,
}

/// Configuration of the annealing search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Search steps per trial (100 in the paper's experiments).
    pub max_steps: usize,
    /// Initial temperature `τ_0`.
    pub initial_temp: f64,
    /// Geometric cooling rate `γ ∈ (0, 1)` (0.9 in the paper).
    pub cooling: f64,
    /// RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Attempts at generating a feasible candidate before a step is
    /// skipped (counts as a non-improving step).
    pub max_move_attempts: usize,
    /// Hard cap on objective evaluations across the whole search; when
    /// hit, the search stops mid-trial and returns the best-so-far with
    /// [`TerminationReason::MaxEvaluations`]. `None` (default) is
    /// unlimited.
    #[serde(default)]
    pub max_evaluations: Option<u64>,
    /// Wall-clock deadline in seconds for the whole search; when hit,
    /// the search stops mid-trial and returns the best-so-far with
    /// [`TerminationReason::WallClock`]. `None` (default) is unlimited.
    #[serde(default)]
    pub max_wall_secs: Option<f64>,
}

impl SaConfig {
    /// The paper's search settings: 100 steps, cooling 0.9.
    pub fn paper_default() -> Self {
        Self {
            max_steps: 100,
            initial_temp: 0.5,
            cooling: 0.9,
            seed: 0,
            max_move_attempts: 32,
            max_evaluations: None,
            max_wall_secs: None,
        }
    }

    /// Override the seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the step budget (builder-style).
    #[must_use]
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        self.max_steps = steps;
        self
    }

    /// Cap total objective evaluations (builder-style).
    #[must_use]
    pub fn with_max_evaluations(mut self, evals: u64) -> Self {
        self.max_evaluations = Some(evals);
        self
    }

    /// Set a wall-clock deadline in seconds (builder-style). Non-finite
    /// or non-positive values are ignored.
    #[must_use]
    pub fn with_max_wall_secs(mut self, secs: f64) -> Self {
        self.max_wall_secs = Some(secs);
        self
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Why a multi-trial search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TerminationReason {
    /// Every requested trial ran to its full step count.
    #[default]
    Completed,
    /// The [`SaConfig::max_evaluations`] cap was reached.
    MaxEvaluations,
    /// The [`SaConfig::max_wall_secs`] deadline passed.
    WallClock,
    /// Cooperative cancellation (`obs.cancel`, typically a
    /// SIGTERM/SIGINT handler) was requested; the search stopped at the
    /// next step boundary and returned the best-so-far.
    Cancelled,
}

impl std::fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Completed => "completed",
            Self::MaxEvaluations => "evaluation cap reached",
            Self::WallClock => "wall-clock deadline reached",
            Self::Cancelled => "cancelled",
        })
    }
}

/// One recorded search step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaStep {
    /// 0-based step index within the trial.
    pub step: usize,
    /// Objective of the candidate proposed this step.
    pub candidate_objective: f64,
    /// Objective of the current decision after the accept/reject choice.
    pub current_objective: f64,
    /// Best objective seen so far in this trial.
    pub best_objective: f64,
    /// Whether the candidate was accepted.
    pub accepted: bool,
    /// Wall-clock seconds since the trial started.
    pub elapsed_secs: f64,
}

/// A new best-so-far decision found during a trial, with the step index
/// and wall-clock instant it appeared (used by the post-processed curves
/// of Figs. 14c-d and 15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaImprovement {
    /// 0-based step index within the trial.
    pub step: usize,
    /// Seconds since the trial started.
    pub elapsed_secs: f64,
    /// The new best placement.
    pub placement: Placement,
    /// Its objective value under the search evaluator.
    pub objective: f64,
}

/// The outcome of one trial (one cooling trajectory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaTrial {
    /// Per-step trajectory (Fig. 14a plots these curves).
    pub steps: Vec<SaStep>,
    /// Every strict improvement of the best-so-far decision, in order.
    pub improvements: Vec<SaImprovement>,
    /// Best placement found in this trial.
    pub best_placement: Placement,
    /// Its objective value.
    pub best_objective: f64,
    /// Wall-clock seconds the trial took.
    pub elapsed_secs: f64,
    /// Candidate evaluations that failed (the candidate was treated as
    /// rejected and the search continued).
    #[serde(default)]
    pub eval_failures: u64,
}

/// The outcome of a multi-trial search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaResult {
    /// All trials, in execution order.
    pub trials: Vec<SaTrial>,
    /// Best placement across trials.
    pub best_placement: Placement,
    /// Its objective value.
    pub best_objective: f64,
    /// Objective of the shared initial placement.
    pub initial_objective: f64,
    /// Total objective evaluations consumed.
    pub evaluations: u64,
    /// Total wall-clock seconds.
    pub elapsed_secs: f64,
    /// Why the search stopped. Budget-bounded searches still return the
    /// best decision found so far.
    #[serde(default)]
    pub termination_reason: TerminationReason,
}

/// Schema version of serialized [`SaCheckpoint`] payloads; bump on any
/// layout change so stale checkpoints are skipped instead of misread.
pub const SA_CKPT_SCHEMA: u32 = 2;

/// The complete state of a multi-trial search.
///
/// Holds both search-level state (best-so-far decision, completed
/// trials, cumulative evaluation count) and mid-trial state (current
/// decision, temperature, raw RNG words), so a search killed between
/// steps resumes on the exact annealing trajectory. The search driver
/// keeps its whole state in this one record and persists sanitized
/// copies of it. `step_next == 0` marks a trial boundary: trial
/// [`SaCheckpoint::trial`] has not consumed any randomness yet and starts
/// from the initial placement with its own seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaCheckpoint {
    /// Configuration of the checkpointed search (must match at resume).
    pub config: SaConfig,
    /// Requested trial count (must match at resume).
    pub trials: usize,
    /// Candidates scored per step (must match at resume).
    pub neighborhood: usize,
    /// The shared initial placement (must match at resume).
    pub initial: Placement,
    /// Objective of the initial placement (never re-evaluated at resume).
    pub initial_objective: f64,
    /// Objective evaluations consumed so far, across all processes.
    pub evaluations: u64,
    /// Best placement across all completed work.
    pub best: Placement,
    /// Its objective value.
    pub best_objective: f64,
    /// Fully (or budget-) completed trials, in execution order.
    pub completed: Vec<SaTrial>,
    /// 0-based index of the in-flight trial.
    pub trial: usize,
    /// Next step of the in-flight trial; 0 means the trial has not
    /// started.
    pub step_next: usize,
    /// Raw xoshiro256++ state of the in-flight trial's RNG.
    pub rng: [u64; 4],
    /// Current decision of the in-flight trial.
    pub current: Placement,
    /// Its objective value.
    pub current_objective: f64,
    /// Best placement of the in-flight trial.
    pub trial_best: Placement,
    /// Its objective value.
    pub trial_best_objective: f64,
    /// Current temperature of the in-flight trial.
    pub temp: f64,
    /// Steps recorded so far in the in-flight trial.
    pub steps: Vec<SaStep>,
    /// Improvements recorded so far in the in-flight trial.
    pub improvements: Vec<SaImprovement>,
    /// Failed candidate evaluations so far in the in-flight trial.
    pub eval_failures: u64,
}

/// Clamp non-finite objectives to `f64::MIN` before persisting. They
/// arise only from failed evaluations (recorded as `-inf`); the
/// vendored JSON layer maps non-finite floats to `null`, which would
/// not round-trip. `f64::MIN` orders identically against every real
/// objective, so resumed accept/reject decisions are unchanged.
fn finite_or_min(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MIN
    }
}

/// The one wall-clock read in this crate. Every budget watchdog and
/// telemetry timer routes through here so determinism review has a
/// single audited site; elapsed time bounds runtime and feeds metrics
/// but never feeds search results.
fn wall_timer() -> Instant {
    // lint:allow(determinism): wall-clock budget watchdog / telemetry timer (never feeds results)
    Instant::now()
}

/// [`finite_or_min`] over one trial's step and improvement records.
fn sanitize_records(steps: &mut [SaStep], improvements: &mut [SaImprovement]) {
    for s in steps {
        s.candidate_objective = finite_or_min(s.candidate_objective);
        s.current_objective = finite_or_min(s.current_objective);
        s.best_objective = finite_or_min(s.best_objective);
    }
    for i in improvements {
        i.objective = finite_or_min(i.objective);
    }
}

impl SaCheckpoint {
    /// A copy with every objective passed through [`finite_or_min`], so
    /// the payload round-trips through JSON.
    fn sanitized(&self) -> Self {
        let mut ck = self.clone();
        for x in [
            &mut ck.initial_objective,
            &mut ck.best_objective,
            &mut ck.current_objective,
            &mut ck.trial_best_objective,
        ] {
            *x = finite_or_min(*x);
        }
        sanitize_records(&mut ck.steps, &mut ck.improvements);
        for t in &mut ck.completed {
            t.best_objective = finite_or_min(t.best_objective);
            sanitize_records(&mut t.steps, &mut t.improvements);
        }
        ck
    }
}

/// What one search covers.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Trials to run (an upper bound when `time_box` is set).
    trials: usize,
    /// Candidates proposed and scored per step (at least 1).
    neighborhood: usize,
    /// Stop after the first trial that ends this many seconds into the
    /// search ([`SimulatedAnnealing::optimize_for`]).
    time_box: Option<f64>,
    /// Objective of the initial placement, when the caller already
    /// knows it ([`SimulatedAnnealing::run_trial`]); evaluated otherwise.
    initial_objective: Option<f64>,
}

impl Plan {
    fn new(trials: usize, neighborhood: usize) -> Self {
        Self {
            trials,
            neighborhood: neighborhood.max(1),
            time_box: None,
            initial_objective: None,
        }
    }
}

/// Where the search driver loads and saves its state. [`InMemory`]
/// persists nothing and cannot fail; [`StoreSink`] makes a search
/// crash-safe.
trait Sink {
    /// Why loading or saving failed.
    type Error;

    /// Mid-trial save cadence in steps; `None` never builds a snapshot.
    fn every(&self) -> Option<usize>;

    /// The state to resume from, if any. `check` refuses state that
    /// belongs to a different search.
    fn load(
        &mut self,
        check: impl FnOnce(&SaCheckpoint) -> Result<(), PlacementError>,
    ) -> Result<Option<SaCheckpoint>, Self::Error>;

    /// Persist one snapshot.
    fn save(&mut self, ck: &SaCheckpoint) -> Result<(), Self::Error>;
}

/// The sink of every search that is not checkpointed.
struct InMemory;

impl Sink for InMemory {
    type Error = Infallible;

    fn every(&self) -> Option<usize> {
        None
    }

    fn load(
        &mut self,
        _check: impl FnOnce(&SaCheckpoint) -> Result<(), PlacementError>,
    ) -> Result<Option<SaCheckpoint>, Infallible> {
        Ok(None)
    }

    fn save(&mut self, _ck: &SaCheckpoint) -> Result<(), Infallible> {
        Ok(())
    }
}

/// A [`CkptStore`]-backed sink saving every `every` steps, resuming
/// from the newest usable checkpoint when `resume` is set.
struct StoreSink<'s> {
    store: &'s CkptStore,
    every: usize,
    resume: bool,
    next_seq: u64,
}

impl Sink for StoreSink<'_> {
    type Error = PlacementError;

    fn every(&self) -> Option<usize> {
        Some(self.every)
    }

    fn load(
        &mut self,
        check: impl FnOnce(&SaCheckpoint) -> Result<(), PlacementError>,
    ) -> Result<Option<SaCheckpoint>, PlacementError> {
        if self.every == 0 {
            return Err(PlacementError::Checkpoint(CkptError::InvalidCadence));
        }
        if !self.resume {
            return Ok(None);
        }
        let (seq, ck) = self.store.resume_latest_state::<SaCheckpoint>()?;
        check(&ck)?;
        self.next_seq = seq + 1;
        Ok(Some(ck))
    }

    fn save(&mut self, ck: &SaCheckpoint) -> Result<(), PlacementError> {
        self.store.save_state(self.next_seq, &ck.sanitized())?;
        self.next_seq += 1;
        Ok(())
    }
}

/// The simulated-annealing search driver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimulatedAnnealing {
    config: SaConfig,
}

impl SimulatedAnnealing {
    /// Create a driver with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        Self { config }
    }

    /// The search configuration.
    pub fn config(&self) -> &SaConfig {
        &self.config
    }

    /// Generate a candidate move per Section VII: relocate one random
    /// fragment of a random chain to a device not already used by that
    /// chain, swapping back `b` random displaced fragments. Returns `None`
    /// if no feasible candidate is found within the attempt budget.
    pub fn propose(
        &self,
        problem: &PlacementProblem,
        placement: &Placement,
        rng: &mut SmallRng,
    ) -> Option<Placement> {
        let d = problem.num_devices();
        'attempts: for _ in 0..self.config.max_move_attempts {
            let c = rng.gen_range(0..placement.num_chains());
            let j = rng.gen_range(0..placement.chain_len(c));
            let k = placement.device_of(c, j);
            let route = placement.chain_route(c);
            let candidates: Vec<usize> = (0..d).filter(|k2| !route.contains(k2)).collect();
            let Some(&k2) = candidates.as_slice().choose(rng) else {
                continue;
            };
            let mut next = placement.clone();
            next.set_device(c, j, k2);

            // Fragments of *other* chains currently on k2 may be swapped
            // back to k.
            let others: Vec<(usize, usize)> = placement
                .iter()
                .filter(|&(i, _, kk)| kk == k2 && i != c)
                .map(|(i, jj, _)| (i, jj))
                .collect();
            if !others.is_empty() {
                let b = rng.gen_range(0..=others.len());
                let mut shuffled = others;
                shuffled.shuffle(rng);
                for &(i, jj) in shuffled.iter().take(b) {
                    // Swapping would duplicate a device within chain i?
                    if next.chain_route(i).contains(&k) {
                        continue 'attempts;
                    }
                    next.set_device(i, jj, k);
                }
            }
            if problem.is_feasible(&next) {
                return Some(next);
            }
        }
        None
    }

    /// Run one trial from `initial` (assumed feasible) with RNG seed
    /// `trial_seed`, consuming objective evaluations from `evaluator`.
    ///
    /// A failed candidate evaluation is treated as a rejected move
    /// (recorded with a `-inf` candidate objective and counted in
    /// [`SaTrial::eval_failures`]); the trial keeps going.
    pub fn run_trial(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        initial_objective: f64,
        evaluator: &mut dyn BatchEvaluator,
        trial_seed: u64,
    ) -> SaTrial {
        // A one-trial search always records its trial, even one a budget
        // cut short.
        Self::new(self.config.with_seed(trial_seed))
            .search(
                problem,
                initial,
                evaluator,
                Plan {
                    initial_objective: Some(initial_objective),
                    ..Plan::new(1, 1)
                },
                &Obs::disabled(),
            )
            .trials
            .remove(0)
    }

    /// Run `trials` independent trials from the same initial placement
    /// (the paper's multi-start scheme) and keep the best decision.
    pub fn optimize(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
    ) -> SaResult {
        self.optimize_observed(problem, initial, evaluator, trials, &Obs::disabled())
    }

    /// [`optimize`](Self::optimize) with search telemetry recorded into
    /// `obs`: `sa.proposals` / `sa.accepted` / `sa.trials` / `sa.evaluations`
    /// counters, `sa.accept_rate` / `sa.best_objective` / `sa.temperature` /
    /// `sa.evals_per_sec` gauges, and one `sa_trial` event per trial.
    /// Metrics are aggregated after each trial, so the hot accept/reject
    /// loop is untouched.
    pub fn optimize_observed(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        obs: &Obs,
    ) -> SaResult {
        self.search(problem, initial, evaluator, Plan::new(trials, 1), obs)
    }

    /// Neighborhood-batched annealing: each step proposes up to
    /// `neighborhood` candidates from the current decision, scores them
    /// all in **one** [`BatchEvaluator::total_throughput_batch`] call
    /// (for [`GnnEvaluator`], ChainNet's one inference forward with the
    /// candidates stacked as rows), and
    /// runs the Metropolis accept/reject test against the best-scoring
    /// candidate. Failed candidate evaluations are counted in
    /// [`SaTrial::eval_failures`] and skipped; a step whose whole
    /// neighborhood fails (or yields no feasible proposal) is a rejected
    /// step. Budgets, cancellation and telemetry are those of
    /// [`optimize_observed`](Self::optimize_observed), plus one
    /// `sa.batch_evals` count per batch call.
    ///
    /// # RNG contract
    ///
    /// Each step consumes `neighborhood` proposals, then at most one
    /// Metropolis draw. A width of 0 or 1 is therefore exactly
    /// [`optimize_observed`](Self::optimize_observed); wider trajectories
    /// are deterministic in `(config.seed, neighborhood)` and identical
    /// across batched and per-candidate evaluator backends, because
    /// [`GnnEvaluator`] scores a stacked candidate bit-identically to the
    /// same candidate alone: both run the same forward, at B = k and
    /// B = 1.
    ///
    /// [`GnnEvaluator`]: crate::evaluator::GnnEvaluator
    pub fn optimize_neighborhood_observed(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        neighborhood: usize,
        obs: &Obs,
    ) -> SaResult {
        self.search(
            problem,
            initial,
            evaluator,
            Plan::new(trials, neighborhood),
            obs,
        )
    }

    /// [`optimize_neighborhood_observed`](Self::optimize_neighborhood_observed)
    /// with crash-safe checkpointing: the complete search state —
    /// best-so-far placement, current/best objectives, temperature, raw
    /// RNG words, the neighborhood width and the cumulative evaluation
    /// count — is persisted to `store` every `every` steps and at every
    /// trial boundary, so a search killed at any point and rerun with
    /// `resume = true` continues the exact annealing trajectory and
    /// lands on a bit-identical best placement.
    ///
    /// The initial placement is evaluated exactly once per search, in
    /// the first process; resumed processes restore its stored
    /// objective. Wall-clock budgets restart at resume (time spent in a
    /// killed process is not carried over), while the evaluation cap
    /// counts evaluations across all processes.
    ///
    /// # Errors
    ///
    /// [`CkptError::InvalidCadence`] when `every == 0`;
    /// [`CkptError::NoCheckpoint`] when `resume` is set but `store`
    /// holds no usable checkpoint; [`CkptError::ResumeMismatch`] when
    /// the latest checkpoint belongs to a different configuration,
    /// trial count, neighborhood width or initial placement; and any
    /// I/O failure while saving.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize_checkpointed_observed(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        trials: usize,
        neighborhood: usize,
        store: &CkptStore,
        every: usize,
        resume: bool,
        obs: &Obs,
    ) -> Result<SaResult, PlacementError> {
        self.drive(
            problem,
            initial,
            evaluator,
            Plan::new(trials, neighborhood),
            obs,
            &mut StoreSink {
                store,
                every,
                resume,
                next_seq: 1,
            },
        )
    }

    /// Run trials until `budget_secs` of wall clock is exhausted (the
    /// fixed-time comparison of Section VIII-C4a). At least one trial
    /// always runs; the configuration's own budgets still apply.
    pub fn optimize_for(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        budget_secs: f64,
    ) -> SaResult {
        self.search(
            problem,
            initial,
            evaluator,
            Plan {
                time_box: Some(budget_secs),
                ..Plan::new(usize::MAX, 1)
            },
            &Obs::disabled(),
        )
    }

    /// [`drive`](Self::drive) without checkpoints, which cannot fail.
    fn search(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        plan: Plan,
        obs: &Obs,
    ) -> SaResult {
        let Ok(result) = self.drive(problem, initial, evaluator, plan, obs, &mut InMemory);
        result
    }

    /// The one search driver behind every entry point: multi-start
    /// trials from a shared initial placement, each a geometric-cooling
    /// trajectory of [`step`](Self::step)s, stopped early by
    /// cancellation or an exhausted budget with the best-so-far kept.
    /// Its whole state is one [`SaCheckpoint`], mutated in place and
    /// handed to `sink` every `sink.every()` steps and at every trial
    /// boundary.
    fn drive<S: Sink>(
        &self,
        problem: &PlacementProblem,
        initial: &Placement,
        evaluator: &mut dyn BatchEvaluator,
        plan: Plan,
        obs: &Obs,
        sink: &mut S,
    ) -> Result<SaResult, S::Error> {
        let start = wall_timer();
        evaluator.set_tracer(obs.tracer.clone());
        let mut ck = match sink.load(|ck| self.validate_sa_checkpoint(ck, plan, initial))? {
            Some(ck) => ck,
            // Graceful degradation: if even the initial placement cannot
            // be evaluated, the search still runs — any successfully
            // evaluated candidate beats `-inf` and becomes the best.
            None => {
                let initial_objective = plan.initial_objective.unwrap_or_else(|| {
                    evaluator
                        .total_throughput(problem, initial)
                        .unwrap_or(f64::NEG_INFINITY)
                });
                self.fresh(plan, initial, initial_objective)
            }
        };
        let eval_offset = ck.evaluations;
        let mut termination_reason = TerminationReason::Completed;
        let mut proposals_total = 0u64;
        let mut accepted_total = 0u64;
        while ck.trial < ck.trials {
            let trial_span = obs.tracer.span("sa.trial");
            let trial_start = wall_timer();
            let mut rng = SmallRng::from_state(ck.rng);
            let mut stopped = None;
            while ck.step_next < self.config.max_steps {
                stopped = self.exhausted(start, obs, eval_offset + evaluator.evaluations());
                if stopped.is_some() {
                    break;
                }
                self.step(problem, evaluator, &mut rng, &mut ck, trial_start, obs);
                // Mid-trial checkpoints at the cadence; the final step of
                // a trial is covered by the boundary checkpoint below.
                if sink.every().is_some_and(|every| ck.step_next % every == 0)
                    && ck.step_next < self.config.max_steps
                {
                    ck.rng = rng.state();
                    ck.evaluations = eval_offset + evaluator.evaluations();
                    sink.save(&ck)?;
                }
            }
            let trial = SaTrial {
                steps: std::mem::take(&mut ck.steps),
                improvements: std::mem::take(&mut ck.improvements),
                best_placement: ck.trial_best.clone(),
                best_objective: ck.trial_best_objective,
                elapsed_secs: trial_start.elapsed().as_secs_f64(),
                eval_failures: ck.eval_failures,
            };
            trial_span.close();
            if trial.best_objective > ck.best_objective {
                ck.best = trial.best_placement.clone();
                ck.best_objective = trial.best_objective;
            }
            if obs.is_enabled() {
                let proposals = trial.steps.len() as u64;
                let accepted = trial.steps.iter().filter(|s| s.accepted).count() as u64;
                proposals_total += proposals;
                accepted_total += accepted;
                obs.registry.counter("sa.trials").inc();
                obs.registry.counter("sa.proposals").add(proposals);
                obs.registry.counter("sa.accepted").add(accepted);
                if trial.eval_failures > 0 {
                    obs.registry
                        .counter("sa.eval_failures")
                        .add(trial.eval_failures);
                }
                if proposals_total > 0 {
                    obs.registry
                        .gauge("sa.accept_rate")
                        .set(accepted_total as f64 / proposals_total as f64);
                }
                obs.registry
                    .gauge("sa.best_objective")
                    .set(ck.best_objective);
                obs.registry.gauge("sa.temperature").set(
                    self.config.initial_temp * self.config.cooling.powi(trial.steps.len() as i32),
                );
                obs.events.emit(
                    "sa",
                    &SaTrialEvent {
                        kind: "sa_trial",
                        trial: ck.trial,
                        proposals,
                        accepted,
                        improvements: trial.improvements.len(),
                        best_objective: trial.best_objective,
                        elapsed_secs: trial.elapsed_secs,
                    },
                );
            }
            ck.completed.push(trial);
            ck.trial += 1;
            self.restart_trial(&mut ck);
            // Trial-boundary checkpoint (step_next == 0), saved after
            // every trial: a completed search leaves a final
            // `trial == trials` record that a resume returns directly,
            // and a stopped one leaves a shape a later resume continues.
            if sink.every().is_some() {
                ck.evaluations = eval_offset + evaluator.evaluations();
                sink.save(&ck)?;
            }
            if let Some(reason) = stopped {
                termination_reason = reason;
                break;
            }
            if plan
                .time_box
                .is_some_and(|secs| start.elapsed().as_secs_f64() >= secs)
            {
                break;
            }
        }

        let elapsed_secs = start.elapsed().as_secs_f64();
        let process_evals = evaluator.evaluations();
        if obs.is_enabled() {
            obs.registry.counter("sa.evaluations").add(process_evals);
            if elapsed_secs > 0.0 {
                obs.registry
                    .gauge("sa.evals_per_sec")
                    .set(process_evals as f64 / elapsed_secs);
            }
        }
        Ok(SaResult {
            trials: ck.completed,
            best_placement: ck.best,
            best_objective: ck.best_objective,
            initial_objective: ck.initial_objective,
            evaluations: eval_offset + process_evals,
            elapsed_secs,
            termination_reason,
        })
    }

    /// The state of a search that has not started: trial 0 at step 0.
    fn fresh(&self, plan: Plan, initial: &Placement, initial_objective: f64) -> SaCheckpoint {
        let mut ck = SaCheckpoint {
            config: self.config,
            trials: plan.trials,
            neighborhood: plan.neighborhood,
            initial: initial.clone(),
            initial_objective,
            evaluations: 0,
            best: initial.clone(),
            best_objective: initial_objective,
            completed: Vec::new(),
            trial: 0,
            step_next: 0,
            rng: [0; 4],
            current: initial.clone(),
            current_objective: initial_objective,
            trial_best: initial.clone(),
            trial_best_objective: initial_objective,
            temp: self.config.initial_temp,
            steps: Vec::new(),
            improvements: Vec::new(),
            eval_failures: 0,
        };
        self.restart_trial(&mut ck);
        ck
    }

    /// Reset the in-flight fields so trial `ck.trial` starts from the
    /// initial placement, the initial temperature and its own seed.
    fn restart_trial(&self, ck: &mut SaCheckpoint) {
        let seed = self.config.seed.wrapping_add(ck.trial as u64);
        ck.step_next = 0;
        ck.rng = SmallRng::seed_from_u64(seed).state();
        ck.current = ck.initial.clone();
        ck.current_objective = ck.initial_objective;
        ck.trial_best = ck.initial.clone();
        ck.trial_best_objective = ck.initial_objective;
        ck.temp = self.config.initial_temp;
        ck.steps = Vec::with_capacity(self.config.max_steps);
        ck.improvements = Vec::new();
        ck.eval_failures = 0;
    }

    /// Why the search must stop before its next step, if it must.
    /// Cancellation beats budget: a SIGTERM'd search says so even if the
    /// deadline lapsed at the same instant.
    fn exhausted(&self, start: Instant, obs: &Obs, evaluations: u64) -> Option<TerminationReason> {
        let deadline = self
            .config
            .max_wall_secs
            .filter(|s| s.is_finite() && *s >= 0.0);
        if obs.cancel.is_set() {
            Some(TerminationReason::Cancelled)
        } else if deadline.is_some_and(|secs| start.elapsed().as_secs_f64() >= secs) {
            Some(TerminationReason::WallClock)
        } else if self
            .config
            .max_evaluations
            .is_some_and(|cap| evaluations >= cap)
        {
            Some(TerminationReason::MaxEvaluations)
        } else {
            None
        }
    }

    /// Execute step `ck.step_next` of the in-flight trial at width
    /// `k = ck.neighborhood`: propose `k` candidates, score them, and run
    /// the Metropolis test on the best-scoring one (ties keep the
    /// earliest proposal). Width 1 scores its candidate with
    /// [`Evaluator::total_throughput`](crate::evaluator::Evaluator::total_throughput);
    /// wider steps make one
    /// [`BatchEvaluator::total_throughput_batch`] call under an
    /// `sa.iteration` span. An unevaluable candidate is skipped and
    /// counted; a step with nothing evaluable is a rejected step that
    /// leaves the decision and the best-so-far record intact.
    ///
    /// The RNG call order — `k` proposals, then a Metropolis draw only
    /// when the chosen candidate does not improve — is the bit-identity
    /// contract across entry points and checkpoint resume; do not
    /// reorder.
    fn step(
        &self,
        problem: &PlacementProblem,
        evaluator: &mut dyn BatchEvaluator,
        rng: &mut SmallRng,
        ck: &mut SaCheckpoint,
        trial_start: Instant,
        obs: &Obs,
    ) {
        let k = ck.neighborhood;
        let _iteration_span = (k > 1).then(|| obs.tracer.span("sa.iteration"));
        let mut candidates: Vec<Placement> = (0..k)
            .filter_map(|_| self.propose(problem, &ck.current, rng))
            .collect();
        let scores = if k == 1 || candidates.is_empty() {
            candidates
                .iter()
                .map(|c| evaluator.total_throughput(problem, c))
                .collect()
        } else {
            let batch_span = obs.tracer.span("sa.batch_eval");
            let scores = evaluator.total_throughput_batch(problem, &candidates);
            batch_span.close();
            if obs.is_enabled() {
                obs.registry.counter("sa.batch_evals").inc();
            }
            scores
        };
        ck.eval_failures += scores.iter().filter(|r| r.is_err()).count() as u64;
        let mut chosen: Option<(usize, f64)> = None;
        for (idx, score) in scores.iter().enumerate() {
            if let Ok(obj) = score {
                if chosen.is_none_or(|(_, top)| *obj > top) {
                    chosen = Some((idx, *obj));
                }
            }
        }
        let (candidate_objective, accepted) = match chosen {
            Some((idx, obj)) => {
                let accept = obj > ck.current_objective || {
                    let p = ((obj - ck.current_objective) / ck.temp.max(1e-12)).exp();
                    rng.gen::<f64>() < p
                };
                if accept {
                    ck.current = candidates.swap_remove(idx);
                    ck.current_objective = obj;
                    if obj > ck.trial_best_objective {
                        ck.trial_best = ck.current.clone();
                        ck.trial_best_objective = obj;
                        ck.improvements.push(SaImprovement {
                            step: ck.step_next,
                            elapsed_secs: trial_start.elapsed().as_secs_f64(),
                            placement: ck.trial_best.clone(),
                            objective: obj,
                        });
                    }
                }
                (obj, accept)
            }
            // No feasible proposal: nothing was scored.
            None if candidates.is_empty() => (ck.current_objective, false),
            // Every candidate failed to evaluate.
            None => (f64::NEG_INFINITY, false),
        };
        ck.temp *= self.config.cooling;
        ck.steps.push(SaStep {
            step: ck.step_next,
            candidate_objective,
            current_objective: ck.current_objective,
            best_objective: ck.trial_best_objective,
            accepted,
            elapsed_secs: trial_start.elapsed().as_secs_f64(),
        });
        ck.step_next += 1;
    }

    /// Reject a checkpoint that does not belong to this exact search:
    /// resuming it would silently change the annealing trajectory.
    fn validate_sa_checkpoint(
        &self,
        ck: &SaCheckpoint,
        plan: Plan,
        initial: &Placement,
    ) -> Result<(), PlacementError> {
        let mismatch = |reason: &str| {
            Err(PlacementError::Checkpoint(CkptError::ResumeMismatch {
                reason: reason.to_string(),
            }))
        };
        if ck.config != self.config {
            mismatch("search configuration differs from the checkpointed run")
        } else if ck.trials != plan.trials {
            mismatch("trial count differs from the checkpointed run")
        } else if ck.neighborhood != plan.neighborhood {
            mismatch("neighborhood width differs from the checkpointed run")
        } else if ck.initial != *initial {
            mismatch("initial placement differs from the checkpointed run")
        } else if ck.trial > plan.trials || (ck.trial == plan.trials && ck.step_next != 0) {
            mismatch("checkpoint is beyond the requested trial count")
        } else if ck.step_next > self.config.max_steps {
            mismatch("checkpoint is beyond the configured step count")
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Evaluator, SimEvaluator};
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};
    use chainnet_qsim::sim::SimConfig;

    /// A problem with one obviously bad and one obviously good device.
    fn lopsided_problem() -> PlacementProblem {
        let devices = vec![
            Device::new(3.0, 0.2).unwrap(),  // slow, tiny buffer
            Device::new(50.0, 3.0).unwrap(), // fast, large buffer
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

    #[test]
    fn proposals_stay_feasible() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            if let Some(cand) = sa.propose(&p, &init, &mut rng) {
                assert!(p.is_feasible(&cand));
            }
        }
    }

    #[test]
    fn proposals_change_the_placement() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let mut rng = SmallRng::seed_from_u64(2);
        let cand = sa.propose(&p, &init, &mut rng).unwrap();
        assert_ne!(cand, init);
    }

    #[test]
    fn search_improves_a_bad_start() {
        let p = lopsided_problem();
        // Worst start: both fragments forced through the slow device pair.
        let bad = Placement::new(vec![vec![0, 1]]);
        assert!(p.is_feasible(&bad));
        let mut ev = SimEvaluator::new(SimConfig::new(2_000.0, 3));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(40).with_seed(4));
        let res = sa.optimize(&p, &bad, &mut ev, 2);
        assert!(
            res.best_objective > res.initial_objective,
            "best {} vs initial {}",
            res.best_objective,
            res.initial_objective
        );
        // The slow device 0 should be avoided in the best placement.
        assert!(!res.best_placement.chain_route(0).contains(&0));
    }

    #[test]
    fn best_objective_is_monotone_within_trial() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 5));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(30));
        let res = sa.optimize(&p, &init, &mut ev, 1);
        let steps = &res.trials[0].steps;
        for w in steps.windows(2) {
            assert!(w[1].best_objective >= w[0].best_objective);
        }
    }

    #[test]
    fn trial_count_and_steps_respected() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(500.0, 6));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
        let res = sa.optimize(&p, &init, &mut ev, 3);
        assert_eq!(res.trials.len(), 3);
        assert!(res.trials.iter().all(|t| t.steps.len() == 10));
        // 1 initial + up to 30 candidate evaluations.
        assert!(res.evaluations <= 31);
    }

    #[test]
    fn fixed_time_runs_at_least_one_trial() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 7));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(5));
        let res = sa.optimize_for(&p, &init, &mut ev, 0.0);
        assert_eq!(res.trials.len(), 1);
    }

    #[test]
    fn observed_search_matches_plain_and_records_metrics() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let plain = sa.optimize(&p, &init, &mut ev1, 2);
        let obs = Obs::enabled();
        let observed = sa.optimize_observed(&p, &init, &mut ev2, 2, &obs);
        // Instrumentation must not perturb the search.
        assert_eq!(plain.best_placement, observed.best_placement);
        assert_eq!(plain.best_objective, observed.best_objective);
        assert_eq!(plain.evaluations, observed.evaluations);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["sa.trials"], 2);
        assert_eq!(snap.counters["sa.proposals"], 24);
        assert_eq!(snap.counters["sa.evaluations"], observed.evaluations);
        let accepted = snap.counters["sa.accepted"];
        assert!(accepted <= 24);
        assert_eq!(snap.gauges["sa.accept_rate"], accepted as f64 / 24.0);
        assert_eq!(snap.gauges["sa.best_objective"], observed.best_objective);
        let expected_temp = 0.5 * 0.9f64.powi(12);
        assert!((snap.gauges["sa.temperature"] - expected_temp).abs() < 1e-12);
    }

    #[test]
    fn traced_search_is_bit_identical_and_records_causal_spans() {
        use chainnet_obs::Tracer;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6));
        let mut ev1 = SimEvaluator::new(SimConfig::new(300.0, 11));
        let mut ev2 = SimEvaluator::new(SimConfig::new(300.0, 11));
        let plain = sa.optimize_neighborhood_observed(&p, &init, &mut ev1, 2, 3, &Obs::disabled());
        let obs = Obs::enabled().with_tracer(Tracer::enabled());
        let traced = sa.optimize_neighborhood_observed(&p, &init, &mut ev2, 2, 3, &obs);
        // Span tracing must not perturb the trajectory in any way.
        assert_eq!(plain.best_placement, traced.best_placement);
        assert_eq!(plain.best_objective, traced.best_objective);
        assert_eq!(plain.evaluations, traced.evaluations);
        // Per-step trajectory must be bit-identical under tracing
        // (`elapsed_secs` is wall clock, so it differs between any two
        // runs — compare the decision fields).
        assert_eq!(plain.trials[0].steps.len(), traced.trials[0].steps.len());
        for (a, b) in plain.trials[0].steps.iter().zip(&traced.trials[0].steps) {
            assert_eq!(a.candidate_objective, b.candidate_objective);
            assert_eq!(a.current_objective, b.current_objective);
            assert_eq!(a.best_objective, b.best_objective);
            assert_eq!(a.accepted, b.accepted);
        }
        let trace = obs.tracer.take();
        trace.validate().unwrap();
        let stats = trace.phase_stats();
        assert_eq!(stats["sa.trial"].count, 2);
        assert_eq!(stats["sa.iteration"].count, 12);
        // Iterations are children of trials, batch evals of iterations.
        let trial_ids: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name == "sa.trial")
            .map(|s| s.id)
            .collect();
        for s in trace.spans.iter().filter(|s| s.name == "sa.iteration") {
            assert!(trial_ids.contains(&s.parent));
        }
    }

    #[test]
    fn search_with_budget_exceeding_needs_runs_to_completion() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(8)
            .with_max_evaluations(10_000)
            .with_max_wall_secs(3_600.0);
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 1));
        let res = SimulatedAnnealing::new(cfg).optimize(&p, &init, &mut ev, 2);
        assert_eq!(res.termination_reason, TerminationReason::Completed);
        assert_eq!(res.trials.len(), 2);
    }

    #[test]
    fn evaluation_cap_stops_early_with_best_so_far() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(50)
            .with_max_evaluations(7);
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 2));
        let res = SimulatedAnnealing::new(cfg).optimize(&p, &init, &mut ev, 5);
        assert_eq!(res.termination_reason, TerminationReason::MaxEvaluations);
        // The cap is checked before each candidate: at most one overshoot.
        assert!(res.evaluations <= 8, "evaluations {}", res.evaluations);
        assert!(res.trials.len() < 5);
        assert!(res.best_objective >= res.initial_objective);
        assert!(p.is_feasible(&res.best_placement));
    }

    #[test]
    fn wall_clock_deadline_stops_early_with_best_so_far() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(50)
            .with_max_wall_secs(0.0);
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 3));
        let res = SimulatedAnnealing::new(cfg).optimize(&p, &init, &mut ev, 3);
        assert_eq!(res.termination_reason, TerminationReason::WallClock);
        // Deadline already passed: only the initial evaluation happened,
        // and the initial placement is returned as best-so-far.
        assert_eq!(res.evaluations, 1);
        assert_eq!(res.best_placement, init);
    }

    #[test]
    fn search_survives_a_nan_rigged_surrogate_via_fallback() {
        use crate::evaluator::{GnnEvaluator, ResilientEvaluator};
        use chainnet::config::ModelConfig;
        use chainnet::graph::PlacementGraph;
        use chainnet::model::{ChainNet, PerfPrediction, Surrogate};
        use chainnet_obs::Obs;

        /// A surrogate whose predictions are rigged to NaN.
        struct NanRigged(ChainNet);
        impl Surrogate for NanRigged {
            fn name(&self) -> &str {
                "nan-rigged"
            }
            fn config(&self) -> &ModelConfig {
                self.0.config()
            }
            fn params(&self) -> &chainnet_neural::params::ParamStore {
                self.0.params()
            }
            fn params_mut(&mut self) -> &mut chainnet_neural::params::ParamStore {
                self.0.params_mut()
            }
            fn loss_on_graph(
                &self,
                tape: &mut chainnet_neural::tape::Tape,
                graph: &PlacementGraph,
                targets: &[chainnet::data::ChainTargets],
            ) -> chainnet_neural::tape::Var {
                self.0.loss_on_graph(tape, graph, targets)
            }
            fn predict(&self, graph: &PlacementGraph) -> Vec<PerfPrediction> {
                self.0
                    .predict(graph)
                    .into_iter()
                    .map(|mut p| {
                        p.throughput = f64::NAN;
                        p
                    })
                    .collect()
            }
        }

        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let obs = Obs::enabled();
        let rigged = GnnEvaluator::new(NanRigged(ChainNet::new(ModelConfig::small(), 7)));
        let mut ev = ResilientEvaluator::new_observed(
            rigged,
            SimEvaluator::new(SimConfig::new(500.0, 4)),
            obs.clone(),
        );
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
        let res = sa.optimize_observed(&p, &init, &mut ev, 1, &obs);
        // The search completed on fallback evaluations alone: the best
        // decision is valid and every evaluation was answered.
        assert_eq!(res.termination_reason, TerminationReason::Completed);
        assert!(res.best_objective.is_finite());
        assert!(res.best_objective > 0.0);
        assert!(p.is_feasible(&res.best_placement));
        assert!(ev.fallback_evals() > 0);
        let snap = obs.registry.snapshot();
        assert!(snap.counters["sa.fallback_evals"] > 0);
        // Every candidate was answered by the fallback, so the SA loop
        // itself saw no failures.
        assert_eq!(res.trials[0].eval_failures, 0);
    }

    #[test]
    fn search_skips_failing_candidates_without_a_fallback() {
        use crate::error::PlacementError;

        /// Fails on every candidate except the very first evaluation.
        struct FailAfterFirst {
            count: u64,
        }
        impl Evaluator for FailAfterFirst {
            fn name(&self) -> &str {
                "fail-after-first"
            }
            fn total_throughput(
                &mut self,
                _problem: &PlacementProblem,
                _placement: &Placement,
            ) -> Result<f64, PlacementError> {
                self.count += 1;
                if self.count == 1 {
                    Ok(0.5)
                } else {
                    Err(PlacementError::NonFiniteObjective {
                        evaluator: "fail-after-first".into(),
                        value: f64::NAN,
                    })
                }
            }
            fn evaluations(&self) -> u64 {
                self.count
            }
        }
        impl BatchEvaluator for FailAfterFirst {}

        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let mut ev = FailAfterFirst { count: 0 };
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
        let res = sa.optimize(&p, &init, &mut ev, 1);
        // All candidates failed: the initial placement survives as best.
        assert_eq!(res.best_placement, init);
        assert_eq!(res.best_objective, 0.5);
        assert!(res.trials[0].eval_failures > 0);
        assert!(res.trials[0].steps.iter().all(|s| !s.accepted));
    }

    /// A fresh (removed-if-present) per-process temp dir for checkpoints.
    fn ckpt_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chainnet-sa-ckpt-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Zero out all wall-clock fields: everything else in a search
    /// result must be bit-identical across kill/resume boundaries.
    fn strip_time(mut r: SaResult) -> SaResult {
        r.elapsed_secs = 0.0;
        for t in &mut r.trials {
            t.elapsed_secs = 0.0;
            for s in &mut t.steps {
                s.elapsed_secs = 0.0;
            }
            for i in &mut t.improvements {
                i.elapsed_secs = 0.0;
            }
        }
        r
    }

    /// Copy checkpoints `1..=upto` from one store's dir to another's,
    /// simulating exactly what a killed process leaves behind.
    fn copy_ckpt_prefix(src: &chainnet_ckpt::CkptStore, dst: &chainnet_ckpt::CkptStore, upto: u64) {
        for seq in src.list().unwrap() {
            if seq <= upto {
                std::fs::copy(src.path_of(seq), dst.path_of(seq)).unwrap();
            }
        }
    }

    #[test]
    fn checkpointed_search_matches_plain_and_writes_at_cadence() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 9));
        let plain = sa.optimize(&p, &init, &mut ev1, 2);
        let dir = ckpt_tmp_dir("plain");
        let obs = Obs::enabled();
        let store =
            chainnet_ckpt::CkptStore::open_observed(&dir, "sa", SA_CKPT_SCHEMA, &obs).unwrap();
        let ckpt = sa
            .optimize_checkpointed_observed(&p, &init, &mut ev2, 2, 1, &store, 5, false, &obs)
            .unwrap();
        assert_eq!(strip_time(plain), strip_time(ckpt));
        // Two mid-trial saves (steps 5 and 10) plus one boundary save
        // per trial.
        assert_eq!(store.list().unwrap(), vec![1, 2, 3, 4, 5, 6]);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters["ckpt.writes"], 6);
        assert_eq!(snap.counters["sa.trials"], 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_and_resumed_search_is_bit_identical() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12).with_seed(3));
        let dir_full = ckpt_tmp_dir("kill-full");
        let dir_cut = ckpt_tmp_dir("kill-cut");
        let full_store = chainnet_ckpt::CkptStore::open(&dir_full, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev_full = SimEvaluator::new(SimConfig::new(500.0, 11));
        let full = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev_full,
                2,
                1,
                &full_store,
                3,
                false,
                &Obs::disabled(),
            )
            .unwrap();

        // A kill mid-trial-1 leaves checkpoints 1..=4 behind (three
        // mid-trial saves at steps 3/6/9, one boundary for trial 0).
        let cut_store = chainnet_ckpt::CkptStore::open(&dir_cut, "sa", SA_CKPT_SCHEMA).unwrap();
        copy_ckpt_prefix(&full_store, &cut_store, 4);
        let mut ev_cut = SimEvaluator::new(SimConfig::new(500.0, 11));
        let resumed = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev_cut,
                2,
                1,
                &cut_store,
                3,
                true,
                &Obs::disabled(),
            )
            .unwrap();

        assert_eq!(full.evaluations, resumed.evaluations);
        assert_eq!(strip_time(full), strip_time(resumed));
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_cut);
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_and_still_matches() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10).with_seed(5));
        let dir_full = ckpt_tmp_dir("corrupt-full");
        let dir_cut = ckpt_tmp_dir("corrupt-cut");
        let full_store = chainnet_ckpt::CkptStore::open(&dir_full, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev_full = SimEvaluator::new(SimConfig::new(500.0, 13));
        let full = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev_full,
                1,
                1,
                &full_store,
                2,
                false,
                &Obs::disabled(),
            )
            .unwrap();

        let cut_store = chainnet_ckpt::CkptStore::open(&dir_cut, "sa", SA_CKPT_SCHEMA).unwrap();
        copy_ckpt_prefix(&full_store, &cut_store, 3);
        // Flip one payload bit in the newest surviving checkpoint.
        let newest = cut_store.path_of(3);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();

        let mut ev_cut = SimEvaluator::new(SimConfig::new(500.0, 13));
        let resumed = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev_cut,
                1,
                1,
                &cut_store,
                2,
                true,
                &Obs::disabled(),
            )
            .unwrap();
        // The corrupt file was quarantined and the run fell back to
        // checkpoint 2 — still landing on the identical result.
        assert_eq!(strip_time(full), strip_time(resumed));
        let quarantined = dir_cut.join("sa-00000003.ckpt.corrupt");
        assert!(quarantined.exists(), "corrupt checkpoint not quarantined");
        let _ = std::fs::remove_dir_all(&dir_full);
        let _ = std::fs::remove_dir_all(&dir_cut);
    }

    #[test]
    fn resume_of_completed_search_returns_final_state() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(8).with_seed(7));
        let dir = ckpt_tmp_dir("completed");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 17));
        let first = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev1,
                2,
                1,
                &store,
                4,
                false,
                &Obs::disabled(),
            )
            .unwrap();
        // No work left: the resumed run restores the stored result
        // without consuming a single evaluation.
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 17));
        let resumed = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev2,
                2,
                1,
                &store,
                4,
                true,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(ev2.evaluations(), 0);
        assert_eq!(first.evaluations, resumed.evaluations);
        assert_eq!(first.best_placement, resumed.best_placement);
        assert_eq!(first.best_objective, resumed.best_objective);
        assert_eq!(strip_time(first).trials, strip_time(resumed).trials);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cadence_zero_is_a_typed_error() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let dir = ckpt_tmp_dir("cadence");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 1));
        let err = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev,
                1,
                1,
                &store,
                0,
                false,
                &Obs::disabled(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::InvalidCadence)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_is_a_typed_error() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default());
        let dir = ckpt_tmp_dir("empty");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 1));
        let err = sa
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev,
                1,
                1,
                &store,
                5,
                true,
                &Obs::disabled(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::NoCheckpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_changed_config_is_a_mismatch() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let dir = ckpt_tmp_dir("mismatch");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6).with_seed(1));
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 2));
        sa.optimize_checkpointed_observed(
            &p,
            &init,
            &mut ev,
            1,
            1,
            &store,
            3,
            false,
            &Obs::disabled(),
        )
        .unwrap();
        // Same store, different seed: resuming would silently change
        // the trajectory, so it must be refused.
        let other =
            SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6).with_seed(2));
        let mut ev2 = SimEvaluator::new(SimConfig::new(200.0, 2));
        let err = other
            .optimize_checkpointed_observed(
                &p,
                &init,
                &mut ev2,
                1,
                1,
                &store,
                3,
                true,
                &Obs::disabled(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::ResumeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn neighborhood_search_improves_a_bad_start() {
        let p = lopsided_problem();
        let bad = Placement::new(vec![vec![0, 1]]);
        let mut ev = SimEvaluator::new(SimConfig::new(1_000.0, 3));
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(15).with_seed(4));
        let res = sa.optimize_neighborhood_observed(&p, &bad, &mut ev, 1, 4, &Obs::disabled());
        assert!(res.best_objective > res.initial_objective);
        assert!(p.is_feasible(&res.best_placement));
        assert_eq!(res.trials[0].steps.len(), 15);
    }

    #[test]
    fn neighborhood_search_is_deterministic() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10).with_seed(2));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let a = sa.optimize_neighborhood_observed(&p, &init, &mut ev1, 2, 3, &Obs::disabled());
        let b = sa.optimize_neighborhood_observed(&p, &init, &mut ev2, 2, 3, &Obs::disabled());
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.evaluations, b.evaluations);
    }

    /// The batched surrogate backend and a one-candidate-per-call
    /// backend must walk the exact same trajectory: a stacked candidate
    /// scores bit-identically to the same candidate alone, and the
    /// driver consumes RNG identically.
    #[test]
    fn neighborhood_trajectory_identical_across_batched_and_sequential_backends() {
        use crate::evaluator::{BatchEvaluator, GnnEvaluator};
        use chainnet::config::ModelConfig;
        use chainnet::model::ChainNet;

        /// A GnnEvaluator stripped of its batch override: scores each
        /// candidate with its own B = 1 forward.
        struct SequentialOnly(GnnEvaluator<ChainNet>);
        impl Evaluator for SequentialOnly {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn total_throughput(
                &mut self,
                problem: &PlacementProblem,
                placement: &Placement,
            ) -> Result<f64, PlacementError> {
                self.0.total_throughput(problem, placement)
            }
            fn evaluations(&self) -> u64 {
                self.0.evaluations()
            }
        }
        impl BatchEvaluator for SequentialOnly {}

        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let net = ChainNet::new(ModelConfig::small(), 21);
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(12).with_seed(6));
        let mut batched = GnnEvaluator::new(net.clone());
        let mut sequential = SequentialOnly(GnnEvaluator::new(net));
        let a = sa.optimize_neighborhood_observed(&p, &init, &mut batched, 2, 4, &Obs::disabled());
        let b =
            sa.optimize_neighborhood_observed(&p, &init, &mut sequential, 2, 4, &Obs::disabled());
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_objective.to_bits(), b.best_objective.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        for (ta, tb) in a.trials.iter().zip(&b.trials) {
            for (sa_step, sb_step) in ta.steps.iter().zip(&tb.steps) {
                assert_eq!(
                    sa_step.candidate_objective.to_bits(),
                    sb_step.candidate_objective.to_bits()
                );
                assert_eq!(sa_step.accepted, sb_step.accepted);
            }
        }
    }

    /// An in-memory JSON-lines event sink shared with the test.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn neighborhood_search_records_batch_metrics() {
        use chainnet_obs::EventLog;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(8));
        let observe = |k: usize| {
            let mut ev = SimEvaluator::new(SimConfig::new(500.0, 9));
            let buf = SharedBuf::default();
            let obs = Obs::enabled().with_events(EventLog::to_writer(Box::new(buf.clone())));
            let res = sa.optimize_neighborhood_observed(&p, &init, &mut ev, 2, k, &obs);
            let events = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            (res, obs.registry.snapshot(), events)
        };
        let (_, snap1, events1) = observe(1);
        let (res, snap, events) = observe(4);
        assert_eq!(snap.counters["sa.trials"], 2);
        // One batch call per step that produced at least one proposal.
        let batches = snap.counters["sa.batch_evals"];
        assert!((1..=16).contains(&batches), "batches {batches}");
        assert_eq!(snap.counters["sa.evaluations"], res.evaluations);
        assert_eq!(snap.gauges["sa.best_objective"], res.best_objective);
        // Width 4 records everything width 1 does, plus the batch count.
        fn names<V>(m: &std::collections::BTreeMap<String, V>) -> Vec<String> {
            m.keys().filter(|n| n.starts_with("sa.")).cloned().collect()
        }
        let mut want = names(&snap1.counters);
        want.push("sa.batch_evals".to_string());
        want.sort();
        assert_eq!(names(&snap.counters), want);
        assert_eq!(names(&snap.gauges), names(&snap1.gauges));
        assert!(!snap1.counters.contains_key("sa.batch_evals"));
        assert_eq!(snap.counters["sa.proposals"], 16);
        assert_eq!(
            snap.gauges["sa.accept_rate"],
            snap.counters["sa.accepted"] as f64 / 16.0
        );
        let trial_events = |log: &str| log.lines().filter(|l| l.contains("\"sa_trial\"")).count();
        assert_eq!(trial_events(&events1), 2);
        assert_eq!(trial_events(&events), 2);
    }

    #[test]
    fn neighborhood_search_honours_the_evaluation_cap() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(50)
            .with_max_evaluations(9);
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 2));
        let res = SimulatedAnnealing::new(cfg).optimize_neighborhood_observed(
            &p,
            &init,
            &mut ev,
            5,
            4,
            &Obs::disabled(),
        );
        assert_eq!(res.termination_reason, TerminationReason::MaxEvaluations);
        // The cap is checked before each step; one step scores at most
        // four candidates.
        assert!(
            (9..=12).contains(&res.evaluations),
            "evaluations {}",
            res.evaluations
        );
        assert_eq!(res.trials.len(), 1);
        assert!(res.best_objective >= res.initial_objective);
        assert!(p.is_feasible(&res.best_placement));
    }

    #[test]
    fn neighborhood_search_honours_the_wall_clock_deadline() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let cfg = SaConfig::paper_default()
            .with_max_steps(50)
            .with_max_wall_secs(0.0);
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 3));
        let res = SimulatedAnnealing::new(cfg).optimize_neighborhood_observed(
            &p,
            &init,
            &mut ev,
            3,
            4,
            &Obs::disabled(),
        );
        assert_eq!(res.termination_reason, TerminationReason::WallClock);
        // Deadline already passed: only the initial evaluation happened,
        // and the initial placement is kept as best-so-far.
        assert_eq!(res.evaluations, 1);
        assert_eq!(res.best_placement, init);
        assert_eq!(res.best_objective, res.initial_objective);
    }

    #[test]
    fn resume_with_changed_neighborhood_is_a_mismatch() {
        use crate::error::PlacementError;
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let dir = ckpt_tmp_dir("mismatch-k");
        let store = chainnet_ckpt::CkptStore::open(&dir, "sa", SA_CKPT_SCHEMA).unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(6));
        let obs = Obs::disabled();
        let mut ev = SimEvaluator::new(SimConfig::new(200.0, 2));
        sa.optimize_checkpointed_observed(&p, &init, &mut ev, 1, 4, &store, 3, false, &obs)
            .unwrap();
        let mut ev2 = SimEvaluator::new(SimConfig::new(200.0, 2));
        let err = sa
            .optimize_checkpointed_observed(&p, &init, &mut ev2, 1, 2, &store, 3, true, &obs)
            .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Checkpoint(chainnet_ckpt::CkptError::ResumeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_reproduces_search() {
        let p = lopsided_problem();
        let init = p.initial_placement().unwrap();
        let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(15));
        let mut ev1 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let mut ev2 = SimEvaluator::new(SimConfig::new(500.0, 8));
        let a = sa.optimize(&p, &init, &mut ev1, 1);
        let b = sa.optimize(&p, &init, &mut ev2, 1);
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_objective, b.best_objective);
    }
}
