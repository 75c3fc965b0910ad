//! The two daemon workloads, driven over the JSON-lines protocol on one
//! TCP connection with an open-loop, seeded Poisson schedule:
//!
//! * `serve-gnn` — one `chainnet-serve --model … --state-dir …` with
//!   default engine settings on the Sec. VIII-D case study: forward
//!   inference of the paper's surrogate dominates every `Place`.
//! * `serve-pool` — `chainnet-serve --workers 2 --state-dir …` with the
//!   analytic evaluator on seeded Table VII topologies, loaded with
//!   bursts of `Place`s after a warm-up that fills the answer ledger:
//!   supervisor routing, protocol JSON and the write-ahead ledger
//!   dominate. In a traced run a ladder of Poisson rates after the
//!   reference phase finds `slo_qps`. It is not one of the workloads in
//!   `BENCHMARK.json` (its latencies follow the shared host's disk and
//!   scheduler too closely to hold a bound); a traced `serve-gnn` run
//!   runs it for the pool's layers, and it can be run by hand.
//!
//! Both mix in `Fault` events (crash/recover, degrade/restore,
//! burst/calm), one request in [`FAULT_EVERY`]: each mutates serving
//! state, runs a repair and persists a checkpoint.

use crate::client::{open_loop, preview, request_line, Daemon, PhaseResult, Planned};
use crate::report::RunReport;
use crate::stats::{latency_from_due_ms, median, percentile, send_lag_ms, Fate, StepTally};
use crate::{peak_rss_mb, Opts};
use chainnet::model::ChainNet;
use chainnet_ckpt::CkptStore;
use chainnet_datagen::case_study::case_study_problem;
use chainnet_datagen::problems::{ProblemGenerator, ProblemParams};
use chainnet_obs::{Obs, Snapshot, Tracer};
use chainnet_placement::evaluator::{ApproxEvaluator, Evaluator, GnnEvaluator};
use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::faults::{FaultEvent, FaultKind};
use chainnet_serve::engine::{
    apply_fault_to_parts, Engine, EngineConfig, FactorEntry, SERVE_CKPT_SCHEMA,
};
use chainnet_serve::protocol::{
    parse_request_line, DegradationLevel, Outcome, RequestBody, Response,
};
use chainnet_serve::supervisor::{LedgerEntry, SupervisorState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Daemons set up per run; `setup_s` is their median and the last one
/// serves the load.
const SETUPS: usize = 9;

/// How long a synchronous request may take before the run gives up.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// The SLO of `serve-pool`'s rate ladder: at least this share of
/// `Place`s answered within [`SLO_LIMIT_MS`] of their due time.
pub const SLO_SHARE: f64 = 0.99;
/// Latency limit of the SLO, in milliseconds.
pub const SLO_LIMIT_MS: f64 = 50.0;

/// FNV-1a digest of the answer lines of the fixed `serve-gnn` reference
/// probe ([`PROBE`]). The engine is deterministic without deadlines, so
/// a different digest is a behaviour change.
pub const REFERENCE_GNN_DIGEST: u64 = 0xbaa4_66ac_f4e4_a1ca;

/// The fixed reference probe sent to every fresh `serve-gnn` daemon
/// before the measured load: place, crash device 1, place, recover it.
const PROBE: &[Option<FaultKind>] = &[
    None,
    Some(FaultKind::DeviceCrash { device: 1 }),
    None,
    Some(FaultKind::DeviceRecover { device: 1 }),
];

/// Every this-many-th planned request is a `Fault` (4%): the cadence at
/// which the repository's soak test (`examples/soak.rs`) interleaves
/// faults with `Place`s. Both serve workloads use it.
pub const FAULT_EVERY: usize = 25;

/// How the requests of an open-loop phase are due.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arrivals {
    /// Poisson arrivals at this many requests per second.
    Poisson(f64),
    /// `size` requests due together every `every_s` seconds.
    Bursts { size: usize, every_s: f64 },
}

impl Arrivals {
    /// Offered rate, requests per second.
    fn rate(self) -> f64 {
        match self {
            Arrivals::Poisson(rate) => rate,
            Arrivals::Bursts { size, every_s } => size as f64 / every_s,
        }
    }
}

/// Due time of the `n`-th request (from 0) of a phase of bursts.
fn burst_due_s(n: usize, size: usize, every_s: f64) -> f64 {
    (n / size.max(1)) as f64 * every_s
}

/// The shape of one serve workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Shard workers (0 = single engine with the surrogate loaded).
    workers: usize,
    /// Arrivals of the reference phase.
    load: Arrivals,
    /// Requests sent before the reference phase, and their arrivals:
    /// checked, but left out of the latencies.
    warmup: Option<(usize, Arrivals)>,
    /// Fixed tail percentile reported as `tail_ms`.
    tail_pct: f64,
    /// `Place`s each reference phase (one per topology) plans at least;
    /// over all phases, at least ten lie beyond the tail percentile.
    min_places: usize,
    /// Whether a traced run climbs the SLO rate ladder after the
    /// reference phase.
    ladder: bool,
}

/// The SLO rate ladder: up to [`LADDER_RUNGS`] rungs from
/// [`LADDER_START`] requests per second, up by [`LADDER_FACTOR`] per
/// rung. It climbs until a rung saturates the pool, which on a 2-vCPU
/// Linux container happens between 186 and 233 requests per second for
/// most seeds' topologies; the reference phase leaves time for the rungs
/// up to the first one past [`LADDER_TOP`]. A rung lasts at least
/// [`LADDER_MIN_SECS`] and plans at least [`LADDER_MIN_PLACES`], so one
/// late answer does not break the 99% share on its own.
const LADDER_START: f64 = 25.0;
const LADDER_FACTOR: f64 = 1.25;
const LADDER_RUNGS: usize = 20;
const LADDER_TOP: f64 = 250.0;
const LADDER_MIN_SECS: f64 = 1.0;
const LADDER_MIN_PLACES: usize = 100;

/// The ladder's rates, lowest first.
fn ladder_rates() -> Vec<f64> {
    (0..LADDER_RUNGS)
        .map(|k| LADDER_START * LADDER_FACTOR.powi(k as i32))
        .collect()
}

/// Seconds a rung at `rate` plans for at least `places` `Place`s.
fn rung_secs(rate: f64, places: usize) -> f64 {
    let requests = places as f64 * FAULT_EVERY as f64 / (FAULT_EVERY - 1) as f64;
    (requests / rate).max(LADDER_MIN_SECS)
}

/// Stop sending once this many requests are outstanding, below the
/// daemon's 64-deep admission queue, so a saturated rung shows as
/// backlog rather than as shed requests.
const MAX_BACKLOG: usize = 48;
/// How long to wait for answers still outstanding after the last send.
const DRAIN: Duration = Duration::from_secs(60);

const GNN_SHAPE: Shape = Shape {
    workers: 0,
    load: Arrivals::Poisson(0.6),
    warmup: None,
    tail_pct: 60.0,
    min_places: 25,
    ladder: false,
};

/// serve-pool's reference load: 16 `Place`s at once every quarter
/// second (64 requests/s on average). A burst keeps both workers and
/// the supervisor busy until it is answered, so its latencies follow
/// the pool's service rate rather than how fast an idle host wakes
/// each process in the chain; an answer takes about 50 ms (p50) and
/// 85 ms (p90) from the burst's due time, well inside the supervisor's
/// 150 ms hedge delay, and the pool is idle about two thirds of the
/// time. The warm-up sends 300 requests in bursts every 0.1 s first,
/// so the reference phase starts with the supervisor's 256-entry
/// answer ledger full, as on a long-running daemon.
const POOL_SHAPE: Shape = Shape {
    workers: 2,
    load: Arrivals::Bursts {
        size: 16,
        every_s: 0.25,
    },
    warmup: Some((
        300,
        Arrivals::Bursts {
            size: 16,
            every_s: 0.1,
        },
    )),
    tail_pct: 90.0,
    min_places: 16,
    ladder: true,
};

/// Layers only a supervised pool has. A traced `serve-gnn` run reports
/// them from its pool under these names, and the pool's other numbers
/// under `pool.`.
const POOL_ONLY: &[&str] = &[
    "serve.slo_qps",
    "supervisor.hedge_win_ratio",
    "supervisor.reroutes",
];

/// Run `serve-gnn`. A traced run then runs `serve-pool`, traced, on a
/// daemon of its own, so the one serve workload of the benchmark also
/// measures the supervisor, the answer ledger and the SLO rate.
pub fn run_gnn(opts: &Opts, report: &mut RunReport) -> Result<(), String> {
    let problem = case_study_problem().map_err(|e| format!("case study: {e}"))?;
    let (model_path, model) = crate::write_bare_model(opts)?;
    Workload::new(opts, GNN_SHAPE, vec![problem], Some((model_path, model))).run(report)?;
    if opts.trace {
        let pool_opts = Opts {
            work_dir: opts.work_dir.join("pool"),
            ..opts.clone()
        };
        let mut pool = RunReport::default();
        run_pool(&pool_opts, &mut pool)?;
        report.absorb(pool, "pool.", POOL_ONLY);
    }
    Ok(())
}

/// Seeded Table VII topologies the `serve-pool` reference phase cycles
/// through, so one run averages over many topology sizes: a `Place`
/// costs 3.9–8.4 ms of engine time depending on the topology (a
/// coefficient of variation near 0.2 over 40 seeds).
const POOL_TOPOLOGIES: u64 = 24;

/// Run `serve-pool`.
pub fn run_pool(opts: &Opts, report: &mut RunReport) -> Result<(), String> {
    let gen = ProblemGenerator::new(ProblemParams::paper_default(20));
    let topologies = (0..POOL_TOPOLOGIES)
        .map(|k| gen.generate(opts.seed.wrapping_mul(POOL_TOPOLOGIES).wrapping_add(k)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("topology: {e}"))?;
    Workload::new(opts, POOL_SHAPE, topologies, None).run(report)
}

/// What a planned request is.
#[derive(Debug, Clone)]
enum Kind {
    Place,
    Fault(FaultEvent),
}

/// A checked request: its latency from due time, or how it failed.
type Checked = Result<f64, (Fate, String)>;

/// What a phase is for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// Before the reference phase; checked, not measured.
    Warmup,
    /// Its `Place` latencies are `p50_ms` and `tail_ms`.
    Reference,
    /// A rung of the SLO rate ladder.
    Rung,
}

/// One open-loop phase as sent and observed.
struct Phase {
    /// Index of the topology the phase ran on.
    topology: usize,
    role: Role,
    kinds: Vec<Kind>,
    plan: Vec<Planned>,
    result: PhaseResult,
    /// Per sent request index: latency from due time, or the failure.
    fates: Vec<(usize, Checked)>,
    /// The `Place`s of the phase, tallied.
    tally: StepTally,
}

/// Fault events in open/close pairs, so the effective topology never
/// drifts far from nominal: crash → recover, degrade → restore,
/// burst → calm, on seeded devices and chains.
struct FaultCycle {
    rng: SmallRng,
    pending_close: Option<FaultKind>,
}

impl FaultCycle {
    fn next(&mut self, devices: usize, chains: usize) -> FaultKind {
        if let Some(close) = self.pending_close.take() {
            return close;
        }
        let (open, close) = match self.rng.gen_range(0..3u32) {
            0 => {
                let device = self.rng.gen_range(0..devices);
                (
                    FaultKind::DeviceCrash { device },
                    FaultKind::DeviceRecover { device },
                )
            }
            1 => {
                let device = self.rng.gen_range(0..devices);
                let factor = self.rng.gen_range(0.4..0.8);
                (
                    FaultKind::ServiceDegrade { device, factor },
                    FaultKind::ServiceRestore { device },
                )
            }
            _ => {
                let chain = self.rng.gen_range(0..chains);
                let factor = self.rng.gen_range(1.5..2.5);
                (
                    FaultKind::ArrivalBurst { chain, factor },
                    FaultKind::ArrivalCalm { chain },
                )
            }
        };
        self.pending_close = Some(close);
        open
    }
}

/// The serving state the daemon should be in: nominal topology plus
/// the faults applied so far, materialized exactly as the engine does.
#[derive(Clone)]
struct Mirror {
    nominal: PlacementProblem,
    crashed: Vec<usize>,
    degraded: Vec<FactorEntry>,
    bursts: Vec<FactorEntry>,
}

impl Mirror {
    fn new(nominal: PlacementProblem) -> Self {
        Self {
            nominal,
            crashed: Vec::new(),
            degraded: Vec::new(),
            bursts: Vec::new(),
        }
    }

    fn apply(&mut self, event: &FaultEvent) -> Result<(), String> {
        let (d, c) = (self.nominal.num_devices(), self.nominal.num_chains());
        apply_fault_to_parts(
            event,
            d,
            c,
            &mut self.crashed,
            &mut self.degraded,
            &mut self.bursts,
        )
        .map_err(|e| format!("fault {event:?}: {e}"))
    }

    /// The effective topology: degraded service rates, crashed devices
    /// with no memory, burst arrival rates.
    fn effective(&self) -> PlacementProblem {
        let mut eff = self.nominal.clone();
        for e in &self.degraded {
            if let Some(d) = eff.devices.get_mut(e.idx) {
                d.service_rate *= e.factor;
            }
        }
        for &k in &self.crashed {
            if let Some(d) = eff.devices.get_mut(k) {
                d.memory = f64::MIN_POSITIVE;
            }
        }
        for e in &self.bursts {
            if let Some(c) = eff.chains.get_mut(e.idx) {
                c.arrival_rate *= e.factor;
            }
        }
        eff
    }
}

/// Re-scores `Place` answers with the evaluator the daemon used.
enum Scorer {
    Gnn(Box<GnnEvaluator<ChainNet>>),
    Approx(ApproxEvaluator),
}

impl Scorer {
    fn score(
        &mut self,
        eff: &PlacementProblem,
        p: &chainnet_qsim::model::Placement,
    ) -> Option<f64> {
        match self {
            Scorer::Gnn(ev) => ev.total_throughput(eff, p).ok(),
            Scorer::Approx(ev) => ev.total_throughput(eff, p).ok(),
        }
    }
}

struct Workload<'a> {
    opts: &'a Opts,
    shape: Shape,
    topologies: Vec<PlacementProblem>,
    surrogate: Option<(PathBuf, ChainNet)>,
    rng: SmallRng,
    faults: FaultCycle,
    tracer: Tracer,
    /// The serving state the daemon should be in, advanced as each
    /// phase is checked.
    mirror: Mirror,
    /// Re-scores `Place` answers with the daemon's evaluator.
    scorer: Scorer,
    /// Requests planned so far, over all phases; every
    /// [`FAULT_EVERY`]-th is a `Fault`.
    planned: usize,
}

impl<'a> Workload<'a> {
    fn new(
        opts: &'a Opts,
        shape: Shape,
        topologies: Vec<PlacementProblem>,
        surrogate: Option<(PathBuf, ChainNet)>,
    ) -> Self {
        Self {
            opts,
            shape,
            rng: SmallRng::seed_from_u64(opts.seed ^ 0x5e7e_10ad),
            faults: FaultCycle {
                rng: SmallRng::seed_from_u64(opts.seed ^ 0xfa17),
                pending_close: None,
            },
            tracer: if opts.trace {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            mirror: Mirror::new(topologies[0].clone()),
            scorer: match &surrogate {
                Some((_, model)) => Scorer::Gnn(Box::new(GnnEvaluator::new(model.clone()))),
                None => Scorer::Approx(ApproxEvaluator::default()),
            },
            topologies,
            surrogate,
            planned: 0,
        }
    }

    fn daemon_args(&self, state_dir: &std::path::Path) -> Vec<String> {
        let mut args = vec!["--state-dir".to_string(), state_dir.display().to_string()];
        if let Some((path, _)) = &self.surrogate {
            args.extend(["--model".to_string(), path.display().to_string()]);
        }
        if self.shape.workers > 0 {
            args.extend(["--workers".to_string(), self.shape.workers.to_string()]);
        }
        args
    }

    /// Start a daemon and make it ready to answer: topology installed,
    /// every worker of a pool ready. Returns the daemon and the set-up
    /// time.
    fn set_up(&self, k: usize) -> Result<(Daemon, f64), String> {
        let dir = self.opts.work_dir.join(format!("daemon-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = self.opts.work_dir.join(format!("daemon-{k}.log"));
        let t = Instant::now();
        let mut d = Daemon::spawn(&self.opts.serve_bin, &self.daemon_args(&dir), &log)?;
        install(&mut d, &self.topologies[0])?;
        if self.shape.workers > 0 {
            wait_workers_ready(&mut d, self.shape.workers)?;
        } else {
            d.call(RequestBody::Ping, CALL_TIMEOUT)?;
        }
        Ok((d, t.elapsed().as_secs_f64()))
    }

    /// A seeded open-loop plan: `arrivals` for `secs`, and on until
    /// `min_places` `Place`s are planned; every [`FAULT_EVERY`]-th
    /// request of the workload a `Fault`, the rest `Place`s.
    fn plan(
        &mut self,
        d: &mut Daemon,
        topology: usize,
        arrivals: Arrivals,
        (secs, min_places): (f64, usize),
    ) -> Result<(Vec<Kind>, Vec<Planned>), String> {
        let (devices, chains) = (
            self.topologies[topology].num_devices(),
            self.topologies[topology].num_chains(),
        );
        let min_places = if self.opts.quick { 2 } else { min_places };
        let mut kinds = Vec::new();
        let mut plan = Vec::new();
        let (mut t, mut places) = (0.0, 0);
        loop {
            t = match arrivals {
                Arrivals::Poisson(rate) => {
                    let u: f64 = self.rng.gen();
                    t - (1.0 - u).ln() / rate
                }
                Arrivals::Bursts { size, every_s } => burst_due_s(kinds.len(), size, every_s),
            };
            if t >= secs && places >= min_places {
                break;
            }
            self.planned += 1;
            let (kind, body) = if self.planned.is_multiple_of(FAULT_EVERY) {
                let event = FaultEvent {
                    time: 0.0,
                    kind: self.faults.next(devices, chains),
                };
                (Kind::Fault(event), RequestBody::Fault { event })
            } else {
                places += 1;
                (Kind::Place, RequestBody::Place { hint: None })
            };
            let id = d.next_id();
            plan.push(Planned {
                due_s: t,
                id,
                line: request_line(id, body)?,
            });
            kinds.push(kind);
        }
        Ok((kinds, plan))
    }

    fn phase(
        &mut self,
        d: &mut Daemon,
        (topology, fresh): (usize, bool),
        arrivals: Arrivals,
        length: (f64, usize),
        role: Role,
    ) -> Result<Phase, String> {
        let (kinds, plan) = self.plan(d, topology, arrivals, length)?;
        let span = self.tracer.span("bench.load");
        let result = open_loop(d, &plan, MAX_BACKLOG, DRAIN)?;
        span.close();
        let mut p = Phase {
            topology,
            role,
            kinds,
            plan,
            result,
            fates: Vec::new(),
            tally: StepTally::default(),
        };
        let span = self.tracer.span("bench.checks");
        if fresh {
            self.mirror = Mirror::new(self.topologies[topology].clone());
        }
        p.fates = check_phase(
            &p,
            &mut self.mirror,
            &mut self.scorer,
            self.shape.workers == 0,
        )?;
        let places: Vec<Fate> = p
            .fates
            .iter()
            .filter(|(i, _)| matches!(p.kinds[*i], Kind::Place))
            .map(|(_, f)| {
                f.as_ref()
                    .map_or_else(|(fate, _)| *fate, |&ms| Fate::Ok(ms))
            })
            .collect();
        p.tally = StepTally::from_fates(
            arrivals.rate(),
            &places,
            p.result.backlog_start,
            p.result.backlog_end,
        );
        span.close();
        Ok(p)
    }

    fn run(mut self, report: &mut RunReport) -> Result<(), String> {
        let opts = self.opts;
        let quick_scale = if opts.quick { 0.2 } else { 1.0 };

        // Set-up, several times; the last daemon serves the load.
        let span = self.tracer.span("bench.setup");
        let mut setups = Vec::new();
        let mut kept = None;
        for k in 0..SETUPS {
            let (d, secs) = self.set_up(k)?;
            setups.push(secs);
            if let Some(prev) = kept.replace(d) {
                prev.shutdown()?;
            }
        }
        let mut d = kept.ok_or("no set-up ran")?;
        span.close();
        report.put_setup(&setups);

        // serve-gnn: the fixed reference probe must answer exactly as
        // recorded.
        let mut probe_lines = Vec::new();
        if self.shape.workers == 0 {
            let span = self.tracer.span("bench.probe");
            for step in PROBE {
                let body = match step {
                    None => RequestBody::Place { hint: None },
                    Some(kind) => RequestBody::Fault {
                        event: FaultEvent {
                            time: 0.0,
                            kind: *kind,
                        },
                    },
                };
                let id = d.next_id();
                let line = request_line(id, body)?;
                let (answer, _) = d.call_line(&line, CALL_TIMEOUT)?;
                probe_lines.push((line, answer));
            }
            span.close();
            for kind in PROBE.iter().flatten() {
                self.mirror.apply(&FaultEvent {
                    time: 0.0,
                    kind: *kind,
                })?;
            }
            let digest = fnv1a(probe_lines.iter().map(|(_, a)| a.as_str()));
            report.check(digest == REFERENCE_GNN_DIGEST, || {
                format!("serve-gnn reference probe digest {digest:#018x} != recorded {REFERENCE_GNN_DIGEST:#018x}")
            });
        }

        // serve-pool: the warm-up, on the first topology.
        let mut phases = Vec::new();
        if let Some((requests, load)) = self.shape.warmup {
            let length = (0.0, requests * (FAULT_EVERY - 1) / FAULT_EVERY);
            phases.push(self.phase(&mut d, (0, false), load, length, Role::Warmup)?);
        }

        // The reference phase: the workload's load, split evenly over
        // the seeded topologies.
        let ladder = if self.shape.ladder && opts.trace {
            ladder_rates()
        } else {
            Vec::new()
        };
        let ladder_s: f64 = ladder
            .iter()
            .take_while(|&&r| r / LADDER_FACTOR <= LADDER_TOP)
            .map(|&r| rung_secs(r, LADDER_MIN_PLACES))
            .sum();
        let budget = (opts.seconds - ladder_s).max(opts.seconds / 2.0) * quick_scale;
        let n_topo = self.topologies.len();
        for topology in 0..n_topo {
            let fresh = topology > 0;
            if fresh {
                install(&mut d, &self.topologies[topology])?;
            }
            let length = (budget / n_topo as f64, self.shape.min_places);
            let load = self.shape.load;
            phases.push(self.phase(&mut d, (topology, fresh), load, length, Role::Reference)?);
        }

        // serve-pool, traced run: the rate ladder on the last topology.
        // Rungs that miss the SLO below capacity (an fsync stall, or a
        // heavy topology) do not end it; the first saturated rung (sending
        // stopped at the backlog cap, or the backlog grew) does. `slo_qps`
        // is a per-layer number, so the untraced run spends all its time
        // on the reference phase.
        for rate in ladder {
            let length = (
                rung_secs(rate, LADDER_MIN_PLACES) * quick_scale,
                LADDER_MIN_PLACES,
            );
            let p = self.phase(
                &mut d,
                (n_topo - 1, false),
                Arrivals::Poisson(rate),
                length,
                Role::Rung,
            )?;
            let saturated = p.result.aborted || p.tally.backlog_grew(SLO_LIMIT_MS);
            phases.push(p);
            if saturated {
                break;
            }
        }

        // Daemon counters and memory, then shutdown.
        let span = self.tracer.span("bench.stats");
        let stats = d.call(RequestBody::Stats, CALL_TIMEOUT)?;
        let (snapshot, worker_pids) = match stats.outcome {
            Outcome::Stats {
                snapshot, workers, ..
            } => (snapshot, workers.iter().map(|w| w.pid).collect::<Vec<_>>()),
            other => return Err(format!("Stats answered {other:?}")),
        };
        let mut pids = vec![std::process::id(), d.pid()];
        pids.extend(&worker_pids);
        report.put("peak_rss_mb", "MB", peak_rss_mb(&pids), pids.len());
        let (rtt_ms, answered) = d.mean_rtt_ms();
        report.put("bench.client_rtt_ms_mean", "ms", rtt_ms, answered);
        d.shutdown()?;
        stop_leftovers(&worker_pids);
        span.close();

        self.account(&phases, report);
        if opts.trace {
            server_metrics(&snapshot, self.shape.workers == 0, report);
            self.in_process(&phases, &probe_lines, report)?;
            // The daemon runs untraced in both runs and the client's spans
            // wrap whole phases, so neither share measures anything here.
            report.note(
                "bench.unattributed_share and bench.trace_overhead_share: not applicable \
                 (tracing changes only the client's phase spans; the daemon runs the same \
                 either way), reported as 0",
            );
        }
        Ok(())
    }

    /// Report every phase's failures, latencies and the SLO rate.
    fn account(&self, phases: &[Phase], report: &mut RunReport) {
        let (mut place_ms, mut fault_ms, mut lags) = (Vec::new(), Vec::new(), Vec::new());
        for p in phases {
            for (i, fate) in &p.fates {
                let planned = &p.plan[*i];
                report.attempted += 1;
                // Only a wrong answer fails the gate; a rejected or
                // unanswered request is a failed request.
                let wrong = matches!(fate, Err((Fate::CheckFailed, _)));
                report.check(!wrong, || format!("request {}: {fate:?}", planned.id));
                match (&p.kinds[*i], fate) {
                    (Kind::Fault(_), Ok(ms)) => fault_ms.push(*ms),
                    (_, Ok(_)) => {}
                    (_, Err((_, why))) => {
                        report.failed += 1;
                        eprintln!("perfbench: request {} failed: {why}", planned.id);
                    }
                }
                if let Some(sent) = p.result.observed[*i].sent_s {
                    if p.role != Role::Warmup {
                        lags.push(send_lag_ms(planned.due_s, sent));
                    }
                }
            }
            if p.role == Role::Reference {
                place_ms.extend(&p.tally.latencies_ms);
                let l = &p.tally.latencies_ms;
                report.note(format!(
                    "topology {}: {} Places, p50 {:.2} ms, p{} {:.2} ms",
                    p.topology,
                    l.len(),
                    median(l),
                    self.shape.tail_pct,
                    percentile(l, self.shape.tail_pct)
                ));
            }
        }
        report.put_latency("Places", &place_ms, self.shape.tail_pct);
        report.put(
            "serve.fault_p50_ms",
            "ms",
            median(&fault_ms),
            fault_ms.len(),
        );
        report.put(
            "bench.loadgen_lag_ms",
            "ms",
            percentile(&lags, 99.0),
            lags.len(),
        );
        if self.opts.trace && self.shape.ladder {
            // The ladder's rungs; a rung cut short at the backlog cap
            // never meets the SLO, whatever its answered share.
            let steps: Vec<StepTally> = phases
                .iter()
                .filter(|p| p.role == Role::Rung && !p.result.aborted)
                .map(|p| p.tally.clone())
                .collect();
            let slo = crate::stats::slo_rate(&steps, SLO_LIMIT_MS, SLO_SHARE).unwrap_or(0.0);
            report.put("serve.slo_qps", "1/s", slo, steps.len());
            for s in &steps {
                report.note(format!(
                    "rate {:.1}/s: sent {} answered {} failed_share {:.4}, {:.4} within {SLO_LIMIT_MS} ms, backlog {} -> {}{}",
                    s.rate,
                    s.sent,
                    s.answered,
                    s.failed_share(),
                    s.within_limit_share(SLO_LIMIT_MS),
                    s.backlog_start,
                    s.backlog_end,
                    if s.backlog_grew(SLO_LIMIT_MS) { " (grew)" } else { "" }
                ));
            }
        }
    }

    /// In-process layer timings on the recorded traffic: protocol parse
    /// and encode, `Engine::handle` on the same request sequence, and a
    /// ledger-sized checkpoint save.
    fn in_process(
        &self,
        phases: &[Phase],
        probe: &[(String, String)],
        report: &mut RunReport,
    ) -> Result<(), String> {
        let span = self.tracer.span("bench.in_process");
        let sent: Vec<(&str, &str)> = phases
            .iter()
            .flat_map(|p| p.plan.iter().zip(&p.result.observed))
            .filter_map(|(planned, o)| Some((planned.line.as_str(), o.answer.as_deref()?)))
            .collect();

        let mut parse_s = 0.0;
        for (line, _) in &sent {
            let t = Instant::now();
            let parsed = parse_request_line(line);
            parse_s += t.elapsed().as_secs_f64();
            report.check(parsed.is_ok(), || {
                format!("request line does not parse: {}", preview(line))
            });
        }
        report.put(
            "serve.parse_us",
            "us",
            parse_s / sent.len().max(1) as f64 * 1e6,
            sent.len(),
        );
        let mut encode_s = 0.0;
        for (_, answer) in &sent {
            let resp: Response =
                serde_json::from_str(answer).map_err(|e| format!("answer: {e}"))?;
            let t = Instant::now();
            let line = serde_json::to_string(&resp).map_err(|e| format!("encode: {e}"))?;
            encode_s += t.elapsed().as_secs_f64();
            report.check(line == *answer, || {
                format!("answer does not re-encode identically: {}", preview(answer))
            });
        }
        report.put(
            "serve.encode_us",
            "us",
            encode_s / sent.len().max(1) as f64 * 1e6,
            sent.len(),
        );

        // Engine::handle on the same sequence. A single engine replays
        // everything and must answer byte for byte as the daemon did; a
        // pool's answers depend on sharding, so only the first 400
        // requests on the last topology (the one the ladder climbs on)
        // are replayed, for timing.
        let dir = self.opts.work_dir.join("replay");
        let obs = Obs::enabled().with_tracer(Tracer::enabled());
        let store = CkptStore::open_observed(&dir, "serve", SERVE_CKPT_SCHEMA, &obs)
            .map_err(|e| format!("replay store: {e}"))?;
        let mut engine = Engine::new(EngineConfig::default(), obs).with_store(store);
        if let Some((_, model)) = &self.surrogate {
            engine = engine.with_surrogate(model.clone());
        }
        let single = self.shape.workers == 0;
        let last = self.topologies.len() - 1;
        let topology = RequestBody::Topology {
            problem: self.topologies[last].clone(),
        };
        let line = request_line(0, topology)?;
        let mut replay: Vec<(&str, Option<&str>)> = vec![(line.as_str(), None)];
        replay.extend(probe.iter().map(|(q, a)| (q.as_str(), Some(a.as_str()))));
        let limit = if single { usize::MAX } else { 400 };
        let on_last = phases.iter().filter(|p| p.topology == last);
        replay.extend(
            on_last
                .flat_map(|p| p.plan.iter().zip(&p.result.observed))
                .filter(|(_, o)| o.sent_s.is_some())
                .map(|(planned, o)| (planned.line.as_str(), o.answer.as_deref()))
                .take(limit),
        );
        let (mut place_ms, mut fault_ms) = (Vec::new(), Vec::new());
        for (line, answer) in replay {
            let req = parse_request_line(line).map_err(|e| format!("replay parse: {e}"))?;
            let t = Instant::now();
            let resp = engine.handle(&req, Instant::now());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match req.body {
                RequestBody::Place { .. } => place_ms.push(ms),
                RequestBody::Fault { .. } => fault_ms.push(ms),
                _ => {}
            }
            if single {
                if let Some(answer) = answer {
                    let line = serde_json::to_string(&resp).map_err(|e| format!("encode: {e}"))?;
                    report.check(line == answer, || {
                        format!(
                            "in-process engine answered {} where the daemon answered {}",
                            preview(&line),
                            preview(answer)
                        )
                    });
                }
            }
        }
        report.put(
            "serve.handle_ms.place",
            "ms",
            median(&place_ms),
            place_ms.len(),
        );
        report.put(
            "serve.handle_ms.fault",
            "ms",
            median(&fault_ms),
            fault_ms.len(),
        );

        // A ledger-sized supervisor state: the default 256 answer lines.
        let state = SupervisorState {
            nominal: Some(self.topologies[0].clone()),
            ledger: sent
                .iter()
                .cycle()
                .take(256)
                .enumerate()
                .map(|(i, (_, answer))| LedgerEntry {
                    id: i as u64,
                    line: answer.to_string(),
                })
                .collect(),
            ..SupervisorState::default()
        };
        let store = CkptStore::open(dir.join("ledger"), "bench", 1)
            .map_err(|e| format!("ledger store: {e}"))?;
        let mut save_ms = Vec::new();
        for seq in 1..=20 {
            let t = Instant::now();
            store
                .save_state(seq, &state)
                .map_err(|e| format!("save ledger: {e}"))?;
            save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        report.put("ckpt.save_ms", "ms", median(&save_ms), save_ms.len());
        span.close();
        Ok(())
    }
}

/// Install `problem` as the daemon's topology.
fn install(d: &mut Daemon, problem: &PlacementProblem) -> Result<(), String> {
    let resp = d.call(
        RequestBody::Topology {
            problem: problem.clone(),
        },
        CALL_TIMEOUT,
    )?;
    match resp.outcome {
        Outcome::TopologyInstalled { .. } => Ok(()),
        other => Err(format!("Topology answered {other:?}")),
    }
}

/// Poll `Stats` until all `n` workers of a pool report `ready`.
fn wait_workers_ready(d: &mut Daemon, n: usize) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Outcome::Stats { workers, .. } = d.call(RequestBody::Stats, CALL_TIMEOUT)?.outcome {
            if workers.len() == n && workers.iter().all(|w| w.phase == "ready") {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{n} workers not ready within 30 s"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Kill any worker process a pool left behind after its supervisor
/// exited, so the run stops every process it started.
fn stop_leftovers(pids: &[u32]) {
    for pid in pids {
        let deadline = Instant::now() + Duration::from_secs(5);
        let alive = || {
            std::fs::read_to_string(format!("/proc/{pid}/cmdline"))
                .map(|c| c.contains("chainnet-serve"))
                .unwrap_or(false)
        };
        while alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if alive() {
            eprintln!("perfbench: killing leftover worker {pid}");
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
        }
    }
}

/// 64-bit FNV-1a over `lines`, each followed by a newline.
fn fnv1a<'l>(lines: impl Iterator<Item = &'l str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Check every sent request of a phase, advancing `mirror` through the
/// phase's faults. Returns, per sent request index, its latency from due
/// time or its failure. A single engine must have answered on exactly
/// the serving state its position implies; a pool may have answered a
/// hedged `Place` on any state in effect while it was outstanding.
fn check_phase(
    p: &Phase,
    mirror: &mut Mirror,
    scorer: &mut Scorer,
    exact: bool,
) -> Result<Vec<(usize, Checked)>, String> {
    let sent = p
        .result
        .observed
        .iter()
        .take_while(|o| o.sent_s.is_some())
        .count();
    let mut effs = vec![mirror.effective()];
    let mut version = Vec::with_capacity(sent);
    for kind in &p.kinds[..sent] {
        version.push(effs.len() - 1);
        if let Kind::Fault(ev) = kind {
            mirror.apply(ev)?;
            effs.push(mirror.effective());
        }
    }
    let sent_at: Vec<f64> = p.result.observed[..sent]
        .iter()
        .filter_map(|o| o.sent_s)
        .collect();
    let mut out = Vec::with_capacity(sent);
    for i in 0..sent {
        let o = &p.result.observed[i];
        let (Some(at), Some(answer)) = (o.answered_s, o.answer.as_deref()) else {
            out.push((i, Err((Fate::Unanswered, "unanswered".to_string()))));
            continue;
        };
        let lo = version[i];
        let hi = if exact {
            lo
        } else {
            // The state after every request sent before this answer.
            let j = sent_at.partition_point(|&s| s <= at).max(i + 1) - 1;
            version[j] + usize::from(matches!(p.kinds[j], Kind::Fault(_)))
        };
        let verdict = check_answer(&p.kinds[i], answer, &effs[lo..=hi.max(lo)], scorer)
            .map(|()| latency_from_due_ms(p.plan[i].due_s, at));
        out.push((i, verdict));
    }
    Ok(out)
}

/// Check one answer: the right outcome for the request, and for a
/// placement, feasible on the effective topology with an objective that
/// re-scores bit for bit with the daemon's evaluator.
fn check_answer(
    kind: &Kind,
    line: &str,
    effs: &[PlacementProblem],
    scorer: &mut Scorer,
) -> Result<(), (Fate, String)> {
    let resp: Response = serde_json::from_str(line).map_err(|e| {
        (
            Fate::CheckFailed,
            format!("unparseable answer {}: {e}", preview(line)),
        )
    })?;
    match (kind, resp.outcome) {
        (_, Outcome::Rejected { kind, error }) => {
            Err((Fate::Rejected, format!("{kind:?}: {error}")))
        }
        (Kind::Fault(_), Outcome::FaultApplied { .. }) => Ok(()),
        (
            Kind::Place,
            Outcome::Placed {
                placement,
                objective,
                degradation,
                ..
            },
        ) => {
            let feasible: Vec<&PlacementProblem> =
                effs.iter().filter(|e| e.is_feasible(&placement)).collect();
            if feasible.is_empty() {
                return Err((
                    Fate::CheckFailed,
                    "placement infeasible on the effective topology".into(),
                ));
            }
            // Cached and stale answers carry the objective they were
            // first scored with, on an older serving state.
            if matches!(
                degradation,
                DegradationLevel::Cached | DegradationLevel::Stale
            ) {
                return Ok(());
            }
            let bits = objective.to_bits();
            if feasible
                .iter()
                .any(|e| scorer.score(e, &placement).map(f64::to_bits) == Some(bits))
            {
                Ok(())
            } else {
                Err((
                    Fate::CheckFailed,
                    format!("{degradation:?} objective {objective} does not re-score on the effective topology"),
                ))
            }
        }
        (_, other) => Err((Fate::CheckFailed, format!("unexpected answer {other:?}"))),
    }
}

/// Layer numbers the daemon counts itself, read through `Stats`.
///
/// `serve.transport_ms` is the client's total round-trip time minus the
/// daemon's total time, per request. A single engine times queue wait
/// and handling separately; a supervisor's request timer starts at
/// admission, so it already includes the queue wait. The daemon stops
/// its timer after writing the answer, so a busy host can push the
/// difference below zero.
fn server_metrics(snapshot: &Snapshot, single: bool, report: &mut RunReport) {
    let hist = |name: &str| {
        snapshot
            .histograms
            .get(name)
            .map_or((0.0, 0), |h| (h.sum * 1e3, h.count as usize))
    };
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let mean = |(sum, n): (f64, usize)| sum / n.max(1) as f64;
    let (server, queue) = (
        hist("serve.request_seconds"),
        hist("serve.queue_wait_seconds"),
    );
    report.put("serve.server_ms_mean", "ms", mean(server), server.1);
    report.put("serve.queue_wait_ms_mean", "ms", mean(queue), queue.1);
    if let Some(rtt) = report.get("bench.client_rtt_ms_mean").cloned() {
        let daemon_ms = server.0 + if single { queue.0 } else { 0.0 };
        let transport = (rtt.value * rtt.samples as f64 - daemon_ms) / rtt.samples.max(1) as f64;
        report.put("serve.transport_ms", "ms", transport, rtt.samples);
    }
    let answers = counter("serve.responses_total").max(1.0);
    report.put(
        "ckpt.writes_per_answer",
        "count",
        counter("ckpt.writes") / answers,
        answers as usize,
    );
    report.put(
        "ckpt.bytes_per_answer",
        "B",
        counter("ckpt.bytes_written") / answers,
        answers as usize,
    );
    let hedges = counter("supervisor.hedges");
    report.put(
        "supervisor.hedge_win_ratio",
        "share",
        if hedges > 0.0 {
            counter("supervisor.hedge_wins") / hedges
        } else {
            0.0
        },
        hedges as usize,
    );
    report.put(
        "supervisor.reroutes",
        "count",
        counter("supervisor.reroutes"),
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_share_a_due_time_and_keep_their_average_rate() {
        let due: Vec<f64> = (0..5).map(|n| burst_due_s(n, 2, 0.25)).collect();
        assert_eq!(due, vec![0.0, 0.0, 0.25, 0.25, 0.5]);
        let pool = POOL_SHAPE.load;
        assert_eq!(pool.rate(), 64.0);
        assert_eq!(Arrivals::Poisson(0.6).rate(), 0.6);
        // The warm-up fills the 256-entry answer ledger before any
        // latency is measured.
        assert!(POOL_SHAPE.warmup.is_some_and(|(n, _)| n > 256));
        assert!(GNN_SHAPE.warmup.is_none());
    }

    #[test]
    fn ladder_climbs_past_capacity_with_enough_places_per_rung() {
        let rates = ladder_rates();
        assert_eq!(rates[0], LADDER_START);
        // The pool saturates near 200 requests/s; the ladder goes past
        // both that and LADDER_TOP.
        assert!(rates.iter().any(|&r| r > LADDER_TOP));
        for w in rates.windows(2) {
            assert!((w[1] / w[0] - LADDER_FACTOR).abs() < 1e-12);
        }
        // 100 Places plus the interleaved faults take 4.2 s at 25/s; fast
        // rungs still last a second.
        assert!((rung_secs(25.0, 100) - 100.0 * 25.0 / 24.0 / 25.0).abs() < 1e-12);
        assert_eq!(rung_secs(500.0, 100), LADDER_MIN_SECS);
        for &r in &rates {
            let planned = rung_secs(r, LADDER_MIN_PLACES) * r;
            assert!(planned * (FAULT_EVERY - 1) as f64 / FAULT_EVERY as f64 >= 99.999);
        }
    }
}
