//! `chainnet-serve` — the fault-tolerant placement daemon.
//!
//! ```text
//! chainnet-serve [--bind ADDR] [--state-dir DIR] [--model model.json]
//!                [--queue N] [--seed N] [--sa-steps N] [--trials N]
//!                [--repair-steps N] [--checkpoint-every N]
//!                [--artifacts-dir DIR] [--workers N] [--heartbeat-ms N]
//!                [--hedge-after-ms N] [--drain-ms N] [--quiet]
//! ```
//!
//! `--model` takes a ChainNet file, bare (what `chainnet train --out`
//! writes) or wrapped as `{"model": …}` (the `results/model_*.json`
//! training results).
//!
//! Without `--bind` the daemon speaks JSON lines on stdin/stdout
//! (serial mode, for tests and scripting). With `--bind HOST:PORT` it
//! serves TCP with bounded-queue admission control; `PORT` may be `0`
//! for an ephemeral port, announced on stdout as
//! `chainnet-serve listening on <addr>`.
//!
//! With `--workers N` (N ≥ 1) the process becomes a **supervisor**: it
//! spawns N crash-isolated worker processes (each one `chainnet-serve`
//! with the internal `--worker-shard K` flag, speaking the same
//! protocol over pipes), routes placement requests to deterministic
//! chain-cluster shards, heartbeats the pool, restarts dead or wedged
//! workers from their checkpoints, hedges slow shards, and serves
//! stale last-known-good answers while the pool recovers. `--workers 0`
//! (the default) keeps the single-process engine.
//!
//! Exit codes: `0` graceful shutdown (SIGTERM/SIGINT or a `Shutdown`
//! request, state + artifacts flushed), `1` runtime failure, `2` usage
//! error. SIGKILL obviously flushes nothing — that is what the
//! checkpoint store is for: restart with the same `--state-dir` and the
//! daemon (or the whole supervised pool) resumes from the last
//! persisted state.

use chainnet::model::model_from_json;
use chainnet_ckpt::CkptStore;
use chainnet_obs::Obs;
use chainnet_serve::engine::{Engine, EngineConfig, SERVE_CKPT_SCHEMA};
use chainnet_serve::health::HealthConfig;
use chainnet_serve::supervisor::{Supervisor, SupervisorConfig, SUPERVISOR_CKPT_SCHEMA};
use chainnet_serve::Daemon;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: chainnet-serve [--bind ADDR] [--state-dir DIR] [--model FILE]
                      [--queue N] [--seed N] [--sa-steps N] [--trials N]
                      [--repair-steps N] [--checkpoint-every N]
                      [--artifacts-dir DIR] [--workers N] [--heartbeat-ms N]
                      [--hedge-after-ms N] [--drain-ms N] [--quiet]";

struct Args {
    bind: Option<String>,
    state_dir: Option<PathBuf>,
    artifacts_dir: Option<PathBuf>,
    model: Option<PathBuf>,
    queue: usize,
    quiet: bool,
    engine: EngineConfig,
    /// 0 = single-process engine; N ≥ 1 = supervised pool of N shards.
    workers: usize,
    heartbeat_ms: u64,
    hedge_after_ms: u64,
    drain_ms: u64,
    /// Internal: this process is shard K of a supervised pool.
    worker_shard: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        bind: None,
        state_dir: None,
        artifacts_dir: None,
        model: None,
        queue: 64,
        quiet: false,
        engine: EngineConfig::default(),
        workers: 0,
        heartbeat_ms: 250,
        hedge_after_ms: 150,
        drain_ms: 5000,
        worker_shard: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .map(String::from)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--bind" => args.bind = Some(value("--bind")?),
            "--state-dir" => args.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--artifacts-dir" => {
                args.artifacts_dir = Some(PathBuf::from(value("--artifacts-dir")?))
            }
            "--model" => args.model = Some(PathBuf::from(value("--model")?)),
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--seed" => {
                args.engine.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--sa-steps" => {
                args.engine.sa_steps = value("--sa-steps")?
                    .parse()
                    .map_err(|e| format!("--sa-steps: {e}"))?
            }
            "--trials" => {
                args.engine.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?
            }
            "--repair-steps" => {
                args.engine.repair_steps = value("--repair-steps")?
                    .parse()
                    .map_err(|e| format!("--repair-steps: {e}"))?
            }
            "--checkpoint-every" => {
                args.engine.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?
            }
            "--hedge-after-ms" => {
                args.hedge_after_ms = value("--hedge-after-ms")?
                    .parse()
                    .map_err(|e| format!("--hedge-after-ms: {e}"))?
            }
            "--drain-ms" => {
                args.drain_ms = value("--drain-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-ms: {e}"))?
            }
            // Internal flag, set by the supervisor when spawning shard
            // workers. Not in USAGE; documented in docs/serving.md.
            "--worker-shard" => {
                args.worker_shard = Some(
                    value("--worker-shard")?
                        .parse()
                        .map_err(|e| format!("--worker-shard: {e}"))?,
                )
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.heartbeat_ms == 0 {
        return Err("--heartbeat-ms must be at least 1".to_string());
    }
    if args.worker_shard.is_some() && args.bind.is_some() {
        return Err("--worker-shard workers speak pipes, not TCP (--bind)".to_string());
    }
    Ok(args)
}

/// Build the engine shared by single-process mode and shard workers.
fn build_engine(args: &Args, obs: Obs) -> Result<Engine, Box<dyn std::error::Error>> {
    let mut engine = Engine::new(args.engine, obs);
    if let Some(path) = &args.model {
        let text = std::fs::read_to_string(path)?;
        let model = model_from_json(&text)?;
        engine = engine.with_surrogate(model);
        if !args.quiet {
            eprintln!("chainnet-serve: surrogate loaded from {}", path.display());
        }
    }
    if let Some(dir) = &args.state_dir {
        let store = CkptStore::open_observed(dir, "serve", SERVE_CKPT_SCHEMA, engine.obs())?;
        engine = engine.with_store(store);
        if engine.resume()? && !args.quiet {
            eprintln!(
                "chainnet-serve: resumed serving state from {} ({} requests handled)",
                dir.display(),
                engine.state().requests_handled
            );
        }
    }
    Ok(engine)
}

/// The worker arguments a supervisor propagates to every shard (the
/// supervisor appends `--worker-shard K` and the shard's own
/// `--state-dir`).
fn worker_args(args: &Args) -> Vec<String> {
    let mut v = Vec::new();
    if let Some(model) = &args.model {
        v.push("--model".to_string());
        v.push(model.display().to_string());
    }
    for (flag, value) in [
        ("--seed", args.engine.seed.to_string()),
        ("--sa-steps", args.engine.sa_steps.to_string()),
        ("--trials", args.engine.trials.to_string()),
        ("--repair-steps", args.engine.repair_steps.to_string()),
        (
            "--checkpoint-every",
            args.engine.checkpoint_every.to_string(),
        ),
    ] {
        v.push(flag.to_string());
        v.push(value);
    }
    v.push("--quiet".to_string());
    v
}

fn run(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    // Metrics and spans both on: the tracer is capacity-bounded (drops
    // past its cap rather than growing), so a long-lived daemon can
    // afford it, and shutdown then flushes a real `serve-trace.jsonl`.
    let obs = Obs::enabled().with_tracer(chainnet_obs::Tracer::enabled());

    // SIGTERM/SIGINT set the shared cancel flag; every blocking loop in
    // the daemon polls it, so shutdown always goes through the same
    // drain-flush-exit path. Shard workers rely on stdin EOF instead —
    // the supervisor owns their lifecycle — but keep the handlers so a
    // stray signal still exits them cleanly.
    signal_hook::flag::register(signal_hook::consts::SIGTERM, obs.cancel.shared())?;
    signal_hook::flag::register(signal_hook::consts::SIGINT, obs.cancel.shared())?;

    let drain = Duration::from_millis(args.drain_ms);

    let daemon = if args.worker_shard.is_none() && args.workers >= 1 {
        // Supervisor mode: the pool of shard workers answers; this
        // process routes, heartbeats, hedges, and persists its own
        // ledger for bit-identical replay.
        let cfg = SupervisorConfig {
            workers: args.workers,
            health: HealthConfig {
                heartbeat_ms: args.heartbeat_ms,
                hedge_after_ms: args.hedge_after_ms,
                ..HealthConfig::default()
            },
            worker_program: std::env::current_exe()?,
            worker_args: worker_args(&args),
            state_dir: args.state_dir.clone(),
            queue_capacity: args.queue,
            drain,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(cfg, obs);
        if let Some(dir) = &args.state_dir {
            let store = CkptStore::open_observed(
                dir.join("supervisor"),
                "supervisor",
                SUPERVISOR_CKPT_SCHEMA,
                sup.obs(),
            )?;
            sup = sup.with_store(store);
            if sup.resume()? && !args.quiet {
                eprintln!(
                    "chainnet-serve: supervisor resumed from {} ({} requests handled)",
                    dir.display(),
                    sup.state().requests_handled
                );
            }
        }
        Daemon::supervised(sup)
    } else {
        // Single-process engine, or one shard worker of a supervised
        // pool (the supervisor passes the shard's state dir directly).
        Daemon::new(build_engine(&args, obs)?)
    };

    let mut daemon = daemon.with_queue_capacity(args.queue).with_drain(drain);
    if let Some(dir) = args
        .artifacts_dir
        .clone()
        .or_else(|| args.state_dir.clone())
    {
        daemon = daemon.with_artifacts_dir(dir);
    }

    match &args.bind {
        Some(addr) => daemon.run_tcp(addr, &mut std::io::stdout())?,
        None => daemon.run_lines(std::io::stdin().lock(), std::io::stdout().lock())?,
    }
    if !args.quiet {
        eprintln!("chainnet-serve: shut down cleanly (state and artifacts flushed)");
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("chainnet-serve: {msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("chainnet-serve: fatal: {e}");
        std::process::exit(1);
    }
}
