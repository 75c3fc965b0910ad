//! `perfbench` — the end-to-end and per-layer benchmark of the ChainNet
//! paper pipeline and the `chainnet-serve` placement daemon.
//!
//! ```text
//! perfbench --workload pipeline|serve-gnn|serve-pool --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH --model PATH --work-dir DIR [--quick]
//! ```
//!
//! `perfbench/run.py` builds this binary and the daemon and passes the
//! paths; see `perfbench/README.md`. The human report goes to stderr;
//! the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`. The exit code is
//! non-zero when any correctness check fails.

mod client;
mod layers;
mod pipeline;
mod report;
mod serve;
mod stats;

use chainnet::model::ChainNet;
use report::{RunReport, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

/// The workloads: `BENCHMARK.json` lists the first two, in this order.
/// `serve-pool` runs inside a traced `serve-gnn` run, and by hand.
pub const WORKLOADS: &[&str] = &["pipeline", "serve-gnn", "serve-pool"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, for a smoke run in seconds.
    pub quick: bool,
    /// The `chainnet-serve` binary.
    pub serve_bin: PathBuf,
    /// The committed surrogate artifact.
    pub model: PathBuf,
    /// Scratch directory for artifacts and daemon state.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        serve_bin: PathBuf::new(),
        model: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--quick" => opts.quick = true,
            "--serve-bin" => opts.serve_bin = PathBuf::from(value()?),
            "--model" => opts.model = PathBuf::from(value()?),
            "--work-dir" => opts.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    for (flag, path) in [("--model", &opts.model), ("--work-dir", &opts.work_dir)] {
        if path.as_os_str().is_empty() {
            return Err(format!("{flag} is required"));
        }
    }
    if opts.workload != "pipeline" && opts.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required for the serve workloads".into());
    }
    Ok(opts)
}

/// Load the committed surrogate. The artifact wraps the model as
/// `{"model": …, "report": …}`; a bare model JSON is accepted too.
pub fn load_surrogate(path: &Path) -> Result<ChainNet, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let model = value.get("model").cloned().unwrap_or(value);
    serde_json::from_value(model).map_err(|e| format!("decode surrogate: {e}"))
}

/// Write the committed surrogate as a bare model JSON — the file
/// `chainnet-cli optimize --model` and `chainnet-serve --model` read —
/// into the work directory, and return its path and the model.
pub fn write_bare_model(opts: &Opts) -> Result<(PathBuf, ChainNet), String> {
    let model = load_surrogate(&opts.model)?;
    let path = opts.work_dir.join("surrogate.json");
    let text = serde_json::to_string(&model).map_err(|e| format!("encode surrogate: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, model))
}

/// Sum of the peak resident set sizes (VmHWM) of `pids`, in MB.
pub fn peak_rss_mb(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .sum::<f64>()
        / 1024.0
}

fn run(opts: &Opts) -> Result<RunReport, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let mut report = RunReport::default();
    match opts.workload.as_str() {
        "pipeline" => pipeline::run(opts, &mut report)?,
        "serve-gnn" => serve::run_gnn(opts, &mut report)?,
        _ => serve::run_pool(opts, &mut report)?,
    }
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    eprint!("{}", report.human(&opts.workload, opts.trace));
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.json_line(names));
    if !report.correct() {
        std::process::exit(3);
    }
}
