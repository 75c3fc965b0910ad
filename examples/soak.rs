//! Chaos soak harness for `chainnet-serve`: replay thousands of
//! placement queries against a live daemon while faulting the topology
//! underneath it, overloading its admission queue, and SIGKILLing the
//! process mid-run — then assert the robustness contract held.
//!
//! Phases:
//!
//! 1. **warmup** — install the topology, issue generous-deadline
//!    queries, and require every one to come back `FullSearch`;
//! 2. **fault storm** — interleave crash/degrade/burst/recover events
//!    with queries, tight deadlines forcing the degradation ladder;
//! 3. **overload** — pipeline a burst far beyond the admission queue
//!    and require every request answered exactly once (`Placed` or a
//!    typed `Overloaded` rejection — nothing lost, nothing duplicated);
//! 4. **kill + restart** — SIGKILL the daemon mid-conversation, restart
//!    it on the same state dir, re-send the unanswered tail, and
//!    require the resumed process to remember its fault state;
//! 5. **recovery** — lift the faults and require full-capacity service.
//!
//! With `SOAK_WORKERS=N` (N ≥ 2) three supervised-pool phases follow,
//! against a fresh `--workers N` daemon:
//!
//! 6. **worker-kill storm** — SIGKILL ≥ 3 shard workers (pids from
//!    `Stats`) interleaved with queries; every query must still be
//!    answered `Placed` and the supervisor must restart every victim;
//! 7. **wedged worker** — SIGSTOP one worker and require hedging to
//!    keep every deadline query answered below its deadline;
//! 8. **supervisor kill + replay** — SIGKILL the supervisor itself,
//!    restart it on the same state dir, re-send recorded request lines,
//!    and require byte-identical answers from the ledger.
//!
//! Gates (process exits non-zero when any fails):
//!
//! * zero lost accepted requests across the whole run, restarts
//!   included;
//! * the degradation ladder is monotone in the deadline: no-deadline
//!   queries always report `full_search`, sub-`min_full_search_ms`
//!   deadlines never do;
//! * the storm actually degraded something (`serve.degraded_total` > 0)
//!   and repairs ran (`serve.repairs` > 0).
//!
//! The report at the end prints request-latency p50/p99 and QPS from
//! the daemon's own metrics snapshot (`serve-metrics.json`), so the
//! numbers are the served truth, not client-side guesses.
//!
//! Run with `cargo run --release --example soak`. Environment knobs:
//! `SOAK_QUERIES` (default 20000; CI smoke uses a few hundred),
//! `SOAK_DAEMON` (path to the `chainnet-serve` binary, default derived
//! from this executable's target dir), `SOAK_DIR` (state dir),
//! `SOAK_WORKERS` (supervised-pool size for phases 6–8; 0 = skip),
//! `SOAK_MODEL` (a trained ChainNet JSON, bare or as the
//! `{"model": …, "report": …}` files under `results/`; phases 1–5 then
//! run the daemon with `--model`, so placements are scored by the
//! paper's surrogate instead of the analytic evaluator).

use chainnet_suite::obs::Snapshot;
use chainnet_suite::placement::problem::PlacementProblem;
use chainnet_suite::qsim::model::{Device, Fragment, ServiceChain};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn main() {
    match soak() {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("soak: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

type SoakResult<T> = Result<T, String>;

/// One live daemon process plus a client connection to it.
struct Daemon {
    child: Child,
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    fn spawn(binary: &Path, state_dir: &Path, queue: usize, extra: &[&str]) -> SoakResult<Self> {
        // Daemon stderr goes to a log file in the state dir so a CI
        // failure can upload what the supervisor saw, not a null sink.
        let stderr_log = std::fs::File::create(state_dir.join(format!(
            "daemon-stderr-{}.log",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        )))
        .map_err(|e| format!("create stderr log: {e}"))?;
        let mut child = Command::new(binary)
            .arg("--bind")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--sa-steps")
            .arg("12")
            .arg("--trials")
            .arg("1")
            .arg("--queue")
            .arg(queue.to_string())
            .arg("--quiet")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr_log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout missing")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read announce line: {e}"))?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .ok_or("empty announce line")?
            .to_string();
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Daemon {
            child,
            reader,
            stream,
        })
    }

    fn send(&mut self, line: &str) -> SoakResult<()> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one raw response line (trailing newline stripped);
    /// `Ok(None)` means the connection died (daemon killed) — the
    /// caller decides whether that was expected.
    fn recv_raw(&mut self) -> SoakResult<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            // No trailing newline means EOF cut the response short: the
            // daemon was killed mid-write. Treat it as a dead peer.
            Ok(_) if !line.ends_with('\n') => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                Ok(None)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Read and parse one response line; `Ok(None)` on a dead peer.
    fn recv(&mut self) -> SoakResult<Option<Value>> {
        match self.recv_raw()? {
            None => Ok(None),
            Some(line) => serde_json::from_str(&line)
                .map(Some)
                .map_err(|e| format!("parse response: {e} in {line:?}")),
        }
    }

    /// Serial request/response; `Ok(None)` when the daemon vanished.
    fn call(&mut self, line: &str) -> SoakResult<Option<Value>> {
        self.send(line)?;
        self.recv()
    }

    /// Serial request/response keeping the raw response line.
    fn call_raw(&mut self, line: &str) -> SoakResult<Option<String>> {
        self.send(line)?;
        self.recv_raw()
    }

    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn shutdown(&mut self, id: u64) -> SoakResult<()> {
        let _ = self.call(&format!("{{\"id\":{id},\"body\":\"Shutdown\"}}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.code() != Some(0) {
            return Err(format!("daemon exited {:?}, want 0", status.code()));
        }
        Ok(())
    }
}

/// The soak topology: enough slack that crashing one device leaves a
/// feasible repair, tight enough that degradation matters.
fn topology_json() -> String {
    let mk_dev = |mem: f64, rate: f64| Device::new(mem, rate).expect("device");
    let mk_frag = |mem: f64, comp: f64| Fragment::new(mem, comp).expect("fragment");
    let devices = vec![
        mk_dev(12.0, 4.0),
        mk_dev(12.0, 3.0),
        mk_dev(10.0, 2.0),
        mk_dev(10.0, 2.0),
        mk_dev(8.0, 1.5),
    ];
    let chains = vec![
        ServiceChain::new(0.8, vec![mk_frag(2.0, 1.0), mk_frag(2.0, 1.0)]).expect("chain"),
        ServiceChain::new(0.5, vec![mk_frag(1.0, 1.0), mk_frag(1.0, 1.0)]).expect("chain"),
        ServiceChain::new(0.4, vec![mk_frag(1.5, 0.8), mk_frag(1.0, 0.6)]).expect("chain"),
    ];
    let problem = PlacementProblem::new(devices, chains).expect("problem");
    serde_json::to_string(&problem).expect("serialize problem")
}

fn place_line(id: u64, deadline_ms: Option<u64>) -> String {
    match deadline_ms {
        Some(d) => {
            format!("{{\"id\":{id},\"deadline_ms\":{d},\"body\":{{\"Place\":{{\"hint\":null}}}}}}")
        }
        None => format!("{{\"id\":{id},\"body\":{{\"Place\":{{\"hint\":null}}}}}}"),
    }
}

fn fault_line(id: u64, kind_json: &str) -> String {
    format!("{{\"id\":{id},\"body\":{{\"Fault\":{{\"event\":{{\"time\":0.0,\"kind\":{kind_json}}}}}}}}}")
}

fn get<'a>(v: &'a Value, path: &[&str]) -> SoakResult<&'a Value> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("missing field {key} in {cur:?}"))?;
    }
    Ok(cur)
}

/// Externally-tagged variant name of the response outcome.
fn outcome_key(v: &Value) -> SoakResult<String> {
    match get(v, &["outcome"])? {
        Value::Str(s) => Ok(s.clone()),
        Value::Map(m) => m
            .first()
            .map(|(k, _)| k.clone())
            .ok_or_else(|| "empty outcome object".to_string()),
        other => Err(format!("unexpected outcome shape: {other:?}")),
    }
}

/// What the ledger records for each answered request id.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Placed { degradation: String },
    Rejected { kind: String },
    Other(String),
}

/// Classify a response and record it; duplicate ids are a gate failure.
fn record(ledger: &mut BTreeMap<u64, Answer>, resp: &Value) -> SoakResult<u64> {
    let id = get(resp, &["id"])?
        .as_u64()
        .ok_or_else(|| format!("non-integer response id in {resp:?}"))?;
    let key = outcome_key(resp)?;
    let answer = match key.as_str() {
        "Placed" => Answer::Placed {
            degradation: get(resp, &["outcome", "Placed", "degradation"])?
                .as_str()
                .unwrap_or("?")
                .to_string(),
        },
        "Rejected" => Answer::Rejected {
            kind: get(resp, &["outcome", "Rejected", "kind"])?
                .as_str()
                .unwrap_or("?")
                .to_string(),
        },
        other => Answer::Other(other.to_string()),
    };
    if let Some(prev) = ledger.insert(id, answer) {
        return Err(format!("duplicate response for id {id}: {prev:?}"));
    }
    Ok(id)
}

fn soak() -> SoakResult<String> {
    let queries: u64 = std::env::var("SOAK_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let binary = daemon_binary()?;
    let dir = match std::env::var("SOAK_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => std::env::temp_dir().join(format!("chainnet-soak-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    // Phases 1-5 serve with the surrogate when SOAK_MODEL names one.
    let model_path = std::env::var("SOAK_MODEL").ok();
    let model_args: Vec<&str> = match &model_path {
        Some(p) => vec!["--model", p],
        None => Vec::new(),
    };

    const QUEUE: usize = 32;
    let mut ledger: BTreeMap<u64, Answer> = BTreeMap::new();
    let mut sent: Vec<u64> = Vec::new();
    let mut next_id: u64 = 1;
    let wall = Instant::now();

    let mut daemon = Daemon::spawn(&binary, &dir, QUEUE, &model_args)?;

    // ---- phase 1: topology + warmup --------------------------------
    let topo = topology_json();
    let resp = daemon
        .call(&format!(
            "{{\"id\":0,\"body\":{{\"Topology\":{{\"problem\":{topo}}}}}}}"
        ))?
        .ok_or("daemon died installing topology")?;
    if outcome_key(&resp)? != "TopologyInstalled" {
        return Err(format!("topology rejected: {resp:?}"));
    }
    let warmup = (queries / 10).clamp(8, 500);
    for _ in 0..warmup {
        let id = next_id;
        next_id += 1;
        sent.push(id);
        let resp = daemon
            .call(&place_line(id, None))?
            .ok_or("daemon died during warmup")?;
        record(&mut ledger, &resp)?;
        match ledger.get(&id) {
            Some(Answer::Placed { degradation }) if degradation == "FullSearch" => {}
            other => {
                return Err(format!(
                    "warmup id {id}: no-deadline query must be FullSearch, got {other:?}"
                ))
            }
        }
    }

    // ---- phase 2: fault storm with tight deadlines -----------------
    // Cycle through the FaultSchedule vocabulary; every K queries flip
    // a fault. Tight deadlines (below min_full_search_ms = 10) must
    // never report full_search — that is the monotone-ladder gate.
    let faults = [
        r#"{"DeviceCrash":{"device":4}}"#,
        r#"{"ServiceDegrade":{"device":2,"factor":0.5}}"#,
        r#"{"ArrivalBurst":{"chain":0,"factor":1.5}}"#,
        r#"{"DeviceRecover":{"device":4}}"#,
        r#"{"ServiceRestore":{"device":2}}"#,
        r#"{"ArrivalCalm":{"chain":0}}"#,
    ];
    let storm = (queries * 6 / 10).max(12);
    let mut fault_idx = 0usize;
    let mut tight_placed = 0u64;
    let mut tight_rejected = 0u64;
    for i in 0..storm {
        if i % 25 == 0 {
            let id = next_id;
            next_id += 1;
            let resp = daemon
                .call(&fault_line(id, faults[fault_idx % faults.len()]))?
                .ok_or("daemon died applying fault")?;
            if outcome_key(&resp)? != "FaultApplied" {
                return Err(format!("fault rejected: {resp:?}"));
            }
            fault_idx += 1;
        }
        let id = next_id;
        next_id += 1;
        sent.push(id);
        // Alternate tight (2ms — below the full-search threshold) and
        // generous deadlines.
        let deadline = if i % 2 == 0 { Some(2) } else { Some(5_000) };
        let resp = daemon
            .call(&place_line(id, deadline))?
            .ok_or("daemon died during storm")?;
        record(&mut ledger, &resp)?;
        match (i % 2 == 0, ledger.get(&id)) {
            (true, Some(Answer::Placed { degradation })) => {
                if degradation == "FullSearch" {
                    return Err(format!(
                        "monotone-ladder violation: 2ms deadline answered FullSearch (id {id})"
                    ));
                }
                tight_placed += 1;
            }
            (true, Some(Answer::Rejected { kind })) if kind == "DeadlineExceeded" => {
                tight_rejected += 1;
            }
            (false, Some(Answer::Placed { .. })) => {}
            (_, other) => return Err(format!("storm id {id}: unexpected answer {other:?}")),
        }
    }

    // ---- phase 3: overload burst -----------------------------------
    // Pipeline far beyond the queue; every id must be answered exactly
    // once, rejections must be typed Overloaded.
    let burst = (queries / 10).clamp(16, 2_000);
    let first_burst_id = next_id;
    for _ in 0..burst {
        let id = next_id;
        next_id += 1;
        sent.push(id);
        daemon.send(&place_line(id, None))?;
    }
    let mut overloaded = 0u64;
    for _ in 0..burst {
        let resp = daemon.recv()?.ok_or("daemon died during overload burst")?;
        let id = record(&mut ledger, &resp)?;
        if id < first_burst_id {
            return Err(format!("response id {id} from before the burst"));
        }
        if let Some(Answer::Rejected { kind }) = ledger.get(&id) {
            if kind != "Overloaded" {
                return Err(format!("burst id {id}: non-admission rejection {kind}"));
            }
            overloaded += 1;
        }
    }

    // ---- phase 4: SIGKILL mid-conversation, restart, re-send -------
    // Crash a device (checkpointed immediately), pipeline a few
    // requests, and SIGKILL with some still in flight.
    let resp = daemon
        .call(&fault_line(next_id, r#"{"DeviceCrash":{"device":4}}"#))?
        .ok_or("daemon died applying pre-kill fault")?;
    next_id += 1;
    if outcome_key(&resp)? != "FaultApplied" {
        return Err(format!("pre-kill fault rejected: {resp:?}"));
    }
    let inflight: Vec<u64> = (0..10)
        .map(|_| {
            let id = next_id;
            next_id += 1;
            sent.push(id);
            id
        })
        .collect();
    for id in &inflight {
        daemon.send(&place_line(*id, None))?;
    }
    // SIGKILL with the batch still mid-pipeline, then drain whatever
    // answers made it out (buffered responses are still readable after
    // the peer dies) until the connection reports the death.
    daemon.kill9();
    loop {
        let done = inflight.iter().all(|id| ledger.contains_key(id));
        if done {
            break;
        }
        match daemon.recv()? {
            Some(resp) => {
                record(&mut ledger, &resp)?;
            }
            None => break,
        }
    }
    drop(daemon);

    let mut daemon = Daemon::spawn(&binary, &dir, QUEUE, &model_args)?;
    let stats = daemon
        .call(&format!("{{\"id\":{next_id},\"body\":\"Stats\"}}"))?
        .ok_or("restarted daemon died on Stats")?;
    next_id += 1;
    let crashed = get(&stats, &["outcome", "Stats", "crashed_devices"])?
        .as_u64()
        .unwrap_or(0);
    if crashed != 1 {
        return Err(format!(
            "restart lost fault state: crashed_devices = {crashed}, want 1"
        ));
    }
    // Zero-lost: re-send every request the kill left unanswered.
    let unanswered: Vec<u64> = inflight
        .iter()
        .copied()
        .filter(|id| !ledger.contains_key(id))
        .collect();
    let retried = unanswered.len() as u64;
    for id in unanswered {
        let resp = daemon
            .call(&place_line(id, None))?
            .ok_or("restarted daemon died on retry")?;
        record(&mut ledger, &resp)?;
    }
    // The resumed daemon must still degrade gracefully (device 4 is
    // still down here). These also put `serve.degraded_total` into the
    // snapshot the shutdown below flushes — the SIGKILLed first daemon
    // never got to flush its own storm counters.
    for _ in 0..24 {
        let id = next_id;
        next_id += 1;
        sent.push(id);
        let resp = daemon
            .call(&place_line(id, Some(2)))?
            .ok_or("restarted daemon died on tight-deadline query")?;
        record(&mut ledger, &resp)?;
        match ledger.get(&id) {
            Some(Answer::Placed { degradation }) if degradation != "FullSearch" => {
                tight_placed += 1;
            }
            Some(Answer::Rejected { kind }) if kind == "DeadlineExceeded" => {
                tight_rejected += 1;
            }
            other => {
                return Err(format!(
                    "post-restart tight id {id}: unexpected answer {other:?}"
                ))
            }
        }
    }

    // ---- phase 5: recovery -----------------------------------------
    for kind in [
        r#"{"DeviceRecover":{"device":4}}"#,
        r#"{"ServiceRestore":{"device":2}}"#,
        r#"{"ArrivalCalm":{"chain":0}}"#,
    ] {
        let resp = daemon
            .call(&fault_line(next_id, kind))?
            .ok_or("daemon died during recovery")?;
        next_id += 1;
        if outcome_key(&resp)? != "FaultApplied" {
            return Err(format!("recovery fault rejected: {resp:?}"));
        }
    }
    let tail = (queries / 10).clamp(8, 500);
    for _ in 0..tail {
        let id = next_id;
        next_id += 1;
        sent.push(id);
        let resp = daemon
            .call(&place_line(id, None))?
            .ok_or("daemon died during recovery tail")?;
        record(&mut ledger, &resp)?;
        match ledger.get(&id) {
            Some(Answer::Placed { degradation }) if degradation == "FullSearch" => {}
            other => {
                return Err(format!(
                    "recovery id {id}: full-capacity query must be FullSearch, got {other:?}"
                ))
            }
        }
    }
    daemon.shutdown(next_id)?;

    // ---- phases 6–8: supervised pool (opt-in via SOAK_WORKERS) -----
    let workers: usize = std::env::var("SOAK_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let supervised_report = if workers >= 2 {
        Some(supervised_soak(&binary, &dir, workers)?)
    } else {
        None
    };
    let elapsed = wall.elapsed().as_secs_f64();

    // ---- gates ------------------------------------------------------
    let lost: Vec<u64> = sent
        .iter()
        .copied()
        .filter(|id| !ledger.contains_key(id))
        .collect();
    if !lost.is_empty() {
        return Err(format!(
            "{} accepted request(s) lost: first few {:?}",
            lost.len(),
            &lost[..lost.len().min(5)]
        ));
    }

    let snap_path = dir.join("serve-metrics.json");
    let snap_text = std::fs::read_to_string(&snap_path)
        .map_err(|e| format!("read {}: {e}", snap_path.display()))?;
    let snap = Snapshot::from_json(&snap_text).map_err(|e| format!("parse snapshot: {e}"))?;
    // The snapshot is the *restarted* daemon's registry (the SIGKILLed
    // first daemon never flushed), so the storm itself is gated
    // client-side and the snapshot gates cover the post-restart life.
    if tight_placed == 0 {
        return Err("no tight-deadline query ever produced a degraded placement".into());
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    if counter("serve.degraded_total") == 0 {
        return Err(
            "resumed daemon reported no degraded responses (serve.degraded_total = 0)".into(),
        );
    }
    if counter("serve.repairs") == 0 {
        return Err("fault events never triggered a repair (serve.repairs = 0)".into());
    }
    let hist = snap
        .histograms
        .get("serve.request_seconds")
        .ok_or("serve.request_seconds histogram missing from snapshot")?;
    let quantile = |q: f64| {
        hist.quantile(q)
            .map(|s| format!("{:.2}ms", s * 1e3))
            .unwrap_or_else(|| "n/a".into())
    };

    let answered = ledger.len() as u64;
    let mut report = format!(
        "soak: PASS\n\
         evaluator              {}\n\
         queries answered       {answered} (0 lost; {retried} retried across restart)\n\
         tight-deadline storm   {tight_placed} degraded placements, {tight_rejected} deadline rejections\n\
         overload burst         {overloaded}/{burst} shed with typed Overloaded\n\
         daemon-side latency    p50 {} / p99 {} ({} requests in the snapshot)\n\
         client wall clock      {elapsed:.1}s ({:.0} QPS end-to-end)",
        match &model_path {
            Some(_) => "ChainNet surrogate (--model), analytic fallback",
            None => "analytic (no --model)",
        },
        quantile(0.5),
        quantile(0.99),
        hist.count,
        answered as f64 / elapsed.max(1e-9),
    );
    if let Some(s) = supervised_report {
        report.push('\n');
        report.push_str(&s);
    }
    Ok(report)
}

/// Live worker pids from a supervised daemon's `Stats` answer.
fn stats_pids(stats: &Value) -> SoakResult<Vec<u64>> {
    let workers = get(stats, &["outcome", "Stats", "workers"])?
        .as_seq()
        .ok_or("workers is not an array")?;
    Ok(workers
        .iter()
        .filter_map(|w| w.get("pid").and_then(Value::as_u64))
        .filter(|&p| p > 0)
        .collect())
}

/// A counter from the `Stats` answer's embedded metrics snapshot.
fn stats_counter(stats: &Value, name: &str) -> u64 {
    get(stats, &["outcome", "Stats", "snapshot", "counters"])
        .ok()
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn signal(pid: u64, sig: &str) -> SoakResult<()> {
    let status = Command::new("kill")
        .arg(sig)
        .arg(pid.to_string())
        .status()
        .map_err(|e| format!("kill {sig} {pid}: {e}"))?;
    if !status.success() {
        return Err(format!("kill {sig} {pid} failed"));
    }
    Ok(())
}

/// Phases 6–8 against a `--workers N` supervised pool, in a fresh
/// state dir under the soak dir. Returns the report lines.
fn supervised_soak(binary: &Path, dir: &Path, workers: usize) -> SoakResult<String> {
    let sdir = dir.join("supervised");
    let _ = std::fs::remove_dir_all(&sdir);
    std::fs::create_dir_all(&sdir).map_err(|e| format!("mkdir {}: {e}", sdir.display()))?;
    let flags = [
        "--workers",
        &workers.to_string(),
        "--heartbeat-ms",
        "250",
        "--hedge-after-ms",
        "100",
    ]
    .map(String::from);
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();

    let mut daemon = Daemon::spawn(binary, &sdir, 32, &flag_refs)?;
    let mut next_id: u64 = 1;
    let topo = topology_json();
    let resp = daemon
        .call(&format!(
            "{{\"id\":0,\"body\":{{\"Topology\":{{\"problem\":{topo}}}}}}}"
        ))?
        .ok_or("supervised daemon died installing topology")?;
    if outcome_key(&resp)? != "TopologyInstalled" {
        return Err(format!("supervised topology rejected: {resp:?}"));
    }

    // A serial Placed query; the degradation string must be one of the
    // ladder's rungs (Stale included — a recovering pool may serve it).
    let place = |daemon: &mut Daemon, next_id: &mut u64, deadline| -> SoakResult<String> {
        let id = *next_id;
        *next_id += 1;
        let resp = daemon
            .call(&place_line(id, deadline))?
            .ok_or(format!("supervised daemon died answering id {id}"))?;
        if outcome_key(&resp)? != "Placed" {
            return Err(format!("supervised id {id} not Placed: {resp:?}"));
        }
        let degradation = get(&resp, &["outcome", "Placed", "degradation"])?
            .as_str()
            .unwrap_or("?")
            .to_string();
        if !["FullSearch", "LocalRepair", "Cached", "Stale"].contains(&degradation.as_str()) {
            return Err(format!(
                "supervised id {id}: unknown degradation {degradation}"
            ));
        }
        Ok(degradation)
    };

    for _ in 0..8 {
        place(&mut daemon, &mut next_id, None)?;
    }

    // ---- phase 6: worker-kill storm --------------------------------
    // Three rounds: SIGKILL a live worker, then keep querying. Every
    // query must be answered Placed — rerouted, hedged, served stale,
    // or handled by the respawned shard.
    let mut kills = 0u64;
    for _round in 0..3 {
        let stats = daemon
            .call(&format!("{{\"id\":{next_id},\"body\":\"Stats\"}}"))?
            .ok_or("supervised daemon died on Stats")?;
        next_id += 1;
        let pids = stats_pids(&stats)?;
        if pids.is_empty() {
            return Err("no live workers reported before a kill round".into());
        }
        signal(pids[kills as usize % pids.len()], "-KILL")?;
        kills += 1;
        for _ in 0..20 {
            place(&mut daemon, &mut next_id, None)?;
        }
    }
    // The supervisor must have restarted every victim.
    let restart_deadline = Instant::now() + Duration::from_secs(20);
    let restarts = loop {
        let stats = daemon
            .call(&format!("{{\"id\":{next_id},\"body\":\"Stats\"}}"))?
            .ok_or("supervised daemon died polling restarts")?;
        next_id += 1;
        let restarts = stats_counter(&stats, "supervisor.restarts");
        if restarts >= kills {
            break restarts;
        }
        if Instant::now() >= restart_deadline {
            return Err(format!(
                "kill storm: only {restarts}/{kills} restarts observed within 20s"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    // ---- phase 7: wedged worker + hedging --------------------------
    // SIGSTOP one worker: requests routed to it must be hedged to a
    // sibling and still answered within the client deadline.
    let stats = daemon
        .call(&format!("{{\"id\":{next_id},\"body\":\"Stats\"}}"))?
        .ok_or("supervised daemon died before the wedge")?;
    next_id += 1;
    let pids = stats_pids(&stats)?;
    let wedged = *pids.first().ok_or("no live worker to wedge")?;
    signal(wedged, "-STOP")?;
    const WEDGE_DEADLINE_MS: u64 = 2_000;
    let mut worst_ms = 0.0f64;
    for _ in 0..40 {
        let started = Instant::now();
        place(&mut daemon, &mut next_id, Some(WEDGE_DEADLINE_MS))?;
        worst_ms = worst_ms.max(started.elapsed().as_secs_f64() * 1e3);
    }
    // Defensive: the supervisor normally SIGKILLs the wedged worker
    // once its heartbeats go silent, but never leave a stopped orphan.
    // (Racing that cleanup is fine — hence no status check, no stderr.)
    let _ = Command::new("kill")
        .arg("-CONT")
        .arg(wedged.to_string())
        .stderr(Stdio::null())
        .status();
    let stats = daemon
        .call(&format!("{{\"id\":{next_id},\"body\":\"Stats\"}}"))?
        .ok_or("supervised daemon died after the wedge")?;
    next_id += 1;
    let hedges = stats_counter(&stats, "supervisor.hedges");
    if hedges == 0 {
        return Err("wedged worker never triggered a hedge (supervisor.hedges = 0)".into());
    }
    if worst_ms >= WEDGE_DEADLINE_MS as f64 {
        return Err(format!(
            "wedged-shard worst latency {worst_ms:.0}ms breached the {WEDGE_DEADLINE_MS}ms deadline"
        ));
    }

    // ---- phase 8: supervisor SIGKILL + bit-identical replay --------
    // Record raw answers, SIGKILL the supervisor itself, restart the
    // pool from the same state dir, and re-send the recorded lines:
    // the ledger must replay them byte for byte.
    let mut recorded: Vec<(String, String)> = Vec::new();
    for _ in 0..6 {
        let id = next_id;
        next_id += 1;
        let line = place_line(id, None);
        let answer = daemon
            .call_raw(&line)?
            .ok_or("supervised daemon died while recording replays")?;
        recorded.push((line, answer));
    }
    daemon.kill9();
    drop(daemon);

    let mut daemon = Daemon::spawn(binary, &sdir, 32, &flag_refs)?;
    for (line, want) in &recorded {
        let got = daemon
            .call_raw(line)?
            .ok_or("restarted supervisor died on replay")?;
        if got != *want {
            return Err(format!(
                "replay diverged after supervisor restart:\n sent {line}\n want {want}\n got  {got}"
            ));
        }
    }
    let stats = daemon
        .call(&format!("{{\"id\":{next_id},\"body\":\"Stats\"}}"))?
        .ok_or("restarted supervisor died on Stats")?;
    next_id += 1;
    let replays = stats_counter(&stats, "supervisor.ledger_replays");
    if replays < recorded.len() as u64 {
        return Err(format!(
            "only {replays}/{} replays served from the ledger",
            recorded.len()
        ));
    }
    // The resumed pool still computes fresh placements.
    place(&mut daemon, &mut next_id, None)?;
    daemon.shutdown(next_id)?;

    Ok(format!(
        "supervised pool        {workers} workers: {kills} SIGKILLs survived ({restarts} restarts), \
         {hedges} hedges kept wedged-shard worst latency {worst_ms:.0}ms < {WEDGE_DEADLINE_MS}ms, \
         {replays} bit-identical replays after supervisor SIGKILL",
    ))
}

/// The `chainnet-serve` binary: `SOAK_DAEMON` override, else next to
/// this example's executable (`target/<profile>/examples/soak` →
/// `target/<profile>/chainnet-serve`).
fn daemon_binary() -> SoakResult<PathBuf> {
    if let Ok(p) = std::env::var("SOAK_DAEMON") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = me
        .parent() // examples/
        .and_then(Path::parent) // target/<profile>/
        .ok_or("cannot locate target dir from current_exe")?;
    let candidate = profile_dir.join("chainnet-serve");
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "{} not found — build it first (cargo build -p chainnet-serve) or set SOAK_DAEMON",
            candidate.display()
        ))
    }
}
