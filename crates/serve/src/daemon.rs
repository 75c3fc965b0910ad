//! The transport layer: JSON-lines over stdin/stdout (serial, for
//! tests and scripting) or TCP (bounded-queue admission control), in
//! front of either backend — the single-process [`Engine`] or the
//! multi-process [`Supervisor`].
//!
//! Threading model (TCP mode): one reader thread per connection parses
//! request lines and *tries* to enqueue them on a bounded
//! [`std::sync::mpsc::sync_channel`]. A full queue sheds the request
//! immediately with a typed `Overloaded` rejection — admission control
//! never buffers unboundedly, so load spikes cost latency and shed
//! requests, not memory. A single consumer owns the backend and answers
//! accepted requests in admission order; on shutdown (SIGTERM/SIGINT
//! via `obs.cancel`, or a `Shutdown` request) it **drains
//! already-accepted requests under a bounded drain deadline** before
//! flushing the checkpoint and observability artifacts — accepted work
//! gets a real answer when the budget allows, and a typed
//! `ShuttingDown` rejection when it does not. Shutdown can never hang
//! on a backlog.
//!
//! [`Supervisor`]: crate::supervisor::Supervisor

use crate::engine::Engine;
use crate::error::ServeError;
use crate::protocol::{parse_request_line, Outcome, RejectKind, Request, RequestBody, Response};
use crate::supervisor::Supervisor;
use chainnet_ckpt::atomic_write;
use chainnet_obs::{CancelFlag, Obs};
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked loops wake to poll the cancel flag.
const POLL: Duration = Duration::from_millis(50);

/// One accepted unit of work: the parsed request, its admission
/// timestamp (deadlines include queue wait), and where to send the
/// answer line.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) received: Instant,
    pub(crate) out: Reply,
}

/// A connection's write half, shared between its reader thread (for
/// shed rejections) and the consumer (for real answers).
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Where a job's answer line goes: straight onto a connection's shared
/// writer (TCP mode), or into a one-shot mailbox the serial loop is
/// waiting on (stdin mode).
#[derive(Clone)]
pub(crate) enum Reply {
    Writer(SharedWriter),
    Mailbox(SyncSender<String>),
}

impl Reply {
    /// Deliver one response line (no trailing newline). A client that
    /// hung up forfeits its answer; that is not a serving failure.
    pub(crate) fn send_line(&self, line: &str) {
        match self {
            Self::Writer(out) => {
                let mut w = out.lock();
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
                let _ = w.flush();
            }
            Self::Mailbox(tx) => {
                let _ = tx.try_send(line.to_string());
            }
        }
    }
}

/// Serialize one response as a JSON line into a reply target.
fn write_response(out: &Reply, resp: &Response) -> Result<(), ServeError> {
    let line = serde_json::to_string(resp)
        .map_err(|e| ServeError::InvalidRequest(format!("unserializable response: {e}")))?;
    out.send_line(&line);
    Ok(())
}

/// What answers the requests behind the transport. Both are boxed:
/// they differ in size by hundreds of bytes and the daemon holds one.
enum Backend {
    /// Single-process: the deterministic engine, in this process.
    Engine(Box<Engine>),
    /// Multi-process: the supervised worker pool.
    Supervisor(Box<Supervisor>),
}

/// The long-running daemon wrapping a backend.
pub struct Daemon {
    backend: Backend,
    queue_capacity: usize,
    artifacts_dir: Option<PathBuf>,
    drain: Duration,
}

impl Daemon {
    /// Wrap an engine with the default queue capacity (64).
    pub fn new(engine: Engine) -> Self {
        Self {
            backend: Backend::Engine(Box::new(engine)),
            queue_capacity: 64,
            artifacts_dir: None,
            drain: Duration::from_secs(5),
        }
    }

    /// Wrap a supervised worker pool instead of an in-process engine.
    pub fn supervised(supervisor: Supervisor) -> Self {
        Self {
            backend: Backend::Supervisor(Box::new(supervisor)),
            queue_capacity: 64,
            artifacts_dir: None,
            drain: Duration::from_secs(5),
        }
    }

    /// Bound the admission queue (minimum 1). Requests arriving while
    /// the queue is full are shed with a typed `Overloaded` rejection.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Bound the shutdown drain: accepted requests still unanswered
    /// this long after shutdown starts get typed `ShuttingDown`
    /// rejections instead of holding the process open.
    #[must_use]
    pub fn with_drain(mut self, drain: Duration) -> Self {
        self.drain = drain;
        self
    }

    /// Where to write the observability artifacts
    /// (`serve-metrics.prom`, `serve-metrics.json`, `serve-trace.jsonl`)
    /// on shutdown.
    #[must_use]
    pub fn with_artifacts_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts_dir = Some(dir.into());
        self
    }

    /// Serial stdin/stdout mode: read request lines from `input`,
    /// answer on `output` in order, stop at EOF, a `Shutdown` request,
    /// or cancellation. No queue — admission control does not apply.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O and final-flush failures.
    pub fn run_lines(self, input: impl BufRead, output: impl Write) -> Result<(), ServeError> {
        match self.backend {
            Backend::Engine(engine) => run_lines_engine(*engine, self.artifacts_dir, input, output),
            Backend::Supervisor(sup) => {
                run_lines_supervised(*sup, self.queue_capacity, self.artifacts_dir, input, output)
            }
        }
    }

    /// TCP mode: bind `addr` (use port 0 for an ephemeral port), write
    /// one `chainnet-serve listening on <addr>` line to `announce`, and
    /// serve until cancelled. Returns after the consumer has drained
    /// accepted requests (within the drain budget) and flushed state +
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept failures and final-flush failures.
    pub fn run_tcp(self, addr: &str, announce: &mut dyn Write) -> Result<(), ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        writeln!(announce, "chainnet-serve listening on {local}")?;
        announce.flush()?;
        listener.set_nonblocking(true)?;

        let Daemon {
            backend,
            queue_capacity,
            artifacts_dir,
            drain,
        } = self;
        let obs = match &backend {
            Backend::Engine(engine) => engine.obs().clone(),
            Backend::Supervisor(sup) => sup.obs().clone(),
        };
        let cancel = obs.cancel.clone();
        let depth = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(queue_capacity);

        let mut consumer_result: Result<(), ServeError> = Ok(());
        std::thread::scope(|scope| {
            let consumer = scope.spawn({
                let obs = obs.clone();
                let depth = Arc::clone(&depth);
                let artifacts_dir = artifacts_dir.clone();
                move || match backend {
                    Backend::Engine(engine) => {
                        worker_loop(*engine, rx, &obs, &depth, artifacts_dir.as_deref(), drain)
                    }
                    Backend::Supervisor(sup) => sup.run(rx, artifacts_dir, Some(depth)),
                }
            });
            loop {
                if cancel.is_set() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let tx = tx.clone();
                        let obs = obs.clone();
                        let cancel = cancel.clone();
                        let depth = Arc::clone(&depth);
                        let capacity = queue_capacity;
                        scope.spawn(move || {
                            reader_loop(stream, &tx, &obs, &cancel, capacity, &depth);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(e) => {
                        // A transient accept failure should not kill a
                        // long-running daemon; note it and keep serving.
                        if obs.is_enabled() {
                            obs.registry.counter("serve.accept_errors").inc();
                        }
                        let _ = e;
                        std::thread::sleep(POLL);
                    }
                }
            }
            drop(tx);
            if let Ok(result) = consumer.join() {
                consumer_result = result;
            }
        });
        consumer_result
    }
}

/// Serial engine mode: one request, one answer, in order.
fn run_lines_engine(
    mut engine: Engine,
    artifacts_dir: Option<PathBuf>,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), ServeError> {
    let cancel = engine.obs().cancel.clone();
    for line in input.lines() {
        if cancel.is_set() {
            break;
        }
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        let resp = match parse_request_line(&line) {
            Ok(req) => {
                let shutdown = matches!(req.body, RequestBody::Shutdown);
                let resp = engine.handle(&req, received);
                if shutdown {
                    cancel.set();
                }
                resp
            }
            Err(e) => Response::rejected(0, e.kind(), e.to_string()),
        };
        let mut text = serde_json::to_string(&resp)
            .map_err(|e| ServeError::InvalidRequest(format!("unserializable response: {e}")))?;
        text.push('\n');
        output.write_all(text.as_bytes())?;
        output.flush()?;
    }
    engine.flush()?;
    if let Some(dir) = artifacts_dir {
        write_obs_artifacts(engine.obs(), &dir)?;
    }
    Ok(())
}

/// Serial supervised mode: the pool runs on its own thread; the serial
/// loop feeds it one request at a time through a one-shot mailbox and
/// writes each answer in order.
fn run_lines_supervised(
    sup: Supervisor,
    queue_capacity: usize,
    artifacts_dir: Option<PathBuf>,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), ServeError> {
    let cancel = sup.obs().cancel.clone();
    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(queue_capacity);
    let pool = std::thread::spawn(move || sup.run(rx, artifacts_dir, None));
    for line in input.lines() {
        if cancel.is_set() {
            break;
        }
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        let mut shutdown = false;
        let answer = match parse_request_line(&line) {
            Ok(request) => {
                shutdown = matches!(request.body, RequestBody::Shutdown);
                let (mail_tx, mail_rx) = std::sync::mpsc::sync_channel::<String>(1);
                let job = Job {
                    request,
                    received,
                    out: Reply::Mailbox(mail_tx),
                };
                if tx.send(job).is_err() {
                    break; // the pool is gone; stop accepting
                }
                // Wait for this request's answer (the supervisor always
                // answers accepted requests — the drain deadline bounds
                // the wait).
                loop {
                    match mail_rx.recv_timeout(POLL) {
                        Ok(line) => break Some(line),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break None,
                    }
                }
            }
            Err(e) => serde_json::to_string(&Response::rejected(0, e.kind(), e.to_string())).ok(),
        };
        let Some(answer) = answer else { break };
        output.write_all(answer.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if shutdown {
            // Stop here rather than block on the next stdin read: the
            // ShuttingDown ack is the last line of the conversation,
            // exactly as in the engine path above.
            break;
        }
    }
    drop(tx); // JobsClosed → the pool drains and stops
    match pool.join() {
        Ok(result) => result,
        Err(_) => Err(ServeError::Worker("supervisor thread panicked".to_string())),
    }
}

/// Dump the registry snapshot (Prometheus + JSON) and the collected
/// trace to `dir` with crash-safe atomic writes.
pub fn write_obs_artifacts(obs: &Obs, dir: &Path) -> Result<(), ServeError> {
    std::fs::create_dir_all(dir)?;
    let snapshot = obs.registry.snapshot();
    atomic_write(
        &dir.join("serve-metrics.prom"),
        snapshot.to_prometheus().as_bytes(),
    )?;
    if let Ok(json) = snapshot.to_json_pretty() {
        atomic_write(&dir.join("serve-metrics.json"), json.as_bytes())?;
    }
    if obs.tracer.is_enabled() {
        let trace = obs.tracer.take();
        atomic_write(
            &dir.join("serve-trace.jsonl"),
            trace.to_json_lines().as_bytes(),
        )?;
    }
    Ok(())
}

/// The single worker that owns the engine: answers accepted requests
/// in admission order; on cancellation it drains the queue under the
/// drain deadline — late stragglers get typed `ShuttingDown`
/// rejections, never silence, and shutdown never hangs on a backlog.
fn worker_loop(
    mut engine: Engine,
    rx: Receiver<Job>,
    obs: &Obs,
    depth: &AtomicU64,
    artifacts_dir: Option<&Path>,
    drain: Duration,
) -> Result<(), ServeError> {
    let cancel = obs.cancel.clone();
    loop {
        // Checked before every job, not just on an empty queue: once
        // shutdown starts, a backlog belongs to the bounded drain below,
        // not to an unbounded full-speed catch-up.
        if cancel.is_set() {
            break;
        }
        match rx.recv_timeout(POLL) {
            Ok(job) => {
                handle_job(&mut engine, job, obs, depth, &cancel);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Bounded drain: everything admitted before (or racing with)
    // cancellation gets a real answer while the budget lasts, then a
    // typed rejection.
    let deadline = Instant::now() + drain;
    while let Ok(job) = rx.try_recv() {
        if Instant::now() < deadline {
            handle_job(&mut engine, job, obs, depth, &cancel);
        } else {
            let d = depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            if obs.is_enabled() {
                obs.registry.gauge("serve.queue_depth").set(d as f64);
                obs.registry.counter("serve.requests_total").inc();
                obs.registry.counter("serve.drain_sheds").inc();
                obs.registry.counter("serve.responses_total").inc();
            }
            let _ = write_response(
                &job.out,
                &Response {
                    id: job.request.id,
                    outcome: Outcome::ShuttingDown,
                },
            );
        }
    }
    engine.flush()?;
    if let Some(dir) = artifacts_dir {
        write_obs_artifacts(engine.obs(), dir)?;
    }
    Ok(())
}

fn handle_job(engine: &mut Engine, job: Job, obs: &Obs, depth: &AtomicU64, cancel: &CancelFlag) {
    let d = depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
    if obs.is_enabled() {
        obs.registry.gauge("serve.queue_depth").set(d as f64);
        obs.registry
            .histogram(
                "serve.queue_wait_seconds",
                crate::engine::REQUEST_SECONDS_BUCKETS,
            )
            .observe(job.received.elapsed().as_secs_f64());
    }
    if matches!(job.request.body, RequestBody::Shutdown) {
        cancel.set();
    }
    let resp = engine.handle(&job.request, job.received);
    let _ = write_response(&job.out, &resp);
}

/// Per-connection reader: parse lines, admission-check, enqueue. Uses a
/// read timeout so the thread notices cancellation within [`POLL`] even
/// on an idle connection.
fn reader_loop(
    stream: TcpStream,
    tx: &SyncSender<Job>,
    obs: &Obs,
    cancel: &CancelFlag,
    capacity: usize,
    depth: &AtomicU64,
) {
    // Request/response over one connection is latency-bound by Nagle +
    // delayed ACK (~40ms per round trip) unless we disable coalescing.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Reply::Writer(Arc::new(Mutex::new(
        Box::new(write_half) as Box<dyn Write + Send>
    )));
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if cancel.is_set() {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                if !line.trim().is_empty() {
                    admit(&line, tx, obs, cancel, capacity, depth, &out);
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // Idle poll tick; partial line data (if any) stays in
                // `line` and the next read appends to it.
            }
            Err(_) => return,
        }
    }
}

/// Parse one request line and run admission control.
fn admit(
    line: &str,
    tx: &SyncSender<Job>,
    obs: &Obs,
    cancel: &CancelFlag,
    capacity: usize,
    depth: &AtomicU64,
    out: &Reply,
) {
    let request = match parse_request_line(line) {
        Ok(r) => r,
        Err(e) => {
            let _ = write_response(out, &Response::rejected(0, e.kind(), e.to_string()));
            return;
        }
    };
    let id = request.id;
    if cancel.is_set() {
        let _ = write_response(
            out,
            &Response {
                id,
                outcome: Outcome::ShuttingDown,
            },
        );
        return;
    }
    let job = Job {
        request,
        received: Instant::now(),
        out: out.clone(),
    };
    // Count the job before it becomes visible to the worker: the worker
    // decrements after recv, and recv happens-after try_send, so the
    // depth counter can never dip below zero.
    let d = depth.fetch_add(1, Ordering::Relaxed).saturating_add(1);
    match tx.try_send(job) {
        Ok(()) => {
            if obs.is_enabled() {
                obs.registry.counter("serve.accepted_total").inc();
                obs.registry.gauge("serve.queue_depth").set(d as f64);
            }
        }
        Err(TrySendError::Full(job)) => {
            depth.fetch_sub(1, Ordering::Relaxed);
            // Load shed at admission: typed rejection, no buffering.
            if obs.is_enabled() {
                obs.registry.counter("serve.requests_total").inc();
                obs.registry.counter("serve.overloaded_total").inc();
                obs.registry.counter("serve.responses_total").inc();
            }
            let err = ServeError::Overloaded { capacity };
            let _ = write_response(
                &job.out,
                &Response::rejected(id, RejectKind::Overloaded, err.to_string()),
            );
        }
        Err(TrySendError::Disconnected(job)) => {
            depth.fetch_sub(1, Ordering::Relaxed);
            let _ = write_response(
                &job.out,
                &Response {
                    id,
                    outcome: Outcome::ShuttingDown,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use chainnet_placement::problem::PlacementProblem;
    use chainnet_qsim::model::{Device, Fragment, ServiceChain};

    fn problem() -> PlacementProblem {
        let devices = vec![
            Device::new(8.0, 4.0).expect("device"),
            Device::new(8.0, 3.0).expect("device"),
            Device::new(8.0, 2.0).expect("device"),
        ];
        let chains = vec![ServiceChain::new(
            0.6,
            vec![
                Fragment::new(1.0, 1.0).expect("frag"),
                Fragment::new(1.0, 1.0).expect("frag"),
            ],
        )
        .expect("chain")];
        PlacementProblem::new(devices, chains).expect("problem")
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            sa_steps: 8,
            trials: 1,
            repair_steps: 4,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn stdin_mode_answers_in_order_and_stops_at_shutdown() {
        let engine = Engine::new(cfg(), Obs::enabled());
        let daemon = Daemon::new(engine);
        let topo = serde_json::to_string(&problem()).expect("serialize problem");
        let input = format!(
            concat!(
                "{{\"id\":1,\"body\":{{\"Topology\":{{\"problem\":{}}}}}}}\n",
                "{{\"id\":2,\"body\":{{\"Place\":{{\"hint\":null}}}}}}\n",
                "not json\n",
                "{{\"id\":3,\"body\":\"Ping\"}}\n",
                "{{\"id\":4,\"body\":\"Shutdown\"}}\n",
                "{{\"id\":5,\"body\":\"Ping\"}}\n",
            ),
            topo
        );
        let mut output = Vec::new();
        daemon
            .run_lines(std::io::Cursor::new(input), &mut output)
            .expect("run");
        let lines: Vec<Response> = String::from_utf8(output)
            .expect("utf8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("response line"))
            .collect();
        // id 5 never answered: shutdown stops the loop.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0].id, 1);
        assert!(matches!(lines[1].outcome, Outcome::Placed { .. }));
        assert!(matches!(
            lines[2].outcome,
            Outcome::Rejected {
                kind: RejectKind::Invalid,
                ..
            }
        ));
        assert!(matches!(lines[3].outcome, Outcome::Pong));
        assert!(matches!(lines[4].outcome, Outcome::ShuttingDown));
    }

    #[test]
    fn artifacts_are_written_on_shutdown() {
        let dir = std::env::temp_dir().join(format!("serve-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(cfg(), Obs::enabled());
        let daemon = Daemon::new(engine).with_artifacts_dir(&dir);
        let mut output = Vec::new();
        daemon
            .run_lines(
                std::io::Cursor::new("{\"id\":1,\"body\":\"Ping\"}\n"),
                &mut output,
            )
            .expect("run");
        let prom = std::fs::read_to_string(dir.join("serve-metrics.prom")).expect("prom file");
        assert!(prom.contains("serve_requests_total") || prom.contains("serve.requests_total"));
        assert!(dir.join("serve-metrics.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_lines_are_shed_with_a_typed_rejection() {
        let engine = Engine::new(cfg(), Obs::enabled());
        let daemon = Daemon::new(engine);
        let oversized = format!(
            "{{\"id\":1,\"body\":\"Ping\"{}}}\n{{\"id\":2,\"body\":\"Ping\"}}\n",
            " ".repeat(crate::protocol::MAX_LINE_BYTES)
        );
        let mut output = Vec::new();
        daemon
            .run_lines(std::io::Cursor::new(oversized), &mut output)
            .expect("run");
        let lines: Vec<Response> = String::from_utf8(output)
            .expect("utf8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("response line"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(matches!(
            lines[0].outcome,
            Outcome::Rejected {
                kind: RejectKind::Invalid,
                ..
            }
        ));
        assert!(matches!(lines[1].outcome, Outcome::Pong));
    }
}
