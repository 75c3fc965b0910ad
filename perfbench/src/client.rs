//! The daemon side of the benchmark: spawning `chainnet-serve`, its one
//! TCP connection (the sending thread plus one reader thread), and the
//! open-loop load generator.

use chainnet_serve::protocol::{Request, RequestBody, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long after the daemon announces its address the benchmark
/// connects. The daemon accepts connections by polling a non-blocking
/// listener every 50 ms, starting right after the announcement. A client
/// that connected at once sometimes won that race and was accepted at
/// the first poll, and sometimes lost it and waited for the second, so a
/// pool's set-up took either about 6 or about 55 ms, the mode changing
/// from run to run. Connecting a little later always finds the first
/// poll done and waits for the next one, as any client that does not
/// race the announcement does.
pub const CONNECT_AFTER: Duration = Duration::from_millis(10);

/// A running daemon and the benchmark's single connection to it.
pub struct Daemon {
    child: Child,
    stream: TcpStream,
    answers: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    /// Sum and count of round-trip times of every answered request.
    rtt: (f64, usize),
}

impl Daemon {
    /// Spawn `bin --bind 127.0.0.1:0 <args>`, read the announced address
    /// and connect [`CONNECT_AFTER`] later. Daemon stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let stderr =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["--bind", "127.0.0.1:0", "--quiet"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let announce = child
            .stdout
            .take()
            .ok_or("daemon stdout missing")
            .and_then(|out| {
                let mut line = String::new();
                BufReader::new(out)
                    .read_line(&mut line)
                    .map_err(|_| "read announce line")?;
                Ok(line)
            });
        let addr = match announce {
            Ok(line) if line.contains("listening on") => line
                .trim()
                .rsplit(' ')
                .next()
                .unwrap_or_default()
                .to_string(),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not announce an address: {other:?}"));
            }
        };
        std::thread::sleep(CONNECT_AFTER);
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        let _ = stream.set_nodelay(true);
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let (tx, answers) = channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = Instant::now();
                        if tx.send((at, line.trim_end().to_string())).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Self {
            child,
            stream,
            answers,
            reader: Some(reader),
            next_id: 1,
            rtt: (0.0, 0),
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Mean round-trip time, from send to answer, of every request
    /// answered on this connection, and how many there were.
    pub fn mean_rtt_ms(&self) -> (f64, usize) {
        let (sum, n) = self.rtt;
        (sum / n.max(1) as f64 * 1e3, n)
    }

    /// A fresh request id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Write one request line; returns when it was handed to the socket.
    pub fn send_line(&mut self, line: &str) -> Result<Instant, String> {
        self.send_lines(std::iter::once(line))
    }

    /// Write request lines in a single write; returns when they were
    /// handed to the socket.
    pub fn send_lines<'l>(
        &mut self,
        lines: impl Iterator<Item = &'l str>,
    ) -> Result<Instant, String> {
        let mut buf = String::new();
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        self.stream
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        Ok(Instant::now())
    }

    /// The next answer line, waiting at most `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<(Instant, String)> {
        self.answers.recv_timeout(timeout).ok()
    }

    /// Send one request and wait for its answer (nothing else may be
    /// outstanding). Returns the answer line and the round-trip time.
    pub fn call_line(&mut self, line: &str, timeout: Duration) -> Result<(String, f64), String> {
        let sent = self.send_line(line)?;
        let (at, answer) = self
            .recv(timeout)
            .ok_or_else(|| format!("no answer within {timeout:?} to {}", preview(line)))?;
        let rtt = at.duration_since(sent).as_secs_f64();
        self.rtt.0 += rtt;
        self.rtt.1 += 1;
        Ok((answer, rtt))
    }

    /// [`Daemon::call_line`] for a typed request body.
    pub fn call(&mut self, body: RequestBody, timeout: Duration) -> Result<Response, String> {
        let id = self.next_id();
        let line = request_line(id, body)?;
        let (answer, _) = self.call_line(&line, timeout)?;
        let resp: Response = serde_json::from_str(&answer)
            .map_err(|e| format!("bad answer {}: {e}", preview(&answer)))?;
        if resp.id != id {
            return Err(format!("answer id {} for request {id}", resp.id));
        }
        Ok(resp)
    }

    /// Graceful shutdown: `Shutdown`, then wait for the process to exit
    /// (killing it after ten seconds).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.call(RequestBody::Shutdown, Duration::from_secs(10));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return match (asked, status.success()) {
                        (Ok(_), true) => Ok(()),
                        (asked, _) => Err(format!("daemon shutdown: {asked:?}, exit {status}")),
                    }
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("daemon did not exit within 10 s of Shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Serialize a request line.
pub fn request_line(id: u64, body: RequestBody) -> Result<String, String> {
    serde_json::to_string(&Request {
        id,
        deadline_ms: None,
        body,
    })
    .map_err(|e| format!("encode request: {e}"))
}

/// The first 120 bytes of a line, for error messages.
pub fn preview(line: &str) -> String {
    line.chars().take(120).collect()
}

/// The request id of an answer line, read without a full parse (the
/// encoder writes `{"id":N,…` first).
pub fn answer_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// One request of an open-loop plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Seconds after the phase start at which it is due.
    pub due_s: f64,
    /// Request id.
    pub id: u64,
    /// The request line.
    pub line: String,
}

/// What happened to one planned request.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Seconds after the phase start it was actually sent, if it was.
    pub sent_s: Option<f64>,
    /// Seconds after the phase start its answer arrived, if it did.
    pub answered_s: Option<f64>,
    /// The answer line.
    pub answer: Option<String>,
}

/// One open-loop phase's outcome.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Per planned request, in plan order.
    pub observed: Vec<Observed>,
    /// Requests outstanding when the first quarter of the plan had been
    /// sent. A phase starts on a drained queue, so this is the depth its
    /// rate has built up to, against which [`PhaseResult::backlog_end`]
    /// shows whether the backlog keeps growing.
    pub backlog_start: usize,
    /// Requests outstanding when the last request was sent.
    pub backlog_end: usize,
    /// Whether sending stopped early because the backlog passed the cap.
    pub aborted: bool,
}

/// Send `plan` on schedule from now, whatever the daemon's pace (an
/// open loop), collecting answers as they arrive. Requests due at the
/// same time (a burst) go out in one write. Sending stops early
/// once more than `max_backlog` requests are outstanding, below the
/// daemon's admission queue, so a saturated step ends before the daemon
/// sheds anything. Waits up to `drain` after the last send for the
/// remaining answers; anything still missing is left unanswered.
pub fn open_loop(
    d: &mut Daemon,
    plan: &[Planned],
    max_backlog: usize,
    drain: Duration,
) -> Result<PhaseResult, String> {
    let start = Instant::now();
    let first_id = plan.first().map_or(0, |p| p.id);
    let mut res = PhaseResult {
        observed: vec![Observed::default(); plan.len()],
        ..PhaseResult::default()
    };
    let mut outstanding = 0usize;
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    let take = |res: &mut PhaseResult, outstanding: &mut usize, at: Instant, line: String| {
        let slot = answer_id(&line)
            .and_then(|id| id.checked_sub(first_id))
            .and_then(|i| res.observed.get_mut(i as usize));
        if let Some(o) = slot {
            if o.answer.is_none() {
                o.answered_s = Some(secs(at));
                o.answer = Some(line);
                *outstanding = outstanding.saturating_sub(1);
            }
        }
    };
    let mut i = 0;
    while i < plan.len() {
        let due = start + Duration::from_secs_f64(plan[i].due_s);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if let Some((at, line)) = d.recv(due - now) {
                take(&mut res, &mut outstanding, at, line);
            }
        }
        while let Ok((at, line)) = d.answers.try_recv() {
            take(&mut res, &mut outstanding, at, line);
        }
        if outstanding > max_backlog {
            res.aborted = true;
            break;
        }
        // Everything due by now goes out in one write (a burst, or what
        // a late generator owes), without passing the backlog cap.
        let now_s = secs(Instant::now());
        let mut end = i + 1;
        while end < plan.len() && plan[end].due_s <= now_s && outstanding + (end - i) <= max_backlog
        {
            end += 1;
        }
        let quarter = plan.len() / 4;
        if (i..end).contains(&quarter) {
            res.backlog_start = outstanding + (quarter - i);
        }
        let sent = d.send_lines(plan[i..end].iter().map(|p| p.line.as_str()))?;
        for o in &mut res.observed[i..end] {
            o.sent_s = Some(secs(sent));
        }
        outstanding += end - i;
        i = end;
    }
    res.backlog_end = outstanding;
    let drain_from = Instant::now();
    let deadline = drain_from + drain;
    while outstanding > 0 {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let Some((at, line)) = d.recv(deadline - now) {
            take(&mut res, &mut outstanding, at, line);
        }
    }
    for o in &res.observed {
        if let (Some(sent), Some(at)) = (o.sent_s, o.answered_s) {
            d.rtt.0 += at - sent;
            d.rtt.1 += 1;
        }
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_ids_are_read_without_parsing() {
        assert_eq!(answer_id("{\"id\":42,\"outcome\":\"Pong\"}"), Some(42));
        assert_eq!(answer_id("{\"outcome\":\"Pong\"}"), None);
        let line = request_line(7, RequestBody::Ping).expect("encode");
        assert_eq!(answer_id(&line), Some(7));
    }
}
