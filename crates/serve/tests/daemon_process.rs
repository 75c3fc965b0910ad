//! Process-level tests of the `chainnet-serve` binary: TCP transport,
//! graceful shutdown, SIGKILL crash + restart resume, and admission
//! control under pipelined load.

use chainnet_placement::problem::PlacementProblem;
use chainnet_qsim::model::{Device, Fragment, ServiceChain};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the daemon on drop so a panicking test never leaks a process.
struct DaemonGuard(Child);

impl DaemonGuard {
    fn wait(&mut self) -> std::process::ExitStatus {
        self.0.wait().expect("wait")
    }

    fn kill(&mut self) {
        let _ = self.0.kill();
    }

    fn id(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(state_dir: &Path, extra: &[&str]) -> (DaemonGuard, String) {
    let stderr_log = std::fs::File::create(state_dir.join(format!(
        "daemon-stderr-{}.log",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    )))
    .expect("create stderr log");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chainnet-serve"));
    cmd.arg("--bind")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--sa-steps")
        .arg("8")
        .arg("--trials")
        .arg("1")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr_log));
    let mut child = cmd.spawn().expect("spawn daemon");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announce line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("announce line has an address")
        .to_string();
    (DaemonGuard(child), addr)
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (reader, stream)
}

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    stream.flush().expect("flush");
}

fn recv(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(&line).expect("parse response")
}

fn topology_line(id: u64) -> String {
    let devices = vec![
        Device::new(10.0, 4.0).expect("device"),
        Device::new(10.0, 3.0).expect("device"),
        Device::new(10.0, 2.0).expect("device"),
        Device::new(10.0, 2.0).expect("device"),
    ];
    let chains = vec![
        ServiceChain::new(
            0.8,
            vec![
                Fragment::new(2.0, 1.0).expect("frag"),
                Fragment::new(2.0, 1.0).expect("frag"),
            ],
        )
        .expect("chain"),
        ServiceChain::new(
            0.5,
            vec![
                Fragment::new(1.0, 1.0).expect("frag"),
                Fragment::new(1.0, 1.0).expect("frag"),
            ],
        )
        .expect("chain"),
    ];
    let problem = PlacementProblem::new(devices, chains).expect("problem");
    let problem = serde_json::to_string(&problem).expect("serialize problem");
    format!("{{\"id\":{id},\"body\":{{\"Topology\":{{\"problem\":{problem}}}}}}}")
}

/// Walk a field path, panicking with the missing key's name.
fn field<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing field {key} in {cur:?}"));
    }
    cur
}

/// The externally-tagged outcome variant name ("Placed", "Pong", …).
fn outcome_key(v: &Value) -> String {
    match field(v, &["outcome"]) {
        Value::Str(s) => s.clone(),
        Value::Map(m) => m
            .first()
            .map(|(k, _)| k.clone())
            .expect("non-empty outcome object"),
        other => panic!("unexpected outcome shape: {other:?}"),
    }
}

#[test]
fn tcp_roundtrip_shutdown_is_graceful() {
    let dir = std::env::temp_dir().join(format!("serve-proc-grace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut child, addr) = spawn_daemon(&dir, &[]);
    let (mut reader, mut stream) = connect(&addr);

    send(&mut stream, &topology_line(1));
    assert_eq!(outcome_key(&recv(&mut reader)), "TopologyInstalled");
    send(&mut stream, r#"{"id":2,"body":{"Place":{"hint":null}}}"#);
    let placed = recv(&mut reader);
    assert_eq!(outcome_key(&placed), "Placed");
    assert_eq!(
        field(&placed, &["outcome", "Placed", "degradation"]).as_str(),
        Some("FullSearch"),
        "fresh topology with no deadline should get the full search"
    );
    send(&mut stream, r#"{"id":3,"body":"Shutdown"}"#);
    assert_eq!(outcome_key(&recv(&mut reader)), "ShuttingDown");

    let status = child.wait();
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");
    assert!(
        dir.join("serve-metrics.prom").is_file(),
        "metrics artifact flushed on shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_model_file_loads_and_answers_a_place() {
    // The repository's `{"model": …, "report": …}` training results load
    // as they are, like the bare files `train --out` writes.
    let model = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/model_smoke_chainnet.json"
    );
    let dir = std::env::temp_dir().join(format!("serve-proc-model-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut child, addr) = spawn_daemon(&dir, &["--model", model]);
    let (mut reader, mut stream) = connect(&addr);

    send(&mut stream, &topology_line(1));
    assert_eq!(outcome_key(&recv(&mut reader)), "TopologyInstalled");
    send(&mut stream, r#"{"id":2,"body":{"Place":{"hint":null}}}"#);
    assert_eq!(outcome_key(&recv(&mut reader)), "Placed");
    send(&mut stream, r#"{"id":3,"body":"Shutdown"}"#);
    assert_eq!(outcome_key(&recv(&mut reader)), "ShuttingDown");
    assert_eq!(child.wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_then_restart_resumes_serving_state() {
    let dir = std::env::temp_dir().join(format!("serve-proc-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut child, addr) = spawn_daemon(&dir, &[]);
    let (mut reader, mut stream) = connect(&addr);

    send(&mut stream, &topology_line(1));
    recv(&mut reader);
    send(&mut stream, r#"{"id":2,"body":{"Place":{"hint":null}}}"#);
    recv(&mut reader);
    send(
        &mut stream,
        r#"{"id":3,"body":{"Fault":{"event":{"time":0.0,"kind":{"DeviceCrash":{"device":0}}}}}}"#,
    );
    assert_eq!(outcome_key(&recv(&mut reader)), "FaultApplied");

    // SIGKILL: no flush, no goodbye. The fault above already
    // checkpointed, so a restart must remember it.
    child.kill();
    child.wait();

    let (mut child2, addr2) = spawn_daemon(&dir, &[]);
    let (mut reader2, mut stream2) = connect(&addr2);
    send(&mut stream2, r#"{"id":10,"body":"Stats"}"#);
    let stats = recv(&mut reader2);
    assert_eq!(outcome_key(&stats), "Stats");
    assert_eq!(
        field(&stats, &["outcome", "Stats", "crashed_devices"]).as_u64(),
        Some(1),
        "crash state survives SIGKILL via checkpoint"
    );
    assert_eq!(
        field(&stats, &["outcome", "Stats", "has_cached_placement"]).as_bool(),
        Some(true)
    );
    assert_eq!(
        field(&stats, &["outcome", "Stats", "requests_handled"]).as_u64(),
        Some(1),
        "placement-request counter survives restart"
    );

    // The resumed daemon keeps serving, avoiding the crashed device.
    send(&mut stream2, r#"{"id":11,"body":{"Place":{"hint":null}}}"#);
    let placed = recv(&mut reader2);
    assert_eq!(outcome_key(&placed), "Placed");
    let assignment = field(&placed, &["outcome", "Placed", "placement", "assignment"])
        .as_seq()
        .expect("assignment array");
    for route in assignment {
        for dev in route.as_seq().expect("route array") {
            assert_ne!(dev.as_u64(), Some(0), "placement uses crashed device 0");
        }
    }

    send(&mut stream2, r#"{"id":12,"body":"Shutdown"}"#);
    recv(&mut reader2);
    assert_eq!(child2.wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_load_never_loses_a_request() {
    let dir = std::env::temp_dir().join(format!("serve-proc-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    // Tiny queue: pipelined requests must either be answered or shed
    // with a typed Overloaded rejection — never silently dropped.
    let (mut child, addr) = spawn_daemon(&dir, &["--queue", "2"]);
    let (mut reader, mut stream) = connect(&addr);

    send(&mut stream, &topology_line(1));
    recv(&mut reader);

    const N: u64 = 40;
    for id in 100..100 + N {
        send(
            &mut stream,
            &format!("{{\"id\":{id},\"body\":{{\"Place\":{{\"hint\":null}}}}}}"),
        );
    }
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..N {
        let resp = recv(&mut reader);
        let id = field(&resp, &["id"]).as_u64().expect("response id");
        assert!(seen.insert(id), "duplicate response for id {id}");
        let key = outcome_key(&resp);
        if key == "Rejected" {
            assert_eq!(
                field(&resp, &["outcome", "Rejected", "kind"]).as_str(),
                Some("Overloaded"),
                "only admission-control rejections are allowed here"
            );
        } else {
            assert_eq!(key, "Placed");
        }
    }
    assert_eq!(
        seen.len() as u64,
        N,
        "every pipelined request got an answer"
    );

    send(&mut stream, r#"{"id":999,"body":"Shutdown"}"#);
    loop {
        let resp = recv(&mut reader);
        if field(&resp, &["id"]).as_u64() == Some(999) {
            break;
        }
    }
    assert_eq!(child.wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_flushes_and_exits_zero() {
    let dir = std::env::temp_dir().join(format!("serve-proc-term-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut child, addr) = spawn_daemon(&dir, &[]);
    let (mut reader, mut stream) = connect(&addr);
    send(&mut stream, &topology_line(1));
    recv(&mut reader);

    // SIGTERM via kill(2); the daemon drains and flushes before exit.
    let pid = child.id();
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(pid.to_string())
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let exit = child.wait();
    assert_eq!(exit.code(), Some(0), "SIGTERM is a graceful shutdown");
    assert!(dir.join("serve-metrics.prom").is_file());
    assert!(
        std::fs::read_dir(&dir)
            .expect("read state dir")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".ckpt")),
        "serving state checkpoint flushed on SIGTERM"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
