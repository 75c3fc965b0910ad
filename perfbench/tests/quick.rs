//! Quick mode: every workload end to end in seconds, traced and
//! untraced, through the real binary and a real daemon.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (this package lives in `perfbench/`).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench has a parent directory")
        .to_path_buf()
}

/// Build `chainnet-serve` from the root workspace into the target
/// directory this test binary was built in, with the same profile.
fn serve_bin() -> PathBuf {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let profile_dir = bench.parent().expect("profile dir");
    let target_dir = profile_dir.parent().expect("target dir");
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.current_dir(root())
        .args(["build", "--offline", "--quiet", "-p", "chainnet-serve"])
        .args(["--bin", "chainnet-serve", "--target-dir"])
        .arg(target_dir);
    if profile_dir.file_name().is_some_and(|n| n == "release") {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("run cargo");
    assert!(status.success(), "building chainnet-serve failed");
    profile_dir.join("chainnet-serve")
}

/// Metric names of one list in `BENCHMARK.json`.
fn names(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.get(list)
        .and_then(|l| l.as_seq())
        .expect("metric list")
        .iter()
        .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(String::from))
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_in_quick_mode() {
    let serve = serve_bin();
    let model = root().join("results/model_default_chainnet.json");
    let work = std::env::temp_dir().join(format!("perfbench-quick-{}", std::process::id()));
    for workload in ["pipeline", "serve-gnn", "serve-pool"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--quick", "--serve-bin"])
                .arg(&serve)
                .arg("--model")
                .arg(&model)
                .arg("--work-dir")
                .arg(work.join(format!("{workload}-{trace}")))
                .output()
                .expect("run perfbench");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().expect("a result line");
            let v: serde_json::Value = serde_json::from_str(last).expect("result is JSON");
            assert_eq!(
                v.get("correct").and_then(|c| c.as_bool()),
                Some(true),
                "{stderr}"
            );
            assert!(v.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0) >= 1);
            assert_eq!(
                v.get("failed").and_then(|f| f.as_u64()),
                Some(0),
                "{stderr}"
            );
            let got: Vec<String> = v
                .get("metrics")
                .and_then(|m| m.as_map())
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            let list = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            assert_eq!(got, names(list), "{workload} --trace {trace}");
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
