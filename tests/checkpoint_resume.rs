//! End-to-end crash-recovery tests of the `chainnet-cli` binary: kill a
//! checkpointed `train` (sequential or `--dtype f32`) or `optimize` run
//! with SIGKILL, resume it in a
//! fresh process, and check the final artifact is byte-identical to an
//! uninterrupted run;
//! corrupt a checkpoint on disk and watch resume quarantine it and fall
//! back; check the documented exit codes for checkpoint flag misuse.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chainnet-cli"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chainnet_ckpt_{name}_{}", std::process::id()))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = temp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generate the small dataset the training tests share.
fn gen_dataset(path: &Path) {
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            path.to_str().unwrap(),
            "--samples",
            "10",
            "--horizon",
            "150",
            "--seed",
            "5",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The shared `train` invocation plus `extra` options; every run of it
/// must produce the same model bytes, interrupted or not.
fn train_cmd(data: &Path, model: &Path, ckpt_dir: &Path, resume: bool, extra: &[&str]) -> Command {
    let mut cmd = bin();
    cmd.args([
        "train",
        "--data",
        data.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
        "--epochs",
        "30",
        "--hidden",
        "16",
        "--iterations",
        "3",
        "--batch",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    cmd.args(extra);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

#[test]
fn checkpoint_flag_misuse_has_documented_exit_codes() {
    let dir = temp_dir("codes");
    let out_file = temp("codes_out.json");
    let data = temp("codes_data.json");
    gen_dataset(&data);

    // --resume without --checkpoint-dir: usage error, exit 2.
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"));

    // --checkpoint-every 0: typed checkpoint error, exit 3.
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            out_file.to_str().unwrap(),
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    // --checkpoint-dir pointing at a regular file: exit 3.
    let file = temp("codes_not_a_dir");
    std::fs::write(&file, b"x").unwrap();
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            out_file.to_str().unwrap(),
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));

    // --resume over an empty directory: nothing to resume, exit 4.
    let out = bin()
        .args([
            "gen-dataset",
            "--out",
            out_file.to_str().unwrap(),
            "--samples",
            "2",
            "--horizon",
            "100",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    for p in [&out_file, &data, &file] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigkill_mid_train_then_resume_is_bit_identical() {
    let (data, kill_dir) = sigkill_mid_train_then_resume("kill", &[]);
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[cfg(unix)]
#[test]
fn sigkill_mid_f32_train_then_resume_is_bit_identical() {
    let (data, kill_dir) = sigkill_mid_train_then_resume("kill_f32", &["--dtype", "f32"]);
    // The checkpoints record the packed f32 step: resuming them with the
    // sequential step is a checkpoint mismatch, exit 3.
    let model = temp("kill_f32_seq_model.json");
    let out = train_cmd(&data, &model, &kill_dir, true, &[])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("packed f32"));
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

/// Train once uninterrupted and once SIGKILLed after a few checkpoints
/// and resumed, with `extra` options; the two models must be
/// byte-identical. Returns the dataset and the killed run's checkpoint
/// directory.
#[cfg(unix)]
fn sigkill_mid_train_then_resume(tag: &str, extra: &[&str]) -> (PathBuf, PathBuf) {
    let data = temp(&format!("{tag}_data.json"));
    gen_dataset(&data);

    // Uninterrupted reference run.
    let ref_dir = temp_dir(&format!("{tag}_ref"));
    let ref_model = temp(&format!("{tag}_ref_model.json"));
    let out = train_cmd(&data, &ref_model, &ref_dir, false, extra)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Killed run: SIGKILL as soon as a few checkpoints have landed. If
    // the run wins the race and finishes first, the resume below still
    // has to reproduce the identical model from its final checkpoint.
    let kill_dir = temp_dir(&format!("{tag}_victim"));
    let kill_model = temp(&format!("{tag}_victim_model.json"));
    let mut child = train_cmd(&data, &kill_model, &kill_dir, false, extra)
        .spawn()
        .expect("spawn");
    let target = kill_dir.join("train-00000003.ckpt");
    for _ in 0..600 {
        if target.exists() {
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL
    let _ = child.wait();
    assert!(
        !kill_dir.join("train-00000030.ckpt").exists() || kill_model.exists(),
        "killed run left a final checkpoint but no model artifact"
    );

    // Resume in a fresh process and compare the model byte for byte.
    let out = train_cmd(&data, &kill_model, &kill_dir, true, extra)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&ref_model).unwrap(),
        std::fs::read(&kill_model).unwrap(),
        "resumed model differs from the uninterrupted reference"
    );

    for p in [&ref_model, &kill_model] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    (data, kill_dir)
}

/// The shared simulator-backed `optimize` invocation on the Sec. VIII-D
/// case study at neighborhood width `k`.
fn optimize_cmd(problem: &Path, out: &Path, ckpt_dir: &Path, k: usize, resume: bool) -> Command {
    let mut cmd = bin();
    cmd.args([
        "optimize",
        "--problem",
        problem.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--steps",
        "30",
        "--trials",
        "2",
        "--horizon",
        "2000",
        "--seed",
        "3",
        "--neighborhood",
        &k.to_string(),
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "2",
    ]);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

/// Run `cmd` to success and return the report lines that do not depend
/// on wall-clock time (the `search:` line keeps only its evaluation
/// count).
fn optimize_report(cmd: &mut Command) -> Vec<String> {
    let out = cmd.output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| match l.strip_prefix("search: ") {
            Some(rest) => rest.split_whitespace().next().unwrap().to_owned(),
            None => l.to_owned(),
        })
        .collect()
}

/// SIGKILL a checkpointed search after its third checkpoint, resume it,
/// and compare report and placement with an uninterrupted run.
#[cfg(unix)]
fn sigkill_mid_optimize_then_resume(k: usize) {
    let problem = temp(&format!("opt{k}_problem.json"));
    let out = bin()
        .args(["case-study", "--out", problem.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());

    let ref_dir = temp_dir(&format!("opt{k}_ref"));
    let ref_out = temp(&format!("opt{k}_ref_placement.json"));
    let reference = optimize_report(&mut optimize_cmd(&problem, &ref_out, &ref_dir, k, false));

    let kill_dir = temp_dir(&format!("opt{k}_victim"));
    let kill_out = temp(&format!("opt{k}_victim_placement.json"));
    let mut child = optimize_cmd(&problem, &kill_out, &kill_dir, k, false)
        .spawn()
        .expect("spawn");
    let target = kill_dir.join("sa-00000003.ckpt");
    for _ in 0..600 {
        if target.exists() {
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL
    let _ = child.wait();

    let resumed = optimize_report(&mut optimize_cmd(&problem, &kill_out, &kill_dir, k, true));
    assert_eq!(reference, resumed, "resumed search report differs");
    assert_eq!(
        std::fs::read(&ref_out).unwrap(),
        std::fs::read(&kill_out).unwrap(),
        "resumed placement differs from the uninterrupted reference"
    );

    // The width is part of the checkpointed search: resuming at another
    // width is a typed mismatch, exit 3.
    let out = optimize_cmd(&problem, &kill_out, &kill_dir, k + 1, true)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("neighborhood"));

    for p in [&problem, &ref_out, &kill_out] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&ref_dir, &kill_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[cfg(unix)]
#[test]
fn sigkill_mid_optimize_then_resume_is_bit_identical() {
    sigkill_mid_optimize_then_resume(1);
}

#[cfg(unix)]
#[test]
fn sigkill_mid_neighborhood_optimize_then_resume_is_bit_identical() {
    sigkill_mid_optimize_then_resume(4);
}

#[test]
fn corrupt_checkpoint_is_quarantined_and_resume_falls_back() {
    let data = temp("corrupt_data.json");
    gen_dataset(&data);

    // Complete checkpointed run, then flip one byte in the newest
    // checkpoint to simulate on-disk corruption.
    let dir = temp_dir("corrupt");
    let ref_model = temp("corrupt_ref_model.json");
    let out = train_cmd(&data, &ref_model, &dir, false, &[])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let latest = dir.join("train-00000030.ckpt");
    let mut bytes = std::fs::read(&latest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&latest, &bytes).unwrap();

    // Resume must quarantine the bad file, fall back to the previous
    // verified checkpoint, and still converge to the identical model.
    let resumed_model = temp("corrupt_resumed_model.json");
    let out = train_cmd(&data, &resumed_model, &dir, true, &[])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        dir.join("train-00000030.ckpt.corrupt").exists(),
        "corrupt checkpoint was not quarantined"
    );
    assert_eq!(
        std::fs::read(&ref_model).unwrap(),
        std::fs::read(&resumed_model).unwrap(),
        "fallback resume produced a different model"
    );

    for p in [&data, &ref_model, &resumed_model] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
