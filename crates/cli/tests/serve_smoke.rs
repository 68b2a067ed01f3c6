//! End-to-end kill-and-resume smoke test for `comsig serve`.
//!
//! Drives the real binary over its TCP socket: one uninterrupted run
//! and one run that is SIGKILLed between windows and restarted on the
//! same data directory. The acceptance bar is byte-identical protocol
//! transcripts — every advance acknowledgement, signature, ranking and
//! state digest after the kill must match the uninterrupted run's.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use comsig_serve::call;

/// A spawned daemon, SIGKILLed on drop so a failing assertion never
/// leaks a process.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("comsig-serve-smoke")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// 40 events over 6 hosts: four aligned width-10 windows.
fn seed_lines() -> Vec<String> {
    (0..40u64)
        .map(|t| format!("{t} h{} h{} {}", t % 6, (t + 2) % 6, 1 + t % 5))
        .collect()
}

fn spawn_daemon(data_dir: &Path, seed_file: &Path, addr_file: &Path, extra: &[&str]) -> Daemon {
    let _ = std::fs::remove_file(addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_comsig"))
        .args([
            "serve",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--seed-events",
            seed_file.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--window-width",
            "10",
            "--k",
            "4",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn comsig serve");
    Daemon(child)
}

/// Waits for the daemon to publish its ephemeral address and answer a
/// `status` request with a ready phase.
fn wait_ready(addr_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "daemon did not become ready");
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim().to_owned();
            if !addr.is_empty() {
                if let Ok(resp) = call(&addr, &[r#"{"op":"status"}"#.to_owned()]) {
                    if resp[0].contains(r#""phase":"ready"#) {
                        return addr;
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The ingest+advance request pair for window `w` of the seed stream.
fn window_requests(lines: &[String], w: u64) -> Vec<String> {
    let batch: Vec<String> = lines
        .iter()
        .filter(|l| {
            let t: u64 = l.split_whitespace().next().unwrap().parse().unwrap();
            t / 10 == w
        })
        .cloned()
        .collect();
    vec![
        format!(r#"{{"op":"ingest","lines":"{}"}}"#, batch.join("\\n")),
        r#"{"op":"advance"}"#.to_owned(),
    ]
}

/// Query transcript run after the last window: the byte-compare corpus.
fn final_queries() -> Vec<String> {
    vec![
        r#"{"op":"digest"}"#.to_owned(),
        r#"{"op":"signature","node":"h0"}"#.to_owned(),
        r#"{"op":"rank","node":"h1","top":4}"#.to_owned(),
        r#"{"op":"masquerade"}"#.to_owned(),
        r#"{"op":"anomaly","top":3}"#.to_owned(),
    ]
}

/// Runs the uninterrupted-vs-SIGKILLed transcript comparison for one
/// tier's extra flags. The acceptance bar is identical for both tiers:
/// byte-identical transcripts after the crash.
fn kill_and_resume_case(name: &str, extra: &[&str]) {
    let dir = scratch(name);
    let seed_file = dir.join("seed.events");
    let lines = seed_lines();
    std::fs::write(&seed_file, format!("{}\n", lines.join("\n"))).unwrap();

    // Uninterrupted reference run: 4 windows, then the query corpus.
    let clean_data = dir.join("clean");
    let addr_file = dir.join("clean.addr");
    let mut reference = Vec::new();
    {
        let _daemon = spawn_daemon(&clean_data, &seed_file, &addr_file, extra);
        let addr = wait_ready(&addr_file);
        for w in 0..4 {
            reference.extend(call(&addr, &window_requests(&lines, w)).unwrap());
        }
        reference.extend(call(&addr, &final_queries()).unwrap());
        call(&addr, &[r#"{"op":"shutdown"}"#.to_owned()]).unwrap();
    }

    // Interrupted run: 2 windows, SIGKILL, restart, 2 more windows.
    let crash_data = dir.join("crash");
    let addr_file = dir.join("crash.addr");
    let mut transcript = Vec::new();
    {
        let daemon = spawn_daemon(&crash_data, &seed_file, &addr_file, extra);
        let addr = wait_ready(&addr_file);
        for w in 0..2 {
            transcript.extend(call(&addr, &window_requests(&lines, w)).unwrap());
        }
        drop(daemon); // SIGKILL, no shutdown handshake
    }
    {
        let _daemon = spawn_daemon(&crash_data, &seed_file, &addr_file, extra);
        let addr = wait_ready(&addr_file);
        for w in 2..4 {
            transcript.extend(call(&addr, &window_requests(&lines, w)).unwrap());
        }
        transcript.extend(call(&addr, &final_queries()).unwrap());
        call(&addr, &[r#"{"op":"shutdown"}"#.to_owned()]).unwrap();
    }

    assert_eq!(
        reference.len(),
        transcript.len(),
        "transcript lengths diverged"
    );
    for (i, (a, b)) in reference.iter().zip(transcript.iter()).enumerate() {
        assert_eq!(a, b, "response {i} diverged after kill-and-resume");
        assert!(a.contains(r#""ok":true"#), "response {i} not ok: {a}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_transcripts_are_byte_identical() {
    kill_and_resume_case("kill-resume", &[]);
}

#[test]
fn sketch_tier_kill_and_resume_transcripts_are_byte_identical() {
    kill_and_resume_case(
        "kill-resume-sketch",
        &["--tier", "sketch", "--cm-width", "64", "--budget", "16"],
    );
}

/// UT is the sketch scheme that persists per-destination FM bitmaps and
/// rebuilds its tracker map on recovery, so it gets its own crash run.
#[test]
fn sketch_tier_ut_kill_and_resume_transcripts_are_byte_identical() {
    kill_and_resume_case(
        "kill-resume-sketch-ut",
        &[
            "--tier",
            "sketch",
            "--scheme",
            "ut",
            "--cm-width",
            "64",
            "--budget",
            "16",
        ],
    );
}
