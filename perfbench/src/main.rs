//! `perfbench`: the compiled half of the end-to-end benchmark.
//!
//! `perfbench/run.py` drives the real `comsig` binary and measures it;
//! this program supplies what the harness cannot do from outside:
//!
//! ```text
//! perfbench gen --workload W --seed N --dir D
//!     write D/events.txt (the log) and D/seed.txt (the serve label
//!     space) for workload W; print a JSON stamp of what was written.
//! perfbench ref --workload W --dir D --threads T --trace 0|1 --seconds S
//!               [--requests FILE --killed DIR]
//!     run the in-process reference: the stream composition with its
//!     cold-rebuild checks (writing D/expected.txt, the lines the CLI
//!     must print) and, given the serve session's request log, the
//!     dispatcher replica (writing D/replica.txt, the responses the
//!     server must give). With --trace 1, repeat the traced composition
//!     and replicas for S seconds and write every span to D/spans.jsonl.
//!     Print a JSON summary of checks and window times.
//! ```

#![forbid(unsafe_code)]

mod serve;
mod stream;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::json;

use crate::trace::Tracer;
use crate::workload::{Workload, INGEST_BATCH, QUERIES_PER_WINDOW, RANK_TOP};

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a number"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let seed: u64 = args.num("seed")?;
    let dir = PathBuf::from(args.get("dir")?);
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let written = workload::write(&w, seed, &dir).map_err(|e| e.to_string())?;
    println!(
        "{}",
        json!({
            "workload": w.name,
            "seed": seed,
            "events": written.events,
            "subjects": written.subjects,
            "nodes": written.nodes,
            "digest": format!("{:016x}", written.digest),
            "scheme": w.scheme,
            "tier": w.tier,
            "windows": w.windows,
            "serve_windows": w.serve_windows,
            "ingest_batch": INGEST_BATCH,
            "queries_per_window": QUERIES_PER_WINDOW,
            "rank_top": RANK_TOP,
        })
    );
    Ok(())
}

fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let mut text = lines.join("\n");
    text.push('\n');
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        fs::remove_dir_all(path).map_err(|e| e.to_string())?;
    }
    fs::create_dir_all(path).map_err(|e| e.to_string())
}

/// Window times in milliseconds, the first window (cold) left out, as
/// the end-to-end `window_p50_ms` counts them.
fn steady_window_ms(run: &stream::StreamRun) -> Vec<f64> {
    run.window_ns
        .iter()
        .skip(1)
        .map(|&ns| ns as f64 / 1e6)
        .collect()
}

/// Positions where two response logs differ, counting missing lines.
fn diff_count(a: &[String], b: &[String]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

fn cmd_ref(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let dir = PathBuf::from(args.get("dir")?);
    let threads: usize = args.num("threads")?;
    let traced = args.get("trace")? == "1";
    let seconds: f64 = args.num("seconds")?;
    let requests: Vec<String> = match args.get("requests") {
        Ok(path) => fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .map(str::to_owned)
            .collect(),
        Err(_) => Vec::new(),
    };
    let killed = args.get("killed").ok().map(PathBuf::from);

    // The checked, untraced pass: expected CLI lines, cold rebuilds.
    let opts = stream::Opts {
        threads,
        check: true,
        keep_deltas: false,
        rep: 0,
    };
    let mut off = Tracer::new(false);
    let checked = stream::run(&w, &dir, opts, &mut off)?;
    write_lines(&dir.join("expected.txt"), &checked.lines)?;
    let mut checks = checked.checks;
    let mut failed = checked.failed;
    let mut failures = checked.failures.clone();
    let replica = serve::Replica {
        w: &w,
        threads,
        dir: &dir,
    };
    let mut responses = Vec::new();
    if !requests.is_empty() {
        let data = dir.join("replica");
        fresh_dir(&data)?;
        responses = replica.protocol(&data, &requests, &mut off)?;
        write_lines(&dir.join("replica.txt"), &responses)?;
    }

    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut reps = 0u64;
    if traced {
        let mut t = Tracer::new(true);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while reps == 0 || Instant::now() < deadline {
            let rep = reps + 1;
            let quiet = stream::Opts {
                check: false,
                rep,
                ..opts
            };
            let plain = stream::run(&w, &dir, quiet, &mut off)?;
            untraced_ms.extend(steady_window_ms(&plain));
            let first = reps == 0 && w.tier == "exact";
            let mut run = stream::run(
                &w,
                &dir,
                stream::Opts {
                    keep_deltas: first,
                    ..quiet
                },
                &mut t,
            )?;
            traced_ms.extend(steady_window_ms(&run));
            if first {
                stream::single_thread_tier(&w, rep, &mut run, &mut t)?;
            }
            checks += run.checks;
            failed += run.failed;
            failures.extend(run.failures);
            if let (false, Some(killed)) = (requests.is_empty(), &killed) {
                let data = dir.join("replica");
                fresh_dir(&data)?;
                let again = replica.protocol(&data, &requests, &mut t)?;
                fresh_dir(&data)?;
                let scratch = dir.join("wal-scratch.log");
                let bad = replica.traced(&data, killed, &scratch, &requests, rep, &mut t)?;
                checks += 2 * requests.len() as u64;
                failed += bad + diff_count(&again, &responses);
            }
            reps += 1;
        }
        let file = fs::File::create(dir.join("spans.jsonl")).map_err(|e| e.to_string())?;
        t.write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
    }

    let (sum, n) = checked.agreement;
    println!(
        "{}",
        json!({
            "checks": checks,
            "failed": failed,
            "failures": failures,
            "agreement": if n == 0 { 1.0 } else { sum / n as f64 },
            "untraced_window_ms": untraced_ms,
            "traced_window_ms": traced_ms,
            "reps": reps,
        })
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: perfbench gen|ref --flag value ...");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "ref" => cmd_ref(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
