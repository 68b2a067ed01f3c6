//! In-process replicas of a `comsig serve` session.
//!
//! The harness logs every request line it sent to the real server
//! (ingest batches, advances, queries, the final digest). Two replicas
//! replay that log against a fresh data directory:
//!
//! * [`Replica::protocol`] feeds each line through
//!   [`protocol::handle_line`](comsig_serve::protocol::handle_line), the
//!   server's own dispatcher, and returns the response lines — the
//!   harness requires them to equal the real server's responses byte
//!   for byte, the final digest included. Traced, it spans each call as
//!   `serve.handle_line`.
//! * [`Replica::traced`] drives the same requests through the public
//!   [`DurableState`] methods, one span per call (`serve.ingest_lines`,
//!   `serve.advance`, `serve.rank`, `serve.signature`), counts the WAL
//!   bytes each ingest appended, then times [`WalWriter`] append + sync
//!   on payloads of those sizes (`persist.wal_sync`) and recovery of the
//!   killed server's data directory (`serve.open`).

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use comsig_cli::spec::{parse_delta_scheme, parse_distance};
use comsig_core::distance::BatchDistance;
use comsig_core::persist::WalWriter;
use comsig_core::pipeline::DeltaScheme;
use comsig_graph::io::read_events_with_policy;
use comsig_graph::{IngestPolicy, Interner, NodeId};
use comsig_serve::config::TierSpec;
use comsig_serve::protocol::{handle_line, Gate};
use comsig_serve::snapshot::wal_file;
use comsig_serve::state::subject_sources;
use comsig_serve::{DurableState, ServeConfig};
use serde_json::Value;

use crate::stream::{ann_config, detector_config, sketch_config, DIST};
use crate::trace::Tracer;
use crate::workload::Workload;

/// WAL frame header: little-endian length + FNV-1a digest.
const WAL_FRAME_HEADER: u64 = 12;

/// The configuration `comsig serve` builds from the harness's flags
/// (`--scheme`, `--tier`, `--threads`, every other flag at its default).
#[must_use]
pub fn config(w: &Workload, threads: usize, start: u64) -> Option<ServeConfig> {
    let cfg = detector_config();
    Some(ServeConfig {
        scheme_spec: w.scheme.to_owned(),
        dist_spec: DIST.to_owned(),
        k: cfg.k,
        width: 1,
        slide: 1,
        start,
        threshold_divisor: cfg.threshold_divisor,
        top_l: cfg.top_l,
        snapshot_every: 0,
        threads,
        ingest: IngestPolicy::Strict,
        tier: TierSpec::parse(w.tier)?,
        sketch: sketch_config(),
        ann: ann_config(),
    })
}

struct Genesis {
    interner: Interner,
    subjects: Vec<NodeId>,
    start: u64,
}

fn genesis(dir: &Path) -> Result<Genesis, String> {
    let file = File::open(dir.join("seed.txt")).map_err(|e| format!("seed.txt: {e}"))?;
    let mut interner = Interner::new();
    let (events, _) =
        read_events_with_policy(BufReader::new(file), &mut interner, IngestPolicy::Strict)
            .map_err(|e| e.to_string())?;
    Ok(Genesis {
        subjects: subject_sources(&events),
        start: events.iter().map(|e| e.time).min().unwrap_or(0),
        interner,
    })
}

/// One serve configuration to replay against: the workload, the worker
/// count and the directory holding its `seed.txt`.
#[derive(Debug, Clone, Copy)]
pub struct Replica<'a> {
    /// The workload served.
    pub w: &'a Workload,
    /// `--threads` of the real server.
    pub threads: usize,
    /// Directory holding the workload's `seed.txt`.
    pub dir: &'a Path,
}

impl Replica<'_> {
    fn open<'s>(
        &self,
        g: Genesis,
        data: &Path,
        scheme: &'s dyn DeltaScheme,
        dist: &'s dyn BatchDistance,
    ) -> Result<DurableState<'s>, String> {
        let cfg = config(self.w, self.threads, g.start).ok_or("unknown tier")?;
        DurableState::open(scheme, dist, cfg, data, g.interner, g.subjects)
            .map(|(state, _)| state)
            .map_err(|e| e.to_string())
    }

    /// Replays `requests` through the server's dispatcher on a fresh data
    /// directory `data`, returning one response line per request.
    ///
    /// # Errors
    /// Fails when the genesis state cannot be opened.
    pub fn protocol(
        &self,
        data: &Path,
        requests: &[String],
        t: &mut Tracer,
    ) -> Result<Vec<String>, String> {
        let scheme = parse_delta_scheme(self.w.scheme).map_err(|e| e.to_string())?;
        let dist = parse_distance(DIST).map_err(|e| e.to_string())?;
        let state = self.open(genesis(self.dir)?, data, scheme.as_ref(), dist.as_ref())?;
        let mut gate = Gate::Ready(Box::new(state));
        let mut responses = Vec::with_capacity(requests.len());
        for (i, line) in requests.iter().enumerate() {
            let (resp, _) = t.span("serve.handle_line", i as u64, || {
                handle_line(&mut gate, line)
            });
            responses.push(resp.to_string());
        }
        Ok(responses)
    }

    /// Drives `requests` through the public [`DurableState`] methods on a
    /// fresh data directory `data`, one span per call, then times WAL
    /// append + sync on payloads of the logged sizes in `scratch` and the
    /// recovery of `killed` (the real server's data directory after its
    /// SIGKILL). Returns the number of calls that failed.
    ///
    /// # Errors
    /// Fails when a state cannot be opened or a request is not valid JSON.
    pub fn traced(
        &self,
        data: &Path,
        killed: &Path,
        scratch: &Path,
        requests: &[String],
        rep: u64,
        t: &mut Tracer,
    ) -> Result<u64, String> {
        let scheme = parse_delta_scheme(self.w.scheme).map_err(|e| e.to_string())?;
        let dist = parse_distance(DIST).map_err(|e| e.to_string())?;
        let mut state = self.open(genesis(self.dir)?, data, scheme.as_ref(), dist.as_ref())?;
        let base = rep * 1_000_000;
        let mut failed = 0u64;
        let mut wal_sizes = Vec::new();
        for (i, line) in requests.iter().enumerate() {
            let id = base + i as u64;
            let req: Value = serde_json::from_str(line).map_err(|e| format!("request {i}: {e}"))?;
            let field = |name: &str| req.get(name).and_then(Value::as_str).unwrap_or("");
            let ok = match field("op") {
                "ingest" => {
                    let wal = wal_file(data, state.wal_epoch());
                    let before = std::fs::metadata(&wal).map_or(0, |m| m.len());
                    let ok = t.span("serve.ingest_lines", id, || {
                        state.ingest_lines(field("lines")).is_ok()
                    });
                    let after = std::fs::metadata(&wal).map_or(0, |m| m.len());
                    let bytes = after.saturating_sub(before);
                    t.count("serve.wal_bytes", id, bytes as f64);
                    wal_sizes.push(bytes);
                    ok
                }
                "advance" => t.span("serve.advance", id, || state.advance().is_ok()),
                "rank" => {
                    let top = req.get("top").and_then(Value::as_u64).unwrap_or(10) as usize;
                    t.span("serve.rank", id, || state.rank(field("node"), top).is_ok())
                }
                "signature" => t.span("serve.signature", id, || {
                    state.signature_of(field("node")).is_ok()
                }),
                "digest" => {
                    let _ = state.live().state_digest();
                    true
                }
                other => return Err(format!("request {i}: unexpected op `{other}`")),
            };
            failed += u64::from(!ok);
        }
        drop(state);

        let mut wal = WalWriter::create(scratch).map_err(|e| e.to_string())?;
        for (i, &bytes) in wal_sizes.iter().enumerate() {
            let payload = vec![0x5a_u8; bytes.saturating_sub(WAL_FRAME_HEADER) as usize];
            let ok = t.span("persist.wal_sync", base + i as u64, || {
                wal.append(&payload).and_then(|()| wal.sync()).is_ok()
            });
            failed += u64::from(!ok);
        }

        let g = genesis(self.dir)?;
        let reopened = t.span("serve.open", rep, || {
            self.open(g, killed, scheme.as_ref(), dist.as_ref())
        });
        failed += u64::from(reopened.is_err());
        Ok(failed)
    }
}
