//! The named chaos-scenario corpus.
//!
//! Each scenario is a pure function of a seed: it builds a small corpus,
//! injects one class of fault, drives the real pipeline, and checks the
//! graceful-degradation contract — the fault is quarantined in an
//! `IngestReport`, surfaced as a typed `GraphError`, or isolated as a
//! `Degraded` subject; **nothing panics**. Scenarios are run by
//! `cargo test -p comsig-chaos` and by the `comsig chaos` subcommand.

use std::io::{BufReader, Cursor};

use comsig_graph::io::{read_events_with_policy, write_events, REPAIR_WEIGHT_CAP};
use comsig_graph::window::{GraphSequence, WindowSpec};
use comsig_graph::{
    CommGraph, EdgeEvent, GraphBuilder, GraphError, IngestPolicy, IngestReport, Interner, NodeId,
    ShardPlan, SlidingWindower,
};

use comsig_core::engine::DegradeReason;
use comsig_core::scheme::{PushRwr, Rwr, SignatureScheme, TopTalkers, UnexpectedTalkers};
use comsig_core::SignatureTier;
use comsig_graph::{EdgeChange, WindowDelta};
use comsig_sketch::tier::{SketchScheme, SketchTier};

use crate::events;
use crate::reader::{FaultPlan, FaultyReader};

/// One named fault-injection scenario.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable identifier (kebab-case), used by `comsig chaos --scenario`.
    pub name: &'static str,
    /// One-line description of the injected fault and the expectation.
    pub description: &'static str,
    /// Runs the scenario for a seed; `Ok` carries a short summary,
    /// `Err` a failure explanation.
    pub run: fn(u64) -> Result<String, String>,
}

/// The full scenario corpus.
#[must_use]
pub fn all() -> Vec<Scenario> {
    vec![
        sc(
            "clean-strict-baseline",
            "clean corpus through the fault adapter parses strictly with a clean report",
            clean_strict_baseline,
        ),
        sc(
            "bitflip-strict",
            "random bit flips under Strict either parse or fail with a typed GraphError",
            bitflip_strict,
        ),
        sc(
            "bitflip-quarantine",
            "random bit flips under Quarantine are skipped record-by-record within budget",
            bitflip_quarantine,
        ),
        sc(
            "truncate-mid-stream",
            "a stream cut mid-record loses at most the cut record",
            truncate_mid_stream,
        ),
        sc(
            "short-reads-byte-identical",
            "1-byte reads produce events identical to a whole-buffer parse",
            short_reads_byte_identical,
        ),
        sc(
            "midstream-io-error",
            "an injected io::Error surfaces as GraphError::Io under every policy",
            midstream_io_error,
        ),
        sc(
            "invalid-utf8-strict",
            "a non-UTF-8 line aborts a Strict parse with GraphError::Io",
            invalid_utf8_strict,
        ),
        sc(
            "invalid-utf8-quarantine",
            "a non-UTF-8 line is quarantined with its exact line number",
            invalid_utf8_quarantine,
        ),
        sc(
            "interleaved-garbage-line-numbers",
            "garbage lines are quarantined at exactly the lines they were injected",
            interleaved_garbage_line_numbers,
        ),
        sc(
            "duplicate-events",
            "duplicated events aggregate into heavier edges and a healthy batch",
            duplicate_events_scenario,
        ),
        sc(
            "out-of-order-timestamps",
            "timestamp-shuffled events window into the same graphs as the ordered stream",
            out_of_order_timestamps,
        ),
        sc(
            "windower-duplicate-events",
            "duplicated events stream through SlidingWindower into windows bit-identical to a cold rebuild",
            windower_duplicate_events,
        ),
        sc(
            "windower-out-of-order",
            "shuffled events buffered by SlidingWindower patch into bit-identical windows with clean counters",
            windower_out_of_order,
        ),
        sc(
            "nan-weight-strict",
            "a NaN weight aborts a Strict parse with GraphError::InvalidWeight",
            nan_weight_strict,
        ),
        sc(
            "nan-weight-quarantine",
            "a NaN weight is quarantined with a reason naming the value",
            nan_weight_quarantine,
        ),
        sc(
            "negative-weight-strict",
            "a negative weight aborts a Strict parse with GraphError::InvalidWeight",
            negative_weight_strict,
        ),
        sc(
            "negative-weight-repair",
            "Repair clamps a negative weight to 0 and records the repair",
            negative_weight_repair,
        ),
        sc(
            "infinite-weight-repair",
            "Repair clamps an infinite weight to the repair cap",
            infinite_weight_repair,
        ),
        sc(
            "quarantine-budget-overflow",
            "too many bad records overflow the budget with a typed error",
            quarantine_budget_overflow,
        ),
        sc(
            "all-garbage-tolerant",
            "a fully garbage stream yields zero events under an unlimited budget",
            all_garbage_tolerant,
        ),
        sc(
            "empty-input",
            "an empty stream parses to zero events and an empty healthy batch",
            empty_input,
        ),
        sc(
            "zero-weight-flood",
            "zero-weight events build silent nodes with empty, NaN-free signatures",
            zero_weight_flood,
        ),
        sc(
            "nan-poisoned-subject-degrades",
            "one NaN-poisoned subject degrades alone; healthy signatures are bit-identical",
            nan_poisoned_subject_degrades,
        ),
        sc(
            "poisoned-shard-degrades-alone",
            "every subject of one shard is poisoned; that shard degrades and the rest stay bit-identical",
            poisoned_shard_degrades_alone,
        ),
        sc(
            "iteration-budget-degrades",
            "a non-convergent steady-state subject degrades with IterationBudget",
            iteration_budget_degrades,
        ),
        sc(
            "push-budget-degrades",
            "an exhausted push budget degrades instead of silently truncating",
            push_budget_degrades,
        ),
        sc(
            "phantom-node-write-rejected",
            "an event aimed at a phantom node id fails write-out with NodeOutOfRange",
            phantom_node_write_rejected,
        ),
        sc(
            "repair-identity-on-clean",
            "Repair on a clean corpus is byte-identical to Strict with a clean report",
            repair_identity_on_clean,
        ),
        sc(
            "sketch-nan-weight-degrades",
            "a NaN window aggregate degrades its sketch-tier subject for one window, then heals",
            sketch_nan_weight_degrades,
        ),
        sc(
            "sketch-negative-weight-degrades",
            "a negative window aggregate degrades its sketch-tier subject with NegativeOccupancy",
            sketch_negative_weight_degrades,
        ),
        sc(
            "sketch-phantom-node-degrades",
            "a change aimed outside the node space degrades its sketch-tier subject with PhantomNode",
            sketch_phantom_node_degrades,
        ),
        sc(
            "serve-kill-and-resume",
            "a service killed between windows recovers to the bit-identical digest",
            crate::durability::serve_kill_and_resume,
        ),
        sc(
            "serve-kill-mid-snapshot",
            "a stale snapshot.bin.tmp from a mid-write kill is ignored by recovery",
            crate::durability::serve_kill_mid_snapshot,
        ),
        sc(
            "serve-wal-torn-tail",
            "a torn WAL tail is truncated; every complete record survives replay",
            crate::durability::serve_wal_torn_tail,
        ),
        sc(
            "serve-wal-bitflip",
            "a flipped WAL bit drops the untrustworthy suffix, never panics",
            crate::durability::serve_wal_bitflip,
        ),
        sc(
            "serve-double-restart-idempotent",
            "two restarts with no mutations agree bit-for-bit and rewrite nothing",
            crate::durability::serve_double_restart_idempotent,
        ),
        sc(
            "serve-snapshot-plus-tail-replay",
            "recovery seeds from the rotated snapshot and replays only the WAL tail",
            crate::durability::serve_snapshot_plus_tail_replay,
        ),
        sc(
            "serve-sketch-kill-and-resume",
            "a sketch-tier service killed between windows recovers its sketch state bit-identically",
            crate::durability::serve_sketch_kill_and_resume,
        ),
        sc(
            "serve-sketch-ut-kill-and-resume",
            "a UT sketch-tier service killed between windows recovers its FM bitmaps and trackers bit-identically",
            crate::durability::serve_sketch_ut_kill_and_resume,
        ),
    ]
}

/// Looks a scenario up by name.
#[must_use]
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

fn sc(
    name: &'static str,
    description: &'static str,
    run: fn(u64) -> Result<String, String>,
) -> Scenario {
    Scenario {
        name,
        description,
        run,
    }
}

// --- shared plumbing -----------------------------------------------------

/// A deterministic clean edge-list corpus: `lines` records over 7 local
/// and 5 external hosts.
fn corpus(lines: usize) -> String {
    let mut s = String::from("# chaos corpus\n");
    for i in 0..lines {
        s.push_str(&format!("{} h{} x{} {}\n", i / 4, i % 7, i % 5, 1 + i % 9));
    }
    s
}

type Parsed = (Vec<EdgeEvent>, IngestReport, Interner);

/// Parses raw bytes under a policy, threading out the interner.
fn parse_bytes(bytes: Vec<u8>, policy: IngestPolicy) -> Result<Parsed, GraphError> {
    let mut interner = Interner::new();
    let (events, report) = read_events_with_policy(Cursor::new(bytes), &mut interner, policy)?;
    Ok((events, report, interner))
}

/// Parses bytes routed through a [`FaultyReader`] with the given plan.
fn parse_faulty(
    bytes: Vec<u8>,
    plan: FaultPlan,
    seed: u64,
    policy: IngestPolicy,
) -> Result<Parsed, GraphError> {
    let mut interner = Interner::new();
    let reader = BufReader::new(FaultyReader::new(Cursor::new(bytes), plan, seed));
    let (events, report) = read_events_with_policy(reader, &mut interner, policy)?;
    Ok((events, report, interner))
}

fn quarantine(max_bad_fraction: f64) -> IngestPolicy {
    IngestPolicy::Quarantine { max_bad_fraction }
}

/// Builds a graph from parsed events over the interned node space.
fn build_graph(events: &[EdgeEvent], num_nodes: usize) -> comsig_graph::CommGraph {
    let mut b = GraphBuilder::new();
    for e in events {
        b.add_event(e.src, e.dst, e.weight);
    }
    b.build(num_nodes)
}

fn check(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_owned())
    }
}

// --- byte-stream scenarios ----------------------------------------------

fn clean_strict_baseline(seed: u64) -> Result<String, String> {
    let text = corpus(40);
    let (events, report, _) = parse_faulty(
        text.into_bytes(),
        FaultPlan::clean(),
        seed,
        IngestPolicy::Strict,
    )
    .map_err(|e| format!("clean corpus failed to parse: {e}"))?;
    check(events.len() == 40, "expected 40 events")?;
    check(report.is_clean(), "clean corpus produced a dirty report")?;
    Ok(format!("{} events, clean report", events.len()))
}

fn bitflip_strict(seed: u64) -> Result<String, String> {
    let text = corpus(60);
    let mut parsed = 0usize;
    let mut rejected = 0usize;
    for sub in 0..8 {
        let plan = FaultPlan::clean().bitflips(0.01);
        match parse_faulty(
            text.clone().into_bytes(),
            plan,
            seed.wrapping_add(sub),
            IngestPolicy::Strict,
        ) {
            Ok(_) => parsed += 1,
            // Any typed GraphError is an acceptable strict outcome.
            Err(_) => rejected += 1,
        }
    }
    Ok(format!(
        "8 corrupted streams: {parsed} parsed, {rejected} typed rejections"
    ))
}

fn bitflip_quarantine(seed: u64) -> Result<String, String> {
    let text = corpus(60);
    let mut quarantined = 0usize;
    for sub in 0..8 {
        let plan = FaultPlan::clean().bitflips(0.01);
        match parse_faulty(
            text.clone().into_bytes(),
            plan,
            seed.wrapping_add(sub),
            quarantine(0.9),
        ) {
            Ok((events, report, _)) => {
                check(
                    events.len() + report.quarantined.len() == report.records,
                    "accepted + quarantined must cover every record",
                )?;
                quarantined += report.quarantined.len();
            }
            Err(GraphError::TooManyBadRecords { .. }) => {}
            Err(other) => return Err(format!("unexpected error class: {other}")),
        }
    }
    Ok(format!(
        "8 corrupted streams, {quarantined} records quarantined"
    ))
}

fn truncate_mid_stream(seed: u64) -> Result<String, String> {
    let text = corpus(40);
    let cut = text.len() / 2 + (seed as usize % 7);
    let plan = FaultPlan::clean().truncate_at(cut);
    // Strict: either the partial last record parses or it is a typed error.
    let strict = parse_faulty(text.clone().into_bytes(), plan, seed, IngestPolicy::Strict);
    if let Err(e) = &strict {
        check(
            matches!(
                e,
                GraphError::Parse { .. } | GraphError::InvalidWeight { .. }
            ),
            "strict truncation error must be Parse or InvalidWeight",
        )?;
    }
    // Quarantine: at most the cut record is lost.
    let (events, report, _) = parse_faulty(text.into_bytes(), plan, seed, quarantine(1.0))
        .map_err(|e| format!("tolerant parse of truncated stream failed: {e}"))?;
    check(
        report.quarantined.len() <= 1,
        "at most one record may be cut",
    )?;
    check(events.len() >= report.records - 1, "too many records lost")?;
    Ok(format!(
        "cut at byte {cut}: {} events, {} quarantined",
        events.len(),
        report.quarantined.len()
    ))
}

fn short_reads_byte_identical(seed: u64) -> Result<String, String> {
    let text = corpus(50);
    let (direct, _, direct_interner) = parse_bytes(text.clone().into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("direct parse failed: {e}"))?;
    let (chunked, _, chunked_interner) = parse_faulty(
        text.into_bytes(),
        FaultPlan::clean().max_chunk(1),
        seed,
        IngestPolicy::Strict,
    )
    .map_err(|e| format!("1-byte-chunk parse failed: {e}"))?;
    check(direct == chunked, "events differ under short reads")?;
    check(
        direct_interner.len() == chunked_interner.len(),
        "interner diverged under short reads",
    )?;
    Ok(format!("{} events identical at chunk size 1", direct.len()))
}

fn midstream_io_error(seed: u64) -> Result<String, String> {
    let text = corpus(40);
    let fail_at = text.len() / 3;
    let plan = FaultPlan::clean().error_at(fail_at);
    for policy in [IngestPolicy::Strict, quarantine(1.0), IngestPolicy::Repair] {
        match parse_faulty(text.clone().into_bytes(), plan, seed, policy) {
            Err(GraphError::Io(_)) => {}
            Err(other) => return Err(format!("expected Io error, got: {other}")),
            Ok(_) => return Err("mid-stream io::Error was swallowed".to_owned()),
        }
    }
    Ok(format!(
        "io::Error at byte {fail_at} surfaced typed under all 3 policies"
    ))
}

fn utf8_poisoned_corpus() -> (Vec<u8>, usize) {
    let mut bytes = corpus(10).into_bytes();
    // Append a record whose source label is invalid UTF-8, then more
    // clean records; the bad line is line 12 (1 comment + 10 records).
    bytes.extend_from_slice(b"9 h");
    bytes.extend_from_slice(&[0xFF, 0xFE]);
    bytes.extend_from_slice(b" x1 2\n");
    bytes.extend_from_slice(b"9 h1 x2 3\n");
    (bytes, 12)
}

fn invalid_utf8_strict(_seed: u64) -> Result<String, String> {
    let (bytes, _) = utf8_poisoned_corpus();
    match parse_bytes(bytes, IngestPolicy::Strict) {
        Err(GraphError::Io(e)) => {
            check(
                e.kind() == std::io::ErrorKind::InvalidData,
                "expected an InvalidData io error",
            )?;
            Ok("non-UTF-8 line rejected as GraphError::Io(InvalidData)".to_owned())
        }
        Err(other) => Err(format!("expected Io error, got: {other}")),
        Ok(_) => Err("non-UTF-8 line parsed under Strict".to_owned()),
    }
}

fn invalid_utf8_quarantine(_seed: u64) -> Result<String, String> {
    let (bytes, bad_line) = utf8_poisoned_corpus();
    let (events, report, _) =
        parse_bytes(bytes, quarantine(1.0)).map_err(|e| format!("tolerant parse failed: {e}"))?;
    check(events.len() == 11, "the 11 clean records must survive")?;
    check(
        report.quarantined.len() == 1,
        "exactly one quarantined record",
    )?;
    let q = &report.quarantined[0];
    check(
        q.line == bad_line,
        "wrong line number for the non-UTF-8 record",
    )?;
    check(
        q.reason.contains("UTF-8"),
        "reason must name the encoding fault",
    )?;
    Ok(format!("line {} quarantined: {}", q.line, q.reason))
}

fn interleaved_garbage_line_numbers(seed: u64) -> Result<String, String> {
    let text = corpus(30);
    let (corrupted, garbage_lines) = events::interleave_garbage_lines(&text, seed, 3);
    let (events, report, _) = parse_bytes(corrupted.into_bytes(), quarantine(1.0))
        .map_err(|e| format!("tolerant parse failed: {e}"))?;
    check(events.len() == 30, "every clean record must survive")?;
    let reported: Vec<usize> = report.quarantined.iter().map(|q| q.line).collect();
    check(
        reported == garbage_lines,
        "quarantined line numbers must match the injection points exactly",
    )?;
    Ok(format!(
        "{} garbage lines reported at exact positions",
        reported.len()
    ))
}

// --- event-stream scenarios ----------------------------------------------

fn duplicate_events_scenario(seed: u64) -> Result<String, String> {
    let (mut events, _, interner) = parse_bytes(corpus(40).into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("parse failed: {e}"))?;
    let base_total: f64 = events.iter().map(|e| e.weight).sum();
    let inserted = events::duplicate_events(&mut events, seed, 0.4);
    let dup_total: f64 = events.iter().map(|e| e.weight).sum();
    check(dup_total >= base_total, "duplication cannot lose volume")?;
    let g = build_graph(&events, interner.len());
    let subjects: Vec<NodeId> = g.nodes().collect();
    let outcome = Rwr::truncated(0.1, 3).signature_set_outcome(&g, &subjects, 5);
    check(
        outcome.is_fully_healthy(),
        "duplicates must not degrade any subject",
    )?;
    Ok(format!(
        "{inserted} duplicates absorbed; batch fully healthy"
    ))
}

fn out_of_order_timestamps(seed: u64) -> Result<String, String> {
    let (events, _, interner) = parse_bytes(corpus(40).into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("parse failed: {e}"))?;
    let mut shuffled = events.clone();
    events::shuffle_order(&mut shuffled, seed, 60);
    let spec = WindowSpec::new(0, 4);
    let ordered = GraphSequence::from_events(interner.len(), spec, &events);
    let disordered = GraphSequence::from_events(interner.len(), spec, &shuffled);
    check(ordered.len() == disordered.len(), "window count diverged")?;
    for (t, (a, b)) in ordered.iter().zip(disordered.iter()).enumerate() {
        for src in a.nodes() {
            for dst in a.nodes() {
                if a.edge_weight(src, dst) != b.edge_weight(src, dst) {
                    return Err(format!("window {t}: edge {src}->{dst} diverged"));
                }
            }
        }
    }
    Ok(format!(
        "{} windows identical under timestamp shuffling",
        ordered.len()
    ))
}

/// Pushes the whole (possibly disordered) stream into a tumbling
/// [`SlidingWindower`], then checks every delta-patched window graph is
/// bit-identical to a cold [`GraphSequence`] rebuild of the same stream,
/// and that no event was counted invalid, late, or gap-dropped. Returns
/// the number of windows compared.
fn windower_matches_cold(
    events: &[EdgeEvent],
    num_nodes: usize,
    width: u64,
) -> Result<usize, String> {
    let cold = GraphSequence::from_events(num_nodes, WindowSpec::new(0, width), events);
    let mut windower = SlidingWindower::tumbling(0, width);
    for &e in events {
        if !windower.push(e) {
            return Err(format!(
                "clean event rejected: {} -> {} at t={}",
                e.src, e.dst, e.time
            ));
        }
    }
    let mut g = CommGraph::empty(num_nodes);
    for (t, want) in cold.iter().enumerate() {
        let delta = windower.advance();
        g = g.apply_delta(&delta);
        let got: Vec<(NodeId, NodeId, u64)> = g
            .edges()
            .map(|e| (e.src, e.dst, e.weight.to_bits()))
            .collect();
        let cold_edges: Vec<(NodeId, NodeId, u64)> = want
            .edges()
            .map(|e| (e.src, e.dst, e.weight.to_bits()))
            .collect();
        if got != cold_edges {
            return Err(format!("window {t} diverged from the cold rebuild"));
        }
    }
    let dropped = windower.invalid_events() + windower.late_events() + windower.gap_events();
    check(dropped == 0, "no clean event may be counted as dropped")?;
    check(
        windower.pending_events() == 0,
        "every event must have been consumed by a window",
    )?;
    Ok(cold.len())
}

fn windower_duplicate_events(seed: u64) -> Result<String, String> {
    let (mut events, _, interner) = parse_bytes(corpus(40).into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("parse failed: {e}"))?;
    let inserted = events::duplicate_events(&mut events, seed, 0.4);
    let windows = windower_matches_cold(&events, interner.len(), 4)?;
    Ok(format!(
        "{inserted} duplicates; {windows} streamed windows bit-identical to cold rebuild"
    ))
}

fn windower_out_of_order(seed: u64) -> Result<String, String> {
    let (events, _, interner) = parse_bytes(corpus(40).into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("parse failed: {e}"))?;
    let mut shuffled = events.clone();
    let swaps = events::shuffle_order(&mut shuffled, seed, 60);
    let windows = windower_matches_cold(&shuffled, interner.len(), 4)?;
    Ok(format!(
        "{swaps} swaps; {windows} streamed windows bit-identical to cold rebuild"
    ))
}

fn nan_weight_strict(_seed: u64) -> Result<String, String> {
    let text = format!("{}5 h1 x1 NaN\n", corpus(8));
    match parse_bytes(text.into_bytes(), IngestPolicy::Strict) {
        Err(GraphError::InvalidWeight { weight }) => {
            check(weight.is_nan(), "the offending weight must be NaN")?;
            Ok("NaN weight rejected as GraphError::InvalidWeight".to_owned())
        }
        Err(other) => Err(format!("expected InvalidWeight, got: {other}")),
        Ok(_) => Err("NaN weight parsed under Strict".to_owned()),
    }
}

fn nan_weight_quarantine(_seed: u64) -> Result<String, String> {
    let text = format!("{}5 h1 x1 NaN\n", corpus(8));
    let (events, report, _) = parse_bytes(text.into_bytes(), quarantine(0.5))
        .map_err(|e| format!("tolerant parse failed: {e}"))?;
    check(events.len() == 8, "clean records must survive")?;
    check(
        report.quarantined.len() == 1,
        "exactly one quarantined record",
    )?;
    check(
        report.quarantined[0].reason.contains("NaN"),
        "reason must name the NaN",
    )?;
    Ok(format!(
        "NaN record quarantined at line {}",
        report.quarantined[0].line
    ))
}

fn negative_weight_strict(_seed: u64) -> Result<String, String> {
    let text = format!("{}5 h1 x1 -4.5\n", corpus(8));
    match parse_bytes(text.into_bytes(), IngestPolicy::Strict) {
        Err(GraphError::InvalidWeight { weight }) => {
            check(weight < 0.0, "the offending weight must be negative")?;
            Ok("negative weight rejected as GraphError::InvalidWeight".to_owned())
        }
        Err(other) => Err(format!("expected InvalidWeight, got: {other}")),
        Ok(_) => Err("negative weight parsed under Strict".to_owned()),
    }
}

fn negative_weight_repair(_seed: u64) -> Result<String, String> {
    let text = format!("{}5 h1 x1 -4.5\n", corpus(8));
    let (events, report, _) = parse_bytes(text.into_bytes(), IngestPolicy::Repair)
        .map_err(|e| format!("repair parse failed: {e}"))?;
    check(events.len() == 9, "the repaired record must be kept")?;
    check(report.repaired.len() == 1, "exactly one repair")?;
    let r = &report.repaired[0];
    check(r.original < 0.0, "original must be negative")?;
    check(r.repaired.abs() < 1e-12, "negative weight must clamp to 0")?;
    check(
        events[8].weight.abs() < 1e-12,
        "the event must carry the clamped weight",
    )?;
    Ok(format!(
        "line {}: {} clamped to {}",
        r.line, r.original, r.repaired
    ))
}

fn infinite_weight_repair(_seed: u64) -> Result<String, String> {
    let text = format!("{}5 h1 x1 inf\n", corpus(8));
    let (events, report, _) = parse_bytes(text.into_bytes(), IngestPolicy::Repair)
        .map_err(|e| format!("repair parse failed: {e}"))?;
    check(report.repaired.len() == 1, "exactly one repair")?;
    let r = &report.repaired[0];
    check(r.original.is_infinite(), "original must be infinite")?;
    check(
        (r.repaired - REPAIR_WEIGHT_CAP).abs() < 1.0,
        "infinite weight must clamp to the cap",
    )?;
    check(
        events[8].weight.is_finite(),
        "the event weight must be finite",
    )?;
    Ok(format!("line {}: inf clamped to {:e}", r.line, r.repaired))
}

fn quarantine_budget_overflow(seed: u64) -> Result<String, String> {
    let text = corpus(20);
    let (corrupted, garbage_lines) = events::interleave_garbage_lines(&text, seed, 1);
    match parse_bytes(corrupted.into_bytes(), quarantine(0.1)) {
        Err(GraphError::TooManyBadRecords {
            quarantined,
            records,
            max_bad_fraction,
        }) => {
            check(
                quarantined as f64 > max_bad_fraction * records as f64,
                "overflow must actually exceed the budget",
            )?;
            Ok(format!(
                "{quarantined}/{records} bad records overflowed the 10% budget"
            ))
        }
        Err(other) => Err(format!("expected TooManyBadRecords, got: {other}")),
        Ok(_) => {
            // Statistically near-impossible (expected ~20 garbage lines),
            // but a seed could inject very few; treat as a miss only if
            // garbage was actually plentiful.
            check(
                garbage_lines.len() <= 2,
                "budget should have overflowed with this much garbage",
            )?;
            Ok("too little garbage injected to overflow; parse succeeded".to_owned())
        }
    }
}

fn all_garbage_tolerant(seed: u64) -> Result<String, String> {
    let (corrupted, _) = events::interleave_garbage_lines("", seed, 1);
    let mut text = corrupted;
    for i in 0..15 {
        text.push_str(&format!("not-a-record-{i}\n"));
    }
    let (events, report, interner) = parse_bytes(text.into_bytes(), quarantine(1.0))
        .map_err(|e| format!("tolerant parse failed: {e}"))?;
    check(events.is_empty(), "no garbage line may produce an event")?;
    check(
        report.quarantined.len() == report.records,
        "every record must be quarantined",
    )?;
    check(interner.is_empty(), "garbage must not intern labels")?;
    Ok(format!(
        "{} garbage records quarantined, zero events",
        report.records
    ))
}

fn empty_input(_seed: u64) -> Result<String, String> {
    let (events, report, interner) = parse_bytes(Vec::new(), IngestPolicy::Strict)
        .map_err(|e| format!("empty parse failed: {e}"))?;
    check(
        events.is_empty() && report.is_clean(),
        "empty input must be clean",
    )?;
    let g = build_graph(&events, interner.len());
    let outcome = Rwr::truncated(0.1, 3).signature_set_outcome(&g, &[], 5);
    check(
        outcome.is_fully_healthy() && outcome.set().is_empty(),
        "empty batch must be a healthy empty outcome",
    )?;
    Ok("empty stream, empty graph, empty healthy batch".to_owned())
}

fn zero_weight_flood(_seed: u64) -> Result<String, String> {
    let mut text = String::new();
    for i in 0..12 {
        text.push_str(&format!("{} h{} x{} 0\n", i, i % 4, i % 3));
    }
    let (events, _, interner) = parse_bytes(text.into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("zero weights are valid input: {e}"))?;
    let g = build_graph(&events, interner.len());
    let subjects: Vec<NodeId> = g.nodes().collect();
    for sig in [
        TopTalkers.signature_set(&g, &subjects, 5),
        UnexpectedTalkers::new().signature_set(&g, &subjects, 5),
    ] {
        for (v, s) in sig.iter() {
            check(s.is_empty(), "silent nodes must have empty signatures")?;
            for (_, w) in s.iter() {
                check(w.is_finite(), &format!("non-finite weight for {v}"))?;
            }
        }
    }
    let outcome = Rwr::truncated(0.1, 3).signature_set_outcome(&g, &subjects, 5);
    check(
        outcome.is_fully_healthy(),
        "zero-weight graph must not degrade RWR",
    )?;
    Ok(format!(
        "{} silent subjects, all empty and finite",
        subjects.len()
    ))
}

// --- engine-degradation scenarios ----------------------------------------

fn chain_graph() -> (comsig_graph::CommGraph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    for i in 0..12usize {
        b.add_event(NodeId::new(i), NodeId::new((i + 1) % 12), 1.0 + i as f64);
        b.add_event(NodeId::new(i), NodeId::new((i + 5) % 12), 2.0);
    }
    (b.build(12), (0..12).map(NodeId::new).collect())
}

fn nan_poisoned_subject_degrades(seed: u64) -> Result<String, String> {
    let (g, subjects) = chain_graph();
    let rwr = Rwr::truncated(0.1, 3);
    let victim = subjects[seed as usize % subjects.len()];
    let clean = rwr.signature_set_outcome(&g, &subjects, 5);
    check(clean.is_fully_healthy(), "clean run must be healthy")?;
    let poisoned = rwr.signature_set_outcome_injected(&g, &subjects, 5, &move |v, entries| {
        if v == victim {
            if let Some(e) = entries.first_mut() {
                e.1 = f64::NAN;
            }
        }
    });
    check(
        poisoned.degraded().len() == 1,
        "exactly one subject must degrade",
    )?;
    let (dv, reason) = &poisoned.degraded()[0];
    check(
        *dv == victim,
        "the poisoned subject must be the degraded one",
    )?;
    check(
        matches!(reason, DegradeReason::NonFiniteOccupancy { .. }),
        "reason must be NonFiniteOccupancy",
    )?;
    for &v in &subjects {
        if v == victim {
            check(poisoned.set().get(v).is_none(), "victim must be excluded")?;
            continue;
        }
        let a = clean
            .set()
            .get(v)
            .ok_or_else(|| format!("clean run lost subject {v}"))?;
        let b = poisoned
            .set()
            .get(v)
            .ok_or_else(|| format!("poisoned run lost healthy subject {v}"))?;
        check(a.len() == b.len(), "healthy signature length changed")?;
        for ((ua, wa), (ub, wb)) in a.iter().zip(b.iter()) {
            check(ua == ub, "healthy signature membership changed")?;
            check(
                wa.to_bits() == wb.to_bits(),
                "healthy signature weights must be bit-identical",
            )?;
        }
    }
    Ok(format!(
        "subject {victim} degraded alone; 11 healthy subjects bit-identical"
    ))
}

fn poisoned_shard_degrades_alone(seed: u64) -> Result<String, String> {
    let (g, subjects) = chain_graph();
    let rwr = Rwr::truncated(0.1, 3);
    let plan = ShardPlan::new(4);
    let ranges = plan.ranges(subjects.len());
    let shard = ranges[seed as usize % ranges.len()].clone();
    let victims: Vec<NodeId> = subjects[shard].to_vec();
    let poison_set: Vec<NodeId> = victims.clone();
    let clean = rwr.signature_set_outcome(&g, &subjects, 5);
    check(clean.is_fully_healthy(), "clean run must be healthy")?;
    let poisoned = rwr.signature_set_outcome_injected(&g, &subjects, 5, &move |v, entries| {
        if poison_set.contains(&v) {
            if let Some(e) = entries.first_mut() {
                e.1 = f64::NAN;
            }
        }
    });
    let degraded: Vec<NodeId> = poisoned.degraded().iter().map(|(v, _)| *v).collect();
    check(
        degraded == victims,
        "the degraded set must be exactly the poisoned shard, in subject order",
    )?;
    for (_, reason) in poisoned.degraded() {
        check(
            matches!(reason, DegradeReason::NonFiniteOccupancy { .. }),
            "reason must be NonFiniteOccupancy",
        )?;
    }
    for &v in &subjects {
        if victims.contains(&v) {
            check(
                poisoned.set().get(v).is_none(),
                "poisoned subjects must be excluded",
            )?;
            continue;
        }
        let a = clean
            .set()
            .get(v)
            .ok_or_else(|| format!("clean run lost subject {v}"))?;
        let b = poisoned
            .set()
            .get(v)
            .ok_or_else(|| format!("poisoned run lost healthy subject {v}"))?;
        check(a.len() == b.len(), "healthy signature length changed")?;
        for ((ua, wa), (ub, wb)) in a.iter().zip(b.iter()) {
            check(ua == ub, "healthy signature membership changed")?;
            check(
                wa.to_bits() == wb.to_bits(),
                "healthy signature weights must be bit-identical",
            )?;
        }
    }
    Ok(format!(
        "shard of {} subjects degraded alone; {} healthy subjects bit-identical",
        victims.len(),
        subjects.len() - victims.len()
    ))
}

fn iteration_budget_degrades(_seed: u64) -> Result<String, String> {
    let (g, subjects) = chain_graph();
    let mut rwr = Rwr::full(0.05);
    rwr.config.max_iterations = 1;
    rwr.config.tolerance = 1e-15;
    let outcome = rwr.signature_set_outcome(&g, &subjects, 5);
    check(
        !outcome.degraded().is_empty(),
        "one iteration cannot converge here",
    )?;
    for (_, reason) in outcome.degraded() {
        check(
            matches!(reason, DegradeReason::IterationBudget { budget: 1, .. }),
            "reason must be IterationBudget with the configured budget",
        )?;
    }
    check(
        outcome.set().len() + outcome.degraded().len() == subjects.len(),
        "healthy + degraded must partition the subjects",
    )?;
    Ok(format!(
        "{} of {} subjects degraded on a 1-iteration budget",
        outcome.degraded().len(),
        subjects.len()
    ))
}

fn push_budget_degrades(_seed: u64) -> Result<String, String> {
    let (g, _) = chain_graph();
    let starved = PushRwr::new(0.15, 1e-7).with_budget(2);
    match starved.try_occupancy(&g, NodeId::new(0)) {
        Err(DegradeReason::PushBudget { budget }) => {
            check(budget == 2, "reason must carry the configured budget")?;
        }
        Err(other) => return Err(format!("expected PushBudget, got: {other}")),
        Ok(_) => return Err("a 2-push budget cannot drain this residual".to_owned()),
    }
    let healthy = PushRwr::new(0.15, 1e-7);
    check(
        healthy.try_occupancy(&g, NodeId::new(0)).is_ok(),
        "the derived budget must suffice",
    )?;
    Ok("2-push budget degraded; derived budget healthy".to_owned())
}

fn phantom_node_write_rejected(seed: u64) -> Result<String, String> {
    let (mut events, _, interner) = parse_bytes(corpus(20).into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("parse failed: {e}"))?;
    events::phantom_node(&mut events, seed, interner.len())
        .ok_or("corpus cannot be empty".to_owned())?;
    match write_events(Vec::new(), &interner, &events) {
        Err(GraphError::NodeOutOfRange { index, num_nodes }) => {
            check(index >= num_nodes, "the phantom id must be out of range")?;
            Ok(format!("phantom node {index} rejected (|V| = {num_nodes})"))
        }
        Err(other) => Err(format!("expected NodeOutOfRange, got: {other}")),
        Ok(()) => Err("phantom node id written without error".to_owned()),
    }
}

fn repair_identity_on_clean(_seed: u64) -> Result<String, String> {
    let text = corpus(40);
    let (strict, strict_report, _) = parse_bytes(text.clone().into_bytes(), IngestPolicy::Strict)
        .map_err(|e| format!("strict parse failed: {e}"))?;
    let (repaired, repair_report, _) = parse_bytes(text.into_bytes(), IngestPolicy::Repair)
        .map_err(|e| format!("repair parse failed: {e}"))?;
    check(
        strict == repaired,
        "Repair must be the identity on clean input",
    )?;
    check(
        strict_report.is_clean() && repair_report.is_clean(),
        "both reports must be clean",
    )?;
    Ok(format!(
        "{} events identical under Strict and Repair",
        strict.len()
    ))
}

// --- sketch-tier degradation scenarios ------------------------------------

/// What the injected faulty change looks like, window 1 of the sketch
/// fault scenarios.
#[derive(Clone, Copy)]
enum SketchFault {
    /// A NaN window aggregate on the victim's outgoing edge.
    NanWeight,
    /// A negative window aggregate.
    NegativeWeight,
    /// A destination outside the declared node space.
    PhantomNode,
}

fn sketch_tier(seed: u64, subjects: &[NodeId], num_nodes: usize) -> SketchTier {
    let cfg = comsig_sketch::stream::StreamConfig {
        cm_width: 64,
        cm_depth: 2,
        candidate_budget: 8,
        fm_bitmaps: 16,
        seed,
        indeg_cells: 0,
        indeg_depth: 2,
    };
    SketchTier::new(SketchScheme::TopTalkers, cfg, subjects, 4, num_nodes)
}

/// Three seeded insertion-only windows over a 10-node space; window 2
/// re-touches every subject so healed signatures re-derive on both the
/// faulty run and its clean twin.
fn sketch_windows(seed: u64) -> Vec<WindowDelta> {
    let change = |s: usize, d: usize, w: f64| EdgeChange {
        src: NodeId::new(s),
        dst: NodeId::new(d),
        old: None,
        new: Some(w),
    };
    (0..3u64)
        .map(|w| WindowDelta {
            start: w,
            end: w + 1,
            changes: (0..6)
                .map(|s| {
                    let d = (s + 1 + (w as usize + seed as usize) % 3) % 10;
                    change(s, d, 1.0 + ((seed + w) % 5) as f64)
                })
                .collect(),
        })
        .collect()
}

/// Drives a faulty [`SketchTier`] run against a clean twin: the fault is
/// isolated to its carrying subject for exactly one window (empty
/// signature, typed [`DegradeReason`], `dropped_changes` bumped), every
/// other subject stays bit-identical throughout, and the victim heals on
/// the next clean window.
fn sketch_fault_scenario(seed: u64, fault: SketchFault) -> Result<String, String> {
    let subjects: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    let victim = subjects[seed as usize % subjects.len()];
    let windows = sketch_windows(seed);

    let mut clean = sketch_tier(seed, &subjects, 10);
    let mut faulty = sketch_tier(seed, &subjects, 10);

    clean.advance_window(&windows[0]);
    faulty.advance_window(&windows[0]);
    check(
        faulty.degraded().is_empty(),
        "clean window must not degrade",
    )?;

    // Window 1 with one injected faulty change from the victim.
    let mut poisoned = windows[1].clone();
    let (dst, weight) = match fault {
        SketchFault::NanWeight => (NodeId::new(9), f64::NAN),
        SketchFault::NegativeWeight => (NodeId::new(9), -3.0),
        SketchFault::PhantomNode => (NodeId::new(99), 1.0),
    };
    poisoned.changes.push(EdgeChange {
        src: victim,
        dst,
        old: None,
        new: Some(weight),
    });
    clean.advance_window(&windows[1]);
    faulty.advance_window(&poisoned);

    check(
        faulty.degraded().len() == 1,
        "exactly one subject must degrade",
    )?;
    let (dv, reason) = &faulty.degraded()[0];
    check(*dv == victim, "the fault's source must be the degraded one")?;
    let reason_ok = match fault {
        SketchFault::NanWeight => {
            matches!(reason, DegradeReason::NonFiniteOccupancy { .. })
        }
        SketchFault::NegativeWeight => {
            matches!(reason, DegradeReason::NegativeOccupancy { .. })
        }
        SketchFault::PhantomNode => {
            matches!(reason, DegradeReason::PhantomNode { space: 10, .. })
        }
    };
    check(reason_ok, "the DegradeReason must name the injected fault")?;
    check(
        faulty.dropped_changes() == 1,
        "the faulty change must be counted as dropped",
    )?;
    let sig = faulty
        .signatures()
        .get(victim)
        .ok_or("victim must keep an (empty) signature slot")?;
    check(sig.is_empty(), "degraded signature must be emptied")?;
    for &v in &subjects {
        if v == victim {
            continue;
        }
        let a = clean.signatures().get(v).ok_or("clean lost a subject")?;
        let b = faulty.signatures().get(v).ok_or("faulty lost a subject")?;
        check(a == b, "healthy subjects must stay bit-identical")?;
    }

    // Window 2 is clean: the victim heals and both runs re-converge
    // (the faulty change never reached the sketches).
    clean.advance_window(&windows[2]);
    faulty.advance_window(&windows[2]);
    check(faulty.degraded().is_empty(), "victim must heal")?;
    for &v in &subjects {
        let a = clean.signatures().get(v).ok_or("clean lost a subject")?;
        let b = faulty.signatures().get(v).ok_or("faulty lost a subject")?;
        check(
            a == b,
            "after healing every signature must match the clean twin",
        )?;
    }
    Ok(format!(
        "subject {victim} degraded for one window and healed; 5 healthy subjects bit-identical"
    ))
}

fn sketch_nan_weight_degrades(seed: u64) -> Result<String, String> {
    sketch_fault_scenario(seed, SketchFault::NanWeight)
}

fn sketch_negative_weight_degrades(seed: u64) -> Result<String, String> {
    sketch_fault_scenario(seed, SketchFault::NegativeWeight)
}

fn sketch_phantom_node_degrades(seed: u64) -> Result<String, String> {
    sketch_fault_scenario(seed, SketchFault::PhantomNode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn corpus_has_at_least_twenty_distinct_scenarios() {
        let scenarios = all();
        assert!(scenarios.len() >= 20, "only {} scenarios", scenarios.len());
        let names: BTreeSet<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("bitflip-strict").is_some());
        assert!(find("no-such-scenario").is_none());
    }
}
