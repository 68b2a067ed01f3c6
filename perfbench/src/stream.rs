//! The in-process `comsig stream --task masquerade` composition.
//!
//! [`run`] drives one event log through the same public calls, in the
//! same order and with the same configuration, as the CLI's stream
//! command: parse, fill the windower, then per window advance the
//! windower, the signature tier and the matcher and run Algorithm 1.
//! Each call is one span. It renders the lines the CLI prints, so the
//! harness can check the real binary's output against this composition
//! line for line, and after each window (outside the window's span) it
//! checks the tier's signatures against a cold exact rebuild of the
//! window graph.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use comsig_apps::anomaly::anomaly_scores_from_sets;
use comsig_apps::masquerade::{run_algorithm1_with, DetectorConfig};
use comsig_cli::spec::{parse_delta_scheme, parse_distance};
use comsig_core::distance::BatchDistance;
use comsig_core::persist::{encode_signature_set, fnv1a, Enc};
use comsig_core::pipeline::{DeltaScheme, SignaturePipeline};
use comsig_core::{Signature, SignatureSet, SignatureTier};
use comsig_eval::ann::{AnnConfig, AnnIndex, SubjectMatcher};
use comsig_eval::index::PostingsIndex;
use comsig_graph::io::read_events_with_policy;
use comsig_graph::WindowDelta;
use comsig_graph::{CommGraph, IngestPolicy, Interner, NodeId, ShardPlan, SlidingWindower};
use comsig_sketch::stream::StreamConfig;
use comsig_sketch::tier::{SketchScheme, SketchTier};

use crate::trace::Tracer;
use crate::workload::Workload;

/// Signature length, `--k` default.
pub const K: usize = 10;
/// Distance, `--dist` default.
pub const DIST: &str = "shel";

/// Algorithm 1 settings of the CLI's defaults (`--k`, `--c`, `--l`).
#[must_use]
pub fn detector_config() -> DetectorConfig {
    DetectorConfig {
        k: K,
        threshold_divisor: 5.0,
        top_l: 3,
    }
}

/// Sketch sizing of the CLI's defaults.
#[must_use]
pub fn sketch_config() -> StreamConfig {
    StreamConfig {
        cm_width: 128,
        cm_depth: 4,
        candidate_budget: 64,
        fm_bitmaps: 32,
        seed: 1,
        indeg_cells: 0,
        indeg_depth: 2,
    }
}

/// LSH banding of the CLI's defaults.
#[must_use]
pub fn ann_config() -> AnnConfig {
    AnnConfig::default()
}

/// Digest of a signature set's canonical encoding.
#[must_use]
pub fn set_digest(set: &SignatureSet) -> u64 {
    let mut enc = Enc::new();
    encode_signature_set(&mut enc, set);
    fnv1a(&enc.into_bytes())
}

fn jaccard(a: &Signature, b: &Signature) -> f64 {
    let union = a.union_size(b);
    if union == 0 {
        1.0
    } else {
        a.intersection_size(b) as f64 / union as f64
    }
}

/// What one pass over the log produced.
#[derive(Debug, Default)]
pub struct StreamRun {
    /// The lines `comsig stream` prints for this log.
    pub lines: Vec<String>,
    /// Checks made.
    pub checks: u64,
    /// Checks failed, with the first few reasons.
    pub failures: Vec<String>,
    /// Failed-check count (all of them, not only the recorded reasons).
    pub failed: u64,
    /// Sum and count of per-subject Jaccard similarities between the
    /// tier's signatures and the cold exact rebuild.
    pub agreement: (f64, u64),
    /// Wall time of each window's composition, in nanoseconds.
    pub window_ns: Vec<u64>,
    /// The windower's deltas, when asked to keep them.
    pub deltas: Vec<WindowDelta>,
    /// Per-window digest of the maintained signature set.
    pub set_digests: Vec<u64>,
    /// Node space of the parsed log.
    pub nodes: usize,
    /// Subject population of the parsed log.
    pub subjects: Vec<NodeId>,
}

impl StreamRun {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }
}

/// Options of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// Compare every window against a cold exact rebuild.
    pub check: bool,
    /// Keep the deltas for a later single-thread pass.
    pub keep_deltas: bool,
    /// Repetition number, folded into span ids.
    pub rep: u64,
}

struct Names {
    tier: &'static str,
    patch: &'static str,
}

struct Ctx<'a> {
    scheme: &'a dyn DeltaScheme,
    dist: &'a dyn BatchDistance,
    interner: &'a Interner,
    subjects: &'a [NodeId],
    plan: ShardPlan,
    cfg: DetectorConfig,
    opts: Opts,
}

/// Span id of window `w` in repetition `rep`.
#[must_use]
pub fn window_id(rep: u64, w: usize) -> u64 {
    rep * 100_000 + w as u64
}

/// Runs the composition over `events.txt` in `dir`.
///
/// # Errors
/// Fails when the log cannot be read or the workload's scheme or tier
/// is unknown.
pub fn run(w: &Workload, dir: &Path, opts: Opts, t: &mut Tracer) -> Result<StreamRun, String> {
    let scheme = parse_delta_scheme(w.scheme).map_err(|e| e.to_string())?;
    let dist = parse_distance(DIST).map_err(|e| e.to_string())?;
    let rep = opts.rep;

    t.enter("setup", rep);
    let file = File::open(dir.join("events.txt")).map_err(|e| format!("events.txt: {e}"))?;
    let mut interner = Interner::new();
    let (events, _) = t
        .span("graph.io.read_events", rep, || {
            read_events_with_policy(BufReader::new(file), &mut interner, IngestPolicy::Strict)
        })
        .map_err(|e| e.to_string())?;
    let subjects: Vec<NodeId> = events
        .iter()
        .map(|e| e.src)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let start = events.iter().map(|e| e.time).min().unwrap_or(0);
    let mut windower = SlidingWindower::new(start, 1, 1);
    // One span around the whole fill: a span per pushed event would
    // cost more than the push itself.
    t.span("graph.windower.push", rep, || {
        for &e in &events {
            windower.push(e);
        }
    });
    t.exit();

    let plan = ShardPlan::new(opts.threads);
    let ctx = Ctx {
        scheme: scheme.as_ref(),
        dist: dist.as_ref(),
        interner: &interner,
        subjects: &subjects,
        plan,
        cfg: detector_config(),
        opts,
    };
    let mut out = StreamRun::default();
    out.lines.push(format!(
        "streaming masquerade over {} subjects, scheme {}, dist {} (width 1, slide 1)",
        subjects.len(),
        scheme.name(),
        dist.name()
    ));
    let empty = CommGraph::empty(interner.len());
    match w.tier {
        "exact" => {
            let mut tier = SignaturePipeline::with_plan(scheme.as_ref(), empty, &subjects, K, plan);
            let mut matcher = PostingsIndex::build_owned(tier.signatures().clone());
            let names = Names {
                tier: "core.tier.advance",
                patch: "eval.matcher.patch",
            };
            drive(
                &ctx,
                &names,
                &mut windower,
                &mut tier,
                &mut matcher,
                &mut out,
                t,
            );
        }
        "sketch" => {
            let s = SketchScheme::parse(w.scheme).ok_or("sketch tier needs tt|ut")?;
            let mut tier = SketchTier::new(s, sketch_config(), &subjects, K, interner.len());
            let mut matcher = AnnIndex::build(tier.signatures(), ann_config());
            let names = Names {
                tier: "sketch.tier.advance",
                patch: "eval.ann.patch",
            };
            drive(
                &ctx,
                &names,
                &mut windower,
                &mut tier,
                &mut matcher,
                &mut out,
                t,
            );
            let mem = tier.memory();
            out.lines.push(format!(
                "sketch tier: {} state entries (~{} KiB), {} matcher entries, {} dropped changes",
                mem.state_entries,
                mem.state_bytes / 1024,
                matcher.memory_entries(),
                tier.dropped_changes()
            ));
        }
        other => return Err(format!("unknown tier `{other}`")),
    }
    out.nodes = interner.len();
    out.subjects = subjects;
    out.lines.push(format!(
        "stream drained: {} invalid, {} late, {} gap-dropped events",
        windower.invalid_events(),
        windower.late_events(),
        windower.gap_events()
    ));
    Ok(out)
}

fn drive<T: SignatureTier, M: SubjectMatcher>(
    ctx: &Ctx<'_>,
    names: &Names,
    windower: &mut SlidingWindower,
    tier: &mut T,
    matcher: &mut M,
    out: &mut StreamRun,
    t: &mut Tracer,
) {
    let exact = tier.is_exact();
    let mut prev = tier.signatures().clone();
    let mut graph = CommGraph::empty(ctx.interner.len());
    let mut w = 0usize;
    while windower.pending_events() > 0 {
        let id = window_id(ctx.opts.rep, w);
        let began = Instant::now();
        t.enter("window", id);
        let delta = t.span("graph.windower.advance", id, || windower.advance());
        let report = t.span(names.tier, id, || tier.advance_window(&delta));
        let sigs = tier.signatures();
        let dirty: Vec<(NodeId, Signature)> = report
            .dirty
            .iter()
            .filter_map(|&v| sigs.get(v).map(|s| (v, s.clone())))
            .collect();
        t.span(names.patch, id, || matcher.patch(dirty, &ctx.plan));
        let detection = t.span("apps.algorithm1", id, || {
            run_algorithm1_with(ctx.dist, &prev, &*matcher, &ctx.cfg, &ctx.plan)
        });
        for &v in &report.dirty {
            if let Some(sig) = sigs.get(v) {
                let _ = prev.replace(v, sig.clone());
            }
        }
        out.lines.push(format!(
            "window [{}, {}): {} edge changes, {}/{} recomputed, delta = {:.4}, {} re-paired",
            delta.start,
            delta.end,
            report.changed_edges,
            report.dirty_subjects(),
            report.total_subjects,
            detection.delta,
            detection.detected.len()
        ));
        for (v, u) in &detection.detected {
            out.lines.push(format!(
                "  {} -> {}",
                ctx.interner.label(*v).unwrap_or("?"),
                ctx.interner.label(*u).unwrap_or("?")
            ));
        }
        t.exit();
        out.window_ns
            .push(u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX));

        t.count("graph.windower.changes", id, delta.changes.len() as f64);
        let total = report.total_subjects.max(1) as f64;
        if exact {
            t.count(
                "core.tier.dirty_fraction",
                id,
                report.dirty_subjects() as f64 / total,
            );
            t.count("eval.matcher.patched", id, report.dirty_subjects() as f64);
            t.count(
                "eval.index.posting_mass",
                id,
                matcher.memory_entries() as f64,
            );
        } else {
            t.count(
                "sketch.tier.state_bytes",
                id,
                tier.memory().state_bytes as f64,
            );
            t.count(
                "eval.ann.memory_entries",
                id,
                matcher.memory_entries() as f64,
            );
        }
        if ctx.opts.check || ctx.opts.keep_deltas {
            out.set_digests.push(set_digest(tier.signatures()));
        }
        if ctx.opts.check {
            graph = graph.apply_delta(&delta);
            check_window(ctx, w, exact, &graph, tier.signatures(), out);
        }
        if ctx.opts.keep_deltas {
            out.deltas.push(delta);
        }
        w += 1;
    }
}

/// Compares the maintained signatures against a cold exact rebuild of
/// the window graph: the exact tier must match bit for bit; every tier
/// contributes its per-subject Jaccard agreement.
fn check_window(
    ctx: &Ctx<'_>,
    w: usize,
    exact: bool,
    graph: &CommGraph,
    sigs: &SignatureSet,
    out: &mut StreamRun,
) {
    let cold = ctx.scheme.signature_set(graph, ctx.subjects, K);
    let mut mismatched = 0usize;
    for &v in ctx.subjects {
        match (sigs.get(v), cold.get(v)) {
            (Some(a), Some(b)) => {
                out.agreement.0 += jaccard(a, b);
                out.agreement.1 += 1;
                if a != b {
                    mismatched += 1;
                }
            }
            _ => mismatched += 1,
        }
    }
    if exact {
        out.check(mismatched == 0, || {
            format!("window {w}: {mismatched} signatures differ from a cold rebuild")
        });
    }
}

/// Replays the deltas a pass kept through a fresh exact tier at one
/// thread, spanning each advance as `core.tier.advance_1t`, and checks
/// every window's signatures against the sharded pass. Each window also
/// spans the anomaly scoring `comsig serve` runs beside Algorithm 1
/// (`apps.anomaly`), which the stream command's masquerade task skips.
///
/// # Errors
/// Fails when the workload's scheme is unknown.
pub fn single_thread_tier(
    w: &Workload,
    rep: u64,
    out: &mut StreamRun,
    t: &mut Tracer,
) -> Result<(), String> {
    let deltas = std::mem::take(&mut out.deltas);
    let digests = std::mem::take(&mut out.set_digests);
    let scheme = parse_delta_scheme(w.scheme).map_err(|e| e.to_string())?;
    let mut tier = SignaturePipeline::with_plan(
        scheme.as_ref(),
        CommGraph::empty(out.nodes),
        &out.subjects,
        K,
        ShardPlan::new(1),
    );
    let dist = parse_distance(DIST).map_err(|e| e.to_string())?;
    for (i, delta) in deltas.iter().enumerate() {
        let id = window_id(rep, i);
        let prev = tier.signatures().clone();
        let _ = t.span("core.tier.advance_1t", id, || tier.advance_window(delta));
        let _ = t.span("apps.anomaly", id, || {
            anomaly_scores_from_sets(dist.as_ref(), &prev, tier.signatures())
        });
        let got = set_digest(tier.signatures());
        out.check(digests.get(i) == Some(&got), || {
            format!("window {i}: one-thread signatures differ from the sharded advance")
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, by_name};

    /// Mean recomputed share over the steady windows of the printed
    /// `window …: C edge changes, D/T recomputed, …` lines.
    fn dirty_fraction(lines: &[String]) -> f64 {
        let shares: Vec<f64> = lines
            .iter()
            .filter(|l| l.starts_with("window "))
            .skip(1)
            .map(|l| {
                let field = l.split(", ").nth(2).expect("recomputed field");
                let (d, rest) = field.split_once('/').expect("D/T");
                let t = rest.split(' ').next().expect("T");
                d.parse::<f64>().unwrap() / t.parse::<f64>().unwrap()
            })
            .collect();
        shares.iter().sum::<f64>() / shares.len() as f64
    }

    fn run_small(name: &str, locals: usize, externals: usize) -> StreamRun {
        let w = Workload {
            locals,
            externals,
            windows: 6,
            ..by_name(name).expect("known workload")
        };
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        workload::write(&w, 11, &dir).unwrap();
        let opts = Opts {
            threads: 2,
            check: true,
            keep_deltas: false,
            rep: 0,
        };
        let run = run(&w, &dir, opts, &mut Tracer::new(false)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(run.failed, 0, "{:?}", run.failures);
        run
    }

    #[test]
    fn flow_input_dirties_every_subject() {
        let run = run_small("flow_rwr", 60, 2000);
        assert!((dirty_fraction(&run.lines) - 1.0).abs() < 1e-12);
    }
}
