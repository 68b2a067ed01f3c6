//! Command implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use comsig_apps::advisor::{self, Application};
use comsig_apps::anomaly::{anomaly_scores, Alarm};
use comsig_apps::masquerade::{detect_label_masquerading, DetectorConfig};
use comsig_apps::measure::{measure, rank_levels, MeasureConfig};
use comsig_apps::multiusage;
use comsig_apps::stream::{TieredAnomaly, TieredMasquerade};
use comsig_core::distance::BatchDistance;
use comsig_core::scheme::SignatureScheme;
use comsig_core::SignatureTier;
use comsig_datagen::flownet::{self, AnomalyConfig, FlowNetConfig, MultiusageConfig};
use comsig_datagen::querylog::{self, QueryLogConfig};
use comsig_eval::ann::{AnnConfig, SubjectMatcher};
use comsig_eval::ranking::Ranking;
use comsig_eval::roc::self_identification;
use comsig_graph::io::{read_events_with_policy, write_events};
use comsig_graph::stats::graph_stats;
use comsig_graph::window::{GraphSequence, WindowSpec};
use comsig_graph::{
    CommGraph, EdgeEvent, IngestPolicy, Interner, NodeId, ShardPlan, SlidingWindower,
};
use comsig_serve::config::TierSpec;
use comsig_sketch::stream::StreamConfig;
use comsig_sketch::tier::{SketchScheme, SketchTier};

use crate::spec::{parse_delta_scheme, parse_distance, parse_scheme, Parsed};
use crate::CliError;

const USAGE: &str = "\
comsig — signatures for communication graphs

commands:
  gen flow|querylog   generate a synthetic workload (edge-list events)
  stats               per-window graph statistics of an event file
  sign                print node signatures
  match               cross-window identity matching (self-ID ranking/AUC)
  detect multiusage   similar-signature label pairs within one window
  detect masquerade   Algorithm 1 across two windows
  detect anomaly      persistence-based anomaly scores
  stream              online window-over-window detection: slide a window
                      across the event stream and advance signatures
                      incrementally (--task anomaly|masquerade;
                      --slide S for overlapping/gapped windows;
                      --threads N shard the advance over N workers —
                      output is bit-identical for every N;
                      --tier exact|sketch picks the maintenance tier:
                      sketch folds deltas into bounded per-node sketches
                      [tt|ut|ut:ratio only] and fronts matching with LSH —
                      --cm-width/--cm-depth/--budget/--fm/--indeg-cells/
                      --indeg-depth size the sketches, --bands/--rows
                      tune LSH recall, --sketch-seed seeds both)
  compare             measure persistence/uniqueness/robustness of the
                      standard schemes on an event file (derived Table IV)
  advise              recommend a scheme for an application (Tables I-III)
  serve               run the crash-safe signature service: ingest events
                      and answer queries over a loopback JSONL socket,
                      with snapshot + WAL durability in --data-dir
                      (--seed-events FILE fixes the label space;
                      --listen ADDR, --addr-file FILE, --snapshot-every N,
                      --threads N; --tier exact|sketch with the same
                      sketch/LSH sizing flags as stream — the tier is
                      stamped into the store and checked on reopen;
                      scheme/dist/k/window flags as below)
  call                send JSONL request lines to a running service
                      (--addr ADDR or --addr-file FILE; requests as
                      positional args, or stdin when none given)
  chaos               run the fault-injection scenario corpus
                      (--list | --scenario NAME; --seed N)
  lint                run the in-tree static-analysis pass over the
                      workspace sources (--json for machine-readable
                      diagnostics; nonzero exit on any finding)
  help                this message

common flags:
  --input FILE        event file (`time src dst [weight]` per line)
  --ingest MODE       strict|quarantine|repair fault handling (default
                      strict); quarantine/repair report skipped records
  --max-bad-fraction F  abort quarantine mode when more than this fraction
                      of records is bad (default 0.05)
  --window-width W    window width in time units (default 1)
  --scheme SPEC       tt | ut[:ratio|tfidf|log] | rwr:h=3,c=0.1[,undirected]
                      | push:c=0.1,eps=1e-4[,undirected]   (default tt)
  --dist NAME         jac|dice|sdice|shel|cos|ovl (default shel)
  --k K               signature length (default 10)
";

/// Runs the CLI with `args` (excluding the program name), writing human
/// output to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::from_args(args);
    let command = parsed.positional.first().map(String::as_str);
    match command {
        Some("gen") => cmd_gen(&parsed, out),
        Some("stats") => cmd_stats(&parsed, out),
        Some("sign") => cmd_sign(&parsed, out),
        Some("match") => cmd_match(&parsed, out),
        Some("detect") => cmd_detect(&parsed, out),
        Some("stream") => cmd_stream(&parsed, out),
        Some("compare") => cmd_compare(&parsed, out),
        Some("advise") => cmd_advise(&parsed, out),
        Some("serve") => cmd_serve(&parsed, out),
        Some("call") => cmd_call(&parsed, out),
        Some("chaos") => cmd_chaos(&parsed, out),
        Some("lint") => cmd_lint(&parsed, out),
        Some("help") | None => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}`; run `comsig help`"
        ))),
    }
}

// --- shared loading ------------------------------------------------------

struct Loaded {
    interner: Interner,
    windows: GraphSequence,
}

fn ingest_policy(parsed: &Parsed) -> Result<IngestPolicy, CliError> {
    match parsed.get("ingest").unwrap_or("strict") {
        "strict" => Ok(IngestPolicy::Strict),
        "quarantine" => Ok(IngestPolicy::Quarantine {
            max_bad_fraction: parsed.num("max-bad-fraction", 0.05)?,
        }),
        "repair" => Ok(IngestPolicy::Repair),
        other => Err(CliError::Usage(format!(
            "unknown ingest mode `{other}` (strict|quarantine|repair)"
        ))),
    }
}

fn load_events(
    parsed: &Parsed,
    out: &mut dyn Write,
) -> Result<(Interner, Vec<EdgeEvent>), CliError> {
    let path = parsed.require("input")?;
    let file =
        File::open(path).map_err(|e| CliError::Failed(format!("cannot open {path}: {e}")))?;
    let mut interner = Interner::new();
    let (events, report) =
        read_events_with_policy(BufReader::new(file), &mut interner, ingest_policy(parsed)?)?;
    // Under Strict the report is always clean, so default output is
    // unchanged; tolerant modes account for every skipped/patched record.
    if !report.is_clean() {
        writeln!(
            out,
            "ingest: kept {} of {} records ({} quarantined, {} repaired)",
            report.events,
            report.records,
            report.quarantined.len(),
            report.repaired.len()
        )?;
        for q in report.quarantined.iter().take(5) {
            writeln!(out, "  quarantined line {}: {}", q.line, q.reason)?;
        }
        if report.quarantined.len() > 5 {
            writeln!(out, "  ... and {} more", report.quarantined.len() - 5)?;
        }
    }
    if events.is_empty() {
        return Err(CliError::Failed(format!("{path} contains no events")));
    }
    Ok((interner, events))
}

fn window_width(parsed: &Parsed) -> Result<u64, CliError> {
    let width: u64 = parsed.num("window-width", 1)?;
    if width == 0 {
        return Err(CliError::Usage("--window-width must be >= 1".into()));
    }
    Ok(width)
}

fn load(parsed: &Parsed, out: &mut dyn Write) -> Result<Loaded, CliError> {
    let (interner, events) = load_events(parsed, out)?;
    let width = window_width(parsed)?;
    let start = events.iter().map(|e| e.time).min().unwrap_or(0);
    let windows =
        GraphSequence::from_events(interner.len(), WindowSpec::new(start, width), &events);
    Ok(Loaded { interner, windows })
}

fn window(loaded: &Loaded, idx: usize) -> Result<&CommGraph, CliError> {
    loaded.windows.window(idx).ok_or_else(|| {
        CliError::Usage(format!(
            "window {idx} out of range (have {})",
            loaded.windows.len()
        ))
    })
}

fn active_sources(g: &CommGraph) -> Vec<NodeId> {
    g.active_sources().collect()
}

fn resolve_node(loaded: &Loaded, label: &str) -> Result<NodeId, CliError> {
    loaded
        .interner
        .get(label)
        .ok_or_else(|| CliError::Failed(format!("unknown node label `{label}`")))
}

fn scheme_of(parsed: &Parsed) -> Result<Box<dyn SignatureScheme>, CliError> {
    parse_scheme(parsed.get("scheme").unwrap_or("tt"))
}

fn dist_of(parsed: &Parsed) -> Result<Box<dyn comsig_core::distance::BatchDistance>, CliError> {
    parse_distance(parsed.get("dist").unwrap_or("shel"))
}

/// The `--tier` choice and the sketch sizing flags, shared by `stream`
/// and `serve`.
struct TierFlags {
    /// The approximated scheme on `--tier sketch`; `None` on the exact
    /// tier, which ignores the sizing below.
    sketch: Option<SketchScheme>,
    stream_cfg: StreamConfig,
    ann: AnnConfig,
}

/// Parses `--tier` and the sketch flags. The sketch tier covers only the
/// tt, ut and ut:ratio specs and needs `k` and every sketch and banding size to be
/// positive (its constructors panic on a zero size), so both are usage
/// errors here, before anything is built or stamped.
fn tier_flags(parsed: &Parsed, scheme_spec: &str, k: usize) -> Result<TierFlags, CliError> {
    let tier_spec = parsed.get("tier").unwrap_or("exact");
    let tier = TierSpec::parse(tier_spec)
        .ok_or_else(|| CliError::Usage(format!("unknown tier `{tier_spec}` (exact|sketch)")))?;
    let sketch = match tier {
        TierSpec::Exact => None,
        TierSpec::Sketch => Some(SketchScheme::parse(scheme_spec).ok_or_else(|| {
            CliError::Usage(format!(
                "--tier sketch supports the tt, ut and ut:ratio schemes, not `{scheme_spec}`"
            ))
        })?),
    };
    let stream_cfg = StreamConfig {
        cm_width: parsed.num("cm-width", 128)?,
        cm_depth: parsed.num("cm-depth", 4)?,
        candidate_budget: parsed.num("budget", 64)?,
        fm_bitmaps: parsed.num("fm", 32)?,
        seed: parsed.num("sketch-seed", 1)?,
        indeg_cells: parsed.num("indeg-cells", 0)?,
        indeg_depth: parsed.num("indeg-depth", 2)?,
    };
    let ann = AnnConfig {
        bands: parsed.num("bands", AnnConfig::default().bands)?,
        rows: parsed.num("rows", AnnConfig::default().rows)?,
        seed: parsed.num("sketch-seed", AnnConfig::default().seed)?,
    };
    if sketch.is_some() {
        SketchTier::check_sizes(&stream_cfg, k)
            .and_then(|()| ann.check_sizes())
            .map_err(|e| CliError::Usage(format!("--tier sketch: {e}")))?;
    }
    Ok(TierFlags {
        sketch,
        stream_cfg,
        ann,
    })
}

// --- gen ------------------------------------------------------------------

fn cmd_gen(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let kind = parsed
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage("gen needs `flow` or `querylog`".into()))?;
    let out_path = parsed.require("out")?;
    let seed: u64 = parsed.num("seed", 42)?;

    let (interner, events, truth_json): (Interner, Vec<EdgeEvent>, Option<String>) = match kind {
        "flow" => {
            let cfg = FlowNetConfig {
                num_locals: parsed.num("locals", 300)?,
                num_externals: parsed.num("externals", 20_000)?,
                num_windows: parsed.num("windows", 6)?,
                num_groups: parsed.num("groups", 30)?,
                multiusage: MultiusageConfig {
                    individuals: parsed.num("multiusage", 0)?,
                    min_labels: 2,
                    max_labels: 3,
                },
                anomaly: AnomalyConfig {
                    count: parsed.num("anomalies", 0)?,
                    window: parsed.num("anomaly-window", 1)?,
                },
                seed,
                ..FlowNetConfig::default()
            };
            let data = flownet::generate(&cfg);
            let truth = if cfg.multiusage.individuals > 0 || cfg.anomaly.count > 0 {
                let groups: Vec<Vec<String>> = data
                    .truth
                    .multiusage_groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|&l| data.interner.label(l).unwrap_or("?").to_owned())
                            .collect()
                    })
                    .collect();
                let anomalous: Vec<String> = data
                    .truth
                    .anomalous
                    .iter()
                    .map(|&l| data.interner.label(l).unwrap_or("?").to_owned())
                    .collect();
                Some(
                    serde_json::json!({
                        "multiusage_groups": groups,
                        "anomalous": anomalous,
                        "anomaly_window": data.truth.anomaly_window,
                    })
                    .to_string(),
                )
            } else {
                None
            };
            let events = graphs_to_events(&data.windows);
            (data.interner, events, truth)
        }
        "querylog" => {
            let cfg = QueryLogConfig {
                num_users: parsed.num("users", 851)?,
                num_tables: parsed.num("tables", 979)?,
                num_windows: parsed.num("windows", 5)?,
                seed,
                ..QueryLogConfig::default()
            };
            let data = querylog::generate(&cfg);
            let events = graphs_to_events(&data.windows);
            (data.interner, events, None)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown generator `{other}` (flow|querylog)"
            )));
        }
    };

    let file = File::create(out_path)
        .map_err(|e| CliError::Failed(format!("cannot create {out_path}: {e}")))?;
    let mut writer = BufWriter::new(file);
    write_events(&mut writer, &interner, &events)?;
    writer.flush()?;
    writeln!(
        out,
        "wrote {} events over {} nodes to {out_path}",
        events.len(),
        interner.len()
    )?;

    if let Some(json) = truth_json {
        if let Some(truth_path) = parsed.get("truth") {
            std::fs::write(truth_path, &json)
                .map_err(|e| CliError::Failed(format!("cannot write {truth_path}: {e}")))?;
            writeln!(out, "wrote ground truth to {truth_path}")?;
        } else {
            writeln!(out, "ground truth: {json}")?;
        }
    }
    Ok(())
}

/// Re-serialises window graphs as aggregated events (one per edge, with
/// the window index as the timestamp) — the exchange format of the tool.
fn graphs_to_events(seq: &GraphSequence) -> Vec<EdgeEvent> {
    let mut events = Vec::new();
    for (w, g) in seq.iter().enumerate() {
        for e in g.edges() {
            events.push(EdgeEvent {
                time: w as u64,
                src: e.src,
                dst: e.dst,
                weight: e.weight,
            });
        }
    }
    events
}

// --- stats ------------------------------------------------------------------

fn cmd_stats(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let loaded = load(parsed, out)?;
    writeln!(
        out,
        "{} nodes, {} windows",
        loaded.interner.len(),
        loaded.windows.len()
    )?;
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>12} {:>10} {:>10} {:>8}",
        "window", "active", "edges", "weight", "mean-out", "max-in", "gini-in"
    )?;
    for (w, g) in loaded.windows.iter().enumerate() {
        let s = graph_stats(g);
        writeln!(
            out,
            "{:>6} {:>9} {:>9} {:>12.1} {:>10.2} {:>10} {:>8.3}",
            w,
            s.active_nodes,
            s.num_edges,
            s.total_weight,
            s.mean_out_degree,
            s.max_in_degree,
            s.in_degree_gini
        )?;
    }
    Ok(())
}

// --- sign ------------------------------------------------------------------

fn cmd_sign(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let loaded = load(parsed, out)?;
    let scheme = scheme_of(parsed)?;
    let k: usize = parsed.num("k", 10)?;
    let w: usize = parsed.num("window", 0)?;
    let g = window(&loaded, w)?;

    let nodes: Vec<NodeId> = match parsed.get("node") {
        Some(label) => vec![resolve_node(&loaded, label)?],
        None => active_sources(g),
    };
    for v in nodes {
        let sig = scheme.signature(g, v, k);
        let rendered: Vec<String> = sig
            .ranked()
            .into_iter()
            .map(|(u, weight)| format!("{}={weight:.4}", loaded.interner.label(u).unwrap_or("?")))
            .collect();
        writeln!(
            out,
            "{:16} {}",
            loaded.interner.label(v).unwrap_or("?"),
            rendered.join(" ")
        )?;
    }
    Ok(())
}

// --- match ------------------------------------------------------------------

fn cmd_match(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let loaded = load(parsed, out)?;
    let scheme = scheme_of(parsed)?;
    let dist = dist_of(parsed)?;
    let k: usize = parsed.num("k", 10)?;
    let t: usize = parsed.num("from", 0)?;
    let t1: usize = parsed.num("to", t + 1)?;
    let g1 = window(&loaded, t)?;
    let g2 = window(&loaded, t1)?;

    let subjects = active_sources(g1);
    let sigs1 = scheme.signature_set(g1, &subjects, k);
    let sigs2 = scheme.signature_set(g2, &subjects, k);

    match parsed.get("query") {
        Some(label) => {
            let v = resolve_node(&loaded, label)?;
            let query = sigs1
                .get(v)
                .ok_or_else(|| CliError::Failed(format!("`{label}` has no signature")))?;
            let ranking = Ranking::rank(dist.as_ref(), query, &sigs2);
            let top: usize = parsed.num("top", 5)?;
            writeln!(out, "window-{t1} candidates closest to {label}@window-{t}:")?;
            for &(u, d) in ranking.top(top) {
                writeln!(
                    out,
                    "  {:16} dist = {d:.4}",
                    loaded.interner.label(u).unwrap_or("?")
                )?;
            }
        }
        None => {
            let result = self_identification(dist.as_ref(), &sigs1, &sigs2);
            writeln!(
                out,
                "self-identification over {} hosts ({} -> {}), scheme {}, dist {}:",
                result.per_query.len(),
                t,
                t1,
                scheme.name(),
                dist.name()
            )?;
            writeln!(out, "mean AUC = {:.4}", result.mean_auc)?;
            let mut worst = result.per_query.clone();
            worst.sort_by(|a, b| a.1.total_cmp(&b.1));
            writeln!(out, "hardest hosts:")?;
            for &(v, auc) in worst.iter().take(parsed.num("top", 5)?) {
                writeln!(
                    out,
                    "  {:16} AUC = {auc:.4}",
                    loaded.interner.label(v).unwrap_or("?")
                )?;
            }
        }
    }
    Ok(())
}

// --- detect ------------------------------------------------------------------

fn cmd_detect(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let task = parsed
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| {
            CliError::Usage("detect needs `multiusage`, `masquerade` or `anomaly`".into())
        })?;
    if !matches!(task, "multiusage" | "masquerade" | "anomaly") {
        return Err(CliError::Usage(format!(
            "unknown detector `{task}` (multiusage|masquerade|anomaly)"
        )));
    }
    let loaded = load(parsed, out)?;
    let scheme = scheme_of(parsed)?;
    let dist = dist_of(parsed)?;
    let k: usize = parsed.num("k", 10)?;

    match task {
        "multiusage" => {
            let w: usize = parsed.num("window", 0)?;
            let g = window(&loaded, w)?;
            let subjects = active_sources(g);
            let sigs = scheme.signature_set(g, &subjects, k);
            let threshold: f64 = parsed.num("threshold", 0.5)?;
            let pairs = multiusage::detect_pairs(dist.as_ref(), &sigs, threshold);
            writeln!(
                out,
                "{} label pairs with {} distance <= {threshold}:",
                pairs.len(),
                dist.name()
            )?;
            for p in pairs {
                writeln!(
                    out,
                    "  {} <-> {}  dist = {:.4}",
                    loaded.interner.label(p.a).unwrap_or("?"),
                    loaded.interner.label(p.b).unwrap_or("?"),
                    p.distance
                )?;
            }
        }
        "masquerade" => {
            let t: usize = parsed.num("from", 0)?;
            let t1: usize = parsed.num("to", t + 1)?;
            let g1 = window(&loaded, t)?;
            let g2 = window(&loaded, t1)?;
            let subjects = active_sources(g1);
            let cfg = DetectorConfig {
                k,
                threshold_divisor: parsed.num("c", 5.0)?,
                top_l: parsed.num("l", 3)?,
            };
            let det =
                detect_label_masquerading(scheme.as_ref(), dist.as_ref(), g1, g2, &subjects, &cfg);
            writeln!(
                out,
                "delta = {:.4}; {} suspects re-paired, {} cleared:",
                det.delta,
                det.detected.len(),
                det.non_suspects.len()
            )?;
            for (v, u) in det.detected {
                writeln!(
                    out,
                    "  {} -> {}",
                    loaded.interner.label(v).unwrap_or("?"),
                    loaded.interner.label(u).unwrap_or("?")
                )?;
            }
        }
        "anomaly" => {
            let t: usize = parsed.num("from", 0)?;
            let t1: usize = parsed.num("to", t + 1)?;
            let g1 = window(&loaded, t)?;
            let g2 = window(&loaded, t1)?;
            let subjects = active_sources(g1);
            let scores = anomaly_scores(scheme.as_ref(), dist.as_ref(), g1, g2, &subjects, k);
            let top: usize = parsed.num("top", 10)?;
            writeln!(out, "top {top} anomaly scores ({} -> {}):", t, t1)?;
            for s in comsig_apps::anomaly::alarms(&scores, Alarm::TopN(top)) {
                writeln!(
                    out,
                    "  {:16} score = {:.4}",
                    loaded.interner.label(s.node).unwrap_or("?"),
                    s.score
                )?;
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown detector `{other}` (multiusage|masquerade|anomaly)"
            )));
        }
    }
    Ok(())
}

// --- stream ------------------------------------------------------------------

fn cmd_stream(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    use comsig_apps::stream::{
        SketchAnomaly, SketchMasquerade, StreamingAnomaly, StreamingMasquerade,
    };

    let (interner, events) = load_events(parsed, out)?;
    let scheme_spec = parsed.get("scheme").unwrap_or("tt");
    let scheme = parse_delta_scheme(scheme_spec)?;
    let dist = dist_of(parsed)?;
    let k: usize = parsed.num("k", 10)?;
    let width = window_width(parsed)?;
    let slide: u64 = parsed.num("slide", width)?;
    if slide == 0 {
        return Err(CliError::Usage("--slide must be >= 1".into()));
    }
    let task = parsed.get("task").unwrap_or("anomaly");
    let top: usize = parsed.num("top", 5)?;
    // One config struct pins the worker count through the pipeline, the
    // index patching and the detector sweep. Every plan is bit-identical,
    // so the thread count is deliberately absent from the output.
    let threads: usize = parsed.num("threads", 0)?;
    let plan = if threads == 0 {
        ShardPlan::auto()
    } else {
        ShardPlan::new(threads)
    };
    let tier = tier_flags(parsed, scheme_spec, k)?;

    // Fixed subject population: every label that ever speaks.
    let mut subjects: Vec<NodeId> = {
        let set: std::collections::BTreeSet<NodeId> = events.iter().map(|e| e.src).collect();
        set.into_iter().collect()
    };
    subjects.sort_unstable();

    let start = events.iter().map(|e| e.time).min().unwrap_or(0);
    let mut windower = SlidingWindower::new(start, width, slide);
    for &e in &events {
        windower.push(e);
    }

    writeln!(
        out,
        "streaming {} over {} subjects, scheme {}, dist {} (width {width}, slide {slide})",
        task,
        subjects.len(),
        scheme.name(),
        dist.name()
    )?;
    let empty = CommGraph::empty(interner.len());
    let dist = dist.as_ref();

    let mut sketch_memory = None;
    match (task, tier.sketch) {
        ("anomaly", None) => {
            let mut det = StreamingAnomaly::with_plan(scheme.as_ref(), empty, &subjects, k, plan);
            stream_anomaly(&mut det, &mut windower, dist, &interner, top, out)?;
        }
        ("anomaly", Some(s)) => {
            let tier = SketchTier::new(s, tier.stream_cfg, &subjects, k, interner.len());
            let mut det = SketchAnomaly::from_tier(tier);
            stream_anomaly(&mut det, &mut windower, dist, &interner, top, out)?;
            sketch_memory = Some((det.tier().memory(), 0usize, det.tier().dropped_changes()));
        }
        ("masquerade", sketch) => {
            let cfg = DetectorConfig {
                k,
                threshold_divisor: parsed.num("c", 5.0)?,
                top_l: parsed.num("l", 3)?,
            };
            match sketch {
                None => {
                    let mut det = StreamingMasquerade::with_plan(
                        scheme.as_ref(),
                        empty,
                        &subjects,
                        cfg,
                        plan,
                    );
                    stream_masquerade(&mut det, &mut windower, dist, &interner, out)?;
                }
                Some(s) => {
                    let mut det = SketchMasquerade::new_sketch(
                        s,
                        tier.stream_cfg,
                        &subjects,
                        interner.len(),
                        cfg,
                        tier.ann,
                        plan,
                    );
                    stream_masquerade(&mut det, &mut windower, dist, &interner, out)?;
                    sketch_memory = Some((
                        det.tier().memory(),
                        det.matcher().memory_entries(),
                        det.tier().dropped_changes(),
                    ));
                }
            }
        }
        (other, _) => {
            return Err(CliError::Usage(format!(
                "unknown stream task `{other}` (anomaly|masquerade)"
            )));
        }
    }
    if let Some((mem, matcher_entries, dropped)) = sketch_memory {
        writeln!(
            out,
            "sketch tier: {} state entries (~{} KiB), {} matcher entries, {} dropped changes",
            mem.state_entries,
            mem.state_bytes / 1024,
            matcher_entries,
            dropped
        )?;
    }
    writeln!(
        out,
        "stream drained: {} invalid, {} late, {} gap-dropped events",
        windower.invalid_events(),
        windower.late_events(),
        windower.gap_events()
    )?;
    Ok(())
}

// The per-window report lines are identical between tiers on purpose:
// `--tier exact` output stays byte-for-byte what it was before the tier
// seam existed.

/// Drains `windower` through an anomaly detector on any tier, reporting
/// each window's top `top` positive scores.
fn stream_anomaly<T: SignatureTier>(
    det: &mut TieredAnomaly<T>,
    windower: &mut SlidingWindower,
    dist: &dyn BatchDistance,
    interner: &Interner,
    top: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    while windower.pending_events() > 0 {
        let delta = windower.advance();
        let (scores, report) = det.advance(dist, &delta);
        writeln!(
            out,
            "window [{}, {}): {} edge changes, {}/{} recomputed",
            delta.start,
            delta.end,
            report.changed_edges,
            report.dirty_subjects(),
            report.total_subjects
        )?;
        for s in scores.iter().take(top).filter(|s| s.score > 0.0) {
            writeln!(
                out,
                "  {:16} score = {:.4}",
                interner.label(s.node).unwrap_or("?"),
                s.score
            )?;
        }
    }
    Ok(())
}

/// Drains `windower` through a masquerade detector on any tier and
/// matcher, reporting each window's re-paired labels.
fn stream_masquerade<T: SignatureTier, M: SubjectMatcher>(
    det: &mut TieredMasquerade<T, M>,
    windower: &mut SlidingWindower,
    dist: &dyn BatchDistance,
    interner: &Interner,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    while windower.pending_events() > 0 {
        let delta = windower.advance();
        let step = det.advance(dist, &delta);
        writeln!(
            out,
            "window [{}, {}): {} edge changes, {}/{} recomputed, delta = {:.4}, {} re-paired",
            delta.start,
            delta.end,
            step.report.changed_edges,
            step.report.dirty_subjects(),
            step.report.total_subjects,
            step.detection.delta,
            step.detection.detected.len()
        )?;
        for (v, u) in &step.detection.detected {
            writeln!(
                out,
                "  {} -> {}",
                interner.label(*v).unwrap_or("?"),
                interner.label(*u).unwrap_or("?")
            )?;
        }
    }
    Ok(())
}

// --- compare ------------------------------------------------------------------

fn cmd_compare(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let loaded = load(parsed, out)?;
    if loaded.windows.len() < 2 {
        return Err(CliError::Failed(
            "compare needs at least two windows".into(),
        ));
    }
    let dist = dist_of(parsed)?;
    let t: usize = parsed.num("from", 0)?;
    let t1: usize = parsed.num("to", t + 1)?;
    let g1 = window(&loaded, t)?;
    let g2 = window(&loaded, t1)?;
    let subjects = active_sources(g1);
    let cfg = MeasureConfig {
        k: parsed.num("k", 10)?,
        perturbation: parsed.num("perturbation", 0.4)?,
        seed: parsed.num("seed", 4242)?,
    };

    let schemes: Vec<Box<dyn SignatureScheme>> = vec![
        parse_scheme("tt")?,
        parse_scheme("ut")?,
        parse_scheme("rwr:h=3,c=0.1,undirected")?,
    ];
    let measured: Vec<_> = schemes
        .iter()
        .map(|s| measure(s.as_ref(), dist.as_ref(), g1, g2, &subjects, &cfg))
        .collect();

    writeln!(
        out,
        "{:12} {:>12} {:>11} {:>11}",
        "scheme", "persistence", "uniqueness", "robustness"
    )?;
    for m in &measured {
        writeln!(
            out,
            "{:12} {:>12.3} {:>11.3} {:>11.3}",
            m.scheme, m.persistence, m.uniqueness, m.robustness
        )?;
    }
    let p = rank_levels(&measured.iter().map(|m| m.persistence).collect::<Vec<_>>());
    let u = rank_levels(&measured.iter().map(|m| m.uniqueness).collect::<Vec<_>>());
    let r = rank_levels(&measured.iter().map(|m| m.robustness).collect::<Vec<_>>());
    writeln!(out, "derived levels (paper Table IV layout):")?;
    for (i, m) in measured.iter().enumerate() {
        writeln!(
            out,
            "{:12} {:>12} {:>11} {:>11}",
            m.scheme, p[i], u[i], r[i]
        )?;
    }
    Ok(())
}

// --- advise ------------------------------------------------------------------

fn cmd_advise(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let app = match parsed.positional.get(1).map(String::as_str) {
        Some("multiusage") => Application::MultiusageDetection,
        Some("masquerading" | "masquerade") => Application::LabelMasquerading,
        Some("anomaly") => Application::AnomalyDetection,
        other => {
            return Err(CliError::Usage(format!(
                "advise needs multiusage|masquerading|anomaly, got {other:?}"
            )));
        }
    };
    writeln!(out, "requirements for {app} (paper Table I):")?;
    for (property, need) in app.requirements() {
        writeln!(out, "  {property:?}: {need:?}")?;
    }
    writeln!(out, "recommendations (paper Tables II & III):")?;
    for rec in advisor::recommend(app, &advisor::paper_profiles()) {
        let gaps = if rec.gaps.is_empty() {
            "covers all requirements".to_owned()
        } else {
            format!("missing {:?}", rec.gaps)
        };
        writeln!(out, "  {:6} score = {}  ({gaps})", rec.scheme, rec.score)?;
    }
    Ok(())
}

// --- serve ------------------------------------------------------------------

fn cmd_serve(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    use comsig_serve::{run_server, ServeConfig, ServerOpts};

    let data_dir = parsed.require("data-dir")?;
    let seed_path = parsed.require("seed-events")?;
    let file = File::open(seed_path)
        .map_err(|e| CliError::Failed(format!("cannot open {seed_path}: {e}")))?;
    let mut interner = Interner::new();
    let ingest = ingest_policy(parsed)?;
    let (seed_events, _report) =
        read_events_with_policy(BufReader::new(file), &mut interner, ingest)?;
    if seed_events.is_empty() {
        return Err(CliError::Failed(format!(
            "{seed_path} contains no events (the seed fixes the label space)"
        )));
    }
    let subjects = comsig_serve::state::subject_sources(&seed_events);

    let scheme_spec = parsed.get("scheme").unwrap_or("tt").to_owned();
    let dist_spec = parsed.get("dist").unwrap_or("shel").to_owned();
    let scheme = parse_delta_scheme(&scheme_spec)?;
    let dist = parse_distance(&dist_spec)?;
    let width = window_width(parsed)?;
    let slide: u64 = parsed.num("slide", width)?;
    if slide == 0 {
        return Err(CliError::Usage("--slide must be >= 1".into()));
    }
    let default_start = seed_events.iter().map(|e| e.time).min().unwrap_or(0);
    // Rejected here, a bad tier choice never reaches the config stamp,
    // where the mistake would become durable.
    let k = parsed.num("k", 10)?;
    let tier = tier_flags(parsed, &scheme_spec, k)?;
    let config = ServeConfig {
        scheme_spec,
        dist_spec,
        k,
        width,
        slide,
        start: parsed.num("start", default_start)?,
        threshold_divisor: parsed.num("c", 5.0)?,
        top_l: parsed.num("l", 3)?,
        snapshot_every: parsed.num("snapshot-every", 0)?,
        threads: parsed.num("threads", 0)?,
        ingest,
        tier: if tier.sketch.is_some() {
            TierSpec::Sketch
        } else {
            TierSpec::Exact
        },
        sketch: tier.stream_cfg,
        ann: tier.ann,
    };
    let opts = ServerOpts {
        listen: parsed.get("listen").unwrap_or("127.0.0.1:0").to_owned(),
        addr_file: parsed.get("addr-file").map(std::path::PathBuf::from),
    };
    run_server(
        scheme.as_ref(),
        dist.as_ref(),
        config,
        std::path::Path::new(data_dir),
        comsig_serve::state::GenesisSpace { interner, subjects },
        &opts,
        out,
    )
    .map_err(|e| CliError::Failed(e.to_string()))
}

fn cmd_call(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = match (parsed.get("addr"), parsed.get("addr-file")) {
        (Some(addr), _) => addr.to_owned(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?
            .trim()
            .to_owned(),
        (None, None) => {
            return Err(CliError::Usage("call needs --addr or --addr-file".into()));
        }
    };
    let mut requests: Vec<String> = parsed.positional[1..].to_vec();
    if requests.is_empty() {
        for line in std::io::stdin().lines() {
            let line = line?;
            if !line.trim().is_empty() {
                requests.push(line);
            }
        }
    }
    if requests.is_empty() {
        return Err(CliError::Usage(
            "call needs at least one request line (argument or stdin)".into(),
        ));
    }
    let responses = comsig_serve::call(&addr, &requests)
        .map_err(|e| CliError::Failed(format!("call to {addr} failed: {e}")))?;
    for response in responses {
        writeln!(out, "{response}")?;
    }
    Ok(())
}

// --- chaos ------------------------------------------------------------------

fn cmd_lint(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    // The lint is an in-tree tool: resolve the workspace root relative to
    // this crate's manifest (crates/cli → root is two levels up), falling
    // back to the current directory for a relocated binary.
    let manifest_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = if manifest_root.join("Cargo.toml").exists() {
        manifest_root
    } else {
        std::path::PathBuf::from(".")
    };
    let diags = comsig_lint::run(&root);
    if parsed.has("json") {
        write!(out, "{}", comsig_lint::json::render(&diags))?;
    } else if diags.is_empty() {
        writeln!(
            out,
            "comsig lint: clean ({} source files, vendor manifest verified)",
            comsig_lint::file_count(&root)
        )?;
    } else {
        write!(out, "{}", comsig_lint::render(&diags))?;
    }
    if diags.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failed(format!(
            "{} lint violation(s)",
            diags.len()
        )))
    }
}

fn cmd_chaos(parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    use comsig_chaos::scenarios;

    if parsed.has("list") {
        for s in scenarios::all() {
            writeln!(out, "{:36} {}", s.name, s.description)?;
        }
        return Ok(());
    }
    let seed: u64 = parsed.num("seed", 42)?;
    let selected = match parsed.get("scenario") {
        Some(name) => vec![scenarios::find(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown scenario `{name}`; run `comsig chaos --list`"
            ))
        })?],
        None => scenarios::all(),
    };
    let mut failures = 0usize;
    for s in &selected {
        match (s.run)(seed) {
            Ok(summary) => writeln!(out, "ok    {:36} {summary}", s.name)?,
            Err(e) => {
                failures += 1;
                writeln!(out, "FAIL  {:36} {e}", s.name)?;
            }
        }
    }
    writeln!(
        out,
        "{} scenarios run with seed {seed}, {failures} failed",
        selected.len()
    )?;
    if failures > 0 {
        return Err(CliError::Failed(format!(
            "{failures} chaos scenarios failed"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("comsig-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        let help = run_to_string(&["help"]).unwrap();
        assert!(help.contains("comsig"));
        assert!(run_to_string(&[]).unwrap().contains("commands:"));
        assert!(matches!(
            run_to_string(&["frobnicate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn gen_stats_sign_match_pipeline() {
        let events = temp_path("pipeline.events");
        let msg = run_to_string(&[
            "gen",
            "flow",
            "--locals",
            "30",
            "--externals",
            "500",
            "--groups",
            "3",
            "--windows",
            "2",
            "--seed",
            "5",
            "--out",
            &events,
        ])
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let stats = run_to_string(&["stats", "--input", &events]).unwrap();
        assert!(stats.contains("2 windows"), "{stats}");

        let sigs =
            run_to_string(&["sign", "--input", &events, "--node", "local0", "--k", "5"]).unwrap();
        assert!(sigs.starts_with("local0"), "{sigs}");

        let matched = run_to_string(&[
            "match",
            "--input",
            &events,
            "--scheme",
            "rwr:h=3,c=0.1,undirected",
            "--dist",
            "shel",
        ])
        .unwrap();
        assert!(matched.contains("mean AUC"), "{matched}");

        let query = run_to_string(&[
            "match", "--input", &events, "--query", "local1", "--top", "3",
        ])
        .unwrap();
        assert!(query.contains("closest to local1"), "{query}");

        let compared = run_to_string(&["compare", "--input", &events]).unwrap();
        assert!(compared.contains("derived levels"), "{compared}");
        assert!(compared.contains("RWR^3_0.1"), "{compared}");
    }

    #[test]
    fn gen_with_truth_and_detectors() {
        let events = temp_path("truth.events");
        let truth = temp_path("truth.json");
        run_to_string(&[
            "gen",
            "flow",
            "--locals",
            "30",
            "--externals",
            "500",
            "--groups",
            "3",
            "--windows",
            "2",
            "--multiusage",
            "3",
            "--seed",
            "6",
            "--out",
            &events,
            "--truth",
            &truth,
        ])
        .unwrap();
        let truth_text = std::fs::read_to_string(&truth).unwrap();
        assert!(truth_text.contains("multiusage_groups"));

        let pairs = run_to_string(&[
            "detect",
            "multiusage",
            "--input",
            &events,
            "--threshold",
            "0.8",
        ])
        .unwrap();
        assert!(pairs.contains("label pairs"), "{pairs}");

        let anomalies =
            run_to_string(&["detect", "anomaly", "--input", &events, "--top", "3"]).unwrap();
        assert!(anomalies.contains("anomaly scores"), "{anomalies}");

        let masq =
            run_to_string(&["detect", "masquerade", "--input", &events, "--l", "2"]).unwrap();
        assert!(masq.contains("delta"), "{masq}");
    }

    #[test]
    fn gen_querylog() {
        let events = temp_path("ql.events");
        let msg = run_to_string(&[
            "gen",
            "querylog",
            "--users",
            "40",
            "--tables",
            "60",
            "--windows",
            "2",
            "--out",
            &events,
        ])
        .unwrap();
        assert!(msg.contains("wrote"));
        let stats = run_to_string(&["stats", "--input", &events]).unwrap();
        assert!(stats.contains("2 windows"));
    }

    #[test]
    fn stream_anomaly_and_masquerade() {
        let path = temp_path("stream.events");
        // Three windows; host b swaps behaviour in window 2.
        std::fs::write(
            &path,
            "0 a x 3\n0 b y 2\n1 c z 1\n\
             10 a x 3\n10 b y 2\n11 c z 1\n\
             20 a x 3\n20 b q 2\n21 c z 1\n",
        )
        .unwrap();

        let anom = run_to_string(&[
            "stream",
            "--input",
            &path,
            "--window-width",
            "10",
            "--scheme",
            "rwr:h=2,c=0.1",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(anom.contains("streaming anomaly"), "{anom}");
        assert!(anom.contains("window [20, 30)"), "{anom}");
        // The swap window must surface host b.
        let after_swap = anom.split("window [20, 30)").nth(1).unwrap();
        assert!(after_swap.contains('b'), "{anom}");
        assert!(anom.contains("stream drained: 0 invalid"), "{anom}");

        let masq = run_to_string(&[
            "stream",
            "--input",
            &path,
            "--window-width",
            "10",
            "--task",
            "masquerade",
        ])
        .unwrap();
        assert!(masq.contains("streaming masquerade"), "{masq}");
        assert!(masq.contains("re-paired"), "{masq}");

        // Sliding (overlapping) windows are accepted too.
        let slid = run_to_string(&[
            "stream",
            "--input",
            &path,
            "--window-width",
            "10",
            "--slide",
            "5",
        ])
        .unwrap();
        assert!(slid.contains("window [5, 15)"), "{slid}");

        assert!(matches!(
            run_to_string(&["stream", "--input", &path, "--task", "wat"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(&["stream", "--input", &path, "--slide", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    /// `--tier sketch` runs both tasks end to end, reports its bounded
    /// state, and rejects schemes the sketch substrate cannot cover.
    #[test]
    fn stream_sketch_tier() {
        let path = temp_path("stream_sketch.events");
        std::fs::write(
            &path,
            "0 a x 3\n0 b y 2\n1 c z 1\n\
             10 a x 3\n10 b y 2\n11 c z 1\n\
             20 a x 3\n20 b q 2\n21 c z 1\n",
        )
        .unwrap();
        for task in ["anomaly", "masquerade"] {
            let got = run_to_string(&[
                "stream",
                "--input",
                &path,
                "--window-width",
                "10",
                "--task",
                task,
                "--tier",
                "sketch",
            ])
            .unwrap();
            assert!(got.contains("window [20, 30)"), "{got}");
            assert!(got.contains("sketch tier:"), "{got}");
            assert!(got.contains("state entries"), "{got}");
            assert!(got.contains("stream drained: 0 invalid"), "{got}");
        }
        // The exact tier must not print the sketch memory line.
        let exact = run_to_string(&[
            "stream",
            "--input",
            &path,
            "--window-width",
            "10",
            "--tier",
            "exact",
        ])
        .unwrap();
        assert!(!exact.contains("sketch tier:"), "{exact}");
        assert!(matches!(
            run_to_string(&[
                "stream",
                "--input",
                &path,
                "--tier",
                "sketch",
                "--scheme",
                "rwr:h=2,c=0.1",
            ]),
            Err(CliError::Usage(_))
        ));
        // UT scalings and parameterised TT are valid exact-tier schemes
        // that the sketches do not compute: a usage error on the sketch
        // tier, never a plain-ratio run under another scheme's header.
        for spec in ["ut:tfidf", "ut:log", "tt:bogus"] {
            assert!(
                matches!(
                    run_to_string(&[
                        "stream", "--input", &path, "--tier", "sketch", "--scheme", spec
                    ]),
                    Err(CliError::Usage(_))
                ),
                "{spec}"
            );
        }
        let ratio = [
            "stream",
            "--input",
            &path,
            "--window-width",
            "10",
            "--tier",
            "sketch",
        ];
        assert_eq!(
            run_to_string(&[&ratio[..], &["--scheme", "ut:ratio"]].concat()).unwrap(),
            run_to_string(&[&ratio[..], &["--scheme", "ut"]].concat()).unwrap()
        );
        assert!(matches!(
            run_to_string(&["stream", "--input", &path, "--tier", "wat"]),
            Err(CliError::Usage(_))
        ));
    }

    /// A zero sketch or banding size (or `k`) on the sketch tier is a
    /// usage error from both `stream` and `serve`, not a constructor
    /// panic; the exact tier ignores the sketch flags.
    #[test]
    fn sketch_zero_sizing_is_a_usage_error() {
        let path = temp_path("stream_zero_sizing.events");
        std::fs::write(&path, "0 a x 3\n0 b y 2\n10 a x 3\n10 b q 2\n").unwrap();
        for flag in [
            "--cm-width",
            "--cm-depth",
            "--budget",
            "--k",
            "--bands",
            "--rows",
        ] {
            for task in ["anomaly", "masquerade"] {
                let args = ["stream", "--input", &path, "--task", task, flag, "0"];
                let sketch = [&args[..], &["--tier", "sketch"]].concat();
                assert!(
                    matches!(run_to_string(&sketch), Err(CliError::Usage(_))),
                    "stream {task} {flag} 0"
                );
                if flag != "--k" {
                    assert!(run_to_string(&args).is_ok(), "exact {task} {flag} 0");
                }
            }
            let data = temp_path(&format!("serve_zero_sizing{flag}"));
            let serve = [
                "serve",
                "--data-dir",
                &data,
                "--seed-events",
                &path,
                "--tier",
                "sketch",
                flag,
                "0",
            ];
            assert!(
                matches!(run_to_string(&serve), Err(CliError::Usage(_))),
                "serve {flag} 0"
            );
        }
    }

    /// `--threads N` must not change a single output byte: the sharded
    /// advance is bit-identical by construction, and nothing about the
    /// plan leaks into the report.
    #[test]
    fn stream_threads_output_byte_identical() {
        let path = temp_path("stream_threads.events");
        std::fs::write(
            &path,
            "0 a x 3\n0 b y 2\n1 c z 1\n\
             10 a x 3\n10 b y 2\n11 c z 1\n\
             20 a x 3\n20 b q 2\n21 c z 1\n",
        )
        .unwrap();
        for task in ["anomaly", "masquerade"] {
            let run = |threads: &str| {
                run_to_string(&[
                    "stream",
                    "--input",
                    &path,
                    "--window-width",
                    "10",
                    "--scheme",
                    "rwr:h=2,c=0.1",
                    "--task",
                    task,
                    "--threads",
                    threads,
                ])
                .unwrap()
            };
            let serial = run("1");
            for threads in ["2", "4", "8"] {
                assert_eq!(serial, run(threads), "task={task} threads={threads}");
            }
        }
    }

    #[test]
    fn advise_all_applications() {
        let m = run_to_string(&["advise", "multiusage"]).unwrap();
        assert!(m.lines().any(|l| l.contains("TT") && l.contains("covers")));
        let q = run_to_string(&["advise", "masquerading"]).unwrap();
        assert!(q.contains("RWR^h"));
        let a = run_to_string(&["advise", "anomaly"]).unwrap();
        assert!(a.contains("RWR"));
        assert!(run_to_string(&["advise", "nope"]).is_err());
    }

    #[test]
    fn chaos_list_and_single_scenario() {
        let list = run_to_string(&["chaos", "--list"]).unwrap();
        assert!(list.contains("clean-strict-baseline"), "{list}");
        assert!(list.lines().count() >= 20, "{list}");

        let one = run_to_string(&[
            "chaos",
            "--scenario",
            "nan-poisoned-subject-degrades",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(one.contains("ok"), "{one}");
        assert!(one.contains("0 failed"), "{one}");

        assert!(matches!(
            run_to_string(&["chaos", "--scenario", "not-a-scenario"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn chaos_full_corpus_passes() {
        let all = run_to_string(&["chaos", "--seed", "11"]).unwrap();
        assert!(all.contains("0 failed"), "{all}");
        assert!(!all.contains("FAIL"), "{all}");
    }

    #[test]
    fn ingest_flags_quarantine_bad_records() {
        let path = temp_path("dirty.events");
        std::fs::write(
            &path,
            "0 a b 1\nthis is not a record at all ok\n0 b c 2\n1 a b NaN\n1 c a 3\n",
        )
        .unwrap();

        // Strict (the default) fails on the malformed line.
        assert!(run_to_string(&["stats", "--input", &path]).is_err());

        // Quarantine keeps the 3 clean records and reports the rest.
        let stats = run_to_string(&[
            "stats",
            "--input",
            &path,
            "--ingest",
            "quarantine",
            "--max-bad-fraction",
            "0.5",
        ])
        .unwrap();
        assert!(stats.contains("kept 3 of 5 records"), "{stats}");
        assert!(stats.contains("quarantined line 2"), "{stats}");

        // A tight budget is a typed failure, not a panic.
        assert!(run_to_string(&[
            "stats",
            "--input",
            &path,
            "--ingest",
            "quarantine",
            "--max-bad-fraction",
            "0.1",
        ])
        .is_err());

        assert!(matches!(
            run_to_string(&["stats", "--input", &path, "--ingest", "wat"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn error_paths() {
        assert!(matches!(run_to_string(&["stats"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_to_string(&["stats", "--input", "/nonexistent/x.events"]),
            Err(CliError::Failed(_))
        ));
        assert!(matches!(
            run_to_string(&["gen", "wat", "--out", "/tmp/x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(&["detect", "wat", "--input", "/tmp/x"]),
            Err(CliError::Usage(_))
        ));
    }
}
