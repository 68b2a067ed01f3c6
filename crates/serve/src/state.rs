//! The live in-memory state of the service and its digest oracle.
//!
//! [`LiveState`] bundles everything the daemon mutates between durable
//! records: the sliding windower, the combined masquerade/anomaly
//! detector (either tier, behind [`TierDetector`]), the frozen label
//! space and the monotone counters. It is deliberately free of any I/O
//! so the chaos scenarios and proptests can drive the exact production
//! state machine without a socket.
//!
//! [`LiveState::state_digest`] is the bit-identity oracle. On the exact
//! tier it folds the graph, both signature buffers, the physical index
//! layout and the full windower state into one FNV-1a digest. On the
//! sketch tier it folds the tier's deterministic state encoding (which
//! covers the sketches *and* the current signatures) plus the previous
//! signature buffer — the ANN index is derived from signatures and
//! [`AnnConfig`](comsig_eval::ann::AnnConfig), so it never enters the
//! digest. An uninterrupted run
//! and a kill-and-resume run must produce equal digests at every window
//! boundary — the WAL records the expected digest per advance and
//! recovery verifies it.

use comsig_apps::anomaly::AnomalyScore;
use comsig_apps::masquerade::DetectorConfig;
use comsig_apps::stream::{SketchMasquerade, StreamDetection, StreamingMasquerade};
use comsig_core::distance::BatchDistance;
use comsig_core::persist::{self, Enc, Fnv};
use comsig_core::pipeline::DeltaScheme;
use comsig_core::{Signature, SignatureSet, SignatureTier, TierMemory};
use comsig_eval::ann::SubjectMatcher;
use comsig_eval::index::MatchWorkspace;
use comsig_eval::ranking::Ranking;
use comsig_graph::{
    CommGraph, EdgeEvent, Interner, NodeId, ShardPlan, SlidingWindower, WindowDelta,
};
use comsig_sketch::tier::SketchTier;

use crate::config::{ServeConfig, ServeError};

/// The query-visible residue of the most recent window advance: the
/// masquerade verdict and the anomaly scores for the last window pair.
/// Persisted in snapshots and recomputed by WAL replay, so queries
/// answer byte-identically across a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct LastWindow {
    /// Window bounds `[start, end)` of the advanced window.
    pub start: u64,
    /// Exclusive end of the advanced window.
    pub end: u64,
    /// Aggregated-edge changes applied by the advance.
    pub changed_edges: u64,
    /// Subjects recomputed by the advance.
    pub dirty: u64,
    /// Subjects whose signature survived unchanged (non-suspects).
    pub non_suspects: u64,
    /// Algorithm 1's distance threshold `δ` for the pair.
    pub delta: f64,
    /// Re-identified (suspect, best-match) pairs.
    pub detected: Vec<(NodeId, NodeId)>,
    /// Per-subject anomaly scores, most anomalous first.
    pub scores: Vec<AnomalyScore>,
}

/// The combined detector on whichever tier the service is configured
/// for: the exact pipeline + postings index, or the sketch tier + ANN
/// index. Both variants expose the same advance/query surface; the
/// durable codecs branch on the variant because the persisted state
/// shapes differ entirely.
pub enum TierDetector<'a> {
    /// Exact tier: materialised window graph, per-advance patched
    /// postings index. Both variants are boxed so the enum stays
    /// pointer-sized: each tier carries large inline workspaces.
    Exact(Box<StreamingMasquerade<'a, dyn DeltaScheme + 'a>>),
    /// Sketch tier: bounded sketch state, LSH-fronted matcher.
    Sketch(Box<SketchMasquerade>),
}

impl<'a> TierDetector<'a> {
    fn tier(&self) -> &dyn SignatureTier {
        match self {
            TierDetector::Exact(det) => det.tier(),
            TierDetector::Sketch(det) => det.tier(),
        }
    }

    fn matcher(&self) -> &dyn SubjectMatcher {
        match self {
            TierDetector::Exact(det) => det.matcher(),
            TierDetector::Sketch(det) => det.matcher(),
        }
    }

    /// The tier's stable name (`"exact"` / `"sketch"`).
    #[must_use]
    pub fn tier_name(&self) -> &'static str {
        self.tier().tier_name()
    }

    /// The current window's signatures.
    #[must_use]
    pub fn signatures(&self) -> &SignatureSet {
        self.tier().signatures()
    }

    /// The previous window's signatures (the double buffer's back side).
    #[must_use]
    pub fn prev_signatures(&self) -> &SignatureSet {
        match self {
            TierDetector::Exact(det) => det.prev_signatures(),
            TierDetector::Sketch(det) => det.prev_signatures(),
        }
    }

    /// The exact-tier detector, when the service runs on it.
    #[must_use]
    pub fn exact(&self) -> Option<&StreamingMasquerade<'a, dyn DeltaScheme + 'a>> {
        match self {
            TierDetector::Exact(det) => Some(det),
            TierDetector::Sketch(_) => None,
        }
    }

    /// The sketch-tier detector, when the service runs on it.
    #[must_use]
    pub fn sketch(&self) -> Option<&SketchMasquerade> {
        match self {
            TierDetector::Exact(_) => None,
            TierDetector::Sketch(det) => Some(det),
        }
    }

    /// The tier's resident-state accounting plus the matcher's entry
    /// count — the service's memory story, surfaced by `status`.
    #[must_use]
    pub fn memory(&self) -> (TierMemory, usize) {
        (self.tier().memory(), self.matcher().memory_entries())
    }

    /// Advances one window on whichever tier is live.
    pub fn advance_with_anomaly(
        &mut self,
        dist: &dyn BatchDistance,
        delta: &WindowDelta,
    ) -> (StreamDetection, Vec<AnomalyScore>) {
        match self {
            TierDetector::Exact(det) => det.advance_with_anomaly(dist, delta),
            TierDetector::Sketch(det) => det.advance_with_anomaly(dist, delta),
        }
    }

    /// Ranks `sig` against the maintained candidates, keeping the best
    /// `top`. Exact tier: the postings-index sweep. Sketch tier: the
    /// LSH-fronted matcher — survivors re-scored exactly, missed
    /// candidates at distance 1.0 (the documented one-sided contract).
    #[must_use]
    pub fn rank_top_l(&self, dist: &dyn BatchDistance, sig: &Signature, top: usize) -> Ranking {
        let mut entries = Vec::new();
        self.matcher()
            .rank_top_l_into(dist, sig, top, &mut MatchWorkspace::new(), &mut entries);
        Ranking::from_sorted(entries)
    }
}

/// The full in-memory state of the service between durable records.
pub struct LiveState<'a> {
    /// Frozen label space: interned once at genesis from the seed
    /// events; ingested labels must already be known.
    pub interner: Interner,
    /// Fixed subject population (sorted, deduplicated seed sources).
    pub subjects: Vec<NodeId>,
    /// The sliding windower consuming accepted events.
    pub windower: SlidingWindower,
    /// The combined detector on the configured tier.
    pub det: TierDetector<'a>,
    /// Windows advanced since genesis.
    pub windows: u64,
    /// Events accepted into the windower since genesis (pre-validation
    /// count: the WAL logs batches before `push` filters them, and
    /// replay repeats the same pushes).
    pub ingested_events: u64,
    /// The most recent advance's query-visible outputs.
    pub last: Option<LastWindow>,
}

/// The frozen genesis node space: the interner and subject set derived
/// from the seed events. Freezing both at genesis keeps signature
/// indices dense and recovery deterministic.
#[derive(Debug, Clone)]
pub struct GenesisSpace {
    /// The frozen label interner.
    pub interner: Interner,
    /// The fixed subject (source) population.
    pub subjects: Vec<NodeId>,
}

/// The fixed subject population for a seed event stream: every source
/// label, sorted and deduplicated (the same rule as `comsig stream`).
#[must_use]
pub fn subject_sources(events: &[EdgeEvent]) -> Vec<NodeId> {
    let set: std::collections::BTreeSet<NodeId> = events.iter().map(|e| e.src).collect();
    set.into_iter().collect()
}

impl<'a> LiveState<'a> {
    /// The genesis state: an empty first window over the frozen label
    /// space, deterministic in `(config, interner, subjects)`. The
    /// configured tier picks the detector; `scheme` drives the exact
    /// tier and is ignored by the sketch tier (which approximates the
    /// scheme named by `config.scheme_spec`).
    ///
    /// # Errors
    /// [`ServeError::Config`] when the sketch tier is configured with a
    /// non-sketchable scheme, or with a zero `k`, sketch or banding size.
    pub fn genesis(
        scheme: &'a dyn DeltaScheme,
        config: &ServeConfig,
        interner: Interner,
        subjects: Vec<NodeId>,
    ) -> Result<Self, ServeError> {
        let windower = SlidingWindower::new(config.start, config.width, config.slide);
        let det = if config.is_sketch() {
            let scheme = config.sketch_scheme()?;
            SketchTier::check_sizes(&config.sketch, config.k)
                .and_then(|()| config.ann.check_sizes())
                .map_err(|e| ServeError::Config(format!("sketch tier: {e}")))?;
            TierDetector::Sketch(Box::new(SketchMasquerade::new_sketch(
                scheme,
                config.sketch,
                &subjects,
                interner.len(),
                detector_config(config),
                config.ann,
                plan_of(config),
            )))
        } else {
            TierDetector::Exact(Box::new(StreamingMasquerade::with_plan(
                scheme,
                CommGraph::empty(interner.len()),
                &subjects,
                detector_config(config),
                plan_of(config),
            )))
        };
        Ok(LiveState {
            interner,
            subjects,
            windower,
            det,
            windows: 0,
            ingested_events: 0,
            last: None,
        })
    }

    /// Pushes an accepted event batch into the windower, in batch
    /// order. Events the windower rejects (late, invalid) are counted
    /// by the windower itself; the decision is deterministic, so replay
    /// of the same batch reproduces the same counters.
    pub fn push_events(&mut self, events: &[EdgeEvent]) {
        for &e in events {
            let _ = self.windower.push(e);
        }
        self.ingested_events += events.len() as u64;
    }

    /// Applies one window delta to the detector and records the
    /// query-visible outputs. The delta must come from this state's
    /// windower (live path) or from the WAL (replay path, where it is
    /// verified against a fresh `windower.advance()` first).
    pub fn apply_window(&mut self, dist: &dyn BatchDistance, delta: &WindowDelta) {
        let (step, scores) = self.det.advance_with_anomaly(dist, delta);
        self.windows += 1;
        self.last = Some(LastWindow {
            start: delta.start,
            end: delta.end,
            changed_edges: step.report.changed_edges as u64,
            dirty: step.report.dirty.len() as u64,
            non_suspects: step.detection.non_suspects.len() as u64,
            delta: step.detection.delta,
            detected: step.detection.detected,
            scores,
        });
    }

    /// Advances the windower one slide and applies the delta — the
    /// uninterrupted (non-replay) path.
    pub fn advance_once(&mut self, dist: &dyn BatchDistance) -> WindowDelta {
        let delta = self.windower.advance();
        self.apply_window(dist, &delta);
        delta
    }

    /// The bit-identity oracle: an FNV-1a digest over the complete
    /// tier-specific durable state plus the windower and the monotone
    /// counters. Equal digests mean equal service state, byte for byte.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut enc = Enc::new();
        let mut h = Fnv::new();
        match &self.det {
            TierDetector::Exact(det) => {
                persist::encode_graph(&mut enc, det.tier().graph());
                persist::encode_signature_set(&mut enc, det.tier().signatures());
                persist::encode_signature_set(&mut enc, det.prev_signatures());
                persist::encode_windower(&mut enc, &self.windower.export_state());
                h.write(&enc.into_bytes());
                h.write_u64(det.matcher().layout_digest());
            }
            TierDetector::Sketch(det) => {
                det.tier().encode_state(&mut enc);
                persist::encode_signature_set(&mut enc, det.prev_signatures());
                persist::encode_windower(&mut enc, &self.windower.export_state());
                h.write(&enc.into_bytes());
            }
        }
        h.write_u64(self.windows);
        h.write_u64(self.ingested_events);
        h.finish()
    }
}

/// The Algorithm 1 knobs carried by the service configuration.
#[must_use]
pub fn detector_config(config: &ServeConfig) -> DetectorConfig {
    DetectorConfig {
        k: config.k,
        threshold_divisor: config.threshold_divisor,
        top_l: config.top_l,
    }
}

/// The shard plan for the configured worker count (0 = machine-sized).
#[must_use]
pub fn plan_of(config: &ServeConfig) -> ShardPlan {
    if config.threads == 0 {
        ShardPlan::auto()
    } else {
        ShardPlan::new(config.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;

    use crate::config::TierSpec;

    fn seeded() -> (Interner, Vec<EdgeEvent>) {
        let mut interner = Interner::new();
        let mut events = Vec::new();
        for t in 0..20u64 {
            let src = interner.intern(&format!("h{}", t % 4));
            let dst = interner.intern(&format!("h{}", (t + 1) % 5));
            if src != dst {
                events.push(EdgeEvent {
                    time: t,
                    src,
                    dst,
                    weight: 1.0 + (t % 3) as f64,
                });
            }
        }
        (interner, events)
    }

    #[test]
    fn digest_changes_with_state_and_repeats_without() {
        let scheme = TopTalkers;
        let config = ServeConfig {
            width: 5,
            slide: 5,
            ..ServeConfig::default()
        };
        let (interner, events) = seeded();
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &config, interner, subjects).unwrap();
        let d0 = live.state_digest();
        assert_eq!(d0, live.state_digest(), "digest must be a pure function");
        live.push_events(&events);
        let d1 = live.state_digest();
        assert_ne!(d0, d1, "pushed events must change the digest");
        let _ = live.advance_once(&SHel);
        let d2 = live.state_digest();
        assert_ne!(d1, d2, "an advance must change the digest");
        assert!(live.last.is_some());
    }

    #[test]
    fn two_identical_runs_share_every_window_digest() {
        let scheme = TopTalkers;
        for tier in [TierSpec::Exact, TierSpec::Sketch] {
            let config = ServeConfig {
                width: 5,
                slide: 5,
                tier,
                ..ServeConfig::default()
            };
            let (interner, events) = seeded();
            let subjects = subject_sources(&events);
            let run = |threads: usize| {
                let config = ServeConfig {
                    threads,
                    ..config.clone()
                };
                let mut live =
                    LiveState::genesis(&scheme, &config, interner.clone(), subjects.clone())
                        .unwrap();
                live.push_events(&events);
                let mut digests = Vec::new();
                while live.windower.pending_events() > 0 {
                    let _ = live.advance_once(&SHel);
                    digests.push(live.state_digest());
                }
                digests
            };
            assert_eq!(
                run(1),
                run(4),
                "{} shard plans must be bit-identical",
                tier.name()
            );
        }
    }

    #[test]
    fn sketch_genesis_rejects_unsketchable_scheme() {
        let scheme = TopTalkers;
        // RWR needs the graph; the UT scalings and parameterised TT are
        // schemes the sketches would silently compute as plain TT/UT.
        for spec in ["rwr:h=2,c=0.1", "ut:tfidf", "ut:log", "tt:bogus"] {
            let config = ServeConfig {
                scheme_spec: spec.to_owned(),
                tier: TierSpec::Sketch,
                ..ServeConfig::default()
            };
            let (interner, events) = seeded();
            let subjects = subject_sources(&events);
            assert!(
                matches!(
                    LiveState::genesis(&scheme, &config, interner, subjects),
                    Err(ServeError::Config(_))
                ),
                "{spec}"
            );
        }
        for spec in ["tt", "ut", "ut:ratio"] {
            let config = ServeConfig {
                scheme_spec: spec.to_owned(),
                tier: TierSpec::Sketch,
                ..ServeConfig::default()
            };
            let (interner, events) = seeded();
            let subjects = subject_sources(&events);
            assert!(
                LiveState::genesis(&scheme, &config, interner, subjects).is_ok(),
                "{spec}"
            );
        }
    }

    #[test]
    fn sketch_detector_answers_ranking_queries() {
        let scheme = TopTalkers;
        let config = ServeConfig {
            width: 5,
            slide: 5,
            k: 4,
            tier: TierSpec::Sketch,
            ..ServeConfig::default()
        };
        let (interner, events) = seeded();
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(&scheme, &config, interner, subjects).unwrap();
        live.push_events(&events);
        let _ = live.advance_once(&SHel);
        assert_eq!(live.det.tier_name(), "sketch");
        let v = live.subjects[0];
        let sig = live.det.signatures().get(v).expect("subject has signature");
        let ranking = live.det.rank_top_l(&SHel, sig, 3);
        assert!(!ranking.entries().is_empty());
        // Self-identification: the subject's own signature is at
        // distance 0, and the LSH front never misses an identical twin
        // (every band collides).
        assert_eq!(ranking.entries()[0].0, v);
        assert_eq!(ranking.entries()[0].1, 0.0);
        let (mem, matcher_entries) = live.det.memory();
        assert!(mem.state_entries > 0 && mem.state_bytes > 0);
        assert!(matcher_entries > 0);
    }
}
