//! Semi-streaming signature extraction (Section VI, "Scalable signature
//! computation").
//!
//! When the graph is too large to store, we keep a constant amount of
//! state per node (the semi-streaming model of graph stream processing):
//!
//! * per **source**: a [`CountMinSketch`] of its outgoing edge weights
//!   plus a bounded candidate list of its currently-heaviest
//!   destinations (the classic CM + heap heavy-hitters combination);
//! * per **destination**: an [`FmSketch`] of its distinct sources,
//!   estimating the in-degree `|I(j)|` — or, with
//!   [`StreamConfig::indeg_cells`] set, a fixed-size [`DistinctCm`]
//!   table whose footprint is independent of the destination universe.
//!   Only UT reads it, so a turnstile stream built for TT keeps none.
//!
//! From this state, approximate Top Talkers signatures (`ĉ[i,j]`
//! normalised by `Σ ĉ`) and approximate Unexpected Talkers signatures
//! (`ĉ[i,j] / |Î(j)|`) are extracted without ever materialising the
//! graph.
//!
//! ## Two ingestion models
//!
//! [`observe`](SemiStream::observe) is the paper's cash-register model:
//! weights accumulate, nothing retracts, and the per-source CM uses
//! conservative update for the tightest estimates. The **turnstile**
//! variant ([`SemiStream::turnstile`] +
//! [`apply_change`](SemiStream::apply_change)) instead consumes
//! [`WindowDelta`]-style `(old, new)` aggregate transitions, so a sliding
//! window's expiries become signed retractions. Retraction forces the
//! linear CM variant — see [`CountMinSketch::update_signed`] for why the
//! no-underestimate guarantee survives — and the in-degree sketches stay
//! insert-only: `|Î(j)|` counts distinct sources over the stream's whole
//! horizon, a documented one-sided over-estimate of the windowed
//! in-degree (popular destinations stay discounted; novel ones are never
//! inflated).
//!
//! [`WindowDelta`]: comsig_graph::WindowDelta

use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

use comsig_core::Signature;
use comsig_graph::{CommGraph, NodeId};

use crate::cm::CountMinSketch;
use crate::distinct::DistinctCm;
use crate::fm::FmSketch;
use crate::tier::SketchScheme;

/// Sizing of the per-node sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Count-Min width per source.
    pub cm_width: usize,
    /// Count-Min depth per source.
    pub cm_depth: usize,
    /// Maximum tracked candidate destinations per source (the "constant
    /// amount of information about each node").
    pub candidate_budget: usize,
    /// FM bitmaps per destination (or per [`DistinctCm`] cell).
    pub fm_bitmaps: usize,
    /// Seed for all hash functions.
    pub seed: u64,
    /// Cells per row of the bounded in-degree table. `0` (the default)
    /// keeps one FM sketch per seen destination — exact routing,
    /// Θ(#destinations) memory. Non-zero switches to a [`DistinctCm`]
    /// whose footprint is fixed regardless of the destination universe.
    #[serde(default)]
    pub indeg_cells: usize,
    /// Rows of the bounded in-degree table (used when
    /// [`indeg_cells`](Self::indeg_cells) is non-zero).
    #[serde(default = "default_indeg_depth")]
    pub indeg_depth: usize,
}

fn default_indeg_depth() -> usize {
    2
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            cm_width: 128,
            cm_depth: 4,
            candidate_budget: 64,
            fm_bitmaps: 32,
            seed: 1,
            indeg_cells: 0,
            indeg_depth: default_indeg_depth(),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct SourceState {
    pub(crate) cm: CountMinSketch,
    /// Current heavy-destination candidates with their CM estimates.
    pub(crate) candidates: FxHashMap<NodeId, f64>,
    /// Exact total outgoing weight (a single counter per node is allowed).
    pub(crate) total: f64,
}

/// The per-destination distinct-source state, in either memory regime.
#[derive(Debug, Clone)]
pub(crate) enum InDegree {
    /// One FM sketch per seen destination.
    PerDst(FxHashMap<NodeId, FmSketch>),
    /// A fixed `depth × width` table of shared FM cells.
    Bounded(DistinctCm),
}

impl InDegree {
    fn from_config(cfg: &StreamConfig) -> Self {
        if cfg.indeg_cells > 0 {
            InDegree::Bounded(DistinctCm::new(
                cfg.indeg_cells,
                cfg.indeg_depth.max(1),
                cfg.fm_bitmaps,
                cfg.seed ^ 0xD15C,
            ))
        } else {
            InDegree::PerDst(FxHashMap::default())
        }
    }

    /// Records `src → dst`; returns whether any estimate changed.
    fn insert(&mut self, dst: NodeId, src: NodeId, cfg: &StreamConfig) -> bool {
        match self {
            InDegree::PerDst(map) => map
                .entry(dst)
                .or_insert_with(|| FmSketch::new(cfg.fm_bitmaps, cfg.seed ^ 0xD15C))
                .insert(src.raw() as u64),
            InDegree::Bounded(table) => table.insert(dst.raw() as u64, src.raw() as u64),
        }
    }

    fn estimate(&self, dst: NodeId) -> f64 {
        match self {
            InDegree::PerDst(map) => map.get(&dst).map_or(0.0, FmSketch::estimate),
            InDegree::Bounded(table) => table.estimate(dst.raw() as u64),
        }
    }

    fn num_bitmaps(&self) -> usize {
        match self {
            InDegree::PerDst(map) => map.values().map(FmSketch::num_bitmaps).sum(),
            InDegree::Bounded(table) => table.num_bitmaps(),
        }
    }
}

/// The state only UT signatures read: the in-degree estimator and the
/// sources whose UT signatures a moved estimate touches.
#[derive(Debug, Clone)]
pub(crate) struct InDegreeState {
    pub(crate) estimator: InDegree,
    /// Reverse candidate map `dst → sources currently tracking dst`,
    /// maintained only in turnstile mode: when `|Î(dst)|` moves, exactly
    /// these sources' UT signatures may change. Bounded by the total
    /// candidate budget.
    pub(crate) trackers: FxHashMap<NodeId, FxHashSet<NodeId>>,
}

impl InDegreeState {
    fn tracker_entries(&self) -> usize {
        self.trackers.values().map(FxHashSet::len).sum()
    }
}

/// One-pass signature extraction state over a communication stream.
#[derive(Debug, Clone)]
pub struct SemiStream {
    pub(crate) cfg: StreamConfig,
    pub(crate) sources: FxHashMap<NodeId, SourceState>,
    /// `None` on a turnstile stream built for TT, which never reads it.
    pub(crate) in_degree: Option<InDegreeState>,
    /// Whether this stream consumes signed `(old, new)` transitions
    /// (linear CMs) or cash-register observations (conservative CMs).
    pub(crate) turnstile: bool,
}

impl SemiStream {
    /// Creates empty cash-register state (weights only accumulate). It
    /// keeps in-degree estimates, so it serves both TT and UT.
    pub fn new(cfg: StreamConfig) -> Self {
        Self::with_mode(cfg, false, true)
    }

    /// The sketch sizing this stream was created with.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Creates empty turnstile state for
    /// [`apply_change`](Self::apply_change): per-source CMs are linear so
    /// window expiries can retract weight. Only a UT stream keeps the
    /// in-degree estimator and the tracker map; a TT stream holds neither.
    pub fn turnstile(cfg: StreamConfig, scheme: SketchScheme) -> Self {
        Self::with_mode(cfg, true, scheme == SketchScheme::UnexpectedTalkers)
    }

    fn with_mode(cfg: StreamConfig, turnstile: bool, in_degree: bool) -> Self {
        assert!(
            cfg.candidate_budget > 0,
            "candidate budget must be positive"
        );
        SemiStream {
            sources: FxHashMap::default(),
            in_degree: in_degree.then(|| InDegreeState {
                estimator: InDegree::from_config(&cfg),
                trackers: FxHashMap::default(),
            }),
            turnstile,
            cfg,
        }
    }

    /// Whether this stream is in turnstile mode.
    pub fn is_turnstile(&self) -> bool {
        self.turnstile
    }

    pub(crate) fn new_source(cfg: &StreamConfig, src: NodeId, turnstile: bool) -> SourceState {
        let cm = CountMinSketch::new(cfg.cm_width, cfg.cm_depth, cfg.seed ^ src.raw() as u64);
        SourceState {
            cm: if turnstile { cm } else { cm.conservative() },
            candidates: FxHashMap::default(),
            total: 0.0,
        }
    }

    /// Observes one communication `src → dst` of volume `weight`
    /// (cash-register model).
    ///
    /// # Panics
    /// Panics if the stream was created with [`turnstile`](Self::turnstile)
    /// — mixing the two ingestion models would silently break the
    /// retraction guarantee.
    pub fn observe(&mut self, src: NodeId, dst: NodeId, weight: f64) {
        assert!(
            !self.turnstile,
            "observe() is the cash-register path; use apply_change() on a turnstile stream"
        );
        if src == dst || !weight.is_finite() || weight <= 0.0 {
            return;
        }
        let cfg = self.cfg;
        let state = self
            .sources
            .entry(src)
            .or_insert_with(|| Self::new_source(&cfg, src, false));
        state.total += weight;
        state.cm.update(dst.raw() as u64, weight);
        let est = state.cm.query(dst.raw() as u64);
        if state.candidates.len() < cfg.candidate_budget || state.candidates.contains_key(&dst) {
            state.candidates.insert(dst, est);
        } else if let Some((min_key, min_est)) = weakest_candidate(&state.candidates) {
            // Evict the smallest candidate if the newcomer beats it.
            if est > min_est {
                state.candidates.remove(&min_key);
                state.candidates.insert(dst, est);
            }
        }

        if let Some(in_degree) = &mut self.in_degree {
            in_degree.estimator.insert(dst, src, &cfg);
        }
    }

    /// Applies one aggregated-edge transition `src → dst: old → new`
    /// (turnstile model, the [`WindowDelta`](comsig_graph::WindowDelta)
    /// contract: `None` means absent). Returns whether the in-degree
    /// estimate of `dst` changed, i.e. whether sources *tracking* `dst`
    /// may need their UT signatures re-derived — always `false` on a TT
    /// stream, which keeps no estimate.
    ///
    /// The caller is responsible for weight validation — this is the
    /// trusted hot path; `SketchTier` degrades subjects with poisoned
    /// events before they reach it.
    ///
    /// # Panics
    /// Panics if the stream is not in turnstile mode.
    pub fn apply_change(
        &mut self,
        src: NodeId,
        dst: NodeId,
        old: Option<f64>,
        new: Option<f64>,
    ) -> bool {
        assert!(
            self.turnstile,
            "apply_change() requires a turnstile stream; use SemiStream::turnstile()"
        );
        if src == dst {
            return false;
        }
        let delta = new.unwrap_or(0.0) - old.unwrap_or(0.0);
        let cfg = self.cfg;
        let state = self
            .sources
            .entry(src)
            .or_insert_with(|| Self::new_source(&cfg, src, true));
        // The running total is a sum of exact deltas; clamp guards float
        // drift from ever producing a negative normaliser.
        state.total = (state.total + delta).max(0.0);
        state.cm.update_signed(dst.raw() as u64, delta);
        if new.is_none() {
            if state.candidates.remove(&dst).is_some() {
                if let Some(in_degree) = &mut self.in_degree {
                    untrack(&mut in_degree.trackers, dst, src);
                }
            }
            // Retraction leaves |Î(dst)| at its horizon value.
            return false;
        }
        let est = state.cm.query(dst.raw() as u64).max(0.0);
        let mut joined = false;
        let mut evicted = None;
        if state.candidates.len() < cfg.candidate_budget || state.candidates.contains_key(&dst) {
            joined = state.candidates.insert(dst, est).is_none();
        } else if let Some((min_key, min_est)) = weakest_candidate(&state.candidates) {
            if est > min_est {
                state.candidates.remove(&min_key);
                state.candidates.insert(dst, est);
                joined = true;
                evicted = Some(min_key);
            }
        }
        let Some(in_degree) = &mut self.in_degree else {
            return false;
        };
        if let Some(min_key) = evicted {
            untrack(&mut in_degree.trackers, min_key, src);
        }
        if joined {
            in_degree.trackers.entry(dst).or_default().insert(src);
        }
        in_degree.estimator.insert(dst, src, &cfg)
    }

    /// Feeds every aggregated edge of a graph (useful for comparing the
    /// streaming signatures against the exact ones).
    pub fn observe_graph(&mut self, g: &CommGraph) {
        for e in g.edges() {
            self.observe(e.src, e.dst, e.weight);
        }
    }

    /// Estimated in-degree `|Î(j)|` of a destination, or `None` on a
    /// stream that keeps no in-degree state (a turnstile stream built for
    /// TT).
    pub fn estimated_in_degree(&self, j: NodeId) -> Option<f64> {
        self.in_degree.as_ref().map(|s| s.estimator.estimate(j))
    }

    /// The sources currently tracking `dst` as a candidate (a turnstile
    /// UT stream only; empty otherwise).
    pub fn trackers_of(&self, dst: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_degree
            .as_ref()
            .and_then(|s| s.trackers.get(&dst))
            .into_iter()
            .flatten()
            .copied()
    }

    /// Approximate Top Talkers signature of `v` (estimates normalised by
    /// `v`'s exact total outgoing weight, mirroring Definition 3).
    pub fn tt_signature(&self, v: NodeId, k: usize) -> Signature {
        let Some(state) = self.sources.get(&v) else {
            return Signature::empty();
        };
        if state.total <= 0.0 {
            return Signature::empty();
        }
        Signature::top_k(
            v,
            state
                .candidates
                .iter()
                .map(|(&dst, &est)| (dst, est / state.total)),
            k,
        )
    }

    /// Approximate Unexpected Talkers signature of `v`:
    /// `ĉ[v,j] / |Î(j)|` over the tracked candidates (Definition 4 with
    /// both quantities estimated, as Section VI prescribes).
    ///
    /// # Panics
    /// Panics on a stream that keeps no in-degree state (a turnstile
    /// stream built for TT).
    pub fn ut_signature(&self, v: NodeId, k: usize) -> Signature {
        assert!(
            self.in_degree.is_some(),
            "ut_signature() needs in-degree state; this turnstile stream was built for TT"
        );
        let Some(state) = self.sources.get(&v) else {
            return Signature::empty();
        };
        Signature::top_k(
            v,
            state.candidates.iter().map(|(&dst, &est)| {
                let indeg = self.estimated_in_degree(dst).unwrap_or(0.0).max(1.0);
                (dst, est / indeg)
            }),
            k,
        )
    }

    /// Number of tracked sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Total counters held across all sketches — the memory story of the
    /// semi-streaming model (Θ(1) per node).
    pub fn state_size(&self) -> usize {
        let cm: usize = self
            .sources
            .values()
            .map(|s| s.cm.num_counters() + s.candidates.len())
            .sum();
        cm + self
            .in_degree
            .as_ref()
            .map_or(0, |s| s.estimator.num_bitmaps() + s.tracker_entries())
    }

    /// Approximate resident bytes of the sketch state (counters and
    /// bitmaps at 8 bytes, candidate/tracker entries at id + weight
    /// width) — the memory axis `BENCH_sketch.json` records.
    pub fn state_bytes(&self) -> usize {
        let cm: usize = self
            .sources
            .values()
            .map(|s| s.cm.num_counters() * 8 + s.candidates.len() * 12)
            .sum();
        cm + self.in_degree.as_ref().map_or(0, |s| {
            s.estimator.num_bitmaps() * 8 + s.tracker_entries() * 4
        })
    }
}

/// The candidate with the smallest estimate (ties to the smaller id) —
/// the deterministic eviction victim.
fn weakest_candidate(candidates: &FxHashMap<NodeId, f64>) -> Option<(NodeId, f64)> {
    candidates
        .iter()
        .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
        .map(|(&k, &v)| (k, v))
}

fn untrack(trackers: &mut FxHashMap<NodeId, FxHashSet<NodeId>>, dst: NodeId, src: NodeId) {
    if let Some(set) = trackers.get_mut(&dst) {
        set.remove(&src);
        if set.is_empty() {
            trackers.remove(&dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::scheme::{SignatureScheme, TopTalkers, UnexpectedTalkers};
    use comsig_graph::GraphBuilder;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Hosts 0..3 each talk to distinctive destinations, with a common
    /// hub 20.
    fn sample_graph() -> CommGraph {
        let mut b = GraphBuilder::new();
        for host in 0..4usize {
            b.add_event(n(host), n(20), 3.0);
            for j in 0..6usize {
                b.add_event(n(host), n(30 + host * 6 + j), (6 - j) as f64);
            }
        }
        b.build(60)
    }

    #[test]
    fn streaming_tt_matches_exact_on_small_graph() {
        let g = sample_graph();
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe_graph(&g);
        for v in 0..4usize {
            let exact = TopTalkers.signature(&g, n(v), 5);
            let approx = stream.tt_signature(n(v), 5);
            // With sketches far larger than the data, the result is exact.
            assert_eq!(exact.len(), approx.len(), "host {v}");
            for (u, w) in exact.iter() {
                let aw = approx.get(u).expect("member present");
                assert!((aw - w).abs() < 1e-9, "host {v}, member {u}");
            }
        }
    }

    #[test]
    fn streaming_ut_ranks_novel_destinations_first() {
        let g = sample_graph();
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe_graph(&g);
        let exact = UnexpectedTalkers::new().signature(&g, n(0), 3);
        let approx = stream.ut_signature(n(0), 3);
        // The hub (in-degree 4) must be discounted in both.
        assert!(!exact.contains(n(20)));
        assert!(!approx.contains(n(20)));
    }

    #[test]
    fn candidate_budget_keeps_heavy_destinations() {
        let mut stream = SemiStream::new(StreamConfig {
            candidate_budget: 4,
            ..StreamConfig::default()
        });
        // 3 heavy destinations among 40 light ones.
        for round in 0..50u64 {
            for heavy in 0..3usize {
                stream.observe(n(0), n(100 + heavy), 5.0);
            }
            let light = 200 + (round % 40) as usize;
            stream.observe(n(0), n(light), 1.0);
        }
        let sig = stream.tt_signature(n(0), 3);
        for heavy in 0..3usize {
            assert!(sig.contains(n(100 + heavy)), "missing heavy {heavy}");
        }
    }

    #[test]
    fn in_degree_estimates_reasonable() {
        let g = sample_graph();
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe_graph(&g);
        let est = stream.estimated_in_degree(n(20)).expect("in-degree kept");
        assert!((1.0..=16.0).contains(&est), "hub estimate {est}");
        assert_eq!(stream.estimated_in_degree(n(59)), Some(0.0));
    }

    #[test]
    fn bounded_in_degree_estimates_reasonable() {
        let g = sample_graph();
        let mut stream = SemiStream::new(StreamConfig {
            indeg_cells: 64,
            ..StreamConfig::default()
        });
        stream.observe_graph(&g);
        let est = stream.estimated_in_degree(n(20)).expect("in-degree kept");
        assert!((1.0..=16.0).contains(&est), "hub estimate {est}");
        // Fixed footprint: the bitmap count does not scale with the
        // destination universe.
        let before = stream.state_size();
        for dst in 1000..2000usize {
            stream.observe(n(999), n(dst), 1.0);
        }
        let added = stream.state_size() - before;
        let per_source = StreamConfig::default().cm_width * StreamConfig::default().cm_depth;
        assert!(
            added <= per_source + StreamConfig::default().candidate_budget,
            "in-degree state grew with destinations: {added}"
        );
    }

    #[test]
    fn unknown_source_is_empty() {
        let stream = SemiStream::new(StreamConfig::default());
        assert!(stream.tt_signature(n(5), 3).is_empty());
        assert!(stream.ut_signature(n(5), 3).is_empty());
        assert_eq!(stream.num_sources(), 0);
    }

    #[test]
    fn state_size_grows_linearly_in_nodes() {
        let g = sample_graph();
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe_graph(&g);
        let per_source = StreamConfig::default().cm_width * StreamConfig::default().cm_depth;
        assert!(stream.state_size() >= 4 * per_source);
        assert_eq!(stream.num_sources(), 4);
        assert!(stream.state_bytes() > stream.state_size());
    }

    #[test]
    fn self_loops_and_bad_weights_ignored() {
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.observe(n(1), n(1), 5.0);
        stream.observe(n(1), n(2), f64::NAN);
        stream.observe(n(1), n(2), -1.0);
        assert_eq!(stream.num_sources(), 0);
    }

    #[test]
    fn turnstile_insert_modify_retract_tracks_final_graph() {
        // Large sketches relative to the data → estimates are exact, so
        // the turnstile signatures must equal the exact TT signatures of
        // the *final* aggregate state.
        let mut stream =
            SemiStream::turnstile(StreamConfig::default(), SketchScheme::UnexpectedTalkers);
        // Window 1: host 0 talks to 10 (w 5) and 11 (w 2).
        stream.apply_change(n(0), n(10), None, Some(5.0));
        stream.apply_change(n(0), n(11), None, Some(2.0));
        // Window 2: 10 drops out, 11 grows, 12 appears.
        stream.apply_change(n(0), n(10), Some(5.0), None);
        stream.apply_change(n(0), n(11), Some(2.0), Some(6.0));
        stream.apply_change(n(0), n(12), None, Some(2.0));

        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(11), 6.0);
        b.add_event(n(0), n(12), 2.0);
        let g = b.build(13);
        let exact = TopTalkers.signature(&g, n(0), 5);
        let approx = stream.tt_signature(n(0), 5);
        assert!(!approx.contains(n(10)), "retracted edge still present");
        assert_eq!(exact.len(), approx.len());
        for (u, w) in exact.iter() {
            let aw = approx.get(u).expect("member present");
            assert!((aw - w).abs() < 1e-9, "member {u}");
        }
    }

    #[test]
    fn turnstile_trackers_follow_candidates() {
        let mut stream = SemiStream::turnstile(
            StreamConfig {
                candidate_budget: 2,
                ..StreamConfig::default()
            },
            SketchScheme::UnexpectedTalkers,
        );
        stream.apply_change(n(0), n(10), None, Some(1.0));
        stream.apply_change(n(0), n(11), None, Some(2.0));
        assert_eq!(stream.trackers_of(n(10)).collect::<Vec<_>>(), vec![n(0)]);
        // A heavier newcomer evicts the weakest candidate (10).
        stream.apply_change(n(0), n(12), None, Some(9.0));
        assert_eq!(stream.trackers_of(n(10)).count(), 0);
        assert_eq!(stream.trackers_of(n(12)).collect::<Vec<_>>(), vec![n(0)]);
        // Retraction unhooks the tracker too.
        stream.apply_change(n(0), n(12), Some(9.0), None);
        assert_eq!(stream.trackers_of(n(12)).count(), 0);
    }

    #[test]
    fn turnstile_in_degree_is_horizon_cumulative() {
        let mut stream =
            SemiStream::turnstile(StreamConfig::default(), SketchScheme::UnexpectedTalkers);
        assert!(stream.apply_change(n(1), n(50), None, Some(1.0)));
        // Same source again: the distinct count is provably unchanged.
        assert!(!stream.apply_change(n(1), n(50), Some(1.0), Some(2.0)));
        // Retraction does not shrink the horizon count.
        stream.apply_change(n(1), n(50), Some(2.0), None);
        assert!(stream.estimated_in_degree(n(50)).expect("UT stream") >= 1.0);
    }

    #[test]
    fn turnstile_tt_stream_keeps_no_in_degree_state() {
        let mut stream = SemiStream::turnstile(StreamConfig::default(), SketchScheme::TopTalkers);
        assert!(!stream.apply_change(n(1), n(50), None, Some(1.0)));
        assert!(!stream.apply_change(n(2), n(50), None, Some(1.0)));
        assert_eq!(stream.estimated_in_degree(n(50)), None);
        assert_eq!(stream.trackers_of(n(50)).count(), 0);
        let per_source = StreamConfig::default().cm_width * StreamConfig::default().cm_depth;
        assert_eq!(stream.state_size(), 2 * (per_source + 1));
        assert!(stream.tt_signature(n(1), 3).contains(n(50)));
    }

    #[test]
    #[should_panic(expected = "in-degree")]
    fn ut_signature_rejected_on_tt_turnstile_stream() {
        let mut stream = SemiStream::turnstile(StreamConfig::default(), SketchScheme::TopTalkers);
        stream.apply_change(n(1), n(50), None, Some(1.0));
        let _ = stream.ut_signature(n(1), 3);
    }

    #[test]
    #[should_panic(expected = "turnstile")]
    fn observe_rejected_on_turnstile_stream() {
        let mut stream =
            SemiStream::turnstile(StreamConfig::default(), SketchScheme::UnexpectedTalkers);
        stream.observe(n(1), n(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "turnstile")]
    fn apply_change_rejected_on_cash_register_stream() {
        let mut stream = SemiStream::new(StreamConfig::default());
        stream.apply_change(n(1), n(2), None, Some(1.0));
    }
}
