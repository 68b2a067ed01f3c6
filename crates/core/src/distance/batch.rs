//! Batch distance kernels: the scalars + intersection decomposition.
//!
//! Signatures are top-`k` sparse sets (`k = 10` in the paper), so in an
//! all-pairs or ranking sweep almost every pair is *disjoint* and scores
//! distance exactly 1. An inverted index (`comsig_eval::index`) can
//! therefore skip the non-overlapping pairs entirely — but only if every
//! distance is computable from
//!
//! 1. **per-signature scalars** ([`SigScalars`]: `|S|`, `Σw`, `Σw²`) that
//!    are precomputed once per candidate, and
//! 2. **intersection statistics** ([`InterAcc`]) accumulated over the
//!    shared members only, in ascending node-id order.
//!
//! [`BatchDistance`] is that decomposition: [`accumulate`]
//! (per shared member) plus [`finish`] (combine with the scalars). Every
//! implemented distance provides it, and — crucially — the plain
//! pairwise [`distance_raw`](super::SignatureDistance::distance_raw) of
//! each distance is implemented *through* [`merge_score`], which runs the
//! identical `accumulate`/`finish` arithmetic over the `O(k)` merge-join.
//! Brute-force matching and index-backed matching therefore produce
//! **bit-identical** `f64`s: same terms, same order, same rounding.
//!
//! [`accumulate`]: BatchDistance::accumulate
//! [`finish`]: BatchDistance::finish

use super::SignatureDistance;
use crate::signature::Signature;

/// Per-signature scalars sufficient (together with [`InterAcc`]) to
/// evaluate every implemented distance: member count, weight sum and
/// squared-weight sum, each accumulated left-to-right over the
/// signature's id-sorted entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigScalars {
    /// `|S|` — number of signature members.
    pub len: usize,
    /// `Σ w` over the members, in entry (ascending node id) order.
    pub weight_sum: f64,
    /// `Σ w²` over the members, in entry order.
    pub sq_sum: f64,
}

impl SigScalars {
    /// Computes the scalars of one signature. The summation order (the
    /// signature's own entry order) is part of the bit-identity contract
    /// between the brute-force and index-backed matchers.
    #[must_use]
    pub fn of(sig: &Signature) -> SigScalars {
        let mut weight_sum = 0.0;
        let mut sq_sum = 0.0;
        for (_, w) in sig.iter() {
            weight_sum += w;
            sq_sum += w * w;
        }
        SigScalars {
            len: sig.len(),
            weight_sum,
            sq_sum,
        }
    }

    /// Whether the underlying signature was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Intersection statistics for one `(query, candidate)` pair: the number
/// of shared members plus two distance-specific sums (see
/// [`BatchDistance::accumulate`]), each accumulated over the shared
/// members in ascending node-id order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterAcc {
    /// `|S₁ ∩ S₂|` — number of shared members.
    pub count: usize,
    /// First distance-specific sum (e.g. `Σ min(w₁, w₂)`).
    pub a: f64,
    /// Second distance-specific sum (e.g. `Σ √(w₁·w₂)`); 0 for
    /// distances that need only one.
    pub b: f64,
}

impl InterAcc {
    /// An empty accumulator (the state of every disjoint pair).
    #[must_use]
    pub fn new() -> InterAcc {
        InterAcc::default()
    }

    /// Folds one shared member's [`accumulate`](BatchDistance::accumulate)
    /// contribution into the sums.
    #[inline]
    pub fn push(&mut self, (a, b): (f64, f64)) {
        self.count += 1;
        self.a += a;
        self.b += b;
    }
}

/// A distance expressible as per-signature scalars plus intersection
/// sums — the contract the inverted-index matcher needs to score a query
/// against only the candidates it overlaps, while every skipped
/// (disjoint) candidate is emitted as distance exactly 1.
///
/// Implementations must satisfy, for non-empty `σ₁, σ₂`:
///
/// * `finish(s₁, s₂, ∅) == 1.0` **exactly** — the disjoint shortcut;
/// * `distance_raw(σ₁, σ₂)` equals `finish` over the merge-join
///   bit-for-bit (guaranteed by implementing `distance_raw` via
///   [`merge_score`]).
///
/// The provided methods [`accumulate_list`] and [`finish_touched`] are
/// the index matcher's kernels. They are *provided* deliberately: a
/// default trait body is instantiated once per implementing type, so a
/// single `dyn BatchDistance` dispatch per posting list (or per scoring
/// epilogue) lands in a monomorphized loop whose inner
/// `accumulate`/`finish` calls are static and inlinable — instead of one
/// virtual call per posting entry.
///
/// [`accumulate_list`]: BatchDistance::accumulate_list
/// [`finish_touched`]: BatchDistance::finish_touched
pub trait BatchDistance: SignatureDistance {
    /// The contribution of one shared member with weights `(wq, wc)` to
    /// the two intersection sums. Called in ascending node-id order of
    /// the shared members.
    #[must_use]
    fn accumulate(&self, wq: f64, wc: f64) -> (f64, f64);

    /// Combines the precomputed scalars of both signatures with the
    /// intersection sums into the distance. Must not be called for
    /// empty signatures (the shared empty-signature rule runs first on
    /// both matching paths).
    #[must_use]
    fn finish(&self, q: &SigScalars, c: &SigScalars, inter: &InterAcc) -> f64;

    /// Sweeps one posting list for one query member of weight `wq`,
    /// folding every `(candidate position, candidate weight)` entry into
    /// `ws`. Entries are processed in 4-wide lane chunks: the four pure
    /// `accumulate` contributions of a chunk are computed first (a
    /// branch-free strip the autovectorizer can keep in registers), then
    /// applied in entry order — so the per-candidate fold sequence, and
    /// with it the bit-identity to the brute-force merge-join, is
    /// exactly that of a scalar entry-by-entry loop.
    fn accumulate_list(&self, wq: f64, postings: &[(u32, f64)], ws: &mut MatchWorkspace) {
        let mut chunks = postings.chunks_exact(4);
        for lane in &mut chunks {
            let c0 = self.accumulate(wq, lane[0].1);
            let c1 = self.accumulate(wq, lane[1].1);
            let c2 = self.accumulate(wq, lane[2].1);
            let c3 = self.accumulate(wq, lane[3].1);
            ws.add(lane[0].0, c0);
            ws.add(lane[1].0, c1);
            ws.add(lane[2].0, c2);
            ws.add(lane[3].0, c3);
        }
        for &(pos, wc) in chunks.remainder() {
            ws.add(pos, self.accumulate(wq, wc));
        }
    }

    /// Batched scoring epilogue: finishes every candidate touched in
    /// `ws` this epoch against its precomputed scalars, pushing
    /// `(position, distance)` pairs onto `out` in first-touch order.
    /// One virtual dispatch covers the whole epilogue; the per-candidate
    /// `finish` calls inside are static.
    fn finish_touched(
        &self,
        q: &SigScalars,
        scalars: &[SigScalars],
        ws: &MatchWorkspace,
        out: &mut Vec<(u32, f64)>,
    ) {
        for &p in ws.touched() {
            out.push((p, self.finish(q, &scalars[p as usize], &ws.inter(p))));
        }
    }
}

/// The shared brute-force evaluation: scalars of both sides, one `O(k)`
/// merge-join accumulating the intersection sums in ascending node-id
/// order, then [`BatchDistance::finish`]. Every `distance_raw` delegates
/// here (after the empty rule), so the reference path and the
/// index-backed path are the same arithmetic by construction.
#[must_use]
pub fn merge_score<D: BatchDistance + ?Sized>(dist: &D, a: &Signature, b: &Signature) -> f64 {
    let qs = SigScalars::of(a);
    let cs = SigScalars::of(b);
    let mut inter = InterAcc::new();
    for (_, w1, w2) in a.union_weights(b) {
        if w1 > 0.0 && w2 > 0.0 {
            inter.push(dist.accumulate(w1, w2));
        }
    }
    dist.finish(&qs, &cs, &inter)
}

/// Reusable per-worker accumulation state for index sweeps: dense
/// per-candidate [`InterAcc`] slots with an epoch stamp per slot and a
/// touched list — the same sparse-accumulator pattern as
/// `comsig_core::engine::DenseScatter`, keyed by candidate position
/// instead of node id. Lives here (rather than in `comsig_eval`) so the
/// [`BatchDistance`] kernels can sweep it without a per-entry virtual
/// call; `comsig_eval::index` re-exports it.
#[derive(Debug, Default)]
pub struct MatchWorkspace {
    count: Vec<u32>,
    acc_a: Vec<f64>,
    acc_b: Vec<f64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    epoch: u32,
    scored: Vec<(u32, f64)>,
}

impl MatchWorkspace {
    /// An empty workspace; slots are allocated by the first
    /// [`begin`](MatchWorkspace::begin).
    #[must_use]
    pub fn new() -> MatchWorkspace {
        MatchWorkspace::default()
    }

    /// Starts a new accumulation over candidate positions `0..n`,
    /// logically clearing all slots in O(1) via an epoch bump.
    pub fn begin(&mut self, n: usize) {
        if self.count.len() < n {
            self.count.resize(n, 0);
            self.acc_a.resize(n, 0.0);
            self.acc_b.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so pay one O(n)
            // reset every 2^32 generations.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Folds one shared-member contribution into candidate `pos`,
    /// registering the slot as touched on first use this epoch.
    #[inline]
    pub fn add(&mut self, pos: u32, (a, b): (f64, f64)) {
        let i = pos as usize;
        if self.stamp[i] == self.epoch {
            self.count[i] += 1;
            self.acc_a[i] += a;
            self.acc_b[i] += b;
        } else {
            self.stamp[i] = self.epoch;
            self.count[i] = 1;
            self.acc_a[i] = a;
            self.acc_b[i] = b;
            self.touched.push(pos);
        }
    }

    /// Whether candidate `pos` shares at least one member with the
    /// query swept this epoch.
    #[inline]
    #[must_use]
    pub fn is_touched(&self, pos: u32) -> bool {
        self.stamp[pos as usize] == self.epoch
    }

    /// The intersection statistics of candidate `pos` this epoch.
    /// Meaningless (zeroed or stale) unless
    /// [`is_touched`](MatchWorkspace::is_touched).
    #[inline]
    #[must_use]
    pub fn inter(&self, pos: u32) -> InterAcc {
        let i = pos as usize;
        InterAcc {
            count: self.count[i] as usize,
            a: self.acc_a[i],
            b: self.acc_b[i],
        }
    }

    /// Candidate positions touched this epoch, in first-touch order.
    #[must_use]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Detaches the workspace-owned `(position, distance)` scoring
    /// scratch, cleared and ready to fill. Return it with
    /// [`put_scored`](MatchWorkspace::put_scored) after use so the
    /// allocation is reused across queries. (Detaching sidesteps the
    /// aliasing conflict between `&self` sweep reads and `&mut` pushes.)
    #[must_use]
    pub fn take_scored(&mut self) -> Vec<(u32, f64)> {
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        scored
    }

    /// Returns the scoring scratch taken by
    /// [`take_scored`](MatchWorkspace::take_scored), keeping its
    /// capacity for the next query.
    pub fn put_scored(&mut self, scored: Vec<(u32, f64)>) {
        self.scored = scored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::all_distances;
    use comsig_graph::NodeId;

    fn sig(pairs: &[(usize, f64)]) -> Signature {
        Signature::top_k(
            NodeId::new(999_999),
            pairs.iter().map(|&(i, w)| (NodeId::new(i), w)),
            pairs.len().max(1),
        )
    }

    #[test]
    fn scalars_of_signature() {
        let s = SigScalars::of(&sig(&[(1, 2.0), (2, 3.0)]));
        assert_eq!(s.len, 2);
        assert!((s.weight_sum - 5.0).abs() < 1e-15);
        assert!((s.sq_sum - 13.0).abs() < 1e-15);
        assert!(SigScalars::of(&Signature::empty()).is_empty());
    }

    #[test]
    fn disjoint_shortcut_is_exactly_one_for_every_distance() {
        // The index never visits a candidate sharing no member with the
        // query and emits literal 1.0 instead; `finish` over an empty
        // intersection must agree exactly for every kernel.
        let a = sig(&[(1, 0.25), (2, 7.5)]);
        let b = sig(&[(3, 1e-9), (4, 3e12), (5, 0.125)]);
        for d in all_distances() {
            let via_finish = d.finish(&SigScalars::of(&a), &SigScalars::of(&b), &InterAcc::new());
            assert_eq!(via_finish.to_bits(), 1.0f64.to_bits(), "{}", d.name());
            assert_eq!(
                d.distance(&a, &b).to_bits(),
                1.0f64.to_bits(),
                "{}",
                d.name()
            );
        }
    }

    #[test]
    fn accumulate_list_matches_scalar_adds_at_every_remainder() {
        // The 4-lane chunked posting sweep must be bit-identical to the
        // scalar entry-order loop at every length mod 4 — including the
        // touch order the scoring epilogue iterates in.
        for d in all_distances() {
            for len in 0..=9usize {
                let postings: Vec<(u32, f64)> = (0..len)
                    .map(|i| ((i as u32 * 7) % 13, 0.125 + i as f64 * 0.375))
                    .collect();
                let wq = 0.625;
                let mut blocked = MatchWorkspace::new();
                blocked.begin(16);
                d.accumulate_list(wq, &postings, &mut blocked);
                let mut scalar = MatchWorkspace::new();
                scalar.begin(16);
                for &(pos, wc) in &postings {
                    scalar.add(pos, d.accumulate(wq, wc));
                }
                assert_eq!(
                    blocked.touched(),
                    scalar.touched(),
                    "{} len {len}",
                    d.name()
                );
                for &p in blocked.touched() {
                    let a = blocked.inter(p);
                    let b = scalar.inter(p);
                    assert_eq!(a.count, b.count, "{} len {len} pos {p}", d.name());
                    assert_eq!(
                        a.a.to_bits(),
                        b.a.to_bits(),
                        "{} len {len} pos {p}",
                        d.name()
                    );
                    assert_eq!(
                        a.b.to_bits(),
                        b.b.to_bits(),
                        "{} len {len} pos {p}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn merge_score_is_distance_raw_for_every_distance() {
        let cases = [
            (
                sig(&[(1, 0.5), (2, 0.3), (9, 4.0)]),
                sig(&[(2, 0.7), (9, 0.1)]),
            ),
            (sig(&[(1, 1.0)]), sig(&[(1, 1.0)])),
            (sig(&[(3, 2.0), (4, 2.0)]), sig(&[(3, 2.0), (5, 1.0)])),
        ];
        for d in all_distances() {
            for (a, b) in &cases {
                assert_eq!(
                    d.distance_raw(a, b).to_bits(),
                    merge_score(d.as_ref(), a, b).to_bits(),
                    "{}",
                    d.name()
                );
            }
        }
    }
}
