//! Snapshot codec: one atomic file capturing the full service state.
//!
//! A snapshot is written with [`persist::write_atomic`] (write `.tmp`,
//! fsync, rename), so `snapshot.bin` is always either absent, the
//! previous complete snapshot, or the new complete snapshot — a crash
//! mid-write leaves at worst a stale `.tmp` sibling that the next
//! rotation overwrites. The body carries the config stamp, the frozen
//! label space, the complete windower state, the tier-specific durable
//! state — **exact**: the graph, both signature buffers and the
//! physical index layout (patched layouts are history-dependent; a cold
//! rebuild would not be bit-identical); **sketch**: the tier's complete
//! sketch state (which embeds the current signatures) plus the previous
//! signature buffer, while the LSH index is *derived* from signatures
//! and config at resume, never persisted — the counters, the
//! query-visible residue of the last advance, the WAL epoch this
//! snapshot supersedes, and the state digest at capture — which
//! decoding recomputes and verifies.

use std::path::{Path, PathBuf};

use comsig_apps::anomaly::AnomalyScore;
use comsig_apps::stream::{SketchMasquerade, StreamingMasquerade};
use comsig_core::persist::{self, Dec, Enc};
use comsig_core::pipeline::DeltaScheme;
use comsig_eval::index::{IndexLayout, PostingsIndex};
use comsig_graph::{Interner, NodeId, SlidingWindower};
use comsig_sketch::tier::SketchTier;

use crate::config::{ServeConfig, ServeError};
use crate::state::{detector_config, plan_of, LastWindow, LiveState, TierDetector};

/// Magic line of the snapshot container (v2: tier-tagged body).
pub const SNAPSHOT_MAGIC: &str = "comsig-serve-snapshot v2";

/// The snapshot path inside a data directory.
#[must_use]
pub fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

/// The WAL path for an epoch inside a data directory.
#[must_use]
pub fn wal_file(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal.{epoch}.log"))
}

fn node(raw: u32) -> NodeId {
    NodeId::new(raw as usize)
}

/// Decoded tier-specific snapshot state, before detector reassembly.
enum TierState {
    Exact {
        graph: comsig_graph::CommGraph,
        current: comsig_core::SignatureSet,
        prev: comsig_core::SignatureSet,
        layout: IndexLayout,
    },
    Sketch {
        tier: SketchTier,
        prev: comsig_core::SignatureSet,
    },
}

/// Encodes the snapshot body for `live`, superseding WAL epochs below
/// `wal_epoch` (the epoch the daemon switches to after the snapshot
/// lands).
#[must_use]
pub fn encode_snapshot(config: &ServeConfig, live: &LiveState<'_>, wal_epoch: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    config.stamp(&mut enc);
    enc.len(live.interner.len());
    for (_, label) in live.interner.iter() {
        enc.str(label);
    }
    enc.len(live.subjects.len());
    for &s in &live.subjects {
        enc.u32(s.raw());
    }
    persist::encode_windower(&mut enc, &live.windower.export_state());
    match &live.det {
        TierDetector::Exact(det) => {
            enc.u8(0);
            persist::encode_graph(&mut enc, det.tier().graph());
            persist::encode_signature_set(&mut enc, det.tier().signatures());
            persist::encode_signature_set(&mut enc, det.prev_signatures());
            let layout = det.matcher().export_layout();
            enc.len(layout.members.len());
            for &(u, slot) in &layout.members {
                enc.u32(u.raw());
                enc.u32(slot);
            }
            enc.len(layout.postings.len());
            for list in &layout.postings {
                enc.len(list.len());
                for &(pos, w) in list {
                    enc.u32(pos);
                    enc.f64(w);
                }
            }
        }
        TierDetector::Sketch(det) => {
            enc.u8(1);
            det.tier().encode_state(&mut enc);
            persist::encode_signature_set(&mut enc, det.prev_signatures());
        }
    }
    enc.u64(live.windows);
    enc.u64(live.ingested_events);
    match &live.last {
        None => enc.u8(0),
        Some(last) => {
            enc.u8(1);
            enc.u64(last.start);
            enc.u64(last.end);
            enc.u64(last.changed_edges);
            enc.u64(last.dirty);
            enc.u64(last.non_suspects);
            enc.f64(last.delta);
            enc.len(last.detected.len());
            for &(v, u) in &last.detected {
                enc.u32(v.raw());
                enc.u32(u.raw());
            }
            enc.len(last.scores.len());
            for s in &last.scores {
                enc.u32(s.node.raw());
                enc.f64(s.score);
            }
        }
    }
    enc.u64(wal_epoch);
    enc.u64(live.state_digest());
    enc.into_bytes()
}

/// Decodes a snapshot body back into a live state plus the WAL epoch to
/// replay, verifying the config stamp and the captured state digest.
///
/// # Errors
/// [`ServeError::Config`] on a stamp mismatch, [`ServeError::Corrupt`]
/// on undecodable or internally inconsistent state (including a digest
/// that does not reproduce).
pub fn decode_snapshot<'a>(
    scheme: &'a dyn DeltaScheme,
    config: &ServeConfig,
    body: &[u8],
) -> Result<(LiveState<'a>, u64), ServeError> {
    let mut dec = Dec::new(body);
    config.check_stamp(&mut dec)?;
    let n = dec.seq_len(8, "snapshot.labels")?;
    let mut interner = Interner::with_capacity(n);
    for i in 0..n {
        let label = dec.str("snapshot.label")?;
        let id = interner.intern(&label);
        if id.index() != i {
            return Err(ServeError::Corrupt(format!(
                "duplicate label `{label}` in snapshot"
            )));
        }
    }
    let n = dec.seq_len(4, "snapshot.subjects")?;
    let mut subjects = Vec::with_capacity(n);
    for _ in 0..n {
        subjects.push(node(dec.u32("snapshot.subject")?));
    }
    let windower_state = persist::decode_windower(&mut dec)?;
    let windower = SlidingWindower::from_state(windower_state).map_err(ServeError::Corrupt)?;
    let tier_tag = dec.u8("snapshot.tier")?;
    let want_tag = u8::from(config.is_sketch());
    if tier_tag != want_tag {
        // The stamp already pins the tier; a disagreeing body tag means
        // the file itself is inconsistent, not merely misconfigured.
        return Err(ServeError::Corrupt(format!(
            "snapshot tier tag {tier_tag} contradicts the stamped `{}` tier",
            config.tier.name()
        )));
    }
    let tier_state = match tier_tag {
        0 => {
            let graph = persist::decode_graph(&mut dec)?;
            let current = persist::decode_signature_set(&mut dec)?;
            let prev = persist::decode_signature_set(&mut dec)?;
            let n = dec.seq_len(8, "snapshot.layout.members")?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                let u = node(dec.u32("layout.member")?);
                let slot = dec.u32("layout.slot")?;
                members.push((u, slot));
            }
            let n = dec.seq_len(8, "snapshot.layout.postings")?;
            let mut postings = Vec::with_capacity(n);
            for _ in 0..n {
                let m = dec.seq_len(12, "layout.posting_list")?;
                let mut list = Vec::with_capacity(m);
                for _ in 0..m {
                    let pos = dec.u32("posting.pos")?;
                    let w = dec.f64("posting.weight")?;
                    list.push((pos, w));
                }
                postings.push(list);
            }
            TierState::Exact {
                graph,
                current,
                prev,
                layout: IndexLayout { members, postings },
            }
        }
        _ => {
            let tier = SketchTier::decode_state(&mut dec)?;
            let prev = persist::decode_signature_set(&mut dec)?;
            if tier.k() != config.k
                || tier.stream().config() != config.sketch
                || tier.scheme() != config.sketch_scheme()?
            {
                return Err(ServeError::Corrupt(
                    "snapshot sketch state disagrees with the stamped configuration".to_owned(),
                ));
            }
            TierState::Sketch { tier, prev }
        }
    };
    let windows = dec.u64("snapshot.windows")?;
    let ingested_events = dec.u64("snapshot.ingested_events")?;
    let last = match dec.u8("snapshot.last.tag")? {
        0 => None,
        1 => {
            let start = dec.u64("last.start")?;
            let end = dec.u64("last.end")?;
            let changed_edges = dec.u64("last.changed_edges")?;
            let dirty = dec.u64("last.dirty")?;
            let non_suspects = dec.u64("last.non_suspects")?;
            let delta = dec.f64("last.delta")?;
            let n = dec.seq_len(8, "last.detected")?;
            let mut detected = Vec::with_capacity(n);
            for _ in 0..n {
                let v = node(dec.u32("detected.suspect")?);
                let u = node(dec.u32("detected.match")?);
                detected.push((v, u));
            }
            let n = dec.seq_len(12, "last.scores")?;
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                let node = node(dec.u32("score.node")?);
                let score = dec.f64("score.score")?;
                scores.push(AnomalyScore { node, score });
            }
            Some(LastWindow {
                start,
                end,
                changed_edges,
                dirty,
                non_suspects,
                delta,
                detected,
                scores,
            })
        }
        tag => {
            return Err(ServeError::Corrupt(format!(
                "bad last-window tag {tag} in snapshot"
            )))
        }
    };
    let wal_epoch = dec.u64("snapshot.wal_epoch")?;
    let stored_digest = dec.u64("snapshot.digest")?;
    dec.finish("snapshot")?;

    let det = match tier_state {
        TierState::Exact {
            graph,
            current,
            prev,
            layout,
        } => {
            let index =
                PostingsIndex::from_layout(current.clone(), layout).map_err(ServeError::Corrupt)?;
            TierDetector::Exact(Box::new(
                StreamingMasquerade::resume_exact(
                    scheme,
                    graph,
                    current,
                    prev,
                    index,
                    detector_config(config),
                    plan_of(config),
                )
                .map_err(ServeError::Corrupt)?,
            ))
        }
        TierState::Sketch { tier, prev } => TierDetector::Sketch(Box::new(
            SketchMasquerade::resume_sketch(
                tier,
                prev,
                detector_config(config),
                config.ann,
                plan_of(config),
            )
            .map_err(ServeError::Corrupt)?,
        )),
    };
    let live = LiveState {
        interner,
        subjects,
        windower,
        det,
        windows,
        ingested_events,
        last,
    };
    let digest = live.state_digest();
    if digest != stored_digest {
        return Err(ServeError::Corrupt(format!(
            "snapshot state digest mismatch: stored {stored_digest:016x}, rebuilt {digest:016x}"
        )));
    }
    Ok((live, wal_epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;
    use comsig_graph::EdgeEvent;

    use crate::config::TierSpec;
    use crate::state::subject_sources;

    fn build_live<'a>(scheme: &'a TopTalkers, config: &ServeConfig) -> LiveState<'a> {
        let mut interner = Interner::new();
        let mut events = Vec::new();
        for t in 0..30u64 {
            let src = interner.intern(&format!("h{}", t % 5));
            let dst = interner.intern(&format!("h{}", (t + 2) % 7));
            if src != dst {
                events.push(EdgeEvent {
                    time: t,
                    src,
                    dst,
                    weight: 1.0 + (t % 4) as f64,
                });
            }
        }
        let subjects = subject_sources(&events);
        let mut live = LiveState::genesis(scheme, config, interner, subjects).unwrap();
        live.push_events(&events);
        let _ = live.advance_once(&SHel);
        let _ = live.advance_once(&SHel);
        live
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            width: 10,
            slide: 10,
            k: 4,
            ..ServeConfig::default()
        }
    }

    fn sketch_config() -> ServeConfig {
        ServeConfig {
            tier: TierSpec::Sketch,
            ..test_config()
        }
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let scheme = TopTalkers;
        let config = test_config();
        let live = build_live(&scheme, &config);
        let body = encode_snapshot(&config, &live, 7);
        let (back, epoch) = decode_snapshot(&scheme, &config, &body).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(back.state_digest(), live.state_digest());
        assert_eq!(back.last, live.last);
        assert_eq!(
            back.det.exact().unwrap().matcher().layout_digest(),
            live.det.exact().unwrap().matcher().layout_digest()
        );
        // Re-encoding must be byte-equal — the snapshot codec is
        // deterministic.
        assert_eq!(encode_snapshot(&config, &back, 7), body);
    }

    #[test]
    fn sketch_snapshot_round_trips_bit_identically() {
        let scheme = TopTalkers;
        let config = sketch_config();
        let live = build_live(&scheme, &config);
        assert_eq!(live.det.tier_name(), "sketch");
        let body = encode_snapshot(&config, &live, 3);
        let (back, epoch) = decode_snapshot(&scheme, &config, &body).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(back.state_digest(), live.state_digest());
        assert_eq!(back.last, live.last);
        assert_eq!(encode_snapshot(&config, &back, 3), body);
        // The rebuilt ANN matcher must carry the same candidates (it is
        // derived from signatures, not persisted).
        assert_eq!(
            back.det.sketch().unwrap().matcher().len(),
            live.det.sketch().unwrap().matcher().len()
        );
    }

    #[test]
    fn sketch_snapshot_rejects_tier_and_sizing_drift() {
        let scheme = TopTalkers;
        let config = sketch_config();
        let live = build_live(&scheme, &config);
        let body = encode_snapshot(&config, &live, 1);
        // Reopening a sketch data dir under the exact tier is a config
        // error, not silent reinterpretation.
        assert!(matches!(
            decode_snapshot(&scheme, &test_config(), &body),
            Err(ServeError::Config(_))
        ));
        // Resizing the sketches invalidates the state: stamped.
        let resized = ServeConfig {
            sketch: comsig_sketch::stream::StreamConfig {
                cm_width: 256,
                ..config.sketch
            },
            ..config.clone()
        };
        assert!(matches!(
            decode_snapshot(&scheme, &resized, &body),
            Err(ServeError::Config(_))
        ));
        // Re-banding the LSH front moves the recall contract: stamped.
        let rebanded = ServeConfig {
            ann: comsig_eval::ann::AnnConfig {
                bands: 8,
                rows: 2,
                ..config.ann
            },
            ..config.clone()
        };
        assert!(matches!(
            decode_snapshot(&scheme, &rebanded, &body),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn snapshot_rejects_config_drift_and_corruption() {
        let scheme = TopTalkers;
        let config = test_config();
        let live = build_live(&scheme, &config);
        let body = encode_snapshot(&config, &live, 1);
        let other = ServeConfig {
            k: 9,
            ..test_config()
        };
        assert!(matches!(
            decode_snapshot(&scheme, &other, &body),
            Err(ServeError::Config(_))
        ));
        // Truncations decode as typed corruption, never panics.
        for cut in [3, body.len() / 3, body.len() / 2, body.len() - 5] {
            assert!(matches!(
                decode_snapshot(&scheme, &config, &body[..cut]),
                Err(ServeError::Corrupt(_))
            ));
        }
        // A flipped byte in the middle must be caught by structural
        // validation or the recomputed digest.
        let mut flipped = body.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(decode_snapshot(&scheme, &config, &flipped).is_err());
    }
}
