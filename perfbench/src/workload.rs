//! The benchmark's workloads and their seeded input generators.
//!
//! A workload is one event log plus the configuration `comsig` runs it
//! under. The log is a function of the workload and the seed alone and
//! is written in the tool's exchange format (`time src dst weight`, one
//! event per line, the window index as the time), so the system under
//! test receives nothing but the generated input.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use comsig_core::persist::fnv1a;
use comsig_datagen::flownet::{self, FlowNetConfig};
use comsig_graph::io::write_events;
use comsig_graph::{CommGraph, EdgeEvent, Interner};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// `--scheme` spec.
    pub scheme: &'static str,
    /// `--tier` name.
    pub tier: &'static str,
    /// Local (subject) hosts.
    pub locals: usize,
    /// External hosts.
    pub externals: usize,
    /// Windows in the log.
    pub windows: usize,
    /// Leading windows of the log that the serve session ingests.
    pub serve_windows: usize,
}

/// Event lines per `ingest` request of the serve session.
pub const INGEST_BATCH: usize = 1000;
/// `rank`/`signature` queries after each served window (3 rank : 1 signature).
pub const QUERIES_PER_WINDOW: usize = 24;
/// `top` of each `rank` query.
pub const RANK_TOP: usize = 10;

/// Every workload, in the order `BENCHMARK.json` lists them. Both run
/// on `comsig gen flow`-style enterprise flows: every local's edges are
/// redrawn every window, so every subject is dirty every window.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "flow_rwr",
        scheme: "rwr:h=3,c=0.1,undirected",
        tier: "exact",
        locals: 400,
        externals: 16_000,
        windows: 16,
        serve_windows: 4,
    },
    Workload {
        name: "flow_sketch",
        scheme: "tt",
        tier: "sketch",
        locals: 400,
        externals: 16_000,
        windows: 16,
        serve_windows: 4,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A generated event log.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Label space, in id order.
    pub interner: Interner,
    /// Events in log order.
    pub events: Vec<EdgeEvent>,
}

impl Generated {
    /// Distinct sources: the subject population `comsig` derives.
    #[must_use]
    pub fn subjects(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.src)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// The log in exchange format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        write_events(&mut buf, &self.interner, &self.events).expect("labels cover every event");
        buf
    }

    /// The smallest prefix-ordered subset of the log that interns every
    /// label in the same order and names every source: the serve
    /// session's `--seed-events`, which fixes its label space and
    /// subject population exactly as the full log would.
    #[must_use]
    pub fn seed_events(&self) -> Vec<EdgeEvent> {
        let mut seen = vec![false; self.interner.len()];
        let mut spoke = vec![false; self.interner.len()];
        let mut out = Vec::new();
        for &e in &self.events {
            let (s, d) = (e.src.index(), e.dst.index());
            if !seen[s] || !seen[d] || !spoke[s] {
                seen[s] = true;
                seen[d] = true;
                spoke[s] = true;
                out.push(e);
            }
        }
        out
    }
}

fn edges_as_events(g: &CommGraph, time: u64, out: &mut Vec<EdgeEvent>) {
    out.extend(g.edges().map(|e| EdgeEvent {
        time,
        src: e.src,
        dst: e.dst,
        weight: e.weight,
    }));
}

/// Generates a workload's log from `seed`.
#[must_use]
pub fn generate(w: &Workload, seed: u64) -> Generated {
    let cfg = FlowNetConfig {
        num_locals: w.locals,
        num_externals: w.externals,
        num_windows: w.windows,
        num_groups: 30,
        seed,
        ..FlowNetConfig::default()
    };
    let data = flownet::generate(&cfg);
    let mut events = Vec::new();
    for (t, g) in data.windows.iter().enumerate() {
        edges_as_events(g, t as u64, &mut events);
    }
    Generated {
        interner: data.interner,
        events,
    }
}

/// What `gen` reports about the files it wrote.
#[derive(Debug, Clone)]
pub struct Written {
    /// Events in the log.
    pub events: usize,
    /// Subject population.
    pub subjects: usize,
    /// Node space.
    pub nodes: usize,
    /// FNV-1a digest of the log bytes.
    pub digest: u64,
}

/// Writes `events.txt` (the log) and `seed.txt` (the serve label-space
/// seed) into `dir`.
///
/// # Errors
/// Propagates file-system failures.
pub fn write(w: &Workload, seed: u64, dir: &Path) -> std::io::Result<Written> {
    let generated = generate(w, seed);
    let bytes = generated.to_bytes();
    std::fs::write(dir.join("events.txt"), &bytes)?;
    let mut seed_file = BufWriter::new(File::create(dir.join("seed.txt"))?);
    write_events(
        &mut seed_file,
        &generated.interner,
        &generated.seed_events(),
    )
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    seed_file.flush()?;
    Ok(Written {
        events: generated.events.len(),
        subjects: generated.subjects(),
        nodes: generated.interner.len(),
        digest: fnv1a(&bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload at test scale, generated by the same code path.
    fn small(name: &str) -> Workload {
        let w = by_name(name).expect("known workload");
        Workload {
            locals: w.locals / 4,
            externals: w.externals / 4,
            windows: 5,
            ..w
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_input() {
        for w in WORKLOADS.iter().map(|w| small(w.name)) {
            let a = fnv1a(&generate(&w, 7).to_bytes());
            let b = fnv1a(&generate(&w, 7).to_bytes());
            let c = fnv1a(&generate(&w, 8).to_bytes());
            assert_eq!(a, b, "{}: same seed, different input", w.name);
            assert_ne!(a, c, "{}: seed ignored", w.name);
        }
    }

    #[test]
    fn seed_events_fix_the_full_label_space() {
        let g = generate(&small("flow_rwr"), 3);
        let seed = g.seed_events();
        let mut from_seed = Interner::new();
        let mut from_log = Interner::new();
        for (events, interner) in [(&seed, &mut from_seed), (&g.events, &mut from_log)] {
            for e in events.iter() {
                interner.intern(g.interner.label(e.src).unwrap());
                interner.intern(g.interner.label(e.dst).unwrap());
            }
        }
        assert_eq!(from_seed.len(), from_log.len());
        for i in 0..from_log.len() {
            let id = comsig_graph::NodeId::new(i);
            assert_eq!(from_seed.label(id), from_log.label(id));
        }
        let sources = |ev: &[EdgeEvent]| ev.iter().map(|e| e.src).collect::<BTreeSet<_>>();
        assert_eq!(sources(&seed), sources(&g.events));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads array")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
    }
}
