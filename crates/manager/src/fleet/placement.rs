//! Placement: routing an admitted job to one device of the fleet.
//!
//! Placement decisions happen at dispatch time, before any device has
//! simulated a cycle, so the router scores devices against a
//! deterministic *residency model*: a per-device LRU set over the
//! configuration sequences of the jobs already routed there, with
//! capacity equal to the device's RU count. The model is the dispatch
//! plane's view of "what will be resident" — the same design-time
//! information the paper's replacement module exploits inside one
//! device, lifted to cluster scope.
//!
//! The fleet routes on a dense model, [`DenseResidency`]: each
//! template's configurations are interned once to dense indices, so a
//! device's score is one membership lookup per configuration.
//! [`ResidencyModel`] states the same LRU rule over raw
//! [`ConfigId`]s and shares no code with it. Every decision is recorded
//! (when enabled) with the *full* per-device score vector, and the
//! `placement-residency` checker replays those decisions with
//! [`ResidencyModel`] to confirm the claimed overlap actually existed
//! at decision time.

use crate::job::{JobSpec, TenantId};
use rtr_sim::SimDuration;
use rtr_taskgraph::{reconfiguration_sequence, ConfigId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The pluggable placement policies the fleet knows by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Cycle through the devices in submission order.
    RoundRobin,
    /// Route to the device with the least design-time work queued,
    /// ties to the lowest index.
    LeastLoaded,
    /// The headline router: route to the device whose residency model
    /// overlaps the job's configuration sequence the most — the
    /// paper's reuse insight at cluster scope. Ties fall back to the
    /// least-loaded device, so an overlap-free fleet degrades to load
    /// balancing instead of pile-up.
    ReuseAffinity,
}

impl PlacementKind {
    /// All placement policies, in sweep order.
    pub const ALL: [PlacementKind; 3] = [
        PlacementKind::RoundRobin,
        PlacementKind::LeastLoaded,
        PlacementKind::ReuseAffinity,
    ];

    /// Stable kebab-case label (tables, CSV, JSON round-trips).
    pub fn label(&self) -> &'static str {
        match self {
            PlacementKind::RoundRobin => "round-robin",
            PlacementKind::LeastLoaded => "least-loaded",
            PlacementKind::ReuseAffinity => "reuse-affinity",
        }
    }

    /// Parses a [`Self::label`] back to the kind.
    pub fn from_label(s: &str) -> Option<PlacementKind> {
        PlacementKind::ALL.iter().copied().find(|k| k.label() == s)
    }

    /// Builds the policy implementation for this kind.
    pub fn build(&self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementKind::RoundRobin => Box::new(RoundRobin::default()),
            PlacementKind::LeastLoaded => Box::new(LeastLoaded),
            PlacementKind::ReuseAffinity => Box::new(ReuseAffinity),
        }
    }
}

impl Serialize for PlacementKind {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for PlacementKind {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = String::deserialize(v)?;
        PlacementKind::from_label(&s)
            .ok_or_else(|| serde::Error::msg(format!("unknown placement policy '{s}'")))
    }
}

/// What one device looks like to the router at decision time. All
/// fields derive from dispatch-plane bookkeeping only — no device has
/// simulated anything yet when placement runs. The router receives one
/// view per device, in device order.
#[derive(Debug, Clone, Copy)]
pub struct DeviceView {
    /// Summed design-time execution work already routed there.
    pub queued_work: SimDuration,
    /// Distinct configurations of the arriving job's cfg-sequence
    /// present in the device's residency model.
    pub overlap: u32,
}

/// A deterministic device router. `place` must be a pure function of
/// the views (plus internal counters seeded at construction): the
/// whole fleet contract is replayability.
pub trait PlacementPolicy: Send {
    /// Stable name (matches the [`PlacementKind`] label).
    fn name(&self) -> &'static str;
    /// Picks the device for `job`: the position of its view in `views`
    /// (never empty), which is the device index.
    fn place(&mut self, job: &JobSpec, views: &[DeviceView]) -> usize;
}

/// Cycle through devices in dispatch order.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        PlacementKind::RoundRobin.label()
    }
    fn place(&mut self, _job: &JobSpec, views: &[DeviceView]) -> usize {
        let idx = self.next % views.len();
        self.next = self.next.wrapping_add(1);
        idx
    }
}

/// Route to the device with the least queued design-time work.
#[derive(Debug)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        PlacementKind::LeastLoaded.label()
    }
    fn place(&mut self, _job: &JobSpec, views: &[DeviceView]) -> usize {
        // `min_by_key` keeps the first of equal keys: the lowest index.
        views
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| v.queued_work)
            .map_or(0, |(i, _)| i)
    }
}

/// Route to the device with the highest residency overlap; ties fall
/// back to least-loaded.
#[derive(Debug)]
pub struct ReuseAffinity;

impl PlacementPolicy for ReuseAffinity {
    fn name(&self) -> &'static str {
        PlacementKind::ReuseAffinity.label()
    }
    fn place(&mut self, _job: &JobSpec, views: &[DeviceView]) -> usize {
        // Highest overlap, then least queued work, then lowest index.
        views
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| (Reverse(v.overlap), v.queued_work))
            .map_or(0, |(i, _)| i)
    }
}

/// The reference model of one device's residency: an LRU set of
/// configurations with capacity equal to the device's usable RU count.
/// The fleet routes on a dense model of its own; the
/// `placement-residency` checker replays recorded decisions with this
/// model, independently of the fleet that made them.
#[derive(Debug, Clone)]
pub struct ResidencyModel {
    capacity: usize,
    /// LRU order, least recent first.
    resident: Vec<ConfigId>,
}

impl ResidencyModel {
    /// An empty model for a device with `capacity` RUs.
    pub fn new(capacity: usize) -> Self {
        ResidencyModel {
            capacity,
            resident: Vec::with_capacity(capacity),
        }
    }

    /// Distinct configurations of `seq` present in the model.
    pub fn overlap(&self, seq: &[ConfigId]) -> u32 {
        let mut n = 0u32;
        for (i, c) in seq.iter().enumerate() {
            if seq[..i].contains(c) {
                continue; // count each distinct configuration once
            }
            if self.resident.contains(c) {
                n += 1;
            }
        }
        n
    }

    /// Records that `seq` was routed here: every configuration is
    /// touched in sequence order (moved to most-recent, inserted with
    /// LRU eviction when absent).
    pub fn admit(&mut self, seq: &[ConfigId]) {
        if self.capacity == 0 {
            return;
        }
        for &c in seq {
            if let Some(pos) = self.resident.iter().position(|&r| r == c) {
                self.resident.remove(pos);
            } else if self.resident.len() == self.capacity {
                self.resident.remove(0);
            }
            self.resident.push(c);
        }
    }

    /// The resident set in LRU order (least recent first).
    pub fn resident(&self) -> &[ConfigId] {
        &self.resident
    }
}

/// The fleet's residency model of one device: [`ResidencyModel`]'s LRU
/// rule over dense configuration indices (see [`intern`]), with a
/// membership table so that scoring a job costs one lookup per
/// configuration instead of a scan of the resident list.
#[derive(Debug)]
pub(crate) struct DenseResidency {
    capacity: usize,
    /// LRU order, least recent first.
    lru: Vec<u32>,
    /// `member[c]` holds whether dense configuration `c` is resident;
    /// indices past the end are not.
    member: Vec<bool>,
}

impl DenseResidency {
    /// An empty model for a device with `capacity` RUs.
    pub(crate) fn new(capacity: usize) -> Self {
        DenseResidency {
            capacity,
            lru: Vec::with_capacity(capacity),
            member: Vec::new(),
        }
    }

    /// Resident configurations of `seq`, which must hold distinct
    /// indices.
    pub(crate) fn overlap(&self, seq: &[u32]) -> u32 {
        seq.iter()
            .filter(|&&c| self.member.get(c as usize).copied().unwrap_or(false))
            .count() as u32
    }

    /// Records that `seq` was routed here, exactly as
    /// [`ResidencyModel::admit`] does: every configuration is touched in
    /// sequence order (moved to most-recent, inserted with LRU eviction
    /// when absent).
    pub(crate) fn admit(&mut self, seq: &[u32]) {
        if self.capacity == 0 {
            return;
        }
        for &c in seq {
            let i = c as usize;
            if i >= self.member.len() {
                self.member.resize(i + 1, false);
            }
            if self.member[i] {
                let pos = self
                    .lru
                    .iter()
                    .position(|&r| r == c)
                    .expect("a member is on the LRU list");
                self.lru.remove(pos);
            } else {
                if self.lru.len() == self.capacity {
                    let victim = self.lru.remove(0);
                    self.member[victim as usize] = false;
                }
                self.member[i] = true;
            }
            self.lru.push(c);
        }
    }
}

/// Maps `seq` to dense indices through `ids`, numbering each unseen
/// configuration by the count of those seen before it. Configuration
/// ids come from input files and may be anywhere in `u32`, so tables
/// are indexed by the dense index, never by a raw [`ConfigId`].
pub(crate) fn intern(ids: &mut BTreeMap<ConfigId, u32>, seq: &[ConfigId]) -> Box<[u32]> {
    seq.iter()
        .map(|&c| {
            let next = u32::try_from(ids.len()).expect("fewer than 2^32 distinct configurations");
            *ids.entry(c).or_insert(next)
        })
        .collect()
}

/// One recorded placement decision: everything the
/// `placement-residency` checker needs to replay the router's view at
/// the instant the decision was made.
#[derive(Debug, Clone)]
pub struct PlacementDecision {
    /// Fleet-wide submission index of the job.
    pub submit_index: usize,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The device the router chose.
    pub device: usize,
    /// The job's distinct-configuration sequence the overlap was
    /// scored against.
    pub cfg_seq: Arc<Vec<ConfigId>>,
    /// Per-device residency overlaps at decision time.
    pub overlaps: Vec<u32>,
    /// Per-device queued design-time work at decision time.
    pub queued_work: Vec<SimDuration>,
}

/// The distinct-configuration sequence of one job, in design-time
/// reconfiguration order — the unit the residency model tracks.
pub fn job_cfg_seq(job: &JobSpec) -> Vec<ConfigId> {
    let mut seq = Vec::new();
    for node in reconfiguration_sequence(&job.graph) {
        let c = job.graph.config_of(node);
        if !seq.contains(&c) {
            seq.push(c);
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    fn views(work: &[u64], overlap: &[u32]) -> Vec<DeviceView> {
        work.iter()
            .zip(overlap)
            .map(|(&w, &o)| DeviceView {
                queued_work: SimDuration::from_us(w),
                overlap: o,
            })
            .collect()
    }

    #[test]
    fn labels_round_trip() {
        for kind in PlacementKind::ALL {
            assert_eq!(PlacementKind::from_label(kind.label()), Some(kind));
            let v = Serialize::serialize(&kind);
            assert_eq!(PlacementKind::deserialize(&v).unwrap(), kind);
        }
        assert!(PlacementKind::from_label("nope").is_none());
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::default();
        let g = std::sync::Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(g);
        let v = views(&[0, 0, 0], &[0, 0, 0]);
        let picks: Vec<usize> = (0..5).map(|_| rr.place(&job, &v)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_prefers_min_work_lowest_index() {
        let g = std::sync::Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(g);
        let mut ll = LeastLoaded;
        assert_eq!(ll.place(&job, &views(&[5, 2, 2], &[0, 0, 0])), 1);
        assert_eq!(ll.place(&job, &views(&[3, 3, 3], &[0, 0, 0])), 0);
    }

    #[test]
    fn reuse_affinity_prefers_overlap_then_load() {
        let g = std::sync::Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(g);
        let mut ra = ReuseAffinity;
        // Highest overlap wins even when busier.
        assert_eq!(ra.place(&job, &views(&[9, 1, 1], &[3, 1, 0])), 0);
        // Overlap ties fall back to least-loaded.
        assert_eq!(ra.place(&job, &views(&[9, 1, 4], &[2, 2, 0])), 1);
        // Full ties go to the lowest index among the best.
        assert_eq!(ra.place(&job, &views(&[1, 4, 4, 4], &[0, 2, 2, 2])), 1);
    }

    #[test]
    fn residency_model_is_lru_with_capacity() {
        let mut m = ResidencyModel::new(2);
        let c = |n: u32| ConfigId(n);
        m.admit(&[c(1), c(2)]);
        assert_eq!(m.overlap(&[c(1), c(2), c(3)]), 2);
        // Touch 1, then admit 3: 2 is the LRU victim.
        m.admit(&[c(1)]);
        m.admit(&[c(3)]);
        assert_eq!(m.resident(), &[c(1), c(3)]);
        assert_eq!(m.overlap(&[c(2)]), 0);
        // Duplicates in a sequence count once.
        assert_eq!(m.overlap(&[c(1), c(1)]), 1);
    }

    #[test]
    fn dense_model_matches_the_reference_model() {
        // One device per capacity 1..=8, fed seeded streams of templates
        // whose configurations come from a small sparse pool (ids near
        // u32::MAX included), so templates share configurations. Before
        // each admit every device's dense overlap must equal the
        // reference's; after it, so must the resident order.
        let pool = [0, 1, 7, 1000, 65_535, 65_536, 1 << 20, 1 << 31]
            .into_iter()
            .chain(u32::MAX - 3..=u32::MAX)
            .map(ConfigId)
            .collect::<Vec<_>>();
        let mut state = 0x0dd5_eed5_u64;
        let mut draw = |n: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        for case in 0..40 {
            let templates: Vec<Vec<ConfigId>> = (0..1 + draw(10))
                .map(|_| {
                    let mut seq = Vec::new();
                    for _ in 0..1 + draw(6) {
                        let c = pool[draw(pool.len())];
                        if !seq.contains(&c) {
                            seq.push(c);
                        }
                    }
                    seq
                })
                .collect();
            let mut ids = BTreeMap::new();
            let mut interned: Vec<Option<Box<[u32]>>> = vec![None; templates.len()];
            let mut dense: Vec<DenseResidency> = (1..=8).map(DenseResidency::new).collect();
            let mut reference: Vec<ResidencyModel> = (1..=8).map(ResidencyModel::new).collect();
            for job in 0..200 {
                // Templates are interned on first use, as the fleet does,
                // so new ids keep appearing after the models have grown.
                let t = draw(templates.len());
                let seq = interned[t].get_or_insert_with(|| intern(&mut ids, &templates[t]));
                for (d, r) in dense.iter().zip(&reference) {
                    assert_eq!(
                        d.overlap(seq),
                        r.overlap(&templates[t]),
                        "case {case} job {job}: overlap, capacity {}",
                        d.capacity
                    );
                }
                let device = draw(dense.len());
                dense[device].admit(seq);
                reference[device].admit(&templates[t]);
                let mut names = vec![ConfigId(0); ids.len()];
                for (&c, &i) in &ids {
                    names[i as usize] = c;
                }
                let order: Vec<ConfigId> = dense[device]
                    .lru
                    .iter()
                    .map(|&i| names[i as usize])
                    .collect();
                assert_eq!(
                    order,
                    reference[device].resident(),
                    "case {case} job {job}: resident order, capacity {}",
                    device + 1
                );
            }
        }
    }

    #[test]
    fn cfg_seq_is_distinct_in_reconfiguration_order() {
        let g = std::sync::Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(std::sync::Arc::clone(&g));
        let seq = job_cfg_seq(&job);
        assert!(!seq.is_empty());
        for (i, c) in seq.iter().enumerate() {
            assert!(!seq[..i].contains(c), "duplicate config in cfg_seq");
        }
    }
}
