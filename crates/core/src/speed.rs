//! Transfer-speed bookkeeping (§III-B).
//!
//! The client measures the throughput of every block it streams to a
//! *first datanode* and reports the records to the namenode with its
//! 3-second heartbeat. The namenode keeps a per-client view and answers
//! "give me the top-n datanodes for this client" during Algorithm 1.
//!
//! Two record modes (ablation §5.4 of DESIGN.md): `alpha = 1.0` keeps the
//! raw last observation (what the paper describes); `alpha < 1.0` applies
//! an exponential moving average that damps transient dips.

use crate::ids::{ClientId, DatanodeId};
use crate::proto::SpeedRecord;
use crate::units::{Bandwidth, ByteSize, SimDuration};
use std::collections::{BTreeMap, HashMap};

/// One smoothed speed entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedEntry {
    pub bytes_per_sec: f64,
    pub samples: u64,
}

/// Client-side tracker: observed throughput per first-datanode, plus a
/// pending-report buffer drained by the heartbeat thread.
#[derive(Debug, Clone)]
pub struct ClientSpeedTracker {
    alpha: f64,
    entries: BTreeMap<DatanodeId, SpeedEntry>,
    /// Datanodes with fresh observations since the last heartbeat drain.
    dirty: Vec<DatanodeId>,
}

impl ClientSpeedTracker {
    /// `alpha` in (0,1]: weight of the newest sample. 1.0 = keep raw last
    /// sample (the paper's behaviour).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Self {
            alpha,
            entries: BTreeMap::new(),
            dirty: Vec::new(),
        }
    }

    /// Records one finished block transfer to `dn`.
    pub fn observe(&mut self, dn: DatanodeId, moved: ByteSize, took: SimDuration) {
        if took == SimDuration::ZERO {
            return; // degenerate sample carries no rate information
        }
        let rate = moved.as_f64() / took.as_secs_f64();
        self.observe_rate(dn, rate);
    }

    /// Records a raw rate sample in bytes/second.
    pub fn observe_rate(&mut self, dn: DatanodeId, bytes_per_sec: f64) {
        let e = self.entries.entry(dn).or_insert(SpeedEntry {
            bytes_per_sec,
            samples: 0,
        });
        if e.samples == 0 {
            e.bytes_per_sec = bytes_per_sec;
        } else {
            e.bytes_per_sec = self.alpha * bytes_per_sec + (1.0 - self.alpha) * e.bytes_per_sec;
        }
        e.samples += 1;
        if !self.dirty.contains(&dn) {
            self.dirty.push(dn);
        }
    }

    /// Current smoothed speed for a datanode, if known.
    pub fn speed_of(&self, dn: DatanodeId) -> Option<Bandwidth> {
        self.entries
            .get(&dn)
            .map(|e| Bandwidth::bytes_per_sec(e.bytes_per_sec))
    }

    pub fn known(&self) -> impl Iterator<Item = (DatanodeId, &SpeedEntry)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains records updated since the previous drain — the payload of
    /// the next heartbeat (§III-B: "sends these records to the namenode
    /// every three seconds").
    pub fn drain_report(&mut self) -> Vec<SpeedRecord> {
        let mut out = Vec::with_capacity(self.dirty.len());
        for dn in self.dirty.drain(..) {
            if let Some(e) = self.entries.get(&dn) {
                out.push(SpeedRecord {
                    datanode: dn,
                    bytes_per_sec: e.bytes_per_sec,
                    samples: e.samples.min(u32::MAX as u64) as u32,
                });
            }
        }
        out
    }

    /// Sorts a candidate list descending by known speed; unknown nodes
    /// rank last (treated as speed 0 so they are still usable). Used by
    /// the local optimization (Algorithm 2 line 3).
    pub fn sort_descending(&self, nodes: &mut [DatanodeId]) {
        nodes.sort_by(|a, b| {
            let sa = self.entries.get(a).map_or(0.0, |e| e.bytes_per_sec);
            let sb = self.entries.get(b).map_or(0.0, |e| e.bytes_per_sec);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
    }
}

/// Once a record decays below this rate it carries no ranking
/// information and is dropped outright, so a long-stalled node must
/// re-earn its entry (and `has_records_for` can flip back to the
/// no-records fallback when everything went stale).
const DECAY_FLOOR_BYTES_PER_SEC: f64 = 1.0;

/// Namenode-side registry: the per-client speed tables built from
/// heartbeat reports, queried by Algorithm 1.
#[derive(Debug, Default)]
pub struct NamenodeSpeedRegistry {
    per_client: HashMap<ClientId, BTreeMap<DatanodeId, SpeedEntry>>,
    /// Record half-life in µs; `None` disables aging (records persist
    /// unchanged, the paper's behaviour).
    half_life_us: Option<u64>,
    /// Clock of the last [`age`](Self::age) call; entries ingested since
    /// then are treated as observed at this instant.
    last_aged_us: u64,
}

impl NamenodeSpeedRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry whose records decay with the given half-life. `None`
    /// behaves exactly like [`new`](Self::new).
    pub fn with_half_life(half_life: Option<SimDuration>) -> Self {
        Self {
            half_life_us: half_life.map(|d| (d.0 / 1_000).max(1)),
            ..Self::default()
        }
    }

    /// Advances the registry clock to `now_us`, decaying every record by
    /// `2^(-elapsed/half_life)`. Call before reads (`top_n`,
    /// `records_for`, `has_records_for`) and before `ingest` so fresh
    /// reports are not decayed by time that passed before they arrived.
    /// No-op when aging is disabled or time did not advance; decay
    /// composes, so calling often is safe.
    pub fn age(&mut self, now_us: u64) {
        let Some(half_life_us) = self.half_life_us else {
            return;
        };
        if now_us <= self.last_aged_us {
            return;
        }
        let elapsed = (now_us - self.last_aged_us) as f64;
        self.last_aged_us = now_us;
        let factor = 0.5_f64.powf(elapsed / half_life_us as f64);
        for table in self.per_client.values_mut() {
            for e in table.values_mut() {
                e.bytes_per_sec *= factor;
            }
            table.retain(|_, e| e.bytes_per_sec >= DECAY_FLOOR_BYTES_PER_SEC);
        }
    }

    /// Ingests one heartbeat's records from `client`.
    pub fn ingest(&mut self, client: ClientId, records: &[SpeedRecord]) {
        let table = self.per_client.entry(client).or_default();
        for r in records {
            table.insert(
                r.datanode,
                SpeedEntry {
                    bytes_per_sec: r.bytes_per_sec,
                    samples: r.samples as u64,
                },
            );
        }
    }

    /// True when the namenode has any transmission records for `client`
    /// (Algorithm 1 line 4's branch condition).
    pub fn has_records_for(&self, client: ClientId) -> bool {
        self.per_client
            .get(&client)
            .is_some_and(|t| !t.is_empty())
    }

    /// The top `n` datanodes by reported speed for `client`, fastest
    /// first, restricted to `alive` and excluding `exclude`
    /// (Algorithm 1 line 5). Returns fewer than `n` when fewer are known.
    pub fn top_n(
        &self,
        client: ClientId,
        n: usize,
        alive: &[DatanodeId],
        exclude: &[DatanodeId],
    ) -> Vec<DatanodeId> {
        let Some(table) = self.per_client.get(&client) else {
            return Vec::new();
        };
        let mut scored: Vec<(DatanodeId, f64)> = table
            .iter()
            .filter(|(dn, _)| alive.contains(dn) && !exclude.contains(dn))
            .map(|(dn, e)| (*dn, e.bytes_per_sec))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(n);
        scored.into_iter().map(|(dn, _)| dn).collect()
    }

    /// Every (datanode, bytes/sec) record held for `client` — the data a
    /// speed-aware placement decision consults.
    pub fn records_for(&self, client: ClientId) -> Vec<(DatanodeId, f64)> {
        self.per_client
            .get(&client)
            .map(|t| t.iter().map(|(dn, e)| (*dn, e.bytes_per_sec)).collect())
            .unwrap_or_default()
    }

    /// §III-B applied to reads: orders a block's replica `sources`
    /// fastest-first by what `client` has reported. Sources with no
    /// record keep their relative order after every known one (a stable
    /// sort), so tied sources stay in the order they were given. The
    /// namenode's `GetBlockLocations` and the simulator's read phase both
    /// call this.
    pub fn order_by_speed(&self, client: ClientId, sources: &mut [DatanodeId]) {
        let Some(table) = self.per_client.get(&client) else {
            return;
        };
        let speed = |dn: &DatanodeId| table.get(dn).map(|e| e.bytes_per_sec);
        sources.sort_by(|a, b| {
            speed(b)
                .partial_cmp(&speed(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// Forgets a dead datanode everywhere so it can't be recommended.
    pub fn forget_datanode(&mut self, dn: DatanodeId) {
        for table in self.per_client.values_mut() {
            table.remove(&dn);
        }
    }

    pub fn clients(&self) -> usize {
        self.per_client.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(i: u32) -> DatanodeId {
        DatanodeId(i)
    }

    #[test]
    fn raw_mode_keeps_last_sample() {
        let mut t = ClientSpeedTracker::new(1.0);
        t.observe_rate(dn(1), 100.0);
        t.observe_rate(dn(1), 50.0);
        assert_eq!(t.speed_of(dn(1)).unwrap().as_bytes_per_sec(), 50.0);
    }

    #[test]
    fn ewma_mode_smooths() {
        let mut t = ClientSpeedTracker::new(0.5);
        t.observe_rate(dn(1), 100.0);
        t.observe_rate(dn(1), 50.0);
        // 0.5*50 + 0.5*100 = 75
        assert_eq!(t.speed_of(dn(1)).unwrap().as_bytes_per_sec(), 75.0);
    }

    #[test]
    fn observe_ignores_zero_duration() {
        let mut t = ClientSpeedTracker::new(1.0);
        t.observe(dn(1), ByteSize::mib(1), SimDuration::ZERO);
        assert!(t.is_empty());
        t.observe(dn(1), ByteSize::mib(64), SimDuration::from_secs(2));
        let bw = t.speed_of(dn(1)).unwrap();
        assert!((bw.as_bytes_per_sec() - 64.0 * 1024.0 * 1024.0 / 2.0).abs() < 1.0);
    }

    #[test]
    fn drain_report_only_returns_dirty_entries() {
        let mut t = ClientSpeedTracker::new(1.0);
        t.observe_rate(dn(1), 10.0);
        t.observe_rate(dn(2), 20.0);
        let first = t.drain_report();
        assert_eq!(first.len(), 2);
        assert!(t.drain_report().is_empty(), "nothing new since last drain");
        t.observe_rate(dn(2), 25.0);
        let second = t.drain_report();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].datanode, dn(2));
        assert_eq!(second[0].bytes_per_sec, 25.0);
        assert_eq!(second[0].samples, 2);
    }

    #[test]
    fn sort_descending_ranks_unknown_last() {
        let mut t = ClientSpeedTracker::new(1.0);
        t.observe_rate(dn(1), 10.0);
        t.observe_rate(dn(2), 30.0);
        t.observe_rate(dn(3), 20.0);
        let mut nodes = vec![dn(4), dn(1), dn(3), dn(2)];
        t.sort_descending(&mut nodes);
        assert_eq!(nodes, vec![dn(2), dn(3), dn(1), dn(4)]);
    }

    #[test]
    fn registry_top_n_orders_and_filters() {
        let c = ClientId(1);
        let mut reg = NamenodeSpeedRegistry::new();
        assert!(!reg.has_records_for(c));
        reg.ingest(
            c,
            &[
                SpeedRecord { datanode: dn(1), bytes_per_sec: 10.0, samples: 1 },
                SpeedRecord { datanode: dn(2), bytes_per_sec: 40.0, samples: 1 },
                SpeedRecord { datanode: dn(3), bytes_per_sec: 30.0, samples: 1 },
                SpeedRecord { datanode: dn(4), bytes_per_sec: 20.0, samples: 1 },
            ],
        );
        assert!(reg.has_records_for(c));
        let alive = vec![dn(1), dn(2), dn(3), dn(4)];
        assert_eq!(reg.top_n(c, 2, &alive, &[]), vec![dn(2), dn(3)]);
        // Exclusion removes the fastest.
        assert_eq!(reg.top_n(c, 2, &alive, &[dn(2)]), vec![dn(3), dn(4)]);
        // Dead nodes are filtered by the alive list.
        assert_eq!(reg.top_n(c, 3, &[dn(1), dn(4)], &[]), vec![dn(4), dn(1)]);
        // Another client has no records.
        assert!(reg.top_n(ClientId(2), 2, &alive, &[]).is_empty());
    }

    #[test]
    fn read_order_is_fastest_first_with_unknown_sources_last() {
        let c = ClientId(1);
        let mut reg = NamenodeSpeedRegistry::new();
        // No records at all: the order is left as given.
        let mut sources = vec![dn(5), dn(1), dn(3)];
        reg.order_by_speed(c, &mut sources);
        assert_eq!(sources, vec![dn(5), dn(1), dn(3)]);

        reg.ingest(
            c,
            &[
                SpeedRecord { datanode: dn(1), bytes_per_sec: 10.0, samples: 1 },
                SpeedRecord { datanode: dn(2), bytes_per_sec: 30.0, samples: 1 },
                SpeedRecord { datanode: dn(3), bytes_per_sec: 10.0, samples: 1 },
            ],
        );
        // Unknown dn6 and dn4 go last in their given order; the tied
        // dn3/dn1 keep theirs too.
        let mut sources = vec![dn(6), dn(3), dn(4), dn(1), dn(2)];
        reg.order_by_speed(c, &mut sources);
        assert_eq!(sources, vec![dn(2), dn(3), dn(1), dn(6), dn(4)]);
        // Another client's view is its own: nothing known, nothing moves.
        let mut sources = vec![dn(1), dn(2)];
        reg.order_by_speed(ClientId(2), &mut sources);
        assert_eq!(sources, vec![dn(1), dn(2)]);
    }

    #[test]
    fn registry_updates_overwrite_old_records() {
        let c = ClientId(1);
        let mut reg = NamenodeSpeedRegistry::new();
        reg.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 10.0, samples: 1 }]);
        reg.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 99.0, samples: 2 }]);
        let top = reg.top_n(c, 1, &[dn(1)], &[]);
        assert_eq!(top, vec![dn(1)]);
        // internal value reflects the newest report
        reg.ingest(c, &[SpeedRecord { datanode: dn(2), bytes_per_sec: 50.0, samples: 1 }]);
        assert_eq!(reg.top_n(c, 1, &[dn(1), dn(2)], &[]), vec![dn(1)]);
    }

    #[test]
    fn registry_forget_operations() {
        let mut reg = NamenodeSpeedRegistry::new();
        reg.ingest(ClientId(1), &[SpeedRecord { datanode: dn(1), bytes_per_sec: 1.0, samples: 1 }]);
        reg.ingest(ClientId(2), &[SpeedRecord { datanode: dn(1), bytes_per_sec: 1.0, samples: 1 }]);
        reg.forget_datanode(dn(1));
        assert!(!reg.has_records_for(ClientId(1)));
        assert!(!reg.has_records_for(ClientId(2)));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn zero_alpha_rejected() {
        ClientSpeedTracker::new(0.0);
    }

    #[test]
    fn aging_decays_by_half_life() {
        let c = ClientId(1);
        let mut reg = NamenodeSpeedRegistry::with_half_life(Some(SimDuration::from_secs(10)));
        reg.age(0);
        reg.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 800.0, samples: 1 }]);
        // One half-life: 800 → 400. Two more: 400 → 100.
        reg.age(10_000_000);
        assert!((reg.records_for(c)[0].1 - 400.0).abs() < 1e-6);
        reg.age(30_000_000);
        assert!((reg.records_for(c)[0].1 - 100.0).abs() < 1e-6);
        // Aging composes: stepping twice equals stepping once.
        let mut stepped = NamenodeSpeedRegistry::with_half_life(Some(SimDuration::from_secs(10)));
        stepped.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 800.0, samples: 1 }]);
        stepped.age(7_000_000);
        stepped.age(30_000_000);
        assert!((stepped.records_for(c)[0].1 - 100.0).abs() < 1e-6);
    }

    #[test]
    fn aging_reorders_against_fresh_reports() {
        let c = ClientId(1);
        let alive = vec![dn(1), dn(2)];
        let mut reg = NamenodeSpeedRegistry::with_half_life(Some(SimDuration::from_secs(1)));
        reg.ingest(
            c,
            &[
                SpeedRecord { datanode: dn(1), bytes_per_sec: 100.0, samples: 1 },
                SpeedRecord { datanode: dn(2), bytes_per_sec: 60.0, samples: 1 },
            ],
        );
        assert_eq!(reg.top_n(c, 1, &alive, &[]), vec![dn(1)]);
        // dn1 stalls (no fresh reports); dn2 keeps reporting. After two
        // half-lives dn1's stale 100 decayed to 25 < dn2's fresh 60.
        reg.age(2_000_000);
        reg.ingest(c, &[SpeedRecord { datanode: dn(2), bytes_per_sec: 60.0, samples: 2 }]);
        assert_eq!(reg.top_n(c, 1, &alive, &[]), vec![dn(2)]);
        // A fresh report re-earns dn1's rank immediately.
        reg.age(2_500_000);
        reg.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 90.0, samples: 2 }]);
        assert_eq!(reg.top_n(c, 1, &alive, &[]), vec![dn(1)]);
    }

    #[test]
    fn aging_drops_fully_stale_records() {
        let c = ClientId(1);
        let mut reg = NamenodeSpeedRegistry::with_half_life(Some(SimDuration::from_millis(1)));
        reg.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 1000.0, samples: 1 }]);
        assert!(reg.has_records_for(c));
        // ~50 half-lives: 1000 * 2^-50 is far below the floor — the
        // entry is dropped and Algorithm 1 falls back to no-records mode.
        reg.age(50_000);
        assert!(!reg.has_records_for(c));
        assert!(reg.records_for(c).is_empty());
    }

    #[test]
    fn aging_disabled_keeps_records_forever() {
        let c = ClientId(1);
        let mut reg = NamenodeSpeedRegistry::with_half_life(None);
        reg.ingest(c, &[SpeedRecord { datanode: dn(1), bytes_per_sec: 42.0, samples: 1 }]);
        reg.age(u64::MAX);
        assert_eq!(reg.records_for(c), vec![(dn(1), 42.0)]);
    }
}
