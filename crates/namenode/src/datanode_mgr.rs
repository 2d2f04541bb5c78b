//! Datanode membership: registration, heartbeat liveness and the
//! namenode's view of the network topology.
//!
//! A datanode registers once (getting its [`DatanodeId`]) and then
//! heartbeats periodically. Nodes whose last heartbeat is older than
//! `DfsConfig::heartbeat_expiry` (ten intervals) are considered dead: they
//! drop out of placement and their speed records are purged — this is
//! how a killed host eventually disappears from Algorithm 1's candidate
//! pool.

use crate::clock::Clock;
use smarth_core::ids::DatanodeId;
use smarth_core::proto::{DatanodeInfo, DatanodeTelemetry, NodeTelemetryRow};
use smarth_core::topology::{NetworkTopology, TopologyNode};
use smarth_core::units::SimDuration;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct DatanodeEntry {
    info: DatanodeInfo,
    /// µs on the manager's clock.
    last_heartbeat: u64,
    used: u64,
    capacity: u64,
    active_transfers: u32,
    /// Latest gauge snapshot piggybacked on the heartbeat (§IV-C buffer
    /// levels), giving the namenode a cluster-wide live view.
    telemetry: DatanodeTelemetry,
    /// Administratively removed (host declared dead by the cluster).
    decommissioned: bool,
}

/// Registry of datanodes, owned by the namenode.
#[derive(Debug)]
pub struct DatanodeManager {
    entries: HashMap<DatanodeId, DatanodeEntry>,
    topology: NetworkTopology,
    next_id: u32,
    expiry_us: u64,
    clock: Clock,
}

impl DatanodeManager {
    pub fn new(expiry: SimDuration, clock: Clock) -> Self {
        Self {
            entries: HashMap::new(),
            topology: NetworkTopology::new(),
            next_id: 0,
            expiry_us: expiry.0 / 1_000,
            clock,
        }
    }

    /// µs since `e`'s last heartbeat. A clock that moved back (a
    /// simulation's next upload) reads as a fresh heartbeat.
    fn silent_for(&self, e: &DatanodeEntry) -> u64 {
        self.clock.now_us().saturating_sub(e.last_heartbeat)
    }

    /// Registers a datanode and returns its id. Re-registration of the
    /// same host name revives and reuses the old id (a restarted node).
    pub fn register(
        &mut self,
        host_name: &str,
        rack: &str,
        data_addr: &str,
        capacity: u64,
    ) -> DatanodeId {
        let now = self.clock.now_us();
        if let Some((id, entry)) = self
            .entries
            .iter_mut()
            .find(|(_, e)| e.info.host_name == host_name)
        {
            entry.last_heartbeat = now;
            entry.decommissioned = false;
            entry.info.rack = rack.to_string();
            entry.info.addr = data_addr.to_string();
            let id = *id;
            self.topology.add(TopologyNode {
                id,
                rack: rack.to_string(),
                host_name: host_name.to_string(),
            });
            return id;
        }
        let id = DatanodeId(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            DatanodeEntry {
                info: DatanodeInfo {
                    id,
                    host_name: host_name.to_string(),
                    rack: rack.to_string(),
                    addr: data_addr.to_string(),
                },
                last_heartbeat: now,
                used: 0,
                capacity,
                active_transfers: 0,
                telemetry: DatanodeTelemetry::default(),
                decommissioned: false,
            },
        );
        self.topology.add(TopologyNode {
            id,
            rack: rack.to_string(),
            host_name: host_name.to_string(),
        });
        id
    }

    /// Records a heartbeat. Returns false for unknown nodes (they must
    /// re-register).
    pub fn heartbeat(
        &mut self,
        id: DatanodeId,
        used: u64,
        active_transfers: u32,
        telemetry: DatanodeTelemetry,
    ) -> bool {
        let now = self.clock.now_us();
        match self.entries.get_mut(&id) {
            Some(e) if !e.decommissioned => {
                e.last_heartbeat = now;
                e.used = used;
                e.active_transfers = active_transfers;
                e.telemetry = telemetry;
                true
            }
            _ => false,
        }
    }

    /// One row per registered datanode (dead ones included, flagged) for
    /// the `GetTelemetry` RPC / `smarth_shell top` cluster table.
    pub fn telemetry_rows(&self) -> Vec<NodeTelemetryRow> {
        let mut rows: Vec<NodeTelemetryRow> = self
            .entries
            .values()
            .map(|e| NodeTelemetryRow {
                id: e.info.id,
                host_name: e.info.host_name.clone(),
                rack: e.info.rack.clone(),
                alive: self.is_live(e),
                used: e.used,
                capacity: e.capacity,
                active_transfers: e.active_transfers,
                telemetry: e.telemetry,
                age_ms: self.silent_for(e) / 1_000,
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.id);
        rows
    }

    fn is_live(&self, e: &DatanodeEntry) -> bool {
        !e.decommissioned && self.silent_for(e) < self.expiry_us
    }

    /// Marks a node dead immediately (operator action / cluster fault
    /// injection). The topology drops it right away.
    pub fn decommission(&mut self, id: DatanodeId) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.decommissioned = true;
        }
        self.topology.remove(id);
    }

    /// Sweeps expired nodes out of the topology; returns the ids that
    /// died since the last sweep. Call from the heartbeat monitor.
    pub fn expire_dead(&mut self) -> Vec<DatanodeId> {
        let mut dead: Vec<DatanodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.decommissioned && !self.is_live(e))
            .map(|(id, _)| *id)
            .collect();
        dead.sort_unstable();
        for id in &dead {
            self.decommission(*id);
        }
        dead
    }

    /// Currently live datanode ids.
    pub fn alive(&self) -> Vec<DatanodeId> {
        let mut v: Vec<DatanodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| self.is_live(e))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    pub fn info(&self, id: DatanodeId) -> Option<DatanodeInfo> {
        self.entries.get(&id).map(|e| e.info.clone())
    }

    pub fn infos(&self, ids: &[DatanodeId]) -> Vec<DatanodeInfo> {
        ids.iter().filter_map(|id| self.info(*id)).collect()
    }

    /// The namenode's topology view (live nodes only).
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    pub fn is_alive(&self, id: DatanodeId) -> bool {
        self.entries.get(&id).is_some_and(|e| self.is_live(e))
    }

    /// Reported capacity and usage of a datanode (cluster tooling).
    pub fn usage(&self, id: DatanodeId) -> Option<(u64, u64)> {
        self.entries.get(&id).map(|e| (e.used, e.capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 100 ms expiry on a clock the test moves.
    fn mgr() -> DatanodeManager {
        DatanodeManager::new(SimDuration::from_millis(100), Clock::manual())
    }

    #[test]
    fn register_assigns_sequential_ids() {
        let mut m = mgr();
        let a = m.register("dn0", "rack-a", "dn0:50010", 1 << 30);
        let b = m.register("dn1", "rack-b", "dn1:50010", 1 << 30);
        assert_ne!(a, b);
        assert_eq!(m.alive(), vec![a, b]);
        assert_eq!(m.topology().len(), 2);
        assert_eq!(m.info(a).unwrap().rack, "rack-a");
    }

    #[test]
    fn reregistration_reuses_id() {
        let mut m = mgr();
        let a = m.register("dn0", "rack-a", "dn0:50010", 1);
        m.decommission(a);
        assert!(!m.is_alive(a));
        let a2 = m.register("dn0", "rack-a", "dn0:50011", 1);
        assert_eq!(a, a2, "restart must reuse the id");
        assert!(m.is_alive(a));
        assert_eq!(m.info(a).unwrap().addr, "dn0:50011");
    }

    #[test]
    fn heartbeat_keeps_node_alive() {
        let mut m = mgr();
        let a = m.register("dn0", "r", "dn0:1", 1);
        for i in 1..=5 {
            m.clock.set(i * 40_000);
            assert!(m.heartbeat(a, 10, 1, DatanodeTelemetry::default()));
            assert!(m.is_alive(a), "heartbeating node must stay alive");
        }
        // The expiry is exclusive: alive 1 µs before it, dead at it.
        m.clock.set(200_000 + 99_999);
        assert!(m.is_alive(a));
        m.clock.set(200_000 + 100_000);
        assert!(!m.is_alive(a));
    }

    #[test]
    fn missing_heartbeats_expire_node() {
        let mut m = mgr();
        let a = m.register("dn0", "r", "dn0:1", 1);
        let b = m.register("dn1", "r", "dn1:1", 1);
        m.clock.set(60_000);
        m.heartbeat(b, 0, 0, DatanodeTelemetry::default());
        m.clock.set(120_000);
        // a has been silent 120 ms (> 100 ms expiry); b only 60 ms.
        assert!(!m.is_alive(a));
        assert!(m.is_alive(b));
        let dead = m.expire_dead();
        assert_eq!(dead, vec![a]);
        assert_eq!(m.topology().len(), 1);
        // Sweep is idempotent.
        assert!(m.expire_dead().is_empty());
        // Expired nodes reject heartbeats until re-registering.
        assert!(!m.heartbeat(a, 0, 0, DatanodeTelemetry::default()));
        // b's expiry is at 160 ms: alive at 159.999, swept at 160.
        m.clock.set(159_999);
        assert!(m.expire_dead().is_empty());
        m.clock.set(160_000);
        assert_eq!(m.expire_dead(), vec![b]);
    }

    #[test]
    fn decommission_removes_from_topology_immediately() {
        let mut m = mgr();
        let a = m.register("dn0", "r", "dn0:1", 1);
        m.decommission(a);
        assert!(m.alive().is_empty());
        assert_eq!(m.topology().len(), 0);
        assert!(!m.heartbeat(a, 0, 0, DatanodeTelemetry::default()));
    }

    #[test]
    fn infos_filters_unknown_ids() {
        let mut m = mgr();
        let a = m.register("dn0", "r", "dn0:1", 1);
        let got = m.infos(&[a, DatanodeId(99)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, a);
    }

    #[test]
    fn telemetry_rows_reflect_heartbeats() {
        let mut m = mgr();
        let a = m.register("dn0", "r", "dn0:1", 1 << 20);
        let b = m.register("dn1", "r", "dn1:1", 1 << 20);
        let t = DatanodeTelemetry {
            staging_packets: 3,
            buffered_bytes: 4096,
            forward_bytes: 512,
        };
        assert!(m.heartbeat(a, 100, 2, t));
        let rows = m.telemetry_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, a);
        assert_eq!(rows[0].telemetry, t);
        assert_eq!(rows[0].used, 100);
        assert!(rows[0].alive);
        assert_eq!(rows[1].id, b);
        assert_eq!(rows[1].telemetry, DatanodeTelemetry::default());
        m.decommission(b);
        let rows = m.telemetry_rows();
        assert!(!rows[1].alive, "decommissioned node flagged, not hidden");
    }

    #[test]
    fn unknown_heartbeat_rejected() {
        let mut m = mgr();
        assert!(!m.heartbeat(DatanodeId(5), 0, 0, DatanodeTelemetry::default()));
    }
}
