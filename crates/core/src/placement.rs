//! Datanode placement policies.
//!
//! * [`default_placement`] — the stock HDFS strategy described in §V-B.1:
//!   first replica on the client's own host when the client is a datanode
//!   (otherwise a random not-busy node), second replica on a different
//!   rack, third on the same rack as the second, remaining replicas
//!   random.
//! * [`smarth_placement`] — Algorithm 1, the SMARTH namenode's *global
//!   optimization*: when transmission records exist for the client, the
//!   first datanode is drawn uniformly from the client's top-`n`
//!   fastest datanodes (`n = active / replication`), the second from a
//!   remote rack and the third from the second's rack; without records it
//!   falls back to the default strategy.
//!
//! Both return pipelines of **distinct** datanodes and honour an exclusion
//! list (dead nodes, nodes already busy in one of the client's active
//! SMARTH pipelines — the §IV-C buffer-overflow rule).
//!
//! [`place_block`] picks between them by write mode. It is the one place
//! both engines allocate through.

use crate::config::WriteMode;
use crate::error::{DfsError, DfsResult};
use crate::ids::{BlockId, ClientId, DatanodeId};
use crate::obs::{ObsEvent, SpeedObservation};
use crate::speed::NamenodeSpeedRegistry;
use crate::topology::NetworkTopology;
use rand::Rng;

/// What the placement policies need to know about the requesting client.
#[derive(Debug, Clone)]
pub struct ClientLocality {
    pub client: ClientId,
    /// Rack the client host lives on.
    pub rack: String,
    /// If the client process runs on a datanode host, that datanode.
    pub local_datanode: Option<DatanodeId>,
}

fn finish_pipeline(
    topo: &NetworkTopology,
    rng: &mut impl Rng,
    targets: &mut Vec<DatanodeId>,
    replication: usize,
    exclude: &[DatanodeId],
) -> DfsResult<()> {
    // Fill any remaining slots with random distinct nodes
    // (Algorithm 1 line 16 / HDFS behaviour for replication > 3).
    while targets.len() < replication {
        let mut ex = exclude.to_vec();
        ex.extend_from_slice(targets);
        match topo.random_node(rng, &ex) {
            Some(dn) => targets.push(dn),
            // HDFS semantics: when the cluster cannot supply the full
            // replication factor, return the shorter pipeline rather
            // than failing — the namenode re-replicates later. Zero
            // candidates is still an error (checked by the caller that
            // picked the first target).
            None => break,
        }
    }
    Ok(())
}

/// The stock HDFS placement (§V-B.1).
pub fn default_placement(
    topo: &NetworkTopology,
    rng: &mut impl Rng,
    locality: &ClientLocality,
    replication: usize,
    exclude: &[DatanodeId],
) -> DfsResult<Vec<DatanodeId>> {
    if replication == 0 {
        return Ok(Vec::new());
    }
    let mut targets: Vec<DatanodeId> = Vec::with_capacity(replication);

    // Replica 1: the client's own datanode when co-located, otherwise a
    // random node — preferring the client's rack, like HDFS's
    // "not too far" default.
    let first = match locality.local_datanode {
        Some(dn) if topo.contains(dn) && !exclude.contains(&dn) => Some(dn),
        _ => topo
            .random_node_on_rack(rng, &locality.rack, exclude)
            .or_else(|| topo.random_node(rng, exclude)),
    };
    let Some(first) = first else {
        return Err(DfsError::PlacementFailed {
            wanted: replication,
            available: 0,
        });
    };
    targets.push(first);

    // Replica 2: different rack from the first.
    if replication >= 2 {
        let mut ex = exclude.to_vec();
        ex.extend_from_slice(&targets);
        if let Some(second) = topo.random_remote_rack_node(rng, first, &ex) {
            targets.push(second);
        }
    }

    // Replica 3: same rack as the second, different node.
    if replication >= 3 && targets.len() == 2 {
        let second = targets[1];
        let mut ex = exclude.to_vec();
        ex.extend_from_slice(&targets);
        if let Some(third) = topo.random_same_rack_node(rng, second, &ex) {
            targets.push(third);
        }
    }

    finish_pipeline(topo, rng, &mut targets, replication, exclude)?;
    debug_assert_distinct(&targets);
    Ok(targets)
}

/// Algorithm 1 — SMARTH's global optimization.
#[allow(clippy::too_many_arguments)]
pub fn smarth_placement(
    topo: &NetworkTopology,
    registry: &NamenodeSpeedRegistry,
    rng: &mut impl Rng,
    locality: &ClientLocality,
    replication: usize,
    active_datanodes: usize,
    exclude: &[DatanodeId],
) -> DfsResult<Vec<DatanodeId>> {
    if replication == 0 {
        return Ok(Vec::new());
    }
    // Line 3: n = num / repli — the maximum pipeline count doubles as the
    // size of the "fast node" candidate pool.
    let n = (active_datanodes / replication.max(1)).max(1);

    // Line 4: without records, fall back to the original HDFS method.
    if !registry.has_records_for(locality.client) {
        return default_placement(topo, rng, locality, replication, exclude);
    }

    let alive: Vec<DatanodeId> = topo.ids().collect();
    let top_n = registry.top_n(locality.client, n, &alive, exclude);
    if top_n.is_empty() {
        // Records exist but none of the recorded nodes are currently
        // usable (all excluded or dead) — fall back.
        return default_placement(topo, rng, locality, replication, exclude);
    }

    let mut targets: Vec<DatanodeId> = Vec::with_capacity(replication);

    // Line 10: targets[0] = randomDatanode(TopN).
    targets.push(top_n[rng.gen_range(0..top_n.len())]);

    // Line 12: targets[1] = randomRemoteRackNode() — remote relative to
    // the first pick, for fault tolerance across racks.
    if replication >= 2 {
        let mut ex = exclude.to_vec();
        ex.extend_from_slice(&targets);
        if let Some(second) = topo.random_remote_rack_node(rng, targets[0], &ex) {
            targets.push(second);
        }
    }

    // Line 14: targets[2] = nodeOnSameRack(targets[1]).
    if replication >= 3 && targets.len() == 2 {
        let second = targets[1];
        let mut ex = exclude.to_vec();
        ex.extend_from_slice(&targets);
        if let Some(third) = topo.random_same_rack_node(rng, second, &ex) {
            targets.push(third);
        }
    }

    // Line 16: rest at random.
    finish_pipeline(topo, rng, &mut targets, replication, exclude)?;
    debug_assert_distinct(&targets);
    Ok(targets)
}

/// One block's targets and how they were chosen: what
/// [`ObsEvent::PlacementDecision`] reports.
#[derive(Debug, Clone)]
pub struct Placement {
    pub targets: Vec<DatanodeId>,
    /// `"smarth"` (Algorithm 1) or `"hdfs"` (the stock policy).
    pub policy: &'static str,
    /// The client's speed records in force when Algorithm 1 ran; empty
    /// for the stock policy.
    pub speeds_consulted: Vec<SpeedObservation>,
}

impl Placement {
    /// The `PlacementDecision` event for `client`'s `block`.
    pub fn decision(self, client: ClientId, block: BlockId) -> ObsEvent {
        ObsEvent::PlacementDecision {
            client,
            block,
            policy: self.policy,
            chosen: self.targets,
            speeds_consulted: self.speeds_consulted,
        }
    }
}

/// Places one block of a file written in `mode`: Algorithm 1 for SMARTH,
/// the stock policy for HDFS. The namenode's `addBlock` and the
/// simulator's block open both call this, so for the same RNG state they
/// draw the same targets.
#[allow(clippy::too_many_arguments)]
pub fn place_block(
    mode: WriteMode,
    topo: &NetworkTopology,
    registry: &NamenodeSpeedRegistry,
    rng: &mut impl Rng,
    locality: &ClientLocality,
    replication: usize,
    active_datanodes: usize,
    exclude: &[DatanodeId],
) -> DfsResult<Placement> {
    Ok(match mode {
        WriteMode::Hdfs => Placement {
            targets: default_placement(topo, rng, locality, replication, exclude)?,
            policy: "hdfs",
            speeds_consulted: Vec::new(),
        },
        WriteMode::Smarth => Placement {
            targets: smarth_placement(
                topo,
                registry,
                rng,
                locality,
                replication,
                active_datanodes,
                exclude,
            )?,
            policy: "smarth",
            speeds_consulted: registry
                .records_for(locality.client)
                .into_iter()
                .map(|(datanode, bytes_per_sec)| SpeedObservation {
                    datanode,
                    bytes_per_sec,
                })
                .collect(),
        },
    })
}

/// Replacement targets for pipeline recovery (Algorithm 3 line 10): picks
/// `wanted` random nodes distinct from everything in `existing`/`exclude`.
pub fn replacement_targets(
    topo: &NetworkTopology,
    rng: &mut impl Rng,
    existing: &[DatanodeId],
    exclude: &[DatanodeId],
    wanted: usize,
) -> DfsResult<Vec<DatanodeId>> {
    let mut out = Vec::with_capacity(wanted);
    let mut ex: Vec<DatanodeId> = existing.iter().chain(exclude).copied().collect();
    for _ in 0..wanted {
        match topo.random_node(rng, &ex) {
            Some(dn) => {
                ex.push(dn);
                out.push(dn);
            }
            None => {
                return Err(DfsError::PlacementFailed {
                    wanted,
                    available: out.len(),
                })
            }
        }
    }
    Ok(out)
}

fn debug_assert_distinct(targets: &[DatanodeId]) {
    debug_assert!(
        {
            let mut v = targets.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len() == targets.len()
        },
        "pipeline contains duplicate datanodes: {targets:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SpeedRecord;
    use crate::topology::TopologyNode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn dn(i: u32) -> DatanodeId {
        DatanodeId(i)
    }

    fn topo() -> NetworkTopology {
        let mut t = NetworkTopology::new();
        for i in 0..9u32 {
            t.add(TopologyNode {
                id: dn(i),
                rack: if i < 5 { "rack-a".into() } else { "rack-b".into() },
                host_name: format!("dn{i}"),
            });
        }
        t
    }

    fn locality() -> ClientLocality {
        ClientLocality {
            client: ClientId(1),
            rack: "rack-a".into(),
            local_datanode: None,
        }
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn assert_valid_pipeline(t: &NetworkTopology, targets: &[DatanodeId], repl: usize) {
        assert_eq!(targets.len(), repl);
        let mut v = targets.to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), repl, "targets must be distinct: {targets:?}");
        for d in targets {
            assert!(t.contains(*d));
        }
    }

    #[test]
    fn default_policy_respects_rack_rules() {
        let t = topo();
        let mut r = rng();
        for _ in 0..200 {
            let p = default_placement(&t, &mut r, &locality(), 3, &[]).unwrap();
            assert_valid_pipeline(&t, &p, 3);
            // Replica 2 on a different rack from replica 1; replica 3 on
            // replica 2's rack.
            assert!(!t.same_rack(p[0], p[1]), "replica 2 must be remote: {p:?}");
            assert!(t.same_rack(p[1], p[2]), "replica 3 must share rack 2: {p:?}");
        }
    }

    #[test]
    fn default_policy_prefers_local_datanode() {
        let t = topo();
        let mut r = rng();
        let loc = ClientLocality {
            client: ClientId(1),
            rack: "rack-a".into(),
            local_datanode: Some(dn(3)),
        };
        for _ in 0..50 {
            let p = default_placement(&t, &mut r, &loc, 3, &[]).unwrap();
            assert_eq!(p[0], dn(3));
        }
        // ...but not when excluded.
        let p = default_placement(&t, &mut r, &loc, 3, &[dn(3)]).unwrap();
        assert_ne!(p[0], dn(3));
    }

    #[test]
    fn default_policy_first_pick_prefers_client_rack() {
        let t = topo();
        let mut r = rng();
        for _ in 0..100 {
            let p = default_placement(&t, &mut r, &locality(), 3, &[]).unwrap();
            assert_eq!(t.rack_of(p[0]), Some("rack-a"));
        }
    }

    #[test]
    fn smarth_without_records_falls_back_to_default() {
        let t = topo();
        let reg = NamenodeSpeedRegistry::new();
        let mut r = rng();
        let p = smarth_placement(&t, &reg, &mut r, &locality(), 3, 9, &[]).unwrap();
        assert_valid_pipeline(&t, &p, 3);
        assert!(!t.same_rack(p[0], p[1]));
    }

    fn registry_with_speeds(pairs: &[(u32, f64)]) -> NamenodeSpeedRegistry {
        let mut reg = NamenodeSpeedRegistry::new();
        let records: Vec<SpeedRecord> = pairs
            .iter()
            .map(|&(i, s)| SpeedRecord {
                datanode: dn(i),
                bytes_per_sec: s,
                samples: 1,
            })
            .collect();
        reg.ingest(ClientId(1), &records);
        reg
    }

    #[test]
    fn smarth_first_target_comes_from_top_n() {
        let t = topo();
        // Speeds: dn0..dn8 = 10,20,...,90 → top 3 (n = 9/3) = {8,7,6}.
        let reg =
            registry_with_speeds(&(0..9).map(|i| (i, (i as f64 + 1.0) * 10.0)).collect::<Vec<_>>());
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            let p = smarth_placement(&t, &reg, &mut r, &locality(), 3, 9, &[]).unwrap();
            assert_valid_pipeline(&t, &p, 3);
            assert!(
                p[0] == dn(8) || p[0] == dn(7) || p[0] == dn(6),
                "first target {} outside top-3",
                p[0]
            );
            seen.insert(p[0]);
            // Rack rules still hold.
            assert!(!t.same_rack(p[0], p[1]));
            assert!(t.same_rack(p[1], p[2]));
        }
        assert_eq!(seen.len(), 3, "randomDatanode(TopN) must spread over TopN");
    }

    #[test]
    fn smarth_candidate_pool_shrinks_with_cluster() {
        let t = topo();
        let reg =
            registry_with_speeds(&(0..9).map(|i| (i, (i as f64 + 1.0) * 10.0)).collect::<Vec<_>>());
        let mut r = rng();
        // active=3, repl=3 → n=1 → first target must always be dn8.
        for _ in 0..50 {
            let p = smarth_placement(&t, &reg, &mut r, &locality(), 3, 3, &[]).unwrap();
            assert_eq!(p[0], dn(8));
        }
    }

    #[test]
    fn smarth_respects_exclusions_of_active_pipelines() {
        let t = topo();
        let reg =
            registry_with_speeds(&(0..9).map(|i| (i, (i as f64 + 1.0) * 10.0)).collect::<Vec<_>>());
        let mut r = rng();
        // Exclude the whole fast set {6,7,8} as if busy in pipelines.
        let busy = [dn(6), dn(7), dn(8)];
        for _ in 0..100 {
            let p = smarth_placement(&t, &reg, &mut r, &locality(), 3, 9, &busy).unwrap();
            assert_valid_pipeline(&t, &p, 3);
            for b in &busy {
                assert!(!p.contains(b), "busy node {b} reused in {p:?}");
            }
        }
    }

    #[test]
    fn placement_fails_only_with_zero_candidates() {
        let t = topo();
        let mut r = rng();
        let all: Vec<DatanodeId> = (0..9).map(dn).collect();
        let err = default_placement(&t, &mut r, &locality(), 3, &all).unwrap_err();
        assert!(matches!(err, DfsError::PlacementFailed { .. }));

        // With 2 of 9 nodes free, HDFS returns a *shorter* pipeline
        // (degraded replication) instead of failing.
        let partial = default_placement(&t, &mut r, &locality(), 3, &all[..7]).unwrap();
        assert_eq!(partial.len(), 2);
        let mut sorted = partial.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2, "partial pipeline still distinct");
    }

    #[test]
    fn replication_greater_than_three_fills_randomly() {
        let t = topo();
        let mut r = rng();
        let p = default_placement(&t, &mut r, &locality(), 5, &[]).unwrap();
        assert_valid_pipeline(&t, &p, 5);
    }

    #[test]
    fn replacement_targets_avoid_existing() {
        let t = topo();
        let mut r = rng();
        let existing = [dn(0), dn(1)];
        for _ in 0..50 {
            let rep = replacement_targets(&t, &mut r, &existing, &[dn(2)], 2).unwrap();
            assert_eq!(rep.len(), 2);
            assert_ne!(rep[0], rep[1]);
            for x in &rep {
                assert!(!existing.contains(x) && *x != dn(2));
            }
        }
        let all: Vec<DatanodeId> = (0..9).map(dn).collect();
        assert!(replacement_targets(&t, &mut r, &all, &[], 1).is_err());
    }

    #[test]
    fn place_block_follows_the_mode_draw_for_draw() {
        use rand::RngCore;
        let t = topo();
        let busy = [dn(2)];
        // Each mode against the policy it must reduce to, from one seed:
        // same targets, and the RNG left in the same state after.
        let cases: [(WriteMode, NamenodeSpeedRegistry, &str); 3] = [
            (WriteMode::Hdfs, registry_with_speeds(&[(4, 100.0)]), "hdfs"),
            (WriteMode::Smarth, NamenodeSpeedRegistry::new(), "smarth"),
            (WriteMode::Smarth, registry_with_speeds(&[(4, 100.0), (7, 50.0)]), "smarth"),
        ];
        for (mode, reg, label) in cases {
            let (mut placed_rng, mut direct_rng) = (rng(), rng());
            for _ in 0..20 {
                let placed =
                    place_block(mode, &t, &reg, &mut placed_rng, &locality(), 3, 9, &busy).unwrap();
                let direct = match mode {
                    WriteMode::Hdfs => {
                        default_placement(&t, &mut direct_rng, &locality(), 3, &busy).unwrap()
                    }
                    WriteMode::Smarth => {
                        smarth_placement(&t, &reg, &mut direct_rng, &locality(), 3, 9, &busy)
                            .unwrap()
                    }
                };
                assert_eq!(placed.targets, direct);
                assert_eq!(placed.policy, label);
                // HDFS consults no speeds; SMARTH reports every record.
                let consulted: Vec<(DatanodeId, f64)> = placed
                    .speeds_consulted
                    .iter()
                    .map(|s| (s.datanode, s.bytes_per_sec))
                    .collect();
                let records = reg.records_for(ClientId(1));
                assert_eq!(consulted, if label == "hdfs" { Vec::new() } else { records });
            }
            assert_eq!(placed_rng.next_u64(), direct_rng.next_u64(), "{label}: draws diverged");
        }
        // The event reports the placement as chosen.
        let reg = registry_with_speeds(&[(4, 100.0)]);
        let placed =
            place_block(WriteMode::Smarth, &t, &reg, &mut rng(), &locality(), 3, 9, &[]).unwrap();
        match placed.clone().decision(ClientId(1), BlockId(9)) {
            ObsEvent::PlacementDecision { client, block, policy, chosen, speeds_consulted } => {
                assert_eq!((client, block, policy), (ClientId(1), BlockId(9), "smarth"));
                assert_eq!(chosen, placed.targets);
                assert_eq!(speeds_consulted, placed.speeds_consulted);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replication_one_gives_single_target() {
        let t = topo();
        let mut r = rng();
        let p = default_placement(&t, &mut r, &locality(), 1, &[]).unwrap();
        assert_eq!(p.len(), 1);
        let reg = registry_with_speeds(&[(4, 100.0)]);
        let p = smarth_placement(&t, &reg, &mut r, &locality(), 1, 9, &[]).unwrap();
        assert_eq!(p.len(), 1);
    }
}
