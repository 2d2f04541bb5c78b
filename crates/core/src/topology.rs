//! Rack-aware network topology, mirroring HDFS's `NetworkTopology` tree
//! (§III-B). The paper only needs a two-level tree (racks → hosts), so the
//! implementation stores a flat map from datanode to rack and provides the
//! selection primitives that the placement policies (default HDFS and
//! SMARTH Algorithm 1) are built from: random node, random node on a
//! remote rack, random node on a given rack — all with exclusion sets.

use crate::ids::DatanodeId;
use rand::Rng;
use std::collections::BTreeMap;

/// Description of a registered datanode as the topology sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyNode {
    pub id: DatanodeId,
    pub rack: String,
    pub host_name: String,
}

/// Two-level (rack/host) network topology. Nodes are kept in a `BTreeMap`
/// so iteration order — and therefore seeded-random selection — is
/// deterministic across runs.
#[derive(Debug, Clone, Default)]
pub struct NetworkTopology {
    nodes: BTreeMap<DatanodeId, TopologyNode>,
}

impl NetworkTopology {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, node: TopologyNode) {
        self.nodes.insert(node.id, node);
    }

    pub fn remove(&mut self, id: DatanodeId) -> Option<TopologyNode> {
        self.nodes.remove(&id)
    }

    pub fn contains(&self, id: DatanodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    pub fn get(&self, id: DatanodeId) -> Option<&TopologyNode> {
        self.nodes.get(&id)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn rack_of(&self, id: DatanodeId) -> Option<&str> {
        self.nodes.get(&id).map(|n| n.rack.as_str())
    }

    /// True when both nodes are known and live on the same rack.
    pub fn same_rack(&self, a: DatanodeId, b: DatanodeId) -> bool {
        match (self.rack_of(a), self.rack_of(b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }

    pub fn ids(&self) -> impl Iterator<Item = DatanodeId> + '_ {
        self.nodes.keys().copied()
    }

    fn candidates<'a>(
        &'a self,
        exclude: &'a [DatanodeId],
        pred: impl Fn(&TopologyNode) -> bool + 'a,
    ) -> Vec<DatanodeId> {
        self.nodes
            .values()
            .filter(|n| !exclude.contains(&n.id) && pred(n))
            .map(|n| n.id)
            .collect()
    }

    /// Uniformly random node not in `exclude`.
    pub fn random_node(&self, rng: &mut impl Rng, exclude: &[DatanodeId]) -> Option<DatanodeId> {
        let c = self.candidates(exclude, |_| true);
        pick(rng, &c)
    }

    /// Uniformly random node on a different rack than `reference`
    /// (HDFS second-replica rule). Falls back to any non-excluded node if
    /// the cluster has a single rack, matching HDFS's fallback behaviour.
    pub fn random_remote_rack_node(
        &self,
        rng: &mut impl Rng,
        reference: DatanodeId,
        exclude: &[DatanodeId],
    ) -> Option<DatanodeId> {
        let ref_rack = self.rack_of(reference)?.to_owned();
        let remote = self.candidates(exclude, |n| n.rack != ref_rack);
        if remote.is_empty() {
            self.random_node(rng, exclude)
        } else {
            pick(rng, &remote)
        }
    }

    /// Uniformly random node on the *same* rack as `reference`, excluding
    /// `reference` itself (HDFS third-replica rule). Falls back to any
    /// non-excluded node when the rack has no other members.
    pub fn random_same_rack_node(
        &self,
        rng: &mut impl Rng,
        reference: DatanodeId,
        exclude: &[DatanodeId],
    ) -> Option<DatanodeId> {
        let ref_rack = self.rack_of(reference)?.to_owned();
        let mut ex = exclude.to_vec();
        if !ex.contains(&reference) {
            ex.push(reference);
        }
        let same = self.candidates(&ex, |n| n.rack == ref_rack);
        if same.is_empty() {
            self.random_node(rng, &ex)
        } else {
            pick(rng, &same)
        }
    }

    /// Random node from the client's rack if any exists (used as the
    /// "close" default when no speed records exist yet).
    pub fn random_node_on_rack(
        &self,
        rng: &mut impl Rng,
        rack: &str,
        exclude: &[DatanodeId],
    ) -> Option<DatanodeId> {
        let c = self.candidates(exclude, |n| n.rack == rack);
        pick(rng, &c)
    }
}

fn pick(rng: &mut impl Rng, candidates: &[DatanodeId]) -> Option<DatanodeId> {
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    fn two_rack_topology() -> NetworkTopology {
        let mut t = NetworkTopology::new();
        for i in 0..9u32 {
            t.add(TopologyNode {
                id: DatanodeId(i),
                rack: if i < 5 { "rack-a".into() } else { "rack-b".into() },
                host_name: format!("dn{i}"),
            });
        }
        t
    }

    #[test]
    fn basic_bookkeeping() {
        let mut t = two_rack_topology();
        assert_eq!(t.len(), 9);
        assert!(t.contains(DatanodeId(0)));
        assert!(t.same_rack(DatanodeId(0), DatanodeId(4)));
        assert!(!t.same_rack(DatanodeId(0), DatanodeId(5)));
        t.remove(DatanodeId(0));
        assert_eq!(t.len(), 8);
        assert!(!t.contains(DatanodeId(0)));
        assert!(!t.same_rack(DatanodeId(0), DatanodeId(1)));
    }

    #[test]
    fn random_node_honours_exclusions() {
        let t = two_rack_topology();
        let mut r = rng();
        let exclude: Vec<DatanodeId> = (0..8).map(DatanodeId).collect();
        for _ in 0..50 {
            assert_eq!(t.random_node(&mut r, &exclude), Some(DatanodeId(8)));
        }
        let all: Vec<DatanodeId> = (0..9).map(DatanodeId).collect();
        assert_eq!(t.random_node(&mut r, &all), None);
    }

    #[test]
    fn remote_rack_selection_is_really_remote() {
        let t = two_rack_topology();
        let mut r = rng();
        for _ in 0..100 {
            let n = t
                .random_remote_rack_node(&mut r, DatanodeId(0), &[])
                .unwrap();
            assert_eq!(t.rack_of(n), Some("rack-b"));
        }
    }

    #[test]
    fn remote_rack_falls_back_on_single_rack_cluster() {
        let mut t = NetworkTopology::new();
        for i in 0..3u32 {
            t.add(TopologyNode {
                id: DatanodeId(i),
                rack: "only".into(),
                host_name: format!("dn{i}"),
            });
        }
        let mut r = rng();
        let n = t
            .random_remote_rack_node(&mut r, DatanodeId(0), &[DatanodeId(0)])
            .unwrap();
        assert_ne!(n, DatanodeId(0));
    }

    #[test]
    fn same_rack_selection_excludes_reference() {
        let t = two_rack_topology();
        let mut r = rng();
        for _ in 0..100 {
            let n = t.random_same_rack_node(&mut r, DatanodeId(6), &[]).unwrap();
            assert_eq!(t.rack_of(n), Some("rack-b"));
            assert_ne!(n, DatanodeId(6));
        }
    }

    #[test]
    fn same_rack_respects_extra_exclusions() {
        let t = two_rack_topology();
        let mut r = rng();
        // rack-b = {5,6,7,8}; exclude 5,7,8 and the reference 6 → none on
        // rack-b left, must fall back to some other node.
        let ex = vec![DatanodeId(5), DatanodeId(7), DatanodeId(8)];
        for _ in 0..50 {
            let n = t
                .random_same_rack_node(&mut r, DatanodeId(6), &ex)
                .unwrap();
            assert!(n.raw() < 5, "fallback must leave rack-b: got {n}");
        }
    }

    #[test]
    fn rack_scoped_selection() {
        let t = two_rack_topology();
        let mut r = rng();
        for _ in 0..50 {
            let n = t.random_node_on_rack(&mut r, "rack-a", &[]).unwrap();
            assert!(n.raw() < 5);
        }
        assert_eq!(t.random_node_on_rack(&mut r, "rack-z", &[]), None);
    }

    #[test]
    fn selection_is_deterministic_under_seed() {
        let t = two_rack_topology();
        let seq1: Vec<_> = {
            let mut r = rng();
            (0..20).map(|_| t.random_node(&mut r, &[]).unwrap()).collect()
        };
        let seq2: Vec<_> = {
            let mut r = rng();
            (0..20).map(|_| t.random_node(&mut r, &[]).unwrap()).collect()
        };
        assert_eq!(seq1, seq2);
    }
}
