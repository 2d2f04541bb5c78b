//! Volume-shard routing for the sharded namenode.
//!
//! The namenode partitions its namespace and block map into N shards so
//! independent volumes never contend on a lock. A path's shard is a
//! stable function of its **first component** (the volume): every file
//! under `/soak/c3/...` lands in the same shard, so parent-directory
//! bookkeeping stays shard-local and a rename inside one volume never
//! crosses shards. The hash is FNV-1a, fixed here rather than borrowed
//! from `std` so the mapping never drifts between builds, engines, or
//! platforms — a workload's trace depends on it only through *routing*,
//! never through ids, and the DES hosts the same namenode, so both
//! engines agree on which shard a workload exercises.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// First path component (the volume): `/soak/c3/f0` → `soak`. Empty
/// components and `.` are skipped, matching the namespace's own path
/// parsing; the root itself (and degenerate paths) map to the empty
/// volume.
pub fn volume_of(path: &str) -> &str {
    path.split('/')
        .find(|c| !c.is_empty() && *c != ".")
        .unwrap_or("")
}

/// Shard index for `path` among `shards` shards. Total and stable:
/// never panics, and a given (volume, shard count) pair maps the same
/// way forever.
pub fn shard_of_path(path: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (fnv1a(volume_of(path).as_bytes()) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_extraction() {
        assert_eq!(volume_of("/soak/c3/f0"), "soak");
        assert_eq!(volume_of("/a"), "a");
        assert_eq!(volume_of("//a///b"), "a");
        assert_eq!(volume_of("/./a"), "a");
        assert_eq!(volume_of("/"), "");
        assert_eq!(volume_of(""), "");
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        for shards in [1usize, 2, 8, 13] {
            for path in ["/a/x", "/b/y", "/soak/c0/f1", "/", "/vol42/deep/er"] {
                let s = shard_of_path(path, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_path(path, shards), "deterministic");
            }
        }
        // Same volume ⇒ same shard, regardless of the rest of the path.
        assert_eq!(shard_of_path("/v/a", 8), shard_of_path("/v/b/c", 8));
        // One shard ⇒ everything routes to 0.
        assert_eq!(shard_of_path("/anything", 1), 0);
    }

    #[test]
    fn shards_spread_volumes() {
        // Not a uniformity proof, just a guard against a degenerate
        // hash: 64 distinct volumes over 8 shards must hit more than
        // one shard.
        let mut hit = std::collections::HashSet::new();
        for i in 0..64 {
            hit.insert(shard_of_path(&format!("/vol{i}/f"), 8));
        }
        assert!(hit.len() > 4, "volumes clumped onto {} shards", hit.len());
    }
}
