//! Replica storage on a datanode.
//!
//! Replicas move through the HDFS-style lifecycle: created as RBW
//! ("replica being written") when a `WriteBlock` header arrives, appended
//! to packet by packet, then *finalized* when the last packet lands.
//! Pipeline recovery (Algorithm 3's `recoverBlock`) adopts a bumped
//! generation stamp and truncates the replica to the agreed length, so a
//! rebuilt pipeline can resume from a consistent prefix.
//!
//! A replica, RBW or finalized, is its packet payloads in arrival order:
//! each one the `Bytes` the receiver decoded, a slice of the frame it
//! arrived in. Appending stores a handle, reading hands out slices, and
//! truncating drops or narrows handles — no stored byte is copied, moved
//! or returned to the allocator while a block is written. A segment keeps
//! its whole frame alive (the packet header and checksums ride along:
//! ≈ 0.8 % at 64 KiB packets and 512-byte checksum chunks).

use bytes::Bytes;
use parking_lot::Mutex;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, ExtendedBlock, GenStamp};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
struct Replica {
    gen: GenStamp,
    /// Non-empty payloads in arrival order; `len` is their total.
    segments: Vec<Bytes>,
    len: u64,
    finalized: bool,
}

impl Replica {
    fn empty(gen: GenStamp) -> Self {
        Self {
            gen,
            segments: Vec::new(),
            len: 0,
            finalized: false,
        }
    }

    /// The stored bytes `[offset, offset + len)` as slices of the
    /// segments they lie in; the caller has checked the range.
    fn slices(&self, offset: u64, len: u64) -> Vec<Bytes> {
        let (mut skip, mut want) = (offset as usize, len as usize);
        let mut out = Vec::new();
        for seg in &self.segments {
            if want == 0 {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let n = want.min(seg.len() - skip);
            out.push(seg.slice(skip..skip + n));
            skip = 0;
            want -= n;
        }
        out
    }

    /// Refuses an operation that names another generation than ours.
    fn expect_gen(&self, block: BlockId, gen: GenStamp) -> DfsResult<()> {
        if self.gen == gen {
            return Ok(());
        }
        Err(DfsError::StaleGeneration {
            block,
            expected: self.gen.raw(),
            got: gen.raw(),
        })
    }

    /// Keeps the first `new_len` bytes: whole segments past the cut go,
    /// the one it falls in is narrowed.
    fn truncate(&mut self, new_len: u64) {
        let mut keep = new_len as usize;
        self.segments.retain_mut(|seg| {
            let n = keep.min(seg.len());
            keep -= n;
            *seg = seg.slice(..n);
            n > 0
        });
        self.len = new_len;
    }
}

/// Thread-safe in-memory replica store. One per datanode.
///
/// Data lives in memory — the evaluation clusters' working sets (scaled)
/// fit comfortably, and the disk *timing* is modelled separately by the
/// datanode's disk token bucket so storage latency still shows up in
/// end-to-end numbers.
/// The map lock is held only for id lookup/insert/remove; every
/// per-packet operation then takes the *replica's own* lock, so packet
/// writes to different blocks never serialize on one node-wide mutex.
/// Lock order is always map → replica; nothing locks a replica first.
#[derive(Debug, Default)]
pub struct BlockStore {
    replicas: Mutex<HashMap<BlockId, Arc<Mutex<Replica>>>>,
}

impl BlockStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones out the shared handle for one replica, releasing the map
    /// lock before the caller touches replica state.
    fn replica(&self, block: BlockId) -> DfsResult<Arc<Mutex<Replica>>> {
        self.replicas
            .lock()
            .get(&block)
            .cloned()
            .ok_or(DfsError::UnknownBlock(block))
    }

    /// Creates an RBW replica.
    ///
    /// * Same generation, still RBW → the replica is *kept*: a recovered
    ///   pipeline (whose `recoverBlock` already adopted this generation
    ///   and truncated to the agreed length) resumes appending after the
    ///   retained prefix.
    /// * Newer generation → reset to empty (a rebuilt pipeline resending
    ///   the block from scratch).
    /// * Older generation, or an already-finalized replica at the same
    ///   generation → rejected.
    pub fn create_rbw(&self, block: BlockId, gen: GenStamp) -> DfsResult<()> {
        let mut map = self.replicas.lock();
        if let Some(existing) = map.get(&block) {
            let mut rep = existing.lock();
            if rep.finalized && rep.gen >= gen {
                return Err(DfsError::internal(format!(
                    "replica {block} already finalized"
                )));
            }
            if rep.gen < gen {
                // Newer generation: reset in place so concurrent holders
                // of this replica handle observe the restart.
                *rep = Replica::empty(gen);
            }
            // Same generation: resume the recovered replica in place.
            return rep.expect_gen(block, gen);
        }
        map.insert(block, Arc::new(Mutex::new(Replica::empty(gen))));
        Ok(())
    }

    /// [`Self::append`] for a caller that holds the payload as a plain
    /// slice: copies it into a buffer of its own first.
    pub fn write_packet(
        &self,
        block: BlockId,
        gen: GenStamp,
        offset: u64,
        payload: &[u8],
    ) -> DfsResult<()> {
        self.append(block, gen, offset, Bytes::copy_from_slice(payload))
    }

    /// Appends a packet payload at `offset`, keeping the `Bytes` itself.
    /// Packets must arrive in order; a gap or overlap mismatch is an
    /// internal error (the wire protocol is strictly sequential per block).
    pub fn append(
        &self,
        block: BlockId,
        gen: GenStamp,
        offset: u64,
        payload: Bytes,
    ) -> DfsResult<()> {
        let rep = self.replica(block)?;
        let mut rep = rep.lock();
        rep.expect_gen(block, gen)?;
        if rep.finalized {
            return Err(DfsError::internal(format!(
                "write to finalized replica {block}"
            )));
        }
        let n = payload.len() as u64;
        // A recovered pipeline may replay a prefix we already hold.
        if offset < rep.len {
            if offset + n > rep.len {
                return Err(DfsError::internal(format!(
                    "partial overlap write in {block} at {offset}"
                )));
            }
            let mut rest = &payload[..];
            for held in rep.slices(offset, n) {
                let (head, tail) = rest.split_at(held.len());
                if held != *head {
                    return Err(DfsError::internal(format!(
                        "replay mismatch in {block} at offset {offset}"
                    )));
                }
                rest = tail;
            }
            return Ok(());
        }
        if offset != rep.len {
            return Err(DfsError::internal(format!(
                "non-sequential write in {block}: offset {offset}, have {}",
                rep.len
            )));
        }
        if n > 0 {
            rep.segments.push(payload);
            rep.len += n;
        }
        Ok(())
    }

    /// Finalizes a replica at the given length.
    pub fn finalize(&self, block: BlockId, gen: GenStamp, len: u64) -> DfsResult<ExtendedBlock> {
        let rep = self.replica(block)?;
        let mut rep = rep.lock();
        rep.expect_gen(block, gen)?;
        if rep.len != len {
            return Err(DfsError::internal(format!(
                "finalize length mismatch for {block}: stored {}, claimed {len}",
                rep.len
            )));
        }
        rep.finalized = true;
        Ok(ExtendedBlock::new(block, gen, len))
    }

    /// `recoverBlock`: adopt `new_gen` and truncate to `new_len`
    /// (Algorithm 3 line 11, executed on every surviving replica).
    pub fn recover(
        &self,
        block: BlockId,
        new_gen: GenStamp,
        new_len: u64,
    ) -> DfsResult<ExtendedBlock> {
        let rep = self.replica(block)?;
        let mut rep = rep.lock();
        if new_gen < rep.gen {
            return Err(DfsError::StaleGeneration {
                block,
                expected: rep.gen.raw(),
                got: new_gen.raw(),
            });
        }
        if rep.len < new_len {
            return Err(DfsError::internal(format!(
                "recovery target length {new_len} exceeds stored {} for {block}",
                rep.len
            )));
        }
        rep.gen = new_gen;
        rep.truncate(new_len);
        rep.finalized = false;
        Ok(ExtendedBlock::new(block, new_gen, new_len))
    }

    /// Current state of a replica: `(block, finalized)`.
    pub fn replica_info(&self, block: BlockId) -> Option<(ExtendedBlock, bool)> {
        let rep = self.replicas.lock().get(&block).cloned()?;
        let r = rep.lock();
        Some((ExtendedBlock::new(block, r.gen, r.len), r.finalized))
    }

    /// Reads a range of a replica as slices of the stored segments, in
    /// order. Only finalized replicas of the right generation are
    /// readable (simplified HDFS visibility).
    pub fn read(
        &self,
        block: BlockId,
        gen: GenStamp,
        offset: u64,
        len: u64,
    ) -> DfsResult<Vec<Bytes>> {
        let rep = self.replica(block)?;
        let rep = rep.lock();
        rep.expect_gen(block, gen)?;
        if !rep.finalized {
            return Err(DfsError::internal(format!("read of RBW replica {block}")));
        }
        if offset.checked_add(len).is_none_or(|end| end > rep.len) {
            return Err(DfsError::internal(format!(
                "read range {offset}+{len} out of bounds for {block} ({} bytes)",
                rep.len
            )));
        }
        Ok(rep.slices(offset, len))
    }

    /// Deletes a replica (block retired).
    pub fn remove(&self, block: BlockId) -> bool {
        self.replicas.lock().remove(&block).is_some()
    }

    /// Total bytes stored (for heartbeat `used` reporting).
    pub fn used_bytes(&self) -> u64 {
        self.replicas
            .lock()
            .values()
            .map(|r| r.lock().len)
            .sum()
    }

    pub fn replica_count(&self) -> usize {
        self.replicas.lock().len()
    }

    /// Ids of replicas still being written (RBW) — the blocks whose
    /// pipelines are in flight through this datanode right now.
    pub fn rbw_blocks(&self) -> Vec<BlockId> {
        let map = self.replicas.lock();
        let mut v: Vec<BlockId> = map
            .iter()
            .filter(|(_, r)| !r.lock().finalized)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Ids of finalized replicas (block-report support).
    pub fn finalized_blocks(&self) -> Vec<ExtendedBlock> {
        let map = self.replicas.lock();
        let mut v: Vec<ExtendedBlock> = map
            .iter()
            .filter_map(|(id, r)| {
                let r = r.lock();
                r.finalized
                    .then(|| ExtendedBlock::new(*id, r.gen, r.len))
            })
            .collect();
        v.sort_by_key(|b| b.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockId = BlockId(1);
    const G1: GenStamp = GenStamp(1);
    const G2: GenStamp = GenStamp(2);

    #[test]
    fn rbw_write_finalize_read_roundtrip() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"hello ").unwrap();
        s.write_packet(B, G1, 6, b"world").unwrap();
        let fin = s.finalize(B, G1, 11).unwrap();
        assert_eq!(fin, ExtendedBlock::new(B, G1, 11));
        assert_eq!(s.read(B, G1, 0, 11).unwrap().concat(), b"hello world");
        assert_eq!(s.read(B, G1, 6, 5).unwrap().concat(), b"world");
        assert_eq!(s.used_bytes(), 11);
        assert_eq!(s.finalized_blocks(), vec![fin]);
    }

    #[test]
    fn out_of_order_write_rejected() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        let err = s.write_packet(B, G1, 10, b"x").unwrap_err();
        assert!(matches!(err, DfsError::Internal(_)));
    }

    #[test]
    fn replayed_prefix_is_idempotent_but_mismatch_fails() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"abcd").unwrap();
        // Exact replay of a stored prefix is fine (post-recovery resend).
        s.write_packet(B, G1, 0, b"abcd").unwrap();
        assert_eq!(s.replica_info(B).unwrap().0.len, 4);
        // A different payload at the same offset is corruption.
        assert!(s.write_packet(B, G1, 0, b"XXXX").is_err());
    }

    #[test]
    fn wrong_generation_rejected_everywhere() {
        let s = BlockStore::new();
        s.create_rbw(B, G2).unwrap();
        assert!(matches!(
            s.write_packet(B, G1, 0, b"x"),
            Err(DfsError::StaleGeneration { .. })
        ));
        assert!(s.finalize(B, G1, 0).is_err());
        s.write_packet(B, G2, 0, b"ab").unwrap();
        s.finalize(B, G2, 2).unwrap();
        assert!(s.read(B, G1, 0, 2).is_err());
    }

    #[test]
    fn finalize_length_must_match() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"abc").unwrap();
        assert!(s.finalize(B, G1, 5).is_err());
        s.finalize(B, G1, 3).unwrap();
        // Double-finalize via create_rbw is refused.
        assert!(s.create_rbw(B, G1).is_err());
    }

    #[test]
    fn rbw_not_readable() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"abc").unwrap();
        assert!(s.read(B, G1, 0, 3).is_err());
    }

    #[test]
    fn recovery_truncates_and_bumps_gen() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"0123456789").unwrap();
        // Pipeline died mid-block; agree on length 6 under gen 2.
        let rec = s.recover(B, G2, 6).unwrap();
        assert_eq!(rec, ExtendedBlock::new(B, G2, 6));
        let (info, finalized) = s.replica_info(B).unwrap();
        assert_eq!(info.len, 6);
        assert_eq!(info.gen, G2);
        assert!(!finalized);
        // Resume writing under the new generation.
        s.write_packet(B, G2, 6, b"xy").unwrap();
        s.finalize(B, G2, 8).unwrap();
        assert_eq!(s.read(B, G2, 0, 8).unwrap().concat(), b"012345xy");
        // Recovery cannot go back in generations.
        assert!(s.recover(B, G1, 4).is_err());
        // Nor extend beyond stored data.
        assert!(s.recover(B, GenStamp(3), 100).is_err());
    }

    #[test]
    fn recreate_rbw_after_recovery_resets_data() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"stale").unwrap();
        // Rebuilt pipeline restarts the block from scratch at gen 2.
        s.create_rbw(B, G2).unwrap();
        let (info, _) = s.replica_info(B).unwrap();
        assert_eq!(info.len, 0);
        assert_eq!(info.gen, G2);
        // And a stale-generation recreate is refused.
        assert!(matches!(
            s.create_rbw(B, G1),
            Err(DfsError::StaleGeneration { .. })
        ));
    }

    #[test]
    fn read_out_of_bounds_fails() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        s.write_packet(B, G1, 0, b"abc").unwrap();
        s.finalize(B, G1, 3).unwrap();
        assert!(s.read(B, G1, 2, 5).is_err());
        assert!(s.read(B, G1, u64::MAX, 1).is_err());
    }

    #[test]
    fn remove_and_counts() {
        let s = BlockStore::new();
        s.create_rbw(B, G1).unwrap();
        assert_eq!(s.replica_count(), 1);
        assert!(s.remove(B));
        assert!(!s.remove(B));
        assert_eq!(s.replica_count(), 0);
        assert!(s.write_packet(B, G1, 0, b"x").is_err());
    }

    #[test]
    fn unknown_block_operations_fail() {
        let s = BlockStore::new();
        assert!(matches!(
            s.write_packet(BlockId(9), G1, 0, b"x"),
            Err(DfsError::UnknownBlock(_))
        ));
        assert!(s.finalize(BlockId(9), G1, 0).is_err());
        assert!(s.recover(BlockId(9), G1, 0).is_err());
        assert!(s.replica_info(BlockId(9)).is_none());
    }

    #[test]
    fn concurrent_blocks_are_independent() {
        let s = std::sync::Arc::new(BlockStore::new());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    let b = BlockId(i);
                    s.create_rbw(b, G1).unwrap();
                    for k in 0..16u64 {
                        let payload = vec![i as u8; 64];
                        s.write_packet(b, G1, k * 64, &payload).unwrap();
                    }
                    s.finalize(b, G1, 1024).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.replica_count(), 8);
        for i in 0..8u64 {
            let data = s.read(BlockId(i), G1, 0, 1024).unwrap().concat();
            assert!(data.len() == 1024 && data.iter().all(|&x| x == i as u8));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sequential packet writes of arbitrary sizes reassemble into
        /// exactly the concatenated payload.
        #[test]
        fn packets_reassemble(payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..128), 1..16))
        {
            let s = BlockStore::new();
            let b = BlockId(1);
            s.create_rbw(b, GenStamp::INITIAL).unwrap();
            let mut offset = 0u64;
            for p in &payloads {
                s.write_packet(b, GenStamp::INITIAL, offset, p).unwrap();
                offset += p.len() as u64;
            }
            s.finalize(b, GenStamp::INITIAL, offset).unwrap();
            let all: Vec<u8> = payloads.concat();
            prop_assert_eq!(s.read(b, GenStamp::INITIAL, 0, offset).unwrap().concat(), all);
            prop_assert_eq!(s.used_bytes(), offset);
        }

        /// recover() to any valid prefix keeps exactly that prefix and
        /// allows a consistent resume.
        #[test]
        fn recovery_preserves_prefix(
            data in proptest::collection::vec(any::<u8>(), 1..512),
            cut in any::<proptest::sample::Index>(),
            resume in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let s = BlockStore::new();
            let b = BlockId(9);
            s.create_rbw(b, GenStamp::INITIAL).unwrap();
            s.write_packet(b, GenStamp::INITIAL, 0, &data).unwrap();
            let cut = cut.index(data.len() + 1) as u64;
            let g2 = GenStamp::INITIAL.next();
            s.recover(b, g2, cut).unwrap();
            s.write_packet(b, g2, cut, &resume).unwrap();
            let total = cut + resume.len() as u64;
            s.finalize(b, g2, total).unwrap();
            let mut expected = data[..cut as usize].to_vec();
            expected.extend_from_slice(&resume);
            prop_assert_eq!(s.read(b, g2, 0, total).unwrap().concat(), expected);
        }

        /// Whatever the packetisation: every `read(offset, len)` is the
        /// slice of the original, `recover` at any offset (mid-segment
        /// included) followed by appends reads back right, and a replay
        /// spanning two segments is accepted when exact and refused on a
        /// one-byte mismatch in either.
        #[test]
        fn segments_behave_as_one_byte_string(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 2..12),
            at in any::<proptest::sample::Index>(),
            span in any::<proptest::sample::Index>(),
            resume in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let (s, b, g1) = (BlockStore::new(), BlockId(3), GenStamp::INITIAL);
            s.create_rbw(b, g1).unwrap();
            let all: Vec<u8> = payloads.concat();
            let total = all.len() as u64;
            let mut offset = 0u64;
            for p in &payloads {
                s.append(b, g1, offset, Bytes::from(p.clone())).unwrap();
                offset += p.len() as u64;
            }
            prop_assert_eq!(s.replica_info(b).unwrap().0.len, total);

            // A replay across the first segment boundary.
            let first = payloads.iter().position(|p| !p.is_empty());
            if let Some(i) = first.filter(|i| payloads[i + 1..].iter().any(|p| !p.is_empty())) {
                let from = payloads[..i].concat().len() + payloads[i].len() - 1;
                let next = payloads[i + 1..].iter().find(|p| !p.is_empty()).unwrap();
                let replay = all[from..from + 1 + next.len()].to_vec();
                s.write_packet(b, g1, from as u64, &replay).unwrap();
                for flip in [0, replay.len() - 1] {
                    let mut bad = replay.clone();
                    bad[flip] ^= 0x40;
                    prop_assert!(s.write_packet(b, g1, from as u64, &bad).is_err());
                }
                prop_assert_eq!(s.replica_info(b).unwrap().0.len, total);
            }

            let start = at.index(all.len() + 1);
            let len = span.index(all.len() - start + 1);
            s.finalize(b, g1, total).unwrap();
            prop_assert_eq!(
                s.read(b, g1, start as u64, len as u64).unwrap().concat(),
                &all[start..start + len]
            );
            prop_assert!(s.read(b, g1, start as u64, total - start as u64 + 1).is_err());

            let g2 = g1.next();
            s.recover(b, g2, start as u64).unwrap();
            s.append(b, g2, start as u64, Bytes::from(resume.clone())).unwrap();
            let new_total = (start + resume.len()) as u64;
            s.finalize(b, g2, new_total).unwrap();
            prop_assert_eq!(s.used_bytes(), new_total);
            prop_assert_eq!(
                s.read(b, g2, 0, new_total).unwrap().concat(),
                [&all[..start], &resume[..]].concat()
            );
        }
    }
}
