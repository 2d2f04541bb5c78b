//! CRC-32C (Castagnoli) implemented from scratch.
//!
//! HDFS checksums every 512-byte chunk of every packet; datanodes verify
//! before storing and forwarding (§II step 3). A put pays for that twice
//! (client compute, tail verify) and so does a get, so the digest is the
//! largest single user-mode cost of the data path.
//!
//! Two implementations produce the same bits. Where the CPU reports
//! SSE4.2 at run time, [`Crc32c::update`] uses its `crc32` instruction
//! and [`ChunkedChecksum`] walks four chunks at once: every chunk has an
//! independent CRC, so four interleaved chains hide the instruction's
//! 3-cycle latency with no polynomial-combine arithmetic (≈ 22 GiB/s over
//! 512-byte chunks). Everywhere else a lazily-built slicing-by-8 table
//! does the work (≈ 1.5 GiB/s); it is also the reference the tests hold
//! the hardware path to. Nothing selects between them but the CPU.

use std::ops::ControlFlow;
use std::sync::OnceLock;

/// The CRC-32C (Castagnoli) reversed polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Number of slicing tables (slicing-by-8).
const SLICES: usize = 8;

fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: OnceLock<Box<[[u32; 256]; SLICES]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; SLICES]);
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for slice in 1..SLICES {
            for i in 0..256 {
                let prev = t[slice - 1][i];
                t[slice][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// The slicing-by-8 table walk: the path of a CPU without SSE4.2 and the
/// reference the hardware path is tested against.
fn update_table(mut crc: u32, mut data: &[u8]) -> u32 {
    let t = tables();
    while data.len() >= 8 {
        let chunk: [u8; 8] = data[..8].try_into().unwrap();
        let low = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        let high = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = t[7][(low & 0xFF) as usize]
            ^ t[6][((low >> 8) & 0xFF) as usize]
            ^ t[5][((low >> 16) & 0xFF) as usize]
            ^ t[4][((low >> 24) & 0xFF) as usize]
            ^ t[3][(high & 0xFF) as usize]
            ^ t[2][((high >> 8) & 0xFF) as usize]
            ^ t[1][((high >> 16) & 0xFF) as usize]
            ^ t[0][((high >> 24) & 0xFF) as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The SSE4.2 `crc32` instruction. All `unsafe` of the crate is here: a
/// [`hw::Sse42`] can only be had from [`hw::Sse42::detect`], so holding
/// one proves the instruction exists on this CPU.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw {
    #![deny(unsafe_op_in_unsafe_fn)]
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Number of chunks [`Sse42::chunk_crcs`] digests per call.
    pub(super) const LANES: usize = 4;

    #[derive(Clone, Copy)]
    pub(super) struct Sse42(());

    impl Sse42 {
        pub(super) fn detect() -> Option<Self> {
            is_x86_feature_detected!("sse4.2").then_some(Sse42(()))
        }

        /// Advances the raw (un-inverted) CRC state over `data`.
        pub(super) fn update(self, state: u32, data: &[u8]) -> u32 {
            // SAFETY: `self` exists, so `detect` saw sse4.2 on this CPU.
            unsafe { update(state, data) }
        }

        /// The finished CRCs of the [`LANES`] consecutive `chunk`-byte
        /// chunks of `group`.
        pub(super) fn chunk_crcs(self, group: &[u8], chunk: usize) -> [u32; LANES] {
            assert_eq!(group.len(), LANES * chunk);
            // SAFETY: `self` exists, so `detect` saw sse4.2 on this CPU.
            unsafe { chunk_crcs(group, chunk) }
        }
    }

    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("chunks_exact(8)"))
    }

    /// # Safety
    /// The CPU must support SSE4.2.
    // The intrinsics are `unsafe fn` up to Rust 1.86 and safe inside a
    // `target_feature` fn after it; `rust-version` admits both.
    #[allow(unused_unsafe)]
    #[target_feature(enable = "sse4.2")]
    unsafe fn update(state: u32, data: &[u8]) -> u32 {
        let mut crc = u64::from(state);
        let words = data.chunks_exact(8);
        let tail = words.remainder();
        // SAFETY: sse4.2 is this function's precondition; the operands
        // are plain integers, no memory is touched.
        unsafe {
            for w in words {
                crc = _mm_crc32_u64(crc, word(w));
            }
            let mut crc = crc as u32;
            for &b in tail {
                crc = _mm_crc32_u8(crc, b);
            }
            crc
        }
    }

    /// One dependency chain per chunk: a `crc32` has a latency of 3
    /// cycles and a throughput of one per cycle, and chunk CRCs do not
    /// depend on each other, so the chains overlap in the pipeline.
    ///
    /// # Safety
    /// The CPU must support SSE4.2.
    #[allow(unused_unsafe)]
    #[target_feature(enable = "sse4.2")]
    unsafe fn chunk_crcs(group: &[u8], chunk: usize) -> [u32; LANES] {
        let (a, rest) = group.split_at(chunk);
        let (b, rest) = rest.split_at(chunk);
        let (c, d) = rest.split_at(chunk);
        let mut crc = [u64::from(!0u32); LANES];
        let words = a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8).zip(d.chunks_exact(8)));
        // SAFETY: sse4.2 is this function's precondition; the operands
        // are plain integers, no memory is touched.
        unsafe {
            for ((wa, wb), (wc, wd)) in words {
                crc[0] = _mm_crc32_u64(crc[0], word(wa));
                crc[1] = _mm_crc32_u64(crc[1], word(wb));
                crc[2] = _mm_crc32_u64(crc[2], word(wc));
                crc[3] = _mm_crc32_u64(crc[3], word(wd));
            }
            // The up to seven odd bytes of a chunk size that is not a
            // multiple of 8.
            for (crc, lane) in crc.iter_mut().zip([a, b, c, d]) {
                for &byte in &lane[chunk - chunk % 8..] {
                    *crc = u64::from(_mm_crc32_u8(*crc as u32, byte));
                }
            }
        }
        crc.map(|c| !(c as u32))
    }
}

/// Streaming CRC-32C hasher. Feed bytes with [`Crc32c::update`], read the
/// digest with [`Crc32c::finalize`]. Incremental use produces exactly the
/// same digest as a single [`crc32c`] call over the concatenated input
/// (property-tested below).
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    pub fn new() -> Self {
        Self { state: !0 }
    }

    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = hw::Sse42::detect() {
            self.state = cpu.update(self.state, data);
            return;
        }
        self.state = update_table(self.state, data);
    }

    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

/// Per-chunk checksum layout used by data packets: one CRC-32C per
/// `chunk_size` bytes of payload, mirroring HDFS's `bytes.per.checksum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedChecksum {
    pub chunk_size: usize,
}

impl ChunkedChecksum {
    pub const DEFAULT_CHUNK: usize = 512;

    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self { chunk_size }
    }

    /// Number of checksums covering `payload_len` bytes.
    pub fn count_for(&self, payload_len: usize) -> usize {
        payload_len.div_ceil(self.chunk_size)
    }

    /// Hands `each` the CRC of every chunk of `payload`, in order, until
    /// it breaks. Whole groups of four chunks go through the hardware's
    /// interleaved lanes where it has them; the left-over chunks and the
    /// short tail go one at a time.
    fn walk_chunks(
        &self,
        payload: &[u8],
        mut each: impl FnMut(usize, u32) -> ControlFlow<usize>,
    ) -> ControlFlow<usize> {
        let mut index = 0;
        let rest = payload;
        #[cfg(target_arch = "x86_64")]
        let rest = match hw::Sse42::detect() {
            Some(cpu) => {
                let mut groups = rest.chunks_exact(hw::LANES * self.chunk_size);
                for group in &mut groups {
                    for crc in cpu.chunk_crcs(group, self.chunk_size) {
                        each(index, crc)?;
                        index += 1;
                    }
                }
                groups.remainder()
            }
            None => rest,
        };
        for chunk in rest.chunks(self.chunk_size) {
            each(index, crc32c(chunk))?;
            index += 1;
        }
        ControlFlow::Continue(())
    }

    /// Computes the checksum vector for a payload.
    pub fn compute(&self, payload: &[u8]) -> Vec<u32> {
        let mut sums = Vec::with_capacity(self.count_for(payload.len()));
        let _ = self.walk_chunks(payload, |_, crc| {
            sums.push(crc);
            ControlFlow::Continue(())
        });
        sums
    }

    /// Verifies a payload against its checksum vector. Returns the index
    /// of the first corrupt chunk, or `None` if everything matches.
    pub fn first_corrupt_chunk(&self, payload: &[u8], sums: &[u32]) -> Option<usize> {
        if sums.len() != self.count_for(payload.len()) {
            // A length mismatch means the frame itself is inconsistent;
            // report it as corruption of chunk 0.
            return Some(0);
        }
        self.walk_chunks(payload, |index, crc| {
            if crc == sums[index] {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(index)
            }
        })
        .break_value()
    }

    pub fn verify(&self, payload: &[u8], sums: &[u32]) -> bool {
        self.first_corrupt_chunk(payload, sums).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Chunks per group of the hardware walk (`hw::LANES` where it exists).
    const WIDE: usize = 4;

    /// The table walk called directly, whatever the CPU.
    fn table_crc(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    /// Deterministic filler that no chunk boundary lines up with.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// Known-answer tests from RFC 3720 (iSCSI) appendix B.4, through the
    /// dispatching `update` and through the table walk.
    #[test]
    fn rfc3720_vectors() {
        for crc in [crc32c, table_crc] {
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA);
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43);
            let ascending: Vec<u8> = (0u8..32).collect();
            assert_eq!(crc(&ascending), 0x46DD_794E);
            let descending: Vec<u8> = (0u8..32).rev().collect();
            assert_eq!(crc(&descending), 0x113F_DB5C);
        }
    }

    #[test]
    fn crc_of_empty_is_zero() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32c(&copy), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn chunked_checksum_counts() {
        let c = ChunkedChecksum::new(512);
        assert_eq!(c.count_for(0), 0);
        assert_eq!(c.count_for(1), 1);
        assert_eq!(c.count_for(512), 1);
        assert_eq!(c.count_for(513), 2);
        assert_eq!(c.count_for(64 * 1024), 128);
    }

    #[test]
    fn chunked_verify_locates_corruption() {
        let c = ChunkedChecksum::new(8);
        let payload: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let sums = c.compute(&payload);
        assert!(c.verify(&payload, &sums));

        let mut corrupt = payload.clone();
        corrupt[19] ^= 0xFF; // chunk index 2
        assert_eq!(c.first_corrupt_chunk(&corrupt, &sums), Some(2));
        assert!(!c.verify(&corrupt, &sums));
    }

    #[test]
    fn chunked_verify_rejects_wrong_sum_count() {
        let c = ChunkedChecksum::new(8);
        let payload = vec![1u8; 16];
        let sums = c.compute(&payload);
        assert_eq!(c.first_corrupt_chunk(&payload, &sums[..1]), Some(0));
    }

    /// Every chunk size, with 0–3 whole chunks and a short tail left
    /// over after the four-wide groups, against the table walk per chunk.
    #[test]
    fn chunked_compute_equals_table_per_chunk() {
        let data = noise(2 * WIDE * 600 + 3 * 600 + 599);
        for chunk in 1..=600 {
            let c = ChunkedChecksum::new(chunk);
            for groups in [0, 2] {
                for left_over in 0..WIDE {
                    for tail in [0, 1, chunk - 1] {
                        let len = (groups * WIDE + left_over) * chunk + tail;
                        let expect: Vec<u32> = data[..len].chunks(chunk).map(table_crc).collect();
                        assert_eq!(c.compute(&data[..len]), expect, "chunk {chunk}, len {len}");
                        assert_eq!(c.first_corrupt_chunk(&data[..len], &expect), None);
                    }
                }
            }
        }
    }

    /// The lowest corrupt index is reported wherever the damage sits:
    /// each lane of a four-wide group, the left-over chunks, the tail,
    /// and two places at once.
    #[test]
    fn first_corrupt_chunk_is_the_lowest_in_every_position() {
        let c = ChunkedChecksum::new(64);
        // Two four-wide groups, three left-over chunks, a 9-byte tail.
        let payload = noise(11 * 64 + 9);
        let sums = c.compute(&payload);
        assert_eq!(sums.len(), 12);
        let flipped = |bytes: &[usize]| {
            let mut copy = payload.clone();
            for &at in bytes {
                copy[at] ^= 0x10;
            }
            copy
        };
        for index in 0..12 {
            let at = index * 64 + 5;
            assert_eq!(c.first_corrupt_chunk(&flipped(&[at]), &sums), Some(index));
            for later in index + 1..12 {
                let both = flipped(&[later * 64 + 7, at]);
                assert_eq!(c.first_corrupt_chunk(&both, &sums), Some(index));
            }
        }
        assert_eq!(c.first_corrupt_chunk(&payload, &sums[..11]), Some(0));
    }

    proptest! {
        /// Incremental hashing over arbitrary split points, from an even
        /// and from an odd address, equals the table walk in one shot.
        #[test]
        fn dispatch_equals_table(data in proptest::collection::vec(any::<u8>(), 1..4098),
                                 split in 0usize..4097) {
            for data in [&data[..], &data[1..]] {
                let split = split.min(data.len());
                let mut h = Crc32c::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                prop_assert_eq!(h.finalize(), table_crc(data));
            }
        }

        /// Byte-at-a-time equals slicing path.
        #[test]
        fn bytewise_equals_sliced(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut h = Crc32c::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            prop_assert_eq!(h.finalize(), crc32c(&data));
        }

        /// compute/verify round-trips for arbitrary payloads and chunk sizes.
        #[test]
        fn chunked_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..1024),
                             chunk in 1usize..128) {
            let c = ChunkedChecksum::new(chunk);
            let sums = c.compute(&data);
            prop_assert_eq!(sums.len(), c.count_for(data.len()));
            prop_assert!(c.verify(&data, &sums));
        }
    }
}
