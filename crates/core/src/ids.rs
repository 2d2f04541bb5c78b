//! Strongly-typed identifiers used across the DFS.
//!
//! Every entity that crosses a protocol boundary (blocks, datanodes,
//! clients, packets, pipelines) gets its own newtype so that the compiler
//! rejects, e.g., passing a packet sequence number where a block id is
//! expected. All ids are plain `u64`/`u32` wrappers: cheap to copy, hash
//! and serialize (on the wire and in JSON an id is its raw integer).

use crate::error::DfsResult;
use crate::json::{Json, ToJson, Value};
use crate::wire::{Wire, WireReader, WireWriter};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw numeric value of the id.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl Wire for $name {
            fn encode(&self, w: &mut WireWriter) {
                self.0.encode(w);
            }
            fn decode(r: &mut WireReader) -> DfsResult<Self> {
                <$inner>::decode(r).map(Self)
            }
        }

        impl ToJson for $name {
            fn to_json(&self) -> Value {
                self.0.to_json()
            }
        }

        impl Json for $name {
            fn from_json(v: &Value) -> DfsResult<Self> {
                <$inner>::from_json(v).map(Self)
            }
        }

        #[cfg(test)]
        impl crate::wire::testing::WireSample for $name {
            fn sample(rng: &mut crate::wire::testing::SampleRng) -> Self {
                Self(<$inner>::sample(rng))
            }
        }
    };
}

id_newtype!(
    /// Identifier of a data block within the filesystem. Allocated by the
    /// namenode in `add_block` and unique for the lifetime of the namespace.
    BlockId,
    u64,
    "blk_"
);

id_newtype!(
    /// Generation stamp of a block. Bumped on every pipeline recovery so
    /// that stale replicas written by a failed pipeline can be told apart
    /// from replicas written by the recovered one (mirrors HDFS semantics).
    GenStamp,
    u64,
    "gs_"
);

id_newtype!(
    /// Identifier of a datanode, assigned at registration time.
    DatanodeId,
    u32,
    "dn_"
);

id_newtype!(
    /// Identifier of a client session, assigned on first namenode contact.
    ClientId,
    u64,
    "client_"
);

id_newtype!(
    /// Identifier of a file in the namespace (an inode number).
    FileId,
    u64,
    "inode_"
);

id_newtype!(
    /// Sequence number of a packet within one block transfer. The first
    /// packet of each block is sequence 0.
    PacketSeq,
    u64,
    "pkt_"
);

id_newtype!(
    /// Identifier of a write pipeline created by a client. SMARTH clients
    /// hold several live pipelines at once; the id ties acks, recovery
    /// records and metrics back to the right one.
    PipelineId,
    u64,
    "pipe_"
);

id_newtype!(
    /// Identifier of one causal trace: the full lifecycle of one block
    /// write, from `addBlock` at the namenode through every pipeline
    /// hop. Minted by the namenode when the block is allocated and
    /// propagated across every RPC boundary so that client, namenode
    /// and datanode events can be joined mechanically.
    TraceId,
    u64,
    "trace_"
);

id_newtype!(
    /// Identifier of one span inside a trace (allocation, a pipeline,
    /// one hop's replica write, a recovery attempt…). The root span is
    /// minted with the trace; sub-spans are derived with
    /// [`SpanId::child`] so no cross-process coordination is needed.
    SpanId,
    u64,
    "span_"
);

impl TraceId {
    /// Sentinel used in wire messages emitted by untraced paths.
    pub const INVALID: TraceId = TraceId(u64::MAX);

    /// True when this is a real (non-sentinel) trace id.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != TraceId::INVALID
    }
}

impl SpanId {
    /// Sentinel used in wire messages emitted by untraced paths.
    pub const INVALID: SpanId = SpanId(u64::MAX);

    /// True when this is a real (non-sentinel) span id.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != SpanId::INVALID
    }

    /// Derives a child span id from this span and a small salt (e.g. the
    /// pipeline position). The derivation is a splitmix64-style mix so
    /// ids stay unique-in-practice without a shared counter — each
    /// process can derive its own sub-spans deterministically.
    #[must_use]
    pub fn child(self, salt: u64) -> SpanId {
        let mut z = self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SpanId(z ^ (z >> 31))
    }
}

impl GenStamp {
    /// The initial generation stamp for a freshly allocated block.
    pub const INITIAL: GenStamp = GenStamp(1);

    /// Returns the next generation stamp (used during block recovery).
    #[inline]
    #[must_use]
    pub fn next(self) -> GenStamp {
        GenStamp(self.0 + 1)
    }
}

impl BlockId {
    /// Sentinel used in wire messages that carry "no block".
    pub const INVALID: BlockId = BlockId(u64::MAX);
}

/// A block id together with its generation stamp — the unit that datanodes
/// store and the namenode tracks. Two `ExtendedBlock`s with equal ids but
/// different generation stamps refer to different replica generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtendedBlock {
    pub id: BlockId,
    pub gen: GenStamp,
    /// Number of bytes of the block that are expected/known to be valid.
    pub len: u64,
}

impl ExtendedBlock {
    pub fn new(id: BlockId, gen: GenStamp, len: u64) -> Self {
        Self { id, gen, len }
    }

    /// The same block with a bumped generation stamp and (possibly) a new
    /// agreed length after recovery.
    #[must_use]
    pub fn recovered(self, new_len: u64) -> Self {
        Self {
            id: self.id,
            gen: self.gen.next(),
            len: new_len,
        }
    }
}

impl fmt::Display for ExtendedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}B", self.id, self.gen, self.len)
    }
}

/// Monotonic id generator backed by an atomic counter. One instance per id
/// space lives in the namenode; the generator is lock-free and safe to
/// share between RPC handler threads.
#[derive(Debug)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    pub const fn starting_at(first: u64) -> Self {
        Self {
            next: AtomicU64::new(first),
        }
    }

    /// Allocates the next id. Wrapping is a non-issue for u64 counters.
    #[inline]
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Highest id handed out so far plus one (i.e. the next allocation).
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl Default for IdGenerator {
    fn default() -> Self {
        Self::starting_at(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn display_formats_are_prefixed() {
        assert_eq!(BlockId(7).to_string(), "blk_7");
        assert_eq!(DatanodeId(3).to_string(), "dn_3");
        assert_eq!(ClientId(12).to_string(), "client_12");
        assert_eq!(GenStamp(2).to_string(), "gs_2");
        assert_eq!(PipelineId(1).to_string(), "pipe_1");
        assert_eq!(TraceId(4).to_string(), "trace_4");
        assert_eq!(SpanId(9).to_string(), "span_9");
    }

    #[test]
    fn span_children_are_distinct_and_deterministic() {
        let root = SpanId(42);
        let kids: Vec<SpanId> = (0..64).map(|i| root.child(i)).collect();
        let mut uniq = kids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), kids.len(), "child spans must not collide");
        assert_eq!(root.child(3), SpanId(42).child(3), "derivation is pure");
        assert!(kids.iter().all(|k| *k != root && k.is_valid()));
        assert!(!SpanId::INVALID.is_valid());
        assert!(!TraceId::INVALID.is_valid());
    }

    #[test]
    fn gen_stamp_next_is_monotonic() {
        let g = GenStamp::INITIAL;
        assert!(g.next() > g);
        assert_eq!(g.next().raw(), 2);
    }

    #[test]
    fn extended_block_recovery_bumps_gen_and_sets_len() {
        let b = ExtendedBlock::new(BlockId(5), GenStamp::INITIAL, 1024);
        let r = b.recovered(512);
        assert_eq!(r.id, b.id);
        assert_eq!(r.gen, b.gen.next());
        assert_eq!(r.len, 512);
        assert_ne!(b, r, "recovered block must not compare equal");
    }

    #[test]
    fn id_generator_is_dense_and_unique_across_threads() {
        let g = Arc::new(IdGenerator::starting_at(100));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000, "ids must be unique");
        assert_eq!(*all.first().unwrap(), 100);
        assert_eq!(*all.last().unwrap(), 8099, "ids must be dense");
    }

    #[test]
    fn ordered_ids_sort_by_raw_value() {
        let mut v = vec![BlockId(3), BlockId(1), BlockId(2)];
        v.sort();
        assert_eq!(v, vec![BlockId(1), BlockId(2), BlockId(3)]);
    }
}
