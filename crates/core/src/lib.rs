//! # smarth-core
//!
//! Shared substrate for the SMARTH reproduction: strongly-typed ids and
//! units, protocol configuration and the EC2 cluster presets of Table I,
//! CRC-32C checksumming, the wire codec and the one table that declares
//! every protocol message, the rack-aware topology, both datanode placement policies
//! (stock HDFS and SMARTH's Algorithm 1), the client-side local
//! optimization (Algorithm 2), transfer-speed tracking (§III-B) and the
//! closed-form cost model of §III-D.
//!
//! This crate is I/O-free: everything here is pure logic that both the
//! real-time emulated cluster (`smarth-fabric` + node crates) and the
//! deterministic simulator (`smarth-sim`) build on, so the two engines
//! can never drift apart on policy decisions.

// The one exception is `checksum::hw`, the SSE4.2 `crc32` instruction.
#![deny(unsafe_code)]

// Lets `json/golden.rs`, which other crates' tests include too, name
// this crate the way they do.
#[cfg(test)]
extern crate self as smarth_core;

pub mod checksum;
pub mod config;
pub mod costmodel;
pub mod error;
pub mod hop;
pub mod ids;
pub mod json;
pub mod localopt;
pub mod obs;
pub mod placement;
pub mod proto;
pub mod recovery;
pub mod shard;
pub mod speed;
pub mod topology;
pub mod trace;
pub mod units;
pub mod wire;
pub mod write;

pub use config::{ClusterSpec, DfsConfig, HostRole, HostSpec, InstanceType, WriteMode};
pub use error::{DfsError, DfsResult};
pub use obs::{
    EventRecord, EventSink, FanoutSink, JsonLinesSink, Metrics, NullSink, Obs, ObsEvent,
    RecoveryCause, RingBufferSink, SpeedObservation, TraceCtx,
};
pub use ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp, PacketSeq, PipelineId,
    SpanId, TraceId,
};
pub use trace::{BlockTimeline, TraceAssembler, TraceReport};
pub use units::{Bandwidth, ByteSize, SimDuration, SimInstant};
