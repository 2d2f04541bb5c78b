//! # smarth-client
//!
//! The DFS client: namenode RPC stub, write pipelines with
//! PacketResponder threads, and [`DfsOutputStream`] implementing both
//! write protocols — stock HDFS stop-and-wait and SMARTH's asynchronous
//! multi-pipeline transfer with FNFA-triggered pipelining (§III-A),
//! client-side local optimization (Algorithm 2) and the multi-pipeline
//! fault-tolerance of Algorithms 3/4. [`DfsClient`] adds the `put`/`get`
//! surface and the 3-second speed-report heartbeat (§III-B).

#![forbid(unsafe_code)]

mod client;
pub mod istream;
pub mod ostream;
pub mod pipeline;
pub mod rpc;

pub use client::{DfsClient, UploadReport};
pub use istream::{BlockGap, DfsInputStream, SalvageReport};
pub use ostream::{DfsOutputStream, StreamStats};
pub use pipeline::{Pipeline, PipelineEvent, PipelineEventKind};
pub use rpc::NamenodeClient;
