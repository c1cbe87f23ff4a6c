//! The networked control plane: the paper's node/coordinator split over
//! real sockets.
//!
//! Everything before this crate exchanged [`fvs_cluster::NodeSummary`]
//! and [`fvs_cluster::FrequencyCommand`] through the in-process
//! [`fvs_cluster::ClusterSim`] delay queue. Here the same types travel a
//! length-prefixed, versioned wire protocol ([`wire`], JSON `FVS1` with
//! a negotiated binary `FVS2` fast path) between a TCP
//! [`coordinator::CoordinatorServer`] wrapping the real
//! [`fvs_cluster::GlobalCoordinator`] and per-node
//! [`agent::NodeAgent`]s, so heartbeat timeouts, silent-node charging
//! and blind f_min commands run against genuine socket liveness. The
//! coordinator serves every connection from one readiness-driven
//! [`reactor`] thread (epoll via the vendored `netpoll` crate — thread
//! count is O(1) in connection count); each connection's codec, chaos
//! and queueing state lives in a [`transport::Transport`]. Built
//! entirely on `std::net` TCP — the vendored, offline dependency set
//! has no async runtime, and needs none.
//!
//! The crate also hosts [`FvsError`], the unified error type of the
//! public API surface (wire / I/O / config / validation), and
//! [`args::NetArgs`], the shared CLI flag surface of the net binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod args;
pub mod chaos;
pub mod coordinator;
pub mod error;
pub mod fleet;
pub mod obs;
pub mod reactor;
pub mod snapshot;
pub mod transport;
pub mod wire;

pub use agent::{AgentConfig, AgentReport, NodeAgent, NodeAgentHandle, ReconnectLadder};
pub use args::NetArgs;
pub use chaos::{ChaosSide, ChaosStream, WireChaos};
pub use coordinator::{CoordinatorConfig, CoordinatorServer, CoordinatorStatus};
pub use error::FvsError;
pub use fleet::{AgentFleet, AgentStats, FleetHandle};
pub use obs::{http_get, HealthReport, ObsHandles, ObsServer};
pub use reactor::{Reactor, LISTENER_TOKEN, WAKER_TOKEN};
pub use snapshot::{Snapshot, SnapshotEpisode, SnapshotNode, SnapshotStore, SNAPSHOT_VERSION};
pub use transport::{FillStatus, Transport};
pub use wire::{
    decode_payload, decode_payload_binary, encode, encode_binary, encode_with, FrameFault,
    FrameReader, WireCodec, WireMsg, CODEC_ALL, CODEC_BINARY_BIT, CODEC_JSON_BIT, HEADER_LEN,
    MAGIC, MAGIC_V2, MAX_FRAME_LEN, SCHEMA_VERSION,
};

// The vendored readiness-polling layer, re-exported whole so embedders
// can reach the raw `Poller` (and `raise_nofile_limit`) without adding
// a dependency on the vendor crate themselves.
pub use netpoll;
