//! # fmml-serve — multi-tenant streaming imputation server
//!
//! The deployment layer for the paper's §5 real-time target: many
//! operator collectors stream coarse telemetry intervals over TCP; the
//! server imputes each port's fine-grained series through the
//! Transformer+KAL model and the CEM degradation ladder, and answers
//! inside the 50 ms wire period.
//!
//! Four pieces, all std-only (no async runtime — the vendored-deps
//! constraint is a feature here: the whole serving stack is plain
//! threads and sockets):
//!
//! * [`protocol`] — length-prefixed JSON frames ([`Frame`]), hardened
//!   against hostile length prefixes and garbage payloads
//!   ([`WireError`], [`MAX_FRAME_LEN`]).
//! * [`server`] — acceptor + reader-per-session + shared CEM worker
//!   pool with deadline-aware micro-batching
//!   ([`ServerConfig`], [`spawn`], [`ServerHandle`]). Sessions shard
//!   per-tenant sliding windows ([`fmml_core::streaming`]); workers
//!   coalesce prepared windows across tenants into single
//!   `enforce_degraded_batch` calls over one shared solution cache.
//!   Admission control bounds each session's in-flight budget (`Busy`),
//!   slow readers are disconnected, shutdown drains gracefully.
//! * [`session`] — the sans-IO session-protocol core ([`SessionCore`]):
//!   handshake, resume tokens, parking, replay and exactly-once
//!   bookkeeping, shared by [`server`] and the `fmml-cluster` router.
//! * [`loadgen`] — trace-replay load generator
//!   ([`LoadgenConfig`], [`run_loadgen`], [`LoadReport`]): M concurrent
//!   clients replaying `netsim` telemetry with optional chaos
//!   ([`ChaosConfig`]: disconnects, corrupted frames, malformed
//!   updates, reordering), measuring end-to-end latency percentiles and
//!   deadline-miss rate against the wire period.
//!
//! Everything is instrumented through `fmml-obs` (`serve.*` metrics);
//! the `ledger/` benchmark drives a server through open-loop clients
//! and reports client-observed latency per stage.

pub mod loadgen;
pub mod protocol;
pub mod replay_log;
pub mod server;
pub mod session;
pub mod sim;
pub mod transport;

pub use loadgen::{
    run as run_loadgen, run_with as run_loadgen_with, ChaosConfig, LoadReport, LoadgenConfig,
};
pub use protocol::{Frame, WireCodec, WireError, MAX_FRAME_LEN};
pub use server::{spawn, spawn_with, ServerConfig, ServerHandle};
pub use session::{ProtocolBug, SessionCore};
pub use sim::{FaultCounts, FaultProfile, SimConn, SimConnector, SimNet, SimTransport};
pub use transport::{Accepted, Conn, Connector, TcpConnector, TcpTransport, Transport};
