//! # tenantdb-net
//!
//! The serving frontend: a versioned binary wire protocol, a
//! multi-threaded TCP server fronting a
//! [`SystemController`](tenantdb_platform::SystemController), and a
//! blocking native client library.
//!
//! The paper's platform is *served* — applications reach their database
//! through a connection to the colo, not by linking the controller into
//! their process. This crate supplies that missing tier:
//!
//! * [`wire`]: length-prefixed frames with a handshake (protocol version,
//!   database, read-routing/write-policy negotiation), typed result sets,
//!   and error frames that round-trip
//!   [`ClusterError`](tenantdb_cluster::ClusterError) so failure
//!   classification (deadlock vs. SLA rejection) survives the wire.
//! * [`server`]: a readiness-driven event loop — a few reactor threads
//!   (epoll via a std-only syscall shim in [`reactor`]) multiplex every
//!   connection, with per-connection state machines for frame
//!   decode/encode and write coalescing; requests that may block run as
//!   tasks on a cluster [`WorkerPool`](tenantdb_cluster::WorkerPool).
//!   Limits are reactor policy: accept backpressure at the connection
//!   cap, read/write/idle deadlines on a timer wheel, slow-reader
//!   read-pausing, graceful drain.
//! * [`client`]: [`NetClient`] — connect with retry/backoff, pipelined
//!   statements and batched Execute frames (one frame carries a whole
//!   transaction body), and an API mirroring the in-process connection.
//!   It implements [`tenantdb_cluster::Transport`], so the TPC-W driver
//!   and the shell run unchanged over TCP — batched, they run a whole
//!   transaction in one round-trip.
//!
//! ```no_run
//! use tenantdb_net::{Server, ServerConfig, NetClient, ConnectOptions};
//! use tenantdb_platform::{PlatformConfig, SystemController};
//!
//! let system = SystemController::new(
//!     PlatformConfig::for_tests(),
//!     &[("hq", (0.0, 0.0))],
//! );
//! system.create_database("app", (0.0, 0.0), Default::default()).unwrap();
//!
//! let server = Server::start("127.0.0.1:0", system, ServerConfig::default()).unwrap();
//! let client = NetClient::connect(server.local_addr(), "app", ConnectOptions::default()).unwrap();
//! client.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", &[]).unwrap();
//! server.shutdown();
//! ```
//!
//! Concurrency discipline: all server/client state lives behind
//! [`sync`]'s lockdep-ranked locks (net ranks 1..9, strictly outside the
//! cluster hierarchy). Fault injection: the server checks the
//! `CrashPoint::Net*` points (accept, frame read, frame write,
//! mid-response drop) against an armed
//! [`FaultInjector`](tenantdb_cluster::FaultInjector), which is how the
//! simulation harness kills connections between prepare-ack and commit.

#![warn(missing_docs)]

pub mod client;
pub mod reactor;
pub mod server;
pub mod sync;
mod sys;
pub mod wire;

pub use client::{ConnectOptions, NetClient, NetError};
pub use server::{Server, ServerConfig};
pub use wire::{ConnInfo, Frame, ReadPref, WireError, WritePref, MAX_FRAME_LEN, PROTOCOL_VERSION};
