//! Ranked synchronization primitives for the net crate.
//!
//! The serving tier sits *above* the cluster in the call graph: a session
//! thread may touch server bookkeeping and then call into a
//! platform/cluster connection (whose outermost lock is
//! `cluster.connection.state`, rank 10). Net ranks therefore occupy 1..10 —
//! strictly outside every cluster and storage class — so lockdep verifies
//! that no cluster code path can ever call back up into server state while
//! holding a deeper lock (see DESIGN.md §10 and §11).
//!
//! ```text
//! net (1..9)                    outermost: server/client bookkeeping
//!   └─ connection (10..30)      cluster connection state
//!        └─ ... (the §10 hierarchy, unchanged)
//! ```

pub use tenantdb_lockdep::{
    OrderedCondvar as Condvar, OrderedMutex as Mutex, OrderedMutexGuard as MutexGuard,
};

use tenantdb_lockdep::LockClass;

/// `Server` accept-slot accounting (condvar mutex): the number of live
/// sessions, waited on by the accept loop for connection-limit
/// backpressure and by graceful shutdown for the drain.
pub static NET_SLOTS: LockClass = LockClass::new("net.server.slots", 1);

/// `Server` session registry: id → per-session state. Held only for
/// insert/remove/listing; listing reads each session's connection state
/// (rank 6) and transaction state (rank 10), which the hierarchy permits.
pub static NET_SESSIONS: LockClass = LockClass::new("net.server.sessions", 2);

/// Reactor inbox: cross-thread messages (register, write-interest,
/// close) posted to a reactor thread, paired with its waker. Held only
/// for a push/drain — never across I/O.
pub static NET_REACTOR_INBOX: LockClass = LockClass::new("net.server.reactor_inbox", 3);

/// `NetClient` stream + session state: held across a whole request/reply
/// round-trip (the client is blocking and single-lane by design).
pub static NET_CLIENT: LockClass = LockClass::new("net.client.stream", 5);

/// Per-connection reactor state: read buffer, request lane (a
/// `cluster::pool::Lane`), reply outbox. Sits *above* the cluster connection
/// (rank 10) so `\conns` listings may read transaction state while
/// holding it, but SQL execution never runs under it — whoever runs a
/// request clones the platform connection handle out and releases this
/// lock first.
pub static NET_CONN: LockClass = LockClass::new("net.server.conn", 6);
