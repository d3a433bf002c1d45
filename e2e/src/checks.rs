//! Correctness checks that need a system of their own.
//!
//! The checks tied to a workload's own clusters (replica convergence, DR
//! row counts, fencing, controller invariants) live beside the workload.

use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tenantdb_cluster::{BatchMode, BatchStmt, ClusterError, Transport};
use tenantdb_net::{ConnectOptions, NetClient, Server, ServerConfig};
use tenantdb_sql::QueryResult;
use tenantdb_storage::{EngineConfig, Value};
use tenantdb_tpcw::{run_txn, IdCounters, Mix, Scale, Session};

use crate::report::Check;
use crate::stream::{fnv1a, session_seed, FNV_OFFSET};
use crate::workloads::{create_tpcw_on_system, single_cluster_system};

/// Transactions replayed through each transport.
const IDENTITY_TXNS: usize = 2000;
const IDENTITY_ITEMS: usize = 100;

/// A transport that folds every result it returns into a running hash.
struct Digesting<T> {
    inner: T,
    hash: Cell<u64>,
    results: Cell<u64>,
}

impl<T> Digesting<T> {
    fn new(inner: T) -> Self {
        Digesting {
            inner,
            hash: Cell::new(FNV_OFFSET),
            results: Cell::new(0),
        }
    }

    fn fold(&self, r: &QueryResult) {
        // What a client can see of a result: columns, rows, affected count.
        // (`touched_*` is controller-internal bookkeeping, not on the wire.)
        let text = format!("{:?}|{:?}|{}", r.columns, r.rows, r.rows_affected);
        self.hash.set(fnv1a(self.hash.get(), text.as_bytes()));
        self.results.set(self.results.get() + 1);
    }
}

impl<T: Transport> Transport for Digesting<T> {
    fn begin(&self) -> Result<(), ClusterError> {
        self.inner.begin()
    }
    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        let r = self.inner.execute(sql, params)?;
        self.fold(&r);
        Ok(r)
    }
    fn commit(&self) -> Result<(), ClusterError> {
        self.inner.commit()
    }
    fn rollback(&self) -> Result<(), ClusterError> {
        self.inner.rollback()
    }
    fn in_txn(&self) -> bool {
        self.inner.in_txn()
    }
    fn execute_batch(
        &self,
        stmts: &[BatchStmt],
        mode: BatchMode,
    ) -> Result<Vec<QueryResult>, ClusterError> {
        let rs = self.inner.execute_batch(stmts, mode)?;
        rs.iter().for_each(|r| self.fold(r));
        Ok(rs)
    }
}

/// Replay one seeded single-session stream; returns (hash, results seen).
fn replay<T: Transport>(
    conn: T,
    ids: &IdCounters,
    scale: Scale,
    mix: &Mix,
    seed: u64,
) -> Result<(u64, u64), String> {
    let conn = Digesting::new(conn);
    let mut rng = StdRng::seed_from_u64(session_seed(seed, 0, 0x1DE7));
    let mut session = Session {
        customer: 1,
        cart: None,
    };
    for i in 0..IDENTITY_TXNS {
        let kind = mix.pick(&mut rng);
        run_txn(kind, &conn, ids, scale, &mut session, &mut rng)
            .map_err(|e| format!("transaction {i} ({kind:?}) failed: {e}"))?;
    }
    Ok((conn.hash.get(), conn.results.get()))
}

/// The same seeded stream through an in-process connection and through a
/// `NetClient` over loopback, against two identically loaded databases:
/// every result row must be byte-identical. This is what makes the
/// in-process and TCP workloads provably the same work.
pub fn transport_identity(mix: &'static Mix, seed: u64) -> Check {
    let name = format!("transport_identity[{}] ({IDENTITY_TXNS} txns)", mix.name);
    let verdict = (|| -> Result<(), String> {
        let system = single_cluster_system(EngineConfig::for_tests(), seed, 2);
        let scale = Scale::with_items(IDENTITY_ITEMS);
        let mut ids = Vec::new();
        for db in ["chk_inproc", "chk_tcp"] {
            let (_, loaded) = create_tpcw_on_system(&system, db, 2, scale, seed)
                .map_err(|e| format!("create and load {db}: {e}"))?;
            ids.push(loaded.ids);
        }
        let server = Server::start("127.0.0.1:0", Arc::clone(&system), ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let outcome = (|| {
            let local = system
                .connect("chk_inproc", (0.0, 0.0))
                .map_err(|e| format!("connect in-process: {e}"))?;
            let remote =
                NetClient::connect(server.local_addr(), "chk_tcp", ConnectOptions::default())
                    .map_err(|e| format!("connect tcp: {e}"))?;
            let a = replay(local, &ids[0], scale, mix, seed)?;
            let b = replay(remote, &ids[1], scale, mix, seed)?;
            if a != b {
                return Err(format!(
                    "results differ: in-process {:#018x} over {} results, tcp {:#018x} over {}",
                    a.0, a.1, b.0, b.1
                ));
            }
            Ok(())
        })();
        server.shutdown();
        outcome
    })();
    Check { name, verdict }
}
