//! The seeded transaction streams and the guard that pins them.
//!
//! A stream is everything the benchmark feeds the program: which
//! interaction comes next, on which database, with which parameters. It is
//! a pure function of `--seed`, the session index and a salt (warm-up and
//! measurement use different salts). The program receives only the
//! generated statements.
//!
//! The TPC-W statements themselves come from `tenantdb_tpcw::run_txn`, a
//! product crate. So that a later change there cannot quietly change the
//! load, every run replays the first 10 000 transactions of its stream for
//! seed 1 against a transport that executes nothing and compares a hash of
//! (database, interaction kind, SQL text, parameters) with the value recorded beside
//! the workload's definition; a mismatch refuses the run.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tenantdb_cluster::{ClusterError, Transport};
use tenantdb_sql::QueryResult;
use tenantdb_storage::Value;
use tenantdb_tpcw::{run_txn, IdCounters, IdSpace, Mix, Scale, Session, TxnType};

/// Latency class of a transaction, as the application owner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Read-only interaction (browse).
    Read,
    /// Interaction that writes (order).
    Write,
}

/// One session's share of a workload: owns its connections and its
/// generator state. The driver draws the next operation of the stream and
/// attempts it; an attempt the program refuses (deadlock victim, lock
/// timeout, Algorithm-1 rejection, failed machine) is retried by the
/// driver the way an application server would, as the same operation with
/// freshly drawn parameters.
pub trait TxnSource: Send {
    /// What is fixed about an operation across its attempts.
    type Op: Copy;
    /// The next operation of the stream.
    fn draw(&mut self) -> (Self::Op, Class);
    /// Run `op` once as one transaction.
    fn attempt(&mut self, op: Self::Op) -> Result<(), ClusterError>;
    /// Restart the generator for `salt` (connections are kept).
    fn reseed(&mut self, salt: u64);
}

/// Per-session seed: distinct for every (seed, session, salt).
pub fn session_seed(seed: u64, session: usize, salt: u64) -> u64 {
    // SplitMix64 finaliser over the three inputs.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((session as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt of the measured window's stream.
pub const SALT_MEASURE: u64 = 0;
/// Salt of the warm-up stream.
pub const SALT_WARMUP: u64 = 0xAAAA;
/// Salt of the traced window's stream (the traced run measures an untraced
/// window first, then a traced one, on the same databases).
pub const SALT_TRACED: u64 = 0x7ACE;

// ------------------------------------------------------------------ TPC-W

/// One TPC-W database as a session sees it.
pub struct TpcwDb<T> {
    pub conn: T,
    pub ids: Arc<IdCounters>,
    pub session: Session,
}

/// A session over `dbs.len()` TPC-W databases: each transaction picks a
/// database uniformly, then an interaction from the mix.
pub struct TpcwSource<T> {
    dbs: Vec<TpcwDb<T>>,
    scale: Scale,
    mix: &'static Mix,
    seed: u64,
    index: usize,
    rng: StdRng,
}

impl<T: Transport + Send> TpcwSource<T> {
    pub fn new(
        dbs: Vec<(T, Arc<IdCounters>)>,
        scale: Scale,
        mix: &'static Mix,
        seed: u64,
        index: usize,
    ) -> Self {
        let mut s = TpcwSource {
            dbs: dbs
                .into_iter()
                .map(|(conn, ids)| TpcwDb {
                    conn,
                    ids,
                    session: Session {
                        customer: 0,
                        cart: None,
                    },
                })
                .collect(),
            scale,
            mix,
            seed,
            index,
            rng: StdRng::seed_from_u64(0),
        };
        s.reseed(SALT_MEASURE);
        s
    }
}

impl<T: Transport + Send> TxnSource for TpcwSource<T> {
    /// (database index, interaction).
    type Op = (usize, TxnType);

    fn draw(&mut self) -> (Self::Op, Class) {
        let db = self.rng.gen_range(0..self.dbs.len());
        let kind = self.mix.pick(&mut self.rng);
        let class = if kind.is_write() {
            Class::Write
        } else {
            Class::Read
        };
        ((db, kind), class)
    }

    fn attempt(&mut self, (db, kind): Self::Op) -> Result<(), ClusterError> {
        let d = &mut self.dbs[db];
        run_txn(
            kind,
            &d.conn,
            &d.ids,
            self.scale,
            &mut d.session,
            &mut self.rng,
        )
    }

    fn reseed(&mut self, salt: u64) {
        self.rng = StdRng::seed_from_u64(session_seed(self.seed, self.index, salt));
        let customers = self.scale.customers.max(1) as i64;
        for d in &mut self.dbs {
            d.session = Session {
                customer: self.rng.gen_range(0..customers),
                cart: None,
            };
        }
    }
}

// ---------------------------------------------------------------- tenants

/// Rows seeded into every tiny tenant's table.
pub const TENANT_ROWS: i64 = 8;
/// Share of tenant transactions that update.
const TENANT_WRITE_SHARE: f64 = 0.2;
/// Zipf exponent of tenant popularity.
pub const TENANT_ZIPF_S: f64 = 1.1;

pub const TENANT_DDL: &str = "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))";
pub const TENANT_SELECT: &str = "SELECT v FROM t WHERE k = ?";
pub const TENANT_UPDATE: &str = "UPDATE t SET v = ? WHERE k = ?";

pub fn tenant_name(i: usize) -> String {
    format!("db{i:05}")
}

/// Discrete Zipf over ranks `0..n` (rank 0 most popular), sampled by
/// inverting a precomputed cumulative table. The benchmark's own, so the
/// tenant popularity curve is not a property of any product crate.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Opens a session's connection to the named tenant.
pub type Connect<T> = Box<dyn Fn(&str) -> Result<T, ClusterError> + Send>;

/// A session over many tiny tenants. Connections are opened on first use
/// (one per tenant this session actually touches) and kept.
pub struct TenantSource<T> {
    connect: Connect<T>,
    conns: Vec<Option<T>>,
    zipf: Arc<Zipf>,
    seed: u64,
    index: usize,
    rng: StdRng,
}

impl<T: Transport> TenantSource<T> {
    pub fn new(
        tenants: usize,
        zipf: Arc<Zipf>,
        seed: u64,
        index: usize,
        connect: Connect<T>,
    ) -> Self {
        TenantSource {
            connect,
            conns: (0..tenants).map(|_| None).collect(),
            zipf,
            seed,
            index,
            rng: StdRng::seed_from_u64(session_seed(seed, index, SALT_MEASURE)),
        }
    }

    /// Connections opened so far.
    pub fn open_connections(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }
}

/// One tenant transaction against `conn`: `BEGIN; <one statement>; COMMIT`
/// through plain `Transport::execute`, so the SQL text is parsed on every
/// call, as a small application's would be.
pub fn tenant_txn<T: Transport>(
    conn: &T,
    write: bool,
    key: i64,
    value: u32,
) -> Result<(), ClusterError> {
    let body = || -> Result<(), ClusterError> {
        conn.begin()?;
        if write {
            conn.execute(
                TENANT_UPDATE,
                &[Value::Text(format!("v{value}")), Value::Int(key)],
            )?;
        } else {
            conn.execute(TENANT_SELECT, &[Value::Int(key)])?;
        }
        conn.commit()
    };
    let r = body();
    if r.is_err() && conn.in_txn() {
        let _ = conn.rollback();
    }
    r
}

/// One tenant operation: which tenant, which row, read or update.
#[derive(Debug, Clone, Copy)]
pub struct TenantOp {
    pub tenant: usize,
    pub key: i64,
    pub write: bool,
    pub value: u32,
}

fn draw_tenant_op(zipf: &Zipf, rng: &mut StdRng) -> TenantOp {
    TenantOp {
        tenant: zipf.sample(rng),
        key: rng.gen_range(0..TENANT_ROWS),
        write: rng.gen_bool(TENANT_WRITE_SHARE),
        value: rng.gen(),
    }
}

impl<T: Transport + Send> TxnSource for TenantSource<T> {
    type Op = TenantOp;

    fn draw(&mut self) -> (TenantOp, Class) {
        let op = draw_tenant_op(&self.zipf, &mut self.rng);
        (op, if op.write { Class::Write } else { Class::Read })
    }

    fn attempt(&mut self, op: TenantOp) -> Result<(), ClusterError> {
        if self.conns[op.tenant].is_none() {
            self.conns[op.tenant] = Some((self.connect)(&tenant_name(op.tenant))?);
        }
        let conn = self.conns[op.tenant].as_ref().expect("just connected");
        tenant_txn(conn, op.write, op.key, op.value)
    }

    fn reseed(&mut self, salt: u64) {
        self.rng = StdRng::seed_from_u64(session_seed(self.seed, self.index, salt));
    }
}

// ------------------------------------------------- the transport that isn't

/// A transport that executes nothing: every call succeeds with an empty
/// result. Driving a stream against it prices the generator alone
/// (`tpcw.gen_us_per_txn`) and, with `record`, yields the SQL text the
/// stream would have sent.
#[derive(Default)]
pub struct NullTransport {
    in_txn: Cell<bool>,
    /// FNV-1a over every SQL text seen, when fingerprinting.
    hash: Option<Cell<u64>>,
    /// Every SQL text seen, when collecting statements for the parse rung.
    log: Option<RefCell<Vec<String>>>,
}

impl NullTransport {
    pub fn hashing() -> Self {
        NullTransport {
            hash: Some(Cell::new(FNV_OFFSET)),
            ..Default::default()
        }
    }

    pub fn logging() -> Self {
        NullTransport {
            log: Some(RefCell::new(Vec::new())),
            ..Default::default()
        }
    }

    pub fn take_log(&self) -> Vec<String> {
        self.log
            .as_ref()
            .map(|l| std::mem::take(&mut *l.borrow_mut()))
            .unwrap_or_default()
    }

    fn digest(&self) -> u64 {
        self.hash.as_ref().map(Cell::get).unwrap_or(0)
    }
}

impl Transport for NullTransport {
    fn begin(&self) -> Result<(), ClusterError> {
        self.in_txn.set(true);
        Ok(())
    }

    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        if let Some(h) = &self.hash {
            let with_sql = fnv1a(h.get(), sql.as_bytes());
            h.set(fnv1a(with_sql, format!("{params:?}").as_bytes()));
        }
        if let Some(l) = &self.log {
            l.borrow_mut().push(sql.to_string());
        }
        Ok(QueryResult::default())
    }

    fn commit(&self) -> Result<(), ClusterError> {
        self.in_txn.set(false);
        Ok(())
    }

    fn rollback(&self) -> Result<(), ClusterError> {
        self.in_txn.set(false);
        Ok(())
    }

    fn in_txn(&self) -> bool {
        self.in_txn.get()
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h` over `bytes`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Id space of a database populated at `scale` (what
/// `tenantdb_tpcw::populate` returns, minus the order-line count, which
/// depends on its rng; the null-transport streams never read ids back).
fn nominal_ids(scale: Scale) -> Arc<IdCounters> {
    IdCounters::from_space(IdSpace {
        max_customer: scale.customers as i64,
        max_order: scale.initial_orders as i64,
        max_order_line: 2 * scale.initial_orders as i64,
        max_cart: 0,
        max_cart_line: 0,
    })
}

impl TpcwSource<NullTransport> {
    /// Every SQL text the logging transports saw, database by database.
    pub fn take_logs(&mut self) -> Vec<String> {
        self.dbs.iter().flat_map(|d| d.conn.take_log()).collect()
    }
}

/// A TPC-W session over `n_dbs` null transports.
pub fn null_tpcw_source(
    n_dbs: usize,
    scale: Scale,
    mix: &'static Mix,
    seed: u64,
    make: impl Fn() -> NullTransport,
) -> TpcwSource<NullTransport> {
    let dbs = (0..n_dbs).map(|_| (make(), nominal_ids(scale))).collect();
    TpcwSource::new(dbs, scale, mix, seed, 0)
}

/// Transactions hashed per stream.
const FINGERPRINT_TXNS: u64 = 10_000;
/// Seed the recorded fingerprints were taken with.
const FINGERPRINT_SEED: u64 = 1;

/// Hash of (database index, interaction kind, SQL texts and parameters) over the first
/// [`FINGERPRINT_TXNS`] transactions of a TPC-W stream.
pub fn tpcw_fingerprint(n_dbs: usize, scale: Scale, mix: &'static Mix) -> u64 {
    let mut src = null_tpcw_source(n_dbs, scale, mix, FINGERPRINT_SEED, NullTransport::hashing);
    let mut h = FNV_OFFSET;
    for _ in 0..FINGERPRINT_TXNS {
        let ((db, kind), _) = src.draw();
        h = fnv1a(h, &[db as u8, kind.index() as u8]);
        src.attempt((db, kind))
            .expect("the null transport cannot fail");
    }
    for d in &src.dbs {
        h = fnv1a(h, &d.conn.digest().to_le_bytes());
    }
    h
}

/// Hash of (tenant, key, write?, value) over the first
/// [`FINGERPRINT_TXNS`] transactions of the tenant stream.
pub fn tenant_fingerprint(tenants: usize) -> u64 {
    let zipf = Zipf::new(tenants, TENANT_ZIPF_S);
    let mut rng = StdRng::seed_from_u64(session_seed(FINGERPRINT_SEED, 0, SALT_MEASURE));
    let mut h = FNV_OFFSET;
    for _ in 0..FINGERPRINT_TXNS {
        let op = draw_tenant_op(&zipf, &mut rng);
        h = fnv1a(h, &(op.tenant as u64).to_le_bytes());
        h = fnv1a(h, &op.key.to_le_bytes());
        h = fnv1a(h, &[u8::from(op.write)]);
        h = fnv1a(h, &op.value.to_le_bytes());
    }
    h = fnv1a(h, TENANT_SELECT.as_bytes());
    fnv1a(h, TENANT_UPDATE.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_tpcw::{BROWSING, ORDERING};

    #[test]
    fn same_seed_same_stream() {
        let scale = Scale::with_items(100);
        assert_eq!(
            tpcw_fingerprint(4, scale, &BROWSING),
            tpcw_fingerprint(4, scale, &BROWSING)
        );
        assert_ne!(
            tpcw_fingerprint(4, scale, &BROWSING),
            tpcw_fingerprint(4, scale, &ORDERING)
        );
        assert_eq!(tenant_fingerprint(100), tenant_fingerprint(100));
        assert_ne!(tenant_fingerprint(100), tenant_fingerprint(101));
    }

    #[test]
    fn session_seeds_differ() {
        let a = session_seed(1, 0, SALT_MEASURE);
        assert_ne!(a, session_seed(1, 1, SALT_MEASURE));
        assert_ne!(a, session_seed(2, 0, SALT_MEASURE));
        assert_ne!(a, session_seed(1, 0, SALT_WARMUP));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, TENANT_ZIPF_S);
        let mut rng = StdRng::seed_from_u64(9);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // With s = 1.1 the ten most popular of 1000 draw ~45 % of the load.
        assert!((3500..5500).contains(&head), "head = {head}");
    }

    #[test]
    fn null_transport_runs_every_interaction() {
        let scale = Scale::with_items(50);
        let mut src = null_tpcw_source(2, scale, &ORDERING, 3, NullTransport::logging);
        for _ in 0..500 {
            let (op, _) = src.draw();
            src.attempt(op).unwrap();
        }
        assert!(src.take_logs().len() > 500);
    }
}
