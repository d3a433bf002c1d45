//! Stream transports: the versioned log-stream protocol over real loopback
//! TCP, and a deterministic in-process link for the sim harness.
//!
//! Both transports run the same pump ([`Link`]) over the same exchange,
//! built from the `Geo*` frames in [`tenantdb_net::wire`]:
//!
//! ```text
//! shipper                                standby
//!   | -- GeoHello{v, db, lsn, epoch, src} -> |   pin (db, source) under epoch
//!   | <- GeoHelloOk{v, resume_lsn} --------- |   or GeoFenced{epoch}
//!   | -- GeoRecords{epoch, [recs]} --------> |   epoch restated per batch
//!   | <- GeoAck{applied_lsn} --------------- |   cumulative watermark
//!   |              ...                       |
//!   | <- GeoFenced{epoch} ------------------ |   a promotion happened
//! ```
//!
//! Disconnects are ordinary: the shipper reconnects, the standby answers
//! the new handshake with its resume watermark, and the shipper rewinds —
//! no record is lost and re-sent overlap is deduplicated by the applier.
//! The epoch check runs on the handshake *and* on every batch, so a
//! promotion fences an in-flight stream at the very next frame.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tenantdb_cluster::sync::{LockClass, Mutex};
use tenantdb_cluster::{ClusterController, MachineId};
use tenantdb_net::wire::{read_frame, write_frame, Frame, GEOREP_PROTOCOL_VERSION};
use tenantdb_obs::Counter;
use tenantdb_storage::{LogRecord, Lsn};

use crate::applier::{Applier, SharedApplier};
use crate::metrics::GeoMetrics;
use crate::shipper::Shipper;
use crate::GeoError;

/// Socket timeouts for stream I/O: a WAN hiccup beyond this severs the
/// stream, which the shipper treats as an ordinary reconnect.
const STREAM_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How often the standby accept loop re-checks the shutdown flag.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------- standby

/// `GeoStandbyServer::appliers`; nothing is acquired under it.
static GEO_APPLIERS: LockClass = LockClass::new("georep.standby.appliers", 4);

/// The standby colo's stream endpoint: accepts shipper connections on a
/// loopback TCP listener and replays each database's stream through a
/// shared per-database [`Applier`].
pub struct GeoStandbyServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    appliers: Arc<Mutex<HashMap<String, SharedApplier>>>,
}

impl GeoStandbyServer {
    /// Bind a listener on an ephemeral loopback port and serve streams
    /// into `standby`. `replicas` is the placement width for databases the
    /// stream creates.
    pub fn serve(
        standby: Arc<ClusterController>,
        replicas: usize,
        metrics: GeoMetrics,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let appliers: Arc<Mutex<HashMap<String, SharedApplier>>> =
            Arc::new(Mutex::new(&GEO_APPLIERS, HashMap::new()));

        let accept = {
            let stop = Arc::clone(&stop);
            let appliers = Arc::clone(&appliers);
            std::thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                // ordering: Relaxed — shutdown flag; the join below is the
                // synchronization point.
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let standby = Arc::clone(&standby);
                            let appliers = Arc::clone(&appliers);
                            let metrics = metrics.clone();
                            conns.push(std::thread::spawn(move || {
                                let _ = serve_stream(stream, standby, replicas, appliers, metrics);
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_TICK);
                        }
                        Err(_) => break,
                    }
                }
                for c in conns {
                    let _ = c.join();
                }
            })
        };

        Ok(GeoStandbyServer {
            addr,
            stop,
            accept: Some(accept),
            appliers,
        })
    }

    /// The listener's loopback address for shippers to dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared applier for `db`, if a stream has pinned it.
    pub fn applier(&self, db: &str) -> Option<SharedApplier> {
        self.appliers.lock().get(db).cloned()
    }

    /// Every per-database applier — the promotion work list.
    pub fn appliers(&self) -> Vec<SharedApplier> {
        self.appliers.lock().values().cloned().collect()
    }

    /// Stop accepting and join the accept loop. Streams in flight are
    /// severed by their socket timeouts.
    pub fn shutdown(&mut self) {
        // ordering: Relaxed — flag polled by the accept loop; join below
        // synchronizes.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GeoStandbyServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted stream: handshake, then batches until disconnect or fence.
fn serve_stream(
    mut stream: TcpStream,
    standby: Arc<ClusterController>,
    replicas: usize,
    appliers: Arc<Mutex<HashMap<String, SharedApplier>>>,
    metrics: GeoMetrics,
) -> Result<(), GeoError> {
    stream.set_read_timeout(Some(STREAM_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(STREAM_IO_TIMEOUT))?;

    let (db, source, epoch) = match read_frame(&mut stream)? {
        Some(Frame::GeoHello {
            version: _,
            db,
            start_lsn: _,
            epoch,
            source,
        }) => (db, MachineId(source), epoch),
        _ => return Err(GeoError::Protocol("expected GeoHello".into())),
    };

    let applier =
        Arc::clone(appliers.lock().entry(db.clone()).or_insert_with(|| {
            Applier::shared(Arc::clone(&standby), &db, replicas, metrics.clone())
        }));

    let resume = match applier.lock().handshake(source, epoch) {
        Ok(lsn) => lsn,
        Err(GeoError::Fenced { epoch }) => {
            write_frame(&mut stream, &Frame::GeoFenced { epoch })?;
            return Err(GeoError::Fenced { epoch });
        }
        Err(e) => return Err(e),
    };
    write_frame(
        &mut stream,
        &Frame::GeoHelloOk {
            version: GEOREP_PROTOCOL_VERSION,
            resume_lsn: resume,
        },
    )?;

    loop {
        match read_frame(&mut stream)? {
            Some(Frame::GeoRecords { epoch, records }) => {
                match applier.lock().ingest(epoch, &records) {
                    Ok(watermark) => {
                        write_frame(
                            &mut stream,
                            &Frame::GeoAck {
                                applied_lsn: watermark,
                            },
                        )?;
                    }
                    Err(GeoError::Fenced { epoch }) => {
                        write_frame(&mut stream, &Frame::GeoFenced { epoch })?;
                        return Err(GeoError::Fenced { epoch });
                    }
                    // Crash-point sever: drop without acking — the shipper
                    // re-ships from the previous watermark.
                    Err(e) => return Err(e),
                }
            }
            Some(other) => {
                return Err(GeoError::Protocol(format!(
                    "unexpected frame {}",
                    other.kind()
                )))
            }
            None => return Ok(()), // clean disconnect
        }
    }
}

// ---------------------------------------------------------------- shipper

/// What a link pumps into: the standby end of the exchange in the module
/// docs. Public only so the [`GeoLink`] / [`GeoTcpLink`] aliases can name
/// it; the module is private, so nothing outside this crate implements it.
mod peer {
    use super::*;

    pub trait Peer {
        /// Open a session for the stream pinned to `pin` under `epoch`,
        /// offering `cursor`; returns the LSN the standby resumes from.
        fn dial(&mut self, pin: MachineId, epoch: u64, cursor: Lsn) -> Result<Lsn, GeoError>;
        /// Deliver one batch; returns the standby's cumulative ack.
        fn send(&mut self, epoch: u64, batch: Vec<LogRecord>) -> Result<Lsn, GeoError>;
        /// Drop whatever carries the session (nothing, in process).
        fn hang_up(&mut self) {}
    }

    /// In process: the exchange as direct calls on the shared applier.
    impl Peer for SharedApplier {
        fn dial(&mut self, pin: MachineId, epoch: u64, _: Lsn) -> Result<Lsn, GeoError> {
            self.lock().handshake(pin, epoch)
        }
        fn send(&mut self, epoch: u64, batch: Vec<LogRecord>) -> Result<Lsn, GeoError> {
            self.lock().ingest(epoch, &batch)
        }
    }

    /// Over a socket: the `Geo*` frames to a [`GeoStandbyServer`].
    pub struct Tcp {
        pub(super) addr: SocketAddr,
        pub(super) db: String,
        pub(super) conn: Option<TcpStream>,
    }

    impl Tcp {
        /// One request frame out, one reply frame back.
        fn call(&mut self, request: &Frame) -> Result<Frame, GeoError> {
            let stream = self
                .conn
                .as_mut()
                .ok_or_else(|| GeoError::Severed("stream dropped mid-sync".into()))?;
            write_frame(stream, request)?;
            match read_frame(stream)? {
                Some(Frame::GeoFenced { epoch }) => Err(GeoError::Fenced { epoch }),
                Some(reply) => Ok(reply),
                None => Err(GeoError::Severed("standby closed mid-exchange".into())),
            }
        }
    }

    impl Peer for Tcp {
        fn dial(&mut self, pin: MachineId, epoch: u64, cursor: Lsn) -> Result<Lsn, GeoError> {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(STREAM_IO_TIMEOUT))?;
            stream.set_write_timeout(Some(STREAM_IO_TIMEOUT))?;
            self.conn = Some(stream);
            match self.call(&Frame::GeoHello {
                version: GEOREP_PROTOCOL_VERSION,
                db: self.db.clone(),
                start_lsn: cursor,
                epoch,
                source: pin.0,
            })? {
                Frame::GeoHelloOk { resume_lsn, .. } => Ok(resume_lsn),
                _ => Err(GeoError::Protocol("expected GeoHelloOk".into())),
            }
        }
        fn send(&mut self, epoch: u64, batch: Vec<LogRecord>) -> Result<Lsn, GeoError> {
            match self.call(&Frame::GeoRecords {
                epoch,
                records: batch,
            })? {
                Frame::GeoAck { applied_lsn } => Ok(applied_lsn),
                other => Err(GeoError::Protocol(format!(
                    "unexpected frame {}",
                    other.kind()
                ))),
            }
        }
        fn hang_up(&mut self) {
            self.conn = None;
        }
    }
}
use peer::Peer;

/// The primary-side end of one database's stream: handshakes with its
/// peer, then pumps shipper batches until drained. One pump for both
/// transports — [`GeoLink`] and [`GeoTcpLink`] differ only in the peer.
pub struct Link<P> {
    shipper: Shipper,
    peer: P,
    /// `Some(pin)` while the stream is connected and handshaken.
    session: Option<MachineId>,
    acked: Lsn,
    reconnects: Arc<Counter>,
    /// Handshakes made (the first is counted; later ones are reconnects).
    dials: u64,
}

/// A deterministic in-process stream, with function calls in place of
/// sockets. The sim's scripted scenarios use this so colo partitions and
/// promotion races replay identically under a fixed seed.
pub type GeoLink = Link<SharedApplier>;

/// The stream over real sockets: dials the standby endpoint and reconnects
/// (re-handshaking) as needed.
pub type GeoTcpLink = Link<peer::Tcp>;

impl GeoLink {
    /// Wire `shipper` straight to `applier`.
    pub fn new(shipper: Shipper, applier: SharedApplier, metrics: GeoMetrics) -> Self {
        Link::over(shipper, applier, metrics)
    }

    /// The standby-side applier (the promotion work list).
    pub fn applier(&self) -> &SharedApplier {
        &self.peer
    }
}

impl GeoTcpLink {
    /// A link from `shipper` to the standby endpoint at `addr`.
    pub fn new(shipper: Shipper, addr: SocketAddr, metrics: GeoMetrics) -> Self {
        let peer = peer::Tcp {
            addr,
            db: shipper.db().to_string(),
            conn: None,
        };
        Link::over(shipper, peer, metrics)
    }
}

impl<P: Peer> Link<P> {
    fn over(shipper: Shipper, peer: P, metrics: GeoMetrics) -> Self {
        Link {
            reconnects: metrics.reconnects(shipper.db()),
            shipper,
            peer,
            session: None,
            acked: Lsn::ZERO,
            dials: 0,
        }
    }

    /// The underlying shipper (cursor, pin, lag reference).
    pub fn shipper(&self) -> &Shipper {
        &self.shipper
    }

    /// The standby's last cumulative ack.
    pub fn acked(&self) -> Lsn {
        self.acked
    }

    /// Head of the database's log on the source minus the standby ack, in
    /// LSN units.
    pub fn lag(&self) -> u64 {
        self.shipper
            .head_lsn()
            .map(|h| h.0.saturating_sub(self.acked.0))
            .unwrap_or(0)
    }

    /// Sever the stream (a colo partition). The next [`Link::sync`]
    /// re-handshakes and resumes from the standby's watermark.
    pub fn sever(&mut self) {
        self.session = None;
        self.peer.hang_up();
    }

    /// Pump the stream until the source is drained, returning the final
    /// cumulative ack. Re-handshakes as needed; any error severs the
    /// stream so the next call starts clean.
    pub fn sync(&mut self) -> Result<Lsn, GeoError> {
        let drained = self.pump_stream();
        if drained.is_err() {
            self.sever();
        }
        drained
    }

    fn pump_stream(&mut self) -> Result<Lsn, GeoError> {
        loop {
            let pin = self.shipper.pin()?;
            if self.session != Some(pin) {
                let resume = self
                    .peer
                    .dial(pin, self.shipper.epoch(), self.shipper.cursor())?;
                self.shipper.rewind(resume);
                self.acked = resume;
                self.dials += 1;
                if self.dials > 1 {
                    self.reconnects.inc();
                }
                self.session = Some(pin);
            }
            let batch = self.shipper.next_batch()?;
            if batch.is_empty() {
                self.shipper.note_acked(self.acked)?;
                return Ok(self.acked);
            }
            self.acked = self.peer.send(self.shipper.epoch(), batch)?;
            self.shipper.note_acked(self.acked)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_cluster::controller::ClusterConfig;
    use tenantdb_obs::MetricsRegistry;
    use tenantdb_storage::Value;

    fn metrics() -> GeoMetrics {
        GeoMetrics::new(Arc::new(MetricsRegistry::new()))
    }

    fn primary() -> Arc<ClusterController> {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        c
    }

    fn count(c: &Arc<ClusterController>, db: &str) -> i64 {
        let conn = c.connect(db).unwrap();
        match conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0] {
            Value::Int(n) => n,
            ref v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn in_process_link_replicates_and_survives_sever() {
        let p = primary();
        let s = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let m = metrics();
        let shipper = Shipper::new(Arc::clone(&p), "app", m.clone()).unwrap();
        let applier = Applier::shared(Arc::clone(&s), "app", 2, m.clone());
        let mut link = GeoLink::new(shipper, applier, m);

        let conn = p.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        link.sync().unwrap();
        assert_eq!(count(&s, "app"), 1);
        assert_eq!(link.lag(), 0);

        // Partition, write more, heal: the stream resumes from the ack.
        link.sever();
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        link.sync().unwrap();
        assert_eq!(count(&s, "app"), 2);
    }

    /// Another tenant's commits on the same machines are not this stream's
    /// lag; only an unshipped commit of its own is.
    #[test]
    fn lag_counts_only_the_streams_own_database() {
        let p = primary();
        p.create_database("other", 2).unwrap();
        p.ddl(
            "other",
            "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))",
        )
        .unwrap();
        let s = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let m = metrics();
        let shipper = Shipper::new(Arc::clone(&p), "app", m.clone()).unwrap();
        let applier = Applier::shared(Arc::clone(&s), "app", 2, m.clone());
        let mut link = GeoLink::new(shipper, applier, m);

        let (app, other) = (p.connect("app").unwrap(), p.connect("other").unwrap());
        app.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        link.sync().unwrap();
        assert_eq!(link.lag(), 0);
        for i in 0..5 {
            other
                .execute(&format!("INSERT INTO t VALUES ({i})"), &[])
                .unwrap();
            assert_eq!(link.lag(), 0, "another tenant's commit {i} is not lag");
        }
        app.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        assert!(link.lag() > 0, "an unshipped commit of its own is");
        link.sync().unwrap();
        assert_eq!(link.lag(), 0);
        assert_eq!(count(&s, "app"), 2);
    }

    #[test]
    fn tcp_link_replicates_over_loopback() {
        let p = primary();
        let s = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let m = metrics();
        let server = GeoStandbyServer::serve(Arc::clone(&s), 2, m.clone()).unwrap();
        let shipper = Shipper::new(Arc::clone(&p), "app", m.clone()).unwrap();
        let mut link = GeoTcpLink::new(shipper, server.addr(), m);

        let conn = p.connect("app").unwrap();
        for i in 0..10 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, 'x')"), &[])
                .unwrap();
        }
        link.sync().unwrap();
        assert_eq!(count(&s, "app"), 10);
        assert_eq!(link.lag(), 0);
        assert!(server.applier("app").is_some());

        // Sever and resume over a fresh connection.
        link.sever();
        conn.execute("INSERT INTO t VALUES (100, 'y')", &[])
            .unwrap();
        link.sync().unwrap();
        assert_eq!(count(&s, "app"), 11);
    }
}
