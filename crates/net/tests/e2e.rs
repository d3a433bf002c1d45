//! End-to-end loopback tests: the full stack — TPC-W workload → native
//! client → wire protocol → TCP server → platform → 4-machine cluster —
//! compared against the in-process transport, plus the serving tier's
//! failure modes: abrupt client disconnects, graceful shutdown drain,
//! accept-queue backpressure, idle reaping, and injected network faults
//! in the "did my commit land?" windows.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tenantdb_cluster::fault::{CrashPoint, FaultAction, FaultInjector, FaultPlan, Trigger};
use tenantdb_cluster::{
    testkit, BatchMode, BatchStmt, ClusterController, ReadPolicy, Transport, WritePolicy,
};
use tenantdb_net::wire::{self, PROTOCOL_VERSION};
use tenantdb_net::{
    ConnectOptions, Frame, NetClient, NetError, ReadPref, Server, ServerConfig, WritePref,
};
use tenantdb_platform::{CreateOptions, PlatformConfig, SystemController};
use tenantdb_storage::Value;
use tenantdb_tpcw::{run_txn, IdCounters, IdSpace, Scale, Session, BROWSING};

const DB: &str = "shop";

/// A single-colo platform whose one cluster runs the testkit fast-engine
/// config with deterministic policies and seed.
fn platform(seed: u64) -> Arc<SystemController> {
    platform_with(
        seed,
        WritePolicy::Conservative,
        testkit::fast_engine_config().lock_timeout,
    )
}

/// [`platform`] with an explicit write policy and row-lock timeout, for the
/// tests that assert something finishes in *well under* one.
fn platform_with(seed: u64, write: WritePolicy, lock_timeout: Duration) -> Arc<SystemController> {
    let mut cluster = testkit::config(ReadPolicy::PinnedReplica, write, seed);
    cluster.engine.lock_timeout = lock_timeout;
    let cfg = PlatformConfig {
        cluster,
        clusters_per_colo: 1,
        machines_per_cluster: 4,
    };
    SystemController::new(cfg, &[("local", (0.0, 0.0))])
}

/// Create `DB` with 3 in-colo replicas and return its cluster controller.
fn create_db(system: &Arc<SystemController>) -> Arc<ClusterController> {
    create_db_replicated(system, 3)
}

/// Create `DB` with `replicas` in-colo replicas. One replica means one
/// lock table, so sessions queueing on a row cannot also deadlock across
/// replicas.
fn create_db_replicated(system: &Arc<SystemController>, replicas: usize) -> Arc<ClusterController> {
    system
        .create_database(
            DB,
            (0.0, 0.0),
            CreateOptions {
                replicas,
                cross_colo: false,
                ..CreateOptions::default()
            },
        )
        .expect("create database");
    let colo = system.primary_colo(DB).expect("primary colo");
    system
        .colo(colo)
        .expect("colo handle")
        .cluster_for(DB)
        .expect("cluster for db")
}

/// Populate the TPC-W schema + data on `DB` and return its id space.
fn seed_tpcw(cluster: &Arc<ClusterController>, seed: u64) -> IdSpace {
    tenantdb_tpcw::setup_database(cluster, DB, Scale::with_items(32), seed).expect("populate tpc-w")
}

/// Create a trivial `kv(id, v)` table with one row per id in `seed_ids`.
fn seed_kv(system: &Arc<SystemController>, seed_ids: &[i64]) {
    let conn = system.connect(DB, (0.0, 0.0)).expect("connect");
    conn.execute(
        "CREATE TABLE kv (id INT NOT NULL, v INT, PRIMARY KEY (id))",
        &[],
    )
    .expect("create kv");
    for id in seed_ids {
        conn.execute("INSERT INTO kv VALUES (?, 0)", &[Value::Int(*id)])
            .expect("seed kv row");
    }
}

/// Drive `txns` interactions of the browsing mix through any transport,
/// recording each outcome as a string (so two transports can be compared
/// transaction by transaction, including error classification).
fn drive<C: Transport>(conn: &C, ids: IdSpace, seed: u64, txns: usize) -> Vec<String> {
    let counters = IdCounters::from_space(ids);
    let scale = Scale::with_items(32);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7090_5eed);
    let mut session = Session {
        customer: 1,
        cart: None,
    };
    (0..txns)
        .map(|_| {
            let kind = BROWSING.pick(&mut rng);
            match run_txn(kind, conn, &counters, scale, &mut session, &mut rng) {
                Ok(()) => format!("{kind:?}: ok"),
                Err(e) => format!("{kind:?}: err {e}"),
            }
        })
        .collect()
}

/// Spin until `pred` holds or `timeout` elapses; panics on timeout.
fn wait_for(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

fn quick_opts() -> ConnectOptions {
    ConnectOptions {
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(5),
        ..ConnectOptions::default()
    }
}

/// The tentpole acceptance check: the same seeded TPC-W browsing-mix
/// session produces byte-identical results over TCP and in-process, and
/// two identically-seeded platforms land in identical replica states
/// whichever transport drove them.
#[test]
fn tpcw_browsing_mix_is_byte_identical_across_transports() {
    const SEED: u64 = 42;
    const TXNS: usize = 40;

    // Platform A: driven through the in-process cluster connection.
    let sys_a = platform(SEED);
    let cluster_a = create_db(&sys_a);
    let ids_a = seed_tpcw(&cluster_a, SEED);
    let conn_a = sys_a.connect(DB, (0.0, 0.0)).expect("in-process connect");
    let outcomes_a = drive(&conn_a, ids_a, SEED, TXNS);

    // Platform B: identical seed, driven over a TCP loopback session.
    let sys_b = platform(SEED);
    let cluster_b = create_db(&sys_b);
    let ids_b = seed_tpcw(&cluster_b, SEED);
    let server = Server::start("127.0.0.1:0", Arc::clone(&sys_b), ServerConfig::default())
        .expect("bind server");
    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("tcp connect");
    assert_eq!(client.read_policy(), ReadPolicy::PinnedReplica);
    assert_eq!(client.write_policy(), WritePolicy::Conservative);
    let outcomes_b = drive(&client, ids_b, SEED, TXNS);

    // Transaction-by-transaction identical outcomes (incl. any errors).
    assert_eq!(outcomes_a, outcomes_b, "transports diverged mid-mix");

    // Replicas converge within each platform...
    testkit::assert_replicas_converged(&cluster_a, DB);
    testkit::assert_replicas_converged(&cluster_b, DB);

    // ...and the two platforms hold identical logical state: the wire
    // added no semantics.
    let rep_a = cluster_a.alive_replicas(DB).expect("replicas a");
    let rep_b = cluster_b.alive_replicas(DB).expect("replicas b");
    let state_a =
        testkit::logical_state(&cluster_a.machine(rep_a[0]).unwrap().engine, DB).expect("state a");
    let state_b =
        testkit::logical_state(&cluster_b.machine(rep_b[0]).unwrap().engine, DB).expect("state b");
    assert_eq!(state_a, state_b, "in-process and TCP end states differ");

    // Byte-identical on the wire itself: the same query's result set
    // encodes to the same frame bytes whichever transport produced it.
    let probe = "SELECT i_id, i_title, i_cost FROM item ORDER BY i_id";
    let r_a = conn_a.execute(probe, &[]).expect("probe in-process");
    let r_b = Transport::execute(&client, probe, &[]).expect("probe tcp");
    assert_eq!(
        Frame::ResultSet(r_a).encode(),
        Frame::ResultSet(r_b).encode(),
        "result set bytes differ across transports"
    );

    // The acceptance metrics are live in the platform scrape.
    sys_b.register_metrics_source("net e2e", server.metrics());
    let scrape = sys_b.render_metrics();
    for name in [
        "# ==== net e2e\n",
        "tenantdb_net_connections",
        "tenantdb_net_bytes_in_total",
        "tenantdb_net_bytes_out_total",
        "tenantdb_net_frame_latency_us",
    ] {
        assert!(scrape.contains(name), "scrape missing {name}:\n{scrape}");
    }

    server.shutdown();
}

/// Pipelined pings share one round trip and come back in order.
#[test]
fn pipelined_pings_round_trip_in_order() {
    let sys = platform(3);
    create_db(&sys);
    seed_kv(&sys, &[]);
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");
    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");
    client.ping(7).expect("single ping");
    client.ping_pipelined(64).expect("pipelined pings");
    server.shutdown();
}

/// A read pipelined behind a pooled write waits for it: an `Execute`
/// (UPDATE, which queues for the pool) and a `Query` of the same row (which
/// would run inline on an idle connection) leave in one write, and the
/// replies come back in request order with the read seeing the write. A
/// read that ran inline past the queued write would answer first or see
/// the old value.
#[test]
fn read_pipelined_behind_a_queued_write_sees_it_in_order() {
    use std::io::Write as _;
    let sys = platform(43);
    create_db(&sys);
    seed_kv(&sys, &[1]);
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");
    let mut raw = raw_handshake(server.local_addr());
    for v in 1..=20 {
        let mut burst = Vec::new();
        Frame::Execute {
            sql: "UPDATE kv SET v = ? WHERE id = 1".to_string(),
            params: vec![Value::Int(v)],
        }
        .encode_into(&mut burst);
        Frame::Query {
            sql: "SELECT v FROM kv WHERE id = 1".to_string(),
            params: vec![],
        }
        .encode_into(&mut burst);
        raw.write_all(&burst).expect("pipelined write + read");
        match wire::read_frame(&mut raw).expect("first reply") {
            Some(Frame::Affected { rows: 1 }) => {}
            other => panic!("round {v}: the write must answer first, got {other:?}"),
        }
        match wire::read_frame(&mut raw).expect("second reply") {
            Some(Frame::ResultSet(r)) => {
                assert_eq!(r.rows, vec![vec![Value::Int(v)]], "round {v}: stale read")
            }
            other => panic!("round {v}: expected the read's result set, got {other:?}"),
        }
    }
    drop(raw);
    server.shutdown();
}

/// Acceptance: the server survives an abrupt client disconnect
/// mid-transaction — the transaction aborts, the session and its slot are
/// reclaimed, and the row locks are free for the next client.
#[test]
fn abrupt_disconnect_mid_txn_aborts_and_reclaims_session() {
    let sys = platform(5);
    let cluster = create_db(&sys);
    seed_kv(&sys, &[1, 2]);
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");

    // A client takes row locks inside an explicit transaction...
    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");
    Transport::begin(&client).expect("begin");
    Transport::execute(&client, "UPDATE kv SET v = 99 WHERE id = 1", &[]).expect("update");
    let sessions = server.list_sessions();
    assert_eq!(sessions.len(), 1);
    assert!(sessions[0].in_txn, "session should report an open txn");

    // ...then vanishes without commit or rollback.
    drop(client);

    // The session thread notices, the connection drops, the transaction
    // rolls back, and the slot + session entry are reclaimed.
    wait_for("session reclaim", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    assert!(server.list_sessions().is_empty());

    // No leaked lock or pool lane: a fresh client can immediately write
    // the same row, repeatedly (each connect takes and returns a lane).
    for round in 0..3 {
        let c = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("reconnect");
        Transport::begin(&c).expect("begin");
        Transport::execute(&c, "UPDATE kv SET v = ? WHERE id = 1", &[Value::Int(round)])
            .expect("update after abandon");
        Transport::commit(&c).expect("commit");
        drop(c);
        wait_for("session drain", Duration::from_secs(5), || {
            server.session_count() == 0
        });
    }

    // The abandoned update never committed; the last clean one did.
    let conn = sys.connect(DB, (0.0, 0.0)).expect("connect");
    let r = conn
        .execute("SELECT v FROM kv WHERE id = 1", &[])
        .expect("read back");
    assert_eq!(r.rows[0][0], Value::Int(2), "abandoned txn leaked a write");
    testkit::assert_replicas_converged(&cluster, DB);
    server.shutdown();
}

/// Acceptance: graceful shutdown drains the in-flight transaction — a
/// commit issued while the server is draining still succeeds and is
/// durable on every replica.
#[test]
fn graceful_shutdown_drains_in_flight_commit() {
    let sys = platform(9);
    let cluster = create_db(&sys);
    seed_kv(&sys, &[]);
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig {
            drain_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let client = NetClient::connect(addr, DB, quick_opts()).expect("connect");
    Transport::begin(&client).expect("begin");
    Transport::execute(&client, "INSERT INTO kv VALUES (100, 1)", &[]).expect("insert");

    // Shutdown starts while the transaction is open; the session must be
    // kept alive until the client resolves it.
    let drain = thread::spawn(move || server.shutdown());
    thread::sleep(Duration::from_millis(300));
    Transport::commit(&client).expect("commit during drain must succeed");
    drain.join().expect("shutdown thread");

    // The listener is gone: connecting again fails fast.
    let refused = NetClient::connect(
        addr,
        DB,
        ConnectOptions {
            attempts: 1,
            ..quick_opts()
        },
    );
    assert!(refused.is_err(), "server still accepting after shutdown");

    // The drained commit is durable on every replica.
    testkit::assert_committed_visible(&cluster, DB, "kv", &[100]);
    testkit::assert_replicas_converged(&cluster, DB);
}

/// The connection limit is enforced as accept-queue backpressure: client
/// N+1 connects at TCP level (OS backlog) but gets no handshake until a
/// slot frees.
#[test]
fn connection_limit_applies_backpressure_not_rejection() {
    let sys = platform(11);
    create_db(&sys);
    seed_kv(&sys, &[]);
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let c1 = NetClient::connect(addr, DB, quick_opts()).expect("c1");
    let c2 = NetClient::connect(addr, DB, quick_opts()).expect("c2");
    wait_for("both sessions live", Duration::from_secs(5), || {
        server.session_count() == 2
    });

    // Third client: TCP connect succeeds (backlog) but the handshake
    // reply cannot arrive while the server is at its limit.
    let stalled = NetClient::connect(
        addr,
        DB,
        ConnectOptions {
            attempts: 1,
            read_timeout: Duration::from_millis(400),
            ..ConnectOptions::default()
        },
    );
    assert!(
        matches!(stalled, Err(NetError::Io(_))),
        "over-limit connect should stall, got {stalled:?}",
        stalled = stalled.as_ref().map(|_| "ok")
    );
    assert_eq!(server.session_count(), 2);

    // Freeing a slot lets the next client through (default retry/backoff
    // rides out the accept loop absorbing the stalled socket above).
    drop(c1);
    let c3 = NetClient::connect(addr, DB, quick_opts()).expect("c3 after slot freed");
    c3.ping(1).expect("ping on admitted session");
    drop(c2);
    drop(c3);
    server.shutdown();
}

/// Idle sessions are reaped after `idle_timeout`; in-transaction sessions
/// are not (that is the transaction timeout's job).
#[test]
fn idle_sessions_are_reaped() {
    let sys = platform(13);
    create_db(&sys);
    seed_kv(&sys, &[]);
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");
    client.ping(1).expect("ping");
    wait_for("idle reap", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    // The reaped client's next request fails at the transport layer.
    assert!(client.ping(2).is_err(), "reaped session still answered");
    assert!(
        server
            .metrics()
            .render_text()
            .contains("tenantdb_net_idle_reaped_total 1"),
        "reap not counted"
    );
    server.shutdown();
}

/// A demanded policy the cluster does not serve refuses the handshake
/// (and the refusal is not retried); an unknown database likewise.
#[test]
fn handshake_refuses_policy_mismatch_and_unknown_db() {
    let sys = platform(17);
    create_db(&sys); // PinnedReplica / Conservative
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");

    let started = Instant::now();
    let refused = NetClient::connect(
        server.local_addr(),
        DB,
        ConnectOptions {
            read_pref: ReadPref::PerOperation,
            ..ConnectOptions::default()
        },
    );
    assert!(
        matches!(refused, Err(NetError::Server(_))),
        "policy mismatch must be a server refusal"
    );
    // Refusals return immediately — no retry/backoff (default backoff
    // schedule would take well over a second).
    assert!(started.elapsed() < Duration::from_secs(1));

    let no_db = NetClient::connect(server.local_addr(), "nope", ConnectOptions::default());
    assert!(matches!(no_db, Err(NetError::Server(_))));
    server.shutdown();
}

/// Injected net fault, window 1: the connection dies right after the
/// server reads the Commit frame, *before* executing it. The transaction
/// must roll back — the insert is not visible anywhere, replicas converge.
#[test]
fn fault_killing_connection_before_commit_executes_rolls_back() {
    let sys = platform(19);
    let cluster = create_db(&sys);
    seed_kv(&sys, &[]);
    let faults = Arc::new(FaultInjector::new());
    let server = Server::start_with_faults(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig::default(),
        Some(Arc::clone(&faults)),
    )
    .expect("bind");

    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");
    Transport::begin(&client).expect("begin");
    Transport::execute(&client, "INSERT INTO kv VALUES (7, 7)", &[]).expect("insert");

    faults.arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::NetFrameRead,
        machine: None,
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let r = Transport::commit(&client);
    assert!(r.is_err(), "commit should be lost with the connection");

    wait_for("session reclaim", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    // The commit never executed: nothing visible, everything converged.
    let conn = sys.connect(DB, (0.0, 0.0)).expect("connect");
    let read = conn
        .execute("SELECT id FROM kv WHERE id = 7", &[])
        .expect("read");
    assert!(read.rows.is_empty(), "rolled-back insert is visible");
    testkit::assert_replicas_converged(&cluster, DB);
    server.shutdown();
}

/// Injected net fault, window 2 — "did my commit land?": the commit fully
/// executes but the Ok reply is dropped and the connection severed. The
/// client sees an error it must treat as ambiguous; the platform's answer
/// is unambiguous: the commit is durable on every replica.
#[test]
fn fault_dropping_commit_response_leaves_durable_converged_state() {
    let sys = platform(23);
    let cluster = create_db(&sys);
    seed_kv(&sys, &[]);
    let faults = Arc::new(FaultInjector::new());
    let server = Server::start_with_faults(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig::default(),
        Some(Arc::clone(&faults)),
    )
    .expect("bind");

    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");
    Transport::begin(&client).expect("begin");
    Transport::execute(&client, "INSERT INTO kv VALUES (8, 8)", &[]).expect("insert");

    faults.arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::NetResponseDrop,
        machine: None,
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let r = Transport::commit(&client);
    assert!(
        r.is_err(),
        "the ack was dropped; the client must see an error"
    );
    // The poisoned client fails fast from here on.
    assert!(matches!(client.ping(1), Err(NetError::Broken)));

    wait_for("session reclaim", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    // The commit *did* land: durable and converged despite the lost ack.
    testkit::assert_committed_visible(&cluster, DB, "kv", &[8]);
    testkit::assert_replicas_converged(&cluster, DB);
    // A fresh session reads the committed row over the wire.
    let c2 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("reconnect");
    let read = Transport::execute(&c2, "SELECT v FROM kv WHERE id = 8", &[]).expect("read");
    assert_eq!(read.rows, vec![vec![Value::Int(8)]]);
    assert!(
        server
            .metrics()
            .render_text()
            .contains("tenantdb_net_faults_fired_total"),
        "fired fault not counted"
    );
    server.shutdown();
}

/// Injected net fault at the accept edge: the server accepts the TCP
/// connection, then drops the socket before the session starts. A
/// single-attempt client sees the handshake die; the retry policy rides
/// through it because the trigger is one-shot.
#[test]
fn fault_severing_accepted_socket_drops_connection_unserved() {
    let sys = platform(31);
    create_db(&sys);
    seed_kv(&sys, &[4]);
    let faults = Arc::new(FaultInjector::new());
    let server = Server::start_with_faults(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig::default(),
        Some(Arc::clone(&faults)),
    )
    .expect("bind");

    faults.arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::NetAccept,
        machine: None,
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    // One attempt only: the accept-side sever must surface, not be
    // absorbed by connect's exponential-backoff retry loop.
    let one_shot = ConnectOptions {
        attempts: 1,
        ..quick_opts()
    };
    let r = NetClient::connect(server.local_addr(), DB, one_shot);
    assert!(r.is_err(), "accepted-then-dropped socket must fail connect");
    assert!(
        faults
            .fired()
            .iter()
            .any(|f| f.point == CrashPoint::NetAccept),
        "NetAccept trigger did not fire"
    );
    // No session was ever registered for the severed socket.
    assert_eq!(server.session_count(), 0);

    // The trigger is spent: a retrying connect succeeds and serves reads.
    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("reconnect");
    let read = Transport::execute(&client, "SELECT v FROM kv WHERE id = 4", &[]).expect("read");
    assert_eq!(read.rows, vec![vec![Value::Int(0)]]);
    server.shutdown();
}

/// Injected net fault on the reply path: the request is dispatched but the
/// connection is severed before the reply frame is written. The client
/// sees a transport error, the poisoned handle fails fast, and a fresh
/// session works.
#[test]
fn fault_severing_reply_write_kills_connection_before_response() {
    let sys = platform(37);
    create_db(&sys);
    seed_kv(&sys, &[5]);
    let faults = Arc::new(FaultInjector::new());
    let server = Server::start_with_faults(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig::default(),
        Some(Arc::clone(&faults)),
    )
    .expect("bind");

    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");
    faults.arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::NetFrameWrite,
        machine: None,
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let r = client.ping(7);
    assert!(r.is_err(), "reply-write sever must surface as an error");
    // The poisoned client fails fast from here on.
    assert!(matches!(client.ping(8), Err(NetError::Broken)));

    wait_for("session reclaim", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    assert!(
        faults
            .fired()
            .iter()
            .any(|f| f.point == CrashPoint::NetFrameWrite),
        "NetFrameWrite trigger did not fire"
    );
    // A fresh session reads committed state over the wire.
    let c2 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("reconnect");
    let read = Transport::execute(&c2, "SELECT v FROM kv WHERE id = 5", &[]).expect("read");
    assert_eq!(read.rows, vec![vec![Value::Int(0)]]);
    server.shutdown();
}

/// Every serving-tier crash point — the `net_*` members of
/// `CrashPoint::ALL`, the ones the sim's `corpus_is_complete` leaves to
/// this test — fires against a live server. One session's life passes
/// every hook (accept, request read, execute, reply write), so a new
/// `Net*` point with a hook on that path is covered without an edit here,
/// and one without a hook fails here by name.
#[test]
fn every_net_crash_point_fires() {
    let sys = platform(43);
    create_db(&sys);
    seed_kv(&sys, &[1]);
    let net_points = CrashPoint::ALL
        .into_iter()
        .filter(|p| p.name().starts_with("net_"));
    for point in net_points {
        let faults = Arc::new(FaultInjector::new());
        let server = Server::start_with_faults(
            "127.0.0.1:0",
            Arc::clone(&sys),
            ServerConfig::default(),
            Some(Arc::clone(&faults)),
        )
        .expect("bind");
        faults.arm(FaultPlan::new(vec![Trigger {
            point,
            machine: None,
            after_hits: 0,
            action: FaultAction::Crash,
        }]));
        // Whichever step the armed point severs fails; that is the fault
        // working. The connect retries ride through an accept-edge sever.
        if let Ok(client) = NetClient::connect(server.local_addr(), DB, quick_opts()) {
            let _ = Transport::execute(&client, "SELECT v FROM kv WHERE id = 1", &[]);
        }
        assert!(
            faults.fired().iter().any(|f| f.point == point),
            "{point} did not fire against a live server"
        );
        server.shutdown();
    }
}

/// The `\conns` listing reflects live sessions with their database, peer,
/// and transaction state.
#[test]
fn conn_listing_reports_live_sessions() {
    let sys = platform(29);
    create_db(&sys);
    seed_kv(&sys, &[1]);
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");

    let c1 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("c1");
    let c2 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("c2");
    Transport::begin(&c2).expect("begin");
    Transport::execute(&c2, "UPDATE kv SET v = 1 WHERE id = 1", &[]).expect("update");

    // The listing is served over the same wire protocol.
    let list = c1.list_conns().expect("list_conns");
    assert_eq!(list.len(), 2);
    assert!(list.iter().all(|c| c.db == DB));
    assert!(list.iter().any(|c| c.in_txn), "c2's open txn not reported");
    assert!(list.iter().all(|c| !c.peer.is_empty()));

    Transport::rollback(&c2).expect("rollback");
    drop(c2);
    wait_for("session drain", Duration::from_secs(5), || {
        server.session_count() == 1
    });
    assert_eq!(c1.list_conns().expect("list again").len(), 1);
    server.shutdown();
}

/// Forces the statement-at-a-time wire discipline: the `execute_batch`
/// trait default (begin + N round trips + commit) instead of the one
/// `Batch` frame `NetClient` normally sends.
struct StmtAtATime<'a>(&'a NetClient);

impl Transport for StmtAtATime<'_> {
    fn begin(&self) -> Result<(), tenantdb_cluster::ClusterError> {
        Transport::begin(self.0)
    }
    fn execute(
        &self,
        sql: &str,
        params: &[Value],
    ) -> Result<tenantdb_sql::QueryResult, tenantdb_cluster::ClusterError> {
        Transport::execute(self.0, sql, params)
    }
    fn commit(&self) -> Result<(), tenantdb_cluster::ClusterError> {
        Transport::commit(self.0)
    }
    fn rollback(&self) -> Result<(), tenantdb_cluster::ClusterError> {
        Transport::rollback(self.0)
    }
    fn in_txn(&self) -> bool {
        Transport::in_txn(self.0)
    }
}

/// Open a raw wire connection (no `NetClient` machinery): TCP connect +
/// Hello/HelloOk. Used by the slow-reader and connection-swarm tests,
/// which need byte-level control the client API deliberately hides.
fn raw_handshake(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let mut s = std::net::TcpStream::connect(addr).expect("raw connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    wire::write_frame(
        &mut s,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            db: DB.to_string(),
            read_pref: ReadPref::Default,
            write_pref: WritePref::Default,
        },
    )
    .expect("hello");
    match wire::read_frame(&mut s).expect("handshake reply") {
        Some(Frame::HelloOk { .. }) => s,
        other => panic!("handshake rejected: {other:?}"),
    }
}

/// Acceptance: batching changes the number of round trips, not the
/// answers — the same seeded TPC-W session produces identical outcomes
/// and identical durable state whether its transactions ride one `Batch`
/// frame or a statement-at-a-time conversation.
#[test]
fn tpcw_batched_and_unpipelined_disciplines_are_byte_identical() {
    const SEED: u64 = 77;
    const TXNS: usize = 40;

    // Platform A: NetClient's native batched discipline.
    let sys_a = platform(SEED);
    let cluster_a = create_db(&sys_a);
    let ids_a = seed_tpcw(&cluster_a, SEED);
    let srv_a =
        Server::start("127.0.0.1:0", Arc::clone(&sys_a), ServerConfig::default()).expect("bind a");
    let client_a = NetClient::connect(srv_a.local_addr(), DB, quick_opts()).expect("connect a");
    let outcomes_a = drive(&client_a, ids_a, SEED, TXNS);

    // Platform B: identical seed, statement-at-a-time on the same server
    // implementation.
    let sys_b = platform(SEED);
    let cluster_b = create_db(&sys_b);
    let ids_b = seed_tpcw(&cluster_b, SEED);
    let srv_b =
        Server::start("127.0.0.1:0", Arc::clone(&sys_b), ServerConfig::default()).expect("bind b");
    let client_b = NetClient::connect(srv_b.local_addr(), DB, quick_opts()).expect("connect b");
    let outcomes_b = drive(&StmtAtATime(&client_b), ids_b, SEED, TXNS);

    assert_eq!(outcomes_a, outcomes_b, "wire disciplines diverged mid-mix");

    testkit::assert_replicas_converged(&cluster_a, DB);
    testkit::assert_replicas_converged(&cluster_b, DB);
    let rep_a = cluster_a.alive_replicas(DB).expect("replicas a");
    let rep_b = cluster_b.alive_replicas(DB).expect("replicas b");
    let state_a =
        testkit::logical_state(&cluster_a.machine(rep_a[0]).unwrap().engine, DB).expect("state a");
    let state_b =
        testkit::logical_state(&cluster_b.machine(rep_b[0]).unwrap().engine, DB).expect("state b");
    assert_eq!(
        state_a, state_b,
        "batched and unpipelined end states differ"
    );

    // The same probe query encodes to the same reply bytes either way.
    let probe = "SELECT i_id, i_title, i_cost FROM item ORDER BY i_id";
    let r_a = Transport::execute(&client_a, probe, &[]).expect("probe a");
    let r_b = Transport::execute(&client_b, probe, &[]).expect("probe b");
    assert_eq!(
        Frame::ResultSet(r_a).encode(),
        Frame::ResultSet(r_b).encode(),
        "result set bytes differ across disciplines"
    );

    srv_a.shutdown();
    srv_b.shutdown();
}

/// Injected net faults around a `WholeTxn` batch: whichever side of the
/// execute the connection dies on, the batch is atomic — severed before
/// dispatch, nothing lands; severed after execute (ack lost), everything
/// lands durably — and the replicas converge in both windows. There is
/// no partial-batch state.
#[test]
fn fault_mid_batch_is_atomic_durable_and_converged() {
    let sys = platform(31);
    let cluster = create_db(&sys);
    seed_kv(&sys, &[]);
    let faults = Arc::new(FaultInjector::new());
    let server = Server::start_with_faults(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig::default(),
        Some(Arc::clone(&faults)),
    )
    .expect("bind");
    let batch = |a: i64, b: i64| {
        vec![
            BatchStmt {
                sql: format!("INSERT INTO kv VALUES ({a}, {a})"),
                params: vec![],
            },
            BatchStmt {
                sql: format!("INSERT INTO kv VALUES ({b}, {b})"),
                params: vec![],
            },
        ]
    };

    // Window 1: the batch frame is read but the connection is severed
    // before dispatch. Nothing executed, nothing visible.
    let c1 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect 1");
    c1.ping(1).expect("warm up past the handshake reads");
    faults.arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::NetFrameRead,
        machine: None,
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let r1 = c1.execute_batch(&batch(41, 42), BatchMode::WholeTxn);
    assert!(r1.is_err(), "batch should die with the connection");
    wait_for("window-1 reclaim", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    let conn = sys.connect(DB, (0.0, 0.0)).expect("connect");
    let read = conn
        .execute("SELECT id FROM kv WHERE id >= 41", &[])
        .expect("read");
    assert!(read.rows.is_empty(), "severed batch leaked writes");
    testkit::assert_replicas_converged(&cluster, DB);

    // Window 2: the batch fully executes (commit decided) but the
    // BatchOk is dropped and the connection severed — the client must
    // treat the outcome as ambiguous; the platform must not: both rows
    // are durable on every replica.
    let c2 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect 2");
    faults.arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::NetResponseDrop,
        machine: None,
        after_hits: 0,
        action: FaultAction::Crash,
    }]));
    let r2 = c2.execute_batch(&batch(43, 44), BatchMode::WholeTxn);
    assert!(r2.is_err(), "the ack was dropped; the client sees an error");
    assert!(matches!(c2.ping(9), Err(NetError::Broken)));
    wait_for("window-2 reclaim", Duration::from_secs(5), || {
        server.session_count() == 0
    });
    testkit::assert_committed_visible(&cluster, DB, "kv", &[43, 44]);
    testkit::assert_replicas_converged(&cluster, DB);
    // A fresh session reads the committed rows over the wire.
    let c3 = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("reconnect");
    let read = Transport::execute(&c3, "SELECT id FROM kv WHERE id >= 41 ORDER BY id", &[])
        .expect("read over wire");
    assert_eq!(read.rows, vec![vec![Value::Int(43)], vec![Value::Int(44)]]);
    server.shutdown();
}

/// A peer that issues a pipelined burst and stops reading must not wedge
/// the reactor: its read interest is paused once the outbox crosses
/// `write_buffer` (slow-reader backpressure), other connections stay
/// responsive, and when the peer finally drains, every reply arrives
/// complete and in order.
#[test]
fn slow_reader_is_paused_and_coalesced_not_wedged() {
    const ROWS: i64 = 4;
    const QUERIES: usize = 256;

    let sys = platform(37);
    create_db(&sys);
    let conn = sys.connect(DB, (0.0, 0.0)).expect("connect");
    conn.execute(
        "CREATE TABLE blob (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        &[],
    )
    .expect("create blob");
    let payload = "x".repeat(32 * 1024);
    for id in 1..=ROWS {
        conn.execute(
            "INSERT INTO blob VALUES (?, ?)",
            &[Value::Int(id), Value::Text(payload.clone())],
        )
        .expect("seed blob row");
    }

    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig {
            write_buffer: 32 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Burst QUERIES requests in one write, each reply ~32 KiB, and do
    // not read any of them yet.
    let mut slow = raw_handshake(server.local_addr());
    let mut burst = Vec::new();
    for i in 0..QUERIES {
        Frame::Query {
            sql: "SELECT id, v FROM blob WHERE id = ?".to_string(),
            params: vec![Value::Int((i as i64 % ROWS) + 1)],
        }
        .encode_into(&mut burst);
    }
    use std::io::Write as _;
    slow.write_all(&burst).expect("burst");

    // ~8 MiB of replies cannot fit in kernel buffers: the outbox crosses
    // write_buffer and the reactor parks this connection's read side.
    let metrics = server.metrics();
    let paused = metrics.counter("tenantdb_net_read_pauses_total", &[]);
    wait_for("read pause", Duration::from_secs(10), || paused.get() >= 1);

    // The reactor is not wedged: a second connection works while the
    // slow one is stalled.
    let healthy = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("healthy");
    healthy.ping(1).expect("ping during stall");
    let probe = Transport::execute(&healthy, "SELECT id FROM blob WHERE id = 1", &[])
        .expect("query during stall");
    assert_eq!(probe.rows, vec![vec![Value::Int(1)]]);

    // Now drain: every reply arrives, complete and in request order.
    for i in 0..QUERIES {
        let want = (i as i64 % ROWS) + 1;
        match wire::read_frame(&mut slow).expect("reply frame") {
            Some(Frame::ResultSet(r)) => {
                assert_eq!(r.rows.len(), 1, "reply {i} row count");
                assert_eq!(r.rows[0][0], Value::Int(want), "reply {i} out of order");
                assert_eq!(r.rows[0][1], Value::Text(payload.clone()), "reply {i} body");
            }
            other => panic!("reply {i}: expected result set, got {other:?}"),
        }
    }
    assert!(
        metrics.counter_value("tenantdb_net_coalesced_frames_total", &[]) > 0,
        "queued replies should have shared flushes"
    );
    drop(slow);
    server.shutdown();
}

/// One reactor holds a thousand idle connections and reaps them all on
/// the idle deadline without disturbing the one active session — the
/// scenario thread-per-connection could only survive with a thousand
/// parked threads.
#[test]
fn thousand_idle_connections_reaped_active_session_survives() {
    const SWARM: usize = 1_000;

    let sys = platform(41);
    create_db(&sys);
    seed_kv(&sys, &[1]);
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&sys),
        ServerConfig {
            max_connections: SWARM + 50,
            idle_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Every handshake below round-trips Hello/HelloOk, so each admission
    // is confirmed; the monotonic admissions counter (not the live gauge)
    // is the right check because early connections may already be hitting
    // their idle deadline while the tail of the swarm is still arriving.
    let swarm: Vec<std::net::TcpStream> = (0..SWARM).map(|_| raw_handshake(addr)).collect();
    assert!(
        server
            .metrics()
            .counter_value("tenantdb_net_connections_total", &[])
            >= SWARM as u64,
        "admissions below swarm size"
    );

    // The active session keeps talking while the swarm idles out; its
    // traffic must keep it alive across many reap intervals.
    let active = NetClient::connect(addr, DB, quick_opts()).expect("active connect");
    let mut token = 0u64;
    wait_for("swarm reaped", Duration::from_secs(30), || {
        token += 1;
        active.ping(token).expect("active ping during reap");
        server.session_count() == 1
    });

    assert!(
        server
            .metrics()
            .counter_value("tenantdb_net_idle_reaped_total", &[])
            >= SWARM as u64,
        "idle reap count below swarm size"
    );
    // The survivor still executes real work.
    let r = Transport::execute(&active, "SELECT v FROM kv WHERE id = 1", &[]).expect("survivor");
    assert_eq!(r.rows.len(), 1);
    // The reaped sockets are dead: the server closed them.
    drop(swarm);
    server.shutdown();
}

/// §4 SLA admission control rides the wire: a tenant hammering past its
/// provisioned rate sees typed `AdmissionRejected` errors — from the
/// reactor's inline shed (read-only queries) and from the executor path
/// (writes) alike — with the proactive-rejection classification intact,
/// while the shed is counted against the tenant's rejected fraction.
#[test]
fn admission_rejection_rides_the_wire() {
    use tenantdb_cluster::ClusterError;
    use tenantdb_sla::Sla;

    let sys = platform(21);
    let cluster = create_db(&sys);
    seed_kv(&sys, &[1, 2, 3]);
    // Provisioned rate = 2 × 4 = 8 tps with a 4-txn burst; tight loops of
    // hundreds of statements are far past it.
    cluster
        .set_sla(DB, Sla::new(4.0, 0.5, Duration::from_secs(60)))
        .expect("set sla");

    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");
    let client = NetClient::connect(server.local_addr(), DB, quick_opts()).expect("connect");

    let mut ok = 0u64;
    let mut shed = 0u64;
    // Read-only queries run on the reactor's inline path.
    for _ in 0..150 {
        match Transport::execute(&client, "SELECT v FROM kv WHERE id = 1", &[]) {
            Ok(_) => ok += 1,
            Err(ClusterError::AdmissionRejected { db }) => {
                assert_eq!(db, DB);
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(ok > 0, "no query was admitted at all");
    assert!(shed > 0, "inline path never shed an over-rate tenant");

    // Writes go through the executor path; the same typed error returns.
    let mut write_shed = 0u64;
    for id in 100..200i64 {
        match Transport::execute(&client, "INSERT INTO kv VALUES (?, 0)", &[Value::Int(id)]) {
            Ok(_) => {}
            Err(e @ ClusterError::AdmissionRejected { .. }) => {
                assert!(e.is_proactive_rejection());
                write_shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        write_shed > 0,
        "executor path never shed an over-rate tenant"
    );

    // The sheds landed in the tenant's SLA ledger as proactive rejections.
    let adm = cluster.metrics().sla_admission_counters(DB);
    assert!(adm.rejected >= shed + write_shed);
    assert!(cluster.counters(DB).rejected >= shed + write_shed);

    server.shutdown();
}

/// How many of the server's sessions are mid-request right now.
/// At most 4 reactors, assigned round-robin: 8 consecutive connections put
/// a bystander on every one of them.
const BYSTANDERS: usize = 8;

/// A server with room for the bystanders and a few actors, and the
/// bystanders connected to it.
fn server_with_bystanders(sys: &Arc<SystemController>) -> (Server, Vec<NetClient>) {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(sys),
        ServerConfig {
            max_connections: BYSTANDERS + 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let bystanders = (0..BYSTANDERS)
        .map(|_| NetClient::connect(server.local_addr(), DB, quick_opts()).expect("bystander"))
        .collect();
    (server, bystanders)
}

/// Every bystander answers a `Ping` within `bound` — no reactor is parked —
/// `while_what` is going on.
fn assert_reactors_responsive(bystanders: &[NetClient], bound: Duration, while_what: &str) {
    for (i, b) in bystanders.iter().enumerate() {
        let started = Instant::now();
        b.ping(i as u64).expect("ping");
        let took = started.elapsed();
        assert!(
            took < bound,
            "ping on bystander {i} took {took:?} while {while_what}"
        );
    }
}

fn busy_sessions(server: &Server) -> usize {
    server.list_sessions().iter().filter(|c| c.busy).count()
}

/// A convoy on one row lock must not starve the session that holds it:
/// with more waiters parked on the lock than a fixed pool would have
/// threads (the old executor pool had 4), the holder's next write still
/// runs at once instead of queueing behind them for a full lock timeout.
#[test]
fn lock_convoy_does_not_stall_the_lock_holders_next_write() {
    const WAITERS: usize = 6;
    const LOCK_TIMEOUT: Duration = Duration::from_secs(3);

    let sys = platform_with(43, WritePolicy::Conservative, LOCK_TIMEOUT);
    create_db_replicated(&sys, 1);
    seed_kv(&sys, &[1]);
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&sys), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let holder = NetClient::connect(addr, DB, quick_opts()).expect("holder");
    Transport::begin(&holder).expect("begin");
    Transport::execute(&holder, "UPDATE kv SET v = 5 WHERE id = 1", &[]).expect("take the lock");

    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let c = NetClient::connect(addr, DB, quick_opts()).expect("waiter");
            thread::spawn(move || {
                Transport::execute(&c, "UPDATE kv SET v = v + 1 WHERE id = 1", &[])
            })
        })
        .collect();
    // Give every waiter the chance to be parked on the row lock (each one
    // holding a pool thread). A pool that cannot run them all never gets
    // there; the write below then shows what that costs.
    let parked_by = Instant::now() + LOCK_TIMEOUT / 4;
    while busy_sessions(&server) < WAITERS && Instant::now() < parked_by {
        thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    Transport::execute(&holder, "UPDATE kv SET v = 10 WHERE id = 1", &[]).expect("next write");
    let took = started.elapsed();
    assert!(
        took < LOCK_TIMEOUT / 4,
        "the lock holder's next write took {took:?} behind {WAITERS} waiters \
         (lock timeout {LOCK_TIMEOUT:?})"
    );
    assert_eq!(
        busy_sessions(&server),
        WAITERS,
        "not every waiter was running"
    );

    // Releasing the lock lets the whole convoy through, one by one.
    Transport::commit(&holder).expect("commit");
    for w in waiters {
        w.join().expect("waiter thread").expect("queued update");
    }
    let r = Transport::execute(&holder, "SELECT v FROM kv WHERE id = 1", &[]).expect("read back");
    assert_eq!(r.rows, vec![vec![Value::Int(10 + WAITERS as i64)]]);
    server.shutdown();
}

/// A locking read is a locking read however its keywords are spaced. It
/// waits on the holder's X lock on a pool thread, never on a reactor — so
/// connections sharing that reactor keep answering `Ping` meanwhile.
#[test]
fn locking_read_in_any_spelling_never_parks_a_reactor() {
    const LOCK_TIMEOUT: Duration = Duration::from_secs(3);

    let sys = platform_with(47, WritePolicy::Conservative, LOCK_TIMEOUT);
    create_db_replicated(&sys, 1);
    seed_kv(&sys, &[1]);
    let (server, bystanders) = server_with_bystanders(&sys);
    let addr = server.local_addr();
    let holder = NetClient::connect(addr, DB, quick_opts()).expect("holder");

    for (round, for_update) in ["FOR  UPDATE", "FOR\nUPDATE", "for\tupdate"]
        .into_iter()
        .enumerate()
    {
        Transport::begin(&holder).expect("begin");
        Transport::execute(&holder, "UPDATE kv SET v = v + 1 WHERE id = 1", &[])
            .expect("take the lock");

        let locker = NetClient::connect(addr, DB, quick_opts()).expect("locker");
        let sql = format!("SELECT v FROM kv WHERE id = 1 {for_update}");
        let locking_read = thread::spawn(move || Transport::execute(&locker, &sql, &[]));
        wait_for("the locking read to start", LOCK_TIMEOUT / 2, || {
            busy_sessions(&server) == 1
        });

        assert_reactors_responsive(
            &bystanders,
            LOCK_TIMEOUT / 4,
            &format!("a {for_update:?} read waited on a lock"),
        );
        assert_eq!(
            busy_sessions(&server),
            1,
            "the locking read is still waiting"
        );

        // It was a real locking read: it returns only once the holder lets
        // go, and sees the holder's committed value.
        Transport::commit(&holder).expect("commit");
        let r = locking_read
            .join()
            .expect("locker thread")
            .expect("locking read");
        assert_eq!(r.rows, vec![vec![Value::Int(round as i64 + 1)]]);
    }
    server.shutdown();
}

/// A client that vanishes mid-transaction leaves a rollback behind, and that
/// rollback can wait: under aggressive write-all the client's `UPDATE`
/// returned on the first replica's ack while the other replica's copy still
/// queues on a row lock, and the `ABORT` queues behind it on the same lane.
/// That wait belongs to a pool thread. On the reactor it stalled every
/// connection sharing the reactor for up to a full lock timeout.
#[test]
fn teardown_mid_txn_rolls_back_off_the_reactor() {
    const LOCK_TIMEOUT: Duration = Duration::from_secs(3);

    let sys = platform_with(53, WritePolicy::Aggressive, LOCK_TIMEOUT);
    let cluster = create_db_replicated(&sys, 2);
    seed_kv(&sys, &[1]);
    let (server, bystanders) = server_with_bystanders(&sys);
    let addr = server.local_addr();

    // An in-process reader S-locks the row on the pinned replica...
    let reader = sys.connect(DB, (0.0, 0.0)).expect("reader");
    reader.begin().expect("begin");
    reader
        .execute("SELECT v FROM kv WHERE id = 1", &[])
        .expect("read");

    // ...so the client's write is acked by the other replica only, and its
    // copy on the pinned replica is still waiting when the client vanishes.
    let client = NetClient::connect(addr, DB, quick_opts()).expect("client");
    Transport::begin(&client).expect("begin");
    Transport::execute(&client, "UPDATE kv SET v = 99 WHERE id = 1", &[]).expect("first ack");
    drop(client);

    // Whichever reactor tears the session down keeps serving meanwhile.
    let watch_until = Instant::now() + LOCK_TIMEOUT / 6;
    while Instant::now() < watch_until {
        assert_reactors_responsive(
            &bystanders,
            LOCK_TIMEOUT / 6,
            "an abandoned transaction rolled back",
        );
        thread::sleep(Duration::from_millis(5));
    }
    wait_for("session reclaim", Duration::from_secs(5), || {
        server.session_count() == BYSTANDERS
    });

    // The reader lets go: the straggler write takes the row, the ABORT
    // queued behind it undoes it, and only then is the row readable again.
    reader.commit().expect("reader commit");
    let r = reader
        .execute("SELECT v FROM kv WHERE id = 1", &[])
        .expect("read back");
    assert_eq!(r.rows, vec![vec![Value::Int(0)]], "abandoned write leaked");
    testkit::assert_replicas_converged(&cluster, DB);
    server.shutdown();
}
