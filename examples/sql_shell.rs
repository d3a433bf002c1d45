//! An interactive SQL shell against the platform — the developer experience
//! the paper promises ("connect ... and perform the set of operations
//! supported by JDBC, including complex SQL queries and ACID transactions").
//!
//! Run with: `cargo run --release --example sql_shell`
//! Reads statements from stdin (`;`-terminated not required — one per line),
//! plus meta-commands: `\help`, `\dbs`, `\use <db>`, `\metrics`,
//! `\events [n]`, `\fail <machine>`, `\recover <machine>`,
//! `\sla <min_tps> [frac]`, `\hammer [n]`, `\explain <sql>`,
//! `\ctrl status|kill [n]|restart <n>`,
//! `\georep status|promote` (cross-colo DR — see the "Colo failover"
//! runbook in README.md), `\quit`.
//! Pipe a script: `echo 'SELECT 1 FROM t' | cargo run --example sql_shell`.
//!
//! The cluster metadata runs on a replicated controller group
//! (`TENANTDB_CONTROLLERS` replicas, default 3 — see the "Controller
//! failover" runbook in README.md): `\ctrl kill` crashes the current
//! leader and the survivors elect a new one, visible in `\ctrl status`
//! and the `tenantdb_ctrl_*` gauges in `\metrics`.
//!
//! The shell also speaks the wire protocol: `\connect host:port [db]`
//! switches the session to a remote tenantdb server (start one with
//! `cargo run --bin serve`), `\conns` lists its live sessions, and
//! `\disconnect` returns to the local in-process cluster. SQL and
//! transactions work identically either way — both paths are the same
//! `Transport` trait.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

use parking_lot::Mutex;
use tenantdb::cluster::{
    recover_machine, ClusterConfig, ClusterController, Connection, MachineId, RecoveryConfig,
    Transport,
};
use tenantdb::georep::{promote, Applier, GeoLink, GeoMetrics, Shipper};
use tenantdb::net::{ConnectOptions, NetClient};
use tenantdb::platform::{PlatformConfig, SystemController};
use tenantdb::storage::Value;

/// A lazily attached standby colo for the `\georep` drill: one in-process
/// stream link per shipped database, all on one registry that is
/// registered with the platform scrape, so the `tenantdb_georep_*` series
/// show up in `\metrics`.
struct GeoSession {
    standby: Arc<ClusterController>,
    links: HashMap<String, GeoLink>,
    metrics: GeoMetrics,
    promoted: bool,
}

/// The shell's session: in-process or over the wire protocol.
enum ShellConn {
    Local(Connection),
    Remote { client: NetClient, addr: String },
}

impl ShellConn {
    fn transport(&self) -> &dyn Transport {
        match self {
            ShellConn::Local(c) => c,
            ShellConn::Remote { client, .. } => client,
        }
    }

    fn is_remote(&self) -> bool {
        matches!(self, ShellConn::Remote { .. })
    }
}

fn print_result(r: &tenantdb::sql::QueryResult) {
    if r.columns.is_empty() {
        println!("ok ({} row(s) affected)", r.rows_affected);
        return;
    }
    let widths: Vec<usize> = r
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            r.rows
                .iter()
                .map(|row| row[i].to_string().len())
                .chain([c.len()])
                .max()
                .unwrap_or(4)
        })
        .collect();
    let line = |f: &dyn Fn(usize) -> String| {
        let cells: Vec<String> = (0..r.columns.len())
            .map(|i| format!("{:<w$}", f(i), w = widths[i]))
            .collect();
        println!("| {} |", cells.join(" | "));
    };
    line(&|i| r.columns[i].clone());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+")
    );
    for row in &r.rows {
        line(&|i| row[i].to_string());
    }
    println!("({} row(s))", r.rows.len());
}

fn main() {
    // A 3-machine cluster with one demo database, pre-seeded. Metadata
    // lives on a replicated controller group so the failover runbook can
    // kill the leader live; TENANTDB_CONTROLLERS overrides the size
    // (1 = the pre-PR-7 single-controller shape).
    let controllers = std::env::var("TENANTDB_CONTROLLERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);
    // The cluster sits under a single-colo platform so `\metrics` is the
    // platform scrape: this cluster plus every registered source.
    let system = SystemController::new(
        PlatformConfig {
            cluster: ClusterConfig::for_tests().with_controllers(controllers),
            clusters_per_colo: 1,
            machines_per_cluster: 3,
        },
        &[("local", (0.0, 0.0))],
    );
    let cluster = system.colos()[0].clusters().remove(0);
    cluster.create_database("demo", 2).unwrap();
    cluster
        .ddl(
            "demo",
            "CREATE TABLE books (id INT NOT NULL, title TEXT, price FLOAT, PRIMARY KEY (id))",
        )
        .unwrap();
    {
        let conn = cluster.connect("demo").unwrap();
        conn.execute(
            "INSERT INTO books VALUES (1, 'CIDR 2009 Proceedings', 0.0), \
             (2, 'Concurrency Control and Recovery', 89.5), \
             (3, 'Transaction Processing', 120.0)",
            &[],
        )
        .unwrap();
    }

    let mut db = "demo".to_string();
    let mut conn = ShellConn::Local(cluster.connect(&db).unwrap());
    let mut geo: Option<GeoSession> = None;
    println!(
        "tenantdb shell — database '{db}' on a {}-machine cluster",
        3
    );
    println!("type SQL, or \\help for meta-commands");

    let stdin = io::stdin();
    loop {
        match &conn {
            ShellConn::Remote { addr, .. } => print!("{db}@{addr}> "),
            ShellConn::Local(_) => print!("{db}> "),
        }
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let input = line.trim().trim_end_matches(';').trim();
        if input.is_empty() {
            continue;
        }
        match input {
            "\\quit" | "\\q" | "exit" => break,
            "\\help" => {
                println!("  \\dbs            list databases and their replicas");
                println!("  \\use <db>       switch database (created if missing locally)");
                println!("  \\metrics        Prometheus-style platform scrape (cluster + georep)");
                println!("  \\events [n]     last n structured events (default 20)");
                println!("  \\fail <m>       fail machine m (e.g. \\fail 1)");
                println!("  \\recover <m>    re-create the replicas machine m lost");
                println!("  \\sla <tps> [frac]  install an SLA floor on the current database");
                println!("  \\hammer [n]     offer n txns as fast as possible (default 500)");
                println!("  \\explain <sql>  the plan a statement runs by: access path per table");
                println!("  \\ctrl status    replicated controller group: leader, term, lag");
                println!("  \\ctrl kill [n]  crash controller n (default: the leader)");
                println!("  \\ctrl restart <n>  restart a crashed controller replica");
                println!(
                    "  \\georep status  attach a standby colo (first use) and show stream lag"
                );
                println!("  \\georep promote fence this colo and promote the standby (DR drill)");
                println!(
                    "  \\connect <host:port> [db]  serve over TCP (see `cargo run --bin serve`)"
                );
                println!("  \\conns          list the remote server's live sessions");
                println!("  \\disconnect     return to the local in-process cluster");
                println!("  BEGIN / COMMIT / ROLLBACK  explicit transactions");
                println!("  any SQL statement runs against every replica (writes) or one (reads)");
                continue;
            }
            "\\metrics" => {
                if conn.is_remote() {
                    println!("(local-cluster command — \\disconnect first)");
                } else {
                    print!("{}", system.render_metrics());
                }
                continue;
            }
            "\\dbs" => {
                if conn.is_remote() {
                    println!("(local-cluster command — \\disconnect first)");
                    continue;
                }
                for name in cluster.database_names() {
                    let p = cluster.placement(&name).unwrap();
                    println!("  {name}: replicas {:?}, pinned {}", p.replicas, p.pinned);
                }
                continue;
            }
            "\\conns" => {
                match &conn {
                    ShellConn::Remote { client, .. } => match client.list_conns() {
                        Ok(list) => {
                            println!(
                                "  {:<5} {:<14} {:<22} {:<5} {:<5} idle",
                                "id", "db", "peer", "txn", "busy"
                            );
                            for c in &list {
                                println!(
                                    "  {:<5} {:<14} {:<22} {:<5} {:<5} {}ms",
                                    c.id, c.db, c.peer, c.in_txn, c.busy, c.idle_ms
                                );
                            }
                            println!("({} session(s))", list.len());
                        }
                        Err(e) => println!("error: {e}"),
                    },
                    ShellConn::Local(_) => {
                        println!("(not connected over TCP — use \\connect host:port first)")
                    }
                }
                continue;
            }
            "\\disconnect" => {
                if conn.is_remote() {
                    db = "demo".to_string();
                    conn = ShellConn::Local(cluster.connect(&db).unwrap());
                    println!("back to the local in-process cluster");
                } else {
                    println!("(not connected over TCP)");
                }
                continue;
            }
            _ => {}
        }
        if let Some(rest) = input.strip_prefix("\\connect ") {
            let mut parts = rest.split_whitespace();
            let addr = parts.next().unwrap_or("").to_string();
            let target = parts.next().unwrap_or("demo").to_string();
            match NetClient::connect(addr.as_str(), &target, ConnectOptions::default()) {
                Ok(client) => {
                    println!(
                        "connected to {addr}, database '{target}' ({:?} reads, {:?} writes)",
                        client.read_policy(),
                        client.write_policy()
                    );
                    db = target;
                    conn = ShellConn::Remote { client, addr };
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if conn.is_remote()
            && (input.starts_with("\\events")
                || input.starts_with("\\fail")
                || input.starts_with("\\recover")
                || input.starts_with("\\sla")
                || input.starts_with("\\ctrl")
                || input.starts_with("\\georep")
                || input.starts_with("\\explain"))
        {
            println!("(local-cluster command — \\disconnect first)");
            continue;
        }
        if input == "\\ctrl" || input.starts_with("\\ctrl ") {
            let group = cluster.controllers();
            let rest = input.strip_prefix("\\ctrl").unwrap().trim();
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("status") | None => {
                    // sync_ctrl_metrics also drains fresh elections into
                    // ctrl_elected events, so \events shows the failover.
                    let st = cluster.sync_ctrl_metrics();
                    let leader = st
                        .leader
                        .map(|n| format!("c{n}"))
                        .unwrap_or_else(|| "none".to_string());
                    println!(
                        "  {} controller replica(s): leader {leader}, term {}, \
                         commit index {}, replication lag {}, elections {}, lease {}",
                        st.replicas,
                        st.term,
                        st.commit_index,
                        st.replication_lag,
                        st.elections,
                        if st.leader_has_lease { "held" } else { "none" },
                    );
                    if !st.crashed.is_empty() {
                        println!("  crashed: {:?}", st.crashed);
                    }
                    if !st.isolated.is_empty() {
                        println!("  partitioned: {:?}", st.isolated);
                    }
                }
                Some("kill") => {
                    let killed = match parts.next() {
                        Some(n) => match n.parse::<u32>() {
                            Ok(id) => group.crash(id).then_some(id),
                            Err(_) => {
                                println!("usage: \\ctrl kill [controller number]");
                                continue;
                            }
                        },
                        None => group.crash_leader(),
                    };
                    match killed {
                        Some(id) => {
                            let new = group.ensure_leader();
                            println!(
                                "controller c{id} crashed; leader now {} — check \\events \
                                 for the election",
                                new.map(|n| format!("c{n}"))
                                    .unwrap_or_else(|| "none (quorum lost)".to_string())
                            );
                        }
                        None => println!("nothing to kill (no live controller by that name)"),
                    }
                }
                Some("restart") => match parts.next().map(str::parse::<u32>) {
                    Some(Ok(id)) => {
                        if group.restart(id) {
                            let leader = group.ensure_leader();
                            println!(
                                "controller c{id} restarted (catching up from the leader's \
                                 log/snapshot); leader {}",
                                leader
                                    .map(|n| format!("c{n}"))
                                    .unwrap_or_else(|| "none".to_string())
                            );
                        } else {
                            println!("controller c{id} is not crashed");
                        }
                    }
                    _ => println!("usage: \\ctrl restart <controller number>"),
                },
                Some(other) => {
                    println!("unknown \\ctrl subcommand {other:?} (status, kill, restart)")
                }
            }
            continue;
        }
        if input == "\\georep" || input.starts_with("\\georep ") {
            let rest = input.strip_prefix("\\georep").unwrap().trim();
            match rest {
                "status" | "" => {
                    let g = geo.get_or_insert_with(|| {
                        let metrics =
                            GeoMetrics::new(Arc::new(tenantdb_obs::MetricsRegistry::new()));
                        system.register_metrics_source(
                            "georep standby",
                            Arc::clone(metrics.registry()),
                        );
                        GeoSession {
                            standby: ClusterController::with_machines(
                                ClusterConfig::for_tests(),
                                3,
                            ),
                            links: HashMap::new(),
                            metrics,
                            promoted: false,
                        }
                    });
                    if g.promoted {
                        println!("standby already promoted (epoch {})", g.standby.geo_epoch());
                        continue;
                    }
                    if !g.links.contains_key(&db) {
                        match Shipper::new(Arc::clone(&cluster), &db, g.metrics.clone()) {
                            Ok(shipper) => {
                                let applier = Arc::new(Mutex::new(Applier::new(
                                    Arc::clone(&g.standby),
                                    &db,
                                    2,
                                    g.metrics.clone(),
                                )));
                                let metrics = g.metrics.clone();
                                g.links
                                    .insert(db.clone(), GeoLink::new(shipper, applier, metrics));
                            }
                            Err(e) => {
                                println!("error: cannot ship '{db}': {e}");
                                continue;
                            }
                        }
                    }
                    let link = g.links.get_mut(&db).unwrap();
                    match link.sync() {
                        Ok(_) => {
                            println!(
                                "  stream '{db}': source {:?}, cursor {:?}, acked {:?}, lag {}",
                                link.shipper().source(),
                                link.shipper().cursor(),
                                link.acked(),
                                link.lag(),
                            );
                            println!(
                                "  primary: write epoch {}, fenced {}; standby epoch {}",
                                cluster.geo_write_epoch(),
                                cluster.is_geo_fenced(),
                                g.standby.geo_epoch(),
                            );
                        }
                        Err(e) => println!("error: stream sync failed: {e}"),
                    }
                }
                "promote" => match geo.as_mut() {
                    Some(g) if !g.links.is_empty() => {
                        let appliers: Vec<_> =
                            g.links.values().map(|l| Arc::clone(l.applier())).collect();
                        match promote(&g.standby, Some(&cluster), &appliers, &g.metrics) {
                            Ok(out) => {
                                g.promoted = true;
                                println!(
                                    "promoted standby at epoch {} (old primary fenced: {}); \
                                     reconciled in-flight 2PC: {} committed, {} aborted",
                                    out.epoch,
                                    out.fenced_old_primary,
                                    out.committed.len(),
                                    out.aborted.len(),
                                );
                                println!(
                                    "this shell stays on the fenced primary — reads keep \
                                     working, writes are rejected"
                                );
                            }
                            Err(e) => println!("error: promotion failed: {e}"),
                        }
                    }
                    _ => println!("no standby attached — run \\georep status first"),
                },
                other => println!("unknown \\georep subcommand {other:?} (status, promote)"),
            }
            continue;
        }
        if input == "\\events" || input.starts_with("\\events ") {
            let n = input
                .strip_prefix("\\events")
                .unwrap()
                .trim()
                .parse()
                .unwrap_or(20);
            let text = cluster.metrics().events().render_text(n);
            if text.is_empty() {
                println!("(no events)");
            } else {
                print!("{text}");
            }
            continue;
        }
        if let Some(m) = input.strip_prefix("\\fail ") {
            match m.trim().parse::<u32>() {
                Ok(id) => match cluster.fail_machine(MachineId(id)) {
                    Ok(()) => println!("machine m{id} failed; reads/writes served by survivors"),
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("usage: \\fail <machine number>"),
            }
            continue;
        }
        if let Some(m) = input.strip_prefix("\\recover ") {
            match m.trim().parse::<u32>() {
                Ok(id) => {
                    let report =
                        recover_machine(&cluster, MachineId(id), RecoveryConfig::default());
                    for (db, target, took) in &report.recovered {
                        println!("  {db}: new replica on {target} in {took:?}");
                    }
                    for (db, e) in &report.failed {
                        println!("  {db}: FAILED ({e})");
                    }
                    println!(
                        "recovered {} database(s) in {:?} — try \\events to see the copy trail",
                        report.recovered.len(),
                        report.wall_time
                    );
                }
                Err(_) => println!("usage: \\recover <machine number>"),
            }
            continue;
        }
        if let Some(rest) = input.strip_prefix("\\sla") {
            // §4.1 SLA on the current database; arms the admission gate at
            // 2x the floor (see DESIGN.md §13.1).
            let mut parts = rest.split_whitespace();
            match parts.next().map(str::parse::<f64>) {
                Some(Ok(min_tps)) if min_tps > 0.0 => {
                    let frac = parts
                        .next()
                        .and_then(|f| f.parse::<f64>().ok())
                        .unwrap_or(0.1);
                    let sla =
                        tenantdb::sla::Sla::new(min_tps, frac, std::time::Duration::from_secs(60));
                    match cluster.set_sla(&db, sla) {
                        Ok(()) => println!(
                            "sla installed on '{db}': floor {min_tps} tps, max rejected \
                             fraction {frac}; admission gate provisioned at {} tps \
                             (2x headroom)",
                            min_tps * 2.0
                        ),
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("usage: \\sla <min_tps> [max_rejected_frac]"),
            }
            continue;
        }
        if input == "\\hammer" || input.starts_with("\\hammer ") {
            // Offer empty transactions as fast as possible: past the
            // provisioned rate the gate defers, then sheds with the
            // retryable AdmissionRejected error.
            let n: usize = input
                .strip_prefix("\\hammer")
                .unwrap()
                .trim()
                .parse()
                .unwrap_or(500);
            let t = conn.transport();
            let (mut admitted, mut shed) = (0u64, 0u64);
            let started = std::time::Instant::now();
            for _ in 0..n {
                match t.begin() {
                    Ok(()) => {
                        admitted += 1;
                        if let Err(e) = t.commit() {
                            println!("error: {e}");
                            break;
                        }
                    }
                    Err(tenantdb::cluster::ClusterError::AdmissionRejected { .. }) => shed += 1,
                    Err(e) => {
                        println!("error: {e}");
                        break;
                    }
                }
            }
            let secs = started.elapsed().as_secs_f64();
            println!(
                "offered {n} txns in {:.2}s (~{:.0} tps): {admitted} admitted, {shed} shed \
                 — see tenantdb_sla_*_total in \\metrics",
                secs,
                n as f64 / secs.max(1e-9),
            );
            continue;
        }
        if let Some(sql) = input.strip_prefix("\\explain ") {
            // Planned against the schema as one alive replica holds it.
            let explained = cluster
                .alive_replicas(&db)
                .and_then(|replicas| cluster.machine(replicas[0]))
                .map_err(|e| e.to_string())
                .and_then(|m| {
                    let stmt = tenantdb::sql::parse(sql).map_err(|e| e.to_string())?;
                    let plan = tenantdb::sql::plan(&m.engine, &db, &stmt);
                    plan.and_then(|p| p.explain(&m.engine))
                        .map_err(|e| e.to_string())
                });
            match explained {
                Ok(lines) => print!("{lines}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(target) = input.strip_prefix("\\use ") {
            let target = target.trim();
            let remote_addr = match &conn {
                ShellConn::Remote { addr, .. } => Some(addr.clone()),
                ShellConn::Local(_) => None,
            };
            if let Some(addr) = remote_addr {
                // Remote: a fresh handshake onto the requested database.
                match NetClient::connect(addr.as_str(), target, ConnectOptions::default()) {
                    Ok(client) => {
                        db = target.to_string();
                        conn = ShellConn::Remote { client, addr };
                    }
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            if cluster.placement(target).is_err() {
                if let Err(e) = cluster.create_database(target, 2) {
                    println!("error: {e}");
                    continue;
                }
                println!("created database '{target}' (2 replicas)");
            }
            db = target.to_string();
            conn = ShellConn::Local(cluster.connect(&db).unwrap());
            continue;
        }
        let upper = input.to_ascii_uppercase();
        let t = conn.transport();
        let result = match upper.as_str() {
            "BEGIN" => t.begin().map(|()| None),
            "COMMIT" => t.commit().map(|()| None),
            "ROLLBACK" => t.rollback().map(|()| None),
            _ => t.execute(input, &[] as &[Value]).map(Some),
        };
        match result {
            Ok(Some(r)) => print_result(&r),
            Ok(None) => println!("ok"),
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye");
}
