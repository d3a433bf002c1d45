//! Wire-protocol overhead: the same TPC-W transaction stream driven
//! through an in-process cluster `Connection` vs a `NetClient` over a TCP
//! loopback session to the serving frontend.
//!
//! Both transports implement `Transport`, so the workload code is
//! literally identical — the measured delta is the serving tier itself.
//! The report separates the two costs the serving tier charges:
//!
//! * **per-statement overhead** — one autocommit point select in-process
//!   vs over TCP: frame encode/decode plus one loopback round trip;
//! * **per-transaction overhead** — a browsing-mix interaction, measured
//!   two ways over TCP: `unpipelined` (statement-at-a-time, the pre-batch
//!   wire discipline: `(N + 2)` round trips per transaction) and
//!   `batched` (the mix's `execute_batch` path: whole transaction body in
//!   one `Batch` frame, one round trip).
//!
//! Two fixed-cost probes isolate the per-request floor: `tcp/ping` (one
//! empty round trip) and `tcp/ping_pipelined_x16` (16 pings on one RTT —
//! the amortized per-frame cost once round trips overlap).

use std::sync::Arc;
use std::time::Duration;

use tenantdb_sla::Sla;

use tenantdb_bench::wire_probe::{
    time_fixed, time_mix, time_point_select, wire_platform, wire_populate, Unpipelined, WIRE_DB,
};
use tenantdb_bench::{fast_mode, report_micro};
use tenantdb_net::{ConnectOptions, NetClient, Server, ServerConfig};
use tenantdb_tpcw::{IdCounters, Scale};

/// (warmup, measured) op counts for the mix series and the fixed-cost
/// probes. ~10k mix interactions ≈ 0.6–1.4 s per series at the measured
/// per-txn costs.
fn mix_ops() -> (usize, usize) {
    if fast_mode() {
        (100, 1_000)
    } else {
        (1_000, 10_000)
    }
}

fn probe_ops() -> (usize, usize) {
    if fast_mode() {
        (200, 3_000)
    } else {
        (2_000, 30_000)
    }
}

fn main() {
    println!("# micro_wire_overhead — TPC-W browsing txns, in-process vs TCP loopback");

    // Every series is measured `reps` times on a FRESH platform each rep
    // (the mix inserts rows, so reuse would hand later series a bigger
    // working set), and the per-series MINIMUM is reported: interference
    // on a shared box only ever adds time, so min-of-k is the robust
    // estimator for the real cost.
    let reps = if fast_mode() { 1 } else { 3 };
    let min_of =
        |f: &dyn Fn() -> f64| -> f64 { (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min) };

    // In-process: the platform connection, no serving tier.
    let run_in_process =
        |f: &dyn Fn(&tenantdb_cluster::Connection, &IdCounters, Scale) -> f64| -> f64 {
            let (system, scale) = wire_platform();
            let counters = wire_populate(&system, scale);
            let conn = system.connect(WIRE_DB, (0.0, 0.0)).expect("connect");
            f(&conn, &counters, scale)
        };
    let (pw, po) = probe_ops();
    let (mw, mo) = mix_ops();
    let in_process_stmt = min_of(&|| run_in_process(&|conn, _, _| time_point_select(conn, pw, po)));
    report_micro("in_process/point_select", in_process_stmt);
    let in_process = min_of(&|| {
        run_in_process(&|conn, counters, scale| time_mix(conn, counters, scale, mw, mo))
    });
    report_micro("in_process/browsing_txn", in_process);

    // TCP loopback: identical platform, identical stream, one wire hop.
    // With `arm_sla`, a generous SLA is installed on the database first, so
    // every autocommit statement crosses an armed admission gate on both
    // the reactor's inline shed probe and the cluster BEGIN (nothing is
    // ever shed — the delta prices the gate, per EXPERIMENTS.md's ≤2%
    // budget).
    let run_tcp = |arm_sla: bool, f: &dyn Fn(&NetClient, &IdCounters, Scale) -> f64| -> f64 {
        let (system, scale) = wire_platform();
        let counters = wire_populate(&system, scale);
        if arm_sla {
            for colo in system.colos() {
                if let Some(cluster) = colo.cluster_for(WIRE_DB) {
                    cluster
                        .set_sla(WIRE_DB, Sla::new(1_000_000.0, 0.9, Duration::from_secs(60)))
                        .expect("arm sla");
                }
            }
        }
        let server = Server::start("127.0.0.1:0", Arc::clone(&system), ServerConfig::default())
            .expect("bind server");
        let client = NetClient::connect(server.local_addr(), WIRE_DB, ConnectOptions::default())
            .expect("connect");
        let t = f(&client, &counters, scale);
        server.shutdown();
        t
    };

    let tcp_stmt = min_of(&|| run_tcp(false, &|client, _, _| time_point_select(client, pw, po)));
    report_micro("tcp/point_select", tcp_stmt);
    let tcp_stmt_gated =
        min_of(&|| run_tcp(true, &|client, _, _| time_point_select(client, pw, po)));
    report_micro("tcp_sla_gate/point_select", tcp_stmt_gated);
    println!(
        "sla gate overhead = {:+.2}% (budget: <= 2%)",
        (tcp_stmt_gated / tcp_stmt - 1.0) * 100.0
    );

    // A/B: statement-at-a-time vs batched, same interaction stream.
    let unpipelined = min_of(&|| {
        run_tcp(false, &|client, counters, scale| {
            time_mix(&Unpipelined(client), counters, scale, mw, mo)
        })
    });
    report_micro("tcp_unpipelined/browsing_txn", unpipelined);
    let batched = min_of(&|| {
        run_tcp(false, &|client, counters, scale| {
            time_mix(client, counters, scale, mw, mo)
        })
    });
    report_micro("tcp_batched/browsing_txn", batched);

    // Fixed per-request cost, isolated from transaction work.
    let run_ping = || -> (f64, f64) {
        let (system, _scale) = wire_platform();
        let server = Server::start("127.0.0.1:0", Arc::clone(&system), ServerConfig::default())
            .expect("bind server");
        let client = NetClient::connect(server.local_addr(), WIRE_DB, ConnectOptions::default())
            .expect("connect");
        let mut token = 0u64;
        let ping = time_fixed(pw, po, || {
            token += 1;
            client.ping(token).expect("ping");
        });
        let pipelined = time_fixed(pw / 4, po / 4, || {
            client.ping_pipelined(16).expect("pipelined");
        });
        server.shutdown();
        (ping, pipelined)
    };
    let (mut ping, mut pipelined) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (p, pl) = run_ping();
        ping = ping.min(p);
        pipelined = pipelined.min(pl);
    }
    report_micro("tcp/ping", ping);
    report_micro("tcp/ping_pipelined_x16", pipelined / 16.0);

    println!(
        "per-statement overhead = {:.0} ns (ping floor {:.0} ns, {:.0} ns/frame pipelined)",
        tcp_stmt - in_process_stmt,
        ping,
        pipelined / 16.0
    );
    println!(
        "per-txn overhead: unpipelined = {:.0} ns, batched = {:.0} ns ({:.1}x reduction)",
        unpipelined - in_process,
        batched - in_process,
        (unpipelined - in_process) / (batched - in_process).max(1.0)
    );
}
