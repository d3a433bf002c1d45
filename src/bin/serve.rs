//! The TCP serving frontend binary: a single-colo platform with a
//! pre-seeded `demo` database, served over the tenantdb wire protocol.
//!
//! Run with: `cargo run --release --bin serve [addr]` (default
//! `127.0.0.1:7878`), then from another terminal:
//!
//! ```text
//! cargo run --release --example sql_shell
//! demo> \connect 127.0.0.1:7878
//! ```
//!
//! The server drains in-flight transactions on shutdown (Enter / EOF on
//! stdin). Wire metrics are folded into the platform scrape.

use std::sync::Arc;

use tenantdb::net::{Server, ServerConfig};
use tenantdb::platform::{CreateOptions, PlatformConfig, SystemController};

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());

    let system = SystemController::new(PlatformConfig::for_tests(), &[("local", (0.0, 0.0))]);
    system
        .create_database("demo", (0.0, 0.0), CreateOptions::default())
        .expect("create demo database");
    {
        let conn = system.connect("demo", (0.0, 0.0)).expect("connect demo");
        conn.execute(
            "CREATE TABLE books (id INT NOT NULL, title TEXT, price FLOAT, PRIMARY KEY (id))",
            &[],
        )
        .expect("create schema");
        conn.execute(
            "INSERT INTO books VALUES (1, 'CIDR 2009 Proceedings', 0.0), \
             (2, 'Concurrency Control and Recovery', 89.5), \
             (3, 'Transaction Processing', 120.0)",
            &[],
        )
        .expect("seed data");
    }

    let server = Server::start(addr.as_str(), Arc::clone(&system), ServerConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("failed to bind {addr}: {e}");
            std::process::exit(1);
        });
    system.register_metrics_source(
        format!("net serve {}", server.local_addr()),
        server.metrics(),
    );

    println!(
        "tenantdb serving on {} — database 'demo' pre-seeded",
        server.local_addr()
    );
    println!("connect from the shell:  \\connect {}", server.local_addr());
    println!("press Enter (or close stdin) to drain and stop");

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);

    println!("draining in-flight transactions...");
    server.shutdown();
    println!("bye");
}
