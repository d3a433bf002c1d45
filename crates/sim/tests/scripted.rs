//! The scripted scenario corpus, one `#[test]` per scenario so CI reports
//! exactly which window regressed.

use tenantdb_cluster::fault::CrashPoint;
use tenantdb_sim::all_scenarios;

/// Run one registered scenario by name.
fn run(name: &str) {
    let s = all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} not registered"));
    if let Err(e) = s.run() {
        panic!("scenario {name} ({}): {e}", s.about);
    }
}

macro_rules! scenario_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                run(stringify!($name));
            }
        )*

        /// The corpus floor (≥ 10 scripted crash-point scenarios) and the
        /// registry↔test mapping stay in sync, and every crash point is
        /// *fired* by some scenario (each `fires` list is held to the
        /// injector log when its scenario runs) — except the serving
        /// tier's `net_*` points, which need a live TCP server:
        /// `every_net_crash_point_fires` in `crates/net/tests/e2e.rs`
        /// covers exactly those.
        #[test]
        fn corpus_is_complete() {
            let registered: Vec<&str> =
                all_scenarios().iter().map(|s| s.name).collect();
            let tested = [$(stringify!($name)),*];
            assert!(
                registered.len() >= 10,
                "scripted corpus shrank below 10 scenarios: {registered:?}"
            );
            assert_eq!(
                registered,
                tested,
                "every registered scenario needs a #[test] wrapper here"
            );
            let fired: Vec<CrashPoint> =
                all_scenarios().iter().flat_map(|s| s.fires).copied().collect();
            let unfired: Vec<CrashPoint> = CrashPoint::ALL
                .into_iter()
                .filter(|p| !p.name().starts_with("net_") && !fired.contains(p))
                .collect();
            assert!(
                unfired.is_empty(),
                "no scripted scenario fires {unfired:?} — its recovery path is unexercised"
            );
        }
    };
}

scenario_tests!(
    crash_before_prepare_vote,
    crash_after_prepare_vote,
    controller_crash_after_decision,
    controller_crash_with_dead_participant,
    takeover_commit_participant_crash,
    participant_crash_before_commit_apply,
    participant_crash_after_commit,
    copy_target_crash_at_table_boundary,
    copy_source_crash_db_level,
    straggler_ack_delay,
    aggressive_acked_first_crash,
    lock_timeout_storm,
    fail_machine_idempotent,
    pool_job_delay,
    delayed_commit_decision,
    ctrl_leader_kill_mid_commit_decision,
    ctrl_leader_kill_mid_copy,
    ctrl_partition_minority_heals,
    ctrl_rolling_restart,
    ctrl_quorum_loss_rejects_writes,
    sla_noisy_neighbor,
    sla_reject_under_failover,
    geo_colo_partition,
    geo_lagging_standby_promotion,
    geo_split_brain_fenced,
    geo_standby_attached_after_recovery,
);
