//! The traced wrappers must not change what the program does: with one
//! client and a fixed seed, a traced and an untraced trajectory of each
//! workload end in the same audit report, the same final state and the
//! same per-transaction counts.

use om_common::config::ScaleConfig;
use om_perfbench::cell::WORKLOADS;
use om_perfbench::trajectory::{run, Trajectory, TrajectoryConfig};
use std::collections::BTreeMap;

const SCALE: ScaleConfig = ScaleConfig {
    sellers: 10,
    products_per_seller: 10,
    customers: 100,
    initial_stock: 1_000_000,
};

fn trajectory(name: &str, traced: bool) -> Trajectory {
    let mut workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("known workload");
    workload.measured_ops = 300;
    workload.warmup_ops = 20;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "om-perfbench-test-{name}-{traced}-{}",
        std::process::id()
    ));
    let t = run(&TrajectoryConfig {
        workload,
        scale: SCALE,
        seed: 42,
        clients: 1,
        traced,
        data_dir: dir.join("state"),
        spans_out: None,
    });
    let _ = std::fs::remove_dir_all(&dir);
    t
}

fn completed_per_kind(t: &Trajectory) -> BTreeMap<String, u64> {
    t.kinds
        .iter()
        .map(|(k, s)| (k.clone(), s.completed))
        .collect()
}

fn assert_same_outcome(name: &str) {
    let untraced = trajectory(name, false);
    let traced = trajectory(name, true);
    assert!(untraced.passed(), "{name}: {:?}", untraced.gate_failures);
    assert!(traced.passed(), "{name}: {:?}", traced.gate_failures);
    assert_eq!(
        serde_json::to_string(&untraced.criteria).unwrap(),
        serde_json::to_string(&traced.criteria).unwrap(),
        "{name}: audit reports differ"
    );
    assert_eq!(untraced.state, traced.state, "{name}: final states differ");
    assert_eq!(
        completed_per_kind(&untraced),
        completed_per_kind(&traced),
        "{name}: per-transaction counts differ"
    );
    assert_eq!(
        (untraced.attempted, untraced.failed),
        (traced.attempted, traced.failed)
    );
    assert!(untraced.layers.is_empty());
    assert!(
        traced.layers["storage.commits_per_op"] > 0.0,
        "{name}: storage untraced"
    );
    assert!(
        traced.layers["http.requests_per_op"] >= 1.0,
        "{name}: requests untraced"
    );
}

#[test]
fn mix_tx_si_traced_matches_untraced() {
    assert_same_outcome("mix_tx_si");
}

#[test]
fn mix_df_durable_traced_matches_untraced() {
    assert_same_outcome("mix_df_durable");
}

#[test]
fn dash_cust_si_traced_matches_untraced() {
    assert_same_outcome("dash_cust_si");
}
