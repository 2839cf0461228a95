//! Turns the trajectories of one run into named metrics: medians across
//! trajectories, each with its unit and sample count.

use crate::trajectory::Trajectory;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises: operations for rates
    /// and latencies, trajectories for per-trajectory figures.
    pub samples: u64,
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("checkout_p50_ms", "ms"),
    ("checkout_p90_ms", "ms"),
    ("price_update_p50_ms", "ms"),
    ("dashboard_p50_ms", "ms"),
    ("delivery_p50_ms", "ms"),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("http.requests_per_op", "1/op"),
    ("http.self_us_per_req", "us"),
    ("http.shed_503", "count"),
    ("http.timeouts_408", "count"),
    ("binding.checkout_us", "us"),
    ("binding.add_to_cart_us", "us"),
    ("binding.price_update_us", "us"),
    ("binding.dashboard_us", "us"),
    ("binding.delivery_us", "us"),
    ("tx.restarts_per_op", "1/op"),
    ("tx.lock_waits_per_op", "1/op"),
    ("tx.abort_ratio", "ratio"),
    ("storage.commits_per_op", "1/op"),
    ("storage.commit_bytes_per_op", "B/op"),
    ("storage.commit_bytes_growth", "ratio"),
    ("storage.commit_us", "us"),
    ("storage.commit_errors", "count"),
    ("storage.reads_per_op", "1/op"),
    ("storage.read_us", "us"),
    ("storage.scans_per_op", "1/op"),
    ("storage.scan_rows_per_scan", "rows"),
    ("storage.scan_us", "us"),
    ("storage.busy_us_per_op", "us/op"),
    ("vfs.write_bytes_per_op", "B/op"),
    ("vfs.writes_per_op", "1/op"),
    ("vfs.syncs_per_op", "1/op"),
    ("vfs.dir_syncs_per_op", "1/op"),
    ("vfs.sync_us", "us"),
    ("vfs.write_us", "us"),
    ("vfs.bytes_per_storage_byte", "ratio"),
    ("dataflow.epochs_per_op", "1/op"),
    ("dataflow.checkpoint_us", "us"),
    ("dataflow.dirty_entries_per_epoch", "count"),
    ("dataflow.checkpoint_bytes_per_epoch", "B"),
    ("log.appends_per_op", "1/op"),
    ("log.append_us", "us"),
    ("log.duplicates", "count"),
    ("host.steal_pct", "%"),
    ("host.cpu_util", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(runs: &[Trajectory], f: impl Fn(&Trajectory) -> f64) -> f64 {
    median(runs.iter().map(f).collect())
}

/// Median over trajectories of one latency percentile of one
/// transaction kind, with the kind's completed count over all of them.
fn latency(
    runs: &[Trajectory],
    kind: &str,
    pick: fn(&crate::trajectory::KindStats) -> f64,
) -> (f64, u64) {
    let present: Vec<_> = runs.iter().filter_map(|r| r.kinds.get(kind)).collect();
    (
        median(present.iter().map(|k| pick(k)).collect()),
        present.iter().map(|k| k.completed).sum(),
    )
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// The end-to-end metrics of untraced trajectories.
pub fn end_to_end(runs: &[Trajectory]) -> Vec<Metric> {
    let n = runs.len() as u64;
    let ops: u64 = runs.iter().map(|r| r.completed).sum();
    let (checkout_p50, checkouts) = latency(runs, "checkout", |k| k.p50_ms);
    let (checkout_p90, _) = latency(runs, "checkout", |k| k.p90_ms);
    let (price_p50, prices) = latency(runs, "price_update", |k| k.p50_ms);
    let (dashboard_p50, dashboards) = latency(runs, "seller_dashboard", |k| k.p50_ms);
    let (delivery_p50, deliveries) = latency(runs, "update_delivery", |k| k.p50_ms);
    vec![
        metric("setup_s", "s", median_of(runs, |r| r.setup_s), n),
        metric(
            "throughput_ops_s",
            "1/s",
            median_of(runs, Trajectory::throughput),
            ops,
        ),
        metric(
            "cpu_ms_per_op",
            "ms",
            median_of(runs, |r| r.cpu_ms / r.completed.max(1) as f64),
            ops,
        ),
        metric("peak_rss_mb", "MiB", median_of(runs, |r| r.peak_rss_mb), n),
        metric("checkout_p50_ms", "ms", checkout_p50, checkouts),
        metric("checkout_p90_ms", "ms", checkout_p90, checkouts),
        metric("price_update_p50_ms", "ms", price_p50, prices),
        metric("dashboard_p50_ms", "ms", dashboard_p50, dashboards),
        metric("delivery_p50_ms", "ms", delivery_p50, deliveries),
    ]
}

/// Figures printed beside the end-to-end metrics but not gated: the
/// latencies too noisy (p99) or too rare (deletes), and the host's steal
/// and load.
pub fn informational(runs: &[Trajectory]) -> Vec<Metric> {
    let n = runs.len() as u64;
    let mut out = Vec::new();
    for (kind, p50, p99) in [
        ("update_delivery", None, "delivery_p99_ms"),
        ("product_delete", Some("delete_p50_ms"), "delete_p99_ms"),
        ("checkout", None, "checkout_p99_ms"),
        ("price_update", None, "price_update_p99_ms"),
        ("seller_dashboard", None, "dashboard_p99_ms"),
    ] {
        let (v50, samples) = latency(runs, kind, |k| k.p50_ms);
        if samples == 0 {
            continue;
        }
        if let Some(p50) = p50 {
            out.push(metric(p50, "ms", v50, samples));
        }
        out.push(metric(
            p99,
            "ms",
            latency(runs, kind, |k| k.p99_ms).0,
            samples,
        ));
    }
    out.push(metric(
        "steal_pct",
        "%",
        median_of(runs, |r| r.steal_pct),
        n,
    ));
    out.push(metric(
        "cpu_util",
        "ratio",
        median_of(runs, |r| r.cpu_util),
        n,
    ));
    out.push(metric(
        "conflict_retries_per_op",
        "1/op",
        median_of(runs, |r| {
            r.conflict_retries as f64 / r.attempted.max(1) as f64
        }),
        runs.iter().map(|r| r.attempted).sum(),
    ));
    out
}

/// The per-layer metrics of traced trajectories; `untraced` ones of the
/// same run give the tracing overhead.
pub fn per_layer(traced: &[Trajectory], untraced: &[Trajectory]) -> Vec<Metric> {
    let n = traced.len() as u64;
    let untraced_tput = median_of(untraced, Trajectory::throughput);
    let traced_tput = median_of(traced, Trajectory::throughput);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "host.steal_pct" => median_of(traced, |r| r.steal_pct),
                "host.cpu_util" => median_of(traced, |r| r.cpu_util),
                "trace.overhead_pct" => 100.0 * (1.0 - traced_tput / untraced_tput),
                _ => median_of(traced, |r| r.layers.get(name).copied().unwrap_or(0.0)),
            };
            metric(name, unit, value, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let json: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        json[section]
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_declared_ones() {
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
