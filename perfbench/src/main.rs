//! The benchmark's command line.
//!
//! ```text
//! om_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs fixed-count trajectories of one workload, each in a fresh child
//! process of its own, until their measured windows add up to `--seconds`
//! (and at least [`MIN_TRAJECTORIES`]), and prints one line per
//! trajectory, a table of metrics with units and sample counts, and as
//! the last line one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of untraced trajectories;
//! `--trace 1` alternates untraced and traced trajectories and reports
//! the per-layer metrics of the traced ones.
//!
//! A trajectory that fails the correctness gate makes the run report
//! `"correct": false` with no metrics and exit with status 1.

use om_perfbench::cell::{self, Workload, SCALE};
use om_perfbench::summary::{self, Metric};
use om_perfbench::trajectory::{self, Trajectory, TrajectoryConfig};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Fewest trajectories an untraced run takes the median over; a traced
/// run pairs at least [`MIN_TRACED`] traced trajectories with as many
/// untraced ones.
const MIN_TRAJECTORIES: usize = 3;
const MIN_TRACED: usize = 2;
/// Most trajectories of one kind a run keeps.
const MAX_TRAJECTORIES: usize = 8;
/// A trajectory during whose set-up or window the hypervisor stole more
/// than this share of host CPU time measured the host, not the program:
/// the run sets it aside and runs another in its place, up to
/// [`MAX_SET_ASIDE`] times; after that it keeps every trajectory, so a
/// long steal episode lengthens a run by at most that many trajectories.
/// (Steal swings from under 1% to about 30% between back-to-back
/// trajectories, and a trajectory at 30% steal runs at a fifth of the
/// speed.)
const MAX_STEAL_PCT: f64 = 2.0;
const MAX_SET_ASIDE: usize = 2;
/// A run starts no trajectory it could not finish within this budget.
const RUN_BUDGET: Duration = Duration::from_secs(160);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: run one trajectory and print it as JSON.
    trajectory: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trajectory = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--trajectory" {
            trajectory = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(cell::workload(&value).ok_or(format!(
                    "unknown workload {value:?} (known: {})",
                    cell::WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        trajectory,
    })
}

/// Scratch space of the benchmark, inside its own directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn trajectory_config(args: &Args) -> TrajectoryConfig {
    let tag = format!("{}-{}", args.workload.name, std::process::id());
    TrajectoryConfig {
        workload: args.workload,
        scale: SCALE,
        seed: args.seed,
        clients: CLIENTS,
        traced: args.trace,
        data_dir: work_dir().join(format!("state-{tag}")),
        spans_out: args
            .trace
            .then(|| work_dir().join(format!("spans-{}.tsv", args.workload.name))),
    }
}

/// Runs one trajectory in a child process, killing it at `deadline`.
fn spawn_trajectory(args: &Args, traced: bool, deadline: Instant) -> Result<Trajectory, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--trajectory",
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("start a trajectory: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for a trajectory: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err("a trajectory overran the run's time budget".into());
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = reader
        .join()
        .expect("stdout reader panicked")
        .map_err(|e| format!("read a trajectory's output: {e}"))?;
    if !status.success() {
        return Err(format!("a trajectory exited with {status}"));
    }
    let line = out.lines().last().ok_or("a trajectory printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("parse a trajectory's result: {e:?}"))
}

fn describe(t: &Trajectory) -> String {
    format!(
        "trajectory {} seed={} traced={} setup={:.3}s window={:.3}s ops={} failed={} \
         tput={:.1}/s cpu={:.3}ms/op steal={:.1}% setup_steal={:.1}% rss={:.0}MiB stale_reads={} torn={} gate={}",
        t.workload,
        t.seed,
        t.traced,
        t.setup_s,
        t.window_s,
        t.completed,
        t.failed,
        t.throughput(),
        t.cpu_ms / t.completed.max(1) as f64,
        t.steal_pct,
        t.setup_steal_pct,
        t.peak_rss_mb,
        t.criteria.replication_violations,
        t.criteria.torn_dashboards,
        if t.passed() {
            "pass".to_string()
        } else {
            t.gate_failures.join("; ")
        }
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn orchestrate(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("create the work directory: {e}"))?;
    let started = Instant::now();
    let deadline = started + RUN_BUDGET;
    // With --trace 1 the run alternates untraced and traced trajectories,
    // so both sides see the same host conditions.
    let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let min = if args.trace {
        MIN_TRACED
    } else {
        MIN_TRAJECTORIES
    };
    let enough = |runs: &[Trajectory]| {
        let count = runs.iter().filter(|r| r.traced == args.trace).count();
        let window: f64 = runs.iter().map(|r| r.window_s).sum();
        count >= MAX_TRAJECTORIES || (count >= min && window >= args.seconds)
    };
    let mut kept: Vec<Trajectory> = Vec::new();
    let mut set_aside: Vec<Trajectory> = Vec::new();
    let mut longest = Duration::ZERO;
    while !enough(&kept) {
        if Instant::now() + longest * kinds.len() as u32 > deadline {
            break;
        }
        for &traced in kinds {
            let began = Instant::now();
            let t = spawn_trajectory(args, traced, deadline)?;
            println!("{}", describe(&t));
            longest = longest.max(began.elapsed());
            let stolen = t.steal_pct.max(t.setup_steal_pct) > MAX_STEAL_PCT;
            if stolen && set_aside.len() < MAX_SET_ASIDE {
                set_aside.push(t);
            } else {
                kept.push(t);
            }
        }
    }
    let runs: Vec<&Trajectory> = kept.iter().chain(&set_aside).collect();
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum();
    if let Some(bad) = runs.iter().find(|r| !r.passed()) {
        println!("correctness gate failed: {}", bad.gate_failures.join("; "));
        println!("{}", result_line(false, attempted, failed, &[]));
        return Ok(false);
    }
    let mut failures = std::collections::BTreeMap::new();
    for r in &runs {
        for (cause, n) in &r.failures {
            *failures.entry(cause.clone()).or_insert(0u64) += n;
        }
    }
    println!("failed operations by cause: {failures:?} (of {attempted} attempted)");
    if !set_aside.is_empty() {
        println!(
            "set aside {} trajectories with more than {MAX_STEAL_PCT}% steal",
            set_aside.len()
        );
    }
    if !enough(&kept) {
        // Out of time: report over every trajectory rather than too few.
        kept.append(&mut set_aside);
        if kept.iter().filter(|r| r.traced == args.trace).count() < min {
            return Err("the run's time budget ran out".into());
        }
        println!("out of time: the set-aside trajectories count after all");
    }
    let (traced, untraced): (Vec<Trajectory>, Vec<Trajectory>) =
        kept.into_iter().partition(|r| r.traced);
    let end_to_end = summary::end_to_end(&untraced);
    print_table(
        "end-to-end (untraced, medians over trajectories):",
        &end_to_end,
    );
    print_table("not gated:", &summary::informational(&untraced));
    let reported = if args.trace {
        for t in &traced {
            println!(
                "per-decile throughput and storage commit bytes/op ({} seed {}):",
                t.workload, t.seed
            );
            for (i, d) in t.deciles.iter().enumerate() {
                println!(
                    "  decile {:>2}: {:>9.1} ops/s {:>12.1} B/op",
                    i + 1,
                    d.ops_s,
                    d.commit_bytes_per_op
                );
            }
        }
        let layers = summary::per_layer(&traced, &untraced);
        print_table("per-layer (traced, medians over trajectories):", &layers);
        println!(
            "spans: {}",
            work_dir()
                .join(format!("spans-{}.tsv", args.workload.name))
                .display()
        );
        layers
    } else {
        end_to_end
    };
    println!("{}", result_line(true, attempted, failed, &reported));
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trajectory {
        let t = trajectory::run(&trajectory_config(&args));
        println!(
            "{}",
            serde_json::to_string(&t).expect("serialise a trajectory")
        );
        return ExitCode::SUCCESS;
    }
    match orchestrate(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
