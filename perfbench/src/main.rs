//! Benchmark of the `ruleserv` daemon in its default durable
//! configuration. See `README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload bulk_match|point_ops --seed N --seconds S --trace 0|1
//!           --daemon PATH --homes DIR [--spans FILE]
//! ```
//!
//! `--daemon` is the built `ruleserv` binary and `--homes` a directory
//! (memory-backed) for durable homes; `run.py` supplies both. The last
//! line of standard output is the result as one JSON object.

mod daemon;
mod gen;
mod oracle;
mod stats;
mod trace;
mod wire;
mod workload;

use stats::{median, percentile, Metrics};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Ctx, Round};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    homes: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let (mut daemon, mut homes, mut spans) = (None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--homes" => homes = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        daemon: daemon.ok_or("--daemon is required")?,
        homes: homes.ok_or("--homes is required")?,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Longest a run may spend on rounds before it stops starting new ones.
const WALL_BUDGET_S: f64 = 100.0;

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        bin: args.daemon.clone(),
        base: args.homes.clone(),
    };
    if !ctx.bin.is_file() {
        return Err(format!("no daemon binary at {}", ctx.bin.display()));
    }
    let wall = Instant::now();
    if args.trace {
        return trace::run(
            &ctx,
            &args.workload,
            args.seed,
            args.seconds,
            args.spans.as_deref(),
        );
    }
    let mut rounds: Vec<Round> = Vec::new();
    match args.workload.as_str() {
        "bulk_match" => {
            let plan = workload::bulk_plan(gen::bulk_inputs(args.seed));
            // Whole rounds until the load has run for `seconds`.
            let mut load = 0.0;
            while rounds.len() < workload::MIN_ROUNDS
                || (load < args.seconds as f64 && wall.elapsed().as_secs_f64() < WALL_BUDGET_S)
            {
                let (round, _) = workload::bulk_round(&ctx, &plan, rounds.len(), false)?;
                load += round.load_s;
                rounds.push(round);
            }
        }
        "point_ops" => {
            let ops = workload::point_ops_per_round(args.seconds);
            let plan = workload::point_plan(gen::point_inputs(args.seed, ops));
            for i in 0..workload::POINT_ROUNDS {
                rounds.push(workload::point_round(&ctx, &plan, i, false)?.0);
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    let correct = report(&args.workload, &rounds);
    Ok(correct)
}

/// Prints the human-readable summary and the JSON result line.
fn report(workload: &str, rounds: &[Round]) -> bool {
    let mut lat: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let applied: u64 = rounds.iter().map(|r| r.applied).sum();
    let load_s: f64 = rounds.iter().map(|r| r.load_s).sum();
    let cpu_s: f64 = rounds.iter().map(|r| r.daemon_cpu_s).sum();
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let restarts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.restart_s.iter().copied())
        .collect();
    let errors: Vec<&String> = rounds.iter().flat_map(|r| r.errors.iter()).collect();
    let pick = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());

    let mut m = Metrics::default();
    m.put("goodput_ops_s", applied as f64 / load_s.max(1e-9), "ops/s");
    m.put("p50_ms", percentile(&lat, 0.50) as f64 / 1e6, "ms");
    // The median of the rounds' p99s: one host stall in one round
    // moves its own round's tail only.
    let p99s: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let mut l = r.latencies_ns.clone();
            l.sort_unstable();
            percentile(&l, 0.99) as f64 / 1e6
        })
        .collect();
    m.put("p99_ms", median(&p99s), "ms");
    m.put("cpu_us_per_op", cpu_s * 1e6 / (applied.max(1)) as f64, "us");
    m.put("setup_s", pick(|r| r.setup_s), "s");
    m.put("recover_s", median(&restarts), "s");
    m.put("peak_rss_mb", pick(|r| r.peak_rss_mb), "MB");
    m.put("store_mb", pick(|r| r.store_mb), "MB");

    println!(
        "workload {workload}: {} rounds, {attempted} requests, {failed} failed, {applied} applied ops in {load_s:.3} s of load, {} latency samples",
        rounds.len(),
        lat.len()
    );
    println!(
        "pooled latency ms: p50 {:.3}, p90 {:.3}, p95 {:.3}, p99 {:.3}, p99.9 {:.3}, max {:.3}; per-round p99 {p99s:.3?}, per-round daemon CPU us/op {:.1?}",
        percentile(&lat, 0.50) as f64 / 1e6,
        percentile(&lat, 0.90) as f64 / 1e6,
        percentile(&lat, 0.95) as f64 / 1e6,
        percentile(&lat, 0.99) as f64 / 1e6,
        percentile(&lat, 0.999) as f64 / 1e6,
        lat.last().copied().unwrap_or(0) as f64 / 1e6,
        rounds.iter().map(|r| r.daemon_cpu_s * 1e6 / r.applied.max(1) as f64).collect::<Vec<_>>()
    );
    let mut late: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.send_late_ns.iter().copied())
        .collect();
    if !late.is_empty() {
        late.sort_unstable();
        println!(
            "open loop at {} ops/s: generator sent late by p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            gen::POINT_RATE,
            percentile(&late, 0.50) as f64 / 1e6,
            percentile(&late, 0.99) as f64 / 1e6,
            late.last().copied().unwrap_or(0) as f64 / 1e6
        );
    }
    for e in errors.iter().take(10) {
        println!("FAILED CHECK: {e}");
    }
    let correct = errors.is_empty();
    m.print_table();
    println!("{}", m.json(correct, attempted, failed));
    correct
}
