//! The two workloads, driven over the wire against a child daemon.
//!
//! A run is made of whole rounds. Each round starts the daemon on an
//! empty home, sets it up, applies the same fixed load, kills it,
//! times restarts on copies of the killed home, and finally opens the
//! killed home in-process to check what survived. Every round of a run
//! applies identical inputs, so rounds differ only by the host.

use crate::daemon::{time_restarts, Daemon, Home};
use crate::gen::{self, BulkInputs, PointInputs, PointOp, RelDef, RuleDef};
use crate::oracle::{bulk_expected, check, Expect, Shadow};
use crate::wire::{connect, pipelined, Call, Receiver, Sender};
use durable::{ActionRegistry, DurableRuleEngine, Options, Record};
use predicate::FunctionRegistry;
use relation::Value;
use ruleserv::Request;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Restarts timed per round, each on its own copy of the killed home.
pub const RESTART_COPIES: usize = 3;
/// Fewest rounds, so set-ups per run, in a `bulk_match` run:
/// `setup_s` is their median.
pub const MIN_ROUNDS: usize = 3;
/// Requests in flight during set-up (below the daemon's queue bound).
const SETUP_WINDOW: usize = 256;

pub struct Ctx {
    /// The `ruleserv` binary.
    pub bin: PathBuf,
    /// Where durable homes are made.
    pub base: PathBuf,
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub load_s: f64,
    /// Requests sent during the load, and how many were not applied.
    pub attempted: u64,
    pub failed: u64,
    /// Applied ops: tuples for `bulk_match`, requests for `point_ops`.
    pub applied: u64,
    pub latencies_ns: Vec<u64>,
    /// Open loop only: how late each request left the generator.
    pub send_late_ns: Vec<u64>,
    pub daemon_cpu_s: f64,
    pub peak_rss_mb: f64,
    pub store_mb: f64,
    pub restart_s: Vec<f64>,
    /// Descriptions of every failed check.
    pub errors: Vec<String>,
}

/// What a traced round keeps: the registry expositions scraped
/// around the load, and a copy of the home as the kill left it.
pub struct Traced {
    pub before: String,
    pub after: String,
    pub killed: Home,
}

fn vals(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

fn ints(values: &[Value]) -> Vec<i64> {
    values
        .iter()
        .map(|v| match v {
            Value::Int(i) => *i,
            other => panic!("generated relations hold only Int, found {other:?}"),
        })
        .collect()
}

fn setup_calls(rels: &[RelDef], rules: &[RuleDef]) -> Vec<Call> {
    let mut calls: Vec<Call> = rels
        .iter()
        .map(|r| {
            Call::new(
                &Request::Apply(Record::CreateRelation { schema: r.schema() }),
                Expect::Unit,
            )
        })
        .collect();
    calls.extend(rules.iter().enumerate().map(|(id, r)| {
        Call::new(
            &Request::Apply(Record::AddRule { spec: r.spec(rels) }),
            Expect::RuleId(id as u32),
        )
    }));
    calls
}

/// Opens a killed home in-process, the way a restarted daemon would.
fn reopen(path: &Path) -> Result<DurableRuleEngine, String> {
    DurableRuleEngine::open(
        path,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options::default(),
    )
    .map_err(|e| format!("reopening the killed home: {e}"))
}

fn check_fire_counts(engine: &DurableRuleEngine, want: &[u64]) -> Result<(), String> {
    let mut got = vec![0u64; want.len()];
    for (id, _, n) in engine.engine().fire_counts() {
        let slot = got
            .get_mut(id.0 as usize)
            .ok_or_else(|| format!("recovered an unknown rule {}", id.0))?;
        *slot = n;
    }
    if got != want {
        let at = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
        return Err(format!(
            "recovered fire count of rule {at} is {}, expected {}",
            got[at], want[at]
        ));
    }
    Ok(())
}

/// Stops the daemon with `kill -9`, times restarts on copies, and
/// checks the home's recovered state with `verify`.
fn crash_and_recover(
    ctx: &Ctx,
    daemon: Daemon,
    home: &Home,
    round: &mut Round,
    keep: bool,
    verify: impl FnOnce(&DurableRuleEngine) -> Result<(), String>,
) -> Result<Option<Home>, String> {
    round.daemon_cpu_s = daemon.cpu_seconds()? - round.daemon_cpu_s;
    round.peak_rss_mb = daemon.peak_rss_mb()?;
    round.store_mb = home.bytes().map_err(|e| e.to_string())? as f64 / (1024.0 * 1024.0);
    daemon.kill();
    round.restart_s = time_restarts(&ctx.bin, home, RESTART_COPIES)?;
    let kept = if keep {
        Some(home.copy_as("killed").map_err(|e| e.to_string())?)
    } else {
        None
    };
    let engine = reopen(home.path())?;
    if let Err(e) = verify(&engine) {
        round.errors.push(format!("recovery: {e}"));
    }
    Ok(kept)
}

// ---------------------------------------------------------------- bulk_match

/// The encoded `bulk_match` round.
pub struct BulkPlan {
    pub inputs: BulkInputs,
    setup: Vec<Call>,
    load: Vec<Call>,
    /// Per-rule fire counts after one round.
    fire_counts: Vec<u64>,
    /// Every loaded row, sorted.
    rows_sorted: Vec<Vec<i64>>,
}

pub fn bulk_plan(inputs: BulkInputs) -> BulkPlan {
    let setup = setup_calls(&inputs.rels, &inputs.rules);
    let mut fire_counts = vec![0u64; inputs.rules.len()];
    let load = inputs
        .batches
        .iter()
        .map(|batch| {
            let fired = bulk_expected(&inputs.rules, batch);
            for &id in &fired {
                fire_counts[id as usize] += 1;
            }
            Call::new(
                &Request::Apply(Record::InsertBatch {
                    relation: inputs.rels[0].name.clone(),
                    rows: batch.iter().map(|r| vals(r)).collect(),
                }),
                Expect::Fire {
                    ops: batch.len() as u64,
                    fired,
                },
            )
        })
        .collect();
    let mut rows_sorted: Vec<Vec<i64>> = inputs.batches.iter().flatten().cloned().collect();
    rows_sorted.sort_unstable();
    BulkPlan {
        inputs,
        setup,
        load,
        fire_counts,
        rows_sorted,
    }
}

/// One closed-loop loader: send a batch, wait for its reply, repeat.
fn closed_loop(
    (mut tx, mut rx): (Sender, Receiver),
    calls: &[&Call],
) -> Result<(Vec<u64>, Vec<String>), String> {
    let mut lat = Vec::with_capacity(calls.len());
    let mut errors = Vec::new();
    for call in calls {
        let t = Instant::now();
        tx.send(&call.frame)?;
        let reply = rx.recv()?;
        lat.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = check(&call.expect, &reply) {
            errors.push(e);
        }
    }
    Ok((lat, errors))
}

pub fn bulk_round(
    ctx: &Ctx,
    plan: &BulkPlan,
    index: usize,
    traced: bool,
) -> Result<(Round, Option<Traced>), String> {
    let home = Home::new(&ctx.base, &format!("bulk{index}")).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (daemon, _) = Daemon::spawn(&ctx.bin, &home, traced)?;
    let (mut tx, mut rx) = connect(daemon.addr)?;
    pipelined(&mut tx, &mut rx, &plan.setup, SETUP_WINDOW)?;
    let before = if traced { Some(daemon.scrape()?) } else { None };

    // Two loaders, each on its own connection, take alternate batches.
    let halves: [Vec<&Call>; 2] = [
        plan.load.iter().step_by(2).collect(),
        plan.load.iter().skip(1).step_by(2).collect(),
    ];
    let second_conn = connect(daemon.addr)?;
    let mut round = Round {
        setup_s: started.elapsed().as_secs_f64(),
        daemon_cpu_s: daemon.cpu_seconds()?,
        ..Round::default()
    };
    let t0 = Instant::now();
    let (first, second) = std::thread::scope(|s| {
        let other = s.spawn(|| closed_loop(second_conn, &halves[1]));
        let first = closed_loop((tx, rx), &halves[0]);
        (first, other.join().expect("loader thread panicked"))
    });
    round.load_s = t0.elapsed().as_secs_f64();
    for part in [first?, second?] {
        round.latencies_ns.extend(part.0);
        round.errors.extend(part.1);
    }
    round.attempted = plan.load.len() as u64;
    round.failed = round.errors.len() as u64;
    let batch = plan.inputs.batches.first().map_or(0, |b| b.len()) as u64;
    round.applied = (round.attempted - round.failed) * batch;
    let after = if traced { Some(daemon.scrape()?) } else { None };

    let relation = plan.inputs.rels[0].name.clone();
    let killed = crash_and_recover(ctx, daemon, &home, &mut round, traced, |engine| {
        let rel = engine
            .engine()
            .db()
            .catalog()
            .relation(&relation)
            .ok_or("relation missing after recovery")?;
        let mut rows: Vec<Vec<i64>> = rel.iter().map(|(_, t)| ints(t.values())).collect();
        rows.sort_unstable();
        if rows != plan.rows_sorted {
            return Err(format!(
                "recovered {} tuples, expected {}, or their values differ",
                rows.len(),
                plan.rows_sorted.len()
            ));
        }
        check_fire_counts(engine, &plan.fire_counts)
    })?;
    let traced = before
        .zip(after)
        .zip(killed)
        .map(|((before, after), killed)| Traced {
            before,
            after,
            killed,
        });
    Ok((round, traced))
}

// ----------------------------------------------------------------- point_ops

/// The encoded `point_ops` round.
pub struct PointPlan {
    pub inputs: PointInputs,
    setup: Vec<Call>,
    load: Vec<Call>,
}

pub fn point_record(rels: &[RelDef], op: &PointOp) -> Record {
    let relation = rels[op.rel()].name.clone();
    match op {
        PointOp::Insert { values, .. } => Record::Insert {
            relation,
            values: vals(values),
        },
        PointOp::Update { id, values, .. } => Record::Update {
            relation,
            id: *id,
            values: vals(values),
        },
        PointOp::Delete { id, .. } => Record::Delete { relation, id: *id },
    }
}

pub fn point_plan(inputs: PointInputs) -> PointPlan {
    let mut setup = setup_calls(&inputs.rels, &inputs.rules);
    for ((rel, rows), fired) in inputs.preload.iter().zip(&inputs.preload_fired) {
        setup.push(Call::new(
            &Request::Apply(Record::InsertBatch {
                relation: inputs.rels[*rel].name.clone(),
                rows: rows.iter().map(|r| vals(r)).collect(),
            }),
            Expect::Fire {
                ops: rows.len() as u64,
                fired: fired.clone(),
            },
        ));
    }
    let load = inputs
        .ops
        .iter()
        .zip(&inputs.fired)
        .map(|(op, fired)| {
            Call::new(
                &Request::Apply(point_record(&inputs.rels, op)),
                Expect::Fire {
                    ops: 1,
                    fired: fired.clone(),
                },
            )
        })
        .collect();
    PointPlan {
        inputs,
        setup,
        load,
    }
}

/// `point_ops` rounds per run: `p99_ms` is the median of their p99s,
/// so a host stall inside one round does not move it.
pub const POINT_ROUNDS: usize = 5;

/// Requests per `point_ops` round: the run's seconds at the offered
/// rate, split over [`POINT_ROUNDS`] rounds.
pub fn point_ops_per_round(seconds: u64) -> usize {
    ((gen::POINT_RATE * seconds) as usize / POINT_ROUNDS).max(100)
}

fn check_shadow(
    engine: &DurableRuleEngine,
    rels: &[RelDef],
    shadow: &Shadow,
) -> Result<(), String> {
    for (i, def) in rels.iter().enumerate() {
        let rel = engine
            .engine()
            .db()
            .catalog()
            .relation(&def.name)
            .ok_or_else(|| format!("relation {} missing after recovery", def.name))?;
        let got: Vec<(u32, Vec<i64>)> =
            rel.iter().map(|(id, t)| (id.0, ints(t.values()))).collect();
        let want: Vec<(u32, Vec<i64>)> = shadow.rels[i]
            .rows()
            .map(|(id, r)| (id, r.clone()))
            .collect();
        if got != want {
            return Err(format!(
                "relation {} recovered {} tuples, the shadow holds {}, or ids or values differ",
                def.name,
                got.len(),
                want.len()
            ));
        }
    }
    check_fire_counts(engine, &shadow.fire_counts)
}

pub fn point_round(
    ctx: &Ctx,
    plan: &PointPlan,
    index: usize,
    traced: bool,
) -> Result<(Round, Option<Traced>), String> {
    let home = Home::new(&ctx.base, &format!("point{index}")).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (daemon, _) = Daemon::spawn(&ctx.bin, &home, traced)?;
    let (mut tx, mut rx) = connect(daemon.addr)?;
    pipelined(&mut tx, &mut rx, &plan.setup, SETUP_WINDOW)?;
    let before = if traced { Some(daemon.scrape()?) } else { None };

    let mut round = Round {
        setup_s: started.elapsed().as_secs_f64(),
        daemon_cpu_s: daemon.cpu_seconds()?,
        ..Round::default()
    };
    // Open loop: request i is due at start + i / rate whatever the
    // replies do; a receiver thread timestamps replies as they arrive.
    let period = Duration::from_nanos(1_000_000_000 / gen::POINT_RATE);
    let n = plan.load.len();
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + period * i as u32;
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut out = Vec::with_capacity(n);
            for call in &plan.load {
                let reply = rx.recv()?;
                out.push((Instant::now(), check(&call.expect, &reply).err()));
            }
            Ok::<_, String>(out)
        });
        let mut late = Vec::with_capacity(n);
        let mut sent = Ok(());
        for (i, call) in plan.load.iter().enumerate() {
            let at = due(i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            late.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
            if let Err(e) = tx.send(&call.frame) {
                sent = Err(e);
                break;
            }
        }
        let received = receiver.join().expect("receiver thread panicked");
        (sent.map(|()| late), received)
    });
    round.send_late_ns = sent?;
    let received = received?;
    round.load_s = received
        .last()
        .map_or(0.0, |(t, _)| t.duration_since(start).as_secs_f64());
    for (i, (at, err)) in received.into_iter().enumerate() {
        round
            .latencies_ns
            .push(at.saturating_duration_since(due(i)).as_nanos() as u64);
        if let Some(e) = err {
            round.errors.push(format!("request {i}: {e}"));
        }
    }
    round.attempted = n as u64;
    round.failed = round.errors.len() as u64;
    round.applied = round.attempted - round.failed;
    let after = if traced { Some(daemon.scrape()?) } else { None };

    let killed = crash_and_recover(ctx, daemon, &home, &mut round, traced, |engine| {
        check_shadow(engine, &plan.inputs.rels, &plan.inputs.shadow)
    })?;
    let traced = before
        .zip(after)
        .zip(killed)
        .map(|((before, after), killed)| Traced {
            before,
            after,
            killed,
        });
    Ok((round, traced))
}
