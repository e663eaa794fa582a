//! The traced run: per-layer numbers for one workload.
//!
//! Counts come from the daemon's own metrics registry, scraped over
//! `--metrics` before and after one wire round. Timings come only from
//! spans recorded here: the workload's own generated inputs are
//! replayed through each layer's public entry points in turn, from the
//! IBS-tree up to the durable engine, with a span around every call.
//! A layer's self time is its time minus the time of the layer beneath
//! it on the same inputs. The replay runs twice, without and with
//! spans, and the difference is the tracing overhead.

use crate::daemon::Home;
use crate::gen::{self, PointOp, RelDef, RuleDef};
use crate::oracle::{Expect, ShadowRel};
use crate::stats::Metrics;
use crate::wire::Call;
use crate::workload::{self, Ctx, Round};
use durable::{ActionRegistry, DurableRuleEngine, Options, Record, SyncPolicy, Wal};
use ibs::IbsTree;
use interval::IntervalId;
use predicate::selectivity::most_selective_indexable;
use predicate::{BoundClause, FunctionRegistry, ParsedCondition};
use predindex::{Matcher, PredicateIndex};
use relation::{Database, Tuple, TupleId, Value};
use ruleserv::{FireSummary, Reply, Request};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// In-memory spans: name, parent, start and end in nanoseconds since
/// the recorder started. Disabled, `begin`/`end` record nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    recs: Vec<(u16, u32, u64, u64)>,
    stack: Vec<u32>,
}

const NO_PARENT: u32 = u32::MAX;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        } as u16;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.recs.len() as u32);
        let start = self.now();
        self.recs.push((id, parent, start, 0));
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let i = self.stack.pop().expect("end without begin");
        self.recs[i as usize].3 = now;
    }

    /// `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = black_box(f());
        self.end();
        out
    }

    /// Number of spans named `name` and their summed duration in ns.
    pub fn total(&self, name: &str) -> (u64, f64) {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return (0, 0.0);
        };
        self.recs
            .iter()
            .filter(|r| r.0 as usize == id)
            .fold((0, 0.0), |(n, ns), r| (n + 1, ns + (r.3 - r.2) as f64))
    }

    /// Writes every span as a tab-separated line:
    /// `id parent name start_ns dur_ns` (`parent` is `-` at the top).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns")?;
        for (i, &(name, parent, start, end)) in self.recs.iter().enumerate() {
            let parent = if parent == NO_PARENT {
                "-".to_string()
            } else {
                parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{start}\t{}",
                self.names[name as usize],
                end - start
            )?;
        }
        out.flush()
    }
}

/// One tuple event of the replay: relation, tuple id, kind, new row
/// (the removed row for a delete).
#[derive(Clone)]
struct Event {
    rel: usize,
    id: u32,
    kind: Kind,
    row: Vec<i64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Update,
    Delete,
}

/// A workload's inputs, in the shape every layer replay takes.
struct Inputs {
    rels: Vec<RelDef>,
    rules: Vec<RuleDef>,
    /// Set-up batches applied before the timed ops (`point_ops` preload).
    preload: Vec<(usize, Vec<Vec<i64>>)>,
    /// The timed ops as the durable log records them.
    records: Vec<Record>,
    /// Tuple events of the timed ops, in order.
    events: Vec<Event>,
    /// Per timed op: the reply the daemon sends.
    replies: Vec<Reply>,
}

fn row_values(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

fn fire_reply(rules: &[RuleDef], seq: u64, ops: u64, fired: &[u32]) -> Reply {
    Reply::Fire(FireSummary {
        seq,
        ops_applied: ops,
        fired: fired
            .iter()
            .map(|&id| (id, rules[id as usize].name.clone()))
            .collect(),
    })
}

fn bulk_replay_inputs(inputs: gen::BulkInputs) -> Inputs {
    let mut events = Vec::new();
    let mut replies = Vec::new();
    let mut records = Vec::new();
    let setup_ops = (inputs.rels.len() + inputs.rules.len()) as u64;
    let mut next_id = 0u32;
    for (i, batch) in inputs.batches.iter().enumerate() {
        records.push(Record::InsertBatch {
            relation: inputs.rels[0].name.clone(),
            rows: batch.iter().map(|r| row_values(r)).collect(),
        });
        for row in batch {
            events.push(Event {
                rel: 0,
                id: next_id,
                kind: Kind::Insert,
                row: row.clone(),
            });
            next_id += 1;
        }
        let fired = crate::oracle::bulk_expected(&inputs.rules, batch);
        replies.push(fire_reply(
            &inputs.rules,
            setup_ops + 1 + i as u64,
            batch.len() as u64,
            &fired,
        ));
    }
    Inputs {
        rels: inputs.rels,
        rules: inputs.rules,
        preload: Vec::new(),
        records,
        events,
        replies,
    }
}

fn point_replay_inputs(inputs: gen::PointInputs) -> Inputs {
    let mut ids: Vec<ShadowRel> = vec![ShadowRel::default(); inputs.rels.len()];
    for (rel, rows) in &inputs.preload {
        for row in rows {
            ids[*rel].insert(row.clone());
        }
    }
    let setup_ops = (inputs.rels.len() + inputs.rules.len() + inputs.preload.len()) as u64;
    let mut events = Vec::new();
    let mut replies = Vec::new();
    let mut records = Vec::new();
    for (i, (op, fired)) in inputs.ops.iter().zip(&inputs.fired).enumerate() {
        records.push(workload::point_record(&inputs.rels, op));
        let event = match op {
            PointOp::Insert { rel, values } => Event {
                rel: *rel,
                id: ids[*rel].insert(values.clone()),
                kind: Kind::Insert,
                row: values.clone(),
            },
            PointOp::Update { rel, id, values } => {
                ids[*rel].slots[*id as usize] = Some(values.clone());
                Event {
                    rel: *rel,
                    id: *id,
                    kind: Kind::Update,
                    row: values.clone(),
                }
            }
            PointOp::Delete { rel, id } => Event {
                rel: *rel,
                id: *id,
                kind: Kind::Delete,
                row: ids[*rel].delete(*id),
            },
        };
        events.push(event);
        replies.push(fire_reply(
            &inputs.rules,
            setup_ops + 1 + i as u64,
            1,
            fired,
        ));
    }
    Inputs {
        rels: inputs.rels,
        rules: inputs.rules,
        preload: inputs.preload,
        records,
        events,
        replies,
    }
}

fn database(rels: &[RelDef]) -> Database {
    let mut db = Database::new();
    for r in rels {
        db.create_relation(r.schema()).expect("fresh relation");
    }
    db
}

fn rule_of(def: &RuleDef, rels: &[RelDef]) -> rules::Rule {
    let spec = def.spec(rels);
    rules::Rule::builder(spec.name)
        .when(&spec.condition)
        .expect("generated conditions parse")
        .on(spec.mask)
        .then(rules::Action::log("fired"))
        .build()
}

/// Replays every layer once, bottom up, recording into `spans`.
/// Returns the size in MB of the end-of-load snapshot.
fn replay_layers(inp: &Inputs, spans: &mut Spans, home: &Path) -> Result<f64, String> {
    let texts: Vec<String> = inp
        .rules
        .iter()
        .map(|r| r.condition_text(&inp.rels))
        .collect();
    let funcs = FunctionRegistry::default();

    // predicate: parse every rule condition.
    spans.begin("layer.predicate");
    let mut parsed = Vec::with_capacity(texts.len());
    for t in &texts {
        parsed.push(spans.call("predicate.parse", || {
            predicate::parse_conditions(t, &funcs).expect("generated conditions parse")
        }));
    }
    spans.end();

    // ibs: one tree per (relation, attribute) holding the workload's
    // range clauses, stabbed with every event's value.
    // ibs: per (relation, attribute) tree, holding the interval the
    // Figure 1 index places each single-relation predicate under (its
    // most selective range clause), stabbed with every event's value.
    spans.begin("layer.ibs");
    let db = database(&inp.rels);
    let mut trees: BTreeMap<(usize, usize), IbsTree<Value>> = BTreeMap::new();
    let mut next = 0u32;
    for (rule, conds) in inp.rules.iter().zip(&parsed) {
        for c in conds {
            let ParsedCondition::Single(p) = c else {
                continue;
            };
            let schema = inp.rels[rule.relation].schema();
            let bound = p.bind(&schema).map_err(|e| format!("bind: {e}"))?;
            let Some(cix) = most_selective_indexable(db.catalog(), &bound) else {
                continue;
            };
            let BoundClause::Range { attr, interval } = &bound.clauses()[cix] else {
                continue;
            };
            let tree = trees.entry((rule.relation, *attr)).or_default();
            let iv = interval.clone();
            spans
                .call("ibs.insert", || tree.insert(IntervalId(next), iv))
                .map_err(|e| format!("ibs insert: {e:?}"))?;
            next += 1;
        }
    }
    for ev in &inp.events {
        for (&(_, attr), tree) in trees.range((ev.rel, 0)..(ev.rel + 1, 0)) {
            let v = Value::Int(ev.row[attr]);
            spans.call("ibs.stab", || tree.stab(&v));
        }
    }
    spans.end();

    // predindex: the Figure 1 index over every single-relation
    // predicate, matched with every event's tuple.
    spans.begin("layer.predindex");
    let mut index = PredicateIndex::new();
    for (rule, conds) in inp.rules.iter().zip(&parsed) {
        if rule.join.is_some() {
            continue;
        }
        for c in conds {
            if let ParsedCondition::Single(p) = c {
                let p = p.clone();
                spans
                    .call("predindex.insert", || index.insert(p, db.catalog()))
                    .map_err(|e| format!("predindex insert: {e}"))?;
            }
        }
    }
    let tuples: Vec<Tuple> = inp
        .events
        .iter()
        .map(|e| Tuple::new(row_values(&e.row)))
        .collect();
    for (ev, t) in inp.events.iter().zip(&tuples) {
        let rel = inp.rels[ev.rel].name.as_str();
        spans.call("predindex.match", || index.match_tuple(rel, t));
    }
    spans.end();

    // joinmemo: the beta layer on the same events, alpha-filtered the
    // way the engine routes them.
    spans.begin("layer.joinmemo");
    let mut joins = joinmemo::JoinEngine::new();
    let mut compiled = Vec::new();
    for (key, conds) in parsed.iter().enumerate() {
        for c in conds {
            if let ParsedCondition::Join(j) = c {
                let cj = joinmemo::CompiledJoin::compile(j, db.catalog())
                    .map_err(|e| format!("join compile: {e:?}"))?;
                compiled.push((key as u64, cj.clone()));
                joins.register(key as u64, cj);
            }
        }
    }
    // Preloaded relations start empty, so their ids count up from 0.
    let mut next_tid = vec![0u32; inp.rels.len()];
    for (rel, rows) in &inp.preload {
        for row in rows {
            let tuple = Tuple::new(row_values(row));
            let name = &inp.rels[*rel].name;
            feed_join(
                &mut joins,
                &compiled,
                name,
                next_tid[*rel],
                Some(&tuple),
                false,
            );
            next_tid[*rel] += 1;
        }
    }
    for (ev, t) in inp.events.iter().zip(&tuples) {
        let rel = inp.rels[ev.rel].name.as_str();
        let post = (ev.kind != Kind::Delete).then_some(t);
        let retract = ev.kind != Kind::Insert;
        spans.call("joinmemo.apply", || {
            feed_join(&mut joins, &compiled, rel, ev.id, post, retract)
        });
    }
    spans.end();

    // rules: the in-memory engine, no log.
    spans.begin("layer.rules");
    let mut engine = rules::RuleEngine::new(database(&inp.rels));
    for def in &inp.rules {
        let rule = rule_of(def, &inp.rels);
        spans
            .call("rules.add_rule", || engine.add_rule(rule))
            .map_err(|e| format!("add_rule: {e}"))?;
    }
    for (rel, rows) in &inp.preload {
        let rows = rows.iter().map(|r| row_values(r)).collect();
        engine
            .insert_batch(&inp.rels[*rel].name, rows)
            .map_err(|e| e.to_string())?;
    }
    for rec in &inp.records {
        let rec = rec.clone();
        spans
            .call("rules.op", || match rec {
                Record::Insert { relation, values } => engine.insert(&relation, values),
                Record::Update {
                    relation,
                    id,
                    values,
                } => engine.update(&relation, TupleId(id), values),
                Record::Delete { relation, id } => engine.delete(&relation, TupleId(id)),
                Record::InsertBatch { relation, rows } => engine.insert_batch(&relation, rows),
                other => panic!("not a tuple op: {other:?}"),
            })
            .map_err(|e| format!("rules op: {e}"))?;
    }
    drop(engine);
    spans.end();

    // durable: the logged engine with the daemon's defaults, then a
    // snapshot of the end-of-load state.
    spans.begin("layer.durable");
    let home = Home::new(home, "replay-durable").map_err(|e| e.to_string())?;
    let mut dur = DurableRuleEngine::open(
        home.path(),
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options::default(),
    )
    .map_err(|e| e.to_string())?;
    for r in &inp.rels {
        dur.create_relation(r.schema()).map_err(|e| e.to_string())?;
    }
    for def in &inp.rules {
        dur.add_rule(def.spec(&inp.rels))
            .map_err(|e| e.to_string())?;
    }
    for (rel, rows) in &inp.preload {
        let rows = rows.iter().map(|r| row_values(r)).collect();
        dur.insert_batch(&inp.rels[*rel].name, rows)
            .map_err(|e| e.to_string())?;
    }
    for rec in &inp.records {
        let rec = rec.clone();
        spans
            .call("durable.op", || match rec {
                Record::Insert { relation, values } => dur.insert(&relation, values),
                Record::Update {
                    relation,
                    id,
                    values,
                } => dur.update(&relation, TupleId(id), values),
                Record::Delete { relation, id } => dur.delete(&relation, TupleId(id)),
                Record::InsertBatch { relation, rows } => dur.insert_batch(&relation, rows),
                other => panic!("not a tuple op: {other:?}"),
            })
            .map_err(|e| format!("durable op: {e}"))?;
    }
    spans
        .call("durable.snapshot", || dur.snapshot())
        .map_err(|e| e.to_string())?;
    drop(dur);
    let snapshot_mb = std::fs::metadata(home.path().join(durable::SNAPSHOT_FILE))
        .map(|m| m.len() as f64 / (1024.0 * 1024.0))
        .map_err(|e| e.to_string())?;
    spans.end();

    // The log alone: append under Manual, then an explicit sync.
    spans.begin("layer.wal");
    let wal_home = Home::new(home.path(), "wal").map_err(|e| e.to_string())?;
    let mut wal = Wal::create(&wal_home.path().join("wal.log"), 1, SyncPolicy::Manual)
        .map_err(|e| e.to_string())?;
    for rec in &inp.records {
        spans
            .call("durable.wal_append", || wal.append(rec))
            .map_err(|e| e.to_string())?;
        spans
            .call("durable.fsync", || wal.sync())
            .map_err(|e| e.to_string())?;
    }
    spans.end();

    // ruleserv: decode each request frame, encode each reply.
    spans.begin("layer.ruleserv");
    for (rec, reply) in inp.records.iter().zip(&inp.replies) {
        let call = Call::new(&Request::Apply(rec.clone()), Expect::Unit);
        // Frame: [len u32][crc u32][opcode u8][payload].
        let (op, payload) = (call.frame[8], &call.frame[9..]);
        spans
            .call("ruleserv.decode", || Request::decode(op, payload))
            .map_err(|e| format!("decode: {e}"))?;
        spans.call("ruleserv.encode", || reply.encode());
    }
    spans.end();
    Ok(snapshot_mb)
}

/// Routes one event into the beta layer the way the rules engine does:
/// retract the old tokens (update, delete), then offer the new state to
/// every premise over the relation whose alpha test it passes.
fn feed_join(
    joins: &mut joinmemo::JoinEngine,
    compiled: &[(u64, joinmemo::CompiledJoin)],
    rel: &str,
    tid: u32,
    post: Option<&Tuple>,
    retract: bool,
) -> usize {
    if retract {
        joins.retract(rel, tid);
    }
    let Some(t) = post else {
        return 0;
    };
    let mut completed = 0;
    for (key, premise) in joins.premises_over(rel) {
        let Some((_, cj)) = compiled.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        if cj.alpha(premise).matches(t) {
            completed += joins.insert(key, premise, tid, t).bindings.len();
        }
    }
    completed
}

/// Counter and histogram values from a `/metrics` exposition.
struct Exposition(BTreeMap<String, f64>);

impl Exposition {
    fn parse(text: &str) -> Exposition {
        let mut m = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    m.insert(k.to_string(), v);
                }
            }
        }
        Exposition(m)
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Per-bucket counts (non-cumulative) of every `server_request_nanos`
    /// series, summed over ops, keyed by the bucket's upper bound.
    fn request_buckets(&self) -> BTreeMap<u64, f64> {
        let mut per_series: BTreeMap<&str, Vec<(u64, f64)>> = BTreeMap::new();
        for (k, v) in &self.0 {
            let Some(rest) = k.strip_prefix("server_request_nanos{") else {
                continue;
            };
            let Some((series, le)) = rest.split_once("_bucket{le=\"") else {
                continue;
            };
            if let Ok(le) = le.trim_end_matches("\"}").parse::<u64>() {
                per_series.entry(series).or_default().push((le, *v));
            }
        }
        let mut out = BTreeMap::new();
        for (_, mut buckets) in per_series {
            buckets.sort_by_key(|b| b.0);
            let mut prev = 0.0;
            for (le, cum) in buckets {
                *out.entry(le).or_insert(0.0) += cum - prev;
                prev = cum;
            }
        }
        out
    }
}

/// The median of a bucketed distribution (differences of two scrapes),
/// interpolated linearly inside the bucket that holds it.
fn bucket_median(after: &BTreeMap<u64, f64>, before: &BTreeMap<u64, f64>) -> f64 {
    let diff: Vec<(u64, f64)> = after
        .iter()
        .map(|(&le, &n)| (le, n - before.get(&le).copied().unwrap_or(0.0)))
        .filter(|(_, n)| *n > 0.0)
        .collect();
    let total: f64 = diff.iter().map(|d| d.1).sum();
    let mut cum = 0.0;
    let mut lower = 0.0;
    for (le, n) in diff {
        if cum + n >= total / 2.0 {
            return lower + (le as f64 - lower) * ((total / 2.0 - cum) / n);
        }
        cum += n;
        lower = le as f64;
    }
    0.0
}

fn per_call_us(spans: &Spans, name: &str) -> f64 {
    let (n, ns) = spans.total(name);
    ns / 1e3 / (n.max(1)) as f64
}

pub fn run(
    ctx: &Ctx,
    workload_name: &str,
    seed: u64,
    seconds: u64,
    spans_out: Option<&Path>,
) -> Result<bool, String> {
    // One wire round against a daemon with its `/metrics` endpoint on.
    let (round, traced, inputs): (Round, _, Inputs) = match workload_name {
        "bulk_match" => {
            let plan = workload::bulk_plan(gen::bulk_inputs(seed));
            let (round, traced) = workload::bulk_round(ctx, &plan, 0, true)?;
            (round, traced, bulk_replay_inputs(plan.inputs))
        }
        "point_ops" => {
            let ops = workload::point_ops_per_round(seconds);
            let plan = workload::point_plan(gen::point_inputs(seed, ops));
            let (round, traced) = workload::point_round(ctx, &plan, 0, true)?;
            (round, traced, point_replay_inputs(plan.inputs))
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let traced = traced.ok_or("traced round kept no scrapes")?;
    let (before, after) = (
        Exposition::parse(&traced.before),
        Exposition::parse(&traced.after),
    );
    let delta = |k: &str| after.get(k) - before.get(k);
    let ops = round.applied.max(1) as f64;

    // The same replay without spans, then with them, after a warm-up
    // pass so neither timed pass pays first-touch costs.
    replay_layers(&inputs, &mut Spans::new(false), &ctx.base)?;
    let plain_started = Instant::now();
    replay_layers(&inputs, &mut Spans::new(false), &ctx.base)?;
    let plain_s = plain_started.elapsed().as_secs_f64();
    let mut spans = Spans::new(true);
    let traced_started = Instant::now();
    let snapshot_mb = replay_layers(&inputs, &mut spans, &ctx.base)?;
    let traced_s = traced_started.elapsed().as_secs_f64();
    spans
        .call("durable.replay", || {
            durable::replay(
                traced.killed.path(),
                &FunctionRegistry::default(),
                &ActionRegistry::new(),
            )
            .map(drop)
        })
        .map_err(|e| format!("replay of the killed home: {e}"))?;
    let tuples = inputs.events.len().max(1) as f64;
    let (stabs, stab_ns) = spans.total("ibs.stab");
    let (ibs_ins, ibs_ins_ns) = spans.total("ibs.insert");
    let (_, match_ns) = spans.total("predindex.match");
    let (_, pi_ins_ns) = spans.total("predindex.insert");
    let (_, join_ns) = spans.total("joinmemo.apply");
    let (rule_ops, rules_ns) = spans.total("rules.op");
    let (_, add_ns) = spans.total("rules.add_rule");
    let (dur_ops, dur_ns) = spans.total("durable.op");
    let (frames, dec_ns) = spans.total("ruleserv.decode");
    let (_, enc_ns) = spans.total("ruleserv.encode");
    let match_tuples = delta("predindex_match_tuples_total").max(1.0);
    let tests = delta("predindex_residual_tests_total");

    let mut m = Metrics::default();
    m.put(
        "ruleserv.codec_ns_per_frame",
        (dec_ns + enc_ns) / frames.max(1) as f64,
        "ns",
    );
    m.put(
        "ruleserv.wire_bytes_per_op",
        (delta("server_bytes_total{dir=\"in\"}") + delta("server_bytes_total{dir=\"out\"}")) / ops,
        "B",
    );
    m.put(
        "ruleserv.request_us_p50",
        bucket_median(&after.request_buckets(), &before.request_buckets()) / 1e3,
        "us",
    );
    m.put("durable.op_us", per_call_us(&spans, "durable.op"), "us");
    m.put(
        "durable.op_self_us",
        (dur_ns - rules_ns) / 1e3 / dur_ops.max(1) as f64,
        "us",
    );
    m.put(
        "durable.wal_write_us",
        per_call_us(&spans, "durable.wal_append"),
        "us",
    );
    m.put(
        "durable.fsync_us",
        per_call_us(&spans, "durable.fsync"),
        "us",
    );
    m.put(
        "durable.fsyncs_per_op",
        delta("wal_fsync_nanos_count") / ops,
        "count",
    );
    m.put(
        "durable.wal_bytes_per_op",
        delta("wal_append_bytes_total") / ops,
        "B",
    );
    m.put(
        "durable.snapshot_ms",
        spans.total("durable.snapshot").1 / 1e6,
        "ms",
    );
    // The daemon's own snapshots during the load, from its registry.
    m.put(
        "durable.daemon_snapshot_ms",
        delta("durable_snapshot_nanos_sum") / 1e6 / delta("durable_snapshot_nanos_count").max(1.0),
        "ms",
    );
    m.put("durable.snapshot_mb", snapshot_mb, "MB");
    m.put(
        "durable.replay_s",
        spans.total("durable.replay").1 / 1e9,
        "s",
    );
    m.put("rules.op_us", per_call_us(&spans, "rules.op"), "us");
    m.put(
        "rules.op_self_us",
        (rules_ns - match_ns - join_ns) / 1e3 / rule_ops.max(1) as f64,
        "us",
    );
    m.put(
        "rules.firings_per_op",
        delta("rules_fired_total") / ops,
        "count",
    );
    m.put(
        "rules.add_rule_us",
        per_call_us(&spans, "rules.add_rule"),
        "us",
    );
    m.put(
        "joinmemo.apply_us",
        per_call_us(&spans, "joinmemo.apply"),
        "us",
    );
    m.put(
        "joinmemo.probes_per_op",
        delta("join_probes_total") / ops,
        "count",
    );
    m.put(
        "predindex.match_us_per_tuple",
        match_ns / 1e3 / tuples,
        "us",
    );
    m.put(
        "predindex.match_self_us_per_tuple",
        (match_ns - stab_ns) / 1e3 / tuples,
        "us",
    );
    m.put(
        "predindex.ibs_nodes_per_tuple",
        delta("predindex_ibs_nodes_visited_total") / match_tuples,
        "count",
    );
    m.put(
        "predindex.marks_per_tuple",
        delta("predindex_ibs_marks_scanned_total") / match_tuples,
        "count",
    );
    m.put(
        "predindex.nonindexable_per_tuple",
        delta("predindex_non_indexable_scanned_total") / match_tuples,
        "count",
    );
    m.put(
        "predindex.residual_tests_per_tuple",
        tests / match_tuples,
        "count",
    );
    m.put(
        "predindex.residual_pass_ratio",
        delta("predindex_residual_passes_total") / tests.max(1.0),
        "ratio",
    );
    m.put(
        "predindex.insert_us",
        per_call_us(&spans, "predindex.insert"),
        "us",
    );
    m.put("ibs.stab_ns", stab_ns / stabs.max(1) as f64, "ns");
    m.put("ibs.insert_ns", ibs_ins_ns / ibs_ins.max(1) as f64, "ns");
    m.put(
        "predicate.parse_us",
        per_call_us(&spans, "predicate.parse"),
        "us",
    );
    m.put(
        "trace.overhead_ratio",
        traced_s / plain_s.max(1e-9),
        "ratio",
    );

    println!(
        "traced {workload_name}: wire round of {} requests ({} applied ops, {} failed)",
        round.attempted, round.applied, round.failed
    );
    println!(
        "self time per call: durable.op {:.1} us = rules.op {:.1} us + log {:.1} us; rules.op = match {:.1} us + joins {:.1} us + rest {:.1} us",
        dur_ns / 1e3 / dur_ops.max(1) as f64,
        rules_ns / 1e3 / rule_ops.max(1) as f64,
        (dur_ns - rules_ns) / 1e3 / dur_ops.max(1) as f64,
        match_ns / 1e3 / rule_ops.max(1) as f64,
        join_ns / 1e3 / rule_ops.max(1) as f64,
        (rules_ns - match_ns - join_ns) / 1e3 / rule_ops.max(1) as f64,
    );
    println!(
        "set-up self time: rules.add_rule {:.1} us = predindex.insert {:.1} us + rest; predindex.insert = ibs.insert {:.1} us + rest",
        add_ns / 1e3 / inputs.rules.len().max(1) as f64,
        pi_ins_ns / 1e3 / inputs.rules.len().max(1) as f64,
        ibs_ins_ns / 1e3 / inputs.rules.len().max(1) as f64,
    );
    println!(
        "tracing overhead: layer replay {:.3} s with spans vs {:.3} s without ({:+.1}%), {} spans",
        traced_s,
        plain_s,
        (traced_s / plain_s.max(1e-9) - 1.0) * 100.0,
        spans.recs.len()
    );
    if let Some(path) = spans_out {
        spans
            .write(path)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    for e in round.errors.iter().take(10) {
        println!("FAILED CHECK: {e}");
    }
    let correct = round.errors.is_empty();
    m.print_table();
    println!("{}", m.json(correct, round.attempted, round.failed));
    Ok(correct)
}
