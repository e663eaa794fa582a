//! Seeded input generation for both workloads.
//!
//! Everything the daemon receives is made here from `--seed`: the rule
//! base, the tuples and, for `point_ops`, the whole request stream with
//! the tuple ids the daemon will allocate. The daemon only ever sees
//! the generated inputs.

use crate::oracle::Shadow;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Attribute values are drawn from `1..=DOMAIN`.
pub const DOMAIN: i64 = 10_000;
/// A range clause of selectivity 0.1 covers a tenth of the domain.
pub const RANGE_WIDTH: i64 = DOMAIN / 10;

/// One conjunct of a generated condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `lo <= attr <= hi`.
    Range { attr: usize, lo: i64, hi: i64 },
    /// The parity function: `isodd(attr)` or `iseven(attr)`.
    Parity { attr: usize, odd: bool },
}

/// Which events a rule fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    InsertUpdate,
    All,
}

/// A two-premise equi-join over relations `left < right` (by name) on
/// attribute `key`, each premise with its own alpha conditions.
#[derive(Debug, Clone)]
pub struct JoinDef {
    pub left: usize,
    pub right: usize,
    pub key: usize,
    pub left_alpha: Vec<Cond>,
    pub right_alpha: Vec<Cond>,
}

/// A generated rule: a single-relation conjunction, or a join.
#[derive(Debug, Clone)]
pub struct RuleDef {
    pub name: String,
    pub relation: usize,
    pub conds: Vec<Cond>,
    pub join: Option<JoinDef>,
    pub mask: Mask,
}

/// A relation's name and attribute names (all attributes are Int).
#[derive(Debug, Clone)]
pub struct RelDef {
    pub name: String,
    pub attrs: Vec<String>,
}

impl RelDef {
    pub fn schema(&self) -> relation::Schema {
        let mut b = relation::Schema::builder(self.name.as_str());
        for a in &self.attrs {
            b = b.attr(a.as_str(), relation::AttrType::Int);
        }
        b.build()
    }
}

fn cond_text(rel: &RelDef, c: &Cond) -> String {
    match *c {
        Cond::Range { attr, lo, hi } => {
            format!(
                "{0}.{1} >= {lo} and {0}.{1} <= {hi}",
                rel.name, rel.attrs[attr]
            )
        }
        Cond::Parity { attr, odd } => {
            let f = if odd { "isodd" } else { "iseven" };
            format!("{f}({}.{})", rel.name, rel.attrs[attr])
        }
    }
}

impl RuleDef {
    /// The condition as the daemon's predicate language spells it.
    pub fn condition_text(&self, rels: &[RelDef]) -> String {
        match &self.join {
            None => {
                let rel = &rels[self.relation];
                let parts: Vec<String> = self.conds.iter().map(|c| cond_text(rel, c)).collect();
                parts.join(" and ")
            }
            Some(j) => {
                let (l, r) = (&rels[j.left], &rels[j.right]);
                let mut parts = vec![format!(
                    "{}.{} = {}.{}",
                    l.name, l.attrs[j.key], r.name, r.attrs[j.key]
                )];
                parts.extend(j.left_alpha.iter().map(|c| cond_text(l, c)));
                parts.extend(j.right_alpha.iter().map(|c| cond_text(r, c)));
                parts.join(" and ")
            }
        }
    }

    pub fn spec(&self, rels: &[RelDef]) -> durable::RuleSpec {
        durable::RuleSpec {
            name: self.name.clone(),
            condition: self.condition_text(rels),
            mask: match self.mask {
                Mask::InsertUpdate => rules::EventMask::INSERT_UPDATE,
                Mask::All => rules::EventMask::ALL,
            },
            priority: 0,
            action: durable::ActionSpec::Log("fired".into()),
        }
    }
}

fn range_cond(rng: &mut Rng, attr: usize) -> Cond {
    let lo = rng.range(1, DOMAIN - RANGE_WIDTH + 1);
    Cond::Range {
        attr,
        lo,
        hi: lo + RANGE_WIDTH - 1,
    }
}

/// Every tenth rule is non-indexable (§5.2: 90% indexable). Fixed
/// rather than drawn, so the rule mix, and with it the firing rate,
/// is the same for every seed.
fn indexable(rule: usize) -> bool {
    rule % 10 != 9
}

/// The §5.2 predicate shape: an indexable predicate has two range
/// clauses on distinct attributes among the first `pred_attrs`; a
/// non-indexable one is a conjunction of parity tests on
/// `parity_terms` distinct attributes.
fn scheme_conds(
    rng: &mut Rng,
    indexable: bool,
    attrs: usize,
    pred_attrs: usize,
    parity_terms: usize,
) -> Vec<Cond> {
    if indexable {
        let a = rng.below(pred_attrs as u64) as usize;
        let mut b = rng.below(pred_attrs as u64 - 1) as usize;
        if b >= a {
            b += 1;
        }
        vec![range_cond(rng, a), range_cond(rng, b)]
    } else {
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < parity_terms {
            let a = rng.below(attrs as u64) as usize;
            if !picked.contains(&a) {
                picked.push(a);
            }
        }
        picked
            .into_iter()
            .map(|attr| Cond::Parity {
                attr,
                odd: rng.chance(0.5),
            })
            .collect()
    }
}

fn random_row(rng: &mut Rng, attrs: usize) -> Vec<i64> {
    (0..attrs).map(|_| rng.range(1, DOMAIN)).collect()
}

// ---------------------------------------------------------------- bulk_match

/// `bulk_match` shape: one relation of 15 attributes, clauses on 5.
pub const BULK_ATTRS: usize = 15;
pub const BULK_PRED_ATTRS: usize = 5;
/// Non-indexable predicates test parity on this many attributes
/// (selectivity 1/16), so they fire about as often as the indexable
/// ones instead of dominating the firing count.
pub const BULK_PARITY_TERMS: usize = 4;
pub const BULK_RULES: usize = 3000;
/// Tuples per `InsertBatch`; well under the engine's 10,000-firing
/// chain limit at the expected ~45 firings per tuple.
pub const BULK_BATCH: usize = 50;
/// Batches per round, split between the two connections.
pub const BULK_BATCHES: usize = 120;

pub struct BulkInputs {
    pub rels: Vec<RelDef>,
    pub rules: Vec<RuleDef>,
    /// `BULK_BATCHES` batches of `BULK_BATCH` rows each.
    pub batches: Vec<Vec<Vec<i64>>>,
}

pub fn bulk_inputs(seed: u64) -> BulkInputs {
    bulk_inputs_sized(seed, BULK_RULES, BULK_BATCHES, BULK_BATCH)
}

pub fn bulk_inputs_sized(seed: u64, rules: usize, batches: usize, batch: usize) -> BulkInputs {
    let mut rng = Rng::new(seed);
    let rels = vec![RelDef {
        name: "r".into(),
        attrs: (0..BULK_ATTRS).map(|i| format!("a{i}")).collect(),
    }];
    let rules = (0..rules)
        .map(|i| RuleDef {
            name: format!("b{i}"),
            relation: 0,
            conds: scheme_conds(
                &mut rng,
                indexable(i),
                BULK_ATTRS,
                BULK_PRED_ATTRS,
                BULK_PARITY_TERMS,
            ),
            join: None,
            mask: Mask::InsertUpdate,
        })
        .collect();
    let batches = (0..batches)
        .map(|_| {
            (0..batch)
                .map(|_| random_row(&mut rng, BULK_ATTRS))
                .collect()
        })
        .collect();
    BulkInputs {
        rels,
        rules,
        batches,
    }
}

// ----------------------------------------------------------------- point_ops

pub const POINT_RELS: usize = 3;
/// `k` (the join key) plus four value attributes.
pub const POINT_ATTRS: usize = 5;
pub const POINT_KEY_DOMAIN: i64 = 6000;
pub const POINT_RULES: usize = 300;
pub const POINT_JOINS: usize = 4;
/// Live tuples per relation loaded during set-up. Enough state that a
/// snapshot takes tens of milliseconds, so the stall it causes sets the
/// 1% tail rather than the host's scheduling noise.
pub const POINT_PRELOAD: usize = 6000;
/// Rows per set-up `InsertBatch`, well under the 10,000-firing limit.
pub const POINT_PRELOAD_BATCH: usize = 1000;
/// Offered request rate of the open loop.
pub const POINT_RATE: u64 = 1000;

/// One single-tuple request of the `point_ops` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointOp {
    Insert {
        rel: usize,
        values: Vec<i64>,
    },
    Update {
        rel: usize,
        id: u32,
        values: Vec<i64>,
    },
    Delete {
        rel: usize,
        id: u32,
    },
}

impl PointOp {
    pub fn rel(&self) -> usize {
        match self {
            PointOp::Insert { rel, .. }
            | PointOp::Update { rel, .. }
            | PointOp::Delete { rel, .. } => *rel,
        }
    }
}

pub struct PointInputs {
    pub rels: Vec<RelDef>,
    pub rules: Vec<RuleDef>,
    /// Set-up `InsertBatch`es: relation and rows.
    pub preload: Vec<(usize, Vec<Vec<i64>>)>,
    /// Per set-up batch, its firings.
    pub preload_fired: Vec<Vec<u32>>,
    pub ops: Vec<PointOp>,
    /// Per op, the firings its reply must list.
    pub fired: Vec<Vec<u32>>,
    /// The shadow model after the last op.
    pub shadow: Shadow,
}

fn point_row(rng: &mut Rng) -> Vec<i64> {
    let mut row = vec![rng.range(1, POINT_KEY_DOMAIN)];
    row.extend((1..POINT_ATTRS).map(|_| rng.range(1, DOMAIN)));
    row
}

pub fn point_inputs(seed: u64, ops: usize) -> PointInputs {
    point_inputs_sized(seed, POINT_RULES, POINT_JOINS, POINT_PRELOAD, ops)
}

pub fn point_inputs_sized(
    seed: u64,
    rules: usize,
    joins: usize,
    preload: usize,
    ops: usize,
) -> PointInputs {
    let mut rng = Rng::new(seed ^ 0x0070_6f69_6e74);
    let rels: Vec<RelDef> = (0..POINT_RELS)
        .map(|i| RelDef {
            name: format!("p{i}"),
            attrs: std::iter::once("k".to_string())
                .chain((1..POINT_ATTRS).map(|a| format!("v{a}")))
                .collect(),
        })
        .collect();
    let mut defs: Vec<RuleDef> = (0..rules)
        .map(|i| {
            let relation = i % POINT_RELS;
            // Value attributes are 1..POINT_ATTRS; shift the §5.2
            // generator's attribute picks past the key.
            let conds = scheme_conds(
                &mut rng,
                indexable(i),
                POINT_ATTRS - 1,
                POINT_ATTRS - 1,
                POINT_ATTRS - 1,
            )
            .into_iter()
            .map(|c| match c {
                Cond::Range { attr, lo, hi } => Cond::Range {
                    attr: attr + 1,
                    lo,
                    hi,
                },
                Cond::Parity { attr, odd } => Cond::Parity {
                    attr: attr + 1,
                    odd,
                },
            })
            .collect();
            RuleDef {
                name: format!("s{i}"),
                relation,
                conds,
                join: None,
                mask: if i % 2 == 0 {
                    Mask::All
                } else {
                    Mask::InsertUpdate
                },
            }
        })
        .collect();
    for j in 0..joins {
        let left = j % POINT_RELS;
        let right = (j + 1) % POINT_RELS;
        let (left, right) = (left.min(right), left.max(right));
        let half = |rng: &mut Rng| {
            let attr = 1 + rng.below(POINT_ATTRS as u64 - 1) as usize;
            let lo = rng.range(1, DOMAIN / 2);
            Cond::Range {
                attr,
                lo,
                hi: lo + DOMAIN / 2 - 1,
            }
        };
        defs.push(RuleDef {
            name: format!("j{j}"),
            relation: left,
            conds: Vec::new(),
            join: Some(JoinDef {
                left,
                right,
                key: 0,
                left_alpha: vec![half(&mut rng)],
                right_alpha: vec![half(&mut rng)],
            }),
            mask: Mask::InsertUpdate,
        });
    }
    let mut batches: Vec<(usize, Vec<Vec<i64>>)> = Vec::new();
    for rel in 0..POINT_RELS {
        let rows: Vec<Vec<i64>> = (0..preload).map(|_| point_row(&mut rng)).collect();
        for chunk in rows.chunks(POINT_PRELOAD_BATCH) {
            batches.push((rel, chunk.to_vec()));
        }
    }
    let preload = batches;

    // The stream: a third each of inserts, updates and deletes, with
    // updates and deletes aimed at tuples the shadow knows are live.
    let mut shadow = Shadow::new(&rels, &defs);
    let preload_fired = preload
        .iter()
        .map(|(rel, rows)| {
            rows.iter()
                .flat_map(|row| shadow.insert(*rel, row.clone()).1)
                .collect()
        })
        .collect();
    let mut stream = Vec::with_capacity(ops);
    let mut fired = Vec::with_capacity(ops);
    for _ in 0..ops {
        let rel = rng.below(POINT_RELS as u64) as usize;
        let live = shadow.live_count(rel);
        let pick = rng.below(3);
        let op = if live == 0 || pick == 0 {
            PointOp::Insert {
                rel,
                values: point_row(&mut rng),
            }
        } else {
            let id = shadow.live_at(rel, rng.below(live as u64) as usize);
            if pick == 1 {
                PointOp::Update {
                    rel,
                    id,
                    values: point_row(&mut rng),
                }
            } else {
                PointOp::Delete { rel, id }
            }
        };
        fired.push(shadow.apply(&op));
        stream.push(op);
    }
    PointInputs {
        rels,
        rules: defs,
        preload,
        preload_fired,
        ops: stream,
        fired,
        shadow,
    }
}
