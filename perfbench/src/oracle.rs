//! The benchmark's own model of what the daemon must answer.
//!
//! Conditions are evaluated here from the generated [`Cond`]s with
//! plain integer comparisons and the parity function; join firings are
//! counted by a nested loop over the shadow relations. Nothing here
//! calls the `predicate`, `predindex`, `joinmemo` or `rules` crates, so
//! a fault in the matching stack cannot hide in its own oracle.

use crate::gen::{Cond, Mask, PointOp, RelDef, RuleDef};
use ruleserv::Reply;

/// Does `row` satisfy every conjunct?
pub fn eval(conds: &[Cond], row: &[i64]) -> bool {
    conds.iter().all(|c| match *c {
        Cond::Range { attr, lo, hi } => (lo..=hi).contains(&row[attr]),
        Cond::Parity { attr, odd } => (row[attr].rem_euclid(2) == 1) == odd,
    })
}

/// The kind of tuple event a request produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Insert,
    Update,
    Delete,
}

fn accepts(mask: Mask, kind: EventKind) -> bool {
    match mask {
        Mask::All => true,
        Mask::InsertUpdate => kind != EventKind::Delete,
    }
}

/// The expected firings of one `InsertBatch` of single-relation rules:
/// per tuple in batch order, the matching rule ids, newest rule first
/// (the engine's conflict-resolution order at equal priority).
pub fn bulk_expected(rules: &[RuleDef], batch: &[Vec<i64>]) -> Vec<u32> {
    let mut out = Vec::new();
    for row in batch {
        for (id, rule) in rules.iter().enumerate().rev() {
            if eval(&rule.conds, row) {
                out.push(id as u32);
            }
        }
    }
    out
}

/// What one reply must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Unit,
    RuleId(u32),
    /// A `Fire` reply applying `ops` tuple operations and firing these
    /// rule ids in this order.
    Fire {
        ops: u64,
        fired: Vec<u32>,
    },
}

/// Checks one reply against its expectation; the error names what
/// differs.
pub fn check(expect: &Expect, reply: &Reply) -> Result<(), String> {
    match (expect, reply) {
        (Expect::Unit, Reply::Unit) => Ok(()),
        (Expect::RuleId(want), Reply::RuleId(got)) if want == got => Ok(()),
        (Expect::RuleId(want), Reply::RuleId(got)) => {
            Err(format!("rule id {got}, expected {want}"))
        }
        (Expect::Fire { ops, fired }, Reply::Fire(summary)) => {
            if summary.ops_applied != *ops {
                return Err(format!(
                    "{} ops applied, expected {ops}",
                    summary.ops_applied
                ));
            }
            let got: Vec<u32> = summary.fired.iter().map(|(id, _)| *id).collect();
            if got == *fired {
                return Ok(());
            }
            let at = got
                .iter()
                .zip(fired.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(fired.len()));
            Err(format!(
                "{} firings, expected {}; first difference at position {at}",
                got.len(),
                fired.len()
            ))
        }
        (_, Reply::Err(msg)) => Err(format!("server error: {msg}")),
        (want, got) => Err(format!("a {} reply, expected {want:?}", got.kind())),
    }
}

/// One relation of the shadow model: the same slot and free-list
/// discipline as `relation::Relation` (a freed id is reused last-in
/// first-out), so the ids it hands out are the ids the daemon assigns.
#[derive(Debug, Clone, Default)]
pub struct ShadowRel {
    pub slots: Vec<Option<Vec<i64>>>,
    free: Vec<u32>,
    live: Vec<u32>,
    /// Position of each live id in `live` (`usize::MAX` when dead).
    pos: Vec<usize>,
}

impl ShadowRel {
    pub fn insert(&mut self, row: Vec<i64>) -> u32 {
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(row);
                id
            }
            None => {
                self.slots.push(Some(row));
                self.pos.push(usize::MAX);
                (self.slots.len() - 1) as u32
            }
        };
        self.pos[id as usize] = self.live.len();
        self.live.push(id);
        id
    }

    pub fn delete(&mut self, id: u32) -> Vec<i64> {
        let row = self.slots[id as usize]
            .take()
            .expect("shadow deletes a live tuple");
        let at = self.pos[id as usize];
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.pos[moved as usize] = at;
        }
        self.pos[id as usize] = usize::MAX;
        self.free.push(id);
        row
    }

    pub fn rows(&self) -> impl Iterator<Item = (u32, &Vec<i64>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i as u32, r)))
    }
}

/// The shadow model of the `point_ops` database and rule base.
#[derive(Debug, Clone)]
pub struct Shadow {
    pub rels: Vec<ShadowRel>,
    rules: Vec<RuleDef>,
    pub fire_counts: Vec<u64>,
}

impl Shadow {
    pub fn new(rels: &[RelDef], rules: &[RuleDef]) -> Shadow {
        Shadow {
            rels: vec![ShadowRel::default(); rels.len()],
            rules: rules.to_vec(),
            fire_counts: vec![0; rules.len()],
        }
    }

    pub fn live_count(&self, rel: usize) -> usize {
        self.rels[rel].live.len()
    }

    pub fn live_at(&self, rel: usize, i: usize) -> u32 {
        self.rels[rel].live[i]
    }

    pub fn insert(&mut self, rel: usize, row: Vec<i64>) -> (u32, Vec<u32>) {
        let id = self.rels[rel].insert(row.clone());
        (id, self.fire(rel, &row, EventKind::Insert))
    }

    /// Applies one request and returns the rule ids it fires, in the
    /// order the engine fires them.
    pub fn apply(&mut self, op: &PointOp) -> Vec<u32> {
        match op {
            PointOp::Insert { rel, values } => self.insert(*rel, values.clone()).1,
            PointOp::Update { rel, id, values } => {
                let slot = &mut self.rels[*rel].slots[*id as usize];
                assert!(slot.is_some(), "shadow updates a live tuple");
                *slot = Some(values.clone());
                self.fire(*rel, values, EventKind::Update)
            }
            PointOp::Delete { rel, id } => {
                let row = self.rels[*rel].delete(*id);
                self.fire(*rel, &row, EventKind::Delete)
            }
        }
    }

    /// Rules fired by an event on `rel` carrying `row` (the new state,
    /// or the removed tuple for a delete): each matching single-relation
    /// rule once, each join rule once per partner tuple it completes,
    /// newest rule first.
    fn fire(&mut self, rel: usize, row: &[i64], kind: EventKind) -> Vec<u32> {
        let mut out = Vec::new();
        for id in (0..self.rules.len()).rev() {
            let rule = &self.rules[id];
            if !accepts(rule.mask, kind) {
                continue;
            }
            let times = match &rule.join {
                None => usize::from(rule.relation == rel && eval(&rule.conds, row)),
                // Deletes only retract partial matches.
                Some(_) if kind == EventKind::Delete => 0,
                Some(j) => {
                    let (mine, other, other_alpha) = if j.left == rel {
                        (&j.left_alpha, j.right, &j.right_alpha)
                    } else if j.right == rel {
                        (&j.right_alpha, j.left, &j.left_alpha)
                    } else {
                        continue;
                    };
                    if !eval(mine, row) {
                        continue;
                    }
                    self.rels[other]
                        .rows()
                        .filter(|(_, t)| t[j.key] == row[j.key] && eval(other_alpha, t))
                        .count()
                }
            };
            for _ in 0..times {
                out.push(id as u32);
            }
            self.fire_counts[id] += times as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{bulk_inputs_sized, point_inputs_sized, BulkInputs};
    use ruleserv::FireSummary;

    fn fire_reply(fired: &[u32], ops: u64) -> Reply {
        Reply::Fire(FireSummary {
            seq: 7,
            ops_applied: ops,
            fired: fired.iter().map(|&id| (id, format!("b{id}"))).collect(),
        })
    }

    /// A small batch whose expectation has at least two firings.
    fn small_case() -> (BulkInputs, Vec<u32>) {
        for seed in 0..64 {
            let inputs = bulk_inputs_sized(seed, 200, 1, 20);
            let want = bulk_expected(&inputs.rules, &inputs.batches[0]);
            if want.len() >= 2 {
                return (inputs, want);
            }
        }
        panic!("no seed gives two firings");
    }

    #[test]
    fn checker_catches_every_planted_fault() {
        let (inputs, want) = small_case();
        let ops = inputs.batches[0].len() as u64;
        let expect = Expect::Fire {
            ops,
            fired: want.clone(),
        };
        assert_eq!(check(&expect, &fire_reply(&want, ops)), Ok(()));

        let mut dropped = want.clone();
        dropped.remove(want.len() / 2);
        assert!(
            check(&expect, &fire_reply(&dropped, ops)).is_err(),
            "dropped firing"
        );

        let mut added = want.clone();
        added.insert(1, want[0]);
        assert!(
            check(&expect, &fire_reply(&added, ops)).is_err(),
            "added firing"
        );

        assert!(check(&expect, &Reply::Unit).is_err(), "wrong reply kind");
        assert!(check(&expect, &Reply::Busy).is_err(), "busy reply");
        let err = check(&expect, &Reply::Err("boom".into())).unwrap_err();
        assert!(err.contains("boom"), "{err}");

        let mut swapped = want.clone();
        swapped.swap(0, 1);
        if swapped != want {
            assert!(
                check(&expect, &fire_reply(&swapped, ops)).is_err(),
                "reordered"
            );
        }
        assert!(
            check(&expect, &fire_reply(&want, ops + 1)).is_err(),
            "op count"
        );
        assert!(check(&Expect::RuleId(3), &Reply::RuleId(4)).is_err());
    }

    /// An evaluator of the condition text itself, written apart from
    /// both the [`Cond`] model and the daemon's parser: split on `and`,
    /// read `rel.attr >= n`, `rel.attr <= n` and `isodd/iseven(rel.attr)`.
    fn brute_force(text: &str, rel: &RelDef, row: &[i64]) -> bool {
        text.split(" and ").all(|term| {
            let attr_of = |name: &str| {
                let (_, attr) = name.split_once('.').expect("qualified attribute");
                rel.attrs
                    .iter()
                    .position(|a| a == attr)
                    .expect("known attribute")
            };
            if let Some(arg) = term.strip_prefix("isodd(") {
                row[attr_of(arg.trim_end_matches(')'))] % 2 != 0
            } else if let Some(arg) = term.strip_prefix("iseven(") {
                row[attr_of(arg.trim_end_matches(')'))] % 2 == 0
            } else {
                let parts: Vec<&str> = term.split_whitespace().collect();
                let (v, n) = (row[attr_of(parts[0])], parts[2].parse::<i64>().unwrap());
                match parts[1] {
                    ">=" => v >= n,
                    "<=" => v <= n,
                    op => panic!("unexpected operator {op}"),
                }
            }
        })
    }

    #[test]
    fn oracle_agrees_with_a_brute_force_scan() {
        let inputs = bulk_inputs_sized(11, 400, 4, 50);
        let texts: Vec<String> = inputs
            .rules
            .iter()
            .map(|r| r.condition_text(&inputs.rels))
            .collect();
        let mut total = 0;
        for batch in &inputs.batches {
            let mut scan = Vec::new();
            for row in batch {
                for id in (0..texts.len()).rev() {
                    if brute_force(&texts[id], &inputs.rels[0], row) {
                        scan.push(id as u32);
                    }
                }
            }
            let oracle = bulk_expected(&inputs.rules, batch);
            assert_eq!(oracle, scan);
            total += oracle.len();
        }
        // Both kinds of predicate fire on this seed.
        assert!(total > 50, "too few firings to compare: {total}");
        assert!(inputs
            .rules
            .iter()
            .any(|r| r.conds.iter().any(|c| matches!(c, Cond::Parity { .. }))));
    }

    #[test]
    fn shadow_ids_follow_the_relation_free_list() {
        let inputs = point_inputs_sized(5, 30, 2, 20, 400);
        let mut shadow = Shadow::new(&inputs.rels, &inputs.rules);
        let mut real: Vec<relation::Relation> = inputs
            .rels
            .iter()
            .map(|r| relation::Relation::new(r.schema()))
            .collect();
        let vals = |row: &[i64]| row.iter().map(|&v| relation::Value::Int(v)).collect();
        for &(rel, ref rows) in &inputs.preload {
            for row in rows {
                let (id, _) = shadow.insert(rel, row.clone());
                assert_eq!(real[rel].insert(vals(row)).unwrap().0, id);
            }
        }
        for op in &inputs.ops {
            match op {
                PointOp::Insert { rel, values } => {
                    let id = real[*rel].insert(vals(values)).unwrap().0;
                    shadow.apply(op);
                    assert_eq!(shadow.rels[*rel].slots[id as usize].as_ref(), Some(values));
                }
                PointOp::Update { rel, id, values } => {
                    real[*rel]
                        .update(relation::TupleId(*id), vals(values))
                        .unwrap();
                    shadow.apply(op);
                }
                PointOp::Delete { rel, id } => {
                    real[*rel].delete(relation::TupleId(*id)).unwrap();
                    shadow.apply(op);
                }
            }
        }
        for (rel, r) in real.iter().enumerate() {
            let got: Vec<(u32, Vec<i64>)> = r
                .iter()
                .map(|(id, t)| {
                    let row = t
                        .values()
                        .iter()
                        .map(|v| match v {
                            relation::Value::Int(i) => *i,
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect();
                    (id.0, row)
                })
                .collect();
            let want: Vec<(u32, Vec<i64>)> = shadow.rels[rel]
                .rows()
                .map(|(i, r)| (i, r.clone()))
                .collect();
            assert_eq!(got, want);
        }
    }
}
