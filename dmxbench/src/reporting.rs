//! `report_cold`: one read-only client over a heap table about nine
//! times the buffer pool, reopened cold. Full scans, predicates, GROUP
//! BY and B-tree index cursors do the work; locks, the log and DML are
//! all but idle.

use std::collections::BTreeMap;

use starburst_dmx::prelude::Value;

use crate::client::Source;
use crate::db::Db;
use crate::metrics::ClassLatency;
use crate::op::{Check, Class, Effect, Op, Tally};
use crate::rng::{Deck, Rng};
use crate::{err, Fallible, Workload};

pub struct ReportCold {
    rows: usize,
    devs: i64,
    /// Frames of the reopened pool; loading runs in the default pool.
    pool_frames: usize,
}

impl ReportCold {
    pub fn full() -> ReportCold {
        ReportCold {
            rows: 200_000,
            devs: 2_000,
            pool_frames: 256,
        }
    }

    pub fn tiny() -> ReportCold {
        ReportCold {
            rows: 4_000,
            devs: 40,
            pool_frames: 16,
        }
    }
}

const KINDS: i64 = 8;
/// `val` is uniform in `0..10_000`; the filtered scans draw their bound
/// from this band, so about half the rows pass. A scan's cost grows with
/// the rows passing its filter, and a wider band would make a run's time
/// depend on the seed's draws more than on the engine.
const SELECTIVE: (i64, i64) = (4_500, 5_500);
const WORDS: [&str; 16] = [
    "amber", "basil", "cedar", "delta", "ember", "fjord", "gamma", "heron", "indigo", "juniper",
    "kelp", "lumen", "mango", "nectar", "onyx", "pearl",
];

struct Row {
    dev: i64,
    kind: i64,
    val: i64,
    note: String,
}

pub struct Model {
    rows: Vec<Row>,
    /// Row ids (positions in `rows`) by `dev`.
    by_dev: Vec<Vec<usize>>,
}

impl Workload for ReportCold {
    type Model = Model;

    fn name(&self) -> &'static str {
        "report_cold"
    }

    fn clients(&self) -> usize {
        1
    }

    fn setup(&self, seed: u64) -> Fallible<(Db, Model)> {
        let mut rng = Rng::new(seed, 0);
        let rows: Vec<Row> = (0..self.rows)
            .map(|_| {
                let (a, b) = (rng.below(16) as usize, rng.below(16) as usize);
                Row {
                    dev: rng.range(0, self.devs),
                    kind: rng.range(0, KINDS),
                    val: rng.range(0, 10_000),
                    note: format!("{}-{}-{:08x}", WORDS[a], WORDS[b], rng.next_u64() as u32),
                }
            })
            .collect();
        let mut by_dev = vec![Vec::new(); self.devs as usize];
        for (id, r) in rows.iter().enumerate() {
            by_dev[r.dev as usize].push(id);
        }
        let db = Db::fresh(2048).map_err(err)?;
        db.sql(
            "CREATE TABLE events (id INT NOT NULL, dev INT NOT NULL, kind STRING NOT NULL, \
             val INT NOT NULL, note STRING NOT NULL)",
        )
        .map_err(err)?;
        db.load(
            "events",
            rows.iter().enumerate().map(|(id, r)| {
                format!("({id}, {}, 'k{}', {}, '{}')", r.dev, r.kind, r.val, r.note)
            }),
        )?;
        db.sql("CREATE INDEX events_dev ON events USING btree (dev)")
            .map_err(err)?;
        db.sql("ANALYZE TABLE events").map_err(err)?;
        let db = db.reopen(self.pool_frames).map_err(err)?;
        Ok((db, Model { rows, by_dev }))
    }

    fn source<'a>(&'a self, _db: &Db, model: &'a Model, seed: u64, client: usize) -> Source<'a> {
        let mut rng = Rng::new(seed, 1 + client as u64);
        let mut deck = Deck::new(&[
            (Class::Count, 1),
            (Class::GroupSum, 1),
            (Class::Like, 1),
            (Class::IndexRange, 2),
            (Class::IndexEq, 4),
        ]);
        let devs = self.devs;
        let count = |n: usize| vec![vec![Value::Int(n as i64)]];
        Box::new(move || {
            let class = deck.deal(&mut rng);
            let (sql, want) = match class {
                Class::Count => {
                    let x = rng.range(SELECTIVE.0, SELECTIVE.1);
                    let n = model.rows.iter().filter(|r| r.val < x).count();
                    (
                        format!("SELECT COUNT(*) FROM events WHERE val < {x}"),
                        count(n),
                    )
                }
                Class::GroupSum => {
                    let x = rng.range(SELECTIVE.0, SELECTIVE.1);
                    let mut sums = BTreeMap::new();
                    for r in model.rows.iter().filter(|r| r.val >= x) {
                        *sums.entry(r.kind).or_insert(0) += r.val;
                    }
                    (
                        format!("SELECT kind, SUM(val) FROM events WHERE val >= {x} GROUP BY kind"),
                        sums.into_iter()
                            .map(|(k, s)| vec![Value::Str(format!("k{k}")), Value::Int(s)])
                            .collect(),
                    )
                }
                Class::Like => {
                    let w = WORDS[rng.below(16) as usize];
                    let n = model.rows.iter().filter(|r| r.note.contains(w)).count();
                    (
                        format!("SELECT COUNT(*) FROM events WHERE note LIKE '%{w}%'"),
                        count(n),
                    )
                }
                Class::IndexEq => {
                    let d = rng.range(0, devs);
                    let ids = &model.by_dev[d as usize];
                    let sum: i64 = ids.iter().map(|&i| model.rows[i].val).sum();
                    let sum = if ids.is_empty() {
                        Value::Null
                    } else {
                        Value::Int(sum)
                    };
                    (
                        format!("SELECT COUNT(*), SUM(val) FROM events WHERE dev = {d}"),
                        vec![vec![Value::Int(ids.len() as i64), sum]],
                    )
                }
                _ => {
                    let a = rng.range(0, devs - 10);
                    let want = model.by_dev[a as usize..a as usize + 10]
                        .iter()
                        .flatten()
                        .map(|&i| vec![Value::Int(i as i64), Value::Int(model.rows[i].val)])
                        .collect();
                    (
                        format!(
                            "SELECT id, val FROM events WHERE dev >= {a} AND dev < {}",
                            a + 10
                        ),
                        want,
                    )
                }
            };
            Op {
                class,
                sql,
                check: Check::Rows(want),
                effect: Effect::None,
            }
        })
    }

    fn verify(&self, db: &Db, model: &Model, _tally: &Tally) -> Fallible<()> {
        let r = db.sql("SELECT COUNT(*) FROM events").map_err(err)?;
        let n = r.scalar().and_then(|v| v.as_int()).map_err(err)?;
        if n != model.rows.len() as i64 {
            return Err(format!(
                "events holds {n} rows, {} were loaded",
                model.rows.len()
            ));
        }
        Ok(())
    }

    fn tail(&self) -> u32 {
        90
    }

    fn class_latencies(&self) -> &'static [ClassLatency] {
        &[
            ClassLatency {
                prefix: "scan",
                pick: Class::is_scan,
                quantiles: &[50],
            },
            ClassLatency {
                prefix: "index",
                pick: |c| matches!(c, Class::IndexEq | Class::IndexRange),
                quantiles: &[50],
            },
        ]
    }
}
