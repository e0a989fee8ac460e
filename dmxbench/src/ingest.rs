//! `ingest_attached`: one client inserting 100-row statements into a
//! heap table carrying six attachments. Planning, lock contention and
//! scans of the table are bypassed; per-row attachment dispatch, the log
//! and maintained cells carry the load. One statement in 50 holds a row
//! the CHECK constraint must veto, which rolls back the rows and
//! attachment effects the statement already made.

use starburst_dmx::core::{AccessPath, AccessQuery};
use starburst_dmx::page::PAGE_SIZE;
use starburst_dmx::prelude::Value;
use starburst_dmx::types::obs::name;

use crate::client::Source;
use crate::db::{Db, Probe};
use crate::metrics::{metric, ClassLatency, Metric, Phase};
use crate::op::{Check, Class, Effect, Op, Tally};
use crate::rng::{Deck, Rng};
use crate::{err, Fallible, Workload};

pub struct Ingest {
    /// Statements loaded during set-up, so the timed phase starts on
    /// non-empty indexes and cells.
    preload: usize,
}

impl Ingest {
    pub fn full() -> Ingest {
        Ingest { preload: 100 }
    }

    pub fn tiny() -> Ingest {
        Ingest { preload: 5 }
    }
}

const ROWS_PER_STMT: usize = 100;
/// Frames of the pool the table is ingested through.
const POOL_FRAMES: usize = 2048;
const PARENTS: i64 = 100;
/// Ids of the timed statements start here; set-up rows sit below.
const TIMED_IDS: i64 = 1 << 40;

pub struct Model {
    /// Effects of the set-up statements.
    preloaded: Tally,
}

/// Generates 100-row INSERT statements; `vetoed` statements carry one
/// row with a negative `amt`, which the CHECK constraint rejects.
struct Gen {
    rng: Rng,
    next_id: i64,
}

impl Gen {
    fn statement(&mut self, vetoed: bool) -> Op {
        let bad = vetoed.then(|| self.rng.below(ROWS_PER_STMT as u64) as usize);
        let mut rows = Vec::with_capacity(ROWS_PER_STMT);
        let mut tuples = Vec::with_capacity(ROWS_PER_STMT);
        let mut bytes = 0;
        for i in 0..ROWS_PER_STMT {
            let id = self.next_id;
            self.next_id += 1;
            let dev = self.rng.range(0, PARENTS);
            let amt = if bad == Some(i) {
                -1
            } else {
                self.rng.range(0, 1000)
            };
            let tag = format!("t{}", self.rng.below(5000));
            bytes += 3 * 8 + tag.len() as u64;
            tuples.push(format!("({id}, {dev}, {amt}, '{tag}')"));
            rows.push((dev, amt));
        }
        let sql = format!("INSERT INTO ev VALUES {}", tuples.join(", "));
        let (check, effect) = if vetoed {
            (Check::Veto, Effect::None)
        } else {
            (
                Check::Affected(ROWS_PER_STMT as i64),
                Effect::Rows { rows, bytes },
            )
        };
        Op {
            class: Class::Ingest,
            sql,
            check,
            effect,
        }
    }
}

impl Workload for Ingest {
    type Model = Model;

    fn name(&self) -> &'static str {
        "ingest_attached"
    }

    fn clients(&self) -> usize {
        1
    }

    fn setup(&self, seed: u64) -> Fallible<(Db, Model)> {
        let db = Db::fresh(POOL_FRAMES).map_err(err)?;
        db.sql("CREATE TABLE dev (id INT NOT NULL)").map_err(err)?;
        db.load("dev", (0..PARENTS).map(|i| format!("({i})")))?;
        for ddl in [
            "CREATE TABLE ev (id INT NOT NULL, dev INT NOT NULL, amt INT NOT NULL, tag STRING NOT NULL)",
            "CREATE INDEX ev_id ON ev USING btree (id) WITH (unique=true)",
            "CREATE INDEX ev_dev_hash ON ev USING hash (dev)",
            "CREATE CONSTRAINT ev_amt ON ev CHECK (amt >= 0)",
            "CREATE ATTACHMENT ev_dev ON ev USING refint \
             WITH (role=child, fields=dev, other=dev, other_fields=id)",
            "CREATE ATTACHMENT ev_sums ON ev USING aggregate WITH (sum=amt, group_by=dev)",
            "CREATE ATTACHMENT ev_stats ON ev USING stats",
        ] {
            db.sql(ddl).map_err(err)?;
        }
        let mut gen = Gen {
            rng: Rng::new(seed, 0),
            next_id: 0,
        };
        let mut preloaded = Tally::default();
        for _ in 0..self.preload {
            let op = gen.statement(false);
            db.sql(&op.sql).map_err(err)?;
            preloaded.apply(&op.effect);
        }
        Ok((db, Model { preloaded }))
    }

    /// Statements, and a checkpoint whenever half the pool is dirty.
    /// Index pages are no-steal and the engine has no page cleaner, so
    /// without checkpoints the dirty index pages fill the pool
    /// (`BufferFull`); the checkpoint is the one a deployment would
    /// schedule, and it runs (and is timed) inside the workload.
    fn source<'a>(&'a self, db: &Db, _model: &'a Model, seed: u64, client: usize) -> Source<'a> {
        let mut gen = Gen {
            rng: Rng::new(seed, 1 + client as u64),
            next_id: TIMED_IDS,
        };
        let mut deck = Deck::new(&[(false, 49), (true, 1)]);
        let dirty = db.db.metrics().gauge(name::POOL_DIRTY);
        Box::new(move || {
            if dirty.get() >= POOL_FRAMES as i64 / 2 {
                return Op {
                    class: Class::Checkpoint,
                    sql: "checkpoint".into(),
                    check: Check::Succeeds,
                    effect: Effect::None,
                };
            }
            let vetoed = deck.deal(&mut gen.rng);
            gen.statement(vetoed)
        })
    }

    fn verify(&self, db: &Db, model: &Model, tally: &Tally) -> Fallible<()> {
        let mut want = model.preloaded.clone();
        want.merge(tally);
        let scalar = |sql: &str| -> Fallible<i64> {
            let r = db.sql(sql).map_err(err)?;
            r.scalar().and_then(|v| v.as_int()).map_err(err)
        };
        let n = scalar("SELECT COUNT(*) FROM ev")?;
        if n != want.rows {
            return Err(format!("ev holds {n} rows, the model {}", want.rows));
        }
        let stats =
            scalar("SELECT rows FROM sys.statistics WHERE relation = 'ev' AND field = '*'")?;
        if stats != want.rows {
            return Err(format!(
                "sys.statistics counts {stats} rows, the model {}",
                want.rows
            ));
        }
        let cells = aggregate_cells(db)?;
        let model_cells: Vec<(i64, i64, i64)> =
            want.by_dev.iter().map(|(&d, &(c, s))| (d, c, s)).collect();
        if cells != model_cells {
            return Err(format!(
                "aggregate cells {:.300} differ from the model {:.300}",
                format!("{cells:?}"),
                format!("{model_cells:?}")
            ));
        }
        Ok(())
    }

    fn tail(&self) -> u32 {
        99
    }

    fn class_latencies(&self) -> &'static [ClassLatency] {
        &[ClassLatency {
            prefix: "checkpoint",
            pick: |c| c == Class::Checkpoint,
            quantiles: &[50],
        }]
    }

    fn extra(&self, phase: &Phase, a: &Probe, b: &Probe) -> Vec<Metric> {
        let (rows, bytes) = phase.logs.iter().fold((0, 0), |(r, by), l| {
            (r + l.tally.rows, by + l.tally.row_bytes)
        });
        let allocated = (b.io.allocs - a.io.allocs) as f64 * PAGE_SIZE as f64;
        vec![
            metric("ingest_rows_s", rows as f64 / phase.secs, "1/s"),
            metric("space_amp", allocated / bytes.max(1) as f64, "ratio"),
        ]
    }
}

/// `(dev, count, SUM(amt))` from the aggregate attachment's cells, read
/// through its access path.
fn aggregate_cells(db: &Db) -> Fallible<Vec<(i64, i64, i64)>> {
    let d = &db.db;
    let rd = d.catalog().get_by_name("ev").map_err(err)?;
    let (at, inst) = rd
        .find_attachment("ev_sums")
        .ok_or("no ev_sums attachment")?;
    let txn = d.begin();
    let scan = d
        .open_scan(
            &txn,
            rd.id,
            AccessPath::Attachment(at, inst.instance),
            AccessQuery::All,
            None,
            None,
        )
        .map_err(err)?;
    let mut cells = Vec::new();
    while let Some(item) = d.scan_next(&txn, scan).map_err(err)? {
        let v = item.values.ok_or("aggregate cell without values")?;
        let num = |x: &Value| match x {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            other => Err(format!("aggregate value {other:?}")),
        };
        cells.push((num(&v[0])?, num(&v[1])?, num(&v[2])?));
    }
    d.commit(&txn).map_err(err)?;
    cells.sort();
    Ok(cells)
}
