//! `oltp_keyed`: two closed-loop clients on a B-tree-keyed account table
//! that fits the default 2,048-frame pool. Every UPDATE today collects
//! its target with a full scan under record locks, so two clients
//! deadlock; victims are retried and counted, not avoided.

use crate::client::Source;
use crate::db::Db;
use crate::metrics::ClassLatency;
use crate::op::{Check, Class, Effect, Op, Tally};
use crate::rng::{Deck, Rng};
use crate::{err, Fallible, Workload};

pub struct Oltp {
    accounts: i64,
}

impl Oltp {
    pub fn full() -> Oltp {
        Oltp { accounts: 10_000 }
    }

    pub fn tiny() -> Oltp {
        Oltp { accounts: 500 }
    }
}

pub struct Model {
    initial_sum: i64,
}

/// Statement text of `bal + d` for either sign of `d`.
fn plus(d: i64) -> String {
    if d < 0 {
        format!("bal - {}", -d)
    } else {
        format!("bal + {d}")
    }
}

impl Workload for Oltp {
    type Model = Model;

    fn name(&self) -> &'static str {
        "oltp_keyed"
    }

    fn clients(&self) -> usize {
        2
    }

    fn setup(&self, seed: u64) -> Fallible<(Db, Model)> {
        let db = Db::fresh(2048).map_err(err)?;
        for ddl in [
            "CREATE TABLE acct (id INT NOT NULL, grp INT NOT NULL, bal INT NOT NULL) USING btree WITH (key=id)",
            "CREATE INDEX acct_grp ON acct USING btree (grp)",
            "CREATE TABLE hist (id INT NOT NULL, acct INT NOT NULL, amt INT NOT NULL)",
            "CREATE INDEX hist_acct ON hist USING btree (acct)",
        ] {
            db.sql(ddl).map_err(err)?;
        }
        let mut rng = Rng::new(seed, 0);
        let bals: Vec<i64> = (0..self.accounts).map(|_| rng.range(0, 1000)).collect();
        db.load(
            "acct",
            bals.iter()
                .enumerate()
                .map(|(id, b)| format!("({id}, {}, {b})", id % 100)),
        )?;
        db.sql("ANALYZE TABLE acct").map_err(err)?;
        Ok((
            db,
            Model {
                initial_sum: bals.iter().sum(),
            },
        ))
    }

    fn source<'a>(&'a self, _db: &Db, _model: &'a Model, seed: u64, client: usize) -> Source<'a> {
        let mut rng = Rng::new(seed, 1 + client as u64);
        let mut deck = Deck::new(&[
            (Class::Read, 6),
            (Class::Update, 2),
            (Class::Insert, 1),
            (Class::Range, 1),
        ]);
        let n = self.accounts;
        let mut next_hist = client as i64 * 1_000_000_000;
        Box::new(move || {
            let class = deck.deal(&mut rng);
            let k = rng.range(0, n);
            let d = rng.range(-50, 51);
            let (sql, check, effect) = match class {
                Class::Read => (
                    format!("SELECT bal FROM acct WHERE id = {k}"),
                    Check::OneRow,
                    Effect::None,
                ),
                Class::Update => (
                    format!("UPDATE acct SET bal = {} WHERE id = {k}", plus(d)),
                    Check::Affected(1),
                    Effect::Bal(d),
                ),
                Class::Insert => {
                    next_hist += 1;
                    (
                        format!("INSERT INTO hist VALUES ({next_hist}, {k}, {d})"),
                        Check::Affected(1),
                        Effect::Hist,
                    )
                }
                _ => {
                    let a = k.min(n - 100);
                    (
                        format!(
                            "SELECT SUM(bal) FROM acct WHERE id >= {a} AND id < {}",
                            a + 100
                        ),
                        Check::OneRow,
                        Effect::None,
                    )
                }
            };
            Op {
                class,
                sql,
                check,
                effect,
            }
        })
    }

    fn verify(&self, db: &Db, model: &Model, tally: &Tally) -> Fallible<()> {
        let scalar = |sql: &str| -> Fallible<i64> {
            let r = db.sql(sql).map_err(err)?;
            r.scalar().and_then(|v| v.as_int()).map_err(err)
        };
        let sum = scalar("SELECT SUM(bal) FROM acct")?;
        let want = model.initial_sum + tally.bal_delta;
        if sum != want {
            return Err(format!("SUM(bal) = {sum}, applied deltas give {want}"));
        }
        let hist = scalar("SELECT COUNT(*) FROM hist")?;
        if hist != tally.hist_rows {
            return Err(format!(
                "hist holds {hist} rows, {} inserts committed",
                tally.hist_rows
            ));
        }
        Ok(())
    }

    fn tail(&self) -> u32 {
        99
    }

    fn class_latencies(&self) -> &'static [ClassLatency] {
        &[
            ClassLatency {
                prefix: "read",
                pick: |c| c == Class::Read,
                quantiles: &[50, 95],
            },
            ClassLatency {
                prefix: "update",
                pick: |c| c == Class::Update,
                quantiles: &[50, 95],
            },
            ClassLatency {
                prefix: "range",
                pick: |c| c == Class::Range,
                quantiles: &[50],
            },
        ]
    }
}
