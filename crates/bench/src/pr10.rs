//! PR10 statistics scenarios: the same skewed query matrix planned
//! twice — once on the planner's built-in guesses (no statistics
//! attachment) and once with maintained statistics after `ANALYZE
//! TABLE` — plus a DML-heavy pair measuring what maintaining those
//! statistics costs. The seeded runs were first recorded as
//! `BENCH_pr10.json`.
//!
//! The headline comparison is `bench.misest_p90` between the two
//! misestimate lanes: every query runs under `EXPLAIN ANALYZE`, each
//! base-table access node contributes `|estimated - actual|` rows, and
//! the lane publishes the p90 of those errors. The matrix and data are
//! identical (same seed, same skew), so the delta is purely the
//! estimator's input quality. The "statistics" gate holds the shrink
//! at 2x or better and requires at least one plan flip
//! (`bench.plan_flips`); the "stats overhead" gate holds the DML lanes'
//! wall-clock overhead at 10 % or less.
//!
//! Determinism contract: all four lanes are single-threaded and fully
//! seed-driven, so their metric snapshots reproduce byte-identically.

use dmx_query::{Session, SqlExt};
use dmx_types::testrng::TestRng;
use dmx_types::{Record, Value};

use crate::{Scale, WorkloadResult};

/// Rows below which the skew workload cannot exercise the estimator:
/// a table this small fits in a page or two, a scan beats any index
/// regardless of selectivity, and no statistics can flip the plan.
const MIN_SKEW_ROWS: usize = 4_000;

/// `EXPLAIN` text of one query (plan shape only, no row counts).
fn plan_text(sess: &Session, q: &str) -> String {
    let r = sess.execute(&format!("EXPLAIN {q}")).expect("explain");
    r.rows
        .iter()
        // Keep only the structural part of each node line: the trailing
        // "(~N rows…)" parenthetical carries the row estimate, which
        // statistics change on every query — a *flip* means the chosen
        // access path changed, not the number printed beside it.
        .map(|row| {
            let line = row[0].as_str().unwrap_or("");
            line.split(" (~").next().unwrap_or(line).to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs one query under `EXPLAIN ANALYZE` and appends the absolute
/// row-estimate error of every base-table access node.
fn misest_errors(sess: &Session, q: &str, errors: &mut Vec<u64>) {
    let r = sess
        .execute(&format!("EXPLAIN ANALYZE {q}"))
        .expect("explain analyze");
    for row in &r.rows {
        let line = row[0].as_str().unwrap_or("");
        if !line.trim_start().starts_with("Access ") {
            continue;
        }
        if let (Value::Int(est), Value::Int(actual)) = (&row[1], &row[2]) {
            errors.push((est - actual).unsigned_abs());
        }
    }
}

fn p90(errors: &mut [u64]) -> u64 {
    if errors.is_empty() {
        return 0;
    }
    errors.sort_unstable();
    errors[((errors.len() * 9) / 10).min(errors.len() - 1)]
}

/// The misestimate workload: `rows` records where ~90 % share one dept
/// and the rest spread over eight more, behind a covering index on
/// `(dept, pay)`. The query matrix mixes equality and range predicates
/// over `dept`; the heavy value is exactly where a global distinct
/// count misleads and only the maintained histogram tells the truth.
/// `with_stats` runs `ANALYZE TABLE` first and counts how many plans
/// the statistics flip.
pub(crate) fn misestimate_lane(scale: &Scale, seed: u64, with_stats: bool) -> WorkloadResult {
    let db = crate::open_db();
    db.execute_sql("CREATE TABLE skew (id INT NOT NULL, dept INT NOT NULL, pay FLOAT NOT NULL)")
        .expect("create table");
    db.execute_sql("CREATE INDEX skew_dept ON skew (dept, pay)")
        .expect("create index");
    let rd = db.catalog().get_by_name("skew").expect("descriptor");
    let rows = scale.rows.max(MIN_SKEW_ROWS);
    let mut rng = TestRng::new(seed);
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(256) {
        db.with_txn(|txn| {
            for &i in chunk {
                let dept = if i % 10 == 0 { 1 + (i / 10) % 8 } else { 0 };
                db.insert(
                    txn,
                    rd.id,
                    Record::new(vec![
                        Value::Int(i),
                        Value::Int(dept),
                        Value::Float(1000.0 + rng.below(100) as f64),
                    ]),
                )?;
            }
            Ok(())
        })
        .expect("load");
    }
    let queries: Vec<String> = (0..9)
        .map(|d| format!("SELECT pay FROM skew WHERE dept = {d}"))
        .chain(
            [1i64, 3, 5, 7]
                .iter()
                .map(|k| format!("SELECT pay FROM skew WHERE dept < {k}")),
        )
        .collect();
    let sess = Session::new(db.clone());
    if with_stats {
        let before: Vec<String> = queries.iter().map(|q| plan_text(&sess, q)).collect();
        sess.execute("ANALYZE TABLE skew").expect("analyze");
        let flips = queries
            .iter()
            .zip(&before)
            .filter(|(q, b)| plan_text(&sess, q) != **b)
            .count() as u64;
        db.metrics().counter("bench.plan_flips").add(flips);
    }
    let mut errors = Vec::new();
    for q in &queries {
        misest_errors(&sess, q, &mut errors);
    }
    let ops = errors.len() as u64;
    assert!(ops >= queries.len() as u64, "every query must be measured");
    db.metrics()
        .counter("bench.misest_p90")
        .add(p90(&mut errors));
    WorkloadResult {
        ops,
        metrics: db.metrics_snapshot(),
    }
}

/// The DML-heavy workload: a seeded insert/update/delete stream (60/25/15)
/// over a b-tree relation with a secondary index, issued as SQL. The
/// `with_stats` lane adds a statistics attachment before the stream, so
/// every operation also maintains row counts, bounds, sketches and the
/// histogram; the wall-clock delta between the lanes is the maintenance
/// overhead the "stats overhead" gate holds at <= 10 %. Both lanes
/// publish the model's final row count so the registry test can prove
/// the attachment never perturbs the workload itself.
pub(crate) fn dml_lane(scale: &Scale, seed: u64, with_stats: bool) -> WorkloadResult {
    let db = crate::open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .expect("create table");
    db.execute_sql("CREATE INDEX t_v ON t (v)").expect("index");
    if with_stats {
        db.execute_sql("CREATE ATTACHMENT st ON t USING stats")
            .expect("stats attachment");
    }
    let mut rng = TestRng::new(seed);
    let sess = Session::new(db.clone());
    let mut live: Vec<i64> = Vec::new();
    let mut next_id = 0i64;
    let ops = scale.dml_ops.max(64);
    for _ in 0..ops {
        let roll = rng.below(100);
        if roll < 60 || live.is_empty() {
            let id = next_id;
            next_id += 1;
            let v = rng.below(1000);
            sess.execute(&format!("INSERT INTO t VALUES ({id}, {v})"))
                .expect("insert");
            live.push(id);
        } else if roll < 85 {
            let id = live[rng.index(live.len())];
            let v = rng.below(1000);
            sess.execute(&format!("UPDATE t SET v = {v} WHERE id = {id}"))
                .expect("update");
        } else {
            let at = rng.index(live.len());
            let id = live.swap_remove(at);
            sess.execute(&format!("DELETE FROM t WHERE id = {id}"))
                .expect("delete");
        }
    }
    db.metrics()
        .counter("bench.dml_rows_live")
        .add(live.len() as u64);
    if with_stats {
        let rows = db
            .query_sql("SELECT rows FROM sys.statistics WHERE relation = 't' AND field = '*'")
            .expect("sys.statistics");
        assert_eq!(
            rows[0][0],
            Value::Int(live.len() as i64),
            "maintained row count must track the DML stream exactly"
        );
    }
    WorkloadResult {
        ops: ops as u64,
        metrics: db.metrics_snapshot(),
    }
}
