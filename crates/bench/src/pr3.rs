//! PR3 observability lanes: seeded, deterministic workloads whose
//! metric snapshots were first recorded as `BENCH_pr3.json`.
//!
//! Each lane builds its own database, drives a workload derived
//! entirely from a [`TestRng`] seed, and returns the operation count plus
//! the database's [`MetricsSnapshot`]. Nothing inside a workload reads a
//! clock: two runs with the same seed and scale produce byte-identical
//! snapshots (the property suite and `harness --check` both assert this).
//! Wall-clock timing happens only in [`crate::Lane::run_timed`], outside
//! the deterministic region, and is reported next to — never inside —
//! the snapshot.

use dmx_core::{Database, DatabaseConfig, DatabaseEnv};
use dmx_query::{Session, SqlExt};
use dmx_types::testrng::TestRng;
use dmx_types::{MetricsSnapshot, Record, Value};

use crate::{registry, Scale, WorkloadResult};

fn emp_record(rng: &mut TestRng, id: i64) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::Str(format!("emp{id}")),
        Value::Int(rng.range_i64(0, 10)),
        Value::Float(1000.0 + rng.below(100) as f64),
    ])
}

/// Scenario 1/2: bulk insert `scale.rows` records, committing in
/// batches, into a heap or b-tree relation. B-tree keys arrive shuffled
/// so page splits happen throughout the load.
pub(crate) fn bulk_insert(scale: &Scale, seed: u64, btree: bool) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    let ddl = if btree {
        "CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT) \
         USING btree WITH (key=id)"
    } else {
        "CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)"
    };
    db.execute_sql(ddl).expect("create table");
    let rd = db.catalog().get_by_name("t").expect("descriptor");
    let mut rng = TestRng::new(seed);
    let mut ids: Vec<i64> = (0..scale.rows as i64).collect();
    if btree {
        rng.shuffle(&mut ids);
    }
    for chunk in ids.chunks(256) {
        db.with_txn(|txn| {
            for &id in chunk {
                db.insert(txn, rd.id, emp_record(&mut rng, id))?;
            }
            Ok(())
        })
        .expect("batch insert");
    }
    WorkloadResult {
        ops: scale.rows as u64,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 3: seeded point lookups through a unique b-tree index
/// attachment, issued as SQL so the query layer is measured too.
pub(crate) fn point_lookups(scale: &Scale, seed: u64) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    crate::load_emp(
        &db,
        "t",
        scale.rows,
        &["CREATE UNIQUE INDEX t_pk ON {t} (id)"],
    )
    .expect("load");
    let mut rng = TestRng::new(seed);
    let sess = Session::new(db.clone());
    let mut found = 0u64;
    for _ in 0..scale.lookups {
        let id = rng.range_i64(0, scale.rows as i64);
        let rows = sess
            .execute(&format!("SELECT name FROM t WHERE id = {id}"))
            .expect("lookup")
            .rows;
        found += rows.len() as u64;
    }
    assert_eq!(found, scale.lookups as u64, "every lookup must hit");
    WorkloadResult {
        ops: scale.lookups as u64,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 4: repeated scans with a range predicate pushed into the
/// storage method (selectivity drawn from the seed).
pub(crate) fn scan_predicate(scale: &Scale, seed: u64) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    crate::load_emp(&db, "t", scale.rows, &[]).expect("load");
    let mut rng = TestRng::new(seed);
    let mut rows_out = 0u64;
    for _ in 0..scale.scans {
        let limit = rng.range_i64(1, scale.rows as i64 + 1);
        let rows = db
            .query_sql(&format!("SELECT id FROM t WHERE id < {limit}"))
            .expect("scan");
        assert_eq!(rows.len() as i64, limit, "predicate must select [0, limit)");
        rows_out += rows.len() as u64;
    }
    WorkloadResult {
        ops: rows_out,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 5: a seeded insert/update/delete mix over a parent/child
/// pair with referential-integrity attachments and a unique index; a
/// slice of the operations intentionally violate the constraints and
/// must be vetoed.
pub(crate) fn mixed_dml(scale: &Scale, seed: u64) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    db.execute_sql("CREATE TABLE dept (id INT NOT NULL, name STRING NOT NULL)")
        .expect("dept");
    db.execute_sql("CREATE UNIQUE INDEX dept_pk ON dept (id)")
        .expect("dept_pk");
    db.execute_sql("CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT NOT NULL)")
        .expect("emp");
    db.execute_sql("CREATE UNIQUE INDEX emp_pk ON emp (id)")
        .expect("emp_pk");
    db.execute_sql(
        "CREATE ATTACHMENT fk_c ON emp USING refint \
         WITH (role=child, fields=dept, other=dept, other_fields=id)",
    )
    .expect("fk child");
    db.execute_sql(
        "CREATE ATTACHMENT fk_p ON dept USING refint \
         WITH (role=parent, fields=id, other=emp, other_fields=dept)",
    )
    .expect("fk parent");
    const DEPTS: i64 = 8;
    for d in 0..DEPTS {
        db.execute_sql(&format!("INSERT INTO dept VALUES ({d}, 'd{d}')"))
            .expect("seed dept");
    }

    let mut rng = TestRng::new(seed);
    let sess = Session::new(db.clone());
    let mut live: Vec<i64> = Vec::new();
    let mut next_id: i64 = 0;
    let mut vetoed = 0u64;
    for _ in 0..scale.dml_ops {
        let roll = rng.below(100);
        let r = if roll < 50 || live.is_empty() {
            // insert; ~1 in 8 aims at a dept that does not exist
            let dept = if rng.below(8) == 0 {
                DEPTS + rng.range_i64(1, 100)
            } else {
                rng.range_i64(0, DEPTS)
            };
            let id = next_id;
            let r = sess.execute(&format!("INSERT INTO emp VALUES ({id}, 'e{id}', {dept})"));
            if r.is_ok() {
                next_id += 1;
                live.push(id);
            }
            r
        } else if roll < 75 {
            // update; ~1 in 8 moves the row to a missing dept
            let id = live[rng.index(live.len())];
            let dept = if rng.below(8) == 0 {
                DEPTS + rng.range_i64(1, 100)
            } else {
                rng.range_i64(0, DEPTS)
            };
            sess.execute(&format!("UPDATE emp SET dept = {dept} WHERE id = {id}"))
        } else {
            // delete an existing child row
            let at = rng.index(live.len());
            let id = live.swap_remove(at);
            sess.execute(&format!("DELETE FROM emp WHERE id = {id}"))
        };
        if r.is_err() {
            vetoed += 1;
        }
    }
    assert!(vetoed > 0, "the seeded mix must exercise constraint vetoes");
    let alive = db.query_sql("SELECT COUNT(*) FROM emp").expect("count")[0][0]
        .as_int()
        .expect("int");
    assert_eq!(alive as usize, live.len(), "model and database disagree");
    WorkloadResult {
        ops: scale.dml_ops as u64,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 6: committed work plus one in-flight loser, then a simulated
/// crash; the metrics are the *reopened* database's — i.e. the cost of
/// restart recovery itself (log replay, undo, pool traffic).
pub(crate) fn recovery_replay(scale: &Scale, seed: u64) -> WorkloadResult {
    let env = DatabaseEnv::fresh();
    let db = Database::open(env.clone(), DatabaseConfig::default(), registry()).expect("open");
    db.execute_sql(
        "CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)",
    )
    .expect("create");
    db.execute_sql("CREATE UNIQUE INDEX t_pk ON t (id)")
        .expect("index");
    let rd = db.catalog().get_by_name("t").expect("descriptor");
    let mut rng = TestRng::new(seed);
    let n = scale.rows / 2;
    for chunk in (0..n as i64).collect::<Vec<_>>().chunks(256) {
        db.with_txn(|txn| {
            for &id in chunk {
                db.insert(txn, rd.id, emp_record(&mut rng, id))?;
            }
            Ok(())
        })
        .expect("committed load");
    }
    // A loser: its updates reach the stable log (the following commit
    // forces past them) but the transaction never commits.
    let loser = db.begin();
    for id in 0..64.min(n as i64) {
        db.insert(&loser, rd.id, emp_record(&mut rng, n as i64 + id))
            .expect("loser insert");
    }
    db.with_txn(|txn| db.insert(txn, rd.id, emp_record(&mut rng, -1)))
        .expect("forcing commit");
    drop(loser);
    drop(db);

    // Crash: reopen over the surviving env. The snapshot is the cost of
    // recovery, not of the original workload.
    let db = Database::open(env, DatabaseConfig::default(), registry()).expect("reopen");
    let count = db.query_sql("SELECT COUNT(*) FROM t").expect("count")[0][0]
        .as_int()
        .expect("int");
    assert_eq!(count, n as i64 + 1, "losers must be undone, commits kept");
    WorkloadResult {
        ops: count as u64,
        metrics: db.metrics_snapshot(),
    }
}

/// Layer coverage required of every scenario snapshot (the acceptance
/// bar: pagestore, wal, lock and core all observed).
pub const REQUIRED_PREFIXES: &[&str] = &["pool.", "wal.", "lock.", "txn.", "dml."];

/// Asserts a snapshot spans the required layers and carries at least
/// `min_names` distinct metrics. Returns the distinct-name count.
pub fn assert_layer_coverage(m: &MetricsSnapshot, min_names: usize) -> usize {
    let names: Vec<&str> = m
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(m.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(m.histograms.iter().map(|(n, _)| n.as_str()))
        .collect();
    for prefix in REQUIRED_PREFIXES {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no metric under {prefix} in snapshot"
        );
    }
    assert!(
        names.len() >= min_names,
        "only {} distinct metrics (need {min_names})",
        names.len()
    );
    names.len()
}
