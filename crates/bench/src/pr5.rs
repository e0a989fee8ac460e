//! PR5 observability-extension lanes: the `sys.*` system relations,
//! EXPLAIN ANALYZE and the flight recorder, driven as seeded workloads
//! whose metric snapshots were first recorded as `BENCH_pr5.json`.
//!
//! Same determinism contract as [`crate::pr3`]: nothing inside a
//! workload reads a clock, so two runs with the same seed and scale
//! produce byte-identical snapshots. The "metric names" gate keeps every
//! name these lanes published, so none can silently disappear.

use dmx_core::{Database, DatabaseConfig, DatabaseEnv};
use dmx_query::{Session, SqlExt};
use dmx_types::testrng::TestRng;
use dmx_types::{FileId, PageId};

use crate::{registry, Scale, WorkloadResult};

/// Scenario 1: repeated predicate/projection scans over the system
/// relations on top of a seeded base table.
pub(crate) fn sys_relation_scans(scale: &Scale, seed: u64) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    crate::load_emp(
        &db,
        "t",
        scale.rows,
        &["CREATE UNIQUE INDEX t_pk ON {t} (id)"],
    )
    .expect("load");
    let _ = seed; // the sys snapshot is a pure function of the workload
    let mut rows_out = 0u64;
    for _ in 0..scale.scans {
        for q in [
            "SELECT name, value FROM sys.metrics WHERE kind = 'counter'",
            "SELECT name, records, pages FROM sys.relations",
            "SELECT relation, type, name FROM sys.attachments",
            "SELECT name, bucket, count FROM sys.histograms",
            "SELECT name, mode FROM sys.locks WHERE state = 'held'",
        ] {
            rows_out += db.query_sql(q).expect("sys scan").len() as u64;
        }
    }
    WorkloadResult {
        ops: rows_out,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 2: seeded EXPLAIN ANALYZE statements — full scans with a
/// pushed predicate plus indexed point shapes — each recording
/// estimated-vs-actual into the `planner.misestimate` histogram.
pub(crate) fn explain_analyze(scale: &Scale, seed: u64) -> WorkloadResult {
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
    let mut ops = 0u64;
    for _ in 0..scale.scans {
        let dept = rng.range_i64(0, 10);
        let r = sess
            .execute(&format!(
                "EXPLAIN ANALYZE SELECT name FROM t WHERE dept = {dept}"
            ))
            .expect("explain analyze scan");
        assert_eq!(r.columns, vec!["plan", "estimated", "actual"]);
        ops += 1;
    }
    for _ in 0..scale.lookups / 10 {
        let id = rng.range_i64(0, scale.rows as i64);
        let r = sess
            .execute(&format!(
                "EXPLAIN ANALYZE SELECT name FROM t WHERE id = {id}"
            ))
            .expect("explain analyze point");
        assert!(!r.rows.is_empty());
        ops += 1;
    }
    let mis = db
        .query_sql(
            "SELECT value FROM sys.metrics \
             WHERE name = 'planner.misestimate' AND kind = 'histogram_count'",
        )
        .expect("misestimate");
    assert!(
        mis[0][0].as_int().expect("int") >= ops as i64,
        "every analyzed access must feed the misestimate histogram"
    );
    WorkloadResult {
        ops,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 3: a seeded DML mix under referential-integrity attachments
/// (the same shape as pr3's `mixed_dml`) with the trace ring drained
/// through `sys.trace` every few statements; `ops` counts drained rows.
pub(crate) fn trace_ring_drain(scale: &Scale, seed: u64) -> WorkloadResult {
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
    let mut drained = 0u64;
    for i in 0..scale.dml_ops {
        let id = i as i64;
        let dept = rng.range_i64(0, DEPTS);
        sess.execute(&format!("INSERT INTO emp VALUES ({id}, 'e{id}', {dept})"))
            .expect("insert");
        if i % 32 == 31 {
            drained += db
                .query_sql("SELECT * FROM sys.trace")
                .expect("drain")
                .len() as u64;
        }
    }
    assert!(drained > 0, "the churn must leave trace events to drain");
    WorkloadResult {
        ops: drained,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 4: corruption below the checksum layer quarantines a
/// relation on reopen; the flight recorder's incident is queryable as
/// `sys.incidents`. `ops` counts the incident rows.
pub(crate) fn flight_recorder(scale: &Scale, seed: u64) -> WorkloadResult {
    let env = DatabaseEnv::fresh();
    let db = Database::open(env.clone(), DatabaseConfig::default(), registry()).expect("open");
    crate::load_emp(
        &db,
        "victim",
        (scale.rows / 8).max(8),
        &["CREATE UNIQUE INDEX victim_pk ON {t} (id)"],
    )
    .expect("load");
    let _ = seed; // the corruption point is fixed; determinism is the point
    drop(db);

    // Flip one byte under the checksum (file 1 = catalog, file 2 = the
    // victim heap, in creation order).
    let pid = PageId::new(FileId(2), 0);
    let mut page = dmx_page::Page::new();
    env.disk.read_page(pid, &mut page).expect("read page");
    page.raw_mut()[100] ^= 0x40;
    env.disk.write_page(pid, &page).expect("write page");

    let db = Database::open(env, DatabaseConfig::default(), registry()).expect("reopen");
    db.query_sql("SELECT id FROM victim")
        .expect_err("corrupt relation must be quarantined");
    let report = db.last_incident().expect("incident recorded");
    assert!(!report.reason.is_empty());
    let rows = db
        .query_sql("SELECT * FROM sys.incidents")
        .expect("incidents");
    assert!(!rows.is_empty());
    WorkloadResult {
        ops: rows.len() as u64,
        metrics: db.metrics_snapshot(),
    }
}
