//! PR7 self-healing scenarios: online-scrub overhead against the pr3
//! DML mix, and the repair pipeline end to end. The seeded runs were
//! first recorded as `BENCH_pr7.json`.
//!
//! Same determinism contract as [`crate::pr3`]: nothing inside a
//! workload reads a clock, so two runs with the same seed and scale
//! produce byte-identical metric snapshots. "Concurrent" scrubbing is a
//! deterministic interleave — a full `CHECK TABLE` pass woven between
//! every batch of DML statements — so the overhead a baseline diff
//! shows is the scrub's page walking and cross-checking, not scheduler
//! noise.

use dmx_core::{Database, DatabaseConfig, DatabaseEnv};
use dmx_query::SqlExt;
use dmx_types::testrng::TestRng;
use dmx_types::{FileId, PageId};

use crate::{registry, Scale, WorkloadResult};

/// The shared seeded mix (the pr3 `mixed_dml` shape): inserts, updates
/// and deletes against an indexed table. When `scrub_every` is nonzero,
/// a full online scrub pass runs after every that-many statements.
fn dml_mix(scale: &Scale, seed: u64, scrub_every: usize) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    crate::load_emp(
        &db,
        "t",
        scale.rows / 4,
        &["CREATE UNIQUE INDEX t_pk ON {t} (id)"],
    )
    .expect("load");
    let mut rng = TestRng::new(seed);
    let mut next_id = (scale.rows / 4) as i64;
    let mut ops = 0u64;
    let mut scrubs = 0u64;
    for i in 0..scale.dml_ops {
        let roll = rng.below(100);
        if roll < 50 {
            let id = next_id;
            next_id += 1;
            db.execute_sql(&format!(
                "INSERT INTO t VALUES ({id}, 'e{id}', {}, 0.0)",
                id % 10
            ))
            .expect("insert");
        } else if roll < 80 {
            let id = rng.range_i64(0, next_id);
            db.execute_sql(&format!(
                "UPDATE t SET dept = {} WHERE id = {id}",
                roll % 10
            ))
            .expect("update");
        } else {
            let id = rng.range_i64(0, next_id);
            db.execute_sql(&format!("DELETE FROM t WHERE id = {id}"))
                .expect("delete");
        }
        ops += 1;
        if scrub_every != 0 && i % scrub_every == scrub_every - 1 {
            let r = db.execute_sql("CHECK TABLE t").expect("online scrub");
            assert_eq!(
                r.rows[0][2],
                dmx_types::Value::from("healthy"),
                "scrub must find a healthy table mid-mix"
            );
            scrubs += 1;
        }
    }
    if scrub_every != 0 {
        assert!(scrubs > 0, "the mix must actually interleave scrub passes");
    }
    WorkloadResult {
        ops,
        metrics: db.metrics_snapshot(),
    }
}

/// Scenario 1: the mix alone — what the overhead is measured against.
pub(crate) fn dml_mix_no_scrub(scale: &Scale, seed: u64) -> WorkloadResult {
    dml_mix(scale, seed, 0)
}

/// Scenario 2: the same mix with a full online scrub pass every 32
/// statements; the elapsed-time delta against scenario 1 is the scrub
/// overhead the baseline documents.
pub(crate) fn scrub_concurrent_dml(scale: &Scale, seed: u64) -> WorkloadResult {
    dml_mix(scale, seed, 32)
}

/// Scenario 3: silent index rot, proactive detection, automatic repair.
/// `ops` counts the records the healed relation serves again.
pub(crate) fn repair_pipeline(scale: &Scale, seed: u64) -> WorkloadResult {
    let env = DatabaseEnv::fresh();
    let db = Database::open(env.clone(), DatabaseConfig::default(), registry()).expect("open");
    let rows = (scale.rows / 8).max(16);
    crate::load_emp(
        &db,
        "victim",
        rows,
        &["CREATE UNIQUE INDEX victim_pk ON {t} (id)"],
    )
    .expect("load");
    let _ = seed; // the damage point is fixed; determinism is the point
    drop(db);

    // Rot one byte of the index (1 catalog, 2 heap, 3 index).
    let pid = PageId::new(FileId(3), 0);
    let mut page = dmx_page::Page::new();
    env.disk.read_page(pid, &mut page).expect("read page");
    page.raw_mut()[100] ^= 0x40;
    env.disk.write_page(pid, &page).expect("write page");

    let db = Database::open(env, DatabaseConfig::default(), registry()).expect("reopen");
    let check = db.execute_sql("CHECK TABLE victim").expect("scrub");
    assert_eq!(check.rows[0][2], dmx_types::Value::from("quarantined"));
    let repair = db.execute_sql("REPAIR TABLE victim").expect("repair");
    assert_eq!(repair.rows[0][2], dmx_types::Value::from("healthy"));
    let served = db
        .query_sql("SELECT id FROM victim")
        .expect("healed reads")
        .len() as u64;
    assert_eq!(served as usize, rows, "rebuild must lose nothing");
    WorkloadResult {
        ops: served,
        metrics: db.metrics_snapshot(),
    }
}
