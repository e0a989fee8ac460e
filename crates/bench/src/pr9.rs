//! PR9 MVCC scenarios: a read-mostly workload run twice — once with the
//! pre-MVCC read path (every scanned record S-locked) and once against
//! the transaction's snapshot (zero record locks). The seeded runs were
//! first recorded as `BENCH_pr9.json`.
//!
//! The headline comparison is `lock.acquires` between the two
//! lanes: the workloads are identical (same seed, same scans, same
//! sprinkled updates), so the delta is purely the read-path visibility
//! mechanism. The "MVCC" gate holds the collapse at >= 10x and requires
//! that the snapshot run actually exercised the version store
//! (`mvcc.snapshot_scans` > 0).
//!
//! Determinism contract: both lanes are single-threaded and fully
//! seed-driven, so their metric snapshots reproduce byte-identically.

use dmx_core::{AccessPath, AccessQuery};
use dmx_query::{Session, SqlExt};
use dmx_types::testrng::TestRng;
use dmx_types::{Record, Value};

use crate::{Scale, WorkloadResult};

/// The read-mostly workload: `scale.scans` full-table scans over
/// `scale.rows` rows with a ~5 % sprinkle of single-row updates between
/// them (read-*mostly*, not read-only — the snapshot path must coexist
/// with writers, not assume their absence). `snapshot` selects the read
/// path; everything else is identical.
pub(crate) fn read_mostly(scale: &Scale, seed: u64, snapshot: bool) -> WorkloadResult {
    let db = crate::open_db();
    db.execute_sql("CREATE TABLE r (id INT NOT NULL, v INT NOT NULL) USING btree WITH (key=id)")
        .expect("create table");
    let rd = db.catalog().get_by_name("r").expect("descriptor");
    let rows = scale.rows.max(64);
    db.with_txn(|txn| {
        for i in 0..rows {
            db.insert(
                txn,
                rd.id,
                Record::new(vec![Value::Int(i as i64), Value::Int((i * 7) as i64)]),
            )?;
        }
        Ok(())
    })
    .expect("load");
    let mut rng = TestRng::new(seed);
    // The update side goes through a Session so the plan cache serves
    // the repeated statement shape, as a real read-mostly client would.
    let sess = Session::new(db.clone());
    let scans = scale.scans.max(8);
    let write_every = (scans / (scans / 20).max(1)).max(1);
    let mut scanned_rows = 0u64;
    let mut writes = 0u64;
    let mut scan_locks = 0u64;
    for s in 0..scans {
        let before = db.metrics_snapshot().counter("lock.acquires");
        db.with_txn(|txn| {
            let prev = txn.set_snapshot_reads(snapshot);
            let scan = db.open_scan(
                txn,
                rd.id,
                AccessPath::StorageMethod,
                AccessQuery::All,
                None,
                None,
            )?;
            while db.scan_next(txn, scan)?.is_some() {
                scanned_rows += 1;
            }
            txn.set_snapshot_reads(prev);
            Ok(())
        })
        .expect("scan txn");
        scan_locks += db.metrics_snapshot().counter("lock.acquires") - before;
        if s % write_every == 0 {
            let id = rng.below(rows as u64) as i64;
            sess.execute(&format!("UPDATE r SET v = v + 1 WHERE id = {id}"))
                .expect("update");
            // The client's follow-up dashboard query: constant SQL text,
            // so the plan cache serves it after the first compile. Runs
            // outside the measured scan window in both scenarios.
            sess.execute("SELECT COUNT(*) FROM r").expect("count");
            writes += 1;
        }
    }
    // Publish the scan-phase lock traffic as its own counter so the
    // "MVCC" gate can compare the scan paths directly, without the
    // load/update phases' lock noise.
    db.metrics()
        .counter("bench.scan_lock_acquires")
        .add(scan_locks);
    let metrics = db.metrics_snapshot();
    assert_eq!(
        scanned_rows,
        (scans * rows) as u64,
        "every scan must see every row"
    );
    WorkloadResult {
        ops: scans as u64 + writes,
        metrics,
    }
}
