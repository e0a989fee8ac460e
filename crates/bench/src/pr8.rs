//! PR8 recovery-architecture lane: the effectiveness of group commit
//! under redo/undo logging with a steal/no-force buffer pool.
//! `BENCH_pr8.json` also recorded the pr3 bulk-insert and DML-mix lanes
//! under no-force commit; the "no-force" and "no-force speedup" gates
//! judge those lanes.
//!
//! Determinism contract: which force call carries which commit record
//! depends on thread interleaving, so `concurrent_committers` is the
//! one lane whose snapshot is not seed-determined. The "group commit"
//! gate judges its invariant (fewer forces than commits) instead.

use std::sync::Arc;

use dmx_core::Database;
use dmx_query::SqlExt;
use dmx_types::testrng::TestRng;
use dmx_types::{Record, Value};

use crate::{registry, Scale, WorkloadResult};

/// Threads per committer pool and transactions per thread. Constant
/// rather than scale-derived: the point is overlap, not volume.
const COMMITTERS: usize = 8;
const TXNS_PER_COMMITTER: usize = 40;

/// Group commit under real concurrency: every thread runs its own
/// serial stream of small transactions against a shared table. With
/// commit forcing only the log, concurrent commit points pile onto the
/// flush lock and the winner's force carries every record appended so
/// far — so the force count must come out *below* the commit count
/// (strictly, or group commit did nothing), with the batch sizes
/// recorded in the `wal.force_batch` histogram.
pub(crate) fn concurrent_committers(_scale: &Scale, seed: u64) -> WorkloadResult {
    let db = Database::open_fresh(registry()).expect("open");
    db.execute_sql(
        "CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)",
    )
    .expect("create table");
    let rd = db.catalog().get_by_name("t").expect("descriptor");
    std::thread::scope(|scope| {
        for worker in 0..COMMITTERS {
            let db: Arc<Database> = db.clone();
            let rd = rd.clone();
            scope.spawn(move || {
                let mut rng = TestRng::new(seed ^ worker as u64);
                for i in 0..TXNS_PER_COMMITTER {
                    let id = (worker * TXNS_PER_COMMITTER + i) as i64;
                    db.with_txn(|txn| {
                        db.insert(
                            txn,
                            rd.id,
                            Record::new(vec![
                                Value::Int(id),
                                Value::Str(format!("w{worker}_{i}")),
                                Value::Int(rng.range_i64(0, 10)),
                                Value::Float(1000.0 + rng.below(100) as f64),
                            ]),
                        )
                    })
                    .expect("commit");
                }
            });
        }
    });
    let metrics = db.metrics_snapshot();
    let commits = metrics.counter("txn.commits");
    assert_eq!(
        commits as usize,
        COMMITTERS * TXNS_PER_COMMITTER + 1, // +1: the CREATE TABLE
        "every transaction must commit"
    );
    WorkloadResult {
        ops: (COMMITTERS * TXNS_PER_COMMITTER) as u64,
        metrics,
    }
}
