//! Turning a run's samples, counter deltas and spans into named metrics.

use std::fmt::Write as _;

use starburst_dmx::page::IoSnapshot;
use starburst_dmx::types::obs::name;

use crate::client::{ClientLog, Sample};
use crate::db::Probe;
use crate::op::Class;
use crate::stats::{per, quantile};
use crate::trace::Summary;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The clients' logs from one timed phase.
pub struct Phase {
    pub logs: Vec<ClientLog>,
    pub secs: f64,
}

impl Phase {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| l.samples.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples().filter(|s| s.failed).count() as u64
    }

    /// Statements that completed as the model predicts, including
    /// predicted vetoes.
    pub fn completed(&self) -> u64 {
        let done = self
            .samples()
            .filter(|s| s.class.is_statement() && !s.failed);
        done.count() as u64
    }

    pub fn throughput(&self) -> f64 {
        self.completed() as f64 / self.secs
    }

    pub fn latencies(&self, pick: impl Fn(Class) -> bool) -> Vec<f64> {
        self.samples()
            .filter(|s| pick(s.class))
            .map(|s| s.ms)
            .collect()
    }
}

/// A per-class latency metric: `<prefix>_p<q>_ms` over the classes
/// `pick` selects.
pub struct ClassLatency {
    pub prefix: &'static str,
    pub pick: fn(Class) -> bool,
    pub quantiles: &'static [u32],
}

/// `<prefix>_p<q>_ms` for each quantile, over the picked samples.
pub fn latency_metrics(
    phase: &Phase,
    prefix: &str,
    pick: impl Fn(Class) -> bool,
    qs: &[u32],
) -> Vec<Metric> {
    let xs = phase.latencies(pick);
    qs.iter()
        .filter_map(|&q| {
            quantile(&xs, q as f64 / 100.0).map(|v| metric(format!("{prefix}_p{q}_ms"), v, "ms"))
        })
        .collect()
}

/// A timed phase between two counter probes.
pub struct Window {
    pub phase: Phase,
    pub a: Probe,
    pub b: Probe,
}

/// Counter-derived per-layer metrics over untraced windows (summed), with
/// the bytes the log grew by in them.
pub fn counter_layers(windows: &[&Window], log_bytes: u64) -> Vec<Metric> {
    let d = |n: &str| -> f64 {
        windows
            .iter()
            .map(|w| (w.b.metrics.counter(n) - w.a.metrics.counter(n)) as f64)
            .sum()
    };
    let io = |f: fn(&IoSnapshot) -> u64| -> f64 {
        windows
            .iter()
            .map(|w| (f(&w.b.io) - f(&w.a.io)) as f64)
            .sum()
    };
    let samples = || windows.iter().flat_map(|w| w.phase.samples());
    let ops = samples().filter(|s| s.class.is_statement()).count() as f64;
    let selects = samples().filter(|s| s.class.is_select()).count() as f64;
    let retries: f64 = samples().map(|s| s.retries as f64).sum();
    let rows_out: f64 = samples().map(|s| s.rows as f64).sum();
    let written = d(name::DML_INSERTS) + d(name::DML_UPDATES) + d(name::DML_DELETES);
    let scanned = d(name::SCAN_ROWS);
    let (hits, misses) = (d(name::POOL_HITS), d(name::POOL_MISSES));
    let (disk_reads, allocs) = (io(|s| s.reads), io(|s| s.allocs));
    vec![
        metric("client.retries_per_op", per(retries, ops), "1/op"),
        metric(
            "query.plan_cache_hit_ratio",
            per(
                d(name::PLAN_CACHE_HITS),
                d(name::PLAN_CACHE_HITS) + d(name::PLAN_CACHE_MISSES),
            ),
            "ratio",
        ),
        metric(
            "query.rows_examined_per_row_returned",
            per(scanned, rows_out),
            "ratio",
        ),
        metric("storage.rows_scanned_per_op", per(scanned, ops), "1/op"),
        metric(
            "storage.scan_opens_per_op",
            per(d(name::SCAN_OPENS), ops),
            "1/op",
        ),
        metric(
            "attach.invocations_per_row",
            per(d(name::ATT_INVOCATIONS), written),
            "1/row",
        ),
        metric("attach.vetoes", d(name::ATT_VETOES), "count"),
        metric(
            "attach.probes_per_query",
            per(d(name::ATT_PROBES), selects),
            "1/query",
        ),
        metric(
            "lock.acquires_per_op",
            per(d(name::LOCK_ACQUIRES), ops),
            "1/op",
        ),
        metric("lock.waits_per_op", per(d(name::LOCK_WAITS), ops), "1/op"),
        metric(
            "lock.deadlocks_per_kop",
            per(1e3 * d(name::LOCK_DEADLOCKS), ops),
            "1/kop",
        ),
        metric(
            "mvcc.version_reads_per_op",
            per(d(name::MVCC_VERSION_READS), ops),
            "1/op",
        ),
        metric(
            "mvcc.versions_recorded_per_write",
            per(d(name::MVCC_VERSIONS_RECORDED), written),
            "1/row",
        ),
        metric(
            "wal.appends_per_row",
            per(d(name::WAL_APPENDS), written),
            "1/row",
        ),
        metric("wal.bytes_per_row", per(log_bytes as f64, written), "B/row"),
        metric(
            "wal.forces_per_commit",
            per(d(name::WAL_FORCES), d(name::TXN_COMMITS)),
            "1/commit",
        ),
        metric(
            "wal.force_batch_mean",
            per(d(name::WAL_FRAMES_FORCED), d(name::WAL_FORCES)),
            "frames/force",
        ),
        metric("pool.hits_per_op", per(hits, ops), "1/op"),
        metric("pool.hits_per_row_scanned", per(hits, scanned), "1/row"),
        metric("pool.miss_ratio", per(misses, hits + misses), "ratio"),
        metric(
            "pool.evictions_per_query",
            per(d(name::POOL_EVICTIONS), selects),
            "1/query",
        ),
        metric("pool.steals", d(name::POOL_STEALS), "count"),
        metric("disk.reads_per_query", per(disk_reads, selects), "1/query"),
        metric(
            "disk.pages_allocated_per_krow",
            per(1e3 * allocs, written),
            "pages/krow",
        ),
    ]
}

/// Span-derived per-layer metrics of the traced phase, with the tracing
/// overhead measured against the untraced throughput. Pool accesses per
/// B-tree query are attributed only with one client: the pool's counters
/// are shared, so with two clients they would mix in the other's pages
/// (reported as 0).
pub fn span_layers(traced: &Phase, sum: &Summary, untraced_ops_s: f64) -> Vec<Metric> {
    let (pages, queries) = match traced.logs.as_slice() {
        [one] => (one.btree_pages, one.btree_queries),
        _ => (0, 0),
    };
    vec![
        metric("query.parse_us", sum.self_us_per_op("query.parse"), "us"),
        metric("query.plan_us", sum.self_us_per_op("query.plan"), "us"),
        metric("query.exec_us", sum.self_us_per_op("query.exec"), "us"),
        metric("core.dml_us", sum.self_us_per_op("core.dml"), "us"),
        metric("txn.commit_us", sum.self_us_per_op("txn.commit"), "us"),
        metric("pool.flush_us", sum.self_us_per_op("pool.flush"), "us"),
        metric("client.self_us", sum.self_us_per_op("op"), "us"),
        metric(
            "btree.pages_per_probe",
            per(pages as f64, queries as f64),
            "pages/query",
        ),
        metric("trace.child_coverage", sum.coverage(), "ratio"),
        metric(
            "trace.overhead_ratio",
            per(untraced_ops_s, traced.throughput()) - 1.0,
            "ratio",
        ),
    ]
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
