//! Closed-loop clients: each sends its next statement only after the
//! previous reply, checks every answer against the model, and retries
//! deadlock and lock-timeout victims.

use std::sync::Arc;
use std::time::Instant;

use starburst_dmx::core::ExecCtx;
use starburst_dmx::prelude::{Database, DmxError, Result, Session, Value};
use starburst_dmx::query::{ast::Stmt, exec, parser::parse, PlanCache};
use starburst_dmx::types::obs::name;

use crate::op::{Check, Class, Op, Tally};
use crate::trace::{Span, Tracer};

/// Attempts per operation before a deadlock or timeout victim counts as
/// failed.
pub const MAX_ATTEMPTS: u32 = 5;

/// A source of one client's operations.
pub type Source<'a> = Box<dyn FnMut() -> Op + Send + 'a>;

pub struct Sample {
    pub class: Class,
    pub ms: f64,
    pub retries: u32,
    pub failed: bool,
    /// Rows the statement returned (SELECT) or changed (DML).
    pub rows: u64,
}

#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub tally: Tally,
    /// Wrong answers (a correctness failure, not an operation failure).
    pub wrong: Vec<String>,
    /// First few operation failures, for the report.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// Buffer-pool page accesses (hits + misses) made while executing
    /// B-tree-answered queries, and how many such queries ran (traced
    /// runs only).
    pub btree_pages: u64,
    pub btree_queries: u64,
}

#[derive(Clone, Copy)]
pub enum Stop {
    /// Start no operation after this instant.
    At(Instant),
    /// Run exactly this many operations per client.
    Ops(usize),
}

/// Runs one closed-loop client per source until `stop`; with `traced`,
/// every operation is decomposed into spans around the public calls it
/// makes.
pub fn run(
    db: &Arc<Database>,
    sources: &mut [Source<'_>],
    stop: Stop,
    traced: bool,
) -> Vec<ClientLog> {
    let origin = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(i, src)| {
                s.spawn(move || client(db, src, stop, traced.then(|| Tracer::new(origin, i))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn client(
    db: &Arc<Database>,
    src: &mut Source<'_>,
    stop: Stop,
    mut tracer: Option<Tracer>,
) -> ClientLog {
    let sess = Session::new(db.clone());
    let cache = db.query_state::<PlanCache, _>(PlanCache::default);
    let pool_hits = db.metrics().counter(name::POOL_HITS);
    let pool_misses = db.metrics().counter(name::POOL_MISSES);
    let pool_pages = || pool_hits.get() + pool_misses.get();
    let mut log = ClientLog::default();
    let mut n = 0usize;
    loop {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::Ops(k) if n >= k => break,
            _ => {}
        }
        n += 1;
        let op = src();
        let t0 = Instant::now();
        let pages_before = pool_pages();
        if let Some(tr) = tracer.as_mut() {
            tr.begin_op();
        }
        let mut retries = 0;
        let result = loop {
            let r = if op.class == Class::Checkpoint {
                checkpoint(db, tracer.as_mut())
            } else if let Some(tr) = tracer.as_mut() {
                traced_exec(&sess, db, &cache, tr, &op)
            } else {
                sess.execute(&op.sql).map(|r| r.rows)
            };
            match r {
                Err(DmxError::Deadlock { .. } | DmxError::LockTimeout)
                    if retries + 1 < MAX_ATTEMPTS =>
                {
                    retries += 1
                }
                r => break r,
            }
        };
        if let Some(tr) = tracer.as_mut() {
            tr.end_op();
            if op.class.uses_btree() {
                log.btree_pages += pool_pages() - pages_before;
                log.btree_queries += 1;
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (failed, rows) = match judge(&op, result) {
            Verdict::Done(rows) => {
                if matches!(op.check, Check::Veto) {
                    log.tally.vetoes += 1;
                }
                log.tally.apply(&op.effect);
                (false, rows)
            }
            Verdict::Wrong(why) => {
                log.wrong.push(format!("{:.120}: {why}", op.sql));
                (false, 0)
            }
            Verdict::Failed(e) => {
                if log.errors.len() < 5 {
                    log.errors.push(format!("{:.120}: {e}", op.sql));
                }
                (true, 0)
            }
        };
        log.samples.push(Sample {
            class: op.class,
            ms,
            retries,
            failed,
            rows,
        });
    }
    if let Some(tr) = tracer {
        log.spans = tr.into_spans();
    }
    log
}

/// Writes every dirty page back: the checkpoint a deployment would run
/// periodically (this engine checkpoints on its own only at open).
fn checkpoint(db: &Arc<Database>, tracer: Option<&mut Tracer>) -> Result<Vec<Vec<Value>>> {
    let flush = || db.services().pool.flush_all();
    match tracer {
        Some(tr) => tr.span("pool.flush", flush)?,
        None => flush()?,
    }
    Ok(Vec::new())
}

/// Runs `op` as Session itself would, but one public step at a time so
/// each step gets a span: a SELECT is parsed, planned through the plan
/// cache and executed under snapshot reads in its own transaction; DML
/// runs as `BEGIN` / statement / `COMMIT`.
fn traced_exec(
    sess: &Session,
    db: &Arc<Database>,
    cache: &PlanCache,
    tr: &mut Tracer,
    op: &Op,
) -> Result<Vec<Vec<Value>>> {
    if op.class.is_select() {
        let Stmt::Select(sel) = tr.span("query.parse", || parse(&op.sql))? else {
            return Err(DmxError::InvalidArg(format!("not a SELECT: {}", op.sql)));
        };
        let compiled = tr.span("query.plan", || cache.get_or_compile(db, &op.sql, &sel))?;
        let txn = db.begin();
        let ctx = ExecCtx { db, txn: &txn };
        txn.set_snapshot_reads(true);
        match tr.span("query.exec", || exec::run_to_rows(&compiled.plan, &ctx)) {
            Ok(rows) => {
                tr.span("txn.commit", || db.commit(&txn))?;
                Ok(rows)
            }
            Err(e) => {
                let _ = db.abort(&txn);
                Err(e)
            }
        }
    } else {
        sess.execute("BEGIN")?;
        match tr.span("core.dml", || sess.execute(&op.sql)) {
            Ok(r) => {
                tr.span("txn.commit", || sess.execute("COMMIT"))?;
                Ok(r.rows)
            }
            Err(e) => {
                // Fatal errors already ended the transaction; a veto or a
                // lock timeout leaves it open.
                if sess.in_transaction() {
                    let _ = sess.execute("ROLLBACK");
                }
                Err(e)
            }
        }
    }
}

enum Verdict {
    /// Completed as the model predicts; rows returned or changed.
    Done(u64),
    Wrong(String),
    Failed(String),
}

fn judge(op: &Op, r: Result<Vec<Vec<Value>>>) -> Verdict {
    let rows = match (&op.check, r) {
        (Check::Veto, Err(DmxError::Veto { .. })) => return Verdict::Done(0),
        (Check::Veto, Ok(_)) => return Verdict::Wrong("expected a veto".into()),
        (_, Err(e)) => return Verdict::Failed(e.to_string()),
        (_, Ok(rows)) => rows,
    };
    match &op.check {
        Check::Rows(want) => {
            if sorted(&rows) == sorted(want) {
                Verdict::Done(rows.len() as u64)
            } else {
                Verdict::Wrong(format!(
                    "got {} rows {:.200}, want {} rows {:.200}",
                    rows.len(),
                    format!("{rows:?}"),
                    want.len(),
                    format!("{want:?}")
                ))
            }
        }
        Check::OneRow => match rows.as_slice() {
            [row] if row.first().is_some_and(|v| *v != Value::Null) => Verdict::Done(1),
            _ => Verdict::Wrong(format!("want one non-NULL row, got {rows:?}")),
        },
        Check::Affected(n) => match rows.as_slice() {
            [row] if row.as_slice() == [Value::Int(*n)] => Verdict::Done(*n as u64),
            _ => Verdict::Wrong(format!("want {n} affected, got {rows:?}")),
        },
        Check::Succeeds => Verdict::Done(0),
        Check::Veto => unreachable!("handled above"),
    }
}

fn sorted(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}
