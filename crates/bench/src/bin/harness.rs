//! The experiment harness: regenerates every experiment in DESIGN.md §4
//! and runs the seeded lanes against the gate table.
//!
//! The paper (SIGMOD '87) publishes no measured tables — its evaluation is
//! architectural — so each experiment here measures one of its explicit
//! performance claims or design choices. EXPERIMENTS.md records the
//! claim, the harness output, and whether the claimed *shape* holds.
//!
//! Run with: `cargo run --release -p dmx-bench --bin harness`, or name
//! experiments and lanes to run only those (`… --bin harness e1 e5
//! bulk_insert_btree`; `lanes` names every lane). Lanes run at full
//! scale, each timed as the median of five runs, and every gate that
//! applies judges them and the committed baselines. `--check` instead
//! runs every lane twice at smoke scale, fails on any snapshot
//! divergence, and judges the counter gates.

// Same panic-discipline exemption as the bench library: the harness is
// not a runtime crate, and a broken fixture should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmx_bench::*;
use dmx_core::{AccessPath, AccessQuery, Database, StorageMethod};
use dmx_expr::{CmpOp, Expr};
use dmx_query::{PlanCache, Session, SqlExt};
use dmx_types::{DmxError, Record, Value};

const EXPERIMENTS: [(&str, fn()); 12] = [
    ("e1", e1_dispatch),
    ("e2", e2_attachments),
    ("e3", e3_filter),
    ("e4", e4_bind),
    ("e5", e5_paths),
    ("e6", e6_join),
    ("e7", e7_deferred),
    ("e8", e8_rollback),
    ("e9", e9_storage),
    ("e10", e10_descriptor),
    ("e11", e11_cascade),
    ("e12", e12_concurrency),
];

/// Samples a full-scale run takes of every lane; it keeps the median.
const ROUNDS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let ok = if args == ["--check"] {
        let (outcomes, panicked) = smoke_run();
        lane_table(&outcomes);
        for lane in &panicked {
            eprintln!("lane {lane} FAILED: panicked (message above)");
        }
        judge(&Source::fresh(Kind::Smoke, &outcomes)) && panicked.is_empty()
    } else {
        full_run(&args)
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Runs the named experiments and lanes (all of them when `args` is
/// empty) and judges the lanes. False on an unknown name or a failed gate.
fn full_run(args: &[String]) -> bool {
    let lanes = lanes();
    let valid: Vec<&str> = std::iter::once("lanes")
        .chain(EXPERIMENTS.iter().map(|(name, _)| *name))
        .chain(lanes.iter().map(|l| l.name))
        .collect();
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| !valid.contains(&a.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown name(s) {unknown:?}; valid: --check alone, or any of");
        eprintln!("{}", valid.join(" "));
        return false;
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    println!("starburst-dmx experiment harness");
    println!("(figures F1/F2 are executable scenarios: see tests/extension_registration.rs");
    println!(" and crates/attach/tests/attachments.rs::figure1_employee_configuration)\n");
    for (name, f) in EXPERIMENTS {
        if want(name) {
            f();
            println!();
        }
    }
    let chosen: Vec<&Lane> = lanes
        .iter()
        .filter(|l| want("lanes") || want(l.name))
        .collect();
    if chosen.is_empty() {
        return true;
    }
    banner(
        "lanes",
        "seeded workloads at full scale, judged by the gate table",
    );
    // Wall clock drifts with host load over a run: rounds alternate the
    // lane order, so lanes compared on elapsed time run in alternating
    // pairs.
    let mut samples: Vec<Vec<Outcome>> = chosen.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..chosen.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            samples[i].push(chosen[i].run_timed(&Scale::full(), DEFAULT_SEED));
        }
    }
    let outcomes: Vec<Outcome> = samples
        .into_iter()
        .map(|mut runs| {
            runs.sort_by_key(|o| o.elapsed);
            runs.swap_remove(ROUNDS / 2)
        })
        .collect();
    lane_table(&outcomes);
    judge(&Source::fresh(Kind::Full, &outcomes))
}

fn lane_table(outcomes: &[Outcome]) {
    println!(
        "{:>26}  {:>8}  {:>11}  {:>9}  {:>7}",
        "lane", "ops", "elapsed ms", "ops/sec", "metrics"
    );
    for o in outcomes {
        let names = pr3::assert_layer_coverage(&o.metrics, 12);
        let per_sec = o.ops as f64 / o.elapsed.as_secs_f64().max(1e-9);
        let elapsed = ms(o.elapsed);
        println!(
            "{:>26}  {:>8}  {elapsed:>11}  {per_sec:>9.0}  {names:>7}",
            o.name, o.ops
        );
    }
}

/// Judges `fresh` and every committed baseline with each gate that
/// applies, printing every verdict. False when any gate fails.
fn judge(fresh: &Source) -> bool {
    let mut failed = Vec::new();
    println!();
    for src in std::iter::once(fresh).chain(&Source::committed()) {
        for v in evaluate(src) {
            let (status, detail) = match &v.result {
                Ok(detail) => ("ok", detail),
                Err(detail) => ("FAILED", detail),
            };
            let (gate, t, label) = (v.gate, v.threshold, &src.label);
            println!("gate {gate:<17} {status:<6} {label:<16} {detail} (threshold {t})");
            if v.result.is_err() {
                failed.push(gate);
            }
        }
    }
    if failed.is_empty() {
        println!("all gates passed");
    } else {
        eprintln!("failed gates: {}", failed.join(", "));
    }
    failed.is_empty()
}

fn banner(id: &str, claim: &str) {
    println!("=== {id} — {claim}");
}

// ---------------------------------------------------------------------
// E1: procedure-vector dispatch cost
// ---------------------------------------------------------------------
fn e1_dispatch() {
    banner(
        "E1",
        "\"the linkage to storage method … routines … must be very efficient\" — \
         id-indexed procedure vectors vs alternatives",
    );
    let reg = registry();
    let heap_id = reg.storage_id_by_name("heap").unwrap();
    let heap: Arc<dyn StorageMethod> = reg.storage(heap_id).unwrap();
    let concrete = dmx_storage::HeapStorage;
    // the rejected alternative, given the same thread-safety duties as the
    // registry (shared lock + owned handle per activation)
    let by_name: dmx_types::sync::RwLock<HashMap<String, Arc<dyn StorageMethod>>> = {
        let mut m: HashMap<String, Arc<dyn StorageMethod>> = HashMap::new();
        for (id, name) in reg.storage_methods() {
            m.insert(name.clone(), reg.storage(id).unwrap());
        }
        dmx_types::sync::RwLock::new(m)
    };
    const N: usize = 2_000_000;

    // (a) direct static call on the concrete type
    let (_, d_static) = time(|| {
        let mut acc = 0u64;
        for i in 0..N {
            acc = acc.wrapping_add(std::hint::black_box(&concrete).name().len() as u64 + i as u64);
        }
        std::hint::black_box(acc)
    });
    // (b) procedure-vector activation: index the vector, indirect call
    let (_, d_vector) = time(|| {
        let mut acc = 0u64;
        for i in 0..N {
            let sm = reg.storage(std::hint::black_box(heap_id)).unwrap();
            acc = acc.wrapping_add(sm.name().len() as u64 + i as u64);
        }
        std::hint::black_box(acc)
    });
    // (c) pre-resolved trait object (vector lookup hoisted out)
    let (_, d_dyn) = time(|| {
        let mut acc = 0u64;
        for i in 0..N {
            acc = acc.wrapping_add(std::hint::black_box(&heap).name().len() as u64 + i as u64);
        }
        std::hint::black_box(acc)
    });
    // (d) name-keyed hash lookup per call (the rejected alternative)
    let (_, d_name) = time(|| {
        let mut acc = 0u64;
        for i in 0..N {
            let sm = by_name
                .read()
                .get(std::hint::black_box("heap"))
                .cloned()
                .unwrap();
            acc = acc.wrapping_add(sm.name().len() as u64 + i as u64);
        }
        std::hint::black_box(acc)
    });
    let w = [34, 12];
    println!("{}", row(&["mechanism".into(), "ns/call".into()], &w));
    for (name, d) in [
        ("static (concrete type)", d_static),
        ("pre-resolved trait object", d_dyn),
        ("procedure vector (id index)", d_vector),
        ("hash lookup by name", d_name),
    ] {
        println!("{}", row(&[name.into(), ns_per(d, N)], &w));
    }
}

// ---------------------------------------------------------------------
// E2: attachment invocation scaling
// ---------------------------------------------------------------------
fn e2_attachments() {
    banner(
        "E2",
        "attached procedures are invoked once per modification per type with \
         instances; absent types (NULL descriptor fields) cost nothing",
    );
    const N: usize = 3000;
    let configs: Vec<(&str, Vec<String>)> = vec![
        ("no attachments", vec![]),
        ("1 btree index", vec!["CREATE INDEX i0 ON {t} (id)".into()]),
        (
            "2 btree indexes",
            (0..2)
                .map(|i| format!("CREATE INDEX i{i} ON {{t}} (id)"))
                .collect(),
        ),
        (
            "4 btree indexes",
            (0..4)
                .map(|i| format!("CREATE INDEX i{i} ON {{t}} (id)"))
                .collect(),
        ),
        (
            "8 btree indexes",
            (0..8)
                .map(|i| format!("CREATE INDEX i{i} ON {{t}} (id)"))
                .collect(),
        ),
        (
            "1 index + 1 hash + 1 check + 1 aggregate",
            vec![
                "CREATE INDEX i0 ON {t} (id)".into(),
                "CREATE INDEX h0 ON {t} USING hash (name)".into(),
                "CREATE CONSTRAINT c0 ON {t} CHECK (salary > 0)".into(),
                "CREATE ATTACHMENT a0 ON {t} USING aggregate WITH (sum=salary, group_by=dept)"
                    .into(),
            ],
        ),
    ];
    let w = [40, 12, 14];
    println!(
        "{}",
        row(
            &[
                "configuration".into(),
                "total ms".into(),
                "µs/insert".into()
            ],
            &w
        )
    );
    for (name, idx) in configs {
        let db = open_db();
        let specs: Vec<&str> = idx.iter().map(|s| s.as_str()).collect();
        let ((), d) = time(|| {
            load_emp(&db, "t", N, &specs).unwrap();
        });
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    ms(d),
                    format!("{:.1}", d.as_secs_f64() * 1e6 / N as f64)
                ],
                &w
            )
        );
    }
}

// ---------------------------------------------------------------------
// E3: predicate evaluation in the buffer pool
// ---------------------------------------------------------------------
fn e3_filter() {
    banner(
        "E3",
        "\"filter predicates … evaluated while the field values … are still in \
         the buffer pool\" vs copy-out-then-filter",
    );
    const N: usize = 50_000;
    let db = open_db();
    load_emp(&db, "t", N, &[]).unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    let w = [12, 14, 14, 10];
    println!(
        "{}",
        row(
            &[
                "selectivity".into(),
                "in-pool ms".into(),
                "copy-out ms".into(),
                "speedup".into()
            ],
            &w
        )
    );
    for frac in [0.001, 0.01, 0.1, 0.5, 1.0] {
        let limit = (N as f64 * frac) as i64;
        let pred = Expr::cmp_col(CmpOp::Lt, 0, limit);
        // (a) predicate pushed into the storage method
        let (n_a, d_a) = time(|| {
            db.with_txn(|txn| {
                let scan = db.open_scan(
                    txn,
                    rd.id,
                    AccessPath::StorageMethod,
                    AccessQuery::All,
                    Some(pred.clone()),
                    Some(vec![0]),
                )?;
                let mut n = 0u64;
                while db.scan_next(txn, scan)?.is_some() {
                    n += 1;
                }
                Ok(n)
            })
            .unwrap()
        });
        // (b) every record copied out in full, filtered by the caller
        let (n_b, d_b) = time(|| {
            db.with_txn(|txn| {
                let scan = db.open_scan(
                    txn,
                    rd.id,
                    AccessPath::StorageMethod,
                    AccessQuery::All,
                    None,
                    None,
                )?;
                let mut n = 0u64;
                let funcs = db.services().funcs.read();
                while let Some(item) = db.scan_next(txn, scan)? {
                    let values = item.values.unwrap();
                    if dmx_expr::eval_predicate(&pred, &values, dmx_expr::EvalContext::new(&funcs))?
                    {
                        n += 1;
                    }
                }
                Ok(n)
            })
            .unwrap()
        });
        assert_eq!(n_a, n_b);
        println!(
            "{}",
            row(
                &[
                    format!("{frac}"),
                    ms(d_a),
                    ms(d_b),
                    format!("{:.2}x", d_b.as_secs_f64() / d_a.as_secs_f64())
                ],
                &w
            )
        );
    }
}

// ---------------------------------------------------------------------
// E4: bound plans vs re-translation
// ---------------------------------------------------------------------
fn e4_bind() {
    banner(
        "E4",
        "query binding \"avoids the non-trivial costs of accessing the relation \
         descriptions and optimizing the query at query execution time\"",
    );
    let db = open_db();
    load_emp(&db, "t", 20_000, &["CREATE UNIQUE INDEX t_pk ON {t} (id)"]).unwrap();
    let cache = db.query_state::<PlanCache, _>(PlanCache::default);
    let q = "SELECT name FROM t WHERE id = 12345";
    const N: usize = 2000;
    db.query_sql(q).unwrap(); // warm
    let (_, d_cached) = time(|| {
        for _ in 0..N {
            db.query_sql(q).unwrap();
        }
    });
    let (_, d_fresh) = time(|| {
        for _ in 0..N {
            cache.clear(&db);
            db.query_sql(q).unwrap();
        }
    });
    let w = [34, 14];
    println!("{}", row(&["mode".into(), "µs/execution".into()], &w));
    println!(
        "{}",
        row(
            &[
                "bound plan reused".into(),
                format!("{:.1}", d_cached.as_secs_f64() * 1e6 / N as f64)
            ],
            &w
        )
    );
    println!(
        "{}",
        row(
            &[
                "re-translated every call".into(),
                format!("{:.1}", d_fresh.as_secs_f64() * 1e6 / N as f64)
            ],
            &w
        )
    );
    println!(
        "cache stats: hits={} misses={} retranslations={}",
        cache.stats.hits.load(Ordering::Relaxed),
        cache.stats.misses.load(Ordering::Relaxed),
        cache.stats.retranslations.load(Ordering::Relaxed)
    );
    // invalidation → automatic re-translation still answers
    db.execute_sql("DROP INDEX t_pk ON t").unwrap();
    let (_, d_after) = time(|| db.query_sql(q).unwrap());
    println!(
        "first execution after DROP INDEX (auto re-translation): {} µs",
        us(d_after)
    );
}

// ---------------------------------------------------------------------
// E5: access-path selection quality
// ---------------------------------------------------------------------
fn e5_paths() {
    banner(
        "E5",
        "cost estimation picks the right access path; crossover between index \
         and scan as selectivity grows (B-tree recognizes key predicates)",
    );
    const N: usize = 50_000;
    let db = open_db();
    load_emp(&db, "t", N, &["CREATE UNIQUE INDEX t_pk ON {t} (id)"]).unwrap();
    let w = [12, 12, 12, 14, 18];
    println!(
        "{}",
        row(
            &[
                "rows out".into(),
                "scan ms".into(),
                "index ms".into(),
                "planner ms".into(),
                "planner chose".into()
            ],
            &w
        )
    );
    for k in [1i64, 50, 500, 5_000, 50_000] {
        let q = format!("SELECT COUNT(*) FROM t WHERE id < {k}");
        // forced storage-method scan
        let rd = db.catalog().get_by_name("t").unwrap();
        let pred = Expr::cmp_col(CmpOp::Lt, 0, k);
        let (_, d_scan) = time(|| {
            db.with_txn(|txn| {
                let scan = db.open_scan(
                    txn,
                    rd.id,
                    AccessPath::StorageMethod,
                    AccessQuery::All,
                    Some(pred.clone()),
                    Some(vec![0]),
                )?;
                let mut n = 0;
                while db.scan_next(txn, scan)?.is_some() {
                    n += 1;
                }
                Ok(n)
            })
            .unwrap()
        });
        // forced index range
        let (att_t, inst) = rd.find_attachment("t_pk").unwrap();
        let att = db.registry().attachment(att_t).unwrap();
        let choice = att
            .estimate(&rd, inst, std::slice::from_ref(&pred))
            .unwrap();
        let (_, d_index) = time(|| {
            db.with_txn(|txn| {
                let scan = db.open_scan(
                    txn,
                    rd.id,
                    AccessPath::Attachment(att_t, inst.instance),
                    choice.query.clone(),
                    None,
                    None,
                )?;
                let mut n = 0;
                while db.scan_next(txn, scan)?.is_some() {
                    n += 1;
                }
                Ok(n)
            })
            .unwrap()
        });
        // the planner's pick
        let (_, d_planner) = time(|| db.query_sql(&q).unwrap());
        let plan = db.query_sql(&format!("EXPLAIN {q}")).unwrap();
        let text: String = plan
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        let chose = if text.contains("attachment") {
            "index"
        } else {
            "scan"
        };
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    ms(d_scan),
                    ms(d_index),
                    ms(d_planner),
                    chose.into()
                ],
                &w
            )
        );
    }
}

// ---------------------------------------------------------------------
// E6: join strategies
// ---------------------------------------------------------------------
fn e6_join() {
    banner(
        "E6",
        "join index (Valduriez attachment with storage) vs index nested loop vs \
         plain nested loop",
    );
    let w = [10, 10, 14, 14, 14];
    println!(
        "{}",
        row(
            &[
                "|emp|".into(),
                "|dept|".into(),
                "NL ms".into(),
                "index-NL ms".into(),
                "join-index ms".into()
            ],
            &w
        )
    );
    for (n_emp, n_dept) in [(2_000usize, 50usize), (10_000, 200)] {
        let q = "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.id";
        let mk = |with_index: bool, with_ji: bool| -> Duration {
            let db = open_db();
            db.execute_sql("CREATE TABLE dept (id INT NOT NULL, dname STRING NOT NULL)")
                .unwrap();
            db.execute_sql(
                "CREATE TABLE emp (id INT NOT NULL, name STRING NOT NULL, dept INT, salary FLOAT)",
            )
            .unwrap();
            if with_index {
                db.execute_sql("CREATE UNIQUE INDEX dept_pk ON dept (id)")
                    .unwrap();
            }
            if with_ji {
                db.execute_sql(
                    "CREATE ATTACHMENT ed ON emp USING joinindex WITH (side=left, fields=dept)",
                )
                .unwrap();
                db.execute_sql(
                    "CREATE ATTACHMENT ed ON dept USING joinindex WITH (side=right, fields=id, other=emp)",
                )
                .unwrap();
            }
            let dept_rd = db.catalog().get_by_name("dept").unwrap();
            let emp_rd = db.catalog().get_by_name("emp").unwrap();
            db.with_txn(|txn| {
                for d in 0..n_dept {
                    db.insert(
                        txn,
                        dept_rd.id,
                        Record::new(vec![Value::Int(d as i64), Value::Str(format!("d{d}"))]),
                    )?;
                }
                for i in 0..n_emp {
                    db.insert(
                        txn,
                        emp_rd.id,
                        Record::new(vec![
                            Value::Int(i as i64),
                            Value::Str(format!("e{i}")),
                            Value::Int((i % n_dept) as i64),
                            Value::Float(1.0),
                        ]),
                    )?;
                }
                Ok(())
            })
            .unwrap();
            let rows = db.query_sql(q).unwrap();
            assert_eq!(rows[0][0], Value::Int(n_emp as i64));
            let (_, d) = time(|| db.query_sql(q).unwrap());
            d
        };
        let nl = mk(false, false);
        let inl = mk(true, false);
        let ji = mk(false, true);
        println!(
            "{}",
            row(
                &[
                    n_emp.to_string(),
                    n_dept.to_string(),
                    ms(nl),
                    ms(inl),
                    ms(ji)
                ],
                &w
            )
        );
    }
}

// ---------------------------------------------------------------------
// E7: deferred constraints
// ---------------------------------------------------------------------
fn e7_deferred() {
    banner(
        "E7",
        "deferred action queues: constraints evaluated \"after all of the \
         modifications have been made in the transaction\"",
    );
    const N: usize = 2000;
    let run = |mode: &str| -> Duration {
        let db = open_db();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL, bal FLOAT NOT NULL)")
            .unwrap();
        match mode {
            "immediate" => {
                db.execute_sql("CREATE CONSTRAINT c ON t CHECK (bal >= 0)")
                    .unwrap();
            }
            "deferred" => {
                db.execute_sql("CREATE CONSTRAINT c ON t CHECK (bal >= 0) DEFERRED")
                    .unwrap();
            }
            _ => {}
        }
        let sess = Session::new(db);
        sess.execute("BEGIN").unwrap();
        let (_, d) = time(|| {
            for i in 0..N {
                sess.execute(&format!("INSERT INTO t VALUES ({i}, {i}.0)"))
                    .unwrap();
            }
            sess.execute("COMMIT").unwrap();
        });
        d
    };
    let w = [22, 14];
    println!("{}", row(&["constraint mode".into(), "txn ms".into()], &w));
    for mode in ["none", "immediate", "deferred"] {
        println!("{}", row(&[mode.into(), ms(run(mode))], &w));
    }
    // the semantic difference: a transient violation only commits deferred
    let db = open_db();
    db.execute_sql("CREATE TABLE t (id INT NOT NULL, bal FLOAT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE CONSTRAINT c ON t CHECK (bal >= 0) DEFERRED")
        .unwrap();
    let sess = Session::new(db);
    sess.execute("BEGIN").unwrap();
    sess.execute("INSERT INTO t VALUES (1, -5.0)").unwrap(); // transiently negative
    sess.execute("UPDATE t SET bal = 5.0 WHERE id = 1").unwrap();
    sess.execute("COMMIT").unwrap();
    println!("transient violation fixed before commit: accepted (deferred semantics)");
}

// ---------------------------------------------------------------------
// E8: veto → partial rollback vs abort-and-rerun
// ---------------------------------------------------------------------
fn e8_rollback() {
    banner(
        "E8",
        "a vetoed modification is undone by log-driven *partial* rollback; the \
         alternative (abort the whole transaction and rerun) scales with txn size",
    );
    const N: usize = 2000;
    let w = [16, 16, 22];
    println!(
        "{}",
        row(
            &[
                "vetoed ops".into(),
                "partial ms".into(),
                "abort+rerun est ms".into()
            ],
            &w
        )
    );
    for vetoes in [1usize, 10, 100] {
        let db = open_db();
        db.execute_sql("CREATE TABLE t (id INT NOT NULL)").unwrap();
        db.execute_sql("CREATE CONSTRAINT c ON t CHECK (id < 1000000)")
            .unwrap();
        let rd = db.catalog().get_by_name("t").unwrap();
        // one transaction: N good inserts + `vetoes` vetoed ones
        let (clean_time, total) = {
            let txn = db.begin();
            let start = Instant::now();
            for i in 0..N {
                db.insert(&txn, rd.id, Record::new(vec![Value::Int(i as i64)]))
                    .unwrap();
            }
            let clean = start.elapsed();
            for _ in 0..vetoes {
                let err = db
                    .insert(&txn, rd.id, Record::new(vec![Value::Int(2_000_000)]))
                    .unwrap_err();
                assert!(matches!(err, DmxError::Veto { .. }));
            }
            let total = start.elapsed();
            db.commit(&txn).unwrap();
            (clean, total)
        };
        let partial_cost = total - clean_time;
        // abort-and-rerun estimate: each veto would redo the whole txn
        let rerun_est = clean_time * vetoes as u32;
        println!(
            "{}",
            row(&[vetoes.to_string(), ms(partial_cost), ms(rerun_est)], &w)
        );
    }
}

// ---------------------------------------------------------------------
// E9: storage-method comparison
// ---------------------------------------------------------------------
fn e9_storage() {
    banner(
        "E9",
        "alternative storage methods each win their niche (heap loads, B-tree \
         ranges, memory everything-volatile, read-only publishing, foreign gateway)",
    );
    const N: usize = 20_000;
    const PROBES: usize = 1000;
    let w = [10, 12, 14, 12, 14];
    println!(
        "{}",
        row(
            &[
                "method".into(),
                "load ms".into(),
                "probe µs/op".into(),
                "scan ms".into(),
                "range ms".into()
            ],
            &w
        )
    );
    for sm in ["heap", "btree", "memory", "readonly", "foreign"] {
        let db = if sm == "foreign" {
            let reg = dmx_core::ExtensionRegistry::new();
            let foreign = Arc::new(dmx_storage::ForeignStorage::default());
            foreign.register_server("mars");
            reg.register_storage_method(Arc::new(dmx_storage::MemoryStorage::default()))
                .unwrap();
            reg.register_storage_method(Arc::new(dmx_storage::HeapStorage))
                .unwrap();
            reg.register_storage_method(Arc::new(dmx_storage::BTreeStorage))
                .unwrap();
            reg.register_storage_method(Arc::new(dmx_storage::ReadOnlyStorage))
                .unwrap();
            reg.register_storage_method(foreign).unwrap();
            dmx_attach::register_builtin_attachments(&reg).unwrap();
            Database::open_fresh(reg).unwrap()
        } else {
            open_db()
        };
        let using = match sm {
            "btree" => " USING btree WITH (key=id)".to_string(),
            "foreign" => " USING foreign WITH (server=mars)".to_string(),
            "heap" => String::new(),
            other => format!(" USING {other}"),
        };
        db.execute_sql(&format!(
            "CREATE TABLE t (id INT NOT NULL, name STRING NOT NULL){using}"
        ))
        .unwrap();
        let rd = db.catalog().get_by_name("t").unwrap();
        let mut keys = Vec::with_capacity(N);
        let ((), d_load) = time(|| {
            db.with_txn(|txn| {
                for i in 0..N {
                    keys.push(db.insert(
                        txn,
                        rd.id,
                        Record::new(vec![Value::Int(i as i64), Value::Str(format!("v{i}"))]),
                    )?);
                }
                Ok(())
            })
            .unwrap()
        });
        let ((), d_probe) = time(|| {
            db.with_txn(|txn| {
                for p in 0..PROBES {
                    let key = &keys[(p * 7919) % N];
                    db.fetch(txn, rd.id, key, Some(&[0]), None)?.unwrap();
                }
                Ok(())
            })
            .unwrap()
        });
        let ((), d_scan) = time(|| {
            let n = db.query_sql("SELECT COUNT(*) FROM t").unwrap()[0][0]
                .as_int()
                .unwrap();
            assert_eq!(n, N as i64);
        });
        let ((), d_range) = time(|| {
            let rows = db
                .query_sql(&format!(
                    "SELECT COUNT(*) FROM t WHERE id >= {} AND id < {}",
                    N / 2,
                    N / 2 + 100
                ))
                .unwrap();
            assert_eq!(rows[0][0], Value::Int(100));
        });
        println!(
            "{}",
            row(
                &[
                    sm.into(),
                    ms(d_load),
                    format!("{:.1}", d_probe.as_secs_f64() * 1e6 / PROBES as f64),
                    ms(d_scan),
                    ms(d_range)
                ],
                &w
            )
        );
    }
}

// ---------------------------------------------------------------------
// E10: descriptor cached in the plan vs catalog fetch per execution
// ---------------------------------------------------------------------
fn e10_descriptor() {
    banner(
        "E10",
        "\"fetch the relation descriptors from the system catalogs at query \
         compilation time and store them in the query access plan … eliminates \
         the need to access the catalogs … at run time\"",
    );
    let db = open_db();
    load_emp(
        &db,
        "t",
        1000,
        &["CREATE INDEX a ON {t} (id)", "CREATE INDEX b ON {t} (dept)"],
    )
    .unwrap();
    let rd = db.catalog().get_by_name("t").unwrap();
    const N: usize = 1_000_000;
    // (a) descriptor embedded in the plan: an Arc clone
    let (_, d_embedded) = time(|| {
        let mut acc = 0usize;
        for _ in 0..N {
            let d = std::hint::black_box(&rd).clone();
            acc += d.attachment_count();
        }
        std::hint::black_box(acc)
    });
    // (b) catalog lookup per execution (name hash + map + Arc clone)
    let (_, d_catalog) = time(|| {
        let mut acc = 0usize;
        for _ in 0..N {
            let d = db.catalog().get_by_name(std::hint::black_box("t")).unwrap();
            acc += d.attachment_count();
        }
        std::hint::black_box(acc)
    });
    // (c) catalog lookup + descriptor decode from catalog image bytes (what
    //     a descriptor-less plan would pay against on-disk catalogs)
    let image = rd.encode();
    let (_, d_decode) = time(|| {
        let mut acc = 0usize;
        for _ in 0..N / 100 {
            let d = dmx_core::RelationDescriptor::decode(std::hint::black_box(&image)).unwrap();
            acc += d.attachment_count();
        }
        std::hint::black_box(acc)
    });
    let w = [40, 12];
    println!(
        "{}",
        row(&["descriptor access".into(), "ns/exec".into()], &w)
    );
    println!(
        "{}",
        row(
            &["embedded in bound plan (Arc)".into(), ns_per(d_embedded, N)],
            &w
        )
    );
    println!(
        "{}",
        row(
            &["in-memory catalog lookup".into(), ns_per(d_catalog, N)],
            &w
        )
    );
    println!(
        "{}",
        row(
            &[
                "decode from catalog bytes".into(),
                ns_per(d_decode, N / 100)
            ],
            &w
        )
    );
}

// ---------------------------------------------------------------------
// E11: cascading deletes
// ---------------------------------------------------------------------
fn e11_cascade() {
    banner(
        "E11",
        "cascaded deletes via referential attachments: one parent delete fans \
         out through the dispatcher",
    );
    let w = [10, 12, 14, 16];
    println!(
        "{}",
        row(
            &[
                "fanout".into(),
                "children".into(),
                "delete ms".into(),
                "µs/cascaded row".into()
            ],
            &w
        )
    );
    for fanout in [10usize, 100, 1000] {
        let db = open_db();
        db.execute_sql("CREATE TABLE p (id INT NOT NULL)").unwrap();
        db.execute_sql("CREATE TABLE c (id INT NOT NULL, p INT)")
            .unwrap();
        db.execute_sql(
            "CREATE ATTACHMENT fk ON p USING refint WITH (role=parent, fields=id, other=c, other_fields=p, on_delete=cascade)",
        )
        .unwrap();
        db.execute_sql("INSERT INTO p VALUES (1), (2)").unwrap();
        let c_rd = db.catalog().get_by_name("c").unwrap();
        db.with_txn(|txn| {
            for i in 0..fanout {
                db.insert(
                    txn,
                    c_rd.id,
                    Record::new(vec![Value::Int(i as i64), Value::Int(1)]),
                )?;
            }
            Ok(())
        })
        .unwrap();
        let (_, d) = time(|| db.execute_sql("DELETE FROM p WHERE id = 1").unwrap());
        let left = db.query_sql("SELECT COUNT(*) FROM c").unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(left, 0);
        println!(
            "{}",
            row(
                &[
                    fanout.to_string(),
                    fanout.to_string(),
                    ms(d),
                    format!("{:.1}", d.as_secs_f64() * 1e6 / fanout as f64)
                ],
                &w
            )
        );
    }
}

// ---------------------------------------------------------------------
// E12: concurrency
// ---------------------------------------------------------------------
fn e12_concurrency() {
    banner(
        "E12",
        "lock-based concurrency control with system-wide deadlock detection: \
         serializable transfers under contention",
    );
    let db = open_db();
    db.execute_sql("CREATE TABLE acct (id INT NOT NULL, bal INT NOT NULL)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX acct_pk ON acct (id)")
        .unwrap();
    const ACCOUNTS: i64 = 16;
    const START: i64 = 1000;
    const PER_THREAD: usize = 50;
    for i in 0..ACCOUNTS {
        db.execute_sql(&format!("INSERT INTO acct VALUES ({i}, {START})"))
            .unwrap();
    }
    let w = [10, 14, 14, 12];
    println!(
        "{}",
        row(
            &[
                "threads".into(),
                "txns/sec".into(),
                "deadlocks".into(),
                "invariant".into()
            ],
            &w
        )
    );
    for threads in [1u64, 2, 4] {
        let deadlocks = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let (_, d) = time(|| {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let db = db.clone();
                    let deadlocks = deadlocks.clone();
                    s.spawn(move || {
                        let sess = Session::new(db);
                        let mut seed = 0x2545F4914F6CDD1Du64.wrapping_mul(t + 1);
                        let mut rng = move || {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            seed
                        };
                        let mut done = 0;
                        while done < PER_THREAD {
                            let a = (rng() % ACCOUNTS as u64) as i64;
                            let b = (rng() % ACCOUNTS as u64) as i64;
                            if a == b {
                                continue;
                            }
                            sess.execute("BEGIN").unwrap();
                            let r = sess
                                .execute(&format!("UPDATE acct SET bal = bal - 1 WHERE id = {a}"))
                                .and_then(|_| {
                                    sess.execute(&format!(
                                        "UPDATE acct SET bal = bal + 1 WHERE id = {b}"
                                    ))
                                })
                                .and_then(|_| sess.execute("COMMIT"));
                            match r {
                                Ok(_) => done += 1,
                                Err(_) => {
                                    deadlocks.fetch_add(1, Ordering::Relaxed);
                                    if sess.in_transaction() {
                                        let _ = sess.execute("ROLLBACK");
                                    }
                                }
                            }
                        }
                    });
                }
            });
        });
        let total = db.query_sql("SELECT SUM(bal) FROM acct").unwrap()[0][0]
            .as_int()
            .unwrap();
        let ok = if total == ACCOUNTS * START {
            "holds"
        } else {
            "BROKEN"
        };
        let txns = threads as usize * PER_THREAD;
        println!(
            "{}",
            row(
                &[
                    threads.to_string(),
                    format!("{:.0}", txns as f64 / d.as_secs_f64()),
                    deadlocks.load(Ordering::Relaxed).to_string(),
                    ok.into()
                ],
                &w
            )
        );
    }
}
