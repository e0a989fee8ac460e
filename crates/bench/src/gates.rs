//! The gate table: every threshold the lanes must meet, each written
//! once, with one evaluator that judges it on a [`Source`] — a fresh
//! run's outcomes or a committed `BENCH_pr*.json` baseline.
//!
//! Both kinds of source are read the same way: one line per lane, a
//! number looked up by its `"key":` on that line. A fresh run is
//! rendered into the committed format first ([`crate::Outcome::json_line`]),
//! so a gate cannot tell which kind it reads. Counter gates are
//! host-independent and judge every run; wall-clock gates judge only
//! full-scale runs, or only the committed baselines when the figures
//! they compare were measured on different hosts.

use std::collections::BTreeSet;

use crate::{lanes, Outcome};

/// The committed baselines: frozen historical records that nothing
/// regenerates. Gates that list one in [`Gate::baselines`] hold on it.
const BASELINES: [(&str, &str); 6] = [
    ("BENCH_pr3.json", include_str!("../../../BENCH_pr3.json")),
    ("BENCH_pr5.json", include_str!("../../../BENCH_pr5.json")),
    ("BENCH_pr7.json", include_str!("../../../BENCH_pr7.json")),
    ("BENCH_pr8.json", include_str!("../../../BENCH_pr8.json")),
    ("BENCH_pr9.json", include_str!("../../../BENCH_pr9.json")),
    ("BENCH_pr10.json", include_str!("../../../BENCH_pr10.json")),
];

/// What produced a source's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fresh run at [`crate::Scale::smoke`].
    Smoke,
    /// A fresh run at [`crate::Scale::full`].
    Full,
    /// A committed `BENCH_pr*.json` baseline.
    Committed,
}

/// Lane outcomes in the `BENCH_pr*.json` one-line-per-lane format.
pub struct Source {
    pub label: String,
    pub(crate) kind: Kind,
    pub(crate) text: String,
}

impl Source {
    /// A fresh run's outcomes.
    pub fn fresh(kind: Kind, outcomes: &[Outcome]) -> Source {
        let lines: Vec<String> = outcomes.iter().map(Outcome::json_line).collect();
        Source {
            label: format!("fresh {kind:?} run").to_lowercase(),
            kind,
            text: lines.join("\n"),
        }
    }

    /// Every committed baseline.
    pub fn committed() -> Vec<Source> {
        BASELINES
            .iter()
            .map(|(label, text)| Source {
                label: label.to_string(),
                kind: Kind::Committed,
                text: text.to_string(),
            })
            .collect()
    }

    fn baseline(label: &str) -> Source {
        let mut all = Source::committed();
        let at = all.iter().position(|s| s.label == label);
        all.swap_remove(at.expect("a committed baseline"))
    }

    fn line(&self, lane: &str) -> Option<&str> {
        let tag = format!("\"name\": \"{lane}\"");
        self.text.lines().find(|l| l.contains(&tag))
    }

    /// The number after `"key":` on `lane`'s line.
    pub fn value(&self, lane: &str, key: &str) -> Result<f64, String> {
        let tag = format!("\"{key}\":");
        let rest = self
            .line(lane)
            .and_then(|l| l.split_once(&tag))
            .map(|(_, rest)| rest.trim_start())
            .ok_or_else(|| format!("{}: no {key} for lane {lane}", self.label))?;
        let end = rest
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(rest.len());
        rest[..end]
            .parse()
            .map_err(|_| format!("{}: {key} of lane {lane} is not a number", self.label))
    }

    /// Every dotted metric name the source mentions.
    fn names(&self) -> BTreeSet<&str> {
        let dotted = |s: &&str| {
            s.contains('.')
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c == '.')
        };
        self.text
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(dotted)
            .collect()
    }
}

/// One threshold over one or more lanes.
pub struct Gate {
    pub name: &'static str,
    /// The lanes the check reads; empty means every lane.
    pub lanes: &'static [&'static str],
    pub threshold: f64,
    /// The fresh runs the gate judges (a wall-clock gate skips smoke runs).
    pub fresh: &'static [Kind],
    /// The committed baselines the gate judges.
    pub baselines: &'static [&'static str],
    pub check: fn(&Gate, &Source) -> Result<String, String>,
}

impl Gate {
    fn judges(&self, src: &Source) -> bool {
        if src.kind == Kind::Committed {
            return self.baselines.contains(&src.label.as_str());
        }
        let ran = |lane: &str| src.line(lane).is_some();
        self.fresh.contains(&src.kind)
            && match self.lanes {
                [] => lanes().iter().all(|l| ran(l.name)),
                some => some.iter().all(|l| ran(l)),
            }
    }
}

fn verdict(ok: bool, detail: String) -> Result<String, String> {
    if ok {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// The gate table.
pub fn gates() -> Vec<Gate> {
    vec![
        Gate {
            // Renaming or dropping a published metric is a breaking
            // observability change: a fresh run publishes every name any
            // baseline does, and each later baseline kept pr3's names.
            name: "metric names",
            lanes: &[],
            threshold: 0.0,
            fresh: &[Kind::Smoke, Kind::Full],
            baselines: &[
                "BENCH_pr5.json",
                "BENCH_pr7.json",
                "BENCH_pr8.json",
                "BENCH_pr9.json",
                "BENCH_pr10.json",
            ],
            check: |g, s| {
                let required = match s.kind {
                    Kind::Committed => vec![Source::baseline("BENCH_pr3.json")],
                    _ => Source::committed(),
                };
                let have = s.names();
                let missing: BTreeSet<&str> = required
                    .iter()
                    .flat_map(|r| r.names())
                    .filter(|n| !have.contains(n))
                    .collect();
                let detail = format!("{} published names missing {missing:?}", missing.len());
                verdict(missing.len() as f64 <= g.threshold, detail)
            },
        },
        Gate {
            // Steal/no-force: commit forces only the log, so page
            // write-back stays a small DDL-bootstrap constant instead of
            // scaling with the commit count.
            name: "no-force",
            lanes: &[
                "bulk_insert_heap",
                "bulk_insert_btree",
                "mixed_dml_constraints",
            ],
            threshold: 16.0,
            fresh: &[Kind::Smoke, Kind::Full],
            baselines: &["BENCH_pr8.json"],
            check: |g, s| {
                let flushes: Vec<f64> = g
                    .lanes
                    .iter()
                    .map(|l| s.value(l, "pool.flushes"))
                    .collect::<Result<_, _>>()?;
                let detail = format!("pool.flushes {flushes:?}");
                verdict(flushes.iter().all(|&f| f <= g.threshold), detail)
            },
        },
        Gate {
            // Concurrent commit points share log forces.
            name: "group commit",
            lanes: &["concurrent_committers"],
            threshold: 1.0,
            fresh: &[Kind::Smoke, Kind::Full],
            baselines: &[],
            check: |g, s| {
                let forces = s.value(g.lanes[0], "wal.forces")?;
                let commits = s.value(g.lanes[0], "txn.commits")?;
                let detail = format!("wal.forces {forces} vs txn.commits {commits}");
                verdict(forces < g.threshold * commits, detail)
            },
        },
        Gate {
            // On the identical seeded workload the snapshot read path
            // takes one relation lock per scan instead of a record and
            // gap lock per row, and really reads the version store.
            name: "MVCC",
            lanes: &["read_mostly_locking", "read_mostly_snapshot"],
            threshold: 10.0,
            fresh: &[Kind::Smoke, Kind::Full],
            baselines: &["BENCH_pr9.json"],
            check: |g, s| {
                let locking = s.value(g.lanes[0], "bench.scan_lock_acquires")?;
                let snapshot = s.value(g.lanes[1], "bench.scan_lock_acquires")?;
                let scans = s.value(g.lanes[1], "mvcc.snapshot_scans")?;
                let detail = format!("scan locks {locking} vs {snapshot}, snapshot scans {scans}");
                verdict(snapshot * g.threshold <= locking && scans >= 1.0, detail)
            },
        },
        Gate {
            // Maintained statistics shrink the planner's p90 row-estimate
            // error on the identical skewed matrix and flip a plan.
            name: "statistics",
            lanes: &["misestimate_guess", "misestimate_stats"],
            threshold: 2.0,
            fresh: &[Kind::Smoke, Kind::Full],
            baselines: &["BENCH_pr10.json"],
            check: |g, s| {
                let guess = s.value(g.lanes[0], "bench.misest_p90")?;
                let stats = s.value(g.lanes[1], "bench.misest_p90")?;
                let flips = s.value(g.lanes[1], "bench.plan_flips")?;
                let detail = format!("p90 misestimate {guess} vs {stats}, plan flips {flips}");
                verdict(stats * g.threshold <= guess && flips >= 1.0, detail)
            },
        },
        Gate {
            // The no-force commit path against pr3's force-at-commit
            // figure. Only the committed pair was measured on one host.
            name: "no-force speedup",
            lanes: &["bulk_insert_btree"],
            threshold: 2.0,
            fresh: &[],
            baselines: &["BENCH_pr8.json"],
            check: |g, s| {
                let now = s.value(g.lanes[0], "ops_per_sec")?;
                let pr3 = Source::baseline("BENCH_pr3.json").value(g.lanes[0], "ops_per_sec")?;
                verdict(
                    now >= g.threshold * pr3,
                    format!("ops/s {now} vs pr3 {pr3}"),
                )
            },
        },
        Gate {
            // Per-modification statistics maintenance on the identical
            // DML-heavy stream. A full-scale run reports each lane's
            // median over rounds that alternate the pair's order.
            name: "stats overhead",
            lanes: &["dml_overhead_base", "dml_overhead_stats"],
            threshold: 1.10,
            fresh: &[Kind::Full],
            baselines: &["BENCH_pr10.json"],
            check: |g, s| {
                let base = s.value(g.lanes[0], "elapsed_ms")?;
                let stats = s.value(g.lanes[1], "elapsed_ms")?;
                verdict(stats <= g.threshold * base, format!("ms {base} vs {stats}"))
            },
        },
    ]
}

/// A gate's judgement of one source: `Ok` or `Err` with the numbers it
/// rests on.
pub struct Verdict {
    pub gate: &'static str,
    pub threshold: f64,
    pub result: Result<String, String>,
}

/// Judges `src` with every gate that applies to it.
pub fn evaluate(src: &Source) -> Vec<Verdict> {
    gates()
        .iter()
        .filter(|g| g.judges(src))
        .map(|g| Verdict {
            gate: g.name,
            threshold: g.threshold,
            result: (g.check)(g, src),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gates that fail on `src`.
    fn failing(src: &Source) -> Vec<&'static str> {
        evaluate(src)
            .into_iter()
            .filter(|v| v.result.is_err())
            .map(|v| v.gate)
            .collect()
    }

    /// `label`'s baseline with the number after `"key":` on `lane`'s
    /// line replaced by `value`.
    fn doctored(label: &str, lane: &str, key: &str, value: &str) -> Source {
        let mut src = Source::baseline(&format!("BENCH_{label}.json"));
        let old = src.value(lane, key).expect("doctored key");
        let line = src.line(lane).expect("doctored lane").to_string();
        let new_line = [": ", ":"].iter().fold(line.clone(), |l, sep| {
            l.replace(
                &format!("\"{key}\"{sep}{old}"),
                &format!("\"{key}\"{sep}{value}"),
            )
        });
        assert_ne!(line, new_line, "{key} not found on {lane}");
        src.text = src.text.replace(&line, &new_line);
        src
    }

    /// Every committed-file gate passes on the repo's baselines. Each
    /// case then moves one committed figure just across its gate's
    /// threshold; the doctored copy is judged both as the baseline and
    /// as a fresh smoke run, so fresh-only gates are exercised too.
    #[test]
    fn each_gate_passes_the_baselines_and_fails_a_copy_doctored_across_it() {
        let committed = Source::committed();
        let judged: BTreeSet<&str> = committed
            .iter()
            .flat_map(evaluate)
            .map(|v| v.gate)
            .collect();
        assert_eq!(judged.len(), 6, "every committed-file gate is judged");
        for src in &committed {
            assert!(failing(src).is_empty(), "{}: {:?}", src.label, failing(src));
        }
        let cases = [
            "pr8 bulk_insert_heap pool.flushes 17 no-force",
            "pr8 mixed_dml_constraints pool.flushes 17 no-force",
            "pr8 concurrent_committers wal.forces 321 group commit",
            "pr9 read_mostly_snapshot bench.scan_lock_acquires 160009 MVCC",
            "pr9 read_mostly_snapshot mvcc.snapshot_scans 0 MVCC",
            "pr10 misestimate_stats bench.misest_p90 6417 statistics",
            "pr10 misestimate_stats bench.plan_flips 0 statistics",
            "pr8 bulk_insert_btree ops_per_sec 135544.3 no-force speedup",
            "pr10 dml_overhead_stats elapsed_ms 2637.8 stats overhead",
        ];
        for case in cases {
            let [label, lane, key, value, gate] = case.splitn(5, ' ').collect::<Vec<_>>()[..]
            else {
                unreachable!("five fields")
            };
            let mut src = doctored(label, lane, key, value);
            let mut failed = failing(&src);
            src.kind = Kind::Smoke;
            failed.extend(failing(&src));
            failed.dedup();
            assert_eq!(failed, [gate], "{case}");
        }
        let mut renamed = Source::baseline("BENCH_pr5.json");
        renamed.text = renamed.text.replace("\"pool.hits\"", "\"pool.hitz\"");
        assert_eq!(failing(&renamed), ["metric names"]);
    }
}
