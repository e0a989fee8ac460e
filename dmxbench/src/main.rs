//! `dmxbench`: the repository's benchmark. One command runs one named
//! workload from a seed, drives the engine only through its public API,
//! checks every answer against a model built from the same seed, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). See README.md for the workloads and what each measures.
//!
//! ```text
//! dmxbench --workload <oltp_keyed|report_cold|ingest_attached> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! dmxbench --self-test
//! ```

mod client;
mod db;
mod ingest;
mod metrics;
mod oltp;
mod op;
mod reporting;
mod rng;
mod selftest;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Source, Stop};
use db::{Db, Probe};
use metrics::{metric, ClassLatency, Metric, Phase, Window};
use op::{Class, Tally};
use stats::{median, quantile};
use trace::Summary;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub type Fallible<T> = std::result::Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One workload: its schema and data, its operation streams, and the
/// checks of the end state.
pub trait Workload: Sync {
    type Model: Sync;
    fn name(&self) -> &'static str;
    fn clients(&self) -> usize;
    /// Builds, loads, indexes and analyzes (and reopens, where the
    /// workload runs cold); returns the database and the answer model.
    fn setup(&self, seed: u64) -> Fallible<(Db, Self::Model)>;
    /// The operation stream of one client.
    fn source<'a>(
        &'a self,
        db: &Db,
        model: &'a Self::Model,
        seed: u64,
        client: usize,
    ) -> Source<'a>;
    /// Checks the database's end state against the model and the effects
    /// of every completed operation.
    fn verify(&self, db: &Db, model: &Self::Model, tally: &Tally) -> Fallible<()>;
    /// The highest latency percentile the run's sample count supports.
    fn tail(&self) -> u32;
    fn class_latencies(&self) -> &'static [ClassLatency];
    /// Workload-specific end-to-end metrics of a timed phase.
    fn extra(&self, _phase: &Phase, _a: &Probe, _b: &Probe) -> Vec<Metric> {
        Vec::new()
    }
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub json: Vec<Metric>,
    /// Further metrics printed by name only.
    pub text: Vec<Metric>,
    pub problems: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Fallible<Option<Args>> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return selftest::main(),
        Err(e) => {
            eprintln!("dmxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = Duration::from_secs(args.seconds);
    let report = match args.workload.as_str() {
        "oltp_keyed" => measure(&oltp::Oltp::full(), args.seed, secs, args.trace),
        "report_cold" => measure(&reporting::ReportCold::full(), args.seed, secs, args.trace),
        "ingest_attached" => measure(&ingest::Ingest::full(), args.seed, secs, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    match report {
        Ok(r) => {
            for m in r.json.iter().chain(&r.text) {
                println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for p in &r.problems {
                eprintln!("dmxbench: {p}");
            }
            println!(
                "{}",
                metrics::result_json(r.correct, r.attempted, r.failed, &r.json)
            );
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dmxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets up [`SETUPS`] times (keeping the last database), warms up, then
/// measures for `secs`. Untraced, the run reports the end-to-end metrics. Traced,
/// untraced windows give the counter-derived per-layer metrics and a
/// traced window the span-derived ones and the tracing overhead; all
/// windows continue the same operation streams.
pub fn measure<W: Workload>(w: &W, seed: u64, secs: Duration, traced: bool) -> Fallible<Report> {
    let mut times = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(w.setup(seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let (db, model) = fixture.expect("SETUPS > 0");
    let mut sources: Vec<Source<'_>> = (0..w.clients())
        .map(|c| w.source(&db, &model, seed, c))
        .collect();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    // Untimed warm-up of a quarter of `secs`, answers still checked: the
    // timed windows start past a fresh database's transient (no plan
    // cached yet, no checkpoint run yet).
    let warm = timed(
        &db,
        &mut sources,
        Stop::At(Instant::now() + secs / 4),
        false,
        &mut tally,
        &mut problems,
    );
    let (json, text, mut attempted, mut failed);
    if !traced {
        let Window { phase, a, b } = timed(
            &db,
            &mut sources,
            Stop::At(Instant::now() + secs),
            false,
            &mut tally,
            &mut problems,
        );
        let all = Class::is_statement;
        json = vec![
            metric("setup_s", median(&times).unwrap_or(0.0), "s"),
            metric("throughput_ops_s", phase.throughput(), "1/s"),
            metric(
                "latency_p50_ms",
                quantile(&phase.latencies(all), 0.5).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "latency_p90_ms",
                quantile(&phase.latencies(all), 0.9).unwrap_or(0.0),
                "ms",
            ),
        ];
        let mut t = vec![metric(
            "error_rate",
            phase.failed() as f64 / phase.attempted().max(1) as f64,
            "ratio",
        )];
        if w.tail() > 90 {
            t.extend(metrics::latency_metrics(
                &phase,
                "latency",
                all,
                &[w.tail()],
            ));
        }
        for c in w.class_latencies() {
            t.extend(metrics::latency_metrics(
                &phase,
                c.prefix,
                c.pick,
                c.quantiles,
            ));
        }
        t.extend(w.extra(&phase, &a, &b));
        t.push(metric("samples", phase.attempted() as f64, "count"));
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        t.push(metric("host_threads", threads as f64, "count"));
        text = t;
        (attempted, failed) = (phase.attempted(), phase.failed());
    } else {
        // Untraced, traced, untraced (a quarter, a half, a quarter): the
        // overhead compares the traced half with the untraced quarters
        // around it, so drift over the run (a growing table, a warming
        // cache) cancels to first order.
        let mut phase = |len: Duration, traced: bool| {
            timed(
                &db,
                &mut sources,
                Stop::At(Instant::now() + len),
                traced,
                &mut tally,
                &mut problems,
            )
        };
        let first = phase(secs / 4, false);
        let traced = phase(secs / 2, true);
        let last = phase(secs / 4, false);
        let log_bytes = db
            .log_bytes(first.a.log_frames, first.b.log_frames)
            .map_err(err)?
            + db.log_bytes(last.a.log_frames, last.b.log_frames)
                .map_err(err)?;
        let mut m = metrics::counter_layers(&[&first, &last], log_bytes);
        let mut sum = Summary::default();
        for l in &traced.phase.logs {
            sum.add(&l.spans);
        }
        let untraced_ops_s = (first.phase.completed() + last.phase.completed()) as f64
            / (first.phase.secs + last.phase.secs);
        m.extend(metrics::span_layers(&traced.phase, &sum, untraced_ops_s));
        write_spans(w.name(), seed, &traced.phase);
        json = m;
        text = Vec::new();
        let windows = [&first, &traced, &last];
        attempted = windows.iter().map(|w| w.phase.attempted()).sum();
        failed = windows.iter().map(|w| w.phase.failed()).sum();
    }
    attempted += warm.phase.attempted();
    failed += warm.phase.failed();
    if let Err(e) = w.verify(&db, &model, &tally) {
        problems.push(format!("end state: {e}"));
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        json,
        text,
        problems,
    })
}

/// One timed phase between two counter probes. Wrong answers, and a
/// veto counter that disagrees with the model's predicted vetoes, land
/// in `problems`.
pub fn timed(
    db: &Db,
    sources: &mut [Source<'_>],
    stop: Stop,
    traced: bool,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Window {
    let a = db.probe();
    let t0 = Instant::now();
    let logs = client::run(&db.db, sources, stop, traced);
    let secs = t0.elapsed().as_secs_f64();
    let b = db.probe();
    let mut vetoes = 0;
    for l in &logs {
        problems.extend(l.wrong.iter().take(5).cloned());
        for e in &l.errors {
            eprintln!("dmxbench: failed operation: {e}");
        }
        vetoes += l.tally.vetoes;
        tally.merge(&l.tally);
    }
    let counted = b.metrics.counter("att.vetoes") - a.metrics.counter("att.vetoes");
    if counted != vetoes {
        problems.push(format!(
            "att.vetoes moved by {counted}, the model predicts {vetoes}"
        ));
    }
    Window {
        phase: Phase { logs, secs },
        a,
        b,
    }
}

/// Writes the traced phase's spans to `traces/<workload>-<seed>.tsv`
/// next to this package's manifest.
fn write_spans(workload: &str, seed: u64, phase: &Phase) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut out = String::from("op\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
    for l in &phase.logs {
        trace::render(&l.spans, &mut out);
    }
    let path = dir.join(format!("{workload}-{seed}.tsv"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        eprintln!("dmxbench: writing {}: {e}", path.display());
    }
}
