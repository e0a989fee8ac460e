//! `--self-test`: the benchmark checks itself at tiny scale.
//!
//! * The same seed generates the same statement streams (and answers).
//! * The counter-derived per-layer metrics of the single-client
//!   workloads repeat exactly over a fixed number of operations.
//! * Every printed metric name follows `[A-Za-z0-9_.-]+`, and the JSON
//!   metrics of untraced and traced runs are exactly the `end_to_end`
//!   and `per_layer` names of BENCHMARK.json.
//! * Every answer checks out, and traced child spans cover at least 90%
//!   of the operation time.

use std::process::ExitCode;
use std::time::Duration;

use crate::client::{Source, Stop};
use crate::metrics::Metric;
use crate::op::Tally;
use crate::{ingest, measure, metrics, oltp, reporting, timed, Fallible, Workload};

const SEED: u64 = 7;

pub fn run_all() -> Fallible<()> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = names_in(&spec, "workloads")?;
    if workloads != ["oltp_keyed", "report_cold", "ingest_attached"] {
        return Err(format!("BENCHMARK.json workloads {workloads:?}"));
    }
    let e2e = names_in(&spec, "end_to_end")?;
    let layers = names_in(&spec, "per_layer")?;
    check(&oltp::Oltp::tiny(), &e2e, &layers)?;
    check(&reporting::ReportCold::tiny(), &e2e, &layers)?;
    check(&ingest::Ingest::tiny(), &e2e, &layers)?;
    Ok(())
}

pub fn main() -> ExitCode {
    match run_all() {
        Ok(()) => {
            println!("self-test ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("self-test failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check<W: Workload>(w: &W, e2e: &[String], layers: &[String]) -> Fallible<()> {
    let name = w.name();
    // Same seed, same statements and answers.
    let streams: Vec<Vec<String>> = (0..2)
        .map(|_| {
            let (db, model) = w.setup(SEED)?;
            let mut src = w.source(&db, &model, SEED, 0);
            Ok((0..200).map(|_| format!("{:?}", src())).collect())
        })
        .collect::<Fallible<_>>()?;
    if streams[0] != streams[1] {
        return Err(format!("{name}: one seed generated two different streams"));
    }
    // With one client the engine runs deterministically.
    if w.clients() == 1 {
        let a = counter_layers(w)?;
        let b = counter_layers(w)?;
        let same = a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| x.name == y.name && x.value.to_bits() == y.value.to_bits());
        if !same {
            return Err(format!(
                "{name}: counter metrics differ between same-seed runs:\n{a:?}\n{b:?}"
            ));
        }
    }
    for (traced, want) in [(false, e2e), (true, layers)] {
        let r = measure(w, SEED, Duration::from_secs(2), traced)?;
        if !r.correct {
            return Err(format!("{name}: {:?}", r.problems));
        }
        let got: Vec<&str> = r.json.iter().map(|m| m.name.as_str()).collect();
        if got != want.iter().map(String::as_str).collect::<Vec<_>>() {
            return Err(format!(
                "{name}: JSON metrics {got:?}, BENCHMARK.json lists {want:?}"
            ));
        }
        for m in r.json.iter().chain(&r.text) {
            let ok = !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && m.value.is_finite();
            if !ok {
                return Err(format!("{name}: bad metric {m:?}"));
            }
        }
        if let Some(c) = r.json.iter().find(|m| m.name == "trace.child_coverage") {
            if c.value < 0.9 {
                return Err(format!(
                    "{name}: child spans cover only {:.3} of op time",
                    c.value
                ));
            }
        }
    }
    Ok(())
}

/// Counter-derived per-layer metrics over a fixed 60 operations.
fn counter_layers<W: Workload>(w: &W) -> Fallible<Vec<Metric>> {
    let (db, model) = w.setup(SEED)?;
    let mut sources: Vec<Source<'_>> = vec![w.source(&db, &model, SEED, 0)];
    let mut problems = Vec::new();
    let window = timed(
        &db,
        &mut sources,
        Stop::Ops(60),
        false,
        &mut Tally::default(),
        &mut problems,
    );
    if !problems.is_empty() {
        return Err(format!("{}: {problems:?}", w.name()));
    }
    let bytes = db
        .log_bytes(window.a.log_frames, window.b.log_frames)
        .map_err(crate::err)?;
    Ok(metrics::counter_layers(&[&window], bytes))
}

/// The `"name"` values listed in the JSON array under `key`.
fn names_in(spec: &str, key: &str) -> Fallible<Vec<String>> {
    let start = spec
        .find(&format!("\"{key}\""))
        .ok_or(format!("BENCHMARK.json has no {key}"))?;
    let body = &spec[start..];
    let body = &body[..body.find(']').ok_or(format!("{key} is not an array"))?];
    Ok(body
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect())
}
