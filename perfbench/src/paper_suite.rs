//! `paper_suite`: every registry experiment in fast mode at 2 jobs, in
//! process, as `run_experiments --fast --jobs 2` runs them (without
//! writing `results/`).

use crate::outcome::{peak_rss_mib, Outcome, FIG7_NOTE};
use crate::stats::{median, quantile};
use sentinel_bench::{experiment_registry, ExpConfig, ExpResult};
use sentinel_util::{Json, ToJson};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Worker threads for the suite, as `run_experiments --jobs 2`.
const JOBS: usize = 2;
/// Suite repetitions run even when they overrun `--seconds`.
const MIN_REPS: usize = 3;
/// Registry set-ups per set-up sample, and samples before each pass.
const SETUP_BATCH: u32 = 2_000;
const SETUP_SAMPLES: usize = 11;
/// The benchmark's model names and fig7's names for them.
const FIG7_MODELS: [(&str, &str); 3] = [
    ("resnet32", "resnet32"),
    ("bert_base", "bert-base"),
    ("lstm", "lstm"),
];

type Generator = fn(&ExpConfig) -> ExpResult;

/// One experiment's serialized result, or why it has none.
type Serialized = Result<String, String>;

/// One experiment of a suite pass: its result and its own wall time.
#[derive(Clone)]
struct Ran {
    id: &'static str,
    result: Serialized,
    seconds: f64,
}

fn serialize(id: &str, generator: Generator, cfg: &ExpConfig) -> Serialized {
    catch_unwind(AssertUnwindSafe(|| generator(cfg).to_json().to_string()))
        .map_err(|_| format!("experiment {id} panicked"))
}

fn run_one(id: &'static str, generator: Generator, cfg: &ExpConfig) -> Ran {
    let start = Instant::now();
    let result = serialize(id, generator, cfg);
    Ran {
        id,
        result,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The whole registry at `jobs` workers, in registry order.
fn run_suite(jobs: usize) -> Vec<Ran> {
    sentinel_util::set_default_jobs(jobs);
    let cfg = ExpConfig::new(true).with_jobs(jobs);
    cfg.pool().run_all(
        experiment_registry()
            .into_iter()
            .map(|(id, generator)| move || run_one(id, generator, &cfg))
            .collect(),
    )
}

/// Check a suite run's results, in registry order, against the reference
/// serialization (the first run).
fn check_suite<'a>(
    out: &mut Outcome,
    reference: &[Ran],
    run: impl ExactSizeIterator<Item = &'a Serialized>,
    label: &str,
) {
    out.check(run.len() == reference.len(), || {
        format!(
            "{label}: {} experiments, expected {}",
            run.len(),
            reference.len()
        )
    });
    for (got, want) in run.zip(reference) {
        let ok = matches!((got, &want.result), (Ok(g), Ok(w)) if g == w);
        out.check(ok, || match got {
            Err(e) => format!("{label}: {e}"),
            Ok(_) => format!("{label}: {} differs from the first run", want.id),
        });
    }
}

/// Per-instance costs of the suite's set-up, the registry and the
/// experiment configuration, each the mean over a batch.
fn setup_samples(samples: &mut Vec<f64>) {
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            sentinel_util::set_default_jobs(JOBS);
            black_box(experiment_registry());
            black_box(ExpConfig::new(true).with_jobs(JOBS));
        }
        samples.push(start.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
    }
}

/// Fig. 7's sim gaps to fast-only (fast-only speedup ÷ Sentinel speedup
/// − 1) for the benchmark's three models, from the serialized result.
fn fig7_gaps(reference: &[Ran]) -> Result<Vec<(&'static str, f64)>, String> {
    let fig7 = reference
        .iter()
        .find(|r| r.id == "fig7")
        .ok_or("no fig7 in the registry")?;
    let text = fig7.result.as_ref().map_err(Clone::clone)?;
    let json = Json::parse(text).map_err(|e| format!("fig7: {e}"))?;
    let Some(Json::Arr(rows)) = json.get("data") else {
        return Err("fig7 has no data rows".into());
    };
    let number = |row: &Json, key: &str| match row.get(key)? {
        Json::F64(x) => Some(*x),
        Json::U64(x) => Some(*x as f64),
        _ => None,
    };
    FIG7_MODELS
        .iter()
        .map(|&(name, model)| {
            rows.iter()
                .find(|row| match row.get("model") {
                    // Fast mode scales the models down: "resnet32@1/4".
                    Some(Json::Str(m)) => m.split('@').next() == Some(model),
                    _ => false,
                })
                .and_then(|row| Some(number(row, "fast_only")? / number(row, "sentinel")? - 1.0))
                .map(|gap| (name, gap))
                .ok_or_else(|| format!("fig7 has no {model} row"))
        })
        .collect()
}

/// The untraced run: repeat the suite for `budget`. Set-up samples are
/// taken before every pass, so that they spread over the run.
pub fn measure(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut walls = Vec::new();
    // Each experiment's own wall time inside the pool, every pass.
    let mut latencies = Vec::new();
    let mut reference = None;
    loop {
        setup_samples(&mut setups);
        let t = Instant::now();
        let run = run_suite(JOBS);
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        latencies.extend(run.iter().map(|ran| ran.seconds * 1e3));
        let reference = reference.get_or_insert_with(|| run.clone());
        check_suite(&mut out, reference, run.iter().map(|r| &r.result), "suite");
        if walls.len() >= MIN_REPS && started.elapsed() + wall > budget {
            break;
        }
    }
    let experiments = latencies.len();
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric(
        "ops_per_s",
        experiments as f64 / walls.iter().sum::<f64>(),
        "1/s",
        experiments,
    );
    out.metric("op_p50_ms", median(&latencies), "ms", experiments);
    out.metric("op_p95_ms", quantile(&latencies, 0.95), "ms", experiments);
    match fig7_gaps(reference.as_deref().unwrap_or_default()) {
        Ok(gaps) => {
            for (name, gap) in gaps {
                out.metric_noted(
                    format!("sim_gap_to_fast.{name}"),
                    gap,
                    "ratio",
                    1,
                    format!("{FIG7_NOTE}; fast-mode fig7, scale-4 model"),
                );
            }
        }
        Err(e) => out.fail(e),
    }
    out.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB", 1);
    out
}

/// The traced run: time each generator alone at 1 job.
pub fn trace() -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let parallel = run_suite(JOBS);
    let suite_wall = t.elapsed().as_secs_f64();

    // Instrumented serial pass: one timer per generator.
    sentinel_util::set_default_jobs(1);
    let cfg = ExpConfig::new(true).with_jobs(1);
    let t = Instant::now();
    let serial: Vec<Ran> = experiment_registry()
        .into_iter()
        .map(|(id, generator)| run_one(id, generator, &cfg))
        .collect();
    let traced_wall = t.elapsed().as_secs_f64();

    // The same serial pass without the per-generator timers.
    let t = Instant::now();
    let plain: Vec<Serialized> = experiment_registry()
        .into_iter()
        .map(|(id, generator)| serialize(id, generator, &cfg))
        .collect();
    let plain_wall = t.elapsed().as_secs_f64();
    sentinel_util::set_default_jobs(JOBS);

    let traced = serial.iter().map(|r| &r.result);
    check_suite(&mut out, &parallel, traced, "1-job traced pass");
    check_suite(&mut out, &parallel, plain.iter(), "1-job plain pass");
    let total: f64 = serial.iter().map(|r| r.seconds).sum();
    for ran in &serial {
        out.metric(format!("bench.{}_s", ran.id), ran.seconds, "s", 1);
    }
    out.metric("bench.suite_wall_s", suite_wall, "s", 1);
    out.metric("util.pool_speedup", total / suite_wall, "ratio", 1);
    out.metric(
        "trace_overhead.paper_suite",
        traced_wall / plain_wall,
        "ratio",
        1,
    );
    out
}
