//! Run one workload of the benchmark, or `all` of them in turn, and print
//! its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Each run also writes `perfbench/out/<workload>.trace<0|1>.json`, stamped
//! with the host, compiler, commit and seed.

use sentinel_perfbench::outcome::Outcome;
use sentinel_perfbench::{host, paper_suite, serve_mix, train_steady};
use sentinel_util::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["paper_suite", "train_steady", "serve_mix"];
const USAGE: &str =
    "usage: sentinel-perfbench --workload <paper_suite|train_steady|serve_mix|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The end-to-end metrics every untraced run prints, whatever the workload.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "ok_share",
    "ops_per_s",
    "op_p50_ms",
    "op_p95_ms",
    "sim_gap_to_fast.resnet32",
    "sim_gap_to_fast.bert_base",
    "sim_gap_to_fast.lstm",
];

fn measure(workload: &str, args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    Ok(match workload {
        "paper_suite" => paper_suite::measure(budget),
        "train_steady" => train_steady::measure(budget),
        "serve_mix" => serve_mix::measure(args.seed, budget)?,
        _ => unreachable!("workload names are checked by parse_args"),
    })
}

/// The traced run measures every layer, so that every traced run prints
/// every per-layer metric: the named workload's traced pass for
/// `--seconds`, then the other two for a quarter of that each.
fn trace(workload: &str, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for w in WORKLOADS {
        let budget = Duration::from_secs(args.seconds);
        let budget = if w == workload { budget } else { budget / 4 };
        out.absorb(match w {
            "paper_suite" => paper_suite::trace(),
            "train_steady" => train_steady::trace(budget),
            _ => serve_mix::trace(args.seed, budget)?,
        });
    }
    Ok(out)
}

fn results_path(workload: &str, trace: bool) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    dir.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

/// `trace_overhead.<workload>` from this run, or else from the workload's
/// latest traced results file.
fn trace_overhead(workload: &str, out: &Outcome) -> Json {
    let name = format!("trace_overhead.{workload}");
    if let Some(m) = out.metrics.iter().find(|m| m.name == name) {
        return Json::F64(m.value);
    }
    std::fs::read_to_string(results_path(workload, true))
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|json| json.get("metrics")?.get(&name)?.get("value").cloned())
        .unwrap_or(Json::Null)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let one = [args.workload.as_str()];
    let workloads: &[&str] = if args.workload == "all" {
        &WORKLOADS
    } else {
        &one
    };
    for workload in workloads {
        if let Err(e) = report(workload, &args) {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Run `workload`, print its metrics and verdict, and write its results
/// file.
fn report(workload: &str, args: &Args) -> Result<(), String> {
    let mut out = if args.trace {
        trace(workload, args)?
    } else {
        measure(workload, args)?
    };
    if !args.trace {
        let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        out.metric("ok_share", ok, "ratio", out.attempted as usize);
        for name in END_TO_END {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.fail(format!("no {name} measured"));
                out.metric(name, f64::NAN, "", 0);
            }
        }
    }
    let correct = out.failed == 0 && out.metrics.iter().all(|m| m.value.is_finite());

    println!(
        "{} (seed {}, {} s, trace {}):",
        workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        let note = m
            .note
            .as_deref()
            .map(|n| format!("  [{n}]"))
            .unwrap_or_default();
        let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.6e}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        println!(
            "  {:<36} {value:>16} {:<8} n={}{note}",
            m.name, m.unit, m.samples
        );
    }
    println!(
        "  error_rate = {} failed of {} attempted{}",
        out.failed,
        out.attempted,
        if correct {
            ""
        } else {
            "  -- CORRECTNESS GATE FAILED"
        }
    );
    for why in &out.failures {
        eprintln!("  failure: {why}");
    }

    let metrics = Json::obj(out.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::F64(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }));
    let verdict = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("metrics", metrics.clone()),
    ]);
    let record = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::stamp()),
        ("trace_overhead", trace_overhead(workload, &out)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        (
            "failures",
            Json::arr(out.failures.iter().map(|f| Json::Str(f.clone()))),
        ),
        (
            "notes",
            Json::obj(out.metrics.iter().filter_map(|m| {
                m.note
                    .as_ref()
                    .map(|n| (m.name.clone(), Json::Str(n.clone())))
            })),
        ),
        ("metrics", metrics),
    ]);
    let path = results_path(workload, args.trace);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, record.to_pretty_string()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{verdict}");
    Ok(())
}
