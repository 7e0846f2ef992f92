//! `train_steady`: `SentinelRuntime::train_streamed` on the paper-size
//! small-batch models at 20% fast memory on the Optane-like platform.

use crate::outcome::{peak_rss_mib, Outcome, FIG7_NOTE};
use crate::stats::{mean, median, quantile};
use crate::timed::{run_timed, TimedStep};
use sentinel_core::{
    fast_sized_for, solve_mil, ReorgPlan, RunEvent, Schedule, SentinelConfig, SentinelOutcome,
    SentinelPolicy, SentinelRuntime, SentinelStats,
};
use sentinel_dnn::{Executor, Graph, SingleTier, TrainReport};
use sentinel_mem::{HmConfig, MemorySystem, Tier, TraceLevel};
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_util::ToJson;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Steps per model and repetition: the profiling step plus 7 steady steps.
const STEPS: usize = 8;
/// Steps of the single-tier reference runs (as the full-mode baselines).
const REFERENCE_STEPS: usize = 4;
/// Repetitions run even when they overrun `--seconds`.
const MIN_REPS: usize = 3;
/// Calls per timed sample of a planner function.
const PLANNER_CALLS: usize = 5;
/// The per-layer sim metrics have no paper figure to compare with.
const SIM_NOTE: &str = "no paper reference (unvalidated)";

/// The three models, with the names their metrics carry.
fn models() -> [(&'static str, ModelSpec); 3] {
    [
        ("resnet32", ModelSpec::resnet(32, 64)),
        ("bert_base", ModelSpec::bert_base(8)),
        ("lstm", ModelSpec::lstm(32)),
    ]
}

fn build(spec: &ModelSpec) -> Graph {
    ModelZoo::build(spec).expect("the paper's models build")
}

fn platform(graph: &Graph) -> HmConfig {
    fast_sized_for(HmConfig::optane_like(), graph, 0.2)
}

fn report_json(report: &TrainReport) -> String {
    report.to_json().to_string()
}

/// One streamed run: the outcome, host time to the first step callback
/// (the profiling step with the plan solve), and host seconds of each
/// step after it, between consecutive callbacks.
struct Streamed {
    outcome: SentinelOutcome,
    first_step: Duration,
    steady: Vec<f64>,
}

fn stream(graph: &Graph) -> Result<Streamed, String> {
    let runtime = SentinelRuntime::new(SentinelConfig::default(), platform(graph));
    let start = Instant::now();
    let mut marks = Vec::with_capacity(STEPS);
    let outcome = runtime
        .train_streamed(graph, STEPS, |event| {
            if let RunEvent::Step { .. } = event {
                marks.push(Instant::now());
            }
            true
        })
        .map_err(|e| format!("{}: {e}", graph.name()))?
        .ok_or_else(|| format!("{}: run aborted", graph.name()))?;
    let profiling = outcome.stats.profiling_steps as usize;
    let first_step = marks[profiling - 1] - start;
    let steady = marks[profiling - 1..]
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    Ok(Streamed {
        outcome,
        first_step,
        steady,
    })
}

/// Sim steady step of `policy` on `hm` over `REFERENCE_STEPS` steps.
pub(crate) fn reference_step_ns(graph: &Graph, hm: HmConfig, mut policy: SingleTier) -> u64 {
    Executor::new(graph, MemorySystem::new(hm))
        .run(&mut policy, REFERENCE_STEPS)
        .expect("single-tier reference runs")
        .steady_step_ns()
}

/// The untraced run: repeat the three-model job for `budget`.
pub fn measure(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    // Deterministic references, once per process, outside the timed loop.
    let references: Vec<(u64, u64)> = models()
        .iter()
        .map(|(_, spec)| {
            let graph = build(spec);
            let fast = reference_step_ns(
                &graph,
                fast_sized_for(HmConfig::optane_like(), &graph, 1.5),
                SingleTier::fast(),
            );
            let slow = reference_step_ns(&graph, platform(&graph), SingleTier::slow());
            (fast, slow)
        })
        .collect();

    let started = Instant::now();
    let mut setups = Vec::new();
    // Host seconds of each model's steady steps.
    let mut steps: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut first: Vec<Option<(String, u64)>> = vec![None; 3];
    loop {
        let rep_start = Instant::now();
        let mut setup = Duration::ZERO;
        for (i, (name, spec)) in models().iter().enumerate() {
            let t = Instant::now();
            let graph = build(spec);
            setup += t.elapsed();
            match stream(&graph) {
                Ok(run) => {
                    setup += run.first_step;
                    steps[i].extend(&run.steady);
                    let json = report_json(&run.outcome.report);
                    let sim = run.outcome.report.steady_step_ns();
                    let reference = first[i].get_or_insert_with(|| (json.clone(), sim));
                    out.check(reference.0 == json, || {
                        format!("{name}: report differs across repetitions")
                    });
                }
                Err(e) => out.fail(e),
            }
        }
        setups.push(setup.as_secs_f64());
        if setups.len() >= MIN_REPS && started.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }
    out.metric("setup_s", median(&setups), "s", setups.len());
    // Steps per second of the job: one steady step of each model, each
    // at its median over the run.
    let round: f64 = steps.iter().map(|s| median(s)).sum();
    let latencies: Vec<f64> = steps.iter().flatten().map(|s| s * 1e3).collect();
    let n = latencies.len();
    out.metric("ops_per_s", steps.len() as f64 / round, "1/s", n);
    out.metric("op_p50_ms", median(&latencies), "ms", n);
    out.metric("op_p95_ms", quantile(&latencies, 0.95), "ms", n);
    for (((name, _), sim), (fast, slow)) in models().iter().zip(&first).zip(&references) {
        let Some((_, sim)) = sim else { continue };
        let gap = *sim as f64 / *fast as f64 - 1.0;
        let speedup = *slow as f64 / *sim as f64;
        out.metric_noted(
            format!("sim_gap_to_fast.{name}"),
            gap,
            "ratio",
            setups.len(),
            format!("{FIG7_NOTE}; speedup over slow-only {speedup:.3}x (unvalidated)"),
        );
    }
    out.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB", 1);
    out
}

/// Per-model per-layer samples of one traced repetition.
#[derive(Default)]
struct LayerSamples {
    build_ms: Vec<f64>,
    profiling_ms: Vec<f64>,
    reorg_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    step_ms: Vec<f64>,
    layer_ms: Vec<f64>,
    op_ms: Vec<f64>,
    alloc_ms: Vec<f64>,
    access_ms: Vec<f64>,
    overhead: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over `PLANNER_CALLS` calls of `f`, in ms.
fn time_calls<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..PLANNER_CALLS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// `ExecCtx::access_tensor` calls in one step: every operand pass.
fn access_calls(graph: &Graph) -> u64 {
    graph
        .layers()
        .iter()
        .flat_map(|l| &l.ops)
        .flat_map(|op| op.reads.iter().chain(&op.writes))
        .map(|o| u64::from(o.passes))
        .sum()
}

/// A traced run's report and Sentinel counters.
type Traced = (TrainReport, SentinelStats);

/// One traced repetition of one model: a plain streamed run, a timed run
/// over the same inputs, and direct calls into the planner.
fn trace_model(
    out: &mut Outcome,
    name: &str,
    spec: &ModelSpec,
    samples: &mut LayerSamples,
    reference: &mut Option<String>,
) -> Result<Traced, String> {
    let t = Instant::now();
    let graph = build(spec);
    samples.build_ms.push(ms(t.elapsed()));
    let hm = platform(&graph);

    let t = Instant::now();
    let plain = stream(&graph)?;
    let plain_wall = t.elapsed();

    let cfg = SentinelConfig::default();
    let mut policy = SentinelPolicy::new(cfg.clone());
    let mut mem = MemorySystem::new(hm.clone());
    if let Some(retry) = cfg.retry {
        mem.set_retry_policy(retry);
    }
    let t = Instant::now();
    let (report, steps) = run_timed(&graph, mem, TraceLevel::Off, &mut policy, STEPS)
        .map_err(|e| format!("{name}: timed run failed: {e}"))?;
    let timed_wall = t.elapsed();
    samples
        .overhead
        .push(timed_wall.as_secs_f64() / plain_wall.as_secs_f64());

    let json = report_json(&report);
    out.check(
        policy.take_solver_error().is_none() && policy.violation().is_none(),
        || format!("{name}: timed run broke a policy invariant"),
    );
    out.check(json == report_json(&plain.outcome.report), || {
        format!("{name}: timed report differs from the plain run")
    });
    let reference = reference.get_or_insert_with(|| json.clone());
    out.check(*reference == json, || {
        format!("{name}: timed report differs across repetitions")
    });

    let profiling = plain.outcome.stats.profiling_steps as usize;
    let (prof, steady): (&[TimedStep], &[TimedStep]) = steps.split_at(profiling);
    samples
        .profiling_ms
        .push(prof.iter().map(|s| ms(s.host)).sum());
    let per_step = |f: &dyn Fn(&TimedStep) -> Duration| -> f64 {
        mean(&steady.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    samples.step_ms.push(per_step(&|s| s.host));
    samples.layer_ms.push(per_step(&|s| s.hooks.layer));
    samples.op_ms.push(per_step(&|s| s.hooks.op));
    samples.alloc_ms.push(per_step(&|s| s.hooks.alloc));
    samples.access_ms.push(per_step(&|s| s.hooks.access));

    let profile = policy
        .profile()
        .ok_or_else(|| format!("{name}: no profile"))?;
    samples
        .reorg_ms
        .push(time_calls(|| ReorgPlan::new(profile)));
    let schedule = Schedule::new(&graph);
    let reserve_bytes = plain.outcome.stats.reserve_pages * hm.page_size;
    let fast_bytes = hm.tier(Tier::Fast).capacity_bytes;
    let solve = || {
        solve_mil(
            &graph,
            &schedule,
            profile,
            fast_bytes,
            reserve_bytes,
            hm.promote_bw_bytes_per_ns,
        )
    };
    let mil = solve().map(|s| s.mil);
    out.check(mil.as_ref().ok() == Some(&plain.outcome.stats.mil), || {
        format!(
            "{name}: solve_mil gives {mil:?}, the run chose {}",
            plain.outcome.stats.mil
        )
    });
    samples.solve_ms.push(time_calls(solve));
    Ok((report, policy.stats()))
}

/// The traced run: per-layer host time per model, repeated for `budget`.
pub fn trace(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut samples: Vec<LayerSamples> = (0..3).map(|_| LayerSamples::default()).collect();
    let mut references: Vec<Option<String>> = vec![None; 3];
    let mut reports: Vec<Option<Traced>> = vec![None; 3];
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let rep_start = Instant::now();
        for (i, (name, spec)) in models().iter().enumerate() {
            match trace_model(&mut out, name, spec, &mut samples[i], &mut references[i]) {
                Ok(traced) => reports[i] = Some(traced),
                Err(e) => out.fail(e),
            }
        }
        reps += 1;
        if reps >= MIN_REPS && started.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }

    let mut overheads = Vec::new();
    for (((name, spec), s), report) in models().iter().zip(&samples).zip(&reports) {
        let Some(report) = report else { continue };
        let graph = build(spec);
        let accesses = access_calls(&graph) as f64;
        let n = s.step_ms.len();
        let hooks = median(&s.layer_ms) + median(&s.op_ms) + median(&s.alloc_ms);
        out.metric(
            format!("models.build_ms.{name}"),
            median(&s.build_ms),
            "ms",
            n,
        );
        out.metric(
            format!("profiler.step_ms.{name}"),
            median(&s.profiling_ms),
            "ms",
            n,
        );
        out.metric(
            format!("core.reorg_ms.{name}"),
            median(&s.reorg_ms),
            "ms",
            n,
        );
        out.metric(
            format!("core.solve_mil_ms.{name}"),
            median(&s.solve_ms),
            "ms",
            n,
        );
        out.metric(format!("dnn.step_ms.{name}"), median(&s.step_ms), "ms", n);
        out.metric(
            format!("core.layer_hooks_ms.{name}"),
            median(&s.layer_ms),
            "ms",
            n,
        );
        out.metric(
            format!("core.op_hooks_ms.{name}"),
            median(&s.op_ms),
            "ms",
            n,
        );
        out.metric(
            format!("core.alloc_hooks_ms.{name}"),
            median(&s.alloc_ms),
            "ms",
            n,
        );
        out.metric(
            format!("mem.access_ms.{name}"),
            median(&s.access_ms),
            "ms",
            n,
        );
        out.metric(format!("mem.accesses.{name}"), accesses, "count", 1);
        out.metric(
            format!("mem.ns_per_access.{name}"),
            median(&s.access_ms) * 1e6 / accesses,
            "ns",
            n,
        );
        out.metric(
            format!("dnn.exec_self_ms.{name}"),
            median(&s.step_ms) - hooks - median(&s.access_ms),
            "ms",
            n,
        );
        sim_metrics(&mut out, name, report, n);
        overheads.extend(&s.overhead);
    }
    out.metric(
        "trace_overhead.train_steady",
        median(&overheads),
        "ratio",
        overheads.len(),
    );
    out
}

/// The simulated-clock metrics of one run. They repeat exactly, so a
/// change that only speeds up the host leaves every one unchanged.
fn sim_metrics(out: &mut Outcome, name: &str, (report, stats): &Traced, n: usize) {
    let steady = &report.steps[report.steps.len() / 2..];
    let fast: u64 = steady.iter().map(|s| s.fast_accesses).sum();
    let slow: u64 = steady.iter().map(|s| s.slow_accesses).sum();
    out.metric_noted(
        format!("sim.step_ms.{name}"),
        report.steady_step_ns() as f64 / 1e6,
        "sim_ms",
        n,
        SIM_NOTE,
    );
    out.metric_noted(
        format!("sim.stall_ms.{name}"),
        report.steady_breakdown().stall_ns as f64 / 1e6,
        "sim_ms",
        n,
        SIM_NOTE,
    );
    out.metric_noted(
        format!("sim.migrated_mb.{name}"),
        report.steady_migrated_bytes() as f64 / f64::from(1 << 20),
        "MiB",
        n,
        SIM_NOTE,
    );
    out.metric_noted(
        format!("sim.slow_access_share.{name}"),
        slow as f64 / (fast + slow) as f64,
        "ratio",
        n,
        SIM_NOTE,
    );
    out.metric_noted(
        format!("sim.case2_events.{name}"),
        stats.case2_events as f64,
        "count",
        n,
        SIM_NOTE,
    );
    out.metric_noted(
        format!("sim.case3_events.{name}"),
        stats.case3_events as f64,
        "count",
        n,
        SIM_NOTE,
    );
    out.metric_noted(
        format!("sim.mil.{name}"),
        stats.mil as f64,
        "layers",
        n,
        SIM_NOTE,
    );
}
