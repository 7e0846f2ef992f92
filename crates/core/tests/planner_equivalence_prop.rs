//! Equivalence contract of the near-linear planner path.
//!
//! Two production paths must be *byte-identical* to their oracles:
//!
//! * [`solve_mil`] — the per-candidate tensor sweep — against
//!   [`solve_mil_reference`], the original per-interval range-query solver:
//!   full [`MilSolution`] equality, chosen `mil` and every candidate's
//!   diagnostics included, across the model zoo × fast-memory fractions ×
//!   short-lived reservations × bandwidths, plus identical typed errors on
//!   the zero-budget side.
//! * [`IntervalSets`] — the plan-time working-set table every interval
//!   boundary reads — against the per-interval range query
//!   [`Schedule::long_tensors_in`] and its stable hottest-first sort, for
//!   the plan the policy would choose on the same solver cases, with and
//!   without a hotness profile.

use sentinel_core::{
    solve_mil, solve_mil_reference, IntervalPlan, IntervalSets, Schedule, SentinelError,
};
use sentinel_dnn::Graph;
use sentinel_mem::HmConfig;
use sentinel_models::{ModelSpec, ModelZoo};
use sentinel_profiler::{ProfileReport, Profiler};
use sentinel_util::prop::PropConfig;
use sentinel_util::{prop_assert, prop_assert_eq, Rng};
use std::sync::OnceLock;

/// Scaled-down representatives of every model family in the zoo.
fn specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::resnet(20, 4).with_scale(4),
        ModelSpec::resnet(32, 8).with_scale(4),
        ModelSpec::mobilenet(4).with_scale(8),
        ModelSpec::lstm(4).with_scale(8),
        ModelSpec::dcgan(8).with_scale(8),
    ]
}

fn graphs() -> &'static Vec<Graph> {
    static GRAPHS: OnceLock<Vec<Graph>> = OnceLock::new();
    GRAPHS.get_or_init(|| specs().iter().map(|s| ModelZoo::build(s).unwrap()).collect())
}

/// One profile + schedule per model, shared across cases (profiling is the
/// expensive part; the solver inputs are immutable).
fn planner_inputs() -> &'static Vec<(Schedule, ProfileReport)> {
    static INPUTS: OnceLock<Vec<(Schedule, ProfileReport)>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        graphs()
            .iter()
            .map(|g| {
                let s = Schedule::new(g);
                let p = Profiler::new(HmConfig::optane_like()).profile(g).unwrap();
                (s, p)
            })
            .collect()
    })
}

// ------------------------------------------------------------ solver sweep

#[derive(Clone, Debug)]
struct SolverCase {
    model: usize,
    /// Fast-tier size as a percentage of the model's peak footprint
    /// (0 exercises the degenerate zero-capacity error path).
    fraction_pct: u64,
    /// Reservation as a percentage of the fast size (values ≥ 100 exercise
    /// the zero-budget typed error).
    reserve_pct: u64,
    /// Promote bandwidth in hundredths of bytes/ns (0 stresses the
    /// divide-by-zero guard).
    bw_centi: u64,
}

fn gen_solver_case(rng: &mut Rng) -> SolverCase {
    SolverCase {
        model: rng.gen_usize(0, graphs().len()),
        fraction_pct: rng.gen_range(0, 121),
        reserve_pct: rng.gen_range(0, 111),
        bw_centi: rng.gen_range(0, 2001),
    }
}

fn shrink_solver_case(c: &SolverCase) -> Vec<SolverCase> {
    let mut out = Vec::new();
    if c.model != 0 {
        out.push(SolverCase { model: 0, ..c.clone() });
    }
    if c.reserve_pct != 0 {
        out.push(SolverCase { reserve_pct: 0, ..c.clone() });
    }
    if c.bw_centi != 500 {
        out.push(SolverCase { bw_centi: 500, ..c.clone() });
    }
    out
}

fn assert_solver_equivalent(c: &SolverCase) -> Result<(), String> {
    let g = &graphs()[c.model];
    let (schedule, profile) = &planner_inputs()[c.model];
    let fast = g.peak_live_bytes() * c.fraction_pct / 100;
    let reserve = fast * c.reserve_pct / 100;
    let bw = c.bw_centi as f64 / 100.0;
    let fast_sol = solve_mil(g, schedule, profile, fast, reserve, bw);
    let ref_sol = solve_mil_reference(g, schedule, profile, fast, reserve, bw);
    match (fast_sol, ref_sol) {
        (Ok(fast_sol), Ok(ref_sol)) => {
            prop_assert_eq!(fast_sol.mil, ref_sol.mil, "chosen mil diverged");
            prop_assert_eq!(
                fast_sol.candidates,
                ref_sol.candidates,
                "candidate diagnostics diverged"
            );
            Ok(())
        }
        (fast_sol, ref_sol) => {
            let (f, r) = (fast_sol.map(|_| ()), ref_sol.map(|_| ()));
            prop_assert!(
                matches!(
                    (&f, &r),
                    (
                        Err(SentinelError::ZeroMigrationBudget { .. }),
                        Err(SentinelError::ZeroMigrationBudget { .. })
                    )
                ),
                "solvers disagree on failure: sweep={f:?} reference={r:?}"
            );
            Ok(())
        }
    }
}

#[test]
fn mil_sweep_matches_the_range_query_reference() {
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        cfg = cfg.with_cases(40);
    }
    cfg.run(
        "mil_sweep_matches_the_range_query_reference",
        gen_solver_case,
        shrink_solver_case,
        assert_solver_equivalent,
    );
}

// --------------------------------------------------- interval-set table

/// The plan `SentinelPolicy` would run for this case: the solver's MIL,
/// clamped to the layer count, or the minimal plan when the solver fails.
fn chosen_plan(c: &SolverCase) -> IntervalPlan {
    let g = &graphs()[c.model];
    let (schedule, profile) = &planner_inputs()[c.model];
    let fast = g.peak_live_bytes() * c.fraction_pct / 100;
    let reserve = fast * c.reserve_pct / 100;
    let bw = c.bw_centi as f64 / 100.0;
    let layers = g.num_layers().max(1);
    let mil = solve_mil(g, schedule, profile, fast, reserve, bw).map_or(1, |s| s.mil);
    IntervalPlan::new(mil.clamp(1, layers), layers)
}

/// Both arenas of the table, with and without a hotness profile, against
/// the per-interval range query and its stable hottest-first sort.
fn assert_table_matches_queries(c: &SolverCase) -> Result<(), String> {
    let (schedule, profile) = &planner_inputs()[c.model];
    let plan = chosen_plan(c);
    let hot = IntervalSets::build(schedule, &plan, Some(profile));
    let fifo = IntervalSets::build(schedule, &plan, None);
    prop_assert_eq!(hot.num_intervals(), plan.num_intervals());
    prop_assert_eq!(fifo.num_intervals(), plan.num_intervals());
    for k in 0..plan.num_intervals() {
        let expect = schedule.long_tensors_in(plan.start_layer(k), plan.end_layer(k));
        prop_assert_eq!(hot.sorted(k), expect.as_slice(), "interval {k}: sorted set diverged");
        prop_assert_eq!(fifo.sorted(k), expect.as_slice(), "interval {k}: sorted set diverged");
        prop_assert_eq!(fifo.prefetch_order(k), expect.as_slice(), "interval {k}: FIFO order");
        let mut hottest_first = expect;
        hottest_first.sort_by_key(|&t| std::cmp::Reverse(profile.tensor(t).mm_accesses));
        prop_assert_eq!(
            hot.prefetch_order(k),
            hottest_first.as_slice(),
            "interval {k}: hot-first order diverged"
        );
    }
    Ok(())
}

#[test]
fn interval_sets_match_the_range_query_and_hot_first_sort() {
    let mut cfg = PropConfig::from_env();
    if std::env::var("SENTINEL_PROP_CASES").is_err() {
        cfg = cfg.with_cases(40);
    }
    cfg.run(
        "interval_sets_match_the_range_query_and_hot_first_sort",
        gen_solver_case,
        shrink_solver_case,
        assert_table_matches_queries,
    );
}
