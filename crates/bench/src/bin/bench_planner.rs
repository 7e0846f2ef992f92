//! Planner microbench: the near-linear MIL solver and the allocation-free
//! steady-state boundary path versus their oracles.
//!
//! ```text
//! cargo run -p sentinel-bench --release --bin bench_planner
//! SENTINEL_BENCH_SMOKE=1 cargo run -p sentinel-bench --bin bench_planner
//! ```
//!
//! Two scenarios:
//!
//! * `solve_mil` (per-candidate tensor sweep, O(L·R)) vs
//!   `solve_mil_reference` (per-interval range queries, O(L²·t̄·log t̄)) on
//!   a deep unrolled LSTM (≥ 512 layers) — the depth regime the quadratic
//!   reference cannot reach — and on the standard scaled ResNet-32.
//! * The steady-state boundary path: every layer's working set read from
//!   the plan-time table (`IntervalSets::sorted`) vs the per-call
//!   `Schedule::long_tensors_in` range query (alloc + sort + dedup), on the
//!   plan `solve_mil` picks for the same two models.
//!
//! The full run writes `results/BENCH_planner.json`; smoke mode runs tiny
//! sizes for CI and writes nothing, so timing noise never churns the
//! recorded numbers. `crates/core/tests/planner_equivalence_prop.rs`
//! guarantees both sides of every pair are identical.

use sentinel_core::{solve_mil, solve_mil_reference, IntervalPlan, IntervalSets, Schedule};
use sentinel_mem::HmConfig;
use sentinel_models::{ModelFamily, ModelSpec, ModelZoo};
use sentinel_profiler::Profiler;
use sentinel_util::{BenchResult, Bencher, Json, ToJson};

/// A deep unrolled LSTM: `2·timesteps + 2` layers, width-scaled so the
/// simulated footprint stays modest while the *layer count* — the solver's
/// scaling axis — is large.
fn deep_lstm(timesteps: u32) -> ModelSpec {
    ModelSpec { family: ModelFamily::Lstm { hidden: 1024, timesteps }, batch: 4, scale: 16 }
}

fn main() {
    let smoke = std::env::var("SENTINEL_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    // 255 timesteps → 512 layers in full mode; compile-and-run scale in CI.
    let (timesteps, bencher, ref_bencher) = if smoke {
        (8u32, Bencher::new(1, 3), Bencher::new(1, 2))
    } else {
        // The quadratic reference takes seconds per solve at 512 layers:
        // fewer iterations there keep the run bounded without touching the
        // fast side's sample quality.
        (255, Bencher::new(3, 15), Bencher::new(1, 5))
    };

    let mut bench_results: Vec<BenchResult> = Vec::new();
    let mut rate_rows: Vec<Json> = Vec::new();

    // --- Solver: per-candidate sweep vs per-interval range queries. -----
    // Both scenarios run on each model.
    let hm = HmConfig::optane_like();
    for (tag, spec) in [
        ("lstm_deep", deep_lstm(timesteps)),
        ("resnet32", ModelSpec::resnet(32, 8).with_scale(4)),
    ] {
        let graph = ModelZoo::build(&spec).unwrap();
        let layers = graph.num_layers();
        let schedule = Schedule::new(&graph);
        let profile = Profiler::new(hm.clone()).profile(&graph).unwrap();
        let fast = graph.peak_live_bytes() / 5;
        let bw = hm.promote_bw_bytes_per_ns;
        let sweep = bencher.run(&format!("planner/solve_{tag}_{layers}l/sweep"), || {
            solve_mil(&graph, &schedule, &profile, fast, 0, bw).unwrap().mil
        });
        let reference = ref_bencher.run(&format!("planner/solve_{tag}_{layers}l/reference"), || {
            solve_mil_reference(&graph, &schedule, &profile, fast, 0, bw).unwrap().mil
        });
        println!("{}", sweep.summary_line());
        println!("{}", reference.summary_line());
        let speedup = reference.median_ns as f64 / sweep.median_ns.max(1) as f64;
        println!("  solve_{tag}: {speedup:.1}x ({layers} layers)");
        rate_rows.push(Json::obj([
            ("scenario", Json::Str(format!("solve_mil_{tag}"))),
            ("layers", (layers as u64).to_json()),
            ("sweep_ns", sweep.median_ns.to_json()),
            ("reference_ns", reference.median_ns.to_json()),
            ("speedup", speedup.to_json()),
        ]));
        bench_results.push(sweep);
        bench_results.push(reference);

        // --- Steady-state boundary path: table slices vs range query. ---
        // Every layer's working-set lookup on the plan the solver picks:
        // the shape of the per-boundary demand check and the cluster
        // arbiter's per-tenant probe.
        let plan = IntervalPlan::new(solve_mil(&graph, &schedule, &profile, fast, 0, bw).unwrap().mil, layers);
        let sets = IntervalSets::build(&schedule, &plan, Some(&profile));
        let table = bencher.run(&format!("planner/working_set_{tag}_{layers}l/table"), || {
            (0..layers).map(|layer| sets.sorted(plan.interval_of(layer)).len()).sum::<usize>()
        });
        let per_call = bencher.run(&format!("planner/working_set_{tag}_{layers}l/per_call"), || {
            (0..layers)
                .map(|layer| {
                    let k = plan.interval_of(layer);
                    schedule.long_tensors_in(plan.start_layer(k), plan.end_layer(k)).len()
                })
                .sum::<usize>()
        });
        println!("{}", table.summary_line());
        println!("{}", per_call.summary_line());
        let speedup = per_call.median_ns as f64 / table.median_ns.max(1) as f64;
        println!("  working_set_{tag}: {speedup:.1}x ({layers} layers)");
        rate_rows.push(Json::obj([
            ("scenario", Json::Str(format!("boundary_working_set_{tag}"))),
            ("layers", (layers as u64).to_json()),
            ("table_ns", table.median_ns.to_json()),
            ("per_call_ns", per_call.median_ns.to_json()),
            ("speedup", speedup.to_json()),
        ]));
        bench_results.push(table);
        bench_results.push(per_call);
    }

    if smoke {
        println!("smoke mode: skipping results/BENCH_planner.json");
        return;
    }

    let doc = Json::obj([
        ("label", Json::Str("planner".to_owned())),
        (
            "note",
            Json::Str(
                "Wall-clock of the near-linear planner path vs its oracles: \
                 solve_mil (per-candidate tensor sweep over the CSR schedule \
                 index, O(L*R) across all candidates) vs solve_mil_reference \
                 (per-interval range queries, O(L^2) with per-call \
                 alloc+sort+dedup); and every layer's working set read from the \
                 plan-time IntervalSets table vs the per-call \
                 Schedule::long_tensors_in range query. The planner-equivalence \
                 suite guarantees every pair is identical (full MilSolution \
                 equality; table slices equal to the range query)."
                    .to_owned(),
            ),
        ),
        ("benchmarks", bench_results.to_json()),
        ("speedups", Json::Arr(rate_rows)),
    ]);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = format!("{dir}/BENCH_planner.json");
    std::fs::write(&path, doc.to_pretty_string()).expect("write bench json");
    println!("wrote {path}");
}
