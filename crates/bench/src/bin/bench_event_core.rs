//! Event-core microbench: the cost of asking "did anything land?" with the
//! engine's indexed drain versus its linear-scan oracle.
//!
//! ```text
//! cargo run -p sentinel-bench --release --bin bench_event_core
//! SENTINEL_BENCH_SMOKE=1 cargo run -p sentinel-bench --bin bench_event_core
//! ```
//!
//! The stepping-bound sweep is the case the event core exists for: a deep
//! in-flight set polled far more often than copies complete, so
//! `MigrationEngine::drain_completed_scan` pays an O(in-flight) scan per
//! poll while `MigrationEngine::drain_completed` (the only drain
//! `MemorySystem::poll` uses) answers from the ready-heap head in O(1).
//!
//! The full run writes `results/BENCH_event_core.json`; smoke mode runs
//! tiny sizes for CI and writes nothing, so timing noise never churns the
//! recorded numbers.

use sentinel_mem::{Direction, MigrationEngine, PageRange};
use sentinel_util::{BenchResult, Bencher, Json, ToJson};

/// An engine carrying `batches` staggered in-flight copies across all four
/// lanes (both directions, both priorities), with injected jitter so the
/// completion order differs from issue order — the post-fault shape.
fn loaded_engine(batches: u64) -> MigrationEngine {
    let mut e = MigrationEngine::new(10.0, 10.0, 100, 4096);
    for i in 0..batches {
        let dir = if i % 2 == 0 { Direction::Promote } else { Direction::Demote };
        let urgent = i % 4 < 2;
        let jitter = (i % 7) * 1_000;
        e.enqueue_perturbed(PageRange::new(i * 8, 8), dir, i, urgent, jitter, false, 0);
    }
    e
}

/// Poll times strictly before the earliest completion, so every poll of the
/// sweep is a miss — the stepping-bound regime.
fn poll_horizon(e: &MigrationEngine) -> u64 {
    e.next_ready_at().expect("loaded engine has in-flight batches") - 1
}

fn main() {
    let smoke = std::env::var("SENTINEL_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    // 2 Ki in-flight batches polled 20 k times: the deep-channel regime a
    // layer-stepping executor produces on migration-heavy sweeps. Smoke
    // mode shrinks everything to compile-and-run scale for CI.
    let (batches, polls, bencher) =
        if smoke { (128u64, 512u64, Bencher::new(1, 3)) } else { (2_048, 20_480, Bencher::new(3, 15)) };

    let mut bench_results: Vec<BenchResult> = Vec::new();
    let mut rate_rows: Vec<Json> = Vec::new();

    // --- Stepping-bound sweep: poll cost with nothing completing. -------
    // Drains complete nothing inside the horizon, so the engines are not
    // mutated and one prepared engine serves every iteration.
    let mut indexed = loaded_engine(batches);
    let horizon = poll_horizon(&indexed);
    let event = bencher.run(&format!("event_core/poll_sweep_{batches}/event_driven"), || {
        let mut landed = 0usize;
        for p in 0..polls {
            landed += indexed.drain_completed(p % horizon).len();
        }
        landed
    });
    let mut scanned = loaded_engine(batches);
    let per_step = bencher.run(&format!("event_core/poll_sweep_{batches}/per_step"), || {
        let mut landed = 0usize;
        for p in 0..polls {
            landed += scanned.drain_completed_scan(p % horizon).len();
        }
        landed
    });
    println!("{}", event.summary_line());
    println!("{}", per_step.summary_line());
    let sweep_speedup = per_step.median_ns as f64 / event.median_ns.max(1) as f64;
    println!("  poll_sweep: {sweep_speedup:.1}x ({batches} in-flight, {polls} polls)");
    rate_rows.push(Json::obj([
        ("scenario", Json::Str("poll_sweep".to_owned())),
        ("in_flight_batches", batches.to_json()),
        ("polls_per_sweep", polls.to_json()),
        ("event_driven_ns", event.median_ns.to_json()),
        ("per_step_ns", per_step.median_ns.to_json()),
        ("speedup", sweep_speedup.to_json()),
    ]));
    bench_results.push(event);
    bench_results.push(per_step);

    if smoke {
        println!("smoke mode: skipping results/BENCH_event_core.json");
        return;
    }

    let doc = Json::obj([
        ("label", Json::Str("event_core".to_owned())),
        (
            "note",
            Json::Str(
                "Wall-clock of migration-completion polling with the indexed drain \
                 (MigrationEngine::drain_completed, O(1) ready-heap peek on a miss) \
                 vs its linear-scan oracle (drain_completed_scan, O(in-flight) \
                 partition per poll), on a stepping-bound sweep with a deep \
                 jittered in-flight set. The chaos suite guarantees both drains \
                 return the same batches and leave the engine in the same state."
                    .to_owned(),
            ),
        ),
        ("benchmarks", bench_results.to_json()),
        ("speedups", Json::Arr(rate_rows)),
    ]);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = format!("{dir}/BENCH_event_core.json");
    std::fs::write(&path, doc.to_pretty_string()).expect("write bench json");
    println!("wrote {path}");
}
