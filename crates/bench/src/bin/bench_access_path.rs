//! Access-path microbench: simulated-accesses-per-second through
//! `MemorySystem::access` (the O(runs) fast path) versus
//! `MemorySystem::access_per_page` (the kept per-page reference), on
//! large-tensor sweeps and on mid-size tensors read back while partly
//! resident in the cache filter, shaped like the experiment suite's hot loop.
//!
//! ```text
//! cargo run -p sentinel-bench --release --bin bench_access_path
//! SENTINEL_BENCH_SMOKE=1 cargo run -p sentinel-bench --bin bench_access_path
//! ```
//!
//! The full run writes `results/BENCH_access_path.json` with per-scenario
//! page rates, the batched-over-per-page speedup, and (when provided via
//! `SENTINEL_WALLCLOCK_BEFORE_S` / `SENTINEL_WALLCLOCK_AFTER_S`) the
//! experiment runner's `--jobs 1` wall-clock before/after the optimization.
//! Smoke mode runs a few tiny iterations for CI and writes nothing, so
//! timing noise never churns the recorded numbers.

use sentinel_mem::{AccessKind, HmConfig, MemoryModeSpec, MemorySystem, PageRange, Tier};
use sentinel_util::{BenchResult, Bencher, Json, ToJson};

/// One step of a scenario's timed sweep.
enum Step {
    /// One `access` (or `access_per_page`) call with a full page of payload
    /// per page.
    Access(PageRange, AccessKind),
    /// Unmap and remap in place, which drops the pages from the cache
    /// filter as a migration's unmap does.
    Remap(PageRange),
}

/// One benchmark workload: a prepared system plus the steps it sweeps.
struct Scenario {
    name: &'static str,
    system: MemorySystem,
    steps: Vec<Step>,
}

impl Scenario {
    /// A scenario whose sweep is one access of `range`.
    fn single(
        name: &'static str,
        system: MemorySystem,
        range: PageRange,
        kind: AccessKind,
    ) -> Self {
        Scenario {
            name,
            system,
            steps: vec![Step::Access(range, kind)],
        }
    }

    /// Pages accessed per sweep.
    fn pages(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Access(r, _) => r.count,
                Step::Remap(_) => 0,
            })
            .sum()
    }
}

/// Run one sweep of `steps` through the batched or the per-page pipeline.
fn sweep(system: &mut MemorySystem, steps: &[Step], page: u64, per_page: bool) -> u64 {
    let mut mm_accesses = 0;
    for step in steps {
        match *step {
            Step::Access(range, kind) => {
                let bytes = range.count * page;
                let report = if per_page {
                    system.access_per_page(range, bytes, kind, 0)
                } else {
                    system.access(range, bytes, kind, 0)
                };
                mm_accesses += report.mm_accesses;
            }
            Step::Remap(range) => {
                system.unmap(range, 0).unwrap();
                system.map(range, Tier::Slow, 0).unwrap();
            }
        }
    }
    mm_accesses
}

/// Build the scenario set. Every scenario is driven identically through both
/// pipelines (the equivalence suite guarantees the state evolutions match),
/// so the wall-time ratio is a pure measure of the batching.
fn scenarios(pages: u64) -> Vec<Scenario> {
    let cfg = HmConfig::optane_like();
    let mut out = Vec::new();

    // One huge co-allocated tensor in slow memory: a single PTE run, the
    // best case Sentinel's co-allocation produces by construction.
    let mut m = MemorySystem::new(cfg.clone());
    let r = m.reserve(pages);
    m.map(r, Tier::Slow, 0).unwrap();
    out.push(Scenario::single("large_tensor_read", m, r, AccessKind::Read));

    // The same tensor under profiling: every main-memory access faults and
    // is counted, exercising the bulk fault-recording path.
    let mut m = MemorySystem::new(cfg.clone());
    let r = m.reserve(pages);
    m.map(r, Tier::Slow, 0).unwrap();
    m.start_profiling();
    out.push(Scenario::single("large_tensor_profiled_write", m, r, AccessKind::Write));

    // Alternating fast/slow blocks: several runs per access, the shape left
    // behind by partial promotion.
    let mut m = MemorySystem::new(cfg.clone());
    let r = m.reserve(pages);
    let block = (pages / 16).max(1);
    let mut first = r.first;
    let mut to_fast = true;
    while first < r.end() {
        let count = block.min(r.end() - first);
        let tier = if to_fast { Tier::Fast } else { Tier::Slow };
        m.map(PageRange::new(first, count), tier, 0).unwrap();
        first += count;
        to_fast = !to_fast;
    }
    out.push(Scenario::single("mixed_tiers_read", m, r, AccessKind::Read));

    // Memory Mode in the thrash regime the paper studies: the DRAM cache is
    // a quarter of the tensor, so the sweep streams through misses.
    let mut m = MemorySystem::new(cfg.clone());
    m.enable_memory_mode(MemoryModeSpec { capacity_pages: pages / 4, ways: 8, tag_check_ns: 10 });
    let r = m.reserve(pages);
    m.map(r, Tier::Slow, 0).unwrap();
    out.push(Scenario::single("memory_mode_thrash_write", m, r, AccessKind::Write));

    // Mid-size tensors, a quarter and three quarters of the sweep (4096 and
    // 12288 pages against the filter's 8192 lines), written and then read
    // back after the upper half was dropped from the cache: the read-back
    // mixes hits on the resident lower part with misses, so most of the
    // filter's sets hold lines of the range when it is probed.
    for (name, count) in [
        ("reread_quarter_half_resident", pages / 4),
        ("reread_three_quarters_half_resident", 3 * pages / 4),
    ] {
        let mut m = MemorySystem::new(cfg.clone());
        let r = m.reserve(count);
        m.map(r, Tier::Slow, 0).unwrap();
        let upper = PageRange::new(r.first + count / 2, count - count / 2);
        out.push(Scenario {
            name,
            system: m,
            steps: vec![
                Step::Access(r, AccessKind::Write),
                Step::Remap(upper),
                Step::Access(r, AccessKind::Read),
            ],
        });
    }

    out
}

/// Pages per second implied by a per-sweep timing.
fn pages_per_second(pages: u64, median_ns: u64) -> f64 {
    pages as f64 * 1e9 / median_ns.max(1) as f64
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.parse().ok()
}

fn main() {
    let smoke = std::env::var("SENTINEL_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    // 16 Ki pages == 64 MiB per sweep, twice the cache filter's capacity;
    // smoke mode shrinks everything to compile-and-run scale for CI.
    let (pages, bencher) = if smoke { (1_024, Bencher::new(1, 3)) } else { (16_384, Bencher::new(3, 15)) };
    let page = HmConfig::optane_like().page_size;

    let mut bench_results: Vec<BenchResult> = Vec::new();
    let mut rate_rows: Vec<Json> = Vec::new();
    for scenario in scenarios(pages) {
        let pages_per_sweep = scenario.pages();
        let Scenario { name, system, steps } = scenario;
        // Both pipelines evolve identical state, so each gets its own copy
        // of the prepared system and the comparison stays apples-to-apples.
        let mut batched_sys = system;
        let mut per_page_sys = {
            // Rebuild instead of clone: MemorySystem is deliberately not
            // Clone (the migration engine owns channel state).
            let mut all = scenarios(pages);
            let idx = all.iter().position(|s| s.name == name).expect("same set");
            all.swap_remove(idx).system
        };
        let batched =
            bencher.run(&format!("access_path/{name}/batched"), || sweep(&mut batched_sys, &steps, page, false));
        let per_page =
            bencher.run(&format!("access_path/{name}/per_page"), || sweep(&mut per_page_sys, &steps, page, true));
        println!("{}", batched.summary_line());
        println!("{}", per_page.summary_line());
        let speedup = per_page.median_ns as f64 / batched.median_ns.max(1) as f64;
        println!(
            "  {name}: {:.3e} pages/s batched vs {:.3e} pages/s per-page ({speedup:.1}x)",
            pages_per_second(pages_per_sweep, batched.median_ns),
            pages_per_second(pages_per_sweep, per_page.median_ns),
        );
        rate_rows.push(Json::obj([
            ("scenario", Json::Str(name.to_owned())),
            ("pages_per_sweep", pages_per_sweep.to_json()),
            ("batched_pages_per_s", pages_per_second(pages_per_sweep, batched.median_ns).to_json()),
            ("per_page_pages_per_s", pages_per_second(pages_per_sweep, per_page.median_ns).to_json()),
            ("speedup", speedup.to_json()),
        ]));
        bench_results.push(batched);
        bench_results.push(per_page);
    }

    if smoke {
        println!("smoke mode: skipping results/BENCH_access_path.json");
        return;
    }

    let wallclock = Json::obj([
        ("before_s", env_f64("SENTINEL_WALLCLOCK_BEFORE_S").map_or(Json::Null, |v| v.to_json())),
        ("after_s", env_f64("SENTINEL_WALLCLOCK_AFTER_S").map_or(Json::Null, |v| v.to_json())),
    ]);
    let doc = Json::obj([
        ("label", Json::Str("access_path".to_owned())),
        (
            "note",
            Json::Str(
                "Simulated-accesses-per-second (pages/s) through MemorySystem::access \
                 (O(runs) batched pipeline) vs MemorySystem::access_per_page (per-page \
                 reference) on 64 MiB sweeps, and on 16 MiB and 48 MiB tensors written \
                 and read back after their upper half left the 32 MiB cache filter \
                 (pages_per_sweep counts both accesses). runner_wallclock_jobs1_s is the \
                 wall-clock of `run_experiments --jobs 1` before/after the change it was \
                 recorded for, measured on the same host (see CHANGES.md). The \
                 equivalence property suite guarantees both pipelines produce identical \
                 reports, stats and component state."
                    .to_owned(),
            ),
        ),
        ("benchmarks", bench_results.to_json()),
        ("accesses_per_second", Json::Arr(rate_rows)),
        ("runner_wallclock_jobs1_s", wallclock),
    ]);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = format!("{dir}/BENCH_access_path.json");
    std::fs::write(&path, doc.to_pretty_string()).expect("write bench json");
    println!("wrote {path}");
}
