//! LRU contract of the cache filter over many geometries.
//!
//! `CacheFilter` keeps each set's tags in recency order and resolves
//! `probe_range` set by set, partly in closed form. This property drives it
//! and a textbook LRU (per set, a `Vec` of pages in recency order) with the
//! same random stream of probes, range probes, invalidations and flushes,
//! over associativities 1–16 and set counts 1–16, and requires equal
//! outcomes, hit pages, counters and per-set residency (in recency order)
//! after every operation.

use sentinel_mem::{CacheFilter, CacheFilterSpec, CacheOutcome, PageRange};
use sentinel_util::prop::check;
use sentinel_util::{prop_assert_eq, Rng};

const WAYS: [usize; 6] = [1, 2, 3, 4, 8, 16];
const SETS: [usize; 6] = [1, 2, 3, 7, 8, 16];

#[derive(Clone, Debug)]
enum Op {
    Probe(u64),
    ProbeRange(u64, u64),
    Invalidate(u64),
    InvalidateRange(u64, u64),
    Flush,
}

#[derive(Clone, Debug)]
struct Case {
    ways: usize,
    sets: usize,
    ops: Vec<Op>,
}

/// Textbook LRU: each set is a `Vec` of pages, least recently used first.
struct Lru {
    ways: usize,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Lru {
    fn new(ways: usize, sets: usize) -> Self {
        Lru {
            ways,
            sets: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, page: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(page % n) as usize]
    }

    fn probe(&mut self, page: u64) -> CacheOutcome {
        let ways = self.ways;
        let set = self.set(page);
        let outcome = match set.iter().position(|&t| t == page) {
            Some(i) => {
                set.remove(i);
                CacheOutcome::Hit
            }
            None => {
                if set.len() == ways {
                    set.remove(0);
                }
                CacheOutcome::Miss
            }
        };
        set.push(page);
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Miss => self.misses += 1,
        }
        outcome
    }

    fn invalidate(&mut self, page: u64) {
        self.set(page).retain(|&t| t != page);
    }
}

fn spec(ways: usize, sets: usize) -> CacheFilterSpec {
    CacheFilterSpec {
        capacity_bytes: (ways * sets) as u64 * 4096,
        ways,
        line_bytes: 4096,
        hit_latency_ns: 1,
        hit_bw_bytes_per_ns: 100.0,
    }
}

fn gen_case(rng: &mut Rng) -> Case {
    let ways = *rng.choose(&WAYS);
    let sets = *rng.choose(&SETS);
    let lines = (ways * sets) as u64;
    // A page window a few times the capacity, so sets conflict and ranges
    // overlap; sometimes far from page 0.
    let base = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1, 1 << 40)
    };
    let window = 6 * lines + 8;
    let range = |rng: &mut Rng| {
        // From one page up to 4x the line count, biased towards the
        // mid-size ranges that mix hits with closed-form sets.
        let max = 4 * lines;
        let count = match rng.gen_usize(0, 3) {
            0 => rng.gen_range(1, sets as u64 + 2),
            1 => rng.gen_range(1, 2 * lines + 1),
            _ => rng.gen_range(1, max + 1),
        };
        (base + rng.gen_range(0, window), count)
    };
    let mut ops: Vec<Op> = Vec::new();
    for _ in 0..rng.gen_usize(1, 24) {
        let op = match rng.gen_usize(0, 16) {
            0..=3 => Op::Probe(base + rng.gen_range(0, window)),
            4..=9 => {
                let (first, count) = range(rng);
                Op::ProbeRange(first, count)
            }
            10..=12 => {
                // Re-read an earlier range, or part of it, while it is
                // partly or wholly resident.
                let earlier: Vec<(u64, u64)> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::ProbeRange(f, c) => Some((f, c)),
                        _ => None,
                    })
                    .collect();
                if earlier.is_empty() {
                    let (first, count) = range(rng);
                    Op::ProbeRange(first, count)
                } else {
                    let (f, c) = *rng.choose(&earlier);
                    let skip = if rng.gen_bool(0.5) {
                        0
                    } else {
                        rng.gen_range(0, c)
                    };
                    Op::ProbeRange(f + skip, rng.gen_range(1, c - skip + 1))
                }
            }
            13 => Op::Invalidate(base + rng.gen_range(0, window)),
            14 => {
                let (first, count) = range(rng);
                Op::InvalidateRange(first, count)
            }
            _ => Op::Flush,
        };
        ops.push(op);
    }
    Case { ways, sets, ops }
}

/// Shrink by dropping operations and halving range extents.
fn shrink_case(c: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for i in 0..c.ops.len() {
        if c.ops.len() > 1 {
            let mut t = c.clone();
            t.ops.remove(i);
            out.push(t);
        }
    }
    for i in 0..c.ops.len() {
        let halved = match c.ops[i] {
            Op::ProbeRange(f, n) if n > 1 => Op::ProbeRange(f, n / 2),
            Op::InvalidateRange(f, n) if n > 1 => Op::InvalidateRange(f, n / 2),
            _ => continue,
        };
        let mut t = c.clone();
        t.ops[i] = halved;
        out.push(t);
    }
    out
}

#[test]
fn cache_filter_is_a_textbook_lru_over_many_geometries() {
    check(
        "cache_filter_is_a_textbook_lru_over_many_geometries",
        gen_case,
        shrink_case,
        |c| {
            let mut cache = CacheFilter::new(spec(c.ways, c.sets));
            prop_assert_eq!(cache.spec().sets(), c.sets);
            let mut lru = Lru::new(c.ways, c.sets);
            for (i, op) in c.ops.iter().enumerate() {
                match *op {
                    Op::Probe(p) => {
                        prop_assert_eq!(cache.probe(p), lru.probe(p), "op {i}: probe({p})");
                    }
                    Op::ProbeRange(first, count) => {
                        let range = PageRange::new(first, count);
                        let got = cache.probe_range(range);
                        let hit_pages: Vec<u64> = range
                            .iter()
                            .filter(|&p| lru.probe(p) == CacheOutcome::Hit)
                            .collect();
                        prop_assert_eq!(&got.hit_pages, &hit_pages, "op {i}: hit pages of {range}");
                        prop_assert_eq!(
                            got.misses,
                            count - hit_pages.len() as u64,
                            "op {i}: misses of {range}"
                        );
                    }
                    Op::Invalidate(p) => {
                        cache.invalidate(p);
                        lru.invalidate(p);
                    }
                    Op::InvalidateRange(first, count) => {
                        let range = PageRange::new(first, count);
                        cache.invalidate_range(range);
                        for p in range.iter() {
                            lru.invalidate(p);
                        }
                    }
                    Op::Flush => {
                        cache.flush();
                        lru.sets.iter_mut().for_each(Vec::clear);
                    }
                }
                prop_assert_eq!(cache.hits(), lru.hits, "op {i}: hit counter");
                prop_assert_eq!(cache.misses(), lru.misses, "op {i}: miss counter");
                for (s, expect) in lru.sets.iter().enumerate() {
                    let resident: Vec<u64> = cache.resident_in_set(s).collect();
                    prop_assert_eq!(&resident, expect, "op {i}: residency of set {s}");
                }
            }
            Ok(())
        },
    );
}
