//! Processor cache filter.
//!
//! The paper's OS-level profiling counts accesses that reach *main memory*,
//! i.e. after filtering by the processor cache hierarchy (Section III-A:
//! "OS allows us to track memory accesses filtered by processor caches").
//! To reproduce that distinction without simulating a real cache hierarchy,
//! accesses pass through a page-granular set-associative LRU filter: hits are
//! served at cache speed and are invisible to the page-access profiler,
//! misses go to the backing tier and are counted.

use crate::{Ns, PageRange};

/// Configuration of the [`CacheFilter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheFilterSpec {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes; the filter tracks whole pages, so this is the
    /// page size it was built for.
    pub line_bytes: u64,
    /// Hit latency in nanoseconds.
    pub hit_latency_ns: Ns,
    /// Hit bandwidth in bytes per nanosecond.
    pub hit_bw_bytes_per_ns: f64,
}

impl CacheFilterSpec {
    /// A CPU last-level cache: 32 MiB, 16-way, 4 KiB page lines.
    #[must_use]
    pub fn cpu_l3() -> Self {
        CacheFilterSpec {
            capacity_bytes: 32 << 20,
            ways: 16,
            line_bytes: 4096,
            hit_latency_ns: 20,
            hit_bw_bytes_per_ns: 200.0,
        }
    }

    /// A GPU L2 cache: 6 MiB, 16-way, 4 KiB page lines.
    #[must_use]
    pub fn gpu_l2() -> Self {
        CacheFilterSpec {
            capacity_bytes: 6 << 20,
            ways: 16,
            line_bytes: 4096,
            hit_latency_ns: 10,
            hit_bw_bytes_per_ns: 2000.0,
        }
    }

    /// Number of sets implied by capacity, ways and line size.
    #[must_use]
    pub fn sets(&self) -> usize {
        let lines = (self.capacity_bytes / self.line_bytes).max(1) as usize;
        (lines / self.ways.max(1)).max(1)
    }
}

/// Result of probing the cache filter for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The page was resident; the access never reaches main memory.
    Hit,
    /// The page was not resident; the access reaches main memory and the
    /// page is now cached.
    Miss,
}

/// Tag of an empty way. No page of a [`PageRange`] can be `u64::MAX` (the
/// range's end would overflow), so an empty way never matches a probe.
const EMPTY: u64 = u64::MAX;

/// Outcome of a batched [`CacheFilter::probe_range`].
///
/// Equivalent to probing every page of the range in ascending order: the
/// counters and final cache state are identical, but each set that receives
/// several pages of the range is resolved in closed form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeProbe {
    /// Pages of the range that hit, in ascending order. Hits are bounded by
    /// the cache's line count, so this stays small even for huge ranges.
    pub hit_pages: Vec<u64>,
    /// Number of pages that missed (`range.count - hit_pages.len()`).
    pub misses: u64,
}

impl RangeProbe {
    /// Number of pages that hit.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hit_pages.len() as u64
    }
}

/// A page-granular set-associative LRU cache filter.
///
/// Each set keeps its tags in recency order: empty ways first, then the
/// least recently used line, up to the most recently used line last. A hit
/// moves its line to the back; a miss drops the front way (an empty way or
/// the LRU victim) and installs the page at the back.
///
/// ```
/// use sentinel_mem::{CacheFilter, CacheFilterSpec, CacheOutcome};
///
/// let mut cache = CacheFilter::new(CacheFilterSpec::cpu_l3());
/// assert_eq!(cache.probe(42), CacheOutcome::Miss);
/// assert_eq!(cache.probe(42), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheFilter {
    spec: CacheFilterSpec,
    sets: usize,
    ways: usize,
    /// `sets × ways` tags, set-major, each set in recency order.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl CacheFilter {
    /// Build an empty cache for `spec`.
    #[must_use]
    pub fn new(spec: CacheFilterSpec) -> Self {
        let sets = spec.sets();
        let ways = spec.ways.max(1);
        CacheFilter {
            spec,
            sets,
            ways,
            tags: vec![EMPTY; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built from.
    #[must_use]
    pub fn spec(&self) -> &CacheFilterSpec {
        &self.spec
    }

    fn set_of(&self, page: u64) -> usize {
        (page % self.sets as u64) as usize
    }

    fn ways_of_mut(&mut self, set: usize) -> &mut [u64] {
        &mut self.tags[set * self.ways..(set + 1) * self.ways]
    }

    /// Probe (and update) the cache for a page, returning hit or miss.
    /// A miss installs the page, evicting the set's LRU victim.
    ///
    /// # Panics
    /// If `page` is `u64::MAX`, which no [`PageRange`] can contain.
    pub fn probe(&mut self, page: u64) -> CacheOutcome {
        assert_ne!(page, EMPTY, "page u64::MAX is not addressable");
        let set = self.set_of(page);
        let outcome = touch(self.ways_of_mut(set), page);
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Miss => self.misses += 1,
        }
        outcome
    }

    /// Probe every page of a contiguous range, batched.
    ///
    /// Counters and final cache state are identical to calling
    /// [`CacheFilter::probe`] for each page in ascending order (the
    /// equivalence property suites enforce this). Sets are independent, and
    /// the range's pages in one set form an arithmetic progression, so the
    /// range resolves set by set (see `probe_set`), in `O(ways)` plus its
    /// hits per set, however many pages a set receives.
    pub fn probe_range(&mut self, range: PageRange) -> RangeProbe {
        let sets = self.sets as u64;
        let ways = self.ways;
        // With at most one page per set, hits come out in page order.
        // Otherwise they come out set by set; they all lie in the range's
        // first `lines` pages (see `probe_set`), so a bitmap over those
        // offsets puts them back in order.
        let in_order = range.count <= sets;
        let mut bitmap = if in_order {
            Vec::new()
        } else {
            vec![0u64; range.count.min(self.tags.len() as u64).div_ceil(64) as usize]
        };
        let mut hit_pages = Vec::new();
        let mut set_hits = Vec::with_capacity(ways);
        let mut set = self.set_of(range.first);
        // Page `first + j`, for `j < min(count, sets)`, opens the
        // progression of one set; the first `count % sets` of them get one
        // page more than the rest.
        let (per_set, extra) = (range.count / sets, range.count % sets);
        for j in 0..range.count.min(sets) {
            let first_p = range.first + j;
            let k = per_set + u64::from(j < extra);
            let slots = &mut self.tags[set * ways..(set + 1) * ways];
            set = if set + 1 == self.sets { 0 } else { set + 1 };
            set_hits.clear();
            // Both presets are 16-way; a fixed-length view lets the compiler
            // unroll the per-set loops.
            if let Ok(fixed) = <&mut [u64; 16]>::try_from(&mut *slots) {
                probe_set(fixed, range, first_p, k, sets, &mut set_hits);
            } else {
                probe_set(slots, range, first_p, k, sets, &mut set_hits);
            }
            for &p in &set_hits {
                if in_order {
                    hit_pages.push(p);
                } else {
                    let off = p - range.first;
                    bitmap[(off / 64) as usize] |= 1 << (off % 64);
                }
            }
        }
        for (w, &word) in bitmap.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                hit_pages.push(range.first + w as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        let out = RangeProbe {
            misses: range.count - hit_pages.len() as u64,
            hit_pages,
        };
        self.hits += out.hits();
        self.misses += out.misses;
        out
    }

    /// Invalidate a page (e.g. after it is unmapped or migrated).
    pub fn invalidate(&mut self, page: u64) {
        let set = self.set_of(page);
        let slots = self.ways_of_mut(set);
        if let Some(i) = slots.iter().position(|&t| t == page) {
            slots.copy_within(..i, 1);
            slots[0] = EMPTY;
        }
    }

    /// Invalidate every page of a range. For ranges wider than the cache it
    /// sweeps the sets once instead of probing set-by-set per page; the
    /// final state is identical either way.
    pub fn invalidate_range(&mut self, range: PageRange) {
        if range.count as usize >= self.tags.len() {
            for slots in self.tags.chunks_exact_mut(self.ways) {
                compact(slots, |t| !range.contains(t));
            }
        } else {
            for p in range.iter() {
                self.invalidate(p);
            }
        }
    }

    /// Drop all cached pages.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Pages resident in `set` (a page's set is `page % spec().sets()`),
    /// least recently used first.
    pub fn resident_in_set(&self, set: usize) -> impl Iterator<Item = u64> + '_ {
        self.tags[set * self.ways..(set + 1) * self.ways]
            .iter()
            .copied()
            .filter(|&t| t != EMPTY)
    }

    /// Hits observed so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Time to serve `bytes` from the cache on a hit.
    #[must_use]
    pub fn hit_time_ns(&self, bytes: u64) -> Ns {
        self.spec.hit_latency_ns + (bytes as f64 / self.spec.hit_bw_bytes_per_ns).ceil() as Ns
    }
}

/// Probe one set's recency-ordered ways for `page`. A hit moves the line to
/// the back; a miss drops the front way and installs `page` at the back.
#[inline(always)]
fn touch(slots: &mut [u64], page: u64) -> CacheOutcome {
    let (from, outcome) = match slots.iter().rposition(|&t| t == page) {
        Some(j) => (j, CacheOutcome::Hit),
        None => (0, CacheOutcome::Miss),
    };
    slots.copy_within(from + 1.., from);
    slots[slots.len() - 1] = page;
    outcome
}

/// Probe the `k` pages `first_p, first_p + sets, ...` of `range` that fall
/// into one set, and push the pages that hit.
///
/// One page is probed as such. More resolve in closed form:
///
/// * Every probed page ends up at the back of the set in probe order, hit
///   or miss, so the set finishes as its old lines that did not hit, then
///   the progression, truncated to `ways` from the front.
/// * Only an old line whose page lies in the range can hit: pages of a
///   range are distinct, so a page the range installs is never probed
///   again. Such a line at way `pos` (front = 0) moves one way towards the
///   front on every earlier probe of the set, except a hit on a line behind
///   it, and is evicted once it would pass the front. Its page, `row` pages
///   into the progression, therefore hits iff
///   `row <= pos + (earlier hits behind it)`. Deciding from the back, those
///   hits are already known. Since `pos + hits behind < ways`, every hit
///   lies within the range's first `sets * ways` pages.
#[inline(always)]
fn probe_set(
    slots: &mut [u64],
    range: PageRange,
    first_p: u64,
    k: u64,
    sets: u64,
    hits: &mut Vec<u64>,
) {
    if k == 1 {
        if touch(slots, first_p) == CacheOutcome::Hit {
            hits.push(first_p);
        }
        return;
    }
    let ways = slots.len();
    for pos in (0..ways).rev() {
        let page = slots[pos];
        // Every tag of this set lies on the progression's stride, so
        // being inside the range means being one of its pages (an empty
        // way's tag is past any range's end).
        if page.wrapping_sub(range.first) >= range.count {
            continue;
        }
        let behind = hits.iter().filter(|&&h| h < page).count();
        if page - first_p <= (pos + behind) as u64 * sets {
            hits.push(page);
            slots[pos] = EMPTY;
        }
    }
    let m = k.min(ways as u64) as usize;
    if !hits.is_empty() && m < ways {
        compact(slots, |t| t != EMPTY);
    }
    slots.copy_within(m.., 0);
    let last = first_p + (k - 1) * sets;
    for (back, slot) in slots.iter_mut().rev().take(m).enumerate() {
        *slot = last - back as u64 * sets;
    }
}

/// Keep the tags of a set that satisfy `keep`, in order, at the back, and
/// empty the ways in front of them.
#[inline(always)]
fn compact(slots: &mut [u64], keep: impl Fn(u64) -> bool) {
    let mut w = slots.len();
    for r in (0..slots.len()).rev() {
        if keep(slots[r]) {
            w -= 1;
            slots[w] = slots[r];
        }
    }
    slots[..w].fill(EMPTY);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CacheFilterSpec {
        // 4 lines total: 2 sets × 2 ways of 4 KiB lines.
        CacheFilterSpec {
            capacity_bytes: 4 * 4096,
            ways: 2,
            line_bytes: 4096,
            hit_latency_ns: 1,
            hit_bw_bytes_per_ns: 100.0,
        }
    }

    #[test]
    fn second_access_hits() {
        let mut c = CacheFilter::new(tiny_spec());
        assert_eq!(c.probe(7), CacheOutcome::Miss);
        assert_eq!(c.probe(7), CacheOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        let mut c = CacheFilter::new(tiny_spec());
        // Pages 0, 2, 4 map to set 0 (2 sets).
        c.probe(0);
        c.probe(2);
        c.probe(0); // refresh 0 → LRU victim is 2
        c.probe(4); // evicts 2
        assert_eq!(c.probe(0), CacheOutcome::Hit);
        assert_eq!(c.probe(2), CacheOutcome::Miss);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut c = CacheFilter::new(tiny_spec());
        c.probe(9);
        c.invalidate(9);
        assert_eq!(c.probe(9), CacheOutcome::Miss);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = CacheFilter::new(tiny_spec());
        for p in 0..4 {
            c.probe(p);
        }
        c.flush();
        for p in 0..4 {
            assert_eq!(c.probe(p), CacheOutcome::Miss);
        }
    }

    #[test]
    fn sets_computation_floors_to_one() {
        let spec = CacheFilterSpec { capacity_bytes: 4096, ways: 16, line_bytes: 4096, hit_latency_ns: 1, hit_bw_bytes_per_ns: 1.0 };
        assert_eq!(spec.sets(), 1);
    }

    #[test]
    fn hit_time_scales() {
        let c = CacheFilter::new(tiny_spec());
        assert_eq!(c.hit_time_ns(100), 2);
        assert!(c.hit_time_ns(10_000) > c.hit_time_ns(100));
    }

    /// Probe `range` page-by-page on one filter and batched on a clone; both
    /// counters and the full internal state must be identical.
    fn assert_probe_equivalent(reference: &mut CacheFilter, range: PageRange) {
        let mut batched = reference.clone();
        let mut ref_probe = RangeProbe::default();
        for p in range.iter() {
            match reference.probe(p) {
                CacheOutcome::Hit => ref_probe.hit_pages.push(p),
                CacheOutcome::Miss => ref_probe.misses += 1,
            }
        }
        let got = batched.probe_range(range);
        assert_eq!(got, ref_probe, "probe outcome diverged for {range}");
        assert_eq!(&mut batched, reference, "cache state diverged for {range}");
    }

    #[test]
    fn probe_range_matches_per_page_small_and_large() {
        // Warm the filter with a stride pattern, then probe ranges around,
        // inside and far beyond the 4-line capacity (sets that receive two
        // or more pages resolve in closed form from 3 pages up).
        for warm_stride in [1u64, 2, 3, 7] {
            let mut c = CacheFilter::new(tiny_spec());
            for i in 0..6 {
                c.probe(3 + i * warm_stride);
            }
            for range in [
                PageRange::new(0, 1),
                PageRange::new(2, 5),
                PageRange::new(0, 8),
                PageRange::new(1, 9),
                PageRange::new(3, 40),
                PageRange::new(0, 64),
                PageRange::new(5, 33),
                PageRange::empty(),
            ] {
                assert_probe_equivalent(&mut c, range);
            }
        }
    }

    #[test]
    fn probe_range_counts_a_hit_behind_an_older_line() {
        // One set of 2 ways holding [7, 6] (7 least recent). Probing 6
        // then 7 hits both: the hit on 6, behind 7, does not move 7 towards
        // eviction.
        let spec = CacheFilterSpec {
            capacity_bytes: 2 * 4096,
            ways: 2,
            ..tiny_spec()
        };
        let mut c = CacheFilter::new(spec);
        c.probe(7);
        c.probe(6);
        let probe = c.clone().probe_range(PageRange::new(6, 2));
        assert_eq!(probe.hit_pages, vec![6, 7]);
        assert_probe_equivalent(&mut c, PageRange::new(6, 2));
        assert_eq!(c.resident_in_set(0).collect::<Vec<_>>(), vec![6, 7]);
    }

    #[test]
    fn probe_range_bypass_counts_compulsory_misses() {
        let mut c = CacheFilter::new(tiny_spec());
        // 64 cold pages over a 4-line cache: all miss, and afterwards the
        // last pages of each set progression are resident.
        let probe = c.probe_range(PageRange::new(0, 64));
        assert_eq!(probe.hits(), 0);
        assert_eq!(probe.misses, 64);
        assert_eq!(c.misses(), 64);
        // Re-probing the final pages hits (2 sets × 2 ways: 60..64).
        assert_eq!(c.probe(63), CacheOutcome::Hit);
        assert_eq!(c.probe(0), CacheOutcome::Miss);
    }

    #[test]
    fn invalidate_range_matches_per_page() {
        for count in [3u64, 8, 64] {
            let mut a = CacheFilter::new(tiny_spec());
            for p in 0..10 {
                a.probe(p);
            }
            let mut b = a.clone();
            a.invalidate_range(PageRange::new(2, count));
            for p in 2..2 + count {
                b.invalidate(p);
            }
            assert_eq!(a, b);
        }
    }
}

sentinel_util::impl_to_json!(CacheFilterSpec {
    capacity_bytes,
    ways,
    line_bytes,
    hit_latency_ns,
    hit_bw_bytes_per_ns,
});
