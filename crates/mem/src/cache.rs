//! Set-associative, sectored cache with MSHR merging — the building block
//! for the L1D and L2 models (GPGPU-Sim-style).

use std::collections::HashMap;

/// Geometry and latency of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (128 on Volta).
    pub line_bytes: u64,
    /// Sector size in bytes (32 on Volta); fills happen per sector.
    pub sector_bytes: u64,
    /// Cycles from access to data return on a hit.
    pub hit_latency: u64,
    /// Whether stores allocate (L2) or write through without allocating
    /// (Volta L1).
    pub write_allocate: bool,
}

impl CacheConfig {
    /// Volta-style L1 data cache (combined L1/shared carve-out) of `kib`
    /// KiB: 4 ways of 128-byte lines, so `kib * 2` sets — 256 sets × 4
    /// ways at the full 128 KiB.
    pub fn l1(kib: usize) -> CacheConfig {
        let lines = kib * 1024 / 128;
        CacheConfig {
            sets: lines / 4,
            ways: 4,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 28,
            write_allocate: false,
        }
    }

    /// One L2 partition slice of `kib` kibibytes, 16-way.
    pub fn l2_slice(kib: usize) -> CacheConfig {
        let lines = kib * 1024 / 128;
        CacheConfig {
            sets: (lines / 16).max(1),
            ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 90,
            write_allocate: true,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.line_bytes
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sector accesses that hit.
    pub hits: u64,
    /// Sector accesses that missed and caused a fill request.
    pub misses: u64,
    /// Misses merged into an outstanding MSHR entry.
    pub mshr_merges: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.mshr_merges
    }

    /// Miss rate over all accesses (merges count as misses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            (self.misses + self.mshr_merges) as f64 / self.accesses() as f64
        }
    }

    /// Counters accumulated since the `before` snapshot of the same
    /// cache — the per-launch delta between two cumulative readings.
    pub fn delta_since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            mshr_merges: self.mshr_merges - before.mshr_merges,
            writebacks: self.writebacks - before.writebacks,
        }
    }
}

/// Division by a number fixed when the cache or memory system is built
/// (a set or partition count, rarely a power of two) without a hardware
/// divide per access: for `2 <= d <= 2^16` and `n < 2^48`,
/// `n / d == (n * ceil(2^64 / d)) >> 64` exactly — the product is off
/// from `n * 2^64 / d` by less than `n * d <= 2^64`. Anything outside
/// that range divides the slow way.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Divisor {
    d: u64,
    /// `ceil(2^64 / d)`, or 0 when `d` is outside the fast range.
    magic: u64,
}

impl Divisor {
    pub(crate) fn new(d: u64) -> Divisor {
        assert!(d > 0, "division by zero");
        let magic = if (2..=1 << 16).contains(&d) {
            u64::MAX / d + 1
        } else {
            0
        };
        Divisor { d, magic }
    }

    /// `(n / d, n % d)`.
    pub(crate) fn div_rem(&self, n: u64) -> (u64, u64) {
        let q = if self.magic != 0 && n < 1 << 48 {
            ((n as u128 * self.magic as u128) >> 64) as u64
        } else {
            n / self.d
        };
        (q, n - q * self.d)
    }
}

/// One way: `[TAG, LAST_USE, STATE]`. Plain words, so that a new cache
/// is one zeroed allocation rather than a write per line.
type Line = [u64; 3];
/// Line number (`addr / line_bytes`) of the line the way holds or held.
const TAG: usize = 0;
/// Cycle of the last fill or hit.
const LAST_USE: usize = 1;
/// The generation the line was installed in (bits 32..64), its dirty
/// sectors (8..16) and its valid sectors (0..8). Only a line of the
/// cache's current generation is valid; the sector bits of any other
/// read as none.
const STATE: usize = 2;
/// Where the dirty-sector bits start in `STATE`.
const DIRTY_SHIFT: u32 = 8;

/// The outcome of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Data available at the given cycle.
    Hit {
        /// Cycle at which the data returns.
        ready_at: u64,
    },
    /// Sector must be fetched from the next level; an MSHR was allocated.
    Miss,
    /// Sector already being fetched; data ready when the earlier fill
    /// lands.
    MshrHit {
        /// Cycle the outstanding fill completes.
        ready_at: u64,
    },
}

/// Where a line lives in its set, or would be installed: what one scan
/// of the set finds out. [`Cache::lookup_at`] and [`Cache::fill_at`] take
/// it, so a miss is not scanned for again by its fill and the (up to
/// four) sectors of a line share one scan. It stays good while nothing
/// but lookups and fills of this very line touch the cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineSlot {
    /// Line number (`addr / line_bytes`).
    tag: u64,
    /// Index into `Cache::lines`: the way holding the line when
    /// `present`, else the victim (an invalid way first, else the LRU).
    index: usize,
    present: bool,
}

impl LineSlot {
    /// No line: every address relocates.
    pub(crate) const NONE: LineSlot = LineSlot {
        tag: u64::MAX,
        index: 0,
        present: false,
    };
}

/// A sectored, LRU, write-back (or write-through) cache.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2` of the line and sector sizes, and the set count as a
    /// divisor: no address arithmetic on the access path divides.
    line_shift: u32,
    sector_shift: u32,
    sets: Divisor,
    /// Every line in one allocation: set `s` is `lines[s * ways..][..ways]`.
    lines: Vec<Line>,
    mshrs: HashMap<u64, u64>, // sector addr → fill completion cycle
    stats: CacheStats,
    /// The generation lines installed now belong to, `1..=u32::MAX`;
    /// [`Cache::flush`] moves on to the next, which invalidates every
    /// line at once. A zeroed line is of generation 0: never valid.
    generation: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless line and sector sizes are powers of two with at most
    /// eight sectors to the line.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two()
                && cfg.sector_bytes.is_power_of_two()
                && cfg.sector_bytes <= cfg.line_bytes
                && cfg.line_bytes / cfg.sector_bytes <= 8,
            "{cfg:?}: line and sector sizes must be powers of two, at most 8 sectors per line"
        );
        assert!(cfg.ways > 0, "{cfg:?}: non-zero associativity");
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sector_shift: cfg.sector_bytes.trailing_zeros(),
            sets: Divisor::new(cfg.sets as u64),
            lines: vec![[0; 3]; cfg.sets * cfg.ways],
            mshrs: HashMap::new(),
            stats: CacheStats::default(),
            generation: 1,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Outstanding fills.
    pub fn mshr_count(&self) -> usize {
        self.mshrs.len()
    }

    fn set_index(&self, addr: u64) -> usize {
        let line = addr >> self.line_shift;
        // Simple XOR-fold index hash to spread power-of-two strides.
        let (fold, _) = self.sets.div_rem(line);
        self.sets.div_rem(line ^ fold).1 as usize
    }

    fn sector_bit(&self, addr: u64) -> u64 {
        let within = (addr & (self.cfg.line_bytes - 1)) >> self.sector_shift;
        1 << within
    }

    /// Whether `line` belongs to the current generation, i.e. is valid.
    fn is_current(&self, line: &Line) -> bool {
        line[STATE] >> 32 == self.generation
    }

    fn sector_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.sector_bytes - 1)
    }

    /// Makes `slot` the slot of the line containing `addr`: kept if it
    /// already is that line's, else found by one scan of the set.
    pub(crate) fn locate(&self, slot: &mut LineSlot, addr: u64) {
        let tag = addr >> self.line_shift;
        if slot.tag == tag {
            return;
        }
        let first = self.set_index(addr) * self.cfg.ways;
        *slot = LineSlot {
            tag,
            index: first,
            present: false,
        };
        // Victim: an invalid way first, else the LRU; among either, the
        // least `last_use` (an invalid way keeps the one it was last used
        // at) and the first of equals.
        let mut least = (true, u64::MAX);
        for (way, line) in self.lines[first..][..self.cfg.ways].iter().enumerate() {
            let valid = self.is_current(line);
            if valid && line[TAG] == tag {
                slot.index = first + way;
                slot.present = true;
                return;
            }
            if way == 0 || (valid, line[LAST_USE]) < least {
                least = (valid, line[LAST_USE]);
                slot.index = first + way;
            }
        }
    }

    /// Probes the cache for the sector containing `addr` at cycle `now`.
    ///
    /// On `Miss` the caller must fetch from the next level and call
    /// [`Cache::fill`] with the completion time.
    pub fn lookup(&mut self, addr: u64, is_store: bool, now: u64) -> Lookup {
        let mut slot = LineSlot::NONE;
        self.locate(&mut slot, addr);
        self.lookup_at(&slot, addr, is_store, now)
    }

    /// [`Cache::lookup`] of a sector of the line `slot` was located for.
    pub(crate) fn lookup_at(
        &mut self,
        slot: &LineSlot,
        addr: u64,
        is_store: bool,
        now: u64,
    ) -> Lookup {
        debug_assert_eq!(slot.tag, addr >> self.line_shift);
        let sector = self.sector_bit(addr);
        let line = &mut self.lines[slot.index];
        // `present` means current generation: the sector bits hold.
        if slot.present && line[STATE] & sector != 0 {
            line[LAST_USE] = now;
            // A store hit in a write-through no-allocate cache updates
            // data (functional state lives elsewhere) and dirties nothing.
            if is_store && self.cfg.write_allocate {
                line[STATE] |= sector << DIRTY_SHIFT;
            }
            self.stats.hits += 1;
            return Lookup::Hit {
                ready_at: now + self.cfg.hit_latency,
            };
        }
        if is_store && !self.cfg.write_allocate {
            // Write-through no-allocate store miss: forwarded below without
            // an MSHR.
            self.stats.misses += 1;
            return Lookup::Miss;
        }
        // The shipped hierarchy fills in the same call that missed and
        // never registers the fill, so the table is empty there.
        if !self.mshrs.is_empty() {
            if let Some(&fill) = self.mshrs.get(&self.sector_addr(addr)) {
                self.stats.mshr_merges += 1;
                return Lookup::MshrHit {
                    ready_at: fill.max(now) + 1,
                };
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Registers an outstanding fill for the sector containing `addr`,
    /// completing at `fill_at`.
    pub fn start_fill(&mut self, addr: u64, fill_at: u64) {
        self.mshrs.insert(self.sector_addr(addr), fill_at);
    }

    /// Completes a fill: installs the sector, evicting an LRU victim if
    /// needed. Returns `true` if a dirty line was written back.
    pub fn fill(&mut self, addr: u64, now: u64, mark_dirty: bool) -> bool {
        let mut slot = LineSlot::NONE;
        self.locate(&mut slot, addr);
        self.fill_at(&mut slot, addr, now, mark_dirty)
    }

    /// [`Cache::fill`] of a sector of the line `slot` was located for;
    /// `slot` then says where the line now is.
    pub(crate) fn fill_at(
        &mut self,
        slot: &mut LineSlot,
        addr: u64,
        now: u64,
        mark_dirty: bool,
    ) -> bool {
        debug_assert_eq!(slot.tag, addr >> self.line_shift);
        if !self.mshrs.is_empty() {
            self.mshrs.remove(&self.sector_addr(addr));
        }
        let sector = self.sector_bit(addr);
        let bits = if mark_dirty {
            sector | sector << DIRTY_SHIFT
        } else {
            sector
        };
        let generation = self.generation;
        let line = &mut self.lines[slot.index];
        if slot.present {
            // Existing line: add the sector.
            line[STATE] |= bits;
            line[LAST_USE] = now;
            return false;
        }
        let evicted_dirty =
            line[STATE] >> 32 == generation && line[STATE] & (0xFF << DIRTY_SHIFT) != 0;
        *line = [slot.tag, now, (generation << 32) | bits];
        slot.present = true;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        evicted_dirty
    }

    /// Invalidates everything (kernel-launch boundary) in O(1): the next
    /// generation begins, and every line installed before reads as
    /// invalid, no sector valid or dirty. Tags and `last_use`s stay, so
    /// the victim choice among invalid ways is what it always was. Only
    /// when the generation would wrap onto lines installed 2^32 - 1
    /// flushes ago are the lines walked, once.
    pub fn flush(&mut self) {
        self.mshrs.clear();
        if self.generation == u32::MAX as u64 {
            for line in &mut self.lines {
                line[STATE] = 0;
            }
            self.generation = 0;
        }
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 10,
            write_allocate: true,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100, false, 0), Lookup::Miss);
        c.start_fill(0x100, 50);
        c.fill(0x100, 50, false);
        match c.lookup(0x100, false, 60) {
            Lookup::Hit { ready_at } => assert_eq!(ready_at, 70),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn sectors_fill_independently() {
        let mut c = small();
        assert_eq!(c.lookup(0x100, false, 0), Lookup::Miss);
        c.fill(0x100, 10, false);
        // Same line, different sector: still a miss.
        assert_eq!(c.lookup(0x120, false, 20), Lookup::Miss);
        c.fill(0x120, 30, false);
        assert!(matches!(c.lookup(0x120, false, 40), Lookup::Hit { .. }));
        assert!(matches!(c.lookup(0x100, false, 40), Lookup::Hit { .. }));
    }

    #[test]
    fn mshr_merges_outstanding_sector() {
        let mut c = small();
        assert_eq!(c.lookup(0x200, false, 0), Lookup::Miss);
        c.start_fill(0x200, 100);
        match c.lookup(0x208, false, 5) {
            Lookup::MshrHit { ready_at } => assert_eq!(ready_at, 101),
            other => panic!("expected MSHR hit, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_merges, 1);
        assert_eq!(c.mshr_count(), 1);
        c.fill(0x200, 100, false);
        assert_eq!(c.mshr_count(), 0);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = small();
        // Fill both ways of one set, then a third line evicts the older.
        let set_stride = 128 * 4; // same set every 4 lines (before hashing)
        let a = 0u64;
        // Find three addresses in the same set under the hash.
        let mut same_set = vec![a];
        let set0 = c.set_index(a);
        let mut addr = a + set_stride;
        while same_set.len() < 3 {
            if c.set_index(addr) == set0 {
                same_set.push(addr);
            }
            addr += 128;
        }
        c.fill(same_set[0], 1, false);
        c.fill(same_set[1], 2, false);
        // Touch line 0 so line 1 is LRU.
        assert!(matches!(
            c.lookup(same_set[0], false, 3),
            Lookup::Hit { .. }
        ));
        c.fill(same_set[2], 4, false);
        assert!(matches!(
            c.lookup(same_set[0], false, 5),
            Lookup::Hit { .. }
        ));
        assert_eq!(
            c.lookup(same_set[1], false, 6),
            Lookup::Miss,
            "LRU line evicted"
        );
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let set0 = c.set_index(0);
        let mut same_set = vec![0u64];
        let mut addr = 128;
        while same_set.len() < 3 {
            if c.set_index(addr) == set0 {
                same_set.push(addr);
            }
            addr += 128;
        }
        c.fill(same_set[0], 1, true); // dirty
        c.fill(same_set[1], 2, false);
        c.fill(same_set[2], 3, false); // evicts dirty victim
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_store_miss_does_not_allocate() {
        let mut c = Cache::new(CacheConfig {
            write_allocate: false,
            ..*small().config()
        });
        assert_eq!(c.lookup(0x100, true, 0), Lookup::Miss);
        // Still a miss for loads afterwards (no allocation).
        assert_eq!(c.lookup(0x100, false, 1), Lookup::Miss);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.fill(0x100, 1, false);
        assert!(matches!(c.lookup(0x100, false, 2), Lookup::Hit { .. }));
        c.flush();
        assert_eq!(c.lookup(0x100, false, 3), Lookup::Miss);
    }

    #[test]
    fn flushed_lines_are_clean_and_reflush_still_works() {
        let mut c = small();
        c.flush(); // nothing installed yet
        c.fill(0x100, 1, true);
        c.start_fill(0x200, 9);
        c.flush();
        assert_eq!(c.lookup(0x100, false, 2), Lookup::Miss);
        assert_eq!(c.mshr_count(), 0);
        c.flush();
        c.fill(0x100, 3, false);
        assert!(matches!(c.lookup(0x100, false, 4), Lookup::Hit { .. }));
        // The way still holding the first generation's dirty line is
        // reused without a writeback.
        let set = c.set_index(0x100);
        let others: Vec<u64> = (3..)
            .map(|l| l * 128)
            .filter(|&a| c.set_index(a) == set)
            .take(2)
            .collect();
        for addr in others {
            c.fill(addr, 5, false);
        }
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn lines_stay_invalid_across_the_generation_wrap() {
        let mut c = small();
        // Installed in generation 1; then, as after 2^32 - 2 flushes, the
        // last generation before the wrap.
        c.fill(0x100, 1, true);
        c.generation = u32::MAX as u64;
        assert_eq!(c.lookup(0x100, false, 2), Lookup::Miss);
        c.fill(0x200, 3, true);
        assert!(matches!(c.lookup(0x200, false, 4), Lookup::Hit { .. }));
        c.flush(); // wraps round to generation 1
        assert_eq!(c.generation, 1);
        assert_eq!(
            c.lookup(0x100, false, 5),
            Lookup::Miss,
            "generation 1 again"
        );
        assert_eq!(c.lookup(0x200, false, 6), Lookup::Miss);
        c.fill(0x200, 7, false);
        assert!(matches!(c.lookup(0x200, false, 8), Lookup::Hit { .. }));
        assert_eq!(c.stats().writebacks, 0);
        c.flush();
        assert_eq!(c.lookup(0x200, false, 9), Lookup::Miss);
    }

    #[test]
    fn fill_without_a_registered_mshr_leaves_others_alone() {
        let mut c = small();
        c.fill(0x100, 1, false); // table empty: nothing to remove
        c.start_fill(0x200, 50);
        c.fill(0x300, 2, false); // a different sector stays outstanding
        assert_eq!(c.mshr_count(), 1);
        c.fill(0x200, 50, false);
        assert_eq!(c.mshr_count(), 0);
    }

    #[test]
    fn divisor_agrees_with_hardware_division() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = [0, 1, 2, (1 << 48) - 1, 1 << 48, u64::MAX - 1, u64::MAX];
        for d in [
            1,
            2,
            3,
            24,
            96,
            255,
            256,
            1000,
            65_535,
            65_536,
            65_537,
            1 << 40,
        ] {
            let div = Divisor::new(d);
            // Multiples of `d` and their neighbours are where a rounded
            // reciprocal goes wrong first.
            let near = (0..2000).flat_map(|_| {
                let m = next() % (1 << 48) / d * d;
                [m.saturating_sub(1), m, m + 1, next() >> (next() % 64)]
            });
            for n in edges.into_iter().chain(near) {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    fn a_located_slot_serves_every_sector_of_its_line() {
        // One scan for four sectors and their fills, against a twin
        // driven through `lookup` / `fill`.
        let (mut slotted, mut plain) = (small(), small());
        let mut now = 0;
        for line in [0x1000u64, 0x3000, 0x1000, 0x5000, 0x7000, 0x1000] {
            let mut slot = LineSlot::NONE;
            for addr in (0..4).map(|s| line + 32 * s + 8) {
                now += 3;
                slotted.locate(&mut slot, addr);
                let got = slotted.lookup_at(&slot, addr, addr % 64 < 32, now);
                assert_eq!(got, plain.lookup(addr, addr % 64 < 32, now));
                if got == Lookup::Miss {
                    let wrote_back = slotted.fill_at(&mut slot, addr, now + 40, true);
                    assert_eq!(wrote_back, plain.fill(addr, now + 40, true));
                }
            }
        }
        assert_eq!(slotted.stats(), plain.stats());
        assert!(plain.stats().hits > 0 && plain.stats().writebacks > 0);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn odd_sector_sizes_are_rejected() {
        Cache::new(CacheConfig {
            sector_bytes: 24,
            ..*small().config()
        });
    }

    #[test]
    fn capacity_math() {
        assert_eq!(CacheConfig::l1(128).capacity(), 128 * 1024);
        assert!(CacheConfig::l2_slice(768).capacity() >= 768 * 1024);
    }
}
