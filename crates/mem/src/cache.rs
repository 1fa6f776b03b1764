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
    /// Volta-style 128 KB L1 data cache (combined L1/shared carve-out):
    /// 64 sets × 4 ways... sized by `kib`.
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

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    sectors_valid: u8,
    sectors_dirty: u8,
    last_use: u64,
    valid: bool,
}

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

/// A sectored, LRU, write-back (or write-through) cache.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every line in one allocation: set `s` is `lines[s * ways..][..ways]`.
    lines: Vec<Line>,
    mshrs: HashMap<u64, u64>, // sector addr → fill completion cycle
    stats: CacheStats,
    /// A line was installed or a fill registered since the last flush;
    /// while clear, [`Cache::flush`] has nothing to invalidate.
    touched: bool,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        Cache {
            cfg,
            lines: vec![Line::default(); cfg.sets * cfg.ways],
            mshrs: HashMap::new(),
            stats: CacheStats::default(),
            touched: false,
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
        let line = addr / self.cfg.line_bytes;
        // Simple XOR-fold index hash to spread power-of-two strides.
        ((line ^ (line / self.cfg.sets as u64)) % self.cfg.sets as u64) as usize
    }

    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.cfg.ways..][..self.cfg.ways]
    }

    fn sector_bit(&self, addr: u64) -> u8 {
        let within = (addr % self.cfg.line_bytes) / self.cfg.sector_bytes;
        1u8 << within
    }

    /// Probes the cache for the sector containing `addr` at cycle `now`.
    ///
    /// On `Miss` the caller must fetch from the next level and call
    /// [`Cache::fill`] with the completion time.
    pub fn lookup(&mut self, addr: u64, is_store: bool, now: u64) -> Lookup {
        let tag = addr / self.cfg.line_bytes;
        let sector = self.sector_bit(addr);
        let set = self.set_index(addr);
        // A store hit in a write-through no-allocate cache updates data
        // (functional state lives elsewhere) and dirties nothing.
        let dirties = is_store && self.cfg.write_allocate;
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag && line.sectors_valid & sector != 0 {
                line.last_use = now;
                if dirties {
                    line.sectors_dirty |= sector;
                }
                self.stats.hits += 1;
                return Lookup::Hit {
                    ready_at: now + self.cfg.hit_latency,
                };
            }
        }
        if is_store && !self.cfg.write_allocate {
            // Write-through no-allocate store miss: forwarded below without
            // an MSHR.
            self.stats.misses += 1;
            return Lookup::Miss;
        }
        let sector_addr = addr / self.cfg.sector_bytes * self.cfg.sector_bytes;
        if let Some(&fill) = self.mshrs.get(&sector_addr) {
            self.stats.mshr_merges += 1;
            return Lookup::MshrHit {
                ready_at: fill.max(now) + 1,
            };
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Registers an outstanding fill for the sector containing `addr`,
    /// completing at `fill_at`.
    pub fn start_fill(&mut self, addr: u64, fill_at: u64) {
        let sector_addr = addr / self.cfg.sector_bytes * self.cfg.sector_bytes;
        self.mshrs.insert(sector_addr, fill_at);
        self.touched = true;
    }

    /// Completes a fill: installs the sector, evicting an LRU victim if
    /// needed. Returns `true` if a dirty line was written back.
    pub fn fill(&mut self, addr: u64, now: u64, mark_dirty: bool) -> bool {
        // The shipped hierarchy fills in the same call that missed and
        // never registers the fill, so the table is empty there.
        if !self.mshrs.is_empty() {
            let sector_addr = addr / self.cfg.sector_bytes * self.cfg.sector_bytes;
            self.mshrs.remove(&sector_addr);
        }
        self.touched = true;
        let tag = addr / self.cfg.line_bytes;
        let sector = self.sector_bit(addr);
        let set = self.set_index(addr);
        let lines = self.set_mut(set);
        // Existing line: add the sector.
        for line in lines.iter_mut() {
            if line.valid && line.tag == tag {
                line.sectors_valid |= sector;
                if mark_dirty {
                    line.sectors_dirty |= sector;
                }
                line.last_use = now;
                return false;
            }
        }
        // Victim: invalid way first, else LRU.
        let victim = lines
            .iter_mut()
            .min_by_key(|l| (l.valid, l.last_use))
            .expect("non-zero associativity");
        let evicted_dirty = victim.valid && victim.sectors_dirty != 0;
        *victim = Line {
            tag,
            sectors_valid: sector,
            sectors_dirty: if mark_dirty { sector } else { 0 },
            last_use: now,
            valid: true,
        };
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        evicted_dirty
    }

    /// Invalidates everything (kernel-launch boundary). A cache nothing
    /// was installed in since its last flush is already empty, so this
    /// returns without walking the lines: a launch that used three SMs
    /// does not pay for flushing the other seventy-seven.
    pub fn flush(&mut self) {
        if !self.touched {
            return;
        }
        for line in &mut self.lines {
            line.valid = false;
            line.sectors_valid = 0;
            line.sectors_dirty = 0;
        }
        self.mshrs.clear();
        self.touched = false;
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
    fn flush_of_an_untouched_cache_is_a_no_op_and_reflush_still_works() {
        let mut c = small();
        c.flush(); // never touched
        c.fill(0x100, 1, true);
        c.start_fill(0x200, 9);
        c.flush();
        assert_eq!(c.lookup(0x100, false, 2), Lookup::Miss);
        assert_eq!(c.mshr_count(), 0);
        c.flush(); // untouched again: lookups alone install nothing
        c.fill(0x100, 3, false);
        assert!(matches!(c.lookup(0x100, false, 4), Lookup::Hit { .. }));
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
    fn capacity_math() {
        assert_eq!(CacheConfig::l1(128).capacity(), 128 * 1024);
        assert!(CacheConfig::l2_slice(768).capacity() >= 768 * 1024);
    }
}
