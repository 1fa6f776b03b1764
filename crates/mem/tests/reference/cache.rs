//! The cache as the simulator kept it before the generation flush:
//! array-of-structs lines written one by one at construction, and a
//! `flush` that walks every line of a cache anything was installed in
//! since its last flush (`touched`). Test-only oracle for
//! `tests/cache_equiv.rs`; the set index divides directly where the
//! crate multiplies by a reciprocal (`Divisor`, exact in range).

use std::collections::HashMap;
use tcsim_mem::{CacheConfig, CacheStats, Lookup};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    sectors_valid: u8,
    sectors_dirty: u8,
    last_use: u64,
    valid: bool,
}

#[derive(Clone, Copy, Debug)]
struct LineSlot {
    tag: u64,
    index: usize,
    present: bool,
}

impl LineSlot {
    const NONE: LineSlot = LineSlot {
        tag: u64::MAX,
        index: 0,
        present: false,
    };
}

/// The parent's sectored, LRU, write-back (or write-through) cache.
#[derive(Clone, Debug)]
pub struct OracleCache {
    cfg: CacheConfig,
    line_shift: u32,
    sector_shift: u32,
    lines: Vec<Line>,
    mshrs: HashMap<u64, u64>,
    stats: CacheStats,
    touched: bool,
}

impl OracleCache {
    pub fn new(cfg: CacheConfig) -> OracleCache {
        OracleCache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sector_shift: cfg.sector_bytes.trailing_zeros(),
            lines: vec![Line::default(); cfg.sets * cfg.ways],
            mshrs: HashMap::new(),
            stats: CacheStats::default(),
            touched: false,
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn mshr_count(&self) -> usize {
        self.mshrs.len()
    }

    /// The set `addr` maps to.
    pub fn set_index(&self, addr: u64) -> usize {
        let line = addr >> self.line_shift;
        let sets = self.cfg.sets as u64;
        ((line ^ (line / sets)) % sets) as usize
    }

    fn sector_bit(&self, addr: u64) -> u8 {
        let within = (addr & (self.cfg.line_bytes - 1)) >> self.sector_shift;
        1u8 << within
    }

    fn sector_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.sector_bytes - 1)
    }

    fn locate(&self, slot: &mut LineSlot, addr: u64) {
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
        // Victim: invalid way first, else LRU; the first of equals.
        let mut least = (true, u64::MAX);
        for (way, line) in self.lines[first..][..self.cfg.ways].iter().enumerate() {
            if line.valid && line.tag == tag {
                slot.index = first + way;
                slot.present = true;
                return;
            }
            if way == 0 || (line.valid, line.last_use) < least {
                least = (line.valid, line.last_use);
                slot.index = first + way;
            }
        }
    }

    pub fn lookup(&mut self, addr: u64, is_store: bool, now: u64) -> Lookup {
        let mut slot = LineSlot::NONE;
        self.locate(&mut slot, addr);
        let sector = self.sector_bit(addr);
        let line = &mut self.lines[slot.index];
        if slot.present && line.sectors_valid & sector != 0 {
            line.last_use = now;
            if is_store && self.cfg.write_allocate {
                line.sectors_dirty |= sector;
            }
            self.stats.hits += 1;
            return Lookup::Hit {
                ready_at: now + self.cfg.hit_latency,
            };
        }
        if is_store && !self.cfg.write_allocate {
            self.stats.misses += 1;
            return Lookup::Miss;
        }
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

    pub fn start_fill(&mut self, addr: u64, fill_at: u64) {
        self.mshrs.insert(self.sector_addr(addr), fill_at);
        self.touched = true;
    }

    pub fn fill(&mut self, addr: u64, now: u64, mark_dirty: bool) -> bool {
        let mut slot = LineSlot::NONE;
        self.locate(&mut slot, addr);
        if !self.mshrs.is_empty() {
            self.mshrs.remove(&self.sector_addr(addr));
        }
        self.touched = true;
        let sector = self.sector_bit(addr);
        let line = &mut self.lines[slot.index];
        if slot.present {
            line.sectors_valid |= sector;
            if mark_dirty {
                line.sectors_dirty |= sector;
            }
            line.last_use = now;
            return false;
        }
        let evicted_dirty = line.valid && line.sectors_dirty != 0;
        *line = Line {
            tag: slot.tag,
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
