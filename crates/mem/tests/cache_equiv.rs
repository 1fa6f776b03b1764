//! `Cache` against the oracle in `reference/cache.rs` — the cache as it
//! was before the generation flush, full-walk `flush` and all — on
//! random `lookup` / `fill` / `start_fill` / `flush` sequences over small
//! geometries: 1-16 ways, set counts that are not powers of two, one to
//! eight sectors a line, write-allocate on and off. Every `Lookup`, every
//! writeback flag, the `CacheStats` and the MSHR count must agree after
//! every operation. Some flushes are followed at once by a refill of one
//! set at one cycle, so that which invalid way takes a line — the least
//! stale `last_use`, the first of equals — decides later LRU ties.

#[path = "reference/cache.rs"]
mod oracle;

use oracle::OracleCache;
use tcsim_check::rng::XorShift64Star as Rng;
use tcsim_mem::{Cache, CacheConfig, CacheStats, Lookup};

fn random_config(rng: &mut Rng) -> CacheConfig {
    let line_bytes = [64, 128, 256][rng.below(3) as usize];
    CacheConfig {
        sets: [1, 2, 3, 5, 6, 7, 12, 13, 24, 96][rng.below(10) as usize],
        ways: 1 + rng.below(16) as usize,
        line_bytes,
        // One to eight sectors to the line.
        sector_bytes: line_bytes >> rng.below(4),
        hit_latency: 1 + rng.below(100),
        write_allocate: rng.next_bool(),
    }
}

/// The two caches, driven in lockstep.
struct Twins {
    new: Cache,
    old: OracleCache,
}

impl Twins {
    fn check(&self, what: &str) {
        assert_eq!(self.new.stats(), self.old.stats(), "stats after {what}");
        assert_eq!(
            self.new.mshr_count(),
            self.old.mshr_count(),
            "MSHRs after {what}"
        );
    }

    fn lookup(&mut self, addr: u64, is_store: bool, now: u64) -> Lookup {
        let got = self.new.lookup(addr, is_store, now);
        assert_eq!(
            got,
            self.old.lookup(addr, is_store, now),
            "lookup({addr:#x}, store {is_store}, at {now})"
        );
        self.check("lookup");
        got
    }

    fn fill(&mut self, addr: u64, now: u64, dirty: bool) {
        assert_eq!(
            self.new.fill(addr, now, dirty),
            self.old.fill(addr, now, dirty),
            "writeback of fill({addr:#x}, at {now}, dirty {dirty})"
        );
        self.check("fill");
    }

    fn start_fill(&mut self, addr: u64, at: u64) {
        self.new.start_fill(addr, at);
        self.old.start_fill(addr, at);
        self.check("start_fill");
    }

    fn flush(&mut self) {
        self.new.flush();
        self.old.flush();
        self.check("flush");
    }
}

#[test]
fn cache_equals_the_full_walk_oracle() {
    let mut rng = Rng::new(0xCAC4E);
    let mut seen = CacheStats::default();
    let (mut flushes, mut refills) = (0u64, 0u64);
    for _ in 0..400 {
        let cfg = random_config(&mut rng);
        let mut c = Twins {
            new: Cache::new(cfg),
            old: OracleCache::new(cfg),
        };
        // Twice as many lines as the cache holds, plus a few: sets fill,
        // evict and refill.
        let lines = (2 * cfg.sets * cfg.ways + 3) as u64;
        let mut now = 0;
        for _ in 0..300 {
            let addr = rng.below(lines) * cfg.line_bytes + rng.below(cfg.line_bytes);
            // Small steps: equal `last_use`s, and so LRU ties, are common.
            now += rng.below(3);
            match rng.below(40) {
                0 | 1 => {
                    c.flush();
                    flushes += 1;
                    // A launch boundary restarts the clock, so fresh uses
                    // are older than the stale ones about to be overwritten.
                    if rng.next_bool() {
                        now = rng.below(4);
                    }
                }
                2 => {
                    // Flush, then install `ways + 1` lines of one set at one
                    // cycle and probe them all.
                    c.flush();
                    refills += 1;
                    let set = c.old.set_index(addr);
                    let same_set: Vec<u64> = (0..)
                        .map(|l| l * cfg.line_bytes)
                        .filter(|&a| c.old.set_index(a) == set)
                        .take(cfg.ways + 1)
                        .collect();
                    for &a in &same_set {
                        if c.lookup(a, false, now) == Lookup::Miss {
                            c.fill(a, now, rng.next_bool());
                        }
                    }
                    for &a in &same_set {
                        c.lookup(a, false, now + 1);
                    }
                }
                3..=6 => c.start_fill(addr, now + rng.below(60)),
                7..=15 => c.fill(addr, now, rng.chance(1, 3)),
                _ => {
                    let is_store = rng.chance(1, 4);
                    if c.lookup(addr, is_store, now) == Lookup::Miss
                        && (!is_store || cfg.write_allocate)
                        && rng.next_bool()
                    {
                        c.fill(addr, now + rng.below(8), is_store);
                    }
                }
            }
        }
        let s = c.new.stats();
        seen.hits += s.hits;
        seen.misses += s.misses;
        seen.mshr_merges += s.mshr_merges;
        seen.writebacks += s.writebacks;
    }
    // Every outcome occurred, many times.
    assert!(
        seen.hits > 10_000
            && seen.misses > 10_000
            && seen.mshr_merges > 300
            && seen.writebacks > 1_000,
        "{seen:?}"
    );
    assert!(flushes > 1_000 && refills > 500, "{flushes} {refills}");
}
