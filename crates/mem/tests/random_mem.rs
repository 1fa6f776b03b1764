//! Randomized tests for the memory hierarchy: the coalescer must cover
//! every requested byte exactly once per sector, conflict analysis must
//! bracket correctly and agree with the sort-based reference, caches must
//! never forget outstanding fills, a whole instruction's sector walk must
//! be indistinguishable from one access per sector (across flushes too),
//! and DRAM service
//! must respect bandwidth. Inputs come from a deterministic
//! xorshift64* generator (no external crates).

use tcsim_isa::exec::MemAccess;
use tcsim_isa::ByteMemory;
use tcsim_mem::{
    coalesce, conflict_passes, conflict_passes_in, Cache, CacheConfig, CacheStats, DeviceMemory,
    DramChannel, L1Path, Lookup, MemSystem, MemSystemConfig, Transaction, NUM_BANKS, SECTOR_BYTES,
};
use tcsim_trace::{RingTracer, TraceEvent, Tracer};

mod reference;
use reference::sorted_conflict_passes;

// Deterministic inputs from the workspace's canonical PRNG (same
// xorshift64* recurrence the local copy used, so sequences are unchanged).
use tcsim_check::rng::XorShift64Star as Rng;

fn random_accesses(rng: &mut Rng) -> Vec<MemAccess> {
    let n = 1 + rng.below(31) as usize;
    (0..n)
        .map(|_| MemAccess {
            lane: rng.below(32) as u8,
            addr: rng.below(100_000),
            bytes: [1u8, 2, 4, 8, 16][rng.below(5) as usize],
        })
        .collect()
}

const CASES: usize = 300;

#[test]
fn coalescer_covers_every_requested_byte() {
    let mut rng = Rng::new(0x3E31);
    for _ in 0..CASES {
        let accesses = random_accesses(&mut rng);
        let txns = coalesce(&accesses);
        // Every byte of every access falls in exactly one transaction.
        for a in &accesses {
            for b in a.addr..a.addr + a.bytes as u64 {
                let n = txns
                    .iter()
                    .filter(|t| b >= t.addr && b < t.addr + t.bytes)
                    .count();
                assert_eq!(n, 1, "byte {b} covered {n} times");
            }
        }
        // Transactions are sector aligned, sector sized, disjoint, sorted.
        for t in &txns {
            assert_eq!(t.addr % SECTOR_BYTES, 0);
            assert_eq!(t.bytes, SECTOR_BYTES);
            assert_ne!(t.lane_mask, 0);
        }
        for w in txns.windows(2) {
            assert!(w[0].addr + SECTOR_BYTES <= w[1].addr);
        }
    }
}

#[test]
fn coalescer_lane_masks_union_to_request_lanes() {
    let mut rng = Rng::new(0x3E32);
    for _ in 0..CASES {
        let accesses = random_accesses(&mut rng);
        let txns = coalesce(&accesses);
        let want: u32 = accesses.iter().fold(0, |m, a| m | (1 << a.lane));
        let got: u32 = txns.iter().fold(0, |m, t| m | t.lane_mask);
        assert_eq!(got, want);
    }
}

#[test]
fn conflict_passes_bracket() {
    let mut rng = Rng::new(0x3E33);
    for _ in 0..CASES {
        let accesses = random_accesses(&mut rng);
        let passes = conflict_passes(&accesses);
        // At least 1, at most the number of distinct words requested.
        let mut words: Vec<u64> = accesses
            .iter()
            .flat_map(|a| (a.addr / 4)..=((a.addr + a.bytes as u64 - 1) / 4))
            .collect();
        words.sort_unstable();
        words.dedup();
        assert!(passes >= 1);
        assert!(passes as usize <= words.len().max(1));
        // And at least ceil(distinct_words / banks).
        assert!(passes as usize >= words.len().div_ceil(NUM_BANKS));
    }
}

/// Lane lists of every shape the one-pass counter distinguishes:
/// conflict-free, broadcast, strided, vector-wide, clustered within a few
/// rows, and scattered over more than the 64 rows (8 KiB) its row sets
/// hold — with empty accesses and a partial warp mixed in.
fn random_lane_list(rng: &mut Rng) -> Vec<MemAccess> {
    let lanes = [32, 32, 32, 1 + rng.below(32)][rng.below(4) as usize] as u8;
    let stride = [0, 4, 4, 8, 16, 16, 36, 128, 132, 260, 4096][rng.below(11) as usize];
    let span = [64, 512, 8 << 10, 9 << 10, 96 << 10, 1 << 40][rng.below(6) as usize];
    let origin = rng.below(span);
    let width = [1u8, 2, 4, 8, 16][rng.below(5) as usize];
    (0..lanes)
        .map(|lane| MemAccess {
            lane,
            addr: match rng.below(8) {
                0 => rng.below(span),
                1 => origin + 128 * rng.below(4),
                _ => origin + lane as u64 * stride,
            },
            bytes: match rng.below(16) {
                0 => 0,
                1 => [1u8, 2, 4, 8, 16][rng.below(5) as usize],
                _ => width,
            },
        })
        .collect()
}

#[test]
fn one_pass_conflict_count_equals_the_sort_based_reference() {
    let mut rng = Rng::new(0x3E37);
    let mut words = Vec::new();
    let (mut conflicting, mut far_apart) = (0, 0);
    for _ in 0..10_000 {
        let accesses = random_lane_list(&mut rng);
        let want = sorted_conflict_passes(&accesses);
        assert_eq!(
            conflict_passes_in(&accesses, &mut words),
            want,
            "{accesses:?}"
        );
        conflicting += (want > 1) as u32;
        let rows = |f: fn(u64, u64) -> u64, init| {
            accesses
                .iter()
                .filter(|a| a.bytes > 0)
                .fold(init, |m, a| f(m, a.addr / 128))
        };
        far_apart += (rows(u64::max, 0) >= rows(u64::min, u64::MAX).saturating_add(64)) as u32;
    }
    // The generator reaches all three regimes.
    assert!(conflicting > 2_000, "{conflicting} conflicting lists");
    assert!(
        far_apart > 1_000,
        "{far_apart} lists over more than 64 rows"
    );
}

/// One L1 + memory system, small enough that a few hundred lines evict.
struct Hierarchy {
    l1: L1Path,
    sys: MemSystem,
    tracer: RingTracer,
}

impl Hierarchy {
    fn new() -> Hierarchy {
        Hierarchy {
            l1: L1Path::new(4),
            sys: MemSystem::new(MemSystemConfig {
                partitions: 3,
                l2_slice_kib: 8,
                noc_latency: 10,
                dram_latency: 100,
                dram_cycles_per_sector: 4,
            }),
            tracer: RingTracer::with_capacity(1 << 20),
        }
    }

    fn state(&self) -> (CacheStats, CacheStats, u64, Vec<TraceEvent>) {
        (
            self.l1.stats(),
            self.sys.l2_stats(),
            self.sys.dram_sectors(),
            self.tracer.snapshot(),
        )
    }
}

#[test]
fn sector_list_walk_equals_one_access_per_sector() {
    let mut rng = Rng::new(0x3E38);
    // What the streams exercised, summed over the cases.
    let mut seen = [0u64; 6];
    for case in 0..40 {
        let (mut walked, mut stepped) = (Hierarchy::new(), Hierarchy::new());
        let mut now = 0;
        for _ in 0..400 {
            // A warp instruction's sectors: ascending, distinct, from one
            // to four per line over a few lines that earlier instructions
            // may have touched (hits, partial lines) or not.
            let mut sectors: Vec<u64> = (0..1 + rng.below(12))
                .flat_map(|_| {
                    let line = rng.below(if case % 2 == 0 { 96 } else { 4096 }) * 128;
                    let mask = 1 + rng.below(15);
                    (0..4)
                        .filter(move |s| mask >> s & 1 == 1)
                        .map(move |s| line + 32 * s)
                })
                .collect();
            sectors.sort_unstable();
            sectors.dedup();
            let is_store = rng.below(4) == 0;
            let spacing = rng.below(3);

            let a = &mut walked;
            let got = a.l1.access_sectors(
                &sectors,
                is_store,
                now,
                spacing,
                &mut a.sys,
                7,
                &mut a.tracer,
            );
            let b = &mut stepped;
            let want = sectors.iter().enumerate().fold(0, |done, (i, &addr)| {
                let txn = Transaction {
                    addr,
                    bytes: SECTOR_BYTES,
                    lane_mask: 1,
                };
                let at = now + i as u64 * spacing;
                done.max(b.l1.access(&txn, is_store, at, &mut b.sys, 7, &mut b.tracer))
            });
            assert_eq!(got, want, "case {case}: completion cycle of {sectors:x?}");
            now += rng.below(40);
            if rng.below(40) == 0 {
                // A launch boundary: both levels flushed, the clock restarts.
                for h in [&mut walked, &mut stepped] {
                    h.l1.flush();
                    h.sys.flush();
                }
                now = 0;
            }
        }
        assert_eq!(walked.state(), stepped.state(), "case {case}");
        assert!(walked.tracer.dropped() == 0 && !walked.tracer.snapshot().is_empty());
        let (l1, l2, dram, _) = walked.state();
        for (sum, n) in
            seen.iter_mut()
                .zip([l1.hits, l1.misses, l2.hits, l2.misses, l2.writebacks, dram])
        {
            *sum += n;
        }
    }
    // Hits and misses at both levels, dirty evictions, DRAM traffic.
    assert!(seen.iter().all(|&n| n > 1_000), "{seen:?}");
}

#[test]
fn cache_miss_then_fill_always_hits() {
    let mut rng = Rng::new(0x3E34);
    for _ in 0..CASES {
        let n = 1 + rng.below(49) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| rng.below(1 << 20)).collect();
        let mut c = Cache::new(CacheConfig::l1(16));
        for (i, &addr) in addrs.iter().enumerate() {
            let now = i as u64 * 10;
            match c.lookup(addr, false, now) {
                Lookup::Hit { .. } | Lookup::MshrHit { .. } => {}
                Lookup::Miss => {
                    c.start_fill(addr, now + 5);
                    c.fill(addr, now + 5, false);
                }
            }
            // Immediately after a fill (or hit) the sector must be present
            // until something evicts it; probe right away.
            assert!(
                !matches!(c.lookup(addr, false, now + 6), Lookup::Miss),
                "sector lost right after fill"
            );
        }
        assert_eq!(c.mshr_count(), 0);
    }
}

#[test]
fn dram_completions_are_monotone_and_bandwidth_bounded() {
    let mut rng = Rng::new(0x3E35);
    for _ in 0..CASES {
        let n = 1 + rng.below(63) as usize;
        let mut sorted: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        sorted.sort_unstable();
        let mut d = DramChannel::new(100, 4);
        let mut last = 0;
        for (i, &t) in sorted.iter().enumerate() {
            let done = d.access(t);
            assert!(done >= t + 100, "latency floor");
            assert!(done >= last, "completions must not reorder");
            // Bandwidth bound: i+1 sectors cannot finish before
            // first_issue + (i+1)·service.
            assert!(done >= sorted[0] + (i as u64 + 1) * 4 + 100 - 4);
            last = done;
        }
        assert_eq!(d.sectors_served(), sorted.len() as u64);
    }
}

#[test]
fn device_memory_read_back_matches_writes() {
    let mut rng = Rng::new(0x3E36);
    for _ in 0..CASES {
        let n = 1 + rng.below(63) as usize;
        let mut m = DeviceMemory::new();
        // Use 4-aligned, de-overlapped addresses.
        let mut seen = std::collections::HashMap::new();
        for _ in 0..n {
            let addr = rng.below(1 << 22) & !3;
            let val = (rng.next_u64() >> 32) as u32;
            m.write_u32(addr, val);
            seen.insert(addr, val);
        }
        for (&a, &val) in &seen {
            assert_eq!(m.read_u32(a), val);
        }
    }
}
