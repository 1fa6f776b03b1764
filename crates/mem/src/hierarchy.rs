//! Composition of the memory hierarchy: per-SM L1 paths over a shared
//! banked L2 + DRAM memory system.

use crate::cache::{Cache, CacheConfig, CacheStats, Divisor, LineSlot, Lookup};
use crate::coalesce::{Transaction, LINE_BYTES};
use crate::dram::DramChannel;
use tcsim_trace::{CacheLevel, EventKind, TraceEvent, Tracer};

/// Configuration of the GPU-wide memory system.
#[derive(Clone, Copy, Debug)]
pub struct MemSystemConfig {
    /// Number of memory partitions (each an L2 slice + DRAM channel).
    pub partitions: usize,
    /// L2 slice capacity per partition, in KiB.
    pub l2_slice_kib: usize,
    /// Interconnect latency SM → partition (cycles, each way).
    pub noc_latency: u64,
    /// DRAM access latency (cycles).
    pub dram_latency: u64,
    /// Core cycles per 32-byte sector per DRAM channel.
    pub dram_cycles_per_sector: u64,
}

impl MemSystemConfig {
    /// Titan V-like: 24 partitions (3072-bit HBM2), 4.5 MB L2,
    /// 653 GB/s ≈ 0.35 B/cycle/partition·32 ≈ one sector every ~2.2
    /// cycles per partition at 1.53 GHz (rounded to 2).
    pub fn titan_v() -> MemSystemConfig {
        MemSystemConfig {
            partitions: 24,
            l2_slice_kib: 192,
            noc_latency: 30,
            dram_latency: 180,
            dram_cycles_per_sector: 2,
        }
    }
}

/// Where one warp instruction's memory events go: the tracer, asked
/// once whether it wants them.
struct Events<'a> {
    tracer: &'a mut dyn Tracer,
    enabled: bool,
    sm: u16,
}

impl<'a> Events<'a> {
    fn new(tracer: &'a mut dyn Tracer, sm: u16) -> Events<'a> {
        let enabled = tracer.enabled();
        Events {
            tracer,
            enabled,
            sm,
        }
    }

    fn cache_access(&mut self, cycle: u64, level: CacheLevel, lookup: Lookup, store: bool) {
        if self.enabled {
            self.tracer.record(TraceEvent {
                cycle,
                sm: self.sm,
                kind: EventKind::CacheAccess {
                    level,
                    hit: !matches!(lookup, Lookup::Miss),
                    store,
                },
            });
        }
    }

    fn dram_txn(&mut self, cycle: u64, channel: usize) {
        if self.enabled {
            self.tracer.record(TraceEvent {
                cycle,
                sm: self.sm,
                kind: EventKind::DramTxn {
                    channel: channel as u16,
                },
            });
        }
    }
}

/// The partition and L2 slot of the 128-byte line a run of sector
/// requests is on, found for its first sector and kept for the rest.
struct L2Line {
    /// `addr / 128`; `u64::MAX` before the first request.
    line: u64,
    partition: usize,
    slot: LineSlot,
}

impl L2Line {
    const NONE: L2Line = L2Line {
        line: u64::MAX,
        partition: 0,
        slot: LineSlot::NONE,
    };
}

/// The shared memory-side of the GPU: L2 slices and DRAM channels.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemSystemConfig,
    partitions: Divisor,
    l2: Vec<Cache>,
    dram: Vec<DramChannel>,
}

impl MemSystem {
    /// Builds the memory system.
    pub fn new(cfg: MemSystemConfig) -> MemSystem {
        MemSystem {
            cfg,
            partitions: Divisor::new(cfg.partitions as u64),
            l2: (0..cfg.partitions)
                .map(|_| Cache::new(CacheConfig::l2_slice(cfg.l2_slice_kib)))
                .collect(),
            dram: (0..cfg.partitions)
                .map(|_| DramChannel::new(cfg.dram_latency, cfg.dram_cycles_per_sector))
                .collect(),
        }
    }

    fn partition_of(&self, addr: u64) -> usize {
        // Line-interleaved with an xor fold, like real address hashing.
        let line = addr / LINE_BYTES;
        self.partitions.div_rem(line ^ (line >> 7)).1 as usize
    }

    /// One sector request arriving from `sm` at `now`; returns the cycle
    /// data returns to the SM (both NoC hops included). L2 lookups and
    /// DRAM sector transfers are reported to `tracer` (use
    /// [`tcsim_trace::NullTracer`] when not tracing).
    pub fn access(
        &mut self,
        addr: u64,
        is_store: bool,
        now: u64,
        sm: u16,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        let mut at = L2Line::NONE;
        self.access_on(&mut at, addr, is_store, now, &mut Events::new(tracer, sm))
    }

    /// [`MemSystem::access`] within a run of requests: `at` carries the
    /// partition and L2 slot from one sector of a line to the next.
    fn access_on(
        &mut self,
        at: &mut L2Line,
        addr: u64,
        is_store: bool,
        now: u64,
        events: &mut Events<'_>,
    ) -> u64 {
        if at.line != addr / LINE_BYTES {
            *at = L2Line {
                line: addr / LINE_BYTES,
                partition: self.partition_of(addr),
                slot: LineSlot::NONE,
            };
        }
        let p = at.partition;
        let l2 = &mut self.l2[p];
        l2.locate(&mut at.slot, addr);
        let arrive = now + self.cfg.noc_latency;
        let lookup = l2.lookup_at(&at.slot, addr, is_store, arrive);
        events.cache_access(arrive, CacheLevel::L2, lookup, is_store);
        let done_at_l2 = match lookup {
            Lookup::Hit { ready_at } => ready_at,
            Lookup::MshrHit { ready_at } => ready_at,
            Lookup::Miss => {
                let fill = self.dram[p].access(arrive);
                events.dram_txn(arrive, p);
                // Write-allocate: line fetched then dirtied; the store
                // itself completes on arrival at L2.
                l2.fill_at(&mut at.slot, addr, fill, is_store);
                if is_store {
                    arrive + l2.config().hit_latency
                } else {
                    fill
                }
            }
        };
        done_at_l2 + self.cfg.noc_latency
    }

    /// Aggregate L2 statistics across partitions.
    pub fn l2_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.l2 {
            let cs = c.stats();
            s.hits += cs.hits;
            s.misses += cs.misses;
            s.mshr_merges += cs.mshr_merges;
            s.writebacks += cs.writebacks;
        }
        s
    }

    /// Total DRAM sectors served.
    pub fn dram_sectors(&self) -> u64 {
        self.dram.iter().map(|d| d.sectors_served()).sum()
    }

    /// Kernel-launch boundary: invalidates all L2 slices and resets the
    /// DRAM bus clocks (the next launch's cycle counter restarts at 0).
    pub fn flush(&mut self) {
        for c in &mut self.l2 {
            c.flush();
        }
        for d in &mut self.dram {
            d.reset_clock();
        }
    }
}

/// A per-SM L1 data-cache path in front of the shared [`MemSystem`].
#[derive(Debug)]
pub struct L1Path {
    l1: Cache,
}

impl L1Path {
    /// Creates an L1 of `kib` KiB.
    pub fn new(kib: usize) -> L1Path {
        L1Path {
            l1: Cache::new(CacheConfig::l1(kib)),
        }
    }

    /// Services one coalesced transaction at `now`, returning the cycle
    /// the data is available in the SM (for a load) or the store is
    /// accepted. The lookup (and any L2/DRAM traffic it causes) is
    /// reported to `tracer` attributed to `sm`.
    pub fn access(
        &mut self,
        txn: &Transaction,
        is_store: bool,
        now: u64,
        sys: &mut MemSystem,
        sm: u16,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        self.access_sectors(&[txn.addr], is_store, now, 0, sys, sm, tracer)
    }

    /// Services the sector requests of one warp instruction — `sectors`,
    /// ascending, the `i`-th entering the L1 at `start + i * spacing` —
    /// exactly as one [`L1Path::access`] per sector would, and returns
    /// the latest of their completion cycles (0 for no sectors). The set
    /// scan, tag and partition of a 128-byte line are worked out for its
    /// first sector and reused by the others, at either level.
    #[allow(clippy::too_many_arguments)]
    pub fn access_sectors(
        &mut self,
        sectors: &[u64],
        is_store: bool,
        start: u64,
        spacing: u64,
        sys: &mut MemSystem,
        sm: u16,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        let mut events = Events::new(tracer, sm);
        let mut l1_slot = LineSlot::NONE;
        let mut l2_line = L2Line::NONE;
        let mut now = start;
        let mut done = 0;
        for &addr in sectors {
            self.l1.locate(&mut l1_slot, addr);
            let lookup = self.l1.lookup_at(&l1_slot, addr, is_store, now);
            events.cache_access(now, CacheLevel::L1, lookup, is_store);
            let ready = match lookup {
                Lookup::Hit { ready_at } => {
                    if is_store {
                        // Write-through: also send to L2 (bandwidth effects),
                        // but the warp does not wait for it.
                        sys.access_on(&mut l2_line, addr, true, now, &mut events);
                    }
                    ready_at
                }
                Lookup::MshrHit { ready_at } => ready_at,
                Lookup::Miss if is_store => {
                    // Write-through no-allocate: forward, complete quickly.
                    sys.access_on(&mut l2_line, addr, true, now, &mut events);
                    now + self.l1.config().hit_latency
                }
                Lookup::Miss => {
                    let fill = sys.access_on(&mut l2_line, addr, false, now + 1, &mut events);
                    self.l1.fill_at(&mut l1_slot, addr, fill, false);
                    fill + 1
                }
            };
            done = done.max(ready);
            now += spacing;
        }
        done
    }

    /// L1 statistics.
    pub fn stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// Invalidates the L1 (kernel boundary).
    pub fn flush(&mut self) {
        self.l1.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_trace::NullTracer;

    #[test]
    fn mem_system_and_device_memory_are_send() {
        // The parallel sweep engine moves whole memory systems across
        // worker threads (one GPU per job); a compile-time guarantee.
        fn assert_send<T: Send>() {}
        assert_send::<MemSystem>();
        assert_send::<crate::DeviceMemory>();
        assert_send::<crate::L1Path>();
    }

    fn txn(addr: u64) -> Transaction {
        Transaction {
            addr,
            bytes: 32,
            lane_mask: 1,
        }
    }

    fn tiny_sys() -> MemSystem {
        MemSystem::new(MemSystemConfig {
            partitions: 2,
            l2_slice_kib: 4,
            noc_latency: 10,
            dram_latency: 100,
            dram_cycles_per_sector: 4,
        })
    }

    #[test]
    fn cold_load_pays_full_latency_chain() {
        let mut sys = tiny_sys();
        let mut l1 = L1Path::new(16);
        let t = l1.access(&txn(0x1000), false, 0, &mut sys, 0, &mut NullTracer);
        // NoC (10) + DRAM (100) + NoC (10) + fill forwarding ≥ 120.
        assert!(t >= 120, "cold miss took {t}");
        assert_eq!(l1.stats().misses, 1);
        assert_eq!(sys.dram_sectors(), 1);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut sys = tiny_sys();
        let mut l1 = L1Path::new(16);
        let t0 = l1.access(&txn(0x1000), false, 0, &mut sys, 0, &mut NullTracer);
        let t1 = l1.access(&txn(0x1000), false, t0, &mut sys, 0, &mut NullTracer);
        assert_eq!(t1, t0 + 28, "L1 hit latency");
        assert_eq!(l1.stats().hits, 1);
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut sys = tiny_sys();
        let mut l1a = L1Path::new(16);
        let mut l1b = L1Path::new(16);
        // SM A warms L2.
        let _ = l1a.access(&txn(0x2000), false, 0, &mut sys, 0, &mut NullTracer);
        // SM B misses L1 but hits L2.
        let t = l1b.access(&txn(0x2000), false, 10_000, &mut sys, 0, &mut NullTracer);
        let l2_hit_time = t - 10_000;
        assert!(l2_hit_time < 200, "L2 hit path took {l2_hit_time}");
        assert!(l2_hit_time > 28, "must be slower than an L1 hit");
        assert_eq!(sys.dram_sectors(), 1, "no second DRAM access");
    }

    #[test]
    fn stores_complete_quickly_and_generate_l2_traffic() {
        let mut sys = tiny_sys();
        let mut l1 = L1Path::new(16);
        let t = l1.access(&txn(0x3000), true, 0, &mut sys, 0, &mut NullTracer);
        assert!(t <= 28);
        assert!(sys.l2_stats().accesses() > 0);
    }

    #[test]
    fn dram_bandwidth_saturates_under_a_burst() {
        let mut sys = tiny_sys();
        let mut l1 = L1Path::new(16);
        // 64 distinct lines at once: queueing pushes completion times out.
        let times: Vec<u64> = (0..64)
            .map(|i| {
                l1.access(
                    &txn(0x10_000 + i * 128),
                    false,
                    0,
                    &mut sys,
                    0,
                    &mut NullTracer,
                )
            })
            .collect();
        let first = *times.iter().min().unwrap();
        let last = *times.iter().max().unwrap();
        // 64 sectors over 2 channels at 4 cyc/sector ⇒ ≥ 128-4 cycles of
        // serialization beyond the first.
        assert!(last - first >= 100, "spread {}", last - first);
    }

    #[test]
    fn flush_clears_both_levels() {
        let mut sys = tiny_sys();
        let mut l1 = L1Path::new(16);
        let _ = l1.access(&txn(0x1000), false, 0, &mut sys, 0, &mut NullTracer);
        l1.flush();
        sys.flush();
        let t = l1.access(&txn(0x1000), false, 100_000, &mut sys, 0, &mut NullTracer);
        assert!(t - 100_000 >= 120, "must go to DRAM again");
        assert_eq!(sys.dram_sectors(), 2);
    }

    #[test]
    fn tracer_sees_hierarchy_traffic() {
        use tcsim_trace::RingTracer;
        let mut sys = tiny_sys();
        let mut l1 = L1Path::new(16);
        let mut tr = RingTracer::with_capacity(64);
        // Cold load: L1 miss, L2 miss, one DRAM sector.
        let t0 = l1.access(&txn(0x1000), false, 0, &mut sys, 3, &mut tr);
        // Warm load: L1 hit, no new memory-side events.
        let _ = l1.access(&txn(0x1000), false, t0, &mut sys, 3, &mut tr);
        let events = tr.snapshot();
        let l1_events: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::CacheAccess {
                        level: CacheLevel::L1,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(l1_events.len(), 2);
        assert!(matches!(
            l1_events[0].kind,
            EventKind::CacheAccess {
                hit: false,
                store: false,
                ..
            }
        ));
        assert!(matches!(
            l1_events[1].kind,
            EventKind::CacheAccess { hit: true, .. }
        ));
        assert!(
            l1_events.iter().all(|e| e.sm == 3),
            "events carry the SM id"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(
                    e.kind,
                    EventKind::CacheAccess {
                        level: CacheLevel::L2,
                        hit: false,
                        ..
                    }
                ))
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::DramTxn { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn tracing_does_not_change_timing() {
        use tcsim_trace::RingTracer;
        let mut sys_a = tiny_sys();
        let mut l1_a = L1Path::new(16);
        let mut sys_b = tiny_sys();
        let mut l1_b = L1Path::new(16);
        let mut tr = RingTracer::with_capacity(1024);
        for i in 0..16u64 {
            let addr = 0x4000 + i * 96;
            let ta = l1_a.access(&txn(addr), i % 3 == 0, i, &mut sys_a, 0, &mut NullTracer);
            let tb = l1_b.access(&txn(addr), i % 3 == 0, i, &mut sys_b, 0, &mut tr);
            assert_eq!(ta, tb, "observation must not perturb the model");
        }
        assert!(!tr.snapshot().is_empty());
    }

    #[test]
    fn partition_interleaving_spreads_lines() {
        let sys = tiny_sys();
        let p0 = sys.partition_of(0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            seen.insert(sys.partition_of(i * 128));
        }
        assert!(seen.len() > 1, "lines must spread across partitions");
        let _ = p0;
    }
}
