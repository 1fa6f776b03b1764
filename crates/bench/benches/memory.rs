//! Microbenchmarks of the memory-hierarchy primitives: access coalescing,
//! cache lookups, shared-memory conflict analysis and device memory
//! access — lane list against tile footprint for a `wmma.load`, and the
//! per-instruction sector walk against one access per sector.
//!
//! Uses the hand-rolled `tcsim_bench::bench_case` harness (criterion is
//! not available offline).

use std::hint::black_box;
use tcsim_bench::bench_case;
use tcsim_core::FragmentMap;
use tcsim_isa::exec::{MemAccess, TileFootprint};
use tcsim_isa::{ByteMemory, FragmentKind, Layout, WmmaType};
use tcsim_mem::{
    coalesce, coalesce_into, conflict_passes, conflict_passes_in, tile_conflict_passes,
    tile_sectors_into, Cache, CacheConfig, DeviceMemory, L1Path, MemSystem, MemSystemConfig,
    Transaction,
};
use tcsim_trace::NullTracer;

fn main() {
    println!("== memory ==");
    const MS: u64 = 800;

    let coalesced: Vec<MemAccess> = (0..32)
        .map(|l| MemAccess {
            lane: l,
            addr: 0x1000 + 4 * l as u64,
            bytes: 4,
        })
        .collect();
    let scattered: Vec<MemAccess> = (0..32)
        .map(|l| MemAccess {
            lane: l,
            addr: 0x1000 + 137 * l as u64,
            bytes: 4,
        })
        .collect();
    bench_case("coalesce_unit_stride", MS, || {
        coalesce(black_box(&coalesced))
    });
    bench_case("coalesce_scattered", MS, || coalesce(black_box(&scattered)));
    bench_case("shared_conflicts", MS, || {
        conflict_passes(black_box(&scattered))
    });

    // The 128-bit-per-lane shared access of the staged GEMMs: 128 words
    // over 32 banks, four passes by construction.
    let vec128: Vec<MemAccess> = (0..32)
        .map(|l| MemAccess {
            lane: l,
            addr: 0x400 + 16 * l as u64,
            bytes: 16,
        })
        .collect();
    let mut words = Vec::new();
    bench_case("shared_conflict_free", MS, || {
        conflict_passes_in(black_box(&coalesced), &mut words)
    });
    bench_case("shared_conflicts_vec128", MS, || {
        conflict_passes_in(black_box(&vec128), &mut words)
    });

    // A `wmma.load` of a row-major 16×16 binary16 A tile on Volta, packed
    // (32-byte pitch), padded by 8 and 24 elements, and at the 272-byte
    // pitch of a padded 128-element row: its 64 lane accesses against its
    // footprint of 16 lines.
    let map = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row);
    let mut txns = Vec::new();
    let mut sectors = Vec::new();
    for pitch in [32u64, 48, 80, 272] {
        let base = 0x1_0000;
        let lanes: Vec<MemAccess> = (0..32)
            .flat_map(|lane| {
                map.lane_accesses(lane, pitch as usize / 2).into_iter().map(
                    move |(offset, bytes)| MemAccess {
                        lane: lane as u8,
                        addr: base + offset,
                        bytes,
                    },
                )
            })
            .collect();
        let tile = TileFootprint {
            base,
            pitch_bytes: pitch,
            line_bytes: 32,
            lines: 16,
        };
        bench_case(&format!("tile_conflicts_lanes_p{pitch}"), MS, || {
            conflict_passes_in(black_box(&lanes), &mut words)
        });
        bench_case(&format!("tile_conflicts_footprint_p{pitch}"), MS, || {
            tile_conflict_passes(black_box(&tile), &mut words)
        });
        bench_case(&format!("tile_sectors_lanes_p{pitch}"), MS, || {
            coalesce_into(black_box(&lanes), &mut txns);
            txns.len()
        });
        bench_case(&format!("tile_sectors_footprint_p{pitch}"), MS, || {
            tile_sectors_into(black_box(&tile), &mut sectors);
            sectors.len()
        });
    }

    // An ascending stream nothing ever revisits — every sector misses L1
    // and L2 and goes to DRAM — as 16-sector instructions through the
    // walk and as 16 single accesses.
    for walk in [true, false] {
        let mut l1 = L1Path::new(128);
        let mut sys = MemSystem::new(MemSystemConfig::titan_v());
        let (mut addr, mut now) = (0u64, 0u64);
        let name = if walk {
            "l1_missing_16_sectors_walk"
        } else {
            "l1_missing_16_sectors_singly"
        };
        bench_case(name, MS, move || {
            let sectors: [u64; 16] = std::array::from_fn(|i| addr + 32 * i as u64);
            addr += 512;
            now += 64;
            if walk {
                l1.access_sectors(&sectors, false, now, 2, &mut sys, 0, &mut NullTracer)
            } else {
                sectors.iter().enumerate().fold(0, |done, (i, &addr)| {
                    let txn = Transaction {
                        addr,
                        bytes: 32,
                        lane_mask: 1,
                    };
                    let at = now + 2 * i as u64;
                    done.max(l1.access(&txn, false, at, &mut sys, 0, &mut NullTracer))
                })
            }
        });
    }

    {
        let mut cache = Cache::new(CacheConfig::l1(128));
        cache.fill(0x2000, 0, false);
        let mut now = 1;
        bench_case("cache_hit_lookup", MS, move || {
            now += 1;
            cache.lookup(0x2000, false, now)
        });
    }

    {
        let mut cache = Cache::new(CacheConfig::l1(16));
        let mut addr = 0u64;
        let mut now = 0;
        bench_case("cache_miss_fill_cycle", MS, move || {
            addr += 128;
            now += 1;
            let _ = cache.lookup(addr, false, now);
            cache.fill(addr, now, false);
        });
    }

    {
        let mut mem = DeviceMemory::new();
        let base = mem.alloc(1 << 20);
        let mut i = 0u64;
        bench_case("device_memory_rw", MS, move || {
            i = (i + 4) % (1 << 20);
            mem.write_u32(base + i, i as u32);
            mem.read_u32(base + i)
        });
    }
}
