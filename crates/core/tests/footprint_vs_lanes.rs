//! What the timing model derives from a tile footprint must be what it
//! derived from the lane accesses the footprint replaces.
//!
//! For every fragment load and D store an arch-valid mode performs, at
//! every base residue modulo 128 (nothing aligns a tile base) and at
//! packed, padded and 272-byte pitches, through the public
//! [`WmmaHandler`]:
//!
//! * global: [`tile_sectors_into`] of the reported footprint equals the
//!   transaction addresses of [`coalesce`] over the lane accesses;
//! * shared: [`tile_conflict_passes`] equals the sort-based reference
//!   count (and the one-pass counter) over the lane accesses;
//!
//! where the lane accesses are the footprint's own expansion, checked
//! against the fragment mapping's. A stride below the line length — tile
//! lines overlapping — reports no footprint and keeps the lane list.

use tcsim_check::gen::Arch;
use tcsim_check::rng::XorShift64Star as Rng;
use tcsim_core::FragmentMap;
use tcsim_isa::exec::{MemAccess, TileFootprint, WmmaHandler};
use tcsim_isa::{ByteMemory, FragmentKind, Layout, Reg, WarpRegFile, WmmaDirective};
use tcsim_mem::{
    coalesce, conflict_passes, tile_conflict_passes, tile_sectors_into, DeviceMemory, SharedMemory,
};

// (`LAYOUTS` is for the other test that shares the module.)
#[allow(dead_code)]
mod common;
use common::{load_configs, model, reference_accesses, store_configs, ARCHES};

#[path = "../../mem/tests/reference/mod.rs"]
mod reference;
use reference::sorted_conflict_passes;

/// Base residues modulo a 128-byte cache line. Every one is too slow
/// without optimisation (`scripts/ci.sh` runs this file in release); a
/// debug run keeps every phase of a word and of a sector.
const RESIDUES: u64 = if cfg!(debug_assertions) { 32 } else { 128 };

/// Every distinct `wmma.load` / `wmma.store` an arch-valid mode performs,
/// with the mapping of the fragment it moves.
fn directives(arch: Arch) -> Vec<(WmmaDirective, FragmentMap)> {
    let map = |frag, shape, ty, layout| {
        FragmentMap::for_arch(arch == Arch::Volta, frag, shape, ty, layout)
    };
    let loads = load_configs(arch)
        .into_iter()
        .map(|(frag, shape, ty, layout)| {
            let dir = WmmaDirective::Load {
                frag,
                shape,
                layout,
                ty,
            };
            (dir, map(frag, shape, ty, layout))
        });
    let stores = store_configs(arch).into_iter().map(|(shape, ty, layout)| {
        let dir = WmmaDirective::Store { shape, layout, ty };
        (dir, map(FragmentKind::D, shape, ty, layout))
    });
    loads.chain(stores).collect()
}

/// Runs `dir` on the tile at `base` through the handler: the footprint it
/// reported and the lane accesses it appended.
fn execute(
    arch: Arch,
    dir: &WmmaDirective,
    base: u64,
    stride: usize,
    mem: &mut dyn ByteMemory,
) -> (Option<TileFootprint>, Vec<MemAccess>) {
    let mut regs = WarpRegFile::new(16);
    let mut accesses = Vec::new();
    let tile = match dir {
        WmmaDirective::Load { .. } => {
            model(arch).wmma_load(dir, Reg(0), base, stride, mem, &mut regs, &mut accesses)
        }
        _ => model(arch).wmma_store(dir, Reg(0), base, stride, mem, &regs, &mut accesses),
    };
    (tile, accesses)
}

#[test]
fn footprint_sectors_and_conflicts_equal_those_of_the_lane_accesses() {
    let (mut configs, mut tiles) = (0u64, 0u64);
    let mut words = Vec::new();
    let mut sectors = Vec::new();
    for arch in ARCHES {
        for (dir, map) in directives(arch) {
            configs += 1;
            let (rows, cols) = map.frag().dims(map.shape());
            let line_elems = match map.layout() {
                Layout::Row => cols,
                Layout::Col => rows,
            };
            // Packed lines, padded lines, and the 272-byte pitch of a
            // 128-element binary16 row padded by 8.
            let strides = [line_elems, line_elems + 8, 272 * 8 / map.ty().bits()];
            let mut rng = Rng::new(0xF007_0000 + configs);
            let mut shared = SharedMemory::new(48 << 10);
            for stride in strides {
                // Every residue modulo a cache line (nothing aligns a tile
                // base) and some more aligned ones, each at a random line.
                for residue in (0..RESIDUES).chain([0; 16]) {
                    let base = 128 * (1 + rng.below(1 << 20)) + residue;
                    let what = || format!("{arch:?} {dir:?} stride {stride} base {base:#x}");
                    tiles += 1;

                    // Global: the sectors the L1 is asked for.
                    let mut global = DeviceMemory::new();
                    let (tile, appended) = execute(arch, &dir, base, stride, &mut global);
                    let tile = tile.unwrap_or_else(|| panic!("{}: no footprint", what()));
                    assert!(appended.is_empty(), "{}: lane accesses too", what());
                    let mut lanes = Vec::new();
                    model(arch).tile_accesses(&dir, &tile, &mut lanes);
                    assert_eq!(lanes, reference_accesses(&map, base, stride), "{}", what());
                    tile_sectors_into(&tile, &mut sectors);
                    let want: Vec<u64> = coalesce(&lanes).iter().map(|t| t.addr).collect();
                    assert_eq!(sectors, want, "{}: sectors", what());

                    // Shared: the bank-conflict passes, at a base inside
                    // the scratchpad with the same residue.
                    let base = base % (32 << 10);
                    let (tile, _) = execute(arch, &dir, base, stride, &mut shared);
                    let tile = tile.unwrap_or_else(|| panic!("{}: no footprint", what()));
                    lanes.clear();
                    model(arch).tile_accesses(&dir, &tile, &mut lanes);
                    let passes = tile_conflict_passes(&tile, &mut words);
                    assert_eq!(passes, sorted_conflict_passes(&lanes), "{}: passes", what());
                    assert_eq!(passes, conflict_passes(&lanes), "{}: one-pass", what());
                }
            }

            // Overlapping lines: the lane-list path.
            let (stride, base) = (line_elems / 2, 0x4_0000 + 2 * configs);
            let mut global = DeviceMemory::new();
            let (tile, appended) = execute(arch, &dir, base, stride, &mut global);
            assert_eq!(
                tile, None,
                "{arch:?} {dir:?}: footprint of overlapping lines"
            );
            assert_eq!(appended, reference_accesses(&map, base, stride));
        }
    }
    assert!(configs >= 80, "only {configs} load/store configurations");
    assert!(tiles >= 80 * 3 * (RESIDUES + 16), "only {tiles} tiles");
}
