//! Differential test of the tensor-core functional path against the
//! readable reference, through the public [`WmmaHandler`] only.
//!
//! For every arch-valid mode — Volta's 32 `wmma` configurations, the
//! Turing integer modes and extra shapes including 4-bit `m8n8k32`, the
//! 16 Ampere `mma.sync` modes including the sparse ones — the handler's
//! `wmma.mma` / `mma.sync` must leave every register row equal to
//! `gather_tile` → `mma_reference` → `scatter_tile`, and its
//! `wmma.load` / `wmma.store` must leave every register row, every
//! memory byte and the lane-access list (elements and order; expanded
//! from the footprint where the handler reports one) equal to the
//! per-element loops below.
//!
//! Register and memory contents are raw random bits, so NaN payloads,
//! infinities, subnormals and *disagreeing* copies of Volta's
//! double-loaded A/B elements all occur.

use tcsim_check::gen::{wmma_modes, Arch, WmmaMode};
use tcsim_check::rng::XorShift64Star as Rng;
use tcsim_core::functional::{read_frag_elem, write_frag_elem};
use tcsim_core::{
    expand_sparse_a, gather_tile, mma_reference, pack_sparse_row_meta, read_sparse_meta,
    scatter_tile, FragmentMap,
};
use tcsim_isa::exec::{MemAccess, TileFootprint, WmmaHandler};
use tcsim_isa::{
    ByteMemory, FragmentKind, Layout, Reg, VecMemory, WarpRegFile, WmmaDirective, WmmaType,
    WARP_SIZE,
};
use tcsim_mem::{DeviceMemory, SharedMemory};

mod common;
use common::{load_configs, model, reference_accesses, store_configs, ARCHES, LAYOUTS};

/// Seeds per configuration. The full count is too slow without
/// optimisation; `scripts/ci.sh` runs this file in release.
const SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 64 };

const NUM_REGS: usize = 64;

fn random_regs(rng: &mut Rng) -> WarpRegFile {
    let mut regs = WarpRegFile::new(NUM_REGS);
    for r in 0..NUM_REGS {
        for v in regs.row_mut(Reg(r as u16)).iter_mut() {
            *v = rng.next_u32();
        }
    }
    regs
}

fn assert_regs_eq(got: &WarpRegFile, want: &WarpRegFile, what: &str) {
    for r in 0..NUM_REGS {
        let reg = Reg(r as u16);
        assert_eq!(got.row(reg), want.row(reg), "{what}: register row {reg}");
    }
}

/// The operand layouts a mode's `mma` is exercised with. `mma.sync` is
/// fixed `row.col`; the sub-byte modes only exist as `row.col` (a 4-bit
/// operand in the other layout is not byte-addressable per thread).
fn layout_pairs(mode: WmmaMode) -> Vec<(Layout, Layout)> {
    if mode.is_mma_sync() || mode.ab.bits() == 4 {
        vec![(Layout::Row, Layout::Col)]
    } else {
        LAYOUTS
            .into_iter()
            .flat_map(|a| LAYOUTS.into_iter().map(move |b| (a, b)))
            .collect()
    }
}

// --- the reference -------------------------------------------------------

fn linear(layout: Layout, row: usize, col: usize, stride: usize) -> usize {
    match layout {
        Layout::Row => row * stride + col,
        Layout::Col => col * stride + row,
    }
}

fn read_mem_elem(mem: &dyn ByteMemory, base: u64, linear: usize, ty: WmmaType) -> u32 {
    match ty.bits() {
        4 => {
            let byte = mem.read_u8(base + (linear / 2) as u64);
            if linear.is_multiple_of(2) {
                (byte & 0xF) as u32
            } else {
                (byte >> 4) as u32
            }
        }
        8 => mem.read_u8(base + linear as u64) as u32,
        16 => mem.read_u16(base + (linear * 2) as u64) as u32,
        _ => mem.read_u32(base + (linear * 4) as u64),
    }
}

fn write_mem_elem(mem: &mut dyn ByteMemory, base: u64, linear: usize, ty: WmmaType, value: u32) {
    match ty.bits() {
        4 => {
            let addr = base + (linear / 2) as u64;
            let old = mem.read_u8(addr);
            let new = if linear.is_multiple_of(2) {
                (old & 0xF0) | (value as u8 & 0x0F)
            } else {
                (old & 0x0F) | ((value as u8 & 0x0F) << 4)
            };
            mem.write_u8(addr, new);
        }
        8 => mem.write_u8(base + linear as u64, value as u8),
        16 => mem.write_u16(base + (linear * 2) as u64, value as u16),
        _ => mem.write_u32(base + (linear * 4) as u64, value),
    }
}

/// `wmma.load` an element at a time: lane-major, slot order.
fn reference_load(
    map: &FragmentMap,
    dst: Reg,
    base: u64,
    stride: usize,
    mem: &dyn ByteMemory,
    regs: &mut WarpRegFile,
) -> Vec<MemAccess> {
    let bits = map.ty().bits();
    for lane in 0..WARP_SIZE {
        for (slot, &(r, c)) in map.lane_elems(lane).iter().enumerate() {
            let at = linear(map.layout(), r as usize, c as usize, stride);
            let v = read_mem_elem(mem, base, at, map.ty());
            write_frag_elem(regs, lane, dst, slot, bits, v);
        }
    }
    reference_accesses(map, base, stride)
}

/// `wmma.store` an element at a time: lane-major, slot order.
fn reference_store(
    map: &FragmentMap,
    src: Reg,
    base: u64,
    stride: usize,
    mem: &mut dyn ByteMemory,
    regs: &WarpRegFile,
) -> Vec<MemAccess> {
    let bits = map.ty().bits();
    for lane in 0..WARP_SIZE {
        for (slot, &(r, c)) in map.lane_elems(lane).iter().enumerate() {
            let at = linear(map.layout(), r as usize, c as usize, stride);
            let v = read_frag_elem(regs, lane, src, slot, bits);
            write_mem_elem(mem, base, at, map.ty(), v);
        }
    }
    reference_accesses(map, base, stride)
}

/// `wmma.mma` / `mma.sync` through whole tiles.
#[allow(clippy::too_many_arguments)]
fn reference_mma(
    arch: Arch,
    mode: WmmaMode,
    layouts: (Layout, Layout),
    d: Reg,
    a: Reg,
    b: Reg,
    c: Reg,
    meta: Option<Reg>,
    regs: &mut WarpRegFile,
) {
    let volta = arch == Arch::Volta;
    let map = |frag, layout| {
        FragmentMap::for_arch(
            volta,
            frag,
            mode.frag_shape(frag),
            mode.frag_type(frag),
            layout,
        )
    };
    let at = gather_tile(&map(FragmentKind::A, layouts.0), a, &*regs);
    let bt = gather_tile(&map(FragmentKind::B, layouts.1), b, &*regs);
    let ct = gather_tile(&map(FragmentKind::C, Layout::Row), c, &*regs);
    let at = match meta {
        Some(mreg) => expand_sparse_a(&at, &read_sparse_meta(&*regs, mreg)),
        None => at,
    };
    let dt = mma_reference(&at, &bt, &ct, mode.d);
    scatter_tile(&map(FragmentKind::D, Layout::Row), d, &dt, regs);
}

// --- the handler under test ----------------------------------------------

/// What the caller's buffer holds before the handler appends to it.
const EARLIER: MemAccess = MemAccess {
    lane: 0xEE,
    addr: 0xE0E0_E0E0,
    bytes: 0xEE,
};

/// The lane accesses of a handler call — what it appended or, where it
/// reported a footprint instead, the footprint's expansion — having
/// checked that it left what was in the buffer alone.
fn lane_accesses(
    arch: Arch,
    dir: &WmmaDirective,
    tile: Option<TileFootprint>,
    mut accesses: Vec<MemAccess>,
) -> Vec<MemAccess> {
    assert_eq!(accesses[0], EARLIER, "the handler appends to the buffer");
    if let Some(tile) = tile {
        assert_eq!(accesses.len(), 1, "a footprint replaces the lane accesses");
        model(arch).tile_accesses(dir, &tile, &mut accesses);
    }
    accesses[1..].to_vec()
}

fn handler_load(
    arch: Arch,
    dir: &WmmaDirective,
    dst: Reg,
    base: u64,
    stride: usize,
    mem: &dyn ByteMemory,
    regs: &mut WarpRegFile,
) -> Vec<MemAccess> {
    let mut accesses = vec![EARLIER];
    let tile = model(arch).wmma_load(dir, dst, base, stride, mem, regs, &mut accesses);
    lane_accesses(arch, dir, tile, accesses)
}

fn handler_store(
    arch: Arch,
    dir: &WmmaDirective,
    src: Reg,
    base: u64,
    stride: usize,
    mem: &mut dyn ByteMemory,
    regs: &WarpRegFile,
) -> Vec<MemAccess> {
    let mut accesses = vec![EARLIER];
    let tile = model(arch).wmma_store(dir, src, base, stride, mem, regs, &mut accesses);
    lane_accesses(arch, dir, tile, accesses)
}

#[allow(clippy::too_many_arguments)]
fn handler_mma(
    arch: Arch,
    dir: &WmmaDirective,
    d: Reg,
    a: Reg,
    b: Reg,
    c: Reg,
    meta: Option<Reg>,
    regs: &mut WarpRegFile,
) {
    match dir {
        WmmaDirective::MmaSync { .. } => model(arch).mma_sync(dir, d, a, b, c, meta, regs),
        _ => model(arch).wmma_mma(dir, d, a, b, c, regs),
    }
}

// --- mma -----------------------------------------------------------------

/// Turns every NaN among the `ty` elements packed in registers
/// `base..base + 8` into the infinity of its sign, so that the only NaNs
/// an `mma` then meets are the ones it makes itself (`0 × ∞`, `∞ − ∞`).
fn infinities_for_nans(regs: &mut WarpRegFile, base: Reg, ty: WmmaType) {
    // (exponent, mantissa) masks of one element, replicated across the word.
    let (exp, man) = match ty {
        WmmaType::F16 => (0x7C00_7C00u32, 0x03FF_03FFu32),
        WmmaType::BF16 => (0x7F80_7F80, 0x007F_007F),
        WmmaType::F32 | WmmaType::TF32 => (0x7F80_0000, 0x007F_FFFF),
        _ => return,
    };
    let halves: &[u32] = if ty.bits() == 16 {
        &[0x0000_FFFF, 0xFFFF_0000]
    } else {
        &[0xFFFF_FFFF]
    };
    for r in 0..8 {
        for word in regs.row_mut(Reg(base.0 + r)).iter_mut() {
            for &half in halves {
                if *word & exp & half == exp & half {
                    *word &= !(man & half);
                }
            }
        }
    }
}

/// Valid 2:4 kept-index pairs.
const META_PAIRS: [(u8, u8); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

#[test]
fn mma_matches_the_tile_reference_in_every_mode() {
    let mut configs = 0u64;
    for arch in ARCHES {
        for mode in wmma_modes(arch) {
            for layouts in layout_pairs(mode) {
                configs += 1;
                let dir = mode.mma_directive(layouts.0, layouts.1);
                let mut rng = Rng::new(0x9A7C_0000 + configs);
                for seed in 0..SEEDS {
                    let mut regs = random_regs(&mut rng);
                    let (a, b, c, m) = (Reg(0), Reg(16), Reg(32), Reg(60));
                    // Accumulating in place is what every GEMM does.
                    let d = if seed % 2 == 0 { Reg(48) } else { c };
                    // Operands free of NaNs take the vectorised FEDP loops,
                    // operands with NaNs the scalar chain: half the seeds
                    // each.
                    if seed % 4 >= 2 {
                        infinities_for_nans(&mut regs, a, mode.ab);
                        infinities_for_nans(&mut regs, b, mode.ab);
                        infinities_for_nans(&mut regs, c, mode.c);
                    }
                    let meta = mode.sparse.then_some(m);
                    if mode.sparse && seed % 2 == 0 {
                        // Half the seeds carry well-formed metadata that
                        // differs row to row; the other half keep the raw
                        // bits (repeated and descending indices included).
                        for g in 0..8 {
                            let mut word = 0u32;
                            for half in 0..2 {
                                let groups = [(); 4].map(|_| *rng.pick(&META_PAIRS));
                                word |= u32::from(pack_sparse_row_meta(groups)) << (16 * half);
                            }
                            regs.row_mut(m)[4 * g] = word;
                        }
                    }
                    let mut want = regs.clone();
                    handler_mma(arch, &dir, d, a, b, c, meta, &mut regs);
                    reference_mma(arch, mode, layouts, d, a, b, c, meta, &mut want);
                    assert_regs_eq(&regs, &want, &format!("{arch:?} {dir:?} seed {seed}"));
                }
            }
        }
    }
    // 16 on Volta (× 2 store layouts = the paper's 32), the same 16 plus
    // 8 more f16 shapes' worth and the integer modes on Turing, and those
    // plus the 16 mma.sync modes on Ampere.
    assert_eq!(configs, 16 + 74 + 90);
}

// --- load / store --------------------------------------------------------

/// The memories a tile is placed in, with the tile's base address.
#[derive(Clone, Copy, Debug)]
enum Place {
    /// Inside one `DeviceMemory` page.
    Device,
    /// Straddling the first `DeviceMemory` page boundary.
    DevicePages,
    /// Inside `SharedMemory`.
    Shared,
    /// Starting inside `SharedMemory` and running past its end.
    SharedEnd,
    /// `VecMemory`: the trait's default bulk accessors.
    Host,
}

const PLACES: [Place; 5] = [
    Place::Device,
    Place::DevicePages,
    Place::Shared,
    Place::SharedEnd,
    Place::Host,
];

const SHARED_BYTES: u32 = 48 << 10;

enum AnyMemory {
    Device(DeviceMemory),
    Shared(SharedMemory),
    Host(VecMemory),
}

impl AnyMemory {
    fn new(place: Place) -> AnyMemory {
        match place {
            Place::Device | Place::DevicePages => AnyMemory::Device(DeviceMemory::new()),
            Place::Shared | Place::SharedEnd => AnyMemory::Shared(SharedMemory::new(SHARED_BYTES)),
            Place::Host => AnyMemory::Host(VecMemory::new()),
        }
    }

    fn mem(&mut self) -> &mut dyn ByteMemory {
        match self {
            AnyMemory::Device(m) => m,
            AnyMemory::Shared(m) => m,
            AnyMemory::Host(m) => m,
        }
    }

    /// What a store may change besides bytes: materialised pages, grown
    /// backing storage.
    fn footprint(&self) -> usize {
        match self {
            AnyMemory::Device(m) => m.resident_pages(),
            AnyMemory::Shared(m) => m.size(),
            AnyMemory::Host(m) => m.len(),
        }
    }
}

/// Where a tile of `extent` bytes goes in `place`.
fn tile_base(place: Place, extent: usize) -> u64 {
    match place {
        Place::Device | Place::Host => 0x1_0100,
        // A third of the tile below the 64 KiB page boundary.
        Place::DevicePages => 0x2_0000 - (extent as u64 / 3).next_multiple_of(16),
        Place::Shared => 0x100,
        // Half of it past the end.
        Place::SharedEnd => u64::from(SHARED_BYTES) - (extent as u64 / 2).next_multiple_of(16),
    }
}

/// Bytes from the tile base to the end of its last line.
fn tile_extent(rows: usize, cols: usize, layout: Layout, stride: usize, ty: WmmaType) -> usize {
    let (lines, len) = match layout {
        Layout::Row => (rows, cols),
        Layout::Col => (cols, rows),
    };
    (((lines - 1) * stride + len) * ty.bits()).div_ceil(8)
}

/// Packed, padded and far-apart lines, and lines that overlap (no
/// kernel means that, but what it does is defined: for a store, the
/// element-by-element write order decides which bytes survive).
fn strides(rows: usize, cols: usize, layout: Layout) -> [usize; 4] {
    let width = match layout {
        Layout::Row => cols,
        Layout::Col => rows,
    };
    [width, width + 8, 0x100, width / 2]
}

/// Fills `[base - 32, base + extent + 32)` with random bytes.
fn randomise(mem: &mut dyn ByteMemory, rng: &mut Rng, base: u64, extent: usize) {
    for addr in base - 32..base + extent as u64 + 32 {
        mem.write_u8(addr, rng.next_u32() as u8);
    }
}

fn assert_mem_eq(got: &mut AnyMemory, want: &mut AnyMemory, base: u64, extent: usize, what: &str) {
    assert_eq!(got.footprint(), want.footprint(), "{what}: footprint");
    for addr in base - 64..base + extent as u64 + 64 {
        assert_eq!(
            got.mem().read_u8(addr),
            want.mem().read_u8(addr),
            "{what}: byte {addr:#x}"
        );
    }
}

#[test]
fn load_matches_the_per_element_reference_in_every_mode() {
    let mut configs = 0u64;
    for arch in ARCHES {
        for (frag, shape, ty, layout) in load_configs(arch) {
            configs += 1;
            let dir = WmmaDirective::Load {
                frag,
                shape,
                layout,
                ty,
            };
            let map = FragmentMap::for_arch(arch == Arch::Volta, frag, shape, ty, layout);
            let (rows, cols) = frag.dims(shape);
            let mut rng = Rng::new(0x10AD_0000 + configs);
            for seed in 0..SEEDS {
                for stride in strides(rows, cols, layout) {
                    for place in PLACES {
                        let what =
                            format!("{arch:?} {dir:?} stride {stride} {place:?} seed {seed}");
                        let extent = tile_extent(rows, cols, layout, stride, ty);
                        let base = tile_base(place, extent);
                        let mut mem = AnyMemory::new(place);
                        randomise(mem.mem(), &mut rng, base, extent);
                        let before = mem.footprint();
                        let mut regs = random_regs(&mut rng);
                        let mut want = regs.clone();
                        let dst = Reg(8 + (seed % 3) as u16);
                        let got_acc =
                            handler_load(arch, &dir, dst, base, stride, mem.mem(), &mut regs);
                        let want_acc =
                            reference_load(&map, dst, base, stride, mem.mem(), &mut want);
                        assert_regs_eq(&regs, &want, &what);
                        assert_eq!(got_acc, want_acc, "{what}: accesses");
                        assert_eq!(mem.footprint(), before, "{what}: a load grew the memory");
                    }
                }
            }
        }
    }
    assert!(configs >= 60, "only {configs} load configurations");
}

#[test]
fn store_matches_the_per_element_reference_in_every_mode() {
    let mut configs = 0u64;
    for arch in ARCHES {
        for (shape, ty, layout) in store_configs(arch) {
            configs += 1;
            let dir = WmmaDirective::Store { shape, layout, ty };
            let map =
                FragmentMap::for_arch(arch == Arch::Volta, FragmentKind::D, shape, ty, layout);
            let (rows, cols) = FragmentKind::D.dims(shape);
            let mut rng = Rng::new(0x5709_0000 + configs);
            for seed in 0..SEEDS {
                for stride in strides(rows, cols, layout) {
                    for place in PLACES {
                        let what =
                            format!("{arch:?} {dir:?} stride {stride} {place:?} seed {seed}");
                        let extent = tile_extent(rows, cols, layout, stride, ty);
                        let base = tile_base(place, extent);
                        let regs = random_regs(&mut rng);
                        let src = Reg(8 + (seed % 3) as u16);
                        // Both sides start from the same image: part of it
                        // random, part never written.
                        let image_seed = rng.next_u64();
                        let fresh = || {
                            let mut mem = AnyMemory::new(place);
                            let mut rng = Rng::new(image_seed);
                            randomise(mem.mem(), &mut rng, base, extent / 2);
                            mem
                        };
                        let (mut got, mut want) = (fresh(), fresh());
                        let got_acc =
                            handler_store(arch, &dir, src, base, stride, got.mem(), &regs);
                        let want_acc = reference_store(&map, src, base, stride, want.mem(), &regs);
                        assert_mem_eq(&mut got, &mut want, base, extent, &what);
                        assert_eq!(got_acc, want_acc, "{what}: accesses");
                    }
                }
            }
        }
    }
    assert!(configs >= 20, "only {configs} store configurations");
}
