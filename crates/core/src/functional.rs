//! Functional model of the `wmma.{load,mma,store}` PTX instructions
//! (§V-A): the [`WmmaHandler`] implementation plugged into the warp
//! executor of `tcsim-isa`.
//!
//! * `wmma.load` distributes operand-matrix elements to per-thread
//!   fragment registers following the Fig 7 (Volta) / Fig 8 (Turing)
//!   mapping, and reports the same decomposed memory accesses the paper
//!   observed at the SASS level (§III-C).
//! * `wmma.mma` gathers the A/B/C tiles from the fragments, performs the
//!   matrix-multiply-accumulate with FEDP numerics, and scatters D back.
//! * `wmma.store` writes the D fragment to memory.
//!
//! All 32 Volta configurations (2 A layouts × 2 B layouts × 2 C types ×
//! 2 D types × 2 store layouts) and the Turing integer modes/tile shapes
//! are supported.
//!
//! The handler runs on compiled fragment plans (`plan.rs`): fragments move a register
//! row at a time, tiles live in fixed stack arrays, memory is touched a
//! tile line at a time, and nothing is allocated. [`gather_tile`],
//! [`scatter_tile`] and [`crate::mma_reference`] spell the same semantics
//! out an element at a time; `tests/plan_vs_reference.rs` holds the two
//! together bit for bit.

use crate::fedp::fedp_chain_f32;
use crate::mapping::FragmentMap;
use crate::plan::{plan, FragPlan, TileBits, MAX_TILE};
use crate::tile::Tile;
use tcsim_f16::{Bf16, Tf32, F16};
use tcsim_isa::exec::{MemAccess, TileFootprint, WmmaHandler};
use tcsim_isa::{
    mma_sync_a_shape, ByteMemory, FragmentKind, Layout, Reg, WarpRegFile, WarpRegisters,
    WmmaDirective, WmmaShape, WmmaType, WARP_SIZE,
};

/// The tensor-core functional model for one architecture generation.
///
/// # Example
///
/// ```
/// use tcsim_core::TensorCoreModel;
///
/// let volta = TensorCoreModel::volta();
/// assert!(volta.is_volta());
/// let turing = TensorCoreModel::turing();
/// assert!(!turing.is_volta());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorCoreModel {
    volta: bool,
}

impl TensorCoreModel {
    /// The Volta (Titan V) model: double-loaded A/B fragments, m16n16k16
    /// FP16/mixed modes only.
    pub const fn volta() -> TensorCoreModel {
        TensorCoreModel { volta: true }
    }

    /// The Turing (RTX 2080) model: single-loaded fragments, integer modes
    /// and the additional tile shapes.
    pub const fn turing() -> TensorCoreModel {
        TensorCoreModel { volta: false }
    }

    /// The Ampere (A100-class) model: identical fragment handling to
    /// Turing for the warp-scope WMMA modes, plus the per-instruction
    /// `mma.sync` tiles — the `m16n8kN` shapes route to the Ampere PTX
    /// fragment mappings automatically.
    pub const fn ampere() -> TensorCoreModel {
        TensorCoreModel { volta: false }
    }

    /// Whether this is the Volta model.
    pub const fn is_volta(&self) -> bool {
        self.volta
    }
}

/// Reads the 2:4 sparsity metadata for all 16 A rows out of the warp's
/// registers.
///
/// Following the PTX sparse-operand convention, thread 0 of each quad
/// (lane `4g`) contributes its 32-bit metadata register: the low half
/// selects for row `g`, the high half for row `g + 8`. The other lanes'
/// metadata registers are ignored (hardware requires them to replicate
/// the quad leader's value).
pub fn read_sparse_meta(regs: &dyn WarpRegisters, mreg: Reg) -> [u16; 16] {
    let mut row_meta = [0u16; 16];
    for g in 0..8 {
        let word = regs.read(4 * g, mreg);
        row_meta[g] = word as u16;
        row_meta[g + 8] = (word >> 16) as u16;
    }
    row_meta
}

/// Reads fragment slot `slot` of `lane` (element width `bits` ≤ 32).
pub fn read_frag_elem(
    regs: &dyn WarpRegisters,
    lane: usize,
    base: Reg,
    slot: usize,
    bits: usize,
) -> u32 {
    let bitpos = slot * bits;
    let reg = Reg(base.0 + (bitpos / 32) as u16);
    let off = bitpos % 32;
    let mask = if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    };
    (regs.read(lane, reg) >> off) & mask
}

/// Writes fragment slot `slot` of `lane`.
pub fn write_frag_elem(
    regs: &mut dyn WarpRegisters,
    lane: usize,
    base: Reg,
    slot: usize,
    bits: usize,
    value: u32,
) {
    let bitpos = slot * bits;
    let reg = Reg(base.0 + (bitpos / 32) as u16);
    let off = bitpos % 32;
    let mask = if bits >= 32 {
        u32::MAX
    } else {
        ((1u32 << bits) - 1) << off
    };
    let old = regs.read(lane, reg);
    regs.write(lane, reg, (old & !mask) | ((value << off) & mask));
}

/// Gathers a whole tile from a warp's fragment registers using the
/// element mapping (inverse of `scatter_tile`), an element at a time in
/// lane order. On Volta, A/B elements have two holders; the higher lane's
/// copy is the one the tile ends up with.
pub fn gather_tile(map: &FragmentMap, base: Reg, regs: &dyn WarpRegisters) -> Tile {
    let (rows, cols) = map.frag().dims(map.shape());
    let mut t = Tile::new(map.ty(), rows, cols);
    let bits = map.ty().bits();
    for lane in 0..WARP_SIZE {
        for (slot, &(r, c)) in map.lane_elems(lane).iter().enumerate() {
            let v = read_frag_elem(regs, lane, base, slot, bits);
            t.set_bits(r as usize, c as usize, v);
        }
    }
    t
}

/// Scatters a whole tile into a warp's fragment registers, an element at
/// a time.
pub fn scatter_tile(map: &FragmentMap, base: Reg, tile: &Tile, regs: &mut dyn WarpRegisters) {
    let bits = map.ty().bits();
    for lane in 0..WARP_SIZE {
        for (slot, &(r, c)) in map.lane_elems(lane).iter().enumerate() {
            let v = tile.get_bits(r as usize, c as usize);
            write_frag_elem(regs, lane, base, slot, bits, v);
        }
    }
}

/// A whole operand tile widened for the FEDP chain, row-major.
type TileF32 = [f32; MAX_TILE];

/// `acc[r][..] = A[r][..] · B + acc[r][..]` for every row of `A`, with
/// exactly [`crate::fedp_f32_pre`]'s arithmetic per output element: four
/// `k` at a time in ascending order, `((p0 + p1) + (p2 + p3)) + acc`, one
/// binary32 rounding per node, and a rounding to binary16 after every
/// chunk in FP16-accumulate mode. That order *is* the numeric contract —
/// binary32 addition does not associate — so the loops below only
/// exchange the order of independent output columns: `N` is the
/// innermost, vectorisable dimension (B is `k × N`, a chunk's four rows
/// contiguous), and no product is fused into an add.
///
/// The operands must be free of NaNs: the compiler may commute a
/// vectorised add or multiply, and with two NaN operands that picks the
/// other payload. Without NaN inputs every NaN that arises is the
/// target's one default NaN, and operand order cannot show.
fn fedp_rows<const N: usize>(a: &[f32], b: &[f32], acc: &mut [f32], k: usize, round_f16: bool) {
    for (a_row, acc_row) in a.chunks_exact(k).zip(acc.chunks_exact_mut(N)) {
        for (qa, qb) in a_row.chunks_exact(4).zip(b.chunks_exact(4 * N)) {
            let (b0, rest) = qb.split_at(N);
            let (b1, rest) = rest.split_at(N);
            let (b2, b3) = rest.split_at(N);
            for j in 0..N {
                let p = [qa[0] * b0[j], qa[1] * b1[j], qa[2] * b2[j], qa[3] * b3[j]];
                let acc = acc_row[j];
                acc_row[j] = ((p[0] + p[1]) + (p[2] + p[3])) + acc;
            }
            if round_f16 {
                for v in acc_row.iter_mut() {
                    *v = F16::from_f32(*v).to_f32();
                }
            }
        }
    }
}

/// [`fedp_rows`] for operands that do hold NaNs: every output element
/// reduced by the one compiled [`fedp_chain_f32`], as
/// [`crate::mma_reference`] does.
#[cold]
fn fedp_rows_nan(a: &[f32], b: &[f32], acc: &mut [f32], (n, k): (usize, usize), round_f16: bool) {
    let mut b_col = [0f32; 32];
    for col in 0..n {
        for (kk, v) in b_col[..k].iter_mut().enumerate() {
            *v = b[kk * n + col];
        }
        for (a_row, acc_row) in a.chunks_exact(k).zip(acc.chunks_exact_mut(n)) {
            acc_row[col] = fedp_chain_f32(a_row, &b_col[..k], acc_row[col], round_f16);
        }
    }
}

/// The integer modes' `acc[r][..] += A[r][..] · B`, wrapping in `i32`.
/// Wrapping addition associates, so any order gives [`crate::dot_i32`]'s
/// result.
fn dot_rows_i32(a: &[i32], b: &[i32], acc: &mut [i32], (n, k): (usize, usize)) {
    for (a_row, acc_row) in a.chunks_exact(k).zip(acc.chunks_exact_mut(n)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (acc, &bv) in acc_row.iter_mut().zip(b_row) {
                *acc = acc.wrapping_add(av.wrapping_mul(bv));
            }
        }
    }
}

/// Widens raw multiplicand bits to binary32 (exact for every tensor-core
/// multiplicand format).
fn widen(ty: WmmaType, raw: &[u32], out: &mut [f32]) {
    let pairs = out.iter_mut().zip(raw);
    match ty {
        WmmaType::F16 => {
            pairs.for_each(|(o, &r)| *o = F16::from_bits(r as u16).to_f32_branchless())
        }
        WmmaType::BF16 => pairs.for_each(|(o, &r)| *o = Bf16::from_bits(r as u16).to_f32()),
        WmmaType::TF32 => pairs.for_each(|(o, &r)| *o = Tf32::from_bits(r).to_f32()),
        WmmaType::F32 => pairs.for_each(|(o, &r)| *o = f32::from_bits(r)),
        other => panic!("{other} is not a floating-point tensor-core type"),
    }
}

/// Sign- or zero-extends raw integer multiplicand bits.
fn extend(ty: WmmaType, raw: &[u32], out: &mut [i32]) {
    let pairs = out.iter_mut().zip(raw);
    match ty {
        WmmaType::S8 => pairs.for_each(|(o, &r)| *o = r as u8 as i8 as i32),
        WmmaType::S4 => pairs.for_each(|(o, &r)| *o = ((r << 28) as i32) >> 28),
        WmmaType::U8 | WmmaType::U4 => pairs.for_each(|(o, &r)| *o = r as i32),
        other => panic!("{other} is not an integer tensor-core multiplicand type"),
    }
}

/// Expands a 2:4-compressed 16×8 A tile to the dense 16×16 one, dropped
/// elements +0 ([`crate::expand_sparse_a`] on raw bits).
fn expand_sparse(a: &TileBits, row_meta: &[u16; 16], dense: &mut TileBits) {
    for (r, &meta) in row_meta.iter().enumerate() {
        for j in 0..4 {
            let nibble = (meta >> (4 * j)) & 0xF;
            let (i0, i1) = ((nibble & 0x3) as usize, (nibble >> 2) as usize);
            dense[16 * r + 4 * j + i0] = a[8 * r + 2 * j];
            dense[16 * r + 4 * j + i1] = a[8 * r + 2 * j + 1];
        }
    }
}

/// The fragments of one `wmma.mma` / `mma.sync`.
struct MmaPlans {
    a: &'static FragPlan,
    b: &'static FragPlan,
    c: &'static FragPlan,
    d: &'static FragPlan,
}

/// `D = A×B + C` on register fragments: gather to stack tiles, widen
/// once, run the FEDP chain, scatter.
fn mma(
    plans: &MmaPlans,
    shape: WmmaShape,
    (d, a, b, c): (Reg, Reg, Reg, Reg),
    sparse_meta: Option<[u16; 16]>,
    regs: &mut WarpRegFile,
) {
    let (m, n, k) = (shape.m(), shape.n(), shape.k());
    let (ab_type, c_type, d_type) = (plans.a.map().ty(), plans.c.map().ty(), plans.d.map().ty());
    let mut a_bits = [0u32; MAX_TILE + 1];
    let mut b_bits = [0u32; MAX_TILE + 1];
    let mut acc_bits = [0u32; MAX_TILE + 1];
    plans.a.gather(regs, a, &mut a_bits);
    plans.b.gather(regs, b, &mut b_bits);
    plans.c.gather(regs, c, &mut acc_bits);
    if let Some(row_meta) = sparse_meta {
        let mut dense = [0u32; MAX_TILE + 1];
        expand_sparse(&a_bits, &row_meta, &mut dense);
        a_bits = dense;
    }

    if ab_type.is_integer() {
        assert!(
            c_type == WmmaType::S32 && d_type == WmmaType::S32,
            "invalid mma type combination ({ab_type}, {c_type}, {d_type})"
        );
        let (mut av, mut bv, mut acc) = ([0i32; MAX_TILE], [0i32; MAX_TILE], [0i32; MAX_TILE]);
        extend(ab_type, &a_bits[..m * k], &mut av);
        extend(ab_type, &b_bits[..k * n], &mut bv);
        for (o, &r) in acc.iter_mut().zip(&acc_bits[..m * n]) {
            *o = r as i32;
        }
        let (av, bv, acc) = (&av[..m * k], &bv[..k * n], &mut acc[..m * n]);
        dot_rows_i32(av, bv, acc, (n, k));
        for (o, &v) in acc_bits.iter_mut().zip(acc.iter()) {
            *o = v as u32;
        }
    } else {
        let round_f16 = match d_type {
            WmmaType::F16 => true,
            WmmaType::F32 => false,
            other => panic!("invalid mma type combination ({ab_type}, {c_type}, {other})"),
        };
        assert!(
            matches!(c_type, WmmaType::F16 | WmmaType::F32),
            "invalid mma type combination ({ab_type}, {c_type}, {d_type})"
        );
        let (mut av, mut bv, mut acc): (TileF32, TileF32, TileF32) =
            ([0.0; MAX_TILE], [0.0; MAX_TILE], [0.0; MAX_TILE]);
        widen(ab_type, &a_bits[..m * k], &mut av);
        widen(ab_type, &b_bits[..k * n], &mut bv);
        widen(c_type, &acc_bits[..m * n], &mut acc);
        let (av, bv, acc) = (&av[..m * k], &bv[..k * n], &mut acc[..m * n]);
        let any_nan = |tile: &[f32]| tile.iter().fold(false, |nan, v| nan | v.is_nan());
        if any_nan(av) | any_nan(bv) | any_nan(acc) {
            fedp_rows_nan(av, bv, acc, (n, k), round_f16);
        } else {
            // The column count as a constant: the loops then run without
            // bounds checks (a quarter faster than over runtime lengths).
            match n {
                8 => fedp_rows::<8>(av, bv, acc, k, round_f16),
                16 => fedp_rows::<16>(av, bv, acc, k, round_f16),
                32 => fedp_rows::<32>(av, bv, acc, k, round_f16),
                _ => unreachable!("no tile is {n} columns wide"),
            }
        }
        for (o, &v) in acc_bits.iter_mut().zip(acc.iter()) {
            *o = if round_f16 {
                u32::from(F16::from_f32(v).to_bits())
            } else {
                v.to_bits()
            };
        }
    }
    plans.d.scatter(&acc_bits, d, regs);
}

impl WmmaHandler for TensorCoreModel {
    fn wmma_load(
        &self,
        dir: &WmmaDirective,
        dst: Reg,
        base: u64,
        stride: usize,
        mem: &dyn ByteMemory,
        regs: &mut WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        let WmmaDirective::Load {
            frag,
            shape,
            layout,
            ty,
        } = *dir
        else {
            panic!("wmma_load requires a Load directive")
        };
        plan(self.volta, frag, shape, ty, layout).load(dst, base, stride, mem, regs, accesses)
    }

    fn wmma_mma(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        regs: &mut WarpRegFile,
    ) {
        let WmmaDirective::Mma {
            shape,
            a_layout,
            b_layout,
            ab_type,
            d_type,
            c_type,
        } = *dir
        else {
            panic!("wmma_mma requires an Mma directive")
        };
        let plans = MmaPlans {
            a: plan(self.volta, FragmentKind::A, shape, ab_type, a_layout),
            b: plan(self.volta, FragmentKind::B, shape, ab_type, b_layout),
            // The accumulator distribution is layout-independent (§III-B1).
            c: plan(self.volta, FragmentKind::C, shape, c_type, Layout::Row),
            d: plan(self.volta, FragmentKind::D, shape, d_type, Layout::Row),
        };
        mma(&plans, shape, (d, a, b, c), None, regs);
    }

    fn mma_sync(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        meta: Option<Reg>,
        regs: &mut WarpRegFile,
    ) {
        let WmmaDirective::MmaSync {
            shape,
            ab_type,
            c_type,
            d_type,
            sparse,
        } = *dir
        else {
            panic!("mma_sync requires an MmaSync directive")
        };
        assert!(
            !self.volta,
            "mma.sync requires an Ampere-generation tensor core"
        );
        // mma.sync operand layouts are fixed (A row-major, B col-major);
        // the stored layout qualifier does not change the mapping.
        let a_shape = mma_sync_a_shape(shape, sparse);
        let plans = MmaPlans {
            a: plan(false, FragmentKind::A, a_shape, ab_type, Layout::Row),
            b: plan(false, FragmentKind::B, shape, ab_type, Layout::Col),
            c: plan(false, FragmentKind::C, shape, c_type, Layout::Row),
            d: plan(false, FragmentKind::D, shape, d_type, Layout::Row),
        };
        let sparse_meta = sparse.then(|| {
            let mreg = meta.expect("sparse mma.sync requires a metadata register");
            read_sparse_meta(regs, mreg)
        });
        mma(&plans, shape, (d, a, b, c), sparse_meta, regs);
    }

    fn wmma_store(
        &self,
        dir: &WmmaDirective,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        let WmmaDirective::Store { shape, layout, ty } = *dir else {
            panic!("wmma_store requires a Store directive")
        };
        plan(self.volta, FragmentKind::D, shape, ty, layout)
            .store(src, base, stride, mem, regs, accesses)
    }

    fn tile_accesses(
        &self,
        dir: &WmmaDirective,
        tile: &TileFootprint,
        accesses: &mut Vec<MemAccess>,
    ) {
        let (frag, shape, ty, layout) = match *dir {
            WmmaDirective::Load {
                frag,
                shape,
                layout,
                ty,
            } => (frag, shape, ty, layout),
            WmmaDirective::Store { shape, layout, ty } => (FragmentKind::D, shape, ty, layout),
            _ => panic!("tile_accesses requires a Load or Store directive"),
        };
        plan(self.volta, frag, shape, ty, layout).tile_accesses(tile, accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_f16::F16;
    use tcsim_isa::{VecMemory, WarpRegFile, WmmaShape};

    /// Writes a row-major f16 16×16 matrix with value(r,c) = r*16+c.
    fn seed_f16_matrix(mem: &mut VecMemory, base: u64, rows: usize, cols: usize, layout: Layout) {
        for r in 0..rows {
            for c in 0..cols {
                let v = F16::from_f32((r * cols + c) as f32 % 512.0);
                let linear = match layout {
                    Layout::Row => r * cols + c,
                    Layout::Col => c * rows + r,
                };
                mem.write_u16(base + (linear * 2) as u64, v.to_bits());
            }
        }
    }

    #[test]
    fn load_then_gather_reconstructs_matrix_all_layouts() {
        for volta in [true, false] {
            for layout in [Layout::Row, Layout::Col] {
                let model = if volta {
                    TensorCoreModel::volta()
                } else {
                    TensorCoreModel::turing()
                };
                let dir = WmmaDirective::Load {
                    frag: FragmentKind::A,
                    shape: WmmaShape::M16N16K16,
                    layout,
                    ty: WmmaType::F16,
                };
                let mut mem = VecMemory::new();
                seed_f16_matrix(&mut mem, 64, 16, 16, layout);
                let mut regs = WarpRegFile::new(16);
                let mut acc = Vec::new();
                let tile = model.wmma_load(&dir, Reg(0), 64, 16, &mem, &mut regs, &mut acc);
                // Packed lines: reported as a footprint, no lane accesses.
                assert_eq!(
                    tile,
                    Some(TileFootprint {
                        base: 64,
                        pitch_bytes: 32,
                        line_bytes: 32,
                        lines: 16
                    })
                );
                assert!(acc.is_empty());
                let map = FragmentMap::for_arch(
                    volta,
                    FragmentKind::A,
                    WmmaShape::M16N16K16,
                    WmmaType::F16,
                    layout,
                );
                let tile = gather_tile(&map, Reg(0), &regs);
                for r in 0..16 {
                    for c in 0..16 {
                        assert_eq!(
                            tile.get_f16(r, c).to_f32(),
                            (r * 16 + c) as f32,
                            "volta={volta} {layout} ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn volta_load_access_counts_match_sass_decomposition() {
        let model = TensorCoreModel::volta();
        let mut mem = VecMemory::new();
        seed_f16_matrix(&mut mem, 0, 16, 16, Layout::Row);
        let mut regs = WarpRegFile::new(16);
        // The lane accesses behind the footprint a load reports.
        let mut load = |frag, layout, ty, dst| {
            let dir = WmmaDirective::Load {
                frag,
                shape: WmmaShape::M16N16K16,
                layout,
                ty,
            };
            let mut acc = Vec::new();
            let tile = model
                .wmma_load(&dir, dst, 0, 16, &mem, &mut regs, &mut acc)
                .expect("packed lines do not overlap");
            model.tile_accesses(&dir, &tile, &mut acc);
            acc
        };
        // Row-major A: 2 × LD.E.128 per thread = 64 accesses.
        let acc = load(FragmentKind::A, Layout::Row, WmmaType::F16, Reg(0));
        assert_eq!(acc.len(), 64);
        assert!(acc.iter().all(|a| a.bytes == 16));
        // Column-major A: 4 × LD.E.64 per thread = 128 accesses.
        let acc = load(FragmentKind::A, Layout::Col, WmmaType::F16, Reg(0));
        assert_eq!(acc.len(), 128);
        assert!(acc.iter().all(|a| a.bytes == 8));
        // C in FP32: 8 × 32-bit per thread = 256 accesses.
        let acc = load(FragmentKind::C, Layout::Row, WmmaType::F32, Reg(8));
        assert_eq!(acc.len(), 256);
        assert!(acc.iter().all(|a| a.bytes == 4));
    }

    #[test]
    fn full_mma_pipeline_matches_cpu_reference() {
        // load A, B, C → mma → store D, compare against a plain matmul.
        for volta in [true, false] {
            let model = if volta {
                TensorCoreModel::volta()
            } else {
                TensorCoreModel::turing()
            };
            let shape = WmmaShape::M16N16K16;
            let mut mem = VecMemory::new();
            let (a_base, b_base, c_base, d_base) = (0u64, 0x1000u64, 0x2000u64, 0x3000u64);
            // A(r,c) = (r+2c) % 9 - 4 ; B = (3r+c) % 7 - 3 ; C = r - c.
            for r in 0..16usize {
                for c in 0..16usize {
                    let av = F16::from_f32(((r + 2 * c) % 9) as f32 - 4.0);
                    let bv = F16::from_f32(((3 * r + c) % 7) as f32 - 3.0);
                    mem.write_u16(a_base + (r * 16 + c) as u64 * 2, av.to_bits());
                    mem.write_u16(b_base + (r * 16 + c) as u64 * 2, bv.to_bits());
                    mem.write_u32(
                        c_base + (r * 16 + c) as u64 * 4,
                        ((r as f32) - (c as f32)).to_bits(),
                    );
                }
            }
            let mut regs = WarpRegFile::new(64);
            let (ra, rb, rc, rd) = (Reg(0), Reg(8), Reg(16), Reg(24));
            model.wmma_load(
                &WmmaDirective::Load {
                    frag: FragmentKind::A,
                    shape,
                    layout: Layout::Row,
                    ty: WmmaType::F16,
                },
                ra,
                a_base,
                16,
                &mem,
                &mut regs,
                &mut Vec::new(),
            );
            model.wmma_load(
                &WmmaDirective::Load {
                    frag: FragmentKind::B,
                    shape,
                    layout: Layout::Row,
                    ty: WmmaType::F16,
                },
                rb,
                b_base,
                16,
                &mem,
                &mut regs,
                &mut Vec::new(),
            );
            model.wmma_load(
                &WmmaDirective::Load {
                    frag: FragmentKind::C,
                    shape,
                    layout: Layout::Row,
                    ty: WmmaType::F32,
                },
                rc,
                c_base,
                16,
                &mem,
                &mut regs,
                &mut Vec::new(),
            );
            model.wmma_mma(
                &WmmaDirective::Mma {
                    shape,
                    a_layout: Layout::Row,
                    b_layout: Layout::Row,
                    ab_type: WmmaType::F16,
                    c_type: WmmaType::F32,
                    d_type: WmmaType::F32,
                },
                rd,
                ra,
                rb,
                rc,
                &mut regs,
            );
            model.wmma_store(
                &WmmaDirective::Store {
                    shape,
                    layout: Layout::Row,
                    ty: WmmaType::F32,
                },
                rd,
                d_base,
                16,
                &mut mem,
                &regs,
                &mut Vec::new(),
            );
            for r in 0..16usize {
                for c in 0..16usize {
                    let mut expect = (r as f32) - (c as f32);
                    for k in 0..16usize {
                        let av = ((r + 2 * k) % 9) as f32 - 4.0;
                        let bv = ((3 * k + c) % 7) as f32 - 3.0;
                        expect += av * bv;
                    }
                    let got = f32::from_bits(mem.read_u32(d_base + (r * 16 + c) as u64 * 4));
                    assert_eq!(got, expect, "volta={volta} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn mixed_layout_mma_handles_transposed_operands() {
        // A column-major, B column-major: fragment contents differ but the
        // mathematical result must be identical.
        let model = TensorCoreModel::volta();
        let shape = WmmaShape::M16N16K16;
        let mut mem = VecMemory::new();
        seed_f16_matrix(&mut mem, 0, 16, 16, Layout::Col); // A col-major
        seed_f16_matrix(&mut mem, 0x1000, 16, 16, Layout::Col); // B col-major
        let mut regs = WarpRegFile::new(64);
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::A,
                shape,
                layout: Layout::Col,
                ty: WmmaType::F16,
            },
            Reg(0),
            0,
            16,
            &mem,
            &mut regs,
            &mut Vec::new(),
        );
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::B,
                shape,
                layout: Layout::Col,
                ty: WmmaType::F16,
            },
            Reg(8),
            0x1000,
            16,
            &mem,
            &mut regs,
            &mut Vec::new(),
        );
        model.wmma_mma(
            &WmmaDirective::Mma {
                shape,
                a_layout: Layout::Col,
                b_layout: Layout::Col,
                ab_type: WmmaType::F16,
                c_type: WmmaType::F32,
                d_type: WmmaType::F32,
            },
            Reg(24),
            Reg(0),
            Reg(8),
            Reg(16),
            &mut regs,
        );
        model.wmma_store(
            &WmmaDirective::Store {
                shape,
                layout: Layout::Row,
                ty: WmmaType::F32,
            },
            Reg(24),
            0x2000,
            16,
            &mut mem,
            &regs,
            &mut Vec::new(),
        );
        // D(0,0) = Σ_k A(0,k)·B(k,0) = Σ_k k·(k·16 % 512) won't overflow f32;
        // compute the reference directly.
        let mut expect = 0f32;
        for k in 0..16 {
            let av = (k as f32) % 512.0; // A(0,k) = 0*16+k
            let bv = ((k * 16) as f32) % 512.0; // B(k,0) = k*16+0
            expect += av * bv;
        }
        let got = f32::from_bits(mem.read_u32(0x2000));
        assert_eq!(got, expect);
    }

    #[test]
    fn turing_int8_mma_through_fragments() {
        let model = TensorCoreModel::turing();
        let shape = WmmaShape::M16N16K16;
        let mut mem = VecMemory::new();
        for r in 0..16usize {
            for c in 0..16usize {
                mem.write_u8((r * 16 + c) as u64, (r * 3 + c) as u8);
                mem.write_u8(0x400 + (r * 16 + c) as u64, (r + 5 * c) as u8);
            }
        }
        let mut regs = WarpRegFile::new(64);
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::A,
                shape,
                layout: Layout::Row,
                ty: WmmaType::S8,
            },
            Reg(0),
            0,
            16,
            &mem,
            &mut regs,
            &mut Vec::new(),
        );
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::B,
                shape,
                layout: Layout::Row,
                ty: WmmaType::S8,
            },
            Reg(4),
            0x400,
            16,
            &mem,
            &mut regs,
            &mut Vec::new(),
        );
        model.wmma_mma(
            &WmmaDirective::Mma {
                shape,
                a_layout: Layout::Row,
                b_layout: Layout::Row,
                ab_type: WmmaType::S8,
                c_type: WmmaType::S32,
                d_type: WmmaType::S32,
            },
            Reg(24),
            Reg(0),
            Reg(4),
            Reg(8),
            &mut regs,
        );
        model.wmma_store(
            &WmmaDirective::Store {
                shape,
                layout: Layout::Row,
                ty: WmmaType::S32,
            },
            Reg(24),
            0x800,
            16,
            &mut mem,
            &regs,
            &mut Vec::new(),
        );
        for r in 0..16usize {
            for c in 0..16usize {
                let mut expect = 0i64;
                for k in 0..16usize {
                    let av = ((r * 3 + k) as u8) as i8 as i64;
                    let bv = ((k + 5 * c) as u8) as i8 as i64;
                    expect += av * bv;
                }
                let got = mem.read_u32(0x800 + (r * 16 + c) as u64 * 4) as i32 as i64;
                assert_eq!(got, expect, "({r},{c})");
            }
        }
    }

    /// Loads A, B and C fragments for a `mma.sync` tile from memory images
    /// built with `value(r,c) = f(r,c)`, small integers exact in every
    /// multiplicand format.
    fn load_mma_sync_operands(
        model: &TensorCoreModel,
        regs: &mut WarpRegFile,
        shape: WmmaShape,
        ab_type: WmmaType,
        a_dims: (usize, usize),
        k: usize,
    ) {
        let mut mem = VecMemory::new();
        let ebytes = ab_type.bits() / 8;
        let (ar, ac) = a_dims;
        for r in 0..ar {
            for c in 0..ac {
                let v = ((r + 2 * c) % 9) as f32 - 4.0;
                let linear = (r * ac + c) * ebytes;
                match ab_type {
                    WmmaType::F16 => mem.write_u16(linear as u64, F16::from_f32(v).to_bits()),
                    WmmaType::BF16 => {
                        mem.write_u16(linear as u64, tcsim_f16::Bf16::from_f32(v).to_bits())
                    }
                    WmmaType::TF32 => {
                        mem.write_u32(linear as u64, tcsim_f16::Tf32::from_f32(v).to_bits())
                    }
                    other => panic!("unexpected ab type {other}"),
                }
            }
        }
        for r in 0..k {
            for c in 0..8 {
                let v = ((3 * r + c) % 7) as f32 - 3.0;
                let linear = 0x1000 + (r * 8 + c) * ebytes;
                match ab_type {
                    WmmaType::F16 => mem.write_u16(linear as u64, F16::from_f32(v).to_bits()),
                    WmmaType::BF16 => {
                        mem.write_u16(linear as u64, tcsim_f16::Bf16::from_f32(v).to_bits())
                    }
                    WmmaType::TF32 => {
                        mem.write_u32(linear as u64, tcsim_f16::Tf32::from_f32(v).to_bits())
                    }
                    other => panic!("unexpected ab type {other}"),
                }
            }
        }
        for r in 0..16 {
            for c in 0..8 {
                let v = (r as f32) - (c as f32);
                mem.write_u32(0x2000 + ((r * 8 + c) * 4) as u64, v.to_bits());
            }
        }
        let a_shape = if a_dims.1 == k {
            shape
        } else {
            WmmaShape::M16N8K8
        };
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::A,
                shape: a_shape,
                layout: Layout::Row,
                ty: ab_type,
            },
            Reg(0),
            0,
            ac,
            &mem,
            regs,
            &mut Vec::new(),
        );
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::B,
                shape,
                layout: Layout::Row,
                ty: ab_type,
            },
            Reg(8),
            0x1000,
            8,
            &mem,
            regs,
            &mut Vec::new(),
        );
        model.wmma_load(
            &WmmaDirective::Load {
                frag: FragmentKind::C,
                shape,
                layout: Layout::Row,
                ty: WmmaType::F32,
            },
            Reg(16),
            0x2000,
            8,
            &mem,
            regs,
            &mut Vec::new(),
        );
    }

    #[test]
    fn dense_mma_sync_matches_cpu_reference_for_all_types() {
        let model = TensorCoreModel::ampere();
        for (shape, ab_type, k) in [
            (WmmaShape::M16N8K8, WmmaType::F16, 8),
            (WmmaShape::M16N8K16, WmmaType::F16, 16),
            (WmmaShape::M16N8K8, WmmaType::BF16, 8),
            (WmmaShape::M16N8K16, WmmaType::BF16, 16),
            (WmmaShape::M16N8K8, WmmaType::TF32, 8),
        ] {
            let mut regs = WarpRegFile::new(64);
            load_mma_sync_operands(&model, &mut regs, shape, ab_type, (16, k), k);
            model.mma_sync(
                &WmmaDirective::MmaSync {
                    shape,
                    ab_type,
                    c_type: WmmaType::F32,
                    d_type: WmmaType::F32,
                    sparse: false,
                },
                Reg(24),
                Reg(0),
                Reg(8),
                Reg(16),
                None,
                &mut regs,
            );
            let dmap =
                FragmentMap::for_arch(false, FragmentKind::D, shape, WmmaType::F32, Layout::Row);
            let dt = gather_tile(&dmap, Reg(24), &regs);
            for r in 0..16usize {
                for c in 0..8usize {
                    let mut expect = (r as f32) - (c as f32);
                    for kk in 0..k {
                        let av = ((r + 2 * kk) % 9) as f32 - 4.0;
                        let bv = ((3 * kk + c) % 7) as f32 - 3.0;
                        expect += av * bv;
                    }
                    assert_eq!(dt.get_f32(r, c), expect, "{shape} {ab_type} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn sparse_mma_sync_matches_dense_on_expanded_operand() {
        let model = TensorCoreModel::ampere();
        let shape = WmmaShape::M16N8K16;
        for ab_type in [WmmaType::F16, WmmaType::BF16] {
            let mut regs = WarpRegFile::new(64);
            // Compressed A is the m16n8k8-sized 16×8 tile.
            load_mma_sync_operands(&model, &mut regs, shape, ab_type, (16, 8), 16);
            // Row r keeps indices (r%3, r%3+1) in every group of four.
            let mreg = Reg(30);
            let metas: Vec<u16> = (0..16)
                .map(|r| {
                    let i0 = (r % 3) as u8;
                    crate::hmma::pack_sparse_row_meta([(i0, i0 + 1); 4])
                })
                .collect();
            for lane in 0..WARP_SIZE {
                let g = lane / 4;
                let word = (metas[g] as u32) | ((metas[g + 8] as u32) << 16);
                regs.write(lane, mreg, word);
            }
            model.mma_sync(
                &WmmaDirective::MmaSync {
                    shape,
                    ab_type,
                    c_type: WmmaType::F32,
                    d_type: WmmaType::F32,
                    sparse: true,
                },
                Reg(24),
                Reg(0),
                Reg(8),
                Reg(16),
                Some(mreg),
                &mut regs,
            );
            let dmap =
                FragmentMap::for_arch(false, FragmentKind::D, shape, WmmaType::F32, Layout::Row);
            let dt = gather_tile(&dmap, Reg(24), &regs);
            for r in 0..16usize {
                for c in 0..8usize {
                    let mut expect = (r as f32) - (c as f32);
                    // Compressed column 2j+s contributes at dense k =
                    // 4j + (r%3 + s).
                    for j in 0..4usize {
                        for s in 0..2usize {
                            let av = ((r + 2 * (2 * j + s)) % 9) as f32 - 4.0;
                            let kk = 4 * j + (r % 3) + s;
                            let bv = ((3 * kk + c) % 7) as f32 - 3.0;
                            expect += av * bv;
                        }
                    }
                    assert_eq!(dt.get_f32(r, c), expect, "{ab_type} ({r},{c})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "metadata register")]
    fn sparse_mma_sync_without_metadata_panics() {
        let model = TensorCoreModel::ampere();
        let mut regs = WarpRegFile::new(64);
        model.mma_sync(
            &WmmaDirective::MmaSync {
                shape: WmmaShape::M16N8K16,
                ab_type: WmmaType::F16,
                c_type: WmmaType::F32,
                d_type: WmmaType::F32,
                sparse: true,
            },
            Reg(24),
            Reg(0),
            Reg(8),
            Reg(16),
            None,
            &mut regs,
        );
    }

    #[test]
    fn frag_elem_bit_packing() {
        let mut regs = WarpRegFile::new(4);
        // 16-bit slots: slot 1 lives in high half of reg 0.
        write_frag_elem(&mut regs, 0, Reg(0), 1, 16, 0xABCD);
        assert_eq!(regs.read(0, Reg(0)), 0xABCD_0000);
        assert_eq!(read_frag_elem(&regs, 0, Reg(0), 1, 16), 0xABCD);
        // 8-bit slots.
        write_frag_elem(&mut regs, 1, Reg(0), 3, 8, 0x7F);
        assert_eq!(regs.read(1, Reg(0)), 0x7F00_0000);
        // 4-bit slots: slot 9 = reg 1, bits 4..8.
        write_frag_elem(&mut regs, 2, Reg(0), 9, 4, 0xF);
        assert_eq!(regs.read(2, Reg(1)), 0x0000_00F0);
        assert_eq!(read_frag_elem(&regs, 2, Reg(0), 9, 4), 0xF);
        // 32-bit slots.
        write_frag_elem(&mut regs, 3, Reg(0), 2, 32, 0xDEADBEEF);
        assert_eq!(regs.read(3, Reg(2)), 0xDEADBEEF);
    }
}
