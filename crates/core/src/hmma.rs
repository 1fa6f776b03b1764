//! HMMA decomposition: sets, steps, and the outer-product schedule
//! (§III-C/D/E, Table III, Fig 9/10/11).
//!
//! One `wmma.mma` PTX instruction becomes a group of HMMA SASS
//! instructions:
//!
//! * **Volta, mixed precision**: 4 sets × 4 steps = 16 HMMA. In set *s*,
//!   each octet computes the outer product of A's k-block *s* with B's
//!   k-block *s*; within the set, step 0/1 multiply the low/high two rows
//!   of each threadgroup's A subtile against the B subtile loaded by the
//!   octet's *low* threadgroup, steps 2/3 against the *high* threadgroup's
//!   B subtile (Table III).
//! * **Volta, FP16**: 4 sets × 2 steps = 8 HMMA; each step covers all four
//!   rows (Fig 10c).
//! * **Turing**: 4 HMMA for every mode except 4-bit (1 HMMA); the paper
//!   infers the per-set operand footprints of Fig 11 (steps, if any, are
//!   sequenced by a hardware state machine, §III-D2).
//!
//! [`execute_stepwise_volta`] runs the decomposed schedule and is verified (in
//! tests and property tests) to produce bit-identical results to the
//! atomic whole-tile semantics of [`mma_reference`].

use crate::fedp::{fedp_chain_f32, fedp_f32, fedp_i32};
use crate::mapping::{VOLTA_A_ROW_BASE, VOLTA_B_COL_BASE};
use crate::tile::Tile;
use tcsim_f16::F16;
use tcsim_isa::{WmmaShape, WmmaType};

/// Number of HMMA sets per `wmma.mma` (all modes except Turing 4-bit).
pub const SETS: usize = 4;

/// Arithmetic mode of an MMA, determining step counts and accumulator
/// precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MmaMode {
    /// FP16 multiplicands, FP32 result registers (mixed precision).
    MixedF32,
    /// FP16 multiplicands, FP16 result registers.
    Fp16,
    /// 8/4-bit integer multiplicands, INT32 accumulate (Turing).
    Integer,
}

impl MmaMode {
    /// Classifies from the `wmma.mma` / `mma.sync` type qualifiers. The
    /// Ampere BF16/TF32 multiplicands always accumulate in FP32, so they
    /// classify as mixed precision.
    pub fn from_types(ab: WmmaType, d: WmmaType) -> MmaMode {
        match (ab, d) {
            (WmmaType::F16 | WmmaType::BF16 | WmmaType::TF32, WmmaType::F32) => MmaMode::MixedF32,
            (WmmaType::F16, WmmaType::F16) => MmaMode::Fp16,
            (WmmaType::S8 | WmmaType::U8 | WmmaType::S4 | WmmaType::U4, WmmaType::S32) => {
                MmaMode::Integer
            }
            other => panic!("invalid mma type combination {other:?}"),
        }
    }

    /// HMMA steps per set on Volta (Fig 9): 4 in mixed precision, 2 in
    /// FP16 mode.
    pub fn volta_steps_per_set(self) -> usize {
        match self {
            MmaMode::MixedF32 => 4,
            MmaMode::Fp16 => 2,
            MmaMode::Integer => panic!("Volta tensor cores have no integer mode"),
        }
    }
}

/// Atomic (whole-tile) functional semantics of `wmma.mma`:
/// `D = A×B + C` with the FEDP numerics of [`crate::fedp`] — the
/// reduction is chained four elements at a time in ascending k order, and
/// FP16 results are rounded once per FEDP.
pub fn mma_reference(a: &Tile, b: &Tile, c: &Tile, d_type: WmmaType) -> Tile {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(b.rows(), k, "A cols must equal B rows");
    assert_eq!((c.rows(), c.cols()), (m, n), "C must be M×N");
    let mut d = Tile::new(d_type, m, n);
    if a.ty().is_integer() {
        // Decode each operand element once (A row-major, B transposed to
        // column-major) instead of re-extracting k elements per output
        // cell; the dot product itself is unchanged.
        let av: Vec<i32> = (0..m)
            .flat_map(|r| (0..k).map(move |i| a.get_i32(r, i)))
            .collect();
        let bt: Vec<i32> = (0..n)
            .flat_map(|col| (0..k).map(move |i| b.get_i32(i, col)))
            .collect();
        for r in 0..m {
            for col in 0..n {
                let acc = crate::fedp::dot_i32(
                    &av[r * k..(r + 1) * k],
                    &bt[col * k..(col + 1) * k],
                    c.get_i32(r, col),
                );
                d.set_i32(r, col, acc);
            }
        }
    } else {
        // Same hoist for the floating modes. F16/BF16/TF32 → binary32 is
        // exact, so widening each multiplicand once up front leaves every
        // FEDP product bit-identical to converting inside the chain.
        let av: Vec<f32> = (0..m)
            .flat_map(|r| (0..k).map(move |i| a.widen_f32(r, i)))
            .collect();
        let bt: Vec<f32> = (0..n)
            .flat_map(|col| (0..k).map(move |i| b.widen_f32(i, col)))
            .collect();
        for r in 0..m {
            for col in 0..n {
                let acc = fedp_chain_f32(
                    &av[r * k..(r + 1) * k],
                    &bt[col * k..(col + 1) * k],
                    c.value(r, col) as f32,
                    d_type == WmmaType::F16,
                );
                if d_type == WmmaType::F16 {
                    d.set_f16(r, col, F16::from_f32(acc));
                } else {
                    d.set_f32(r, col, acc);
                }
            }
        }
    }
    d
}

/// Number of dense `k` indices covered by one 2:4 sparsity metadata group.
pub const SPARSE_GROUP_K: usize = 4;
/// Bits of metadata per kept element index.
pub const SPARSE_INDEX_BITS: u32 = 2;

/// Packs one row's 2:4 sparsity metadata word: `groups[j] = (i0, i1)` are
/// the dense-k indices (0–3, `i0 < i1`) of the two elements kept from
/// dense k-group `j`. Group `j` occupies bits `4j..4j+4` (index 0 in the
/// low two bits).
pub fn pack_sparse_row_meta(groups: [(u8, u8); 4]) -> u16 {
    let mut meta = 0u16;
    for (j, &(i0, i1)) in groups.iter().enumerate() {
        assert!(
            i0 < 4 && i1 < 4 && i0 < i1,
            "2:4 indices must be ascending and in 0..4"
        );
        meta |= ((i0 as u16) | ((i1 as u16) << SPARSE_INDEX_BITS)) << (4 * j);
    }
    meta
}

/// Expands a 2:4-compressed `mma.sp.sync` A operand to its dense tile.
///
/// `a` is the 16×8 compressed operand (every row stores only the kept
/// elements, two per dense k-group, in ascending k order) and
/// `row_meta[r]` the metadata word of row `r` in the
/// [`pack_sparse_row_meta`] encoding. The result is the 16×16 dense tile
/// with the dropped elements as +0 — multiplying it with
/// [`mma_reference`] defines the sparse-GEMM semantics (the hardware
/// skips the zero products; the FEDP chain still sees four addends per
/// quad, so numerics match the dense unit with zeros in place).
///
/// Works for any 16-bit multiplicand type (F16/BF16): elements move at
/// the bit level.
pub fn expand_sparse_a(a: &Tile, row_meta: &[u16]) -> Tile {
    assert_eq!(a.cols() * 2, a.rows(), "compressed A must be 16x8");
    assert_eq!(row_meta.len(), a.rows(), "one metadata word per row");
    let mut dense = Tile::new(a.ty(), a.rows(), a.cols() * 2);
    for (r, &meta) in row_meta.iter().enumerate() {
        for j in 0..a.cols() / 2 {
            let nibble = (meta >> (4 * j)) & 0xF;
            let i0 = (nibble & 0x3) as usize;
            let i1 = ((nibble >> SPARSE_INDEX_BITS) & 0x3) as usize;
            dense.set_bits(r, SPARSE_GROUP_K * j + i0, a.get_bits(r, 2 * j));
            dense.set_bits(r, SPARSE_GROUP_K * j + i1, a.get_bits(r, 2 * j + 1));
        }
    }
    dense
}

/// One HMMA instruction's operand footprint for one threadgroup:
/// `A[a_rows] × B[·, b_cols]` over reduction block `k_range`, accumulated
/// into `D[a_rows, b_cols]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepCompute {
    /// Set index (0-based).
    pub set: usize,
    /// Step index within the set (0-based).
    pub step: usize,
    /// Threadgroup performing this piece.
    pub threadgroup: usize,
    /// Output (and A) rows.
    pub a_rows: Vec<usize>,
    /// Reduction indices (columns of A = rows of B).
    pub k_range: Vec<usize>,
    /// Output (and B) columns.
    pub b_cols: Vec<usize>,
}

/// The full Volta HMMA schedule: for each of the 16 (or 8) HMMA
/// instructions, the per-threadgroup computations it performs, in issue
/// order (Table III expanded to all four octets).
pub fn volta_schedule(mode: MmaMode) -> Vec<Vec<StepCompute>> {
    let steps_per_set = mode.volta_steps_per_set();
    let mut out = Vec::new();
    for set in 0..SETS {
        for step in 0..steps_per_set {
            let mut pieces = Vec::new();
            for octet in 0..4 {
                let (tg_lo, tg_hi) = (octet, octet + 4);
                // Which B-column block this step multiplies against: the
                // low threadgroup's columns first, then the high's.
                let (row_sel, b_src) = match mode {
                    MmaMode::MixedF32 => (step % 2, step / 2),
                    MmaMode::Fp16 => (usize::MAX, step), // all rows
                    MmaMode::Integer => unreachable!(),
                };
                let b_base = VOLTA_B_COL_BASE[if b_src == 0 { tg_lo } else { tg_hi }];
                let b_cols: Vec<usize> = (b_base..b_base + 4).collect();
                let k_range: Vec<usize> = (4 * set..4 * set + 4).collect();
                for tg in [tg_lo, tg_hi] {
                    let a_base = VOLTA_A_ROW_BASE[tg];
                    let a_rows: Vec<usize> = if row_sel == usize::MAX {
                        (a_base..a_base + 4).collect()
                    } else {
                        (a_base + 2 * row_sel..a_base + 2 * row_sel + 2).collect()
                    };
                    pieces.push(StepCompute {
                        set,
                        step,
                        threadgroup: tg,
                        a_rows,
                        k_range: k_range.clone(),
                        b_cols: b_cols.clone(),
                    });
                }
            }
            out.push(pieces);
        }
    }
    out
}

/// Table III in the paper's notation: the outer-product pieces of octet 0
/// in mixed-precision mode, as `(set, step, "a[0:1]×A", "e[0:1]×A")`.
pub fn table3_rows() -> Vec<(usize, usize, String, String)> {
    let a_letters = ['a', 'b', 'c', 'd']; // TG X's A k-blocks
    let e_letters = ['e', 'f', 'g', 'h']; // TG X+4's A k-blocks
    let b_low = ['A', 'B', 'C', 'D']; // B k-blocks in TG X's columns
    let b_high = ['E', 'F', 'G', 'H']; // B k-blocks in TG X+4's columns
    let mut rows = Vec::new();
    for set in 0..SETS {
        for step in 0..4 {
            let rowpart = if step % 2 == 0 { "[0:1]" } else { "[2:3]" };
            let b = if step / 2 == 0 {
                b_low[set]
            } else {
                b_high[set]
            };
            rows.push((
                set + 1,
                step,
                format!("{}{}×{}", a_letters[set], rowpart, b),
                format!("{}{}×{}", e_letters[set], rowpart, b),
            ));
        }
    }
    rows
}

/// One Turing HMMA ("set") footprint: the sub-products of Fig 11.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetCompute {
    /// Set index (0-based).
    pub set: usize,
    /// Output rows `[start, end)`.
    pub m: (usize, usize),
    /// Reduction block `[start, end)`.
    pub k: (usize, usize),
    /// Output columns `[start, end)`.
    pub n: (usize, usize),
}

/// The per-set operand footprints on Turing (Fig 11). Every (m, k, n)
/// product term is covered by exactly one set; sets are ordered so that
/// each output element sees its k blocks in ascending order.
pub fn turing_sets(shape: WmmaShape, mode: MmaMode) -> Vec<SetCompute> {
    let (m, n, k) = (shape.m(), shape.n(), shape.k());
    let mk = |set, mr: (usize, usize), kr, nr| SetCompute {
        set,
        m: mr,
        k: kr,
        n: nr,
    };
    match (shape, mode) {
        // 4-bit: a single HMMA covers the whole tile (§III-D2).
        (WmmaShape::M8N8K32, MmaMode::Integer) => vec![mk(0, (0, m), (0, k), (0, n))],
        // FP16/mixed 16×16×16: 16×8 of A times 8×8 of B per set (Fig 11a).
        (WmmaShape::M16N16K16, MmaMode::Fp16 | MmaMode::MixedF32) => vec![
            mk(0, (0, 16), (0, 8), (0, 8)),
            mk(1, (0, 16), (8, 16), (0, 8)),
            mk(2, (0, 16), (0, 8), (8, 16)),
            mk(3, (0, 16), (8, 16), (8, 16)),
        ],
        // 8-bit 16×16×16: 8×16 of A times 16×8 of B per set (Fig 11b).
        (WmmaShape::M16N16K16, MmaMode::Integer) => vec![
            mk(0, (0, 8), (0, 16), (0, 8)),
            mk(1, (8, 16), (0, 16), (0, 8)),
            mk(2, (0, 8), (0, 16), (8, 16)),
            mk(3, (8, 16), (0, 16), (8, 16)),
        ],
        // FP16/mixed 32×8×16: 16×8 of A times 8×8 of B (Fig 11d).
        (WmmaShape::M32N8K16, MmaMode::Fp16 | MmaMode::MixedF32) => vec![
            mk(0, (0, 16), (0, 8), (0, 8)),
            mk(1, (0, 16), (8, 16), (0, 8)),
            mk(2, (16, 32), (0, 8), (0, 8)),
            mk(3, (16, 32), (8, 16), (0, 8)),
        ],
        // 8-bit 32×8×16: 8×16 of A times the whole 16×8 B (Fig 11e).
        (WmmaShape::M32N8K16, MmaMode::Integer) => vec![
            mk(0, (0, 8), (0, 16), (0, 8)),
            mk(1, (8, 16), (0, 16), (0, 8)),
            mk(2, (16, 24), (0, 16), (0, 8)),
            mk(3, (24, 32), (0, 16), (0, 8)),
        ],
        // FP16/mixed 8×32×16: 8×8 of A times 8×16 of B (Fig 11f).
        (WmmaShape::M8N32K16, MmaMode::Fp16 | MmaMode::MixedF32) => vec![
            mk(0, (0, 8), (0, 8), (0, 16)),
            mk(1, (0, 8), (8, 16), (0, 16)),
            mk(2, (0, 8), (0, 8), (16, 32)),
            mk(3, (0, 8), (8, 16), (16, 32)),
        ],
        // 8-bit 8×32×16: the whole 8×16 A times 16×8 of B (Fig 11c).
        (WmmaShape::M8N32K16, MmaMode::Integer) => vec![
            mk(0, (0, 8), (0, 16), (0, 8)),
            mk(1, (0, 8), (0, 16), (8, 16)),
            mk(2, (0, 8), (0, 16), (16, 24)),
            mk(3, (0, 8), (0, 16), (24, 32)),
        ],
        other => panic!("unsupported Turing shape/mode combination {other:?}"),
    }
}

/// Accumulator matrix used by the stepwise executors: FP32 (with optional
/// per-FEDP FP16 rounding) or INT32.
enum Acc {
    Float { vals: Vec<f32>, round_f16: bool },
    Int(Vec<i32>),
}

impl Acc {
    fn init(c: &Tile, d_type: WmmaType) -> Acc {
        if d_type == WmmaType::S32 {
            Acc::Int(
                (0..c.rows())
                    .flat_map(|r| (0..c.cols()).map(move |cc| (r, cc)))
                    .map(|(r, cc)| c.get_i32(r, cc))
                    .collect(),
            )
        } else {
            Acc::Float {
                vals: (0..c.rows())
                    .flat_map(|r| (0..c.cols()).map(move |cc| (r, cc)))
                    .map(|(r, cc)| c.value(r, cc) as f32)
                    .collect(),
                round_f16: d_type == WmmaType::F16,
            }
        }
    }

    fn fedp(&mut self, idx: usize, a: [F16; 4], b: [F16; 4]) {
        let Acc::Float { vals, round_f16 } = self else {
            panic!("float fedp on int acc")
        };
        let mut v = fedp_f32(a, b, vals[idx]);
        if *round_f16 {
            v = F16::from_f32(v).to_f32();
        }
        vals[idx] = v;
    }

    fn fedp_int(&mut self, idx: usize, a: [i32; 4], b: [i32; 4]) {
        let Acc::Int(vals) = self else {
            panic!("int fedp on float acc")
        };
        vals[idx] = fedp_i32(a, b, vals[idx]);
    }

    fn into_tile(self, d_type: WmmaType, rows: usize, cols: usize) -> Tile {
        let mut d = Tile::new(d_type, rows, cols);
        match self {
            Acc::Float { vals, round_f16 } => {
                for r in 0..rows {
                    for c in 0..cols {
                        let v = vals[r * cols + c];
                        if round_f16 {
                            d.set_f16(r, c, F16::from_f32(v));
                        } else {
                            d.set_f32(r, c, v);
                        }
                    }
                }
            }
            Acc::Int(vals) => {
                for r in 0..rows {
                    for c in 0..cols {
                        d.set_i32(r, c, vals[r * cols + c]);
                    }
                }
            }
        }
        d
    }
}

/// Executes the Volta HMMA schedule piece by piece (16 or 8 HMMA
/// instructions, each as its per-threadgroup outer-product fragments) and
/// returns D. Bit-identical to [`mma_reference`].
pub fn execute_stepwise_volta(a: &Tile, b: &Tile, c: &Tile, d_type: WmmaType) -> Tile {
    let mode = MmaMode::from_types(a.ty(), d_type);
    let n = b.cols();
    let mut acc = Acc::init(c, d_type);
    for hmma in volta_schedule(mode) {
        for piece in hmma {
            for &r in &piece.a_rows {
                for &col in &piece.b_cols {
                    let qa: Vec<F16> = piece.k_range.iter().map(|&i| a.get_f16(r, i)).collect();
                    let qb: Vec<F16> = piece.k_range.iter().map(|&i| b.get_f16(i, col)).collect();
                    acc.fedp(
                        r * n + col,
                        [qa[0], qa[1], qa[2], qa[3]],
                        [qb[0], qb[1], qb[2], qb[3]],
                    );
                }
            }
        }
    }
    acc.into_tile(d_type, a.rows(), n)
}

/// Executes the Turing per-set schedule (Fig 11) and returns D.
/// Bit-identical to [`mma_reference`].
pub fn execute_setwise_turing(
    a: &Tile,
    b: &Tile,
    c: &Tile,
    d_type: WmmaType,
    shape: WmmaShape,
) -> Tile {
    let mode = MmaMode::from_types(a.ty(), d_type);
    let n = b.cols();
    let mut acc = Acc::init(c, d_type);
    for set in turing_sets(shape, mode) {
        for r in set.m.0..set.m.1 {
            for col in set.n.0..set.n.1 {
                let ks: Vec<usize> = (set.k.0..set.k.1).collect();
                for quad in ks.chunks_exact(4) {
                    if mode == MmaMode::Integer {
                        let qa: Vec<i32> = quad.iter().map(|&i| a.get_i32(r, i)).collect();
                        let qb: Vec<i32> = quad.iter().map(|&i| b.get_i32(i, col)).collect();
                        acc.fedp_int(
                            r * n + col,
                            [qa[0], qa[1], qa[2], qa[3]],
                            [qb[0], qb[1], qb[2], qb[3]],
                        );
                    } else {
                        let qa: Vec<F16> = quad.iter().map(|&i| a.get_f16(r, i)).collect();
                        let qb: Vec<F16> = quad.iter().map(|&i| b.get_f16(i, col)).collect();
                        acc.fedp(
                            r * n + col,
                            [qa[0], qa[1], qa[2], qa[3]],
                            [qb[0], qb[1], qb[2], qb[3]],
                        );
                    }
                }
            }
        }
    }
    acc.into_tile(d_type, a.rows(), n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::FragmentKind;

    fn filled(frag: FragmentKind, shape: WmmaShape, ty: WmmaType, seed: u32) -> Tile {
        let mut t = Tile::for_fragment(frag, shape, ty);
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        for r in 0..t.rows() {
            for c in 0..t.cols() {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                match ty {
                    WmmaType::F16 => {
                        let v = ((state >> 8) % 64) as f32 / 8.0 - 4.0;
                        t.set_f16(r, c, F16::from_f32(v));
                    }
                    WmmaType::BF16 => {
                        let v = ((state >> 8) % 64) as f32 / 8.0 - 4.0;
                        t.set_bf16(r, c, tcsim_f16::Bf16::from_f32(v));
                    }
                    WmmaType::TF32 => {
                        let v = ((state >> 8) % 64) as f32 / 8.0 - 4.0;
                        t.set_tf32(r, c, tcsim_f16::Tf32::from_f32(v));
                    }
                    WmmaType::F32 => {
                        let v = ((state >> 8) % 256) as f32 / 16.0 - 8.0;
                        t.set_f32(r, c, v);
                    }
                    _ => t.set_i32(r, c, (state >> 8) as i32),
                }
            }
        }
        t
    }

    #[test]
    fn volta_schedule_has_16_hmma_in_mixed_and_8_in_fp16() {
        assert_eq!(volta_schedule(MmaMode::MixedF32).len(), 16);
        assert_eq!(volta_schedule(MmaMode::Fp16).len(), 8);
    }

    #[test]
    fn each_mixed_step_is_2x4_per_threadgroup() {
        // Fig 10b: each step multiplies a 2×4 sub-tile of A with 4×4 of B.
        for hmma in volta_schedule(MmaMode::MixedF32) {
            assert_eq!(hmma.len(), 8, "8 threadgroup pieces per HMMA");
            for piece in hmma {
                assert_eq!(piece.a_rows.len(), 2);
                assert_eq!(piece.k_range.len(), 4);
                assert_eq!(piece.b_cols.len(), 4);
            }
        }
    }

    #[test]
    fn each_fp16_step_is_4x4_per_threadgroup() {
        // Fig 10c: each FP16 step multiplies 4×4 with 4×4.
        for hmma in volta_schedule(MmaMode::Fp16) {
            for piece in hmma {
                assert_eq!(piece.a_rows.len(), 4);
                assert_eq!(piece.b_cols.len(), 4);
            }
        }
    }

    #[test]
    fn set_k_covers_columns_4s_to_4s_plus_4() {
        // Fig 10a: set s multiplies A's k-block s with B's k-block s.
        for (i, hmma) in volta_schedule(MmaMode::MixedF32).iter().enumerate() {
            let set = i / 4;
            for piece in hmma {
                assert_eq!(piece.k_range, (4 * set..4 * set + 4).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn mixed_schedule_covers_every_product_term_exactly_once() {
        // Union over all pieces of (row × k × col) must cover the 16×16×16
        // product space exactly once.
        let mut count = vec![0u8; 16 * 16 * 16];
        for hmma in volta_schedule(MmaMode::MixedF32) {
            for piece in hmma {
                for &r in &piece.a_rows {
                    for &k in &piece.k_range {
                        for &c in &piece.b_cols {
                            count[(r * 16 + k) * 16 + c] += 1;
                        }
                    }
                }
            }
        }
        assert!(count.iter().all(|&n| n == 1));
    }

    #[test]
    fn fp16_schedule_covers_every_product_term_exactly_once() {
        let mut count = vec![0u8; 16 * 16 * 16];
        for hmma in volta_schedule(MmaMode::Fp16) {
            for piece in hmma {
                for &r in &piece.a_rows {
                    for &k in &piece.k_range {
                        for &c in &piece.b_cols {
                            count[(r * 16 + k) * 16 + c] += 1;
                        }
                    }
                }
            }
        }
        assert!(count.iter().all(|&n| n == 1));
    }

    #[test]
    fn table3_matches_paper_rows() {
        let rows = table3_rows();
        assert_eq!(rows.len(), 16);
        // SET 1: a[0:1]×A / e[0:1]×A; then a[2:3]×A; then a[0:1]×E …
        assert_eq!(rows[0], (1, 0, "a[0:1]×A".into(), "e[0:1]×A".into()));
        assert_eq!(rows[1], (1, 1, "a[2:3]×A".into(), "e[2:3]×A".into()));
        assert_eq!(rows[2], (1, 2, "a[0:1]×E".into(), "e[0:1]×E".into()));
        assert_eq!(rows[3], (1, 3, "a[2:3]×E".into(), "e[2:3]×E".into()));
        // SET 4 ends with d[2:3]×H / h[2:3]×H.
        assert_eq!(rows[15], (4, 3, "d[2:3]×H".into(), "h[2:3]×H".into()));
    }

    #[test]
    fn stepwise_volta_equals_reference_all_float_modes() {
        let shape = WmmaShape::M16N16K16;
        for (cty, dty) in [
            (WmmaType::F32, WmmaType::F32),
            (WmmaType::F16, WmmaType::F16),
            (WmmaType::F16, WmmaType::F32),
            (WmmaType::F32, WmmaType::F16),
        ] {
            let a = filled(FragmentKind::A, shape, WmmaType::F16, 1);
            let b = filled(FragmentKind::B, shape, WmmaType::F16, 2);
            let c = filled(FragmentKind::C, shape, cty, 3);
            let want = mma_reference(&a, &b, &c, dty);
            let got = execute_stepwise_volta(&a, &b, &c, dty);
            assert_eq!(got, want, "c={cty} d={dty}");
        }
    }

    #[test]
    fn setwise_turing_equals_reference_all_modes() {
        let cases = [
            (
                WmmaShape::M16N16K16,
                WmmaType::F16,
                WmmaType::F32,
                WmmaType::F32,
            ),
            (
                WmmaShape::M16N16K16,
                WmmaType::F16,
                WmmaType::F16,
                WmmaType::F16,
            ),
            (
                WmmaShape::M16N16K16,
                WmmaType::S8,
                WmmaType::S32,
                WmmaType::S32,
            ),
            (
                WmmaShape::M32N8K16,
                WmmaType::F16,
                WmmaType::F32,
                WmmaType::F32,
            ),
            (
                WmmaShape::M32N8K16,
                WmmaType::U8,
                WmmaType::S32,
                WmmaType::S32,
            ),
            (
                WmmaShape::M8N32K16,
                WmmaType::F16,
                WmmaType::F16,
                WmmaType::F16,
            ),
            (
                WmmaShape::M8N32K16,
                WmmaType::S8,
                WmmaType::S32,
                WmmaType::S32,
            ),
            (
                WmmaShape::M8N8K32,
                WmmaType::S4,
                WmmaType::S32,
                WmmaType::S32,
            ),
            (
                WmmaShape::M8N8K32,
                WmmaType::U4,
                WmmaType::S32,
                WmmaType::S32,
            ),
        ];
        for (shape, abty, cty, dty) in cases {
            let a = filled(FragmentKind::A, shape, abty, 7);
            let b = filled(FragmentKind::B, shape, abty, 11);
            let c = filled(FragmentKind::C, shape, cty, 13);
            let want = mma_reference(&a, &b, &c, dty);
            let got = execute_setwise_turing(&a, &b, &c, dty, shape);
            assert_eq!(got, want, "{shape} {abty}");
        }
    }

    #[test]
    fn turing_sets_cover_product_space_once() {
        for (shape, mode) in [
            (WmmaShape::M16N16K16, MmaMode::MixedF32),
            (WmmaShape::M16N16K16, MmaMode::Integer),
            (WmmaShape::M32N8K16, MmaMode::Fp16),
            (WmmaShape::M32N8K16, MmaMode::Integer),
            (WmmaShape::M8N32K16, MmaMode::MixedF32),
            (WmmaShape::M8N32K16, MmaMode::Integer),
            (WmmaShape::M8N8K32, MmaMode::Integer),
        ] {
            let (m, n, k) = (shape.m(), shape.n(), shape.k());
            let mut count = vec![0u8; m * n * k];
            for s in turing_sets(shape, mode) {
                for r in s.m.0..s.m.1 {
                    for kk in s.k.0..s.k.1 {
                        for c in s.n.0..s.n.1 {
                            count[(r * k + kk) * n + c] += 1;
                        }
                    }
                }
            }
            assert!(count.iter().all(|&x| x == 1), "{shape} {mode:?}");
        }
    }

    #[test]
    fn turing_4bit_is_single_hmma() {
        assert_eq!(turing_sets(WmmaShape::M8N8K32, MmaMode::Integer).len(), 1);
        assert_eq!(turing_sets(WmmaShape::M16N16K16, MmaMode::Fp16).len(), 4);
    }

    #[test]
    fn turing_sets_see_k_blocks_in_ascending_order() {
        // For each output element, the sets touching it must come in
        // ascending k order (so rounding in FP16 mode matches the atomic
        // chained-FEDP semantics).
        for (shape, mode) in [
            (WmmaShape::M16N16K16, MmaMode::Fp16),
            (WmmaShape::M32N8K16, MmaMode::Fp16),
            (WmmaShape::M8N32K16, MmaMode::Fp16),
        ] {
            let (m, n) = (shape.m(), shape.n());
            let mut last_k = vec![0usize; m * n];
            for s in turing_sets(shape, mode) {
                for r in s.m.0..s.m.1 {
                    for c in s.n.0..s.n.1 {
                        assert!(s.k.0 >= last_k[r * n + c], "{shape} set {}", s.set);
                        last_k[r * n + c] = s.k.1;
                    }
                }
            }
        }
    }

    #[test]
    fn mma_reference_handles_bf16_and_tf32_multiplicands() {
        // m16n8k16 BF16 and m16n8k8 TF32 against a plain f64 matmul: the
        // filled() values are small integer multiples of 1/8, so every
        // product and partial sum is exact in f32 and the FEDP chain must
        // equal the naive sum.
        for (shape, abty) in [
            (WmmaShape::M16N8K16, WmmaType::BF16),
            (WmmaShape::M16N8K8, WmmaType::TF32),
        ] {
            let a = filled(FragmentKind::A, shape, abty, 21);
            let b = filled(FragmentKind::B, shape, abty, 22);
            let c = filled(FragmentKind::C, shape, WmmaType::F32, 23);
            let d = mma_reference(&a, &b, &c, WmmaType::F32);
            for r in 0..shape.m() {
                for col in 0..shape.n() {
                    let mut want = c.value(r, col);
                    for k in 0..shape.k() {
                        want += a.value(r, k) * b.value(k, col);
                    }
                    assert_eq!(d.value(r, col), want, "{shape} {abty} ({r},{col})");
                }
            }
        }
    }

    #[test]
    fn pack_sparse_row_meta_encodes_two_bit_indices() {
        // Keep (0,1) in group 0, (2,3) in group 1, (0,3) in group 2,
        // (1,2) in group 3.
        let meta = pack_sparse_row_meta([(0, 1), (2, 3), (0, 3), (1, 2)]);
        assert_eq!(meta, 0x9CE4, "{meta:#06x}");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn pack_sparse_row_meta_rejects_descending_indices() {
        pack_sparse_row_meta([(1, 0), (0, 1), (0, 1), (0, 1)]);
    }

    #[test]
    fn expand_sparse_a_places_kept_elements_and_zeros() {
        let mut a = Tile::new(WmmaType::F16, 16, 8);
        for r in 0..16 {
            for c in 0..8 {
                a.set_f16(r, c, F16::from_f32((r * 8 + c + 1) as f32));
            }
        }
        // Same pattern on every row: keep (1,3) in every group.
        let meta = vec![pack_sparse_row_meta([(1, 3); 4]); 16];
        let dense = expand_sparse_a(&a, &meta);
        assert_eq!((dense.rows(), dense.cols()), (16, 16));
        for r in 0..16 {
            for j in 0..4 {
                assert_eq!(dense.value(r, 4 * j), 0.0, "dropped slot");
                assert_eq!(dense.value(r, 4 * j + 1), a.value(r, 2 * j));
                assert_eq!(dense.value(r, 4 * j + 2), 0.0, "dropped slot");
                assert_eq!(dense.value(r, 4 * j + 3), a.value(r, 2 * j + 1));
            }
        }
    }

    #[test]
    fn sparse_reference_equals_dense_reference_on_expanded_operand() {
        // The sparse semantics are *defined* as dense mma_reference over
        // the expanded operand; check a mixed-pattern expansion end to end
        // against a hand matmul that skips the dropped products.
        let a = filled(FragmentKind::A, WmmaShape::M16N8K8, WmmaType::BF16, 31);
        let b = filled(FragmentKind::B, WmmaShape::M16N8K16, WmmaType::BF16, 32);
        let c = filled(FragmentKind::C, WmmaShape::M16N8K16, WmmaType::F32, 33);
        let meta: Vec<u16> = (0..16)
            .map(|r| {
                let pick = [(0u8, 1u8), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
                pack_sparse_row_meta([
                    pick[r % 6],
                    pick[(r + 1) % 6],
                    pick[(r + 2) % 6],
                    pick[(r + 3) % 6],
                ])
            })
            .collect();
        let dense_a = expand_sparse_a(&a, &meta);
        let d = mma_reference(&dense_a, &b, &c, WmmaType::F32);
        for (r, &row_meta) in meta.iter().enumerate() {
            for col in 0..8 {
                let mut want = c.value(r, col);
                for j in 0..4 {
                    let nibble = (row_meta >> (4 * j)) & 0xF;
                    let (i0, i1) = ((nibble & 3) as usize, ((nibble >> 2) & 3) as usize);
                    want += a.value(r, 2 * j) * b.value(4 * j + i0, col);
                    want += a.value(r, 2 * j + 1) * b.value(4 * j + i1, col);
                }
                assert_eq!(d.value(r, col), want, "({r},{col})");
            }
        }
    }

    #[test]
    fn mixed_reference_differs_from_fp16_reference_when_precision_matters() {
        // Sanity: the mode distinction is observable.
        let shape = WmmaShape::M16N16K16;
        let mut a = Tile::for_fragment(FragmentKind::A, shape, WmmaType::F16);
        let mut b = Tile::for_fragment(FragmentKind::B, shape, WmmaType::F16);
        // Row 0 of A: [2048, 1, 0...]; col 0 of B: [1, 1, 0...].
        a.set_f16(0, 0, F16::from_f32(2048.0));
        a.set_f16(0, 4, F16::from_f32(1.0));
        b.set_f16(0, 0, F16::from_f32(1.0));
        b.set_f16(4, 0, F16::from_f32(1.0));
        let c16 = Tile::for_fragment(FragmentKind::C, shape, WmmaType::F16);
        let c32 = Tile::for_fragment(FragmentKind::C, shape, WmmaType::F32);
        let d32 = mma_reference(&a, &b, &c32, WmmaType::F32);
        let d16 = mma_reference(&a, &b, &c16, WmmaType::F16);
        assert_eq!(d32.get_f32(0, 0), 2049.0);
        assert_eq!(d16.get_f16(0, 0).to_f32(), 2048.0);
    }
}
