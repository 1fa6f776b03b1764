//! Operand-matrix element ↔ thread mapping (Fig 7 and Fig 8 of the paper).
//!
//! A WMMA operand matrix is distributed across the 32 threads of a warp as
//! per-thread *fragments*: spans of consecutive registers. NVIDIA leaves
//! the mapping unspecified at the API level; the paper reverse-engineered
//! it with the microbenchmark of Fig 4. This module encodes the recovered
//! mappings:
//!
//! * **Volta** (Titan V, Fig 7): each *threadgroup* (4 consecutive
//!   threads) loads a 4×16 segment of A (16×4 of B), and **every A/B
//!   element is loaded by two different threadgroups**, enabling octets to
//!   work independently (§III-E). The C accumulator is split into 4×8
//!   segments, one per threadgroup, with an FP32/FP16-dependent
//!   distribution inside the threadgroup.
//! * **Turing** (RTX 2080, Fig 8): every element is loaded once; each row
//!   (or column) is loaded by one threadgroup and consecutive threadgroups
//!   load consecutive rows/columns, for all modes and tile sizes.
//!
//! Where the paper's figures do not pin down the exact order of elements
//! *within* a thread, this module picks the order implied by the observed
//! load decomposition (§III-C: two `LD.E.128` for the contiguous-major
//! layouts, four strided `LD.E.64` for the transposed layouts, 32-bit
//! loads for C); all consumers (load, store, MMA, HMMA set/step
//! decomposition) share the one mapping, so the model is self-consistent
//! by construction.

use tcsim_isa::{FragmentKind, Layout, WmmaShape, WmmaType, WARP_SIZE};

/// Number of threads in a threadgroup (§III: Jia et al.'s "thread group").
pub const THREADGROUP_SIZE: usize = 4;
/// Number of threadgroups in a warp.
pub const THREADGROUPS_PER_WARP: usize = WARP_SIZE / THREADGROUP_SIZE;

/// The threadgroup id of a lane: ⌊lane / 4⌋.
pub const fn threadgroup_of_lane(lane: usize) -> usize {
    lane / THREADGROUP_SIZE
}

/// Row block (of four rows) of operand A loaded by each Volta threadgroup
/// (Fig 7a: rows 0–3 → TGs 0,2; rows 4–7 → TGs 4,6; rows 8–11 → TGs 1,3;
/// rows 12–15 → TGs 5,7).
pub const VOLTA_A_ROW_BASE: [usize; 8] = [0, 8, 0, 8, 4, 12, 4, 12];

/// Column block (of four columns) of operand B loaded by each Volta
/// threadgroup (Fig 7a: cols 0–3 → TGs 0,1; cols 4–7 → TGs 4,5;
/// cols 8–11 → TGs 2,3; cols 12–15 → TGs 6,7).
pub const VOLTA_B_COL_BASE: [usize; 8] = [0, 0, 8, 8, 4, 4, 12, 12];

/// Row base of each Volta threadgroup's 4×8 segment of operand C (Fig 7b).
pub const VOLTA_C_ROW_BASE: [usize; 8] = VOLTA_A_ROW_BASE;

/// Column base of each Volta threadgroup's 4×8 segment of operand C
/// (Fig 7b: TGs 0,4,1,5 own columns 0–7; TGs 2,6,3,7 own columns 8–15).
pub const VOLTA_C_COL_BASE: [usize; 8] = [0, 0, 8, 8, 0, 0, 8, 8];

/// One fragment element's tile coordinates.
pub type RowCol = (u8, u8);

/// The complete element↔thread mapping of one operand matrix fragment.
///
/// `elems[lane][e]` is the tile coordinate held in fragment slot `e` of
/// `lane`; slot order equals register-packing order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentMap {
    frag: FragmentKind,
    shape: WmmaShape,
    ty: WmmaType,
    layout: Layout,
    volta: bool,
    elems: Vec<Vec<RowCol>>,
}

impl FragmentMap {
    /// Builds the Volta (Titan V) mapping of Fig 7. Only `m16n16k16` exists
    /// on Volta.
    ///
    /// # Panics
    ///
    /// Panics on a qualifier combination Volta does not support.
    pub fn volta(frag: FragmentKind, ty: WmmaType, layout: Layout) -> FragmentMap {
        let shape = WmmaShape::M16N16K16;
        let mut elems = vec![Vec::new(); WARP_SIZE];
        match frag {
            FragmentKind::A | FragmentKind::B => {
                assert_eq!(ty, WmmaType::F16, "Volta A/B operands are FP16");
                for (lane, out) in elems.iter_mut().enumerate() {
                    let tg = threadgroup_of_lane(lane);
                    let t = lane % THREADGROUP_SIZE;
                    // "Contiguous" = the layout in which a thread's 16
                    // elements are consecutive in memory (two LD.E.128):
                    // row-major for A, column-major for B (Fig 7a ②).
                    let contiguous = matches!(
                        (frag, layout),
                        (FragmentKind::A, Layout::Row) | (FragmentKind::B, Layout::Col)
                    );
                    if contiguous {
                        for x in 0..16u8 {
                            let line = match frag {
                                FragmentKind::A => VOLTA_A_ROW_BASE[tg] + t,
                                _ => VOLTA_B_COL_BASE[tg] + t,
                            } as u8;
                            out.push(match frag {
                                FragmentKind::A => (line, x),
                                _ => (x, line),
                            });
                        }
                    } else {
                        // Transposed layout: four LD.E.64 blocks of four
                        // consecutive elements, 64-element stride (Fig 7a ③).
                        for j in 0..4u8 {
                            for i in 0..4u8 {
                                let base = match frag {
                                    FragmentKind::A => VOLTA_A_ROW_BASE[tg],
                                    _ => VOLTA_B_COL_BASE[tg],
                                } as u8;
                                let line = base + i;
                                let x = t as u8 + 4 * j;
                                out.push(match frag {
                                    FragmentKind::A => (line, x),
                                    _ => (x, line),
                                });
                            }
                        }
                    }
                }
            }
            FragmentKind::C | FragmentKind::D => {
                assert!(
                    matches!(ty, WmmaType::F16 | WmmaType::F32),
                    "Volta accumulators are FP16 or FP32"
                );
                for (lane, out) in elems.iter_mut().enumerate() {
                    let tg = threadgroup_of_lane(lane);
                    let t = lane % THREADGROUP_SIZE;
                    let r0 = VOLTA_C_ROW_BASE[tg] as u8;
                    let c0 = VOLTA_C_COL_BASE[tg] as u8;
                    if ty == WmmaType::F16 {
                        // FP16: thread t holds row r0+t of the 4×8 segment
                        // (8 consecutive halves, four 32-bit loads).
                        for c in 0..8u8 {
                            out.push((r0 + t as u8, c0 + c));
                        }
                    } else {
                        // FP32: thread t holds column pair (2t, 2t+1) over
                        // the segment's four rows (eight 32-bit loads).
                        for r in 0..4u8 {
                            for b in 0..2u8 {
                                out.push((r0 + r, c0 + 2 * t as u8 + b));
                            }
                        }
                    }
                }
            }
        }
        FragmentMap {
            frag,
            shape,
            ty,
            layout,
            volta: true,
            elems,
        }
    }

    /// Builds the Turing (RTX 2080) mapping of Fig 8: each line (row of A/C,
    /// column of B) belongs to one threadgroup, consecutive threadgroups
    /// take consecutive lines (wrapping every 8), and each thread holds an
    /// equal contiguous chunk of each of its threadgroup's lines.
    ///
    /// # Panics
    ///
    /// Panics on a qualifier combination Turing does not support.
    pub fn turing(
        frag: FragmentKind,
        shape: WmmaShape,
        ty: WmmaType,
        layout: Layout,
    ) -> FragmentMap {
        if matches!(ty, WmmaType::S4 | WmmaType::U4) {
            assert_eq!(shape, WmmaShape::M8N8K32, "4-bit mode uses the 8x8x32 tile");
        }
        let (rows, cols) = frag.dims(shape);
        // Lines: rows for A and C/D, columns for B.
        let (num_lines, line_len, line_is_row) = match frag {
            FragmentKind::A => (rows, cols, true),
            FragmentKind::B => (cols, rows, false),
            FragmentKind::C | FragmentKind::D => (rows, cols, true),
        };
        assert!(num_lines.is_multiple_of(THREADGROUPS_PER_WARP) || num_lines == 8);
        let lines_per_tg = num_lines / THREADGROUPS_PER_WARP;
        let chunk = line_len / THREADGROUP_SIZE;
        let mut elems = vec![Vec::new(); WARP_SIZE];
        for (lane, out) in elems.iter_mut().enumerate() {
            let tg = threadgroup_of_lane(lane);
            let t = lane % THREADGROUP_SIZE;
            for j in 0..lines_per_tg {
                let line = tg + THREADGROUPS_PER_WARP * j;
                for o in 0..chunk {
                    let pos = t * chunk + o;
                    out.push(if line_is_row {
                        (line as u8, pos as u8)
                    } else {
                        (pos as u8, line as u8)
                    });
                }
            }
        }
        FragmentMap {
            frag,
            shape,
            ty,
            layout,
            volta: false,
            elems,
        }
    }

    /// Builds the Ampere per-instruction `mma.sync` mapping for the
    /// `m16n8kN` tiles.
    ///
    /// Unlike the warp-scope WMMA mappings the paper reverse-engineered,
    /// these fragment layouts are *architecturally specified* by the PTX
    /// ISA (the `mma.m16n8k8` / `mma.m16n8k16` fragment figures): with
    /// groupID `g = lane / 4` and threadID `t = lane % 4`,
    ///
    /// * 16-bit A (`m16n8k16`, 8 elems): rows `g`/`g+8` × column pairs
    ///   `2t`,`2t+1` then `2t+8`,`2t+9`, register-packed low-half-first;
    /// * 16-bit A (`m16n8k8`, 4 elems): rows `g`/`g+8` × columns `2t`,`2t+1`;
    /// * TF32 A (`m16n8k8`, 4 elems): rows `g`/`g+8` × columns `t`, `t+4`
    ///   (one 32-bit register per element);
    /// * B mirrors A with rows and columns swapped;
    /// * C/D (4 elems): rows `g`/`g+8` × columns `2t`,`2t+1` — which
    ///   coincides with the generic Turing line distribution.
    ///
    /// Every element has exactly one owner (no Volta-style double
    /// loading). The mapping is independent of `layout`; the layout only
    /// selects the memory walk for loads/stores of these fragments.
    ///
    /// # Panics
    ///
    /// Panics on a shape that is not an `mma.sync` tile or a type/shape
    /// combination `mma.sync` does not support.
    pub fn ampere(
        frag: FragmentKind,
        shape: WmmaShape,
        ty: WmmaType,
        layout: Layout,
    ) -> FragmentMap {
        assert!(
            shape.is_mma_sync(),
            "Ampere mapping is for mma.sync tiles only"
        );
        let mut elems = vec![Vec::new(); WARP_SIZE];
        for (lane, out) in elems.iter_mut().enumerate() {
            let g = (lane / THREADGROUP_SIZE) as u8;
            let t = (lane % THREADGROUP_SIZE) as u8;
            match (frag, ty) {
                (FragmentKind::A, WmmaType::TF32) => {
                    assert_eq!(shape, WmmaShape::M16N8K8, "TF32 mma.sync is m16n8k8 only");
                    for ko in [0u8, 4] {
                        out.push((g, t + ko));
                        out.push((g + 8, t + ko));
                    }
                }
                (FragmentKind::B, WmmaType::TF32) => {
                    assert_eq!(shape, WmmaShape::M16N8K8, "TF32 mma.sync is m16n8k8 only");
                    out.push((t, g));
                    out.push((t + 4, g));
                }
                (FragmentKind::A, WmmaType::F16 | WmmaType::BF16) => {
                    let kos: &[u8] = if shape == WmmaShape::M16N8K16 {
                        &[0, 8]
                    } else {
                        &[0]
                    };
                    for &ko in kos {
                        for r in [0u8, 8] {
                            out.push((g + r, 2 * t + ko));
                            out.push((g + r, 2 * t + ko + 1));
                        }
                    }
                }
                (FragmentKind::B, WmmaType::F16 | WmmaType::BF16) => {
                    let kos: &[u8] = if shape == WmmaShape::M16N8K16 {
                        &[0, 8]
                    } else {
                        &[0]
                    };
                    for &ko in kos {
                        out.push((2 * t + ko, g));
                        out.push((2 * t + ko + 1, g));
                    }
                }
                (FragmentKind::C | FragmentKind::D, WmmaType::F16 | WmmaType::F32) => {
                    for r in [0u8, 8] {
                        out.push((g + r, 2 * t));
                        out.push((g + r, 2 * t + 1));
                    }
                }
                other => panic!("unsupported mma.sync fragment/type combination {other:?}"),
            }
        }
        FragmentMap {
            frag,
            shape,
            ty,
            layout,
            volta: false,
            elems,
        }
    }

    /// Builds the mapping for either architecture. The `mma.sync` tile
    /// shapes identify the Ampere per-instruction mappings and are routed
    /// to [`FragmentMap::ampere`] (they never exist on Volta).
    pub fn for_arch(
        volta: bool,
        frag: FragmentKind,
        shape: WmmaShape,
        ty: WmmaType,
        layout: Layout,
    ) -> FragmentMap {
        if shape.is_mma_sync() {
            assert!(!volta, "mma.sync tiles are Ampere-only");
            FragmentMap::ampere(frag, shape, ty, layout)
        } else if volta {
            assert_eq!(shape, WmmaShape::M16N16K16, "Volta supports only m16n16k16");
            FragmentMap::volta(frag, ty, layout)
        } else {
            FragmentMap::turing(frag, shape, ty, layout)
        }
    }

    /// Which operand matrix this fragment holds.
    pub fn frag(&self) -> FragmentKind {
        self.frag
    }

    /// The tile shape.
    pub fn shape(&self) -> WmmaShape {
        self.shape
    }

    /// The element type.
    pub fn ty(&self) -> WmmaType {
        self.ty
    }

    /// The memory layout the fragment is loaded/stored with.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Whether this is the Volta (double-loading) mapping.
    pub fn is_volta(&self) -> bool {
        self.volta
    }

    /// Elements held by `lane`, in register-packing order.
    pub fn lane_elems(&self, lane: usize) -> &[RowCol] {
        &self.elems[lane]
    }

    /// Number of elements per thread.
    pub fn elems_per_thread(&self) -> usize {
        self.elems[0].len()
    }

    /// All (lane, slot) pairs that hold tile element `(row, col)`.
    ///
    /// On Volta this returns two owners from different threadgroups for A/B
    /// elements (§III-B1) and one owner otherwise.
    pub fn owners(&self, row: u8, col: u8) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (lane, elems) in self.elems.iter().enumerate() {
            for (slot, &rc) in elems.iter().enumerate() {
                if rc == (row, col) {
                    out.push((lane, slot));
                }
            }
        }
        out
    }

    /// The canonical owner of `(row, col)`: the lowest-lane holder.
    pub fn owner(&self, row: u8, col: u8) -> (usize, usize) {
        self.owners(row, col)
            .into_iter()
            .next()
            .expect("element not covered by mapping")
    }

    /// Byte offset of element `(row, col)` from the tile base address, given
    /// the leading-dimension `stride` in elements.
    ///
    /// # Panics
    ///
    /// Panics for sub-byte types when `(linear index) * bits` is not
    /// byte-aligned (callers use [`FragmentMap::lane_accesses`], which only
    /// produces aligned runs).
    pub fn element_byte_offset(&self, row: u8, col: u8, stride: usize) -> u64 {
        let linear = match self.layout {
            Layout::Row => row as usize * stride + col as usize,
            Layout::Col => col as usize * stride + row as usize,
        };
        let bits = linear * self.ty.bits();
        assert!(bits.is_multiple_of(8), "sub-byte element not byte aligned");
        (bits / 8) as u64
    }

    /// The maximal runs of `lane`'s fragment slots that are contiguous in
    /// memory under leading-dimension `stride`, as `(first slot, element
    /// count)`, capped at the SASS access widths the paper observed
    /// (§III-C): 16-byte (`LD.E.128`) / 8-byte (`LD.E.64`) vectors for A
    /// and B, and 32-bit accesses for the C/D accumulator
    /// (`LD.E.SYS`/`ST.E.SYS`).
    pub fn lane_runs(&self, lane: usize, stride: usize) -> Vec<(usize, usize)> {
        let cap: usize = match self.frag {
            FragmentKind::A | FragmentKind::B => 16,
            FragmentKind::C | FragmentKind::D => 4,
        };
        let bits = self.ty.bits();
        let elems = &self.elems[lane];
        let linear = |(r, c): RowCol| match self.layout {
            Layout::Row => r as usize * stride + c as usize,
            Layout::Col => c as usize * stride + r as usize,
        };
        let mut runs = Vec::new();
        let mut i = 0;
        while i < elems.len() {
            // Start a run at slot i; extend while contiguous in memory.
            let linear0 = linear(elems[i]);
            let mut n = 1;
            while i + n < elems.len()
                && linear(elems[i + n]) == linear0 + n
                && (n + 1) * bits <= cap * 8
            {
                n += 1;
            }
            runs.push((i, n));
            i += n;
        }
        runs
    }

    /// The memory accesses `lane` performs to load/store its fragment,
    /// as `(byte_offset_from_base, bytes)`: one per run of
    /// [`FragmentMap::lane_runs`].
    pub fn lane_accesses(&self, lane: usize, stride: usize) -> Vec<(u64, u8)> {
        let bits = self.ty.bits();
        self.lane_runs(lane, stride)
            .into_iter()
            .map(|(slot, n)| {
                let (r, c) = self.elems[lane][slot];
                let bytes = (n * bits).div_ceil(8) as u8;
                (self.element_byte_offset(r, c, stride), bytes)
            })
            .collect()
    }

    /// Checks the structural invariants the paper documents and panics on
    /// violation; returns the number of owners per element (2 for Volta
    /// A/B, 1 otherwise).
    pub fn validate(&self) -> usize {
        let (rows, cols) = self.frag.dims(self.shape);
        let expect_owners = if self.volta && matches!(self.frag, FragmentKind::A | FragmentKind::B)
        {
            2
        } else {
            1
        };
        for r in 0..rows as u8 {
            for c in 0..cols as u8 {
                let owners = self.owners(r, c);
                assert_eq!(
                    owners.len(),
                    expect_owners,
                    "element ({r},{c}) of {:?} has owners {owners:?}",
                    self.frag
                );
                if expect_owners == 2 {
                    let tg0 = threadgroup_of_lane(owners[0].0);
                    let tg1 = threadgroup_of_lane(owners[1].0);
                    assert_ne!(tg0, tg1, "double-loaded element must span threadgroups");
                }
            }
        }
        // Every lane holds the same number of elements and covers the tile.
        let per = self.elems_per_thread();
        assert!(self.elems.iter().all(|e| e.len() == per));
        assert_eq!(per * WARP_SIZE, rows * cols * expect_owners);
        expect_owners
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_a_b_elements_loaded_by_exactly_two_threadgroups() {
        for layout in [Layout::Row, Layout::Col] {
            for frag in [FragmentKind::A, FragmentKind::B] {
                let m = FragmentMap::volta(frag, WmmaType::F16, layout);
                assert_eq!(m.validate(), 2, "{frag:?} {layout}");
                assert_eq!(m.elems_per_thread(), 16);
            }
        }
    }

    #[test]
    fn volta_c_elements_loaded_once() {
        for ty in [WmmaType::F16, WmmaType::F32] {
            for layout in [Layout::Row, Layout::Col] {
                let m = FragmentMap::volta(FragmentKind::C, ty, layout);
                assert_eq!(m.validate(), 1);
                assert_eq!(m.elems_per_thread(), 8);
            }
        }
    }

    #[test]
    fn volta_first_four_rows_of_a_belong_to_threadgroups_0_and_2() {
        // §III-B1: "the first four consecutive rows of operand matrix A are
        // loaded by threadgroup 0 and 2".
        let m = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row);
        for r in 0..4u8 {
            for c in 0..16u8 {
                let tgs: Vec<usize> = m
                    .owners(r, c)
                    .iter()
                    .map(|&(lane, _)| threadgroup_of_lane(lane))
                    .collect();
                assert_eq!(tgs, vec![0, 2], "element ({r},{c})");
            }
        }
        // Rows 4–7 → TGs 4 and 6.
        let tgs: Vec<usize> = m
            .owners(5, 0)
            .iter()
            .map(|&(l, _)| threadgroup_of_lane(l))
            .collect();
        assert_eq!(tgs, vec![4, 6]);
    }

    #[test]
    fn volta_b_column_blocks_match_fig7a() {
        let m = FragmentMap::volta(FragmentKind::B, WmmaType::F16, Layout::Col);
        let tg_of = |c: u8| -> Vec<usize> {
            m.owners(0, c)
                .iter()
                .map(|&(l, _)| threadgroup_of_lane(l))
                .collect()
        };
        assert_eq!(tg_of(0), vec![0, 1]);
        assert_eq!(tg_of(4), vec![4, 5]);
        assert_eq!(tg_of(8), vec![2, 3]);
        assert_eq!(tg_of(12), vec![6, 7]);
    }

    #[test]
    fn volta_c_segments_match_fig7b() {
        let m = FragmentMap::volta(FragmentKind::C, WmmaType::F32, Layout::Row);
        // TG0 owns rows 0–3 × cols 0–7.
        let (lane, _) = m.owner(0, 0);
        assert_eq!(threadgroup_of_lane(lane), 0);
        let (lane, _) = m.owner(0, 8);
        assert_eq!(threadgroup_of_lane(lane), 2);
        let (lane, _) = m.owner(4, 0);
        assert_eq!(threadgroup_of_lane(lane), 4);
        let (lane, _) = m.owner(8, 0);
        assert_eq!(threadgroup_of_lane(lane), 1);
        let (lane, _) = m.owner(12, 8);
        assert_eq!(threadgroup_of_lane(lane), 7);
    }

    #[test]
    fn volta_a_row_major_loads_are_two_128_bit_vectors() {
        // §III-B1: row-major A → each thread issues two coalesced 128-bit
        // loads of 16 consecutive elements.
        let m = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row);
        for lane in 0..WARP_SIZE {
            let acc = m.lane_accesses(lane, 16);
            assert_eq!(acc.len(), 2, "lane {lane}: {acc:?}");
            assert!(acc.iter().all(|&(_, b)| b == 16));
            assert_eq!(acc[0].0 + 16, acc[1].0);
        }
    }

    #[test]
    fn volta_a_col_major_loads_are_four_64_bit_vectors_with_64_element_stride() {
        let m = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Col);
        for lane in 0..WARP_SIZE {
            let acc = m.lane_accesses(lane, 16);
            assert_eq!(acc.len(), 4, "lane {lane}");
            assert!(acc.iter().all(|&(_, b)| b == 8));
            // 64-element stride = 128 bytes between block starts.
            for w in acc.windows(2) {
                assert_eq!(w[1].0 - w[0].0, 128);
            }
        }
    }

    #[test]
    fn volta_c_loads_are_32_bit() {
        for ty in [WmmaType::F16, WmmaType::F32] {
            let m = FragmentMap::volta(FragmentKind::C, ty, Layout::Row);
            let expected = if ty == WmmaType::F32 { 8 } else { 4 };
            for lane in 0..WARP_SIZE {
                let acc = m.lane_accesses(lane, 16);
                assert_eq!(acc.len(), expected, "lane {lane} {ty}");
                assert!(acc.iter().all(|&(_, b)| b == 4));
            }
        }
    }

    #[test]
    fn volta_b_mirrors_a_under_layout_transposition() {
        // §III-B1: distribution of A in row-major equals B in column-major
        // with rows and columns swapped.
        let a = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row);
        let b = FragmentMap::volta(FragmentKind::B, WmmaType::F16, Layout::Col);
        for lane in 0..WARP_SIZE {
            let at: Vec<RowCol> = a.lane_elems(lane).iter().map(|&(r, c)| (c, r)).collect();
            // B's threadgroup→column assignment differs from A's
            // threadgroup→row assignment (Fig 7a ①), so compare the
            // *shape* of the per-thread access: transposing B's elements
            // must give one full row of 16 consecutive elements.
            let bt = b.lane_elems(lane);
            assert_eq!(at.len(), bt.len());
            let cols: Vec<u8> = bt.iter().map(|&(r, _)| r).collect();
            assert_eq!(cols, (0..16).collect::<Vec<u8>>());
            assert!(bt.iter().all(|&(_, c)| c == bt[0].1));
        }
    }

    #[test]
    fn turing_all_modes_validate_with_single_owner() {
        let cases = [
            (WmmaShape::M16N16K16, WmmaType::F16, WmmaType::F32),
            (WmmaShape::M16N16K16, WmmaType::S8, WmmaType::S32),
            (WmmaShape::M32N8K16, WmmaType::F16, WmmaType::F16),
            (WmmaShape::M32N8K16, WmmaType::U8, WmmaType::S32),
            (WmmaShape::M8N32K16, WmmaType::F16, WmmaType::F32),
            (WmmaShape::M8N32K16, WmmaType::S8, WmmaType::S32),
            (WmmaShape::M8N8K32, WmmaType::S4, WmmaType::S32),
        ];
        for (shape, abty, cty) in cases {
            for frag in [FragmentKind::A, FragmentKind::B] {
                let m = FragmentMap::turing(frag, shape, abty, Layout::Row);
                assert_eq!(m.validate(), 1, "{frag:?} {shape} {abty}");
            }
            let m = FragmentMap::turing(FragmentKind::C, shape, cty, Layout::Row);
            assert_eq!(m.validate(), 1, "C {shape} {cty}");
        }
    }

    #[test]
    fn turing_consecutive_threadgroups_load_consecutive_rows() {
        // §III-B2: each row is loaded by a threadgroup and consecutive
        // threadgroups load consecutive rows.
        let m = FragmentMap::turing(
            FragmentKind::A,
            WmmaShape::M16N16K16,
            WmmaType::F16,
            Layout::Row,
        );
        for r in 0..16u8 {
            let owners = m.owners(r, 0);
            assert_eq!(owners.len(), 1);
            assert_eq!(
                threadgroup_of_lane(owners[0].0),
                (r as usize) % 8,
                "row {r}"
            );
        }
    }

    #[test]
    fn turing_b_columns_per_threadgroup() {
        let m = FragmentMap::turing(
            FragmentKind::B,
            WmmaShape::M32N8K16,
            WmmaType::F16,
            Layout::Col,
        );
        // 8 columns, one per threadgroup.
        for c in 0..8u8 {
            for r in 0..16u8 {
                let owners = m.owners(r, c);
                assert_eq!(threadgroup_of_lane(owners[0].0), c as usize);
            }
        }
        // Each thread holds 4 consecutive rows of its column.
        assert_eq!(m.elems_per_thread(), 4);
    }

    #[test]
    fn turing_elements_per_thread_match_fragment_sizes() {
        use tcsim_isa::fragment_elements;
        for (frag, shape, ty) in [
            (FragmentKind::A, WmmaShape::M32N8K16, WmmaType::F16),
            (FragmentKind::B, WmmaShape::M32N8K16, WmmaType::F16),
            (FragmentKind::C, WmmaShape::M8N32K16, WmmaType::F32),
            (FragmentKind::A, WmmaShape::M8N8K32, WmmaType::S4),
        ] {
            let m = FragmentMap::turing(frag, shape, ty, Layout::Row);
            assert_eq!(
                m.elems_per_thread(),
                fragment_elements(frag, shape, ty, false)
            );
        }
    }

    #[test]
    fn four_bit_accesses_are_byte_aligned() {
        let m = FragmentMap::turing(
            FragmentKind::A,
            WmmaShape::M8N8K32,
            WmmaType::S4,
            Layout::Row,
        );
        for lane in 0..WARP_SIZE {
            let acc = m.lane_accesses(lane, 32);
            // 8 nibbles = 4 contiguous bytes in one run.
            assert_eq!(acc.len(), 1, "lane {lane}");
            assert_eq!(acc[0].1, 4);
        }
    }

    #[test]
    fn accesses_cover_every_element_exactly_owner_times() {
        // Byte-coverage check: summing access bytes over all lanes gives
        // tile bytes × owners.
        for (maker, owners) in [
            (
                FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row),
                2usize,
            ),
            (
                FragmentMap::volta(FragmentKind::C, WmmaType::F32, Layout::Col),
                1,
            ),
            (
                FragmentMap::turing(
                    FragmentKind::B,
                    WmmaShape::M16N16K16,
                    WmmaType::S8,
                    Layout::Row,
                ),
                1,
            ),
        ] {
            let m = maker;
            let (r, c) = m.frag().dims(m.shape());
            let tile_bytes = r * c * m.ty().bits() / 8;
            let total: usize = (0..WARP_SIZE)
                .flat_map(|l| m.lane_accesses(l, if m.layout() == Layout::Row { c } else { r }))
                .map(|(_, b)| b as usize)
                .sum();
            assert_eq!(total, tile_bytes * owners);
        }
    }

    #[test]
    fn element_byte_offset_respects_layout() {
        let m = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row);
        assert_eq!(m.element_byte_offset(2, 3, 16), (2 * 16 + 3) * 2);
        let m = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Col);
        assert_eq!(m.element_byte_offset(2, 3, 16), (3 * 16 + 2) * 2);
    }

    #[test]
    fn owner_returns_lowest_lane() {
        let m = FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row);
        let (lane, _) = m.owner(0, 0);
        assert_eq!(lane, 0);
    }

    #[test]
    fn ampere_all_mma_sync_fragments_validate_with_single_owner() {
        let cases = [
            (FragmentKind::A, WmmaShape::M16N8K16, WmmaType::F16),
            (FragmentKind::A, WmmaShape::M16N8K16, WmmaType::BF16),
            (FragmentKind::A, WmmaShape::M16N8K8, WmmaType::F16),
            (FragmentKind::A, WmmaShape::M16N8K8, WmmaType::TF32),
            (FragmentKind::B, WmmaShape::M16N8K16, WmmaType::BF16),
            (FragmentKind::B, WmmaShape::M16N8K8, WmmaType::TF32),
            (FragmentKind::C, WmmaShape::M16N8K16, WmmaType::F32),
            (FragmentKind::C, WmmaShape::M16N8K8, WmmaType::F16),
            (FragmentKind::D, WmmaShape::M16N8K16, WmmaType::F32),
        ];
        for (frag, shape, ty) in cases {
            let m = FragmentMap::ampere(frag, shape, ty, Layout::Row);
            assert_eq!(m.validate(), 1, "{frag:?} {shape} {ty}");
        }
    }

    #[test]
    fn ampere_elements_per_thread_match_ptx_fragment_sizes() {
        use tcsim_isa::fragment_elements;
        for (frag, shape, ty) in [
            (FragmentKind::A, WmmaShape::M16N8K16, WmmaType::F16),
            (FragmentKind::A, WmmaShape::M16N8K8, WmmaType::TF32),
            (FragmentKind::B, WmmaShape::M16N8K16, WmmaType::BF16),
            (FragmentKind::B, WmmaShape::M16N8K8, WmmaType::F16),
            (FragmentKind::C, WmmaShape::M16N8K16, WmmaType::F32),
            (FragmentKind::D, WmmaShape::M16N8K8, WmmaType::F16),
        ] {
            let m = FragmentMap::ampere(frag, shape, ty, Layout::Row);
            assert_eq!(
                m.elems_per_thread(),
                fragment_elements(frag, shape, ty, false),
                "{frag:?} {shape} {ty}"
            );
        }
    }

    #[test]
    fn ampere_a_fragment_matches_ptx_figure() {
        // PTX mma.m16n8k16 row-major A fragment: lane L = 4g + t holds
        // a0..a7 = (g,2t) (g,2t+1) (g+8,2t) (g+8,2t+1) then the k+8
        // columns in the same order.
        let m = FragmentMap::ampere(
            FragmentKind::A,
            WmmaShape::M16N8K16,
            WmmaType::F16,
            Layout::Row,
        );
        for lane in 0..WARP_SIZE {
            let (g, t) = ((lane / 4) as u8, (lane % 4) as u8);
            assert_eq!(
                m.lane_elems(lane),
                &[
                    (g, 2 * t),
                    (g, 2 * t + 1),
                    (g + 8, 2 * t),
                    (g + 8, 2 * t + 1),
                    (g, 2 * t + 8),
                    (g, 2 * t + 9),
                    (g + 8, 2 * t + 8),
                    (g + 8, 2 * t + 9),
                ],
                "lane {lane}"
            );
        }
        // TF32 m16n8k8 A: a0..a3 = (g,t) (g+8,t) (g,t+4) (g+8,t+4).
        let m = FragmentMap::ampere(
            FragmentKind::A,
            WmmaShape::M16N8K8,
            WmmaType::TF32,
            Layout::Row,
        );
        for lane in 0..WARP_SIZE {
            let (g, t) = ((lane / 4) as u8, (lane % 4) as u8);
            assert_eq!(
                m.lane_elems(lane),
                &[(g, t), (g + 8, t), (g, t + 4), (g + 8, t + 4)],
                "lane {lane}"
            );
        }
    }

    #[test]
    fn ampere_accumulator_coincides_with_turing_distribution() {
        // The m16n8 C/D fragment (g, 2t)… order equals the generic Turing
        // line distribution, so both constructions must agree.
        for ty in [WmmaType::F16, WmmaType::F32] {
            for shape in [WmmaShape::M16N8K8, WmmaShape::M16N8K16] {
                let amp = FragmentMap::ampere(FragmentKind::C, shape, ty, Layout::Row);
                let tur = FragmentMap::turing(FragmentKind::C, shape, ty, Layout::Row);
                for lane in 0..WARP_SIZE {
                    assert_eq!(
                        amp.lane_elems(lane),
                        tur.lane_elems(lane),
                        "{shape} {ty} {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn for_arch_routes_mma_sync_shapes_to_ampere() {
        let via_arch = FragmentMap::for_arch(
            false,
            FragmentKind::B,
            WmmaShape::M16N8K16,
            WmmaType::F16,
            Layout::Col,
        );
        let direct = FragmentMap::ampere(
            FragmentKind::B,
            WmmaShape::M16N8K16,
            WmmaType::F16,
            Layout::Col,
        );
        assert_eq!(via_arch, direct);
    }
}
