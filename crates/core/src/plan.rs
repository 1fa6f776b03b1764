//! Compiled fragment plans: the index tables `wmma.{load,mma,store}` and
//! `mma.sync` execute on.
//!
//! A [`FragmentMap`] answers "which tile elements does lane *l* hold, in
//! which order"; executing an instruction from it directly means a walk
//! over 32 per-lane lists with a division per element. A [`FragPlan`] is
//! the same mapping compiled once per `(arch, fragment, shape, type,
//! layout)` into the orders the instructions consume it in:
//!
//! * **word-major slot tables** — for register word `w` of the fragment,
//!   lane by lane, the tile element each packed slot holds — so a
//!   fragment moves a whole register row ([`WarpRegFile::row`]) at a time;
//! * **lane-major access runs** — the SASS-level accesses of §III-C as
//!   `(lane, line, offset in line, bytes)`, so the lane-access list of a
//!   load or store is one multiply-add per run whatever the stride. The
//!   runs of all lanes together cover exactly the tile's lines (asserted
//!   at build), which is why a load or store reports the lines — a
//!   [`TileFootprint`] — to the timing model and the runs only to callers
//!   that ask for lane accesses.
//!
//! Plans live in a process-wide table of [`OnceLock`]s indexed by
//! arithmetic on the qualifier discriminants: no hashing, no interior
//! mutability, and the sweep engine's worker threads share them.

use crate::functional::read_frag_elem;
use crate::mapping::FragmentMap;
use std::sync::OnceLock;
use tcsim_isa::exec::{MemAccess, TileFootprint};
use tcsim_isa::{
    ByteMemory, FragmentKind, Layout, Reg, WarpRegFile, WmmaShape, WmmaType, WARP_SIZE,
};

/// Most registers a fragment occupies per lane over every arch-valid
/// mode: 16 binary16 A/B elements on Volta, 8 binary32 accumulator
/// elements everywhere. Plan construction asserts it.
pub const MAX_FRAG_WORDS: usize = 8;

/// Most elements in an operand tile: the 32×16 A of `m32n8k16` (and the
/// 16×32 B of `m8n32k16`).
pub const MAX_TILE: usize = 512;

/// Most bytes in an operand tile (32×16 binary16, 16×16 binary32).
const MAX_TILE_BYTES: usize = 1024;

/// A whole operand tile on the stack, row-major, one element per slot;
/// the extra slot absorbs the copies [`FragPlan::gather`] discards.
pub type TileBits = [u32; MAX_TILE + 1];

const DISCARD: u16 = MAX_TILE as u16;

/// A stride no fragment's runs merge across by coincidence: the run
/// structure at this stride is the run structure at every stride that
/// keeps tile lines apart.
const GENERIC_STRIDE: usize = 1 << 12;

/// One SASS-level access of one lane.
#[derive(Clone, Copy, Debug)]
struct Run {
    lane: u8,
    /// Tile line (row under `Layout::Row`, column under `Layout::Col`).
    line: u8,
    /// Byte offset of the first element within its line.
    offset: u8,
    bytes: u8,
}

/// One fragment's mapping compiled for execution.
#[derive(Debug)]
pub struct FragPlan {
    map: FragmentMap,
    bits: usize,
    /// Lines of the tile in memory and elements per line.
    lines: usize,
    line_elems: usize,
    /// Row-major tile position of every slot, word-major (slot `e` of
    /// lane `l`'s word `w` at `(w * 32 + l) * (32 / bits) + e`). Where a
    /// Volta A/B element has two holders, all but the last in lane order
    /// point at the discard slot: the element-at-a-time gather lets the
    /// highest lane win, and nothing obliges the copies to agree (only
    /// `wmma.load` writes them both from one memory element).
    tile_of_slot: Vec<u16>,
    /// Position of every slot in the tile's memory image (lines packed
    /// back to back), same order.
    image_of_slot: Vec<u16>,
    runs: Vec<Run>,
}

impl FragPlan {
    fn build(map: FragmentMap) -> FragPlan {
        let (rows, cols) = map.frag().dims(map.shape());
        let bits = map.ty().bits();
        let per_lane = map.elems_per_thread();
        assert!(
            per_lane > 0 && (per_lane * bits).is_multiple_of(32),
            "{map:?}: fragment does not fill whole registers"
        );
        let words = per_lane * bits / 32;
        assert!(words <= MAX_FRAG_WORDS && rows * cols <= MAX_TILE);
        let (lines, line_elems) = match map.layout() {
            Layout::Row => (rows, cols),
            Layout::Col => (cols, rows),
        };
        assert!((line_elems * bits).is_multiple_of(8) && rows * cols * bits / 8 <= MAX_TILE_BYTES);

        let mut last_holder = vec![(0, 0); rows * cols];
        for lane in 0..WARP_SIZE {
            for (slot, &(r, c)) in map.lane_elems(lane).iter().enumerate() {
                last_holder[r as usize * cols + c as usize] = (lane, slot);
            }
        }
        let per_word = 32 / bits;
        let mut tile_of_slot = Vec::with_capacity(per_lane * WARP_SIZE);
        let mut image_of_slot = Vec::with_capacity(per_lane * WARP_SIZE);
        for word in 0..words {
            for lane in 0..WARP_SIZE {
                for slot in word * per_word..(word + 1) * per_word {
                    let (r, c) = map.lane_elems(lane)[slot];
                    let (r, c) = (r as usize, c as usize);
                    let tile = r * cols + c;
                    tile_of_slot.push(if last_holder[tile] == (lane, slot) {
                        tile as u16
                    } else {
                        DISCARD
                    });
                    image_of_slot.push(match map.layout() {
                        Layout::Row => tile,
                        Layout::Col => c * rows + r,
                    } as u16);
                }
            }
        }

        let mut runs = Vec::new();
        for lane in 0..WARP_SIZE {
            let generic = map.lane_runs(lane, GENERIC_STRIDE);
            // `tile_accesses` uses these runs for every stride from the
            // line length up. Only at exactly the line length could a
            // lane's consecutive slots wrap from the end of one line onto
            // the start of the next and merge; no mapping does that.
            assert_eq!(generic, map.lane_runs(lane, line_elems), "{map:?}");
            for (slot, n) in generic {
                let (r, c) = map.lane_elems(lane)[slot];
                let (line, at) = match map.layout() {
                    Layout::Row => (r, c),
                    Layout::Col => (c, r),
                };
                assert!(
                    (at as usize * bits).is_multiple_of(8),
                    "fragment run not byte aligned (sub-byte layout violation)"
                );
                runs.push(Run {
                    lane: lane as u8,
                    line,
                    offset: (at as usize * bits / 8) as u8,
                    bytes: (n * bits).div_ceil(8) as u8,
                });
            }
        }
        // The timing model derives sectors and bank conflicts from the
        // tile lines alone: the runs must touch every byte of every line
        // and nothing else.
        let line_bytes = line_elems * bits / 8;
        let mut covered = vec![0u128; lines];
        for run in &runs {
            assert!(
                run.offset as usize + run.bytes as usize <= line_bytes,
                "{map:?}: access run leaves its tile line"
            );
            covered[run.line as usize] |= (u128::MAX >> (128 - run.bytes as u32)) << run.offset;
        }
        assert!(
            covered
                .iter()
                .all(|&line| line == u128::MAX >> (128 - line_bytes)),
            "{map:?}: access runs do not cover the tile lines"
        );
        FragPlan {
            map,
            bits,
            lines,
            line_elems,
            tile_of_slot,
            image_of_slot,
            runs,
        }
    }

    /// The mapping this plan was compiled from.
    pub fn map(&self) -> &FragmentMap {
        &self.map
    }

    /// Gathers the tile from the fragment registers at `base` into
    /// `tile`, row-major raw element bits.
    pub fn gather(&self, regs: &WarpRegFile, base: Reg, tile: &mut TileBits) {
        self.unpack(&self.tile_of_slot, regs, base, tile);
    }

    /// Scatters `tile` (row-major raw element bits, confined to the
    /// element width) into the fragment registers at `base`. For D
    /// fragments, whose elements have one holder each.
    pub fn scatter(&self, tile: &TileBits, base: Reg, regs: &mut WarpRegFile) {
        self.pack(&self.tile_of_slot, tile, base, regs);
    }

    /// `elems[table[slot]] = slot` for every slot of the fragment at
    /// `base`, a register row at a time.
    fn unpack(&self, table: &[u16], regs: &WarpRegFile, base: Reg, elems: &mut TileBits) {
        match self.bits {
            4 => unpack_rows::<4>(table, regs, base, elems),
            8 => unpack_rows::<8>(table, regs, base, elems),
            16 => unpack_rows::<16>(table, regs, base, elems),
            _ => unpack_rows::<32>(table, regs, base, elems),
        }
    }

    /// `slot = elems[table[slot]]` for every slot of the fragment at
    /// `base`, a register row at a time.
    fn pack(&self, table: &[u16], elems: &TileBits, base: Reg, regs: &mut WarpRegFile) {
        match self.bits {
            4 => pack_rows::<4>(table, elems, base, regs),
            8 => pack_rows::<8>(table, elems, base, regs),
            16 => pack_rows::<16>(table, elems, base, regs),
            _ => pack_rows::<32>(table, elems, base, regs),
        }
    }

    /// Byte offset of tile line `line` from the tile base.
    fn line_offset(&self, line: usize, stride: usize) -> u64 {
        (line * stride * self.bits / 8) as u64
    }

    /// Bytes of the tile's memory image and of one line of it.
    fn image_bytes(&self) -> (usize, usize) {
        let line = self.line_elems * self.bits / 8;
        (self.lines * line, line)
    }

    /// Whether tile lines overlap in memory at this stride: not a tile
    /// any kernel means to address, but defined behaviour all the same.
    fn lines_overlap(&self, stride: usize) -> bool {
        stride < self.line_elems
    }

    /// What a load or store of the tile at `base` with leading dimension
    /// `stride` reports to its caller: the footprint, or — lines
    /// overlapping — `None` and the lane accesses appended to `out`.
    fn report(&self, base: u64, stride: usize, out: &mut Vec<MemAccess>) -> Option<TileFootprint> {
        if self.lines_overlap(stride) {
            // The runs may merge differently here: ask the mapping.
            for lane in 0..WARP_SIZE {
                let runs = self.map.lane_accesses(lane, stride);
                out.extend(runs.into_iter().map(|(offset, bytes)| MemAccess {
                    lane: lane as u8,
                    addr: base + offset,
                    bytes,
                }));
            }
            return None;
        }
        assert!(
            (stride * self.bits).is_multiple_of(8),
            "fragment run not byte aligned (sub-byte layout violation)"
        );
        Some(TileFootprint {
            base,
            pitch_bytes: self.line_offset(1, stride),
            line_bytes: self.image_bytes().1 as u32,
            lines: self.lines as u32,
        })
    }

    /// Appends the lane accesses of the load or store that reported
    /// `tile`, lane-major.
    pub fn tile_accesses(&self, tile: &TileFootprint, out: &mut Vec<MemAccess>) {
        out.extend(self.runs.iter().map(|run| MemAccess {
            lane: run.lane,
            addr: tile.base + run.line as u64 * tile.pitch_bytes + run.offset as u64,
            bytes: run.bytes,
        }));
    }

    /// `wmma.load`: the tile at `base` (leading dimension `stride`
    /// elements) into the fragment registers at `dst`, a tile line of
    /// memory and a register row at a time. Returns the footprint, or
    /// `None` with the lane accesses appended to `accesses`, lane-major.
    ///
    /// # Panics
    ///
    /// Panics when a sub-byte tile's lines do not start on byte
    /// boundaries.
    pub fn load(
        &self,
        dst: Reg,
        base: u64,
        stride: usize,
        mem: &dyn ByteMemory,
        regs: &mut WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        let tile = self.report(base, stride, accesses);
        let mut bytes = [0u8; MAX_TILE_BYTES];
        let (image, line) = self.image_bytes();
        for (l, line) in bytes[..image].chunks_exact_mut(line).enumerate() {
            mem.read_bytes(base + self.line_offset(l, stride), line);
        }
        let mut elems = [0u32; MAX_TILE + 1];
        elems_from_bytes(self.bits, &bytes[..image], &mut elems);
        self.pack(&self.image_of_slot, &elems, dst, regs);
        tile
    }

    /// `wmma.store`: the fragment registers at `src` to the tile at
    /// `base`, a register row and a tile line of memory at a time.
    /// Returns the footprint, or `None` with the lane accesses appended
    /// to `accesses`, lane-major.
    ///
    /// # Panics
    ///
    /// As [`FragPlan::load`].
    pub fn store(
        &self,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        let tile = self.report(base, stride, accesses);
        if tile.is_none() {
            self.store_overlapping(src, base, stride, mem, regs);
            return None;
        }
        let mut elems = [0u32; MAX_TILE + 1];
        self.unpack(&self.image_of_slot, regs, src, &mut elems);
        let mut bytes = [0u8; MAX_TILE_BYTES];
        let (image, line) = self.image_bytes();
        bytes_from_elems(self.bits, &elems, &mut bytes[..image]);
        for (l, line) in bytes[..image].chunks_exact(line).enumerate() {
            mem.write_bytes(base + self.line_offset(l, stride), line);
        }
        tile
    }

    /// With overlapping lines the bytes that survive depend on the order
    /// of the writes: lane-major, slot order, an element at a time.
    #[cold]
    fn store_overlapping(
        &self,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &WarpRegFile,
    ) {
        assert!(self.bits >= 8, "sub-byte store with overlapping tile lines");
        let bytes = self.bits / 8;
        for lane in 0..WARP_SIZE {
            for (slot, &(r, c)) in self.map.lane_elems(lane).iter().enumerate() {
                let elem = read_frag_elem(regs, lane, src, slot, self.bits);
                let at = self.map.element_byte_offset(r, c, stride);
                mem.write_bytes(base + at, &elem.to_le_bytes()[..bytes]);
            }
        }
    }
}

fn unpack_rows<const BITS: usize>(
    table: &[u16],
    regs: &WarpRegFile,
    base: Reg,
    elems: &mut TileBits,
) {
    let per_word = 32 / BITS;
    let mask = u32::MAX >> (32 - BITS);
    for (w, at) in table.chunks_exact(WARP_SIZE * per_word).enumerate() {
        let row = regs.row(Reg(base.0 + w as u16));
        for (&word, at) in row.iter().zip(at.chunks_exact(per_word)) {
            for (e, &i) in at.iter().enumerate() {
                elems[i as usize] = (word >> (e * BITS)) & mask;
            }
        }
    }
}

fn pack_rows<const BITS: usize>(
    table: &[u16],
    elems: &TileBits,
    base: Reg,
    regs: &mut WarpRegFile,
) {
    let per_word = 32 / BITS;
    for (w, at) in table.chunks_exact(WARP_SIZE * per_word).enumerate() {
        let row = regs.row_mut(Reg(base.0 + w as u16));
        for (word, at) in row.iter_mut().zip(at.chunks_exact(per_word)) {
            *word = 0;
            for (e, &i) in at.iter().enumerate() {
                *word |= elems[i as usize] << (e * BITS);
            }
        }
    }
}

/// Splits a little-endian memory image into its elements, in order.
fn elems_from_bytes(bits: usize, bytes: &[u8], elems: &mut [u32]) {
    match bits {
        4 => {
            for (pair, &b) in elems.chunks_exact_mut(2).zip(bytes) {
                pair[0] = u32::from(b & 0xF);
                pair[1] = u32::from(b >> 4);
            }
        }
        8 => elems
            .iter_mut()
            .zip(bytes)
            .for_each(|(e, &b)| *e = u32::from(b)),
        16 => {
            for (e, b) in elems.iter_mut().zip(bytes.chunks_exact(2)) {
                *e = u32::from(u16::from_le_bytes([b[0], b[1]]));
            }
        }
        _ => {
            for (e, b) in elems.iter_mut().zip(bytes.chunks_exact(4)) {
                *e = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
    }
}

/// Joins elements (confined to `bits`) into a little-endian memory image.
fn bytes_from_elems(bits: usize, elems: &[u32], bytes: &mut [u8]) {
    match bits {
        4 => {
            for (b, pair) in bytes.iter_mut().zip(elems.chunks_exact(2)) {
                *b = (pair[0] | pair[1] << 4) as u8;
            }
        }
        8 => bytes.iter_mut().zip(elems).for_each(|(b, &e)| *b = e as u8),
        16 => {
            for (b, &e) in bytes.chunks_exact_mut(2).zip(elems) {
                b.copy_from_slice(&(e as u16).to_le_bytes());
            }
        }
        _ => {
            for (b, &e) in bytes.chunks_exact_mut(4).zip(elems) {
                b.copy_from_slice(&e.to_le_bytes());
            }
        }
    }
}

const SHAPES: usize = 6;
const TYPES: usize = 9;
const FRAGMENTS: usize = 4;
const LAYOUTS: usize = 2;

static PLANS: [OnceLock<FragPlan>; 2 * FRAGMENTS * SHAPES * TYPES * LAYOUTS] =
    [const { OnceLock::new() }; 2 * FRAGMENTS * SHAPES * TYPES * LAYOUTS];

/// The compiled plan of one fragment, built on first use.
///
/// # Panics
///
/// Panics on a qualifier combination [`FragmentMap::for_arch`] rejects,
/// or whose fragment does not fill whole registers (no arch-valid mode).
pub fn plan(
    volta: bool,
    frag: FragmentKind,
    shape: WmmaShape,
    ty: WmmaType,
    layout: Layout,
) -> &'static FragPlan {
    let (f, s, t, l) = (frag as usize, shape as usize, ty as usize, layout as usize);
    assert!(f < FRAGMENTS && s < SHAPES && t < TYPES && l < LAYOUTS);
    let index = (((volta as usize * FRAGMENTS + f) * SHAPES + s) * TYPES + t) * LAYOUTS + l;
    PLANS[index]
        .get_or_init(|| FragPlan::build(FragmentMap::for_arch(volta, frag, shape, ty, layout)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{mma_sync_a_shape, TensorGen, WmmaDirective};

    const ALL_SHAPES: [WmmaShape; SHAPES] = [
        WmmaShape::M16N16K16,
        WmmaShape::M32N8K16,
        WmmaShape::M8N32K16,
        WmmaShape::M8N8K32,
        WmmaShape::M16N8K8,
        WmmaShape::M16N8K16,
    ];
    const ALL_TYPES: [WmmaType; TYPES] = [
        WmmaType::F16,
        WmmaType::F32,
        WmmaType::BF16,
        WmmaType::TF32,
        WmmaType::S8,
        WmmaType::U8,
        WmmaType::S4,
        WmmaType::U4,
        WmmaType::S32,
    ];
    /// Every `(fragment, shape, type)` an arch-valid `wmma.mma` or
    /// `mma.sync` consumes or produces, with whether it is Volta's.
    fn arch_valid_fragments() -> Vec<(bool, FragmentKind, WmmaShape, WmmaType)> {
        let mut out = Vec::new();
        for gen in [TensorGen::Volta, TensorGen::Turing, TensorGen::Ampere] {
            let volta = gen == TensorGen::Volta;
            for shape in ALL_SHAPES {
                for ab_type in ALL_TYPES {
                    for c_type in ALL_TYPES {
                        for d_type in ALL_TYPES {
                            for sparse in [false, true] {
                                let dir = if shape.is_mma_sync() {
                                    WmmaDirective::MmaSync {
                                        shape,
                                        ab_type,
                                        d_type,
                                        c_type,
                                        sparse,
                                    }
                                } else {
                                    WmmaDirective::Mma {
                                        shape,
                                        a_layout: Layout::Row,
                                        b_layout: Layout::Col,
                                        ab_type,
                                        d_type,
                                        c_type,
                                    }
                                };
                                if !dir.is_valid_on(gen) {
                                    continue;
                                }
                                for fragment in [
                                    (FragmentKind::A, mma_sync_a_shape(shape, sparse), ab_type),
                                    (FragmentKind::B, shape, ab_type),
                                    (FragmentKind::C, shape, c_type),
                                    (FragmentKind::D, shape, d_type),
                                ] {
                                    let fragment = (volta, fragment.0, fragment.1, fragment.2);
                                    if !out.contains(&fragment) {
                                        out.push(fragment);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn every_arch_valid_fragment_fills_whole_registers_and_the_largest_is_the_bound() {
        let fragments = arch_valid_fragments();
        assert!(fragments.len() >= 40, "{} fragments", fragments.len());
        let mut widest = 0;
        for (volta, frag, shape, ty) in fragments {
            let map = FragmentMap::for_arch(volta, frag, shape, ty, Layout::Row);
            let bits = map.elems_per_thread() * ty.bits();
            assert!(
                bits > 0 && bits.is_multiple_of(32),
                "{frag:?} {shape} {ty}: {bits} bits per lane"
            );
            widest = widest.max(bits / 32);
        }
        assert_eq!(widest, MAX_FRAG_WORDS);
    }

    #[test]
    fn every_arch_valid_plan_compiles_in_the_layouts_it_is_addressable_in() {
        for (volta, frag, shape, ty) in arch_valid_fragments() {
            for layout in [Layout::Row, Layout::Col] {
                // A sub-byte operand is byte-addressable per thread only
                // with its lines along the reduction dimension.
                let natural = match frag {
                    FragmentKind::B => Layout::Col,
                    _ => Layout::Row,
                };
                if ty.bits() == 4 && layout != natural {
                    continue;
                }
                let p = plan(volta, frag, shape, ty, layout);
                assert_eq!(
                    p.image_of_slot.len(),
                    p.map().elems_per_thread() * WARP_SIZE
                );
                let (rows, cols) = frag.dims(shape);
                let held = p.tile_of_slot.iter().filter(|&&i| i != DISCARD).count();
                assert_eq!(held, rows * cols, "each element gathered from one holder");
            }
        }
    }

    #[test]
    fn the_discarded_copy_of_a_volta_element_is_the_lower_lane() {
        let p = plan(
            true,
            FragmentKind::A,
            WmmaShape::M16N16K16,
            WmmaType::F16,
            Layout::Row,
        );
        let per_word = 2;
        for (k, &i) in p.tile_of_slot.iter().enumerate() {
            let (word, lane, e) = (
                k / (WARP_SIZE * per_word),
                k / per_word % WARP_SIZE,
                k % per_word,
            );
            let (r, c) = p.map().lane_elems(lane)[word * per_word + e];
            let holders = p.map().owners(r, c);
            assert_eq!(holders.len(), 2);
            let last = holders[1].0;
            assert_eq!(i == DISCARD, lane != last, "({r},{c}) lane {lane}");
        }
    }

    #[test]
    fn two_threads_are_handed_the_same_plan() {
        let get = || {
            plan(
                false,
                FragmentKind::B,
                WmmaShape::M32N8K16,
                WmmaType::S8,
                Layout::Col,
            )
        };
        // Both threads race for the first use; whichever builds it, both
        // must see one plan.
        let barrier = std::sync::Barrier::new(2);
        let (here, there) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                barrier.wait();
                get() as *const FragPlan as usize
            });
            barrier.wait();
            let here = get();
            (here, other.join().expect("worker thread"))
        });
        assert_eq!(here as *const FragPlan as usize, there);
        assert_eq!(
            *here.map(),
            FragmentMap::turing(
                FragmentKind::B,
                WmmaShape::M32N8K16,
                WmmaType::S8,
                Layout::Col
            )
        );
    }

    #[test]
    fn plan_slots_do_not_collide() {
        // The index arithmetic above relies on these counts.
        assert_eq!(WmmaShape::M16N8K16 as usize + 1, SHAPES);
        assert_eq!(WmmaType::S32 as usize + 1, TYPES);
        assert_eq!(FragmentKind::D as usize + 1, FRAGMENTS);
        assert_eq!(Layout::Col as usize + 1, LAYOUTS);
    }
}
