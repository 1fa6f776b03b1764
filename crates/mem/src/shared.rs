//! Per-CTA shared memory: backing storage plus the 32-bank conflict
//! model.
//!
//! Volta's shared memory has 32 banks of 4 bytes; a warp access that maps
//! two lanes to different 32-bit words in the same bank serializes into
//! multiple passes. The paper's WMMA-optimized GEMM kernels stage operand
//! tiles in shared memory to cut `wmma.load` latency by over 100× at
//! large matrix sizes (Fig 16) — the latency advantage this module models.

use tcsim_isa::exec::{MemAccess, TileFootprint};
use tcsim_isa::ByteMemory;

/// Number of shared-memory banks.
pub const NUM_BANKS: usize = 32;
/// Bytes per bank word.
pub const BANK_BYTES: u64 = 4;

/// Shared memory storage for one CTA.
#[derive(Clone, Debug)]
pub struct SharedMemory {
    bytes: Vec<u8>,
}

impl SharedMemory {
    /// Creates a CTA scratchpad of `size` bytes.
    pub fn new(size: u32) -> SharedMemory {
        SharedMemory {
            bytes: vec![0; size as usize],
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

impl ByteMemory for SharedMemory {
    fn read_u8(&self, addr: u64) -> u8 {
        self.bytes.get(addr as usize).copied().unwrap_or(0)
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let idx = addr as usize;
        if idx >= self.bytes.len() {
            // Out-of-bounds shared accesses would fault on hardware; the
            // simulator grows instead so malformed kernels fail tests via
            // wrong data, not UB.
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] = value;
    }

    // Fast in-bounds paths (hot in shared-memory staged GEMMs).
    fn read_u16(&self, addr: u64) -> u16 {
        let i = addr as usize;
        match self.bytes.get(i..i + 2) {
            Some(b) => u16::from_le_bytes([b[0], b[1]]),
            None => u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)]),
        }
    }

    fn read_u32(&self, addr: u64) -> u32 {
        let i = addr as usize;
        match self.bytes.get(i..i + 4) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => (self.read_u16(addr) as u32) | ((self.read_u16(addr + 2) as u32) << 16),
        }
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        let i = addr as usize;
        if i + 4 <= self.bytes.len() {
            self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (j, byte) in value.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr + j as u64, byte);
            }
        }
    }

    // One slice copy per `wmma.load`/`wmma.store` tile line, with the
    // byte accessors' behaviour past the end: reads see zeros, writes
    // grow the scratchpad.
    fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let stored = self.bytes.get(addr as usize..).unwrap_or(&[]);
        let n = stored.len().min(out.len());
        out[..n].copy_from_slice(&stored[..n]);
        out[n..].fill(0);
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let (start, end) = (addr as usize, addr as usize + data.len());
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[start..end].copy_from_slice(data);
    }
}

/// Bank-conflict analysis of one warp shared-memory instruction: the
/// number of serialized passes (1 = conflict-free) computed exactly as the
/// hardware does — distinct 4-byte words wanted from the same bank
/// serialize; lanes reading the same word broadcast.
pub fn conflict_passes(accesses: &[MemAccess]) -> u32 {
    conflict_passes_in(accesses, &mut Vec::new())
}

/// [`conflict_passes`] with caller-owned scratch for the far-apart case,
/// so a caller that keeps `words` (the SM does) never allocates.
pub fn conflict_passes_in(accesses: &[MemAccess], words: &mut Vec<u64>) -> u32 {
    let spans = accesses
        .iter()
        .filter(|a| a.bytes > 0)
        .map(|a| (a.addr, a.addr + a.bytes as u64 - 1));
    passes_over(spans, words)
}

/// [`conflict_passes_in`] of the `wmma.load`/`wmma.store` that reported
/// `tile`: the lanes' accesses touch exactly the tile's lines, so the
/// words wanted are the words of the lines.
pub fn tile_conflict_passes(tile: &TileFootprint, words: &mut Vec<u64>) -> u32 {
    let lines = if tile.line_bytes == 0 { 0 } else { tile.lines };
    let spans = (0..lines as u64)
        .map(|l| tile.base + l * tile.pitch_bytes)
        .map(|start| (start, start + tile.line_bytes as u64 - 1));
    passes_over(spans, words)
}

/// Bytes in a row of bank words.
const ROW_BYTES: u64 = NUM_BANKS as u64 * BANK_BYTES;

/// Rows the closed form below counts over: it serves whatever touches no
/// more than this many consecutive rows (8 KiB).
const ROW_WINDOW: usize = 64;

/// Banks `0..=i` and banks `i..32` as bit sets, by `i` (a table, because
/// a shift by a variable costs more than the rest of a span's work).
const UP_TO: [u32; NUM_BANKS] = {
    let mut sets = [0; NUM_BANKS];
    let mut i = 0;
    while i < NUM_BANKS {
        sets[i] = u32::MAX >> (NUM_BANKS - 1 - i);
        i += 1;
    }
    sets
};
const FROM: [u32; NUM_BANKS] = {
    let mut sets = [0; NUM_BANKS];
    let mut i = 0;
    while i < NUM_BANKS {
        sets[i] = u32::MAX << i;
        i += 1;
    }
    sets
};

/// The most distinct words any one bank is asked for by an instruction
/// touching the bytes of `spans` (`(first, last)` byte address, in any
/// order, overlapping or not), at least 1.
fn passes_over(spans: impl Iterator<Item = (u64, u64)> + Clone, words: &mut Vec<u64>) -> u32 {
    // Byte `b` is in row `b / 128`, in bank `b / 4 % 32` of that row.
    let (mut lowest, mut highest) = (u64::MAX, 0);
    for (first, last) in spans.clone() {
        lowest = lowest.min(first / ROW_BYTES);
        highest = highest.max(last / ROW_BYTES);
    }
    if lowest >= highest {
        // One row, where a bank has one word to give; or nothing touched.
        return 1;
    }
    if highest - lowest >= ROW_WINDOW as u64 {
        return sorted_passes(spans, words);
    }

    // A span is a run of consecutive banks in each row it crosses:
    // `wanted[r]` gathers the banks wanted in row `lowest + r` — a word
    // wanted twice is one bit set twice — so the work is per span and
    // row, not per word.
    let mut wanted = [0u32; ROW_WINDOW];
    let mut want = |row: u64, from: u64, to: u64| {
        wanted[row as usize] |= UP_TO[to as usize] & FROM[from as usize];
    };
    let banks = NUM_BANKS as u64;
    for (first, last) in spans {
        let (first_row, last_row) = (first / ROW_BYTES - lowest, last / ROW_BYTES - lowest);
        let (first_bank, last_bank) = (first / BANK_BYTES % banks, last / BANK_BYTES % banks);
        if first_row == last_row {
            want(first_row, first_bank, last_bank);
        } else {
            want(first_row, first_bank, banks - 1);
            for row in first_row + 1..last_row {
                want(row, 0, banks - 1);
            }
            want(last_row, 0, last_bank);
        }
    }

    // Count, for all 32 banks at once, the rows that want each: counter
    // bit `i` of every bank in `count[i]`, a row added by ripple carry.
    let mut count = [0u32; 1 + ROW_WINDOW.ilog2() as usize];
    for &row in &wanted[..=(highest - lowest) as usize] {
        let mut carry = row;
        for bit in &mut count {
            if carry == 0 {
                break;
            }
            (*bit, carry) = (*bit ^ carry, *bit & carry);
        }
    }
    // The largest counter: from the top bit down, keep to the banks that
    // have the bit set whenever some bank still in the running has.
    let (mut passes, mut running) = (0, u32::MAX);
    for (i, bit) in count.iter().enumerate().rev() {
        if running & bit != 0 {
            running &= bit;
            passes |= 1 << i;
        }
    }
    passes
}

/// [`passes_over`] for words too far apart for its window: sort the
/// touched words and count the distinct ones per bank.
#[cold]
fn sorted_passes(spans: impl Iterator<Item = (u64, u64)>, words: &mut Vec<u64>) -> u32 {
    words.clear();
    for (first, last) in spans {
        words.extend(first / BANK_BYTES..=last / BANK_BYTES);
    }
    words.sort_unstable();
    let mut counts = [0u32; NUM_BANKS];
    let mut prev = u64::MAX;
    for &w in words.iter() {
        if w != prev {
            counts[(w as usize) % NUM_BANKS] += 1;
            prev = w;
        }
    }
    counts.iter().copied().max().unwrap_or(0).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(lane: u8, addr: u64, bytes: u8) -> MemAccess {
        MemAccess { lane, addr, bytes }
    }

    #[test]
    fn storage_roundtrip() {
        let mut s = SharedMemory::new(1024);
        s.write_u32(100, 0xCAFEBABE);
        assert_eq!(s.read_u32(100), 0xCAFEBABE);
        assert_eq!(s.size(), 1024);
    }

    #[test]
    fn bulk_accessors_agree_with_the_byte_accessors_across_the_end() {
        let mut s = SharedMemory::new(16);
        s.write_bytes(4, &[1, 2, 3, 4]);
        assert_eq!(s.read_u32(4), 0x0403_0201);
        assert_eq!(s.size(), 16);
        // Straddling the end: grows exactly as the byte writes would.
        s.write_bytes(14, &[5, 6, 7]);
        assert_eq!(s.size(), 17);
        let mut out = [0xFFu8; 6];
        s.read_bytes(13, &mut out);
        assert_eq!(out, [0, 5, 6, 7, 0, 0]);
        assert_eq!(s.size(), 17, "reads never grow the scratchpad");
    }

    #[test]
    fn conflict_free_unit_stride() {
        let a: Vec<MemAccess> = (0..32).map(|l| acc(l, 4 * l as u64, 4)).collect();
        assert_eq!(conflict_passes(&a), 1);
    }

    #[test]
    fn broadcast_is_conflict_free() {
        let a: Vec<MemAccess> = (0..32).map(|l| acc(l, 64, 4)).collect();
        assert_eq!(conflict_passes(&a), 1);
    }

    #[test]
    fn stride_32_words_is_fully_serialized() {
        // All lanes hit bank 0 with distinct words: 32 passes.
        let a: Vec<MemAccess> = (0..32).map(|l| acc(l, 128 * l as u64, 4)).collect();
        assert_eq!(conflict_passes(&a), 32);
    }

    #[test]
    fn stride_2_words_is_two_way_conflict() {
        let a: Vec<MemAccess> = (0..32).map(|l| acc(l, 8 * l as u64, 4)).collect();
        assert_eq!(conflict_passes(&a), 2);
    }

    #[test]
    fn vector_access_counts_each_word() {
        // One lane reading 16B touches 4 banks, no conflict by itself.
        assert_eq!(conflict_passes(&[acc(0, 0, 16)]), 1);
        // Two lanes reading 128B apart with 16B each: words collide in 4
        // banks → 2 passes.
        assert_eq!(conflict_passes(&[acc(0, 0, 16), acc(1, 128, 16)]), 2);
    }

    #[test]
    fn unaligned_and_partial_broadcasts() {
        // A 4-byte access straddling two words touches two banks.
        assert_eq!(conflict_passes(&[acc(0, 2, 4)]), 1);
        // ... and collides with a lane wanting another word of bank 1.
        assert_eq!(conflict_passes(&[acc(0, 2, 4), acc(1, 132, 4)]), 2);
        // Half the warp broadcasts one word, half another in the same
        // bank: two passes, not sixteen.
        let a: Vec<MemAccess> = (0..32).map(|l| acc(l, 128 * (l as u64 % 2), 4)).collect();
        assert_eq!(conflict_passes(&a), 2);
    }

    #[test]
    fn agrees_with_counting_distinct_words_per_bank() {
        // Pseudo-random warps: clustered, strided and scattered addresses
        // of every width, against the definition spelled out with sets.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..2000 {
            let stride = [0, 4, 4, 8, 16, 128, 132][next(7) as usize];
            let span = [64, 256, 4096][next(3) as usize];
            let a: Vec<MemAccess> = (0..next(33) as u8)
                .map(|l| {
                    let addr = if next(4) == 0 {
                        next(span)
                    } else {
                        l as u64 * stride + next(2) * 128
                    };
                    acc(l, addr, [1, 2, 4, 8, 16][next(5) as usize])
                })
                .collect();
            let mut banks = vec![std::collections::BTreeSet::new(); NUM_BANKS];
            for x in &a {
                for w in x.addr / BANK_BYTES..=(x.addr + x.bytes as u64 - 1) / BANK_BYTES {
                    banks[w as usize % NUM_BANKS].insert(w);
                }
            }
            let want = banks.iter().map(|b| b.len()).max().unwrap().max(1) as u32;
            assert_eq!(conflict_passes(&a), want, "{a:?}");
        }
    }

    #[test]
    fn reused_scratch_does_not_leak_between_calls() {
        let mut words = Vec::new();
        let serial: Vec<MemAccess> = (0..32).map(|l| acc(l, 128 * l as u64, 4)).collect();
        let two_way: Vec<MemAccess> = (0..32).map(|l| acc(l, 8 * l as u64, 4)).collect();
        assert_eq!(conflict_passes_in(&serial, &mut words), 32);
        assert_eq!(conflict_passes_in(&two_way, &mut words), 2);
        assert_eq!(conflict_passes_in(&serial[..1], &mut words), 1);
    }

    #[test]
    fn empty_access_is_one_pass() {
        assert_eq!(conflict_passes(&[]), 1);
        // A zero-byte access touches no word (and has no last byte to
        // take the address of).
        assert_eq!(conflict_passes(&[acc(0, 0, 0)]), 1);
        assert_eq!(conflict_passes(&[acc(0, 0, 0), acc(1, 128, 0)]), 1);
    }

    #[test]
    fn words_more_than_64_rows_apart_are_still_counted_exactly() {
        // Rows 0 and 64 share a slot of the window; row 65 of bank 1
        // does not collide with anything.
        let far = [acc(0, 0, 4), acc(1, 64 * 128, 4), acc(2, 65 * 128 + 4, 4)];
        assert_eq!(conflict_passes(&far), 2);
        // Just inside the window: exact without the fallback.
        assert_eq!(conflict_passes(&[acc(0, 0, 4), acc(1, 63 * 128, 4)]), 2);
    }

    #[test]
    fn tile_conflicts_are_those_of_its_lines() {
        let passes = |base, pitch_bytes, line_bytes, lines| {
            let tile = TileFootprint {
                base,
                pitch_bytes,
                line_bytes,
                lines,
            };
            tile_conflict_passes(&tile, &mut Vec::new())
        };
        // 16 packed 32-byte lines = 128 consecutive words: 4 per bank.
        assert_eq!(passes(0, 32, 32, 16), 4);
        // A 128-byte pitch puts every line in banks 0..8: 16 deep.
        assert_eq!(passes(0, 128, 32, 16), 16);
        // Padding the pitch to 144 bytes rotates each line by four
        // banks: eight words over 32 banks, 4 deep again.
        assert_eq!(passes(0, 144, 32, 16), 4);
        // Misaligned lines touch nine words each; neighbours share one.
        assert_eq!(passes(2, 32, 32, 4), 2);
        assert_eq!(passes(0, 32, 32, 0), 1);
        assert_eq!(passes(0, 32, 0, 16), 1);
        // 16 lines at a 1 KiB pitch span 120 rows: the sorted fallback.
        assert_eq!(passes(0, 1024, 32, 16), 16);
    }
}
