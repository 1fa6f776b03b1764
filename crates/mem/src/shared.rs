//! Per-CTA shared memory: backing storage plus the 32-bank conflict
//! model.
//!
//! Volta's shared memory has 32 banks of 4 bytes; a warp access that maps
//! two lanes to different 32-bit words in the same bank serializes into
//! multiple passes. The paper's WMMA-optimized GEMM kernels stage operand
//! tiles in shared memory to cut `wmma.load` latency by over 100× at
//! large matrix sizes (Fig 16) — the latency advantage this module models.

use tcsim_isa::exec::MemAccess;
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

/// Calls `f` with the id of every 4-byte word `accesses` touch, in
/// order, until it returns `false`; whether it never did.
fn all_words(accesses: &[MemAccess], mut f: impl FnMut(u64) -> bool) -> bool {
    for a in accesses {
        let last = (a.addr + a.bytes as u64 - 1) / BANK_BYTES;
        let mut w = a.addr / BANK_BYTES;
        while w <= last {
            if !f(w) {
                return false;
            }
            w += 1;
        }
    }
    true
}

/// [`conflict_passes`] with caller-owned scratch for the conflicting
/// case, so a caller that keeps `words` (the SM does) never allocates.
pub fn conflict_passes_in(accesses: &[MemAccess], words: &mut Vec<u64>) -> u32 {
    // The common case in one pass: while every bank is asked for a single
    // word (any number of lanes may share it — a broadcast), the
    // instruction is conflict-free. Word ids are below 2^62, so u64::MAX
    // marks a bank nobody has touched yet.
    let mut wanted = [u64::MAX; NUM_BANKS];
    let conflict_free = all_words(accesses, |w| {
        let slot = &mut wanted[w as usize % NUM_BANKS];
        if *slot == u64::MAX {
            *slot = w;
        }
        *slot == w
    });
    if conflict_free {
        return 1;
    }

    // Some bank serializes: sort the touched words and count the distinct
    // ones per bank.
    words.clear();
    all_words(accesses, |w| {
        words.push(w);
        true
    });
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
    }
}
