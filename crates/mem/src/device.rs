//! Device global memory: a sparse, paged, byte-addressable store with a
//! bump allocator standing in for `cudaMalloc`.

use std::collections::HashMap;
use tcsim_isa::ByteMemory;

const PAGE_SHIFT: u32 = 16;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Pages below this index (4 GiB of address space) live in a
/// direct-mapped table; the bump allocator hands out addresses from the
/// bottom, so every well-behaved workload stays in this range.
const DIRECT_PAGES: u64 = 1 << 16;

type Page = Box<[u8; PAGE_BYTES]>;

/// Sparse device memory. Pages materialize on first write; reads of
/// untouched memory return zero (deterministic, like a fresh allocation
/// in the simulator).
///
/// The page table is split: the bottom 4 GiB is a directly indexed
/// vector (the warp executor performs one table access per lane per
/// load/store, so this lookup must not hash), and stray far addresses —
/// fuzzed kernels computing wild pointers — fall back to a map instead
/// of materializing the gap.
#[derive(Default)]
pub struct DeviceMemory {
    direct: Vec<Option<Page>>,
    far: HashMap<u64, Page>,
    next_alloc: u64,
}

impl DeviceMemory {
    /// Creates an empty device memory. Allocations start at a non-zero
    /// base so that address 0 stays an obvious "null".
    pub fn new() -> DeviceMemory {
        DeviceMemory {
            direct: Vec::new(),
            far: HashMap::new(),
            next_alloc: 0x1_0000,
        }
    }

    /// Allocates `bytes` of device memory, 256-byte aligned (matching
    /// `cudaMalloc` alignment guarantees), returning the base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc.div_ceil(256) * 256;
        self.next_alloc = base + bytes.max(1);
        base
    }

    /// Number of materialized pages (for memory-footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.direct.iter().filter(|p| p.is_some()).count() + self.far.len()
    }

    /// Copies a byte slice into device memory ("host-to-device"), one
    /// page-table lookup per page touched.
    pub fn copy_from_host(&mut self, addr: u64, data: &[u8]) {
        let mut at = addr;
        let mut rest = data;
        while !rest.is_empty() {
            let off = (at as usize) & (PAGE_BYTES - 1);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_BYTES - off));
            self.page_mut(at)[off..off + chunk.len()].copy_from_slice(chunk);
            at += chunk.len() as u64;
            rest = tail;
        }
    }

    /// Copies device memory out to a byte vector ("device-to-host").
    /// Pages never written read as zeros and stay unmaterialized.
    pub fn copy_to_host(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_bytes(addr, &mut out);
        out
    }
}

impl DeviceMemory {
    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_BYTES]> {
        let pg = addr >> PAGE_SHIFT;
        if pg < DIRECT_PAGES {
            match self.direct.get(pg as usize) {
                Some(Some(p)) => Some(p),
                _ => None,
            }
        } else {
            self.far.get(&pg).map(|p| &**p)
        }
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        let pg = addr >> PAGE_SHIFT;
        let new_page = || {
            vec![0u8; PAGE_BYTES]
                .into_boxed_slice()
                .try_into()
                .expect("page size")
        };
        if pg < DIRECT_PAGES {
            let idx = pg as usize;
            if self.direct.len() <= idx {
                self.direct.resize_with(idx + 1, || None);
            }
            self.direct[idx].get_or_insert_with(new_page)
        } else {
            self.far.entry(pg).or_insert_with(new_page)
        }
    }
}

impl ByteMemory for DeviceMemory {
    fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_BYTES - 1)] = value;
    }

    // Fast paths: one page lookup per access when it does not straddle a
    // page boundary (the warp executor reads gigabytes through these).
    fn read_u16(&self, addr: u64) -> u16 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 2 <= PAGE_BYTES {
            match self.page(addr) {
                Some(p) => u16::from_le_bytes([p[off], p[off + 1]]),
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)])
        }
    }

    fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 4 <= PAGE_BYTES {
            match self.page(addr) {
                Some(p) => u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)]) as u32
                | ((u16::from_le_bytes([self.read_u8(addr + 2), self.read_u8(addr + 3)]) as u32)
                    << 16)
        }
    }

    fn write_u16(&mut self, addr: u64, value: u16) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 2 <= PAGE_BYTES {
            self.page_mut(addr)[off..off + 2].copy_from_slice(&value.to_le_bytes());
        } else {
            let b = value.to_le_bytes();
            self.write_u8(addr, b[0]);
            self.write_u8(addr + 1, b[1]);
        }
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 4 <= PAGE_BYTES {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr + i as u64, byte);
            }
        }
    }

    // One page-table lookup per page touched. Pages never written read as
    // zeros and stay unmaterialized.
    fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let mut at = addr;
        let mut rest = out;
        while !rest.is_empty() {
            let off = (at as usize) & (PAGE_BYTES - 1);
            let (chunk, tail) = rest.split_at_mut(rest.len().min(PAGE_BYTES - off));
            match self.page(at) {
                Some(page) => chunk.copy_from_slice(&page[off..off + chunk.len()]),
                None => chunk.fill(0),
            }
            at += chunk.len() as u64;
            rest = tail;
        }
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.copy_from_host(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(3000);
        let c = m.alloc(1);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
        assert!(c >= b + 3000);
    }

    #[test]
    fn sparse_reads_are_zero() {
        let m = DeviceMemory::new();
        assert_eq!(m.read_u8(0xDEAD_BEEF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_across_page_boundary() {
        let mut m = DeviceMemory::new();
        let addr = (PAGE_BYTES as u64) - 2;
        m.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(m.read_u32(addr), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn far_addresses_fall_back_to_the_map() {
        // A wild pointer far beyond the direct window must not
        // materialize the gap.
        let mut m = DeviceMemory::new();
        let far = (DIRECT_PAGES << PAGE_SHIFT) + 12345;
        m.write_u32(far, 0x1234_5678);
        assert_eq!(m.read_u32(far), 0x1234_5678);
        assert_eq!(m.resident_pages(), 1);
        assert!(m.direct.is_empty());
    }

    #[test]
    fn host_copy_straddles_page_boundaries() {
        // Starts mid-page, covers one whole page and ends in a third.
        let mut m = DeviceMemory::new();
        let addr = PAGE_BYTES as u64 - 3;
        let data: Vec<u8> = (0..PAGE_BYTES + 10).map(|i| (i % 251) as u8 + 1).collect();
        m.copy_from_host(addr, &data);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.copy_to_host(addr, data.len()), data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(addr + i as u64), b, "byte {i}");
        }
        // The bytes around the copy are untouched.
        assert_eq!(m.read_u8(addr - 1), 0);
        assert_eq!(m.read_u8(addr + data.len() as u64), 0);
    }

    #[test]
    fn host_copy_reaches_the_far_map() {
        let mut m = DeviceMemory::new();
        let far = ((DIRECT_PAGES + 7) << PAGE_SHIFT) - 2;
        m.copy_from_host(far, &[9, 8, 7, 6]);
        assert_eq!(m.copy_to_host(far, 4), vec![9, 8, 7, 6]);
        assert_eq!(m.read_u32(far), 0x0607_0809);
        assert_eq!(m.resident_pages(), 2);
        assert!(m.direct.is_empty());
    }

    #[test]
    fn reading_back_unwritten_memory_materializes_nothing() {
        let mut m = DeviceMemory::new();
        m.write_u8(5, 1);
        let before = m.resident_pages();
        // Spans the written page, two untouched direct pages and a far one.
        assert_eq!(m.copy_to_host(0, 8)[5], 1);
        let gap = m.copy_to_host(PAGE_BYTES as u64 - 4, 2 * PAGE_BYTES + 8);
        assert!(gap.iter().all(|&b| b == 0));
        let far = m.copy_to_host(DIRECT_PAGES << PAGE_SHIFT, 64);
        assert_eq!(far, vec![0; 64]);
        assert_eq!(m.resident_pages(), before);
    }

    #[test]
    fn host_copies_roundtrip() {
        let mut m = DeviceMemory::new();
        let base = m.alloc(8);
        m.copy_from_host(base, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.copy_to_host(base, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_u64(base), 0x0807_0605_0403_0201);
    }
}
