//! Access coalescing: merging the per-lane accesses of one warp memory
//! instruction into memory transactions.
//!
//! Volta's L1 is sector-based: cache lines are 128 bytes made of four
//! 32-byte sectors, and a warp instruction generates one transaction per
//! distinct sector touched. The paper verified its timing model "generates
//! the exact same number of coalesced memory transactions generated by the
//! Titan V" for the wmma loads/stores (§V-A); this module is where that
//! count comes from in our reproduction.

use tcsim_isa::exec::{MemAccess, TileFootprint};

/// Bytes per cache-line sector (transaction granularity).
pub const SECTOR_BYTES: u64 = 32;
/// Bytes per cache line (four sectors).
pub const LINE_BYTES: u64 = 128;

/// One coalesced memory transaction: a sector-aligned request plus the
/// lanes it serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sector-aligned byte address.
    pub addr: u64,
    /// Bytes requested (always a whole sector).
    pub bytes: u64,
    /// Mask of lanes merged into this transaction.
    pub lane_mask: u32,
}

impl Transaction {
    /// The 128-byte line address containing this transaction.
    pub fn line_addr(&self) -> u64 {
        self.addr & !(LINE_BYTES - 1)
    }
}

/// Coalesces the per-lane accesses of one warp instruction into sector
/// transactions, ordered by address.
pub fn coalesce(accesses: &[MemAccess]) -> Vec<Transaction> {
    let mut txns = Vec::new();
    coalesce_into(accesses, &mut txns);
    txns
}

/// [`coalesce`] into a caller-owned list (cleared first), so a caller
/// that keeps `txns` (the SM does) never allocates.
pub fn coalesce_into(accesses: &[MemAccess], txns: &mut Vec<Transaction>) {
    txns.clear();
    for a in accesses.iter().filter(|a| a.bytes > 0) {
        let first = a.addr / SECTOR_BYTES;
        let last = (a.addr + a.bytes as u64 - 1) / SECTOR_BYTES;
        for s in first..=last {
            let addr = s * SECTOR_BYTES;
            // Lanes mostly walk memory upwards, so the sector is usually
            // the last one seen or a new highest; only out-of-order
            // lanes pay for the search.
            let at = match txns.last() {
                Some(t) if t.addr == addr => Ok(txns.len() - 1),
                Some(t) if t.addr > addr => txns.binary_search_by_key(&addr, |t| t.addr),
                _ => Err(txns.len()),
            };
            match at {
                Ok(i) => txns[i].lane_mask |= 1 << a.lane,
                Err(i) => txns.insert(
                    i,
                    Transaction {
                        addr,
                        bytes: SECTOR_BYTES,
                        lane_mask: 1 << a.lane,
                    },
                ),
            }
        }
    }
}

/// The sector addresses [`coalesce`] would find for the `wmma.load` /
/// `wmma.store` that reported `tile`, into a caller-owned list (cleared
/// first): the lanes' accesses touch exactly the tile's lines, and lines
/// ascend in memory, so the sectors of one line after another — less
/// those the line before already touched — are the sectors of the
/// instruction, in order.
pub fn tile_sectors_into(tile: &TileFootprint, sectors: &mut Vec<u64>) {
    sectors.clear();
    if tile.line_bytes == 0 {
        return;
    }
    // First sector not listed yet.
    let mut next = 0;
    for l in 0..tile.lines as u64 {
        let start = tile.base + l * tile.pitch_bytes;
        let first = (start / SECTOR_BYTES).max(next);
        let last = (start + tile.line_bytes as u64 - 1) / SECTOR_BYTES;
        sectors.extend((first..=last).map(|s| s * SECTOR_BYTES));
        next = last + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(lane: u8, addr: u64, bytes: u8) -> MemAccess {
        MemAccess { lane, addr, bytes }
    }

    #[test]
    fn fully_coalesced_warp_makes_four_sectors() {
        // 32 lanes × 4B consecutive = 128B = 4 sector transactions.
        let accesses: Vec<MemAccess> = (0..32).map(|l| acc(l, 0x1000 + 4 * l as u64, 4)).collect();
        let txns = coalesce(&accesses);
        assert_eq!(txns.len(), 4);
        assert_eq!(txns[0].addr, 0x1000);
        assert_eq!(txns[0].lane_mask, 0xFF);
        assert_eq!(txns[3].lane_mask, 0xFF00_0000);
        assert!(txns.iter().all(|t| t.line_addr() == 0x1000));
    }

    #[test]
    fn strided_access_explodes_transactions() {
        // 32 lanes × 4B with 128B stride: one sector each.
        let accesses: Vec<MemAccess> = (0..32).map(|l| acc(l, 128 * l as u64, 4)).collect();
        let txns = coalesce(&accesses);
        assert_eq!(txns.len(), 32);
    }

    #[test]
    fn same_address_broadcasts_into_one_transaction() {
        let accesses: Vec<MemAccess> = (0..32).map(|l| acc(l, 0x40, 4)).collect();
        let txns = coalesce(&accesses);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].lane_mask, u32::MAX);
    }

    #[test]
    fn access_spanning_sectors_touches_both() {
        let txns = coalesce(&[acc(0, 30, 8)]);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].addr, 0);
        assert_eq!(txns[1].addr, 32);
    }

    #[test]
    fn vector_loads_merge_within_sector() {
        // 2 lanes × 16B consecutive in one sector = 1 transaction.
        let txns = coalesce(&[acc(0, 0, 16), acc(1, 16, 16)]);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].lane_mask, 0b11);
    }

    #[test]
    fn wmma_row_major_load_transaction_count() {
        // A warp loading a row-major 16×16 f16 tile (stride 16): each
        // thread two 16B accesses; two threads share each 32B sector; the
        // tile is 512B = 16 sectors, each requested by *two* threadgroup
        // pairs on Volta (double loading) but they merge per sector.
        let mut accesses = Vec::new();
        for lane in 0..32u8 {
            let row = [0usize, 8, 0, 8, 4, 12, 4, 12][lane as usize / 4] + lane as usize % 4;
            accesses.push(acc(lane, (row * 32) as u64, 16));
            accesses.push(acc(lane, (row * 32 + 16) as u64, 16));
        }
        let txns = coalesce(&accesses);
        assert_eq!(txns.len(), 16, "512-byte tile = 16 sector transactions");
        // Every sector serves exactly two lanes (the double-loading pair).
        assert!(txns.iter().all(|t| t.lane_mask.count_ones() == 2));
    }

    #[test]
    fn reused_list_is_cleared_and_descending_lanes_still_sort() {
        let mut txns = Vec::new();
        coalesce_into(&[acc(0, 0x40, 4)], &mut txns);
        assert_eq!(txns.len(), 1);
        // Lanes walking memory downwards, revisiting a sector.
        let accesses: Vec<MemAccess> = (0..32).map(|l| acc(l, 0x400 - 16 * l as u64, 4)).collect();
        coalesce_into(&accesses, &mut txns);
        assert_eq!(txns, coalesce(&accesses));
        assert!(txns.windows(2).all(|w| w[0].addr < w[1].addr));
        assert_eq!(
            txns.iter().map(|t| t.lane_mask).fold(0, |m, x| m | x),
            u32::MAX
        );
    }

    #[test]
    fn empty_access_requests_nothing() {
        // A zero-byte access has no last byte: `addr + bytes - 1` would
        // underflow at address 0.
        assert!(coalesce(&[acc(0, 0, 0)]).is_empty());
        let txns = coalesce(&[acc(0, 0x40, 0), acc(1, 0x80, 4)]);
        assert_eq!(txns.len(), 1);
        assert_eq!((txns[0].addr, txns[0].lane_mask), (0x80, 0b10));
    }

    fn tile_sectors(base: u64, pitch_bytes: u64, line_bytes: u32, lines: u32) -> Vec<u64> {
        let mut sectors = vec![0xDEAD]; // cleared first
        let tile = TileFootprint {
            base,
            pitch_bytes,
            line_bytes,
            lines,
        };
        tile_sectors_into(&tile, &mut sectors);
        sectors
    }

    #[test]
    fn tile_sectors_are_the_sectors_of_its_lines() {
        // 16 packed 32-byte lines from a sector boundary: 16 sectors.
        let packed = tile_sectors(0x1000, 32, 32, 16);
        assert_eq!(packed, (0..16).map(|s| 0x1000 + 32 * s).collect::<Vec<_>>());
        // Two 16-byte lines to the sector: listed once.
        assert_eq!(
            tile_sectors(0x1000, 16, 16, 8),
            [0x1000, 0x1020, 0x1040, 0x1060]
        );
        // Off a sector boundary every line straddles two sectors, the
        // second of which is the next line's first.
        assert_eq!(
            tile_sectors(0x1008, 32, 32, 3),
            [0x1000, 0x1020, 0x1040, 0x1060]
        );
        // Padded to a 272-byte pitch the lines share nothing.
        assert_eq!(
            tile_sectors(0x2000, 272, 32, 3),
            [0x2000, 0x2100, 0x2120, 0x2220]
        );
        assert!(tile_sectors(0x2000, 64, 0, 4).is_empty());
        assert!(tile_sectors(0x2000, 64, 32, 0).is_empty());
    }

    #[test]
    fn transactions_are_address_ordered() {
        let accesses = vec![acc(0, 0x200, 4), acc(1, 0x100, 4), acc(2, 0x300, 4)];
        let txns = coalesce(&accesses);
        let addrs: Vec<u64> = txns.iter().map(|t| t.addr).collect();
        assert_eq!(addrs, vec![0x100, 0x200, 0x300]);
    }
}
