//! The bank-conflict count as the simulator computed it before the
//! one-pass counter: collect every touched word, sort, count the distinct
//! ones per bank. Test-only reference, shared with `crates/core/tests`.

use tcsim_isa::exec::MemAccess;
use tcsim_mem::{BANK_BYTES, NUM_BANKS};

/// Serialized passes of one warp shared-memory instruction (1 =
/// conflict-free): the most distinct 4-byte words any bank is asked for.
pub fn sorted_conflict_passes(accesses: &[MemAccess]) -> u32 {
    let mut words: Vec<u64> = accesses
        .iter()
        .filter(|a| a.bytes > 0)
        .flat_map(|a| a.addr / BANK_BYTES..=(a.addr + a.bytes as u64 - 1) / BANK_BYTES)
        .collect();
    words.sort_unstable();
    words.dedup();
    let mut counts = [0u32; NUM_BANKS];
    for w in words {
        counts[w as usize % NUM_BANKS] += 1;
    }
    counts.into_iter().max().unwrap_or(0).max(1)
}
