#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! GPU memory hierarchy: device memory, access coalescing, sectored
//! caches with MSHRs, DRAM channels and banked shared memory.
//!
//! This crate is the memory substrate the paper's tensor-core model plugs
//! into (GPGPU-Sim's memory system in the original, §V-A). Two properties
//! it must reproduce:
//!
//! * the *transaction counts* of `wmma.load`/`wmma.store` (the paper
//!   verified its model generates exactly the Titan V's coalesced
//!   transaction counts) — see [`coalesce`];
//! * the *latency separation* between shared-memory and global-memory
//!   operand staging that produces the >100× `wmma.load` latency gap of
//!   Fig 16 — see [`SharedMemory`] vs [`L1Path`]/[`MemSystem`].
//!
//! # Example
//!
//! ```
//! use tcsim_mem::{coalesce, DeviceMemory};
//! use tcsim_isa::{exec::MemAccess, ByteMemory};
//!
//! let mut mem = DeviceMemory::new();
//! let base = mem.alloc(1024);
//! mem.write_u32(base, 42);
//! assert_eq!(mem.read_u32(base), 42);
//!
//! // A fully coalesced warp access: 32 lanes × 4 bytes = 4 sectors.
//! let accesses: Vec<MemAccess> = (0..32)
//!     .map(|l| MemAccess { lane: l, addr: base + 4 * l as u64, bytes: 4 })
//!     .collect();
//! assert_eq!(coalesce(&accesses).len(), 4);
//! ```

mod cache;
mod coalesce;
mod device;
mod dram;
mod hierarchy;
mod shared;

pub use cache::{Cache, CacheConfig, CacheStats, Lookup};
pub use coalesce::{
    coalesce, coalesce_into, tile_sectors_into, Transaction, LINE_BYTES, SECTOR_BYTES,
};
pub use device::DeviceMemory;
pub use dram::DramChannel;
pub use hierarchy::{L1Path, MemSystem, MemSystemConfig};
pub use shared::{
    conflict_passes, conflict_passes_in, tile_conflict_passes, SharedMemory, BANK_BYTES, NUM_BANKS,
};
