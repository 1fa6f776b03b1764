//! Allocation regression gate for the issue path: once a launch is set
//! up, issuing an instruction must not touch the heap.
//!
//! Two untraced SGEMM launches on the same grid, one with four times the
//! reduction depth of the other, execute very different numbers of warp
//! instructions (and of shared/global memory instructions, barriers and
//! cache misses) but set up exactly the same CTAs, warps and buffers. If
//! both launches perform the *same number* of heap allocations, none of
//! them is paid per issued instruction — so a `Vec` per memory
//! instruction, a clone per barrier release or a map insert per miss
//! cannot creep back unnoticed.
//!
//! The counting allocator is test-only; every library crate keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use tcsim::cutlass::{f32_matrix_bytes, sgemm};
use tcsim::sim::{Gpu, GpuConfig, LaunchBuilder, LaunchStats};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only, so the test harness's own
    /// threads do not pollute the count.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers every request unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const M: usize = 64;
const N: usize = 64;

/// Uploads the operands of an `M×N×k` SGEMM to a fresh GPU, then counts
/// the heap allocations made inside `LaunchBuilder::launch` alone.
fn launch_allocations(k: usize) -> (u64, LaunchStats) {
    let mut gpu = Gpu::new(GpuConfig::titan_v());
    let a = f32_matrix_bytes(0xA, M, k);
    let b = f32_matrix_bytes(0xB, k, N);
    let c = f32_matrix_bytes(0xC, M, N);
    let pa = gpu.alloc(a.len() as u64);
    let pb = gpu.alloc(b.len() as u64);
    let pc = gpu.alloc(c.len() as u64);
    let pd = gpu.alloc((M * N * 4) as u64);
    gpu.memcpy_h2d(pa, &a);
    gpu.memcpy_h2d(pb, &b);
    gpu.memcpy_h2d(pc, &c);
    let builder = LaunchBuilder::new(sgemm())
        .grid(((N / 16) as u32, (M / 16) as u32))
        .block((16u32, 16u32))
        .param_u64(pa)
        .param_u64(pb)
        .param_u64(pc)
        .param_u64(pd)
        .param_u32(N as u32)
        .param_u32(k as u32);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.set(true);
    let stats = builder.launch(&mut gpu);
    COUNTED.set(false);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, stats)
}

#[test]
fn issuing_instructions_allocates_nothing() {
    let (shallow, shallow_stats) = launch_allocations(16);
    let (deep, deep_stats) = launch_allocations(64);

    // The comparison only means something if the deep launch really did
    // issue several times the work, memory instructions and barriers
    // included, and the counter really counts.
    assert!(
        shallow > 0,
        "the launch set-up allocates; the counter is dead"
    );
    assert!(deep_stats.instructions > 3 * shallow_stats.instructions);
    assert!(deep_stats.sm.global_txns > 2 * shallow_stats.sm.global_txns);
    assert!(deep_stats.sm.barriers > 2 * shallow_stats.sm.barriers);

    assert_eq!(
        deep,
        shallow,
        "{} extra warp instructions cost {} extra heap allocations",
        deep_stats.instructions - shallow_stats.instructions,
        deep as i64 - shallow as i64
    );
}
