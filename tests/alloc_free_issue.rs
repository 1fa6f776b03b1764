//! Allocation regression gate for the issue path: once a launch is set
//! up, issuing an instruction must not touch the heap.
//!
//! Two untraced GEMM launches on the same grid, one with four times the
//! reduction depth of the other, execute very different numbers of warp
//! instructions (and of shared/global memory instructions, barriers and
//! cache misses) but set up exactly the same CTAs, warps and buffers. If
//! both launches perform the *same number* of heap allocations, none of
//! them is paid per issued instruction — so a `Vec` per memory
//! instruction, a clone per barrier release, a map insert per miss or a
//! tile per `wmma.mma` cannot creep back unnoticed. An FFMA SGEMM covers
//! the SIMT issue path, a shared-memory WMMA GEMM the tensor-core one
//! with its operand tiles bank-checked, a global-operand WMMA GEMM the
//! same with every tile's sectors walked through L1, L2 and DRAM.
//!
//! Bytes are counted beside calls, for one more gate: building a GPU
//! costs no L1. Each SM builds its L1 when it receives its first CTA, so
//! `Gpu::new` asks the heap for the same bytes whatever the L1 size.
//!
//! The counting allocator is test-only; every library crate keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcsim::cutlass::{f16_matrix_bytes, f32_matrix_bytes, Epilogue, GemmKernel};
use tcsim::isa::UnitClass;
use tcsim::sim::{Gpu, GpuConfig, LaunchStats};
use tcsim::sm::{unit_index, SmConfig};

struct Counting;

/// Heap requests: calls to `alloc`, `alloc_zeroed` and `realloc`, and
/// the bytes they asked for (a `realloc` its new size).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Allocated {
    calls: u64,
    bytes: u64,
}

thread_local! {
    /// `Some` on a thread that is measuring, with what it allocated so
    /// far: per thread, so the harness's own threads and the other tests
    /// do not pollute the count.
    static ALLOCATED: Cell<Option<Allocated>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| {
        a.set(a.get().map(|a| Allocated {
            calls: a.calls + 1,
            bytes: a.bytes + bytes as u64,
        }))
    });
}

/// Runs `f`, counting what it allocates on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (Allocated, T) {
    ALLOCATED.set(Some(Allocated::default()));
    let out = f();
    (ALLOCATED.replace(None).expect("still measuring"), out)
}

// SAFETY: defers every request unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const M: usize = 64;
const N: usize = 64;

/// Uploads the operands of an `M×N×k` GEMM to a fresh GPU, then counts
/// the heap allocations made inside `LaunchBuilder::launch` alone.
fn launch_allocations(kernel: GemmKernel, k: usize) -> (u64, LaunchStats) {
    let mut gpu = Gpu::new(GpuConfig::titan_v());
    let (a, b) = match kernel {
        GemmKernel::Sgemm => (f32_matrix_bytes(0xA, M, k), f32_matrix_bytes(0xB, k, N)),
        _ => (f16_matrix_bytes(0xA, M, k), f16_matrix_bytes(0xB, k, N)),
    };
    let c = f32_matrix_bytes(0xC, M, N);
    let pa = gpu.alloc(a.len() as u64);
    let pb = gpu.alloc(b.len() as u64);
    let pc = gpu.alloc(c.len() as u64);
    let pd = gpu.alloc((M * N * 4) as u64);
    gpu.memcpy_h2d(pa, &a);
    gpu.memcpy_h2d(pb, &b);
    gpu.memcpy_h2d(pc, &c);
    let builder = kernel.builder(false, Epilogue::None, (M, N, k), [pa, pb, pc, pd]);

    let (allocated, stats) = measure(|| builder.launch(&mut gpu));
    (allocated.calls, stats)
}

/// Launches `gemm` at a shallow and a four times deeper reduction on one
/// grid and requires the same number of heap allocations from both.
fn assert_depth_costs_no_allocations(gemm: GemmKernel) -> (LaunchStats, LaunchStats) {
    // What the process builds once on first use (the fragment plans) is
    // not a per-instruction cost: let a first launch pay for it.
    launch_allocations(gemm, 16);
    let (shallow, shallow_stats) = launch_allocations(gemm, 16);
    let (deep, deep_stats) = launch_allocations(gemm, 64);

    // The comparison only means something if the counter really counts
    // and the deep launch really did issue more work (the callers say
    // how much more, and of what).
    assert!(
        shallow > 0,
        "the launch set-up allocates; the counter is dead"
    );
    assert!(deep_stats.instructions > shallow_stats.instructions);
    assert_eq!(
        deep,
        shallow,
        "{} extra warp instructions cost {} extra heap allocations",
        deep_stats.instructions - shallow_stats.instructions,
        deep as i64 - shallow as i64
    );
    (shallow_stats, deep_stats)
}

#[test]
fn issuing_instructions_allocates_nothing() {
    // Memory instructions and barriers included.
    let (shallow, deep) = assert_depth_costs_no_allocations(GemmKernel::Sgemm);
    assert!(deep.instructions > 3 * shallow.instructions);
    assert!(deep.sm.global_txns > 2 * shallow.sm.global_txns);
    assert!(deep.sm.barriers > 2 * shallow.sm.barriers);
}

#[test]
fn executing_wmma_instructions_allocates_nothing() {
    // Four times the `wmma.mma`s and the operand `wmma.load`s: a tile, a
    // fragment map or an access list on the heap per instruction would
    // show.
    let tensor = |s: &LaunchStats| s.sm.issued_by_unit[unit_index(UnitClass::Tensor)];
    let (shallow, deep) = assert_depth_costs_no_allocations(GemmKernel::WmmaShared);
    assert_eq!(tensor(&deep), 4 * tensor(&shallow));
    assert!(deep.sm.barriers > 2 * shallow.sm.barriers);
    assert!(deep.sm.shared_conflict_passes > 2 * shallow.sm.shared_conflict_passes);

    // And with the operand tiles in global memory: a sector list per
    // tile, a cache walk per sector.
    let (shallow, deep) = assert_depth_costs_no_allocations(GemmKernel::WmmaSimple);
    assert_eq!(tensor(&deep), 4 * tensor(&shallow));
    // (The accumulator load and the store do not grow with `k`.)
    assert!(deep.sm.global_txns >= 2 * shallow.sm.global_txns);
    assert!(deep.dram_sectors > shallow.dram_sectors);
}

#[test]
fn building_a_gpu_costs_no_l1() {
    let titan_v = |l1_kib| GpuConfig {
        sm: SmConfig {
            l1_kib,
            ..SmConfig::volta()
        },
        ..GpuConfig::titan_v()
    };
    let (large, _) = measure(|| Gpu::new(titan_v(128)));
    let (small, _) = measure(|| Gpu::new(titan_v(32)));
    assert!(large.bytes > 0, "the counter is dead");
    assert_eq!(
        large,
        small,
        "a 128 KiB L1 costs {} bytes more than a 32 KiB one across 80 SMs",
        large.bytes as i64 - small.bytes as i64
    );
}
