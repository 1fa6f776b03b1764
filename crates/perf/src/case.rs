//! Launch descriptors the benchmark owns: a kernel, its geometry and its
//! device buffers, in a form both the simulator (`LaunchBuilder`) and the
//! functional-only replay (`crate::replay`) can consume.

use std::rc::Rc;
use tcsim_cutlass::microbench::{chase_chain, pointer_chase};
use tcsim_cutlass::{
    cutlass_gemm, f16_matrix_bytes, f32_matrix_bytes, hgemm, sgemm, wmma_shared_gemm,
    wmma_simple_gemm, GemmKernel, GemmPrecision, GemmProblem,
};
use tcsim_isa::{Dim3, Kernel};
use tcsim_mem::DeviceMemory;
use tcsim_sim::LaunchBuilder;

/// One device buffer: `len` bytes, initialised from `init` (which may be
/// shorter, or empty for an output buffer).
pub struct Buffer {
    /// Initial contents, copied to the start of the allocation.
    pub init: Vec<u8>,
    /// Allocation size in bytes.
    pub len: u64,
}

impl Buffer {
    fn input(init: Vec<u8>) -> Buffer {
        let len = init.len() as u64;
        Buffer { init, len }
    }

    fn output(len: u64) -> Buffer {
        Buffer {
            init: Vec::new(),
            len,
        }
    }
}

/// A fully specified launch. Parameters are every buffer's address in
/// order (u64) followed by `scalars` (u32) — the calling convention of
/// both the GEMM kernels and the pointer chase.
pub struct LaunchCase {
    /// Display label, also the span name.
    pub label: String,
    /// The kernel.
    pub kernel: Kernel,
    /// Grid extent.
    pub grid: Dim3,
    /// CTA extent.
    pub block: Dim3,
    /// Device buffers, allocated in order.
    pub buffers: Vec<Buffer>,
    /// Trailing 32-bit parameters.
    pub scalars: Vec<u32>,
}

impl LaunchCase {
    /// Allocates and fills the buffers on `mem`; returns their addresses.
    /// A fresh `DeviceMemory` hands out the same addresses every time, so
    /// a launch and its replay see identical pointers.
    pub fn upload(&self, mem: &mut DeviceMemory) -> Vec<u64> {
        let addrs: Vec<u64> = self.buffers.iter().map(|b| mem.alloc(b.len)).collect();
        for (b, &addr) in self.buffers.iter().zip(&addrs) {
            if !b.init.is_empty() {
                mem.copy_from_host(addr, &b.init);
            }
        }
        addrs
    }

    /// The typed launch for buffers at `addrs`.
    pub fn builder(&self, addrs: &[u64]) -> LaunchBuilder {
        let mut b = LaunchBuilder::new(self.kernel.clone())
            .grid(self.grid)
            .block(self.block);
        for &a in addrs {
            b = b.param_u64(a);
        }
        for &s in &self.scalars {
            b = b.param_u32(s);
        }
        b
    }
}

/// Operand seeds of `tcsim_cutlass::run_gemm` (its reference uses the
/// same three).
pub const GEMM_SEEDS: (u32, u32, u32) = (0xA, 0xB, 0xC);

/// The launch `tcsim_cutlass::run_gemm` performs for `problem` with
/// `kernel`, spelled out so the replay can drive the same kernel over the
/// same memory image. Covers the kernels the benchmark uses (FP32 SGEMM,
/// FP16 HGEMM, mixed-precision WMMA/CUTLASS).
pub fn gemm_case(label: &str, problem: GemmProblem, kernel: GemmKernel) -> LaunchCase {
    let (m, n, k) = (problem.m, problem.n, problem.k);
    let (sa, sb, sc) = GEMM_SEEDS;
    let fp16_out = problem.precision == GemmPrecision::Fp16;
    let (a, b) = match problem.precision {
        GemmPrecision::Fp32 => (f32_matrix_bytes(sa, m, k), f32_matrix_bytes(sb, k, n)),
        _ => (f16_matrix_bytes(sa, m, k), f16_matrix_bytes(sb, k, n)),
    };
    let c = if fp16_out {
        f16_matrix_bytes(sc, m, n)
    } else {
        f32_matrix_bytes(sc, m, n)
    };
    let d_bytes = (m * n * if fp16_out { 2 } else { 4 }) as u64;
    let (kern, grid, block) = match kernel {
        GemmKernel::WmmaSimple => (
            wmma_simple_gemm(fp16_out),
            Dim3::xy((n / 16) as u32, (m / 16) as u32),
            Dim3::x(32),
        ),
        GemmKernel::WmmaShared => (
            wmma_shared_gemm(fp16_out),
            Dim3::xy((n / 32) as u32, (m / 32) as u32),
            Dim3::x(128),
        ),
        GemmKernel::Cutlass(cfg) => (
            cutlass_gemm(cfg),
            Dim3::xy((n / cfg.cta_n) as u32, (m / cfg.cta_m) as u32),
            Dim3::x(cfg.threads() as u32),
        ),
        GemmKernel::Sgemm => (
            sgemm(),
            Dim3::xy((n / 16) as u32, (m / 16) as u32),
            Dim3::xy(16, 16),
        ),
        GemmKernel::Hgemm => (
            hgemm(),
            Dim3::xy((n / 32) as u32, (m / 16) as u32),
            Dim3::xy(16, 16),
        ),
        GemmKernel::IgemmWmma => panic!("the benchmark has no INT8 point"),
    };
    LaunchCase {
        label: label.to_string(),
        kernel: kern,
        grid,
        block,
        buffers: vec![
            Buffer::input(a),
            Buffer::input(b),
            Buffer::input(c),
            Buffer::output(d_bytes),
        ],
        scalars: vec![n as u32, k as u32],
    }
}

/// Chase launch shape of `bench_core_speedup`: one CTA per Titan V SM,
/// eight warps each, every warp on its own dependent chain.
pub const CHASE_GRID: u32 = 80;
/// Threads per chase CTA.
pub const CHASE_BLOCK: u32 = 256;
/// Odd stride (in elements) spanning more than a cache line, so the
/// chain is one cycle over a power-of-two ring and every hop leaves the
/// current sector.
pub const CHASE_STRIDE: usize = 33;

/// A pointer chase of `iters` hops per warp over a ring of `elems`
/// 8-byte links, with the start spacing `bench_core_speedup` uses.
pub struct ChaseCase {
    /// The launch (shared with the replay, which reuses the ring bytes).
    pub case: Rc<LaunchCase>,
    /// Ring length in elements.
    pub elems: usize,
    /// Hops per warp.
    pub iters: u32,
    /// Start spacing between consecutive warps, in elements.
    pub spread: u32,
}

impl ChaseCase {
    /// Warps in the launch.
    pub fn warps(&self) -> u64 {
        u64::from(CHASE_GRID * CHASE_BLOCK / 32)
    }

    /// The pointer every warp must end on, from a host walk of the same
    /// chain the device chases (`base` is the ring's device address).
    pub fn expected_end_pointers(&self, base: u64) -> Vec<u64> {
        let chain = chase_chain(self.elems, CHASE_STRIDE, base);
        (0..self.warps())
            .map(|w| {
                let start = (w * u64::from(self.spread)) & (self.elems as u64 - 1);
                let mut p = base + 8 * start;
                for _ in 0..self.iters {
                    p = chain[((p - base) / 8) as usize];
                }
                p
            })
            .collect()
    }
}

/// Builds the chase over `elems` links. The ring's links hold absolute
/// addresses, so the chain is generated for the address a fresh
/// `DeviceMemory` gives its first allocation.
pub fn chase_case(label: &str, elems: usize, iters: u32) -> ChaseCase {
    let base = DeviceMemory::new().alloc(elems as u64 * 8);
    let chain = chase_chain(elems, CHASE_STRIDE, base);
    let bytes: Vec<u8> = chain.iter().flat_map(|w| w.to_le_bytes()).collect();
    let warps = u64::from(CHASE_GRID * CHASE_BLOCK / 32);
    let stride = CHASE_STRIDE as u64;
    let spread = ((stride * (elems as u64 / warps)).max(stride) & (elems as u64 - 1)) as u32;
    ChaseCase {
        case: Rc::new(LaunchCase {
            label: label.to_string(),
            kernel: pointer_chase(iters, elems, spread),
            grid: Dim3::x(CHASE_GRID),
            block: Dim3::x(CHASE_BLOCK),
            buffers: vec![Buffer::input(bytes), Buffer::output(warps * 8)],
            scalars: Vec::new(),
        }),
        elems,
        iters,
        spread,
    }
}
