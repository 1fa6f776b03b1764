//! Domain scenario: 2-D convolution lowered to GEMM (im2col) on the
//! tensor cores — how cuDNN-era deep-learning frameworks actually use the
//! hardware the paper models (§I, §II-B).
//!
//! A convolution layer `output[n][f][y][x] = Σ input[n][c][y+dy][x+dx] ·
//! weight[f][c][dy][dx]` becomes `D = A×B` where A is the im2col patch
//! matrix (rows = output pixels, cols = c·kh·kw) and B is the reshaped
//! filter bank. The GEMM runs in mixed precision on the simulated Titan V
//! and the result is verified against a direct CPU convolution.
//!
//! Run with: `cargo run --release --example conv2d_im2col`

use tcsim::cutlass::{Epilogue, GemmKernel};
use tcsim::f16::F16;
use tcsim::isa::ByteMemory;
use tcsim::sim::{Gpu, GpuConfig};

/// Layer shape: input `c × h × w`, `f` filters of `c × kh × kw`, stride 1,
/// no padding (choosing sizes so the GEMM dimensions are tile-aligned).
struct ConvLayer {
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
}

impl ConvLayer {
    fn out_h(&self) -> usize {
        self.h - self.kh + 1
    }
    fn out_w(&self) -> usize {
        self.w - self.kw + 1
    }
    /// GEMM view: M = output pixels, K = c·kh·kw, N = filters.
    fn gemm_mnk(&self) -> (usize, usize, usize) {
        (
            self.out_h() * self.out_w(),
            self.f,
            self.c * self.kh * self.kw,
        )
    }
}

fn input_value(c: usize, y: usize, x: usize) -> f32 {
    (((c * 31 + y * 7 + x) % 15) as f32 - 7.0) / 4.0
}

fn weight_value(f: usize, c: usize, dy: usize, dx: usize) -> f32 {
    (((f * 13 + c * 5 + dy * 3 + dx) % 9) as f32 - 4.0) / 8.0
}

fn main() {
    // 224-pixel-ish layer scaled down to keep the example quick:
    // 8 channels of 36x36, 64 filters of 3x3 → GEMM 1156x64x72… round to
    // tile-aligned sizes by choosing output 32x32 and K=8·3·3=72→pad to 80.
    let layer = ConvLayer {
        c: 8,
        h: 34,
        w: 34,
        f: 64,
        kh: 3,
        kw: 3,
    };
    let (m, n, k_raw) = layer.gemm_mnk();
    let k = k_raw.div_ceil(16) * 16; // zero-padded reduction
    println!(
        "conv {}x{}x{} * {} filters {}x{} → GEMM {}x{}x{} (K padded from {})",
        layer.c, layer.h, layer.w, layer.f, layer.kh, layer.kw, m, n, k, k_raw
    );
    assert!(m % 32 == 0 && n % 32 == 0, "tile-aligned output");

    // Host-side im2col into the A matrix (f16), filters into B (f16).
    let mut gpu = Gpu::new(GpuConfig::titan_v());
    let pa = gpu.alloc((m * k * 2) as u64);
    let pb = gpu.alloc((k * n * 2) as u64);
    let pc = gpu.alloc((m * n * 4) as u64);
    let pd = gpu.alloc((m * n * 4) as u64);

    for oy in 0..layer.out_h() {
        for ox in 0..layer.out_w() {
            let row = oy * layer.out_w() + ox;
            for c in 0..layer.c {
                for dy in 0..layer.kh {
                    for dx in 0..layer.kw {
                        let col = (c * layer.kh + dy) * layer.kw + dx;
                        let v = F16::from_f32(input_value(c, oy + dy, ox + dx));
                        gpu.write_u16(pa + ((row * k + col) * 2) as u64, v.to_bits());
                    }
                }
            }
        }
    }
    for f in 0..layer.f {
        for c in 0..layer.c {
            for dy in 0..layer.kh {
                for dx in 0..layer.kw {
                    let row = (c * layer.kh + dy) * layer.kw + dx;
                    let v = F16::from_f32(weight_value(f, c, dy, dx));
                    gpu.write_u16(pb + ((row * n + f) * 2) as u64, v.to_bits());
                }
            }
        }
    }

    // Launch the shared-memory WMMA GEMM.
    let stats = GemmKernel::WmmaShared
        .builder(false, Epilogue::None, (m, n, k), [pa, pb, pc, pd])
        .launch(&mut gpu);
    let flops = 2.0 * (m * n * k_raw) as f64;
    println!(
        "GEMM: {} cycles, IPC {:.1}, {:.2} TFLOPS (effective, unpadded FLOPs)",
        stats.cycles,
        stats.ipc(),
        stats.tflops(flops)
    );

    // Verify against the direct convolution.
    let mut max_err = 0f32;
    for oy in 0..layer.out_h() {
        for ox in 0..layer.out_w() {
            for f in 0..layer.f {
                let mut want = 0f32;
                for c in 0..layer.c {
                    for dy in 0..layer.kh {
                        for dx in 0..layer.kw {
                            let iv = F16::from_f32(input_value(c, oy + dy, ox + dx)).to_f32();
                            let wv = F16::from_f32(weight_value(f, c, dy, dx)).to_f32();
                            want += iv * wv;
                        }
                    }
                }
                let row = oy * layer.out_w() + ox;
                let got =
                    f32::from_bits(gpu.device_mut().read_u32(pd + ((row * n + f) * 4) as u64));
                max_err = max_err.max((got - want).abs());
                assert!(
                    (got - want).abs() < 0.01,
                    "pixel ({oy},{ox}) filter {f}: got {got}, want {want}"
                );
            }
        }
    }
    println!("direct-convolution check passed (max |err| = {max_err:.2e})");
}
