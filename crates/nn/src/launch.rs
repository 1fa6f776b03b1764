//! The crate's two device launchers and the operand staging under them.
//!
//! Every launch tcsim-nn makes goes through [`launch_gemm`] (the WMMA
//! kernels of [`crate::GEMM_TILES`]) or [`launch_f32`] (the SIMT kernels of
//! [`crate::kernels`]). With `trace` set, each launch records into its own
//! [`RingTracer`], so its `LaunchStats::trace` covers exactly that kernel.
//!
//! Staging allocates in a fixed order per launch: the inputs, then the
//! output. Addresses feed the address-hashed L2/DRAM partition mapping
//! (`MemSystem::partition_of`), so that order is part of every cycle
//! count. Each transfer is assembled on the host and moved with one device
//! copy per row (padded operands) or per buffer; padding is never written,
//! so the bytes stored, the pages materialised and the addresses handed
//! out are those of an element-at-a-time loop.

use crate::kernels::BLOCK;
use crate::lower::pad16;
use tcsim_cutlass::{Epilogue, GemmKernel};
use tcsim_f16::F16;
use tcsim_isa::{Dim3, Kernel};
use tcsim_sim::{Gpu, LaunchBuilder, LaunchStats};
use tcsim_trace::RingTracer;

/// Uploads an `rows × cols` f16 operand zero-padded to `prow × pcol`
/// (untouched device memory reads 0).
pub(crate) fn upload_f16(
    gpu: &mut Gpu,
    prow: usize,
    pcol: usize,
    rows: usize,
    cols: usize,
    get: impl Fn(usize, usize) -> f32,
) -> u64 {
    let p = gpu.alloc((prow * pcol * 2) as u64);
    let mut row = Vec::with_capacity(cols * 2);
    for r in 0..rows {
        row.clear();
        for c in 0..cols {
            row.extend_from_slice(&F16::from_f32(get(r, c)).to_bits().to_le_bytes());
        }
        gpu.memcpy_h2d(p + (r * pcol * 2) as u64, &row);
    }
    p
}

/// Stores `data` at `addr` as f32 words.
fn write_f32(gpu: &mut Gpu, addr: u64, data: &[f32]) {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    gpu.memcpy_h2d(addr, &bytes);
}

/// Allocates a buffer for `data` and uploads it as f32 words.
fn upload_f32(gpu: &mut Gpu, data: &[f32]) -> u64 {
    let p = gpu.alloc((data.len() * 4) as u64);
    write_f32(gpu, p, data);
    p
}

/// Reads `len` f32 words back from `addr`.
fn read_f32(gpu: &Gpu, addr: u64, len: usize) -> Vec<f32> {
    gpu.memcpy_d2h(addr, len * 4)
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// Reads a padded `pm × pn` f32 matrix back from `addr`, cropped to its
/// leading `m × n` block.
pub(crate) fn read_cropped(
    gpu: &Gpu,
    addr: u64,
    m: usize,
    n: usize,
    pm: usize,
    pn: usize,
) -> Vec<f32> {
    let d = read_f32(gpu, addr, pm * pn);
    let mut out = Vec::with_capacity(m * n);
    for row in d.chunks_exact(pn).take(m) {
        out.extend_from_slice(&row[..n]);
    }
    out
}

/// Launches `builder` on `gpu`, in a trace window of its own when `trace`
/// is set.
fn run(gpu: &mut Gpu, trace: bool, builder: LaunchBuilder) -> LaunchStats {
    if trace {
        builder.tracer(RingTracer::new()).launch(gpu)
    } else {
        builder.launch(gpu)
    }
}

/// Launches the `tile` kernel with `epilogue` on an `m×n×k` GEMM padded
/// to multiples of 16. Stages A (`a(row, col)`, f16), B (`b(row, col)`,
/// f16), C (the length-`pn` `bias` vector, else an implicitly zero
/// `pm × pn` accumulator) and D, in that order. Returns the stats, the
/// kernel name and D cropped to `m × n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_gemm(
    gpu: &mut Gpu,
    trace: bool,
    tile: GemmKernel,
    epilogue: Epilogue,
    (m, n, k): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    bias: Option<&[f32]>,
) -> (LaunchStats, String, Vec<f32>) {
    let (pm, pn, pk) = (pad16(m), pad16(n), pad16(k));
    let pa = upload_f16(gpu, pm, pk, m, k, a);
    let pb = upload_f16(gpu, pk, pn, k, n, b);
    let pc = match bias {
        Some(bias) => {
            let pc = gpu.alloc((pn * 4) as u64);
            write_f32(gpu, pc, bias);
            pc
        }
        None => gpu.alloc((pm * pn * 4) as u64),
    };
    let pd = gpu.alloc((pm * pn * 4) as u64);
    let builder = tile.builder(false, epilogue, (pm, pn, pk), [pa, pb, pc, pd]);
    let name = builder.kernel().name().to_string();
    let stats = run(gpu, trace, builder);
    (stats, name, read_cropped(gpu, pd, m, n, pm, pn))
}

/// Launches an f32 kernel of [`crate::kernels`] on `grid` CTAs of
/// [`BLOCK`] threads. Uploads `inputs` in parameter order, allocates the
/// `out_len`-element output as the last parameter, and returns the stats,
/// the kernel name and the output.
pub(crate) fn launch_f32(
    gpu: &mut Gpu,
    trace: bool,
    kernel: Kernel,
    grid: impl Into<Dim3>,
    inputs: &[&[f32]],
    out_len: usize,
) -> (LaunchStats, String, Vec<f32>) {
    let name = kernel.name().to_string();
    let mut builder = LaunchBuilder::new(kernel).grid(grid).block(BLOCK);
    for input in inputs {
        builder = builder.param_u64(upload_f32(gpu, input));
    }
    let pout = gpu.alloc((out_len * 4) as u64);
    let stats = run(gpu, trace, builder.param_u64(pout));
    (stats, name, read_f32(gpu, pout, out_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_sim::GpuConfig;

    /// The element-at-a-time uploader `upload_f16` replaced, kept verbatim
    /// as the staging reference: one `write_u16` per element, padding
    /// never touched.
    fn legacy_upload_f16(
        gpu: &mut Gpu,
        prow: usize,
        pcol: usize,
        rows: usize,
        cols: usize,
        get: impl Fn(usize, usize) -> f32,
    ) -> u64 {
        let p = gpu.alloc((prow * pcol * 2) as u64);
        for r in 0..rows {
            for c in 0..cols {
                gpu.write_u16(
                    p + ((r * pcol + c) * 2) as u64,
                    F16::from_f32(get(r, c)).to_bits(),
                );
            }
        }
        p
    }

    #[test]
    fn uploaded_operand_equals_the_per_element_image_and_pages() {
        // Ragged against the padding, dense, a single element, a
        // transposed source, and two buffers crossing a 64 KiB page (one
        // with a row straddling the boundary, one whose padding rows alone
        // reach the next page).
        let src: Vec<f32> = (0..200 * 400)
            .map(|i| ((i * 37 % 1013) as f32 - 500.0) / 97.0)
            .collect();
        for (rows, cols, transposed) in [
            (5, 37, false),
            (16, 48, false),
            (1, 1, false),
            (33, 17, true),
            (130, 300, false),
            (60, 500, true),
        ] {
            let what = format!("{rows}x{cols} transposed={transposed}");
            let get = |r: usize, c: usize| {
                if transposed {
                    src[c * rows + r]
                } else {
                    src[r * cols + c]
                }
            };
            let (prow, pcol) = (pad16(rows), pad16(cols));
            let (mut old, mut new) = (Gpu::new(GpuConfig::mini()), Gpu::new(GpuConfig::mini()));
            // Off the page boundary a fresh allocator starts on.
            assert_eq!(old.alloc(1000), new.alloc(1000));
            let p_old = legacy_upload_f16(&mut old, prow, pcol, rows, cols, get);
            let p_new = upload_f16(&mut new, prow, pcol, rows, cols, get);
            assert_eq!(p_old, p_new, "{what}: address");
            assert_eq!(old.alloc(1), new.alloc(1), "{what}: next allocation");
            let len = prow * pcol * 2;
            assert!(
                old.memcpy_d2h(p_old, len) == new.memcpy_d2h(p_new, len),
                "{what}: padded image"
            );
            assert_eq!(
                old.device_mut().resident_pages(),
                new.device_mut().resident_pages(),
                "{what}: materialised pages"
            );
        }
    }
}
