//! Typed kernel-launch API.
//!
//! [`LaunchBuilder`] replaced the raw-bytes launch convention of early
//! versions (removed in 0.3): it packs parameters with the same
//! natural-alignment rules the `KernelBuilder` uses to lay them out, and
//! validates each one against the kernel's declared parameter list —
//! size mismatches and missing or extra parameters panic at
//! launch-build time instead of silently corrupting the `.param` space.

use crate::gpu::Gpu;
use crate::stats::LaunchStats;
use std::fmt;
use tcsim_isa::{Dim3, Kernel, LaunchConfig, MemSpace, MemWidth, Op, Operand, WmmaDirective};
use tcsim_trace::Tracer;
use tcsim_verify::{Diagnostic, LaunchGeometry, Verifier};

/// A launch-validation failure.
///
/// [`LaunchBuilder::try_into_parts`] and [`LaunchBuilder::try_launch`]
/// return these; the panicking methods panic with the same variants'
/// messages, so both diagnose identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// Fewer arguments supplied than the kernel declares.
    MissingParams {
        /// Kernel name.
        kernel: String,
        /// Declared parameter count.
        declared: usize,
        /// Supplied argument count.
        supplied: usize,
    },
    /// Grid dimensions never set.
    GridNotSet {
        /// Kernel name.
        kernel: String,
    },
    /// Block dimensions never set.
    BlockNotSet {
        /// Kernel name.
        kernel: String,
    },
    /// A grid or block dimension is zero.
    ZeroDim {
        /// Kernel name.
        kernel: String,
        /// Which geometry (`"grid"` or `"block"`).
        what: &'static str,
        /// The offending extent.
        dim: Dim3,
    },
    /// The static analyzer ([`tcsim_verify`]) found well-formedness
    /// errors in the kernel under this launch geometry.
    Verification {
        /// Kernel name.
        kernel: String,
        /// Number of error-severity findings.
        errors: usize,
        /// Rendered diagnostics, one per finding (errors and warnings).
        report: Vec<String>,
    },
    /// A pointer parameter feeds a `wmma.load`/`wmma.store` address but
    /// is not aligned to the fragment access granularity.
    UnalignedWmmaPointer {
        /// Kernel name.
        kernel: String,
        /// Parameter name.
        param: String,
        /// The supplied device address.
        addr: u64,
        /// Required alignment in bytes.
        align: u64,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::MissingParams { kernel, declared, supplied } => write!(
                f,
                "kernel {kernel} declares {declared} parameter(s); only {supplied} supplied"
            ),
            LaunchError::GridNotSet { kernel } => {
                write!(f, "kernel {kernel}: grid dimensions not set")
            }
            LaunchError::BlockNotSet { kernel } => {
                write!(f, "kernel {kernel}: block dimensions not set")
            }
            LaunchError::ZeroDim { kernel, what, dim } => write!(
                f,
                "kernel {kernel}: {what} extent {}x{}x{} has a zero dimension",
                dim.x, dim.y, dim.z
            ),
            LaunchError::Verification { kernel, errors, report } => {
                write!(f, "kernel {kernel}: static verification failed with {errors} error(s)")?;
                for line in report {
                    write!(f, "\n  {line}")?;
                }
                Ok(())
            }
            LaunchError::UnalignedWmmaPointer { kernel, param, addr, align } => write!(
                f,
                "kernel {kernel}: parameter `{param}` = {addr:#x} feeds a wmma address but is not {align}-byte aligned"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Fragment rows are fetched with up-to-128-bit accesses; a wmma base
/// pointer must be aligned to that granularity.
const WMMA_PTR_ALIGN: u64 = 16;

/// Best-effort dataflow scan: the byte offsets of `u64` parameters that
/// reach a `wmma.load`/`wmma.store` address operand through an
/// unclobbered `ld.param.b64` register pair.
fn wmma_pointer_param_offsets(kernel: &Kernel) -> Vec<u32> {
    use std::collections::HashMap;
    let mut reg_to_param: HashMap<u16, u32> = HashMap::new();
    let mut hits = Vec::new();
    for instr in kernel.instrs() {
        match &instr.op {
            Op::Ld {
                space: MemSpace::Param,
                width: MemWidth::B64,
            } => {
                if let (Some(dst), Some(Operand::Imm(off))) = (instr.dst, instr.srcs.first()) {
                    reg_to_param.insert(dst.0, *off as u32);
                    continue;
                }
            }
            Op::Wmma(WmmaDirective::Load { .. } | WmmaDirective::Store { .. }) => {
                if let Some(Operand::Reg(r) | Operand::RegPair(r)) = instr.srcs.first() {
                    if let Some(off) = reg_to_param.get(&r.0) {
                        hits.push(*off);
                    }
                }
            }
            _ => {}
        }
        // Any other write overlapping a tracked pair clobbers the mapping
        // (conservative straight-line dataflow: a pair based at `dst - 1`
        // or `dst` contains the written register).
        if let Some(dst) = instr.dst {
            reg_to_param.remove(&dst.0);
            reg_to_param.remove(&dst.0.wrapping_sub(1));
        }
    }
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// Builder for one kernel launch: grid/block geometry plus typed,
/// validated kernel parameters.
///
/// # Example
///
/// ```
/// use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder};
/// use tcsim_isa::{KernelBuilder, MemWidth, Operand, SpecialReg};
///
/// let mut gpu = Gpu::new(GpuConfig::mini());
/// let out = gpu.alloc(32 * 4);
///
/// let mut b = KernelBuilder::new("ids");
/// let p = b.param_u64("out");
/// let base = b.reg_pair();
/// b.ld_param(MemWidth::B64, base, p);
/// let tid = b.reg();
/// b.mov(tid, Operand::Special(SpecialReg::TidX));
/// let addr = b.reg_pair();
/// b.imad_wide(addr, tid, Operand::Imm(4), base);
/// b.st_global(MemWidth::B32, addr, 0, tid);
/// b.exit();
///
/// let stats = LaunchBuilder::new(b.build())
///     .grid(1u32)
///     .block(32u32)
///     .param_u64(out)
///     .launch(&mut gpu);
/// assert!(stats.cycles > 0);
/// assert_eq!(gpu.read_u32(out + 4 * 7), 7);
/// ```
#[derive(Clone, Debug)]
pub struct LaunchBuilder {
    kernel: Kernel,
    grid: Option<Dim3>,
    block: Option<Dim3>,
    dynamic_shared: u32,
    params: Vec<u8>,
    next_param: usize,
    tracer: Option<Box<dyn Tracer>>,
}

impl LaunchBuilder {
    /// Starts a launch of `kernel` with no geometry and no parameters.
    pub fn new(kernel: Kernel) -> LaunchBuilder {
        LaunchBuilder {
            kernel,
            grid: None,
            block: None,
            dynamic_shared: 0,
            params: Vec::new(),
            next_param: 0,
            tracer: None,
        }
    }

    /// The kernel this builder launches.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Sets the grid dimensions (`u32`, `(u32, u32)` or `(u32, u32, u32)`).
    pub fn grid(mut self, g: impl Into<Dim3>) -> LaunchBuilder {
        self.grid = Some(g.into());
        self
    }

    /// Sets the CTA (block) dimensions.
    pub fn block(mut self, b: impl Into<Dim3>) -> LaunchBuilder {
        self.block = Some(b.into());
        self
    }

    /// Requests `bytes` of dynamic shared memory per CTA, on top of the
    /// kernel's static allocation.
    pub fn dynamic_shared(mut self, bytes: u32) -> LaunchBuilder {
        self.dynamic_shared = bytes;
        self
    }

    /// Installs `tracer` on the GPU for this launch (and later ones, until
    /// replaced): the launch's [`LaunchStats::trace`] summary is filled in
    /// and the raw events stay readable via `Gpu::trace_events`.
    ///
    /// ```
    /// # use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder};
    /// # use tcsim_isa::KernelBuilder;
    /// use tcsim_trace::RingTracer;
    /// # let mut gpu = Gpu::new(GpuConfig::mini());
    /// # let mut b = KernelBuilder::new("noop");
    /// # b.exit();
    /// let stats = LaunchBuilder::new(b.build())
    ///     .grid(1u32)
    ///     .block(32u32)
    ///     .tracer(RingTracer::new())
    ///     .launch(&mut gpu);
    /// assert!(stats.trace.is_some());
    /// ```
    pub fn tracer(mut self, tracer: impl Tracer + 'static) -> LaunchBuilder {
        self.tracer = Some(Box::new(tracer));
        self
    }

    /// Packs the next argument at its declared offset.
    ///
    /// # Panics
    ///
    /// Panics if the kernel declares no further parameter or the next
    /// one has another width.
    fn push_param(&mut self, bytes_len: u32, le: &[u8]) {
        let (kernel, descs) = (self.kernel.name(), self.kernel.params());
        let Some(desc) = descs.get(self.next_param) else {
            panic!(
                "kernel {kernel} declares {} parameter(s); extra {bytes_len}-byte argument supplied",
                descs.len()
            );
        };
        if desc.bytes != bytes_len {
            panic!(
                "kernel {kernel} parameter `{}` is {} bytes, argument is {bytes_len} bytes",
                desc.name, desc.bytes
            );
        }
        // Pad to the declared offset: identical to KernelBuilder's
        // natural-alignment layout, so the cursor always lands exactly.
        self.params.resize(desc.offset as usize, 0);
        self.params.extend_from_slice(le);
        self.next_param += 1;
    }

    /// Appends a 32-bit parameter (little-endian, naturally aligned).
    pub fn param_u32(mut self, v: u32) -> LaunchBuilder {
        self.push_param(4, &v.to_le_bytes());
        self
    }

    /// Appends a 64-bit parameter — device pointers and sizes.
    pub fn param_u64(mut self, v: u64) -> LaunchBuilder {
        self.push_param(8, &v.to_le_bytes());
        self
    }

    /// Appends a 32-bit float parameter (stored as its IEEE-754 bits).
    pub fn param_f32(self, v: f32) -> LaunchBuilder {
        self.param_u32(v.to_bits())
    }

    /// Validates geometry and parameters, then runs the kernel to
    /// completion on `gpu`, returning its statistics.
    ///
    /// # Panics
    ///
    /// Panics if grid or block dimensions are unset, if any declared
    /// parameter was not supplied, or if the launch violates SM resource
    /// limits (see [`Gpu`] docs).
    pub fn launch(mut self, gpu: &mut Gpu) -> LaunchStats {
        if let Some(tracer) = self.tracer.take() {
            gpu.install_tracer(tracer);
        }
        let (kernel, cfg, params) = self.into_parts();
        gpu.run_kernel(kernel, cfg, params)
    }

    /// Finalizes the builder into its `(kernel, launch-config, params)`
    /// triple without running it — the form sweep jobs close over. Thin
    /// wrapper over [`LaunchBuilder::try_into_parts`], so the strict
    /// zero-dimension and wmma-alignment checks apply here too.
    ///
    /// # Panics
    ///
    /// Panics with the corresponding [`LaunchError`] message on any
    /// validation failure.
    pub fn into_parts(self) -> (Kernel, LaunchConfig, Vec<u8>) {
        self.try_into_parts().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shared geometry/parameter validation and packing behind both
    /// [`LaunchBuilder::into_parts`] and [`LaunchBuilder::try_into_parts`].
    fn finalize(mut self) -> Result<(Kernel, LaunchConfig, Vec<u8>), LaunchError> {
        let grid = self.grid.ok_or_else(|| LaunchError::GridNotSet {
            kernel: self.kernel.name().to_string(),
        })?;
        let block = self.block.ok_or_else(|| LaunchError::BlockNotSet {
            kernel: self.kernel.name().to_string(),
        })?;
        let declared = self.kernel.params().len();
        if self.next_param != declared {
            return Err(LaunchError::MissingParams {
                kernel: self.kernel.name().to_string(),
                declared,
                supplied: self.next_param,
            });
        }
        self.params.resize(self.kernel.param_bytes() as usize, 0);
        let cfg = LaunchConfig::new(grid, block).with_shared_bytes(self.dynamic_shared);
        Ok((self.kernel, cfg, self.params))
    }

    /// Fallible [`LaunchBuilder::into_parts`]: the geometry and parameter
    /// validation plus two strict checks. [`LaunchBuilder::launch`] and
    /// [`LaunchBuilder::into_parts`] go through here, so they enforce both
    /// too; only the static-analyzer gate belongs to
    /// [`LaunchBuilder::try_launch`] alone.
    ///
    /// * **zero-dimension geometry** — a grid or block extent of zero
    ///   launches nothing and is always a caller bug;
    /// * **unaligned wmma pointers** — a `u64` parameter that reaches a
    ///   `wmma.load`/`wmma.store` address operand through an unclobbered
    ///   `ld.param.b64` must be 16-byte aligned (the fragment access
    ///   granularity); a misaligned tile base splits every row fetch
    ///   across sectors on real hardware.
    pub fn try_into_parts(self) -> Result<(Kernel, LaunchConfig, Vec<u8>), LaunchError> {
        for (what, dim) in [("grid", self.grid), ("block", self.block)]
            .into_iter()
            .filter_map(|(w, d)| Some((w, d?)))
        {
            if dim.x == 0 || dim.y == 0 || dim.z == 0 {
                return Err(LaunchError::ZeroDim {
                    kernel: self.kernel.name().to_string(),
                    what,
                    dim,
                });
            }
        }
        for off in wmma_pointer_param_offsets(&self.kernel) {
            let Some(desc) = self
                .kernel
                .params()
                .iter()
                .find(|p| p.offset == off && p.bytes == 8)
            else {
                continue;
            };
            let o = off as usize;
            let Some(bytes) = self.params.get(o..o + 8) else {
                continue;
            };
            let addr = u64::from_le_bytes(bytes.try_into().unwrap());
            if addr % WMMA_PTR_ALIGN != 0 {
                return Err(LaunchError::UnalignedWmmaPointer {
                    kernel: self.kernel.name().to_string(),
                    param: desc.name.clone(),
                    addr,
                    align: WMMA_PTR_ALIGN,
                });
            }
        }
        self.finalize()
    }

    /// Runs the static analyzer ([`tcsim_verify`]) on the kernel under
    /// the builder's current geometry, returning every diagnostic.
    ///
    /// Unset grid/block dimensions default to `1`/`32` for analysis
    /// purposes (one warp, one CTA), so the method is usable before the
    /// geometry is chosen; the fragment-sizing architecture comes from
    /// `gpu`'s SM configuration. [`LaunchBuilder::try_launch`] runs the
    /// same analysis and refuses to launch on error-severity findings;
    /// this method exposes the full report (including warnings) without
    /// committing to a launch.
    pub fn verify(&self, gpu: &Gpu) -> Vec<Diagnostic> {
        let geom = LaunchGeometry {
            grid: self.grid.unwrap_or_else(|| 1u32.into()),
            block: self.block.unwrap_or_else(|| 32u32.into()),
            dynamic_shared: self.dynamic_shared,
            gen: gpu.config().sm.tensor_gen(),
        };
        Verifier::new().check(&self.kernel, &geom)
    }

    /// Fallible [`LaunchBuilder::launch`]: validates via
    /// [`LaunchBuilder::try_into_parts`] (including the strict zero-dim
    /// and wmma-alignment checks), runs the static analyzer as a
    /// pre-launch gate, and only touches `gpu` once the launch is known
    /// to be well-formed.
    ///
    /// Error-severity findings from [`tcsim_verify`] — uninitialized
    /// register reads, divergent barriers, shared-memory races or
    /// out-of-bounds accesses, malformed WMMA — abort the launch with
    /// [`LaunchError::Verification`]. Warnings are included in that
    /// report when errors are present but never block a launch on their
    /// own. The legacy panicking [`LaunchBuilder::launch`] path is *not*
    /// gated, so replay of captured (possibly hostile) kernels remains
    /// possible.
    pub fn try_launch(mut self, gpu: &mut Gpu) -> Result<LaunchStats, LaunchError> {
        let tracer = self.tracer.take();
        let diags = self.verify(gpu);
        if tcsim_verify::has_errors(&diags) {
            return Err(LaunchError::Verification {
                kernel: self.kernel.name().to_string(),
                errors: diags.iter().filter(|d| d.is_error()).count(),
                report: diags.iter().map(|d| d.to_string()).collect(),
            });
        }
        let (kernel, cfg, params) = self.try_into_parts()?;
        if let Some(tracer) = tracer {
            gpu.install_tracer(tracer);
        }
        Ok(gpu.run_kernel(kernel, cfg, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use tcsim_isa::{KernelBuilder, MemWidth, Operand, SpecialReg};

    fn two_param_kernel() -> Kernel {
        // st_global(out + 4*tid, n) for tid < 32.
        let mut b = KernelBuilder::new("store_n");
        let p_out = b.param_u64("out");
        let p_n = b.param_u32("n");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, p_out);
        let n = b.reg();
        b.ld_param(MemWidth::B32, n, p_n);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), base);
        b.st_global(MemWidth::B32, addr, 0, n);
        b.exit();
        b.build()
    }

    #[test]
    fn typed_params_reach_the_kernel() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(32 * 4);
        let stats = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(out)
            .param_u32(0xDEAD_BEEF)
            .launch(&mut gpu);
        assert!(stats.cycles > 0);
        for i in 0..32 {
            assert_eq!(gpu.read_u32(out + 4 * i), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn into_parts_packs_with_natural_alignment() {
        let (_, cfg, params) = LaunchBuilder::new(two_param_kernel())
            .grid(2u32)
            .block((32u32, 2u32))
            .param_u64(0x1122_3344_5566_7788)
            .param_u32(7)
            .into_parts();
        assert_eq!(cfg.grid.x, 2);
        assert_eq!(cfg.block.y, 2);
        assert_eq!(params.len(), 12);
        assert_eq!(&params[0..8], &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(&params[8..12], &7u32.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "kernel store_n parameter `out` is 8 bytes, argument is 4 bytes")]
    fn wrong_width_is_rejected() {
        let _ = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u32(7); // first declared param is a u64 pointer
    }

    #[test]
    #[should_panic(expected = "only 1 supplied")]
    fn missing_param_is_rejected() {
        let _ = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(0)
            .into_parts();
    }

    #[test]
    #[should_panic(
        expected = "kernel store_n declares 2 parameter(s); extra 4-byte argument supplied"
    )]
    fn extra_param_is_rejected() {
        let _ = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(0)
            .param_u32(1)
            .param_u32(2);
    }

    #[test]
    #[should_panic(expected = "grid dimensions not set")]
    fn unset_grid_is_rejected() {
        let _ = LaunchBuilder::new(two_param_kernel())
            .block(32u32)
            .param_u64(0)
            .param_u32(1)
            .into_parts();
    }

    fn wmma_ptr_kernel() -> Kernel {
        use tcsim_isa::{FragmentKind, Layout, MemSpace, WmmaShape, WmmaType};
        let mut b = KernelBuilder::new("wmma_ptr");
        let p = b.param_u64("tile");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, p);
        let frag = b.reg_block(tcsim_isa::fragment_regs(
            FragmentKind::A,
            WmmaShape::M16N16K16,
            WmmaType::F16,
            true,
        ));
        b.wmma_load(
            FragmentKind::A,
            WmmaShape::M16N16K16,
            Layout::Row,
            WmmaType::F16,
            MemSpace::Global,
            frag,
            Operand::RegPair(base),
            Operand::Imm(16),
        );
        b.exit();
        b.build()
    }

    #[test]
    fn try_into_parts_reports_missing_geometry_and_params() {
        let err = LaunchBuilder::new(two_param_kernel())
            .try_into_parts()
            .unwrap_err();
        assert_eq!(
            err,
            LaunchError::GridNotSet {
                kernel: "store_n".into()
            }
        );
        let err = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .try_into_parts()
            .unwrap_err();
        assert_eq!(
            err,
            LaunchError::BlockNotSet {
                kernel: "store_n".into()
            }
        );
        let err = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(0)
            .try_into_parts()
            .unwrap_err();
        assert_eq!(
            err,
            LaunchError::MissingParams {
                kernel: "store_n".into(),
                declared: 2,
                supplied: 1
            }
        );
    }

    #[test]
    fn try_into_parts_rejects_zero_dimensions() {
        let err = LaunchBuilder::new(two_param_kernel())
            .grid(0u32)
            .block(32u32)
            .param_u64(0)
            .param_u32(1)
            .try_into_parts()
            .unwrap_err();
        assert!(
            matches!(&err, LaunchError::ZeroDim { what: "grid", .. }),
            "got: {err}"
        );
        let err = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block((32u32, 0u32))
            .param_u64(0)
            .param_u32(1)
            .try_into_parts()
            .unwrap_err();
        assert!(
            matches!(&err, LaunchError::ZeroDim { what: "block", .. }),
            "got: {err}"
        );
    }

    #[test]
    fn try_into_parts_rejects_unaligned_wmma_pointer() {
        let err = LaunchBuilder::new(wmma_ptr_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(0x1_0002)
            .try_into_parts()
            .unwrap_err();
        assert_eq!(
            err,
            LaunchError::UnalignedWmmaPointer {
                kernel: "wmma_ptr".into(),
                param: "tile".into(),
                addr: 0x1_0002,
                align: 16,
            }
        );
        // An aligned pointer passes the same path.
        LaunchBuilder::new(wmma_ptr_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(0x1_0000)
            .try_into_parts()
            .expect("aligned wmma pointer must be accepted");
    }

    #[test]
    fn try_launch_runs_a_valid_launch() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(32 * 4);
        let stats = LaunchBuilder::new(two_param_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(out)
            .param_u32(3)
            .try_launch(&mut gpu)
            .expect("valid launch");
        assert!(stats.cycles > 0);
        assert_eq!(gpu.read_u32(out), 3);
    }

    /// A kernel that reads a register no path has written.
    fn uninit_kernel() -> Kernel {
        let mut b = KernelBuilder::new("uninit");
        let r = b.reg();
        let d = b.reg();
        b.iadd(d, r, Operand::Imm(1));
        b.exit();
        b.build()
    }

    #[test]
    fn verify_reports_static_analysis_findings() {
        let gpu = Gpu::new(GpuConfig::mini());
        let diags = LaunchBuilder::new(uninit_kernel()).verify(&gpu);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "uninit-reg");
        // A well-formed kernel verifies clean.
        let diags = LaunchBuilder::new(two_param_kernel()).verify(&gpu);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    #[test]
    fn try_launch_gates_on_verification_errors() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let err = LaunchBuilder::new(uninit_kernel())
            .grid(1u32)
            .block(32u32)
            .try_launch(&mut gpu)
            .unwrap_err();
        let LaunchError::Verification {
            kernel,
            errors,
            report,
        } = &err
        else {
            panic!("expected Verification, got: {err}");
        };
        assert_eq!(kernel, "uninit");
        assert_eq!(*errors, 1);
        assert!(report[0].contains("uninit-reg"), "{report:?}");
        assert!(err.to_string().contains("static verification failed"));
        // The legacy panicking launch path stays ungated (registers are
        // zero-reset per launch, so the run itself is deterministic).
        let stats = LaunchBuilder::new(uninit_kernel())
            .grid(1u32)
            .block(32u32)
            .launch(&mut gpu);
        assert!(stats.cycles > 0);
    }

    // The panicking variants are thin wrappers over the `try_` forms;
    // these pin their exact messages (the `LaunchError` Display wording).
    #[test]
    #[should_panic(expected = "grid extent 0x1x1 has a zero dimension")]
    fn zero_dimension_panic_message_is_pinned() {
        let _ = LaunchBuilder::new(two_param_kernel())
            .grid(0u32)
            .block(32u32)
            .param_u64(0)
            .param_u32(1)
            .into_parts();
    }

    #[test]
    #[should_panic(expected = "feeds a wmma address but is not 16-byte aligned")]
    fn unaligned_wmma_pointer_panic_message_is_pinned() {
        let _ = LaunchBuilder::new(wmma_ptr_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(0x1_0002)
            .into_parts();
    }
}
