//! The differential oracle: run one kernel on the full timing [`Gpu`] and
//! on a host reference interpreter, then compare the output buffers.
//!
//! Both sides share the architectural executor (`tcsim_isa::exec`) and the
//! functional tensor-core model, so for the oracle-safe programs produced
//! by [`crate::gen`] the outputs must agree **bit-for-bit** for integer,
//! logic and f16-conversion work; FEDP accumulation in floating-point WMMA
//! modes is compared with the paper-derived `gemm_tolerance(k)` bound
//! (Sec. V), where `k` is the total reduction depth of the chained
//! `wmma.mma`s. Divergence therefore means a real bug: scheduling-order
//! sensitivity, a memory-system corruption, or a numerics drift between
//! the pipelined model and the architectural one.
//!
//! The reference side can be wired with a planted [`Mutation`] (a
//! round-toward-zero flip of the per-FEDP f16 rounding) to prove the
//! oracle and the shrinker actually catch single-rounding bugs.

use crate::gen::{assemble, Arch, GenOp, GenProgram, KindSel};
use crate::mutate::{chop_to_bf16, swap_sparse_meta};
use crate::rng::XorShift64Star;
use tcsim_core::{
    expand_sparse_a, fedp_f32_pre, gather_tile, mma_reference, read_sparse_meta, scatter_tile,
    FragmentMap, TensorCoreModel, Tile,
};
use tcsim_f16::{Bf16, F16};
use tcsim_isa::exec::{step, ExecEnv, MemAccess, StepAction, TileFootprint, WarpExec, WmmaHandler};
use tcsim_isa::{mma_sync_a_shape, FragmentKind, Layout, WmmaDirective, WmmaType};
use tcsim_isa::{ByteMemory, Dim3, Kernel, Op, Reg, VecMemory, WarpRegFile};
use tcsim_nn::gemm_tolerance;
use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder, LaunchStats, SimOptions};
use tcsim_sm::SmConfig;
use tcsim_trace::RingTracer;

/// Reference-interpreter step budget (architectural instructions across
/// all warps); generated programs finish in far fewer, so exceeding it
/// means the kernel hung.
pub const REF_STEP_BUDGET: u64 = 4_000_000;

/// How the input buffer is filled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// Raw random 32-bit words (SIMT programs).
    Raw,
    /// Random f16 values in `[-2, 2)` packed two per word (float WMMA).
    F16,
    /// Random bf16 values in `[-2, 2)` packed two per word (BF16
    /// `mma.sync` modes).
    Bf16,
    /// Random f32 values in `[-2, 2)`, one per word (TF32 modes — the
    /// device truncates to TF32 on operand read).
    F32,
    /// Random bytes (integer WMMA; also serves the 4-bit modes).
    I8,
}

impl DataKind {
    /// Corpus-header spelling.
    pub fn qualifier(self) -> &'static str {
        match self {
            DataKind::Raw => "raw",
            DataKind::F16 => "f16",
            DataKind::Bf16 => "bf16",
            DataKind::F32 => "f32",
            DataKind::I8 => "i8",
        }
    }

    /// Parses the corpus-header spelling.
    pub fn from_qualifier(s: &str) -> Option<DataKind> {
        match s {
            "raw" => Some(DataKind::Raw),
            "f16" => Some(DataKind::F16),
            "bf16" => Some(DataKind::Bf16),
            "f32" => Some(DataKind::F32),
            "i8" => Some(DataKind::I8),
            _ => None,
        }
    }
}

/// How the two output buffers are compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compare {
    /// Byte-for-byte equality (integer/logic/conversion work).
    Exact,
    /// Elementwise f16 comparison within `gemm_tolerance(k)`; bit-equal
    /// elements (including NaNs) always pass.
    F16Tol {
        /// Total FEDP reduction depth.
        k: u32,
    },
    /// Elementwise f32 comparison within `gemm_tolerance(k)`.
    F32Tol {
        /// Total FEDP reduction depth.
        k: u32,
    },
}

impl Compare {
    /// Corpus-header spelling (`exact`, `f16:K`, `f32:K`).
    pub fn qualifier(self) -> String {
        match self {
            Compare::Exact => "exact".into(),
            Compare::F16Tol { k } => format!("f16:{k}"),
            Compare::F32Tol { k } => format!("f32:{k}"),
        }
    }

    /// Parses the corpus-header spelling.
    pub fn from_qualifier(s: &str) -> Option<Compare> {
        if s == "exact" {
            return Some(Compare::Exact);
        }
        let (ty, k) = s.split_once(':')?;
        let k: u32 = k.parse().ok()?;
        match ty {
            "f16" => Some(Compare::F16Tol { k }),
            "f32" => Some(Compare::F32Tol { k }),
            _ => None,
        }
    }
}

/// One fully specified differential test case: a kernel plus everything
/// needed to run and compare it deterministically.
#[derive(Clone, Debug)]
pub struct Case {
    /// Kernel to run (already assembled).
    pub kernel: Kernel,
    /// Target architecture.
    pub arch: Arch,
    /// Grid width in CTAs.
    pub grid_x: u32,
    /// CTA width in threads.
    pub block_x: u32,
    /// Input-buffer size in words.
    pub in_words: u32,
    /// Output-buffer size in words.
    pub out_words: u32,
    /// Input data pattern.
    pub data: DataKind,
    /// Seed for the input data stream.
    pub data_seed: u64,
    /// Output comparison mode.
    pub compare: Compare,
}

fn count_mmas(ops: &[GenOp]) -> u32 {
    ops.iter()
        .map(|op| match op {
            GenOp::WMma { .. } => 1,
            GenOp::If { body, .. } | GenOp::Loop { body, .. } => count_mmas(body),
            _ => 0,
        })
        .sum()
}

impl Case {
    /// Assembles a generated program into a runnable case.
    pub fn from_program(p: &GenProgram, data_seed: u64) -> Case {
        let (data, compare) = match p.wmma {
            None => (DataKind::Raw, Compare::Exact),
            Some(m) if m.integer() => (DataKind::I8, Compare::Exact),
            Some(m) => {
                let k = m.shape.k() as u32 * count_mmas(&p.body).max(1);
                let cmp = if m.d == WmmaType::F16 {
                    Compare::F16Tol { k }
                } else {
                    Compare::F32Tol { k }
                };
                let data = match m.ab {
                    WmmaType::BF16 => DataKind::Bf16,
                    WmmaType::TF32 => DataKind::F32,
                    _ => DataKind::F16,
                };
                (data, cmp)
            }
        };
        Case {
            kernel: assemble(p),
            arch: p.arch,
            grid_x: p.grid_x,
            block_x: p.block_x,
            in_words: p.in_words(),
            out_words: p.out_words(),
            data,
            data_seed,
            compare,
        }
    }

    /// The deterministic input-buffer contents for this case.
    pub fn input_bytes(&self) -> Vec<u8> {
        input_bytes(self.data, self.data_seed, self.in_words)
    }
}

/// The deterministic input stream shared by every consumer of the case
/// format: `words × 4` bytes of `kind`-patterned data drawn from a
/// [`XorShift64Star`] seeded with `seed`. Standalone so other layers
/// (e.g. the `tcsim-serve` job runner) can materialize byte-identical
/// buffers without constructing a full [`Case`].
pub fn input_bytes(kind: DataKind, seed: u64, words: u32) -> Vec<u8> {
    let mut rng = XorShift64Star::new(seed);
    let mut bytes = Vec::with_capacity(words as usize * 4);
    match kind {
        DataKind::Raw => {
            for _ in 0..words {
                bytes.extend_from_slice(&rng.next_u32().to_le_bytes());
            }
        }
        DataKind::F16 => {
            for _ in 0..words * 2 {
                let v = (rng.next_f64() * 4.0 - 2.0) as f32;
                bytes.extend_from_slice(&F16::from_f32(v).to_bits().to_le_bytes());
            }
        }
        DataKind::Bf16 => {
            for _ in 0..words * 2 {
                let v = (rng.next_f64() * 4.0 - 2.0) as f32;
                bytes.extend_from_slice(&Bf16::from_f32(v).to_bits().to_le_bytes());
            }
        }
        DataKind::F32 => {
            for _ in 0..words {
                let v = (rng.next_f64() * 4.0 - 2.0) as f32;
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        DataKind::I8 => {
            for _ in 0..words * 4 {
                bytes.push(rng.below(256) as u8);
            }
        }
    }
    bytes
}

/// The down-scaled GPU model used for differential runs.
pub fn gpu_config(arch: Arch) -> GpuConfig {
    match arch {
        Arch::Volta => GpuConfig::mini(),
        Arch::Turing => {
            let mut cfg = GpuConfig::mini();
            cfg.name = "mini-turing";
            cfg.sm = SmConfig::turing();
            cfg
        }
        Arch::Ampere => {
            let mut cfg = GpuConfig::mini();
            cfg.name = "mini-ampere";
            cfg.sm = SmConfig::ampere();
            cfg
        }
    }
}

/// A planted bug for validating the oracle end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: reference matches the device model.
    None,
    /// Flip the per-FEDP f16 rounding in the accumulate chain from
    /// round-to-nearest-even to round-toward-zero (truncation) — the
    /// classic "chopped accumulator" bug of §V's conformance discussion.
    FedpChopF16,
    /// Truncate the BF16 `mma.sync` accumulator to BF16 precision after
    /// every FEDP group instead of keeping it in full f32 — the analogue
    /// of an implementation that narrows the accumulator to the
    /// multiplicand width.
    Bf16ChopMantissa,
    /// Swap the two kept-index fields of every 2:4 sparsity metadata
    /// nibble before expansion, relocating both surviving A values within
    /// their 4-wide group.
    SparseMetaSwap,
}

impl Mutation {
    /// Every planted oracle mutation (excluding [`Mutation::None`]), in
    /// canonical order.
    pub const PLANTED: [Mutation; 3] = [
        Mutation::FedpChopF16,
        Mutation::Bf16ChopMantissa,
        Mutation::SparseMetaSwap,
    ];

    /// Command-line spelling (`--mutate <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::FedpChopF16 => "fedp-chop-f16",
            Mutation::Bf16ChopMantissa => "bf16-chop-mantissa",
            Mutation::SparseMetaSwap => "sparse-meta-swap",
        }
    }

    /// Parses the command-line spelling of a planted mutation.
    pub fn from_name(s: &str) -> Option<Mutation> {
        Mutation::PLANTED.into_iter().find(|m| m.name() == s)
    }

    /// The generator restriction under which this mutation is observable
    /// on every generated case.
    pub fn kind(self) -> KindSel {
        match self {
            Mutation::None => KindSel::Auto,
            Mutation::FedpChopF16 => KindSel::WmmaF16Acc,
            Mutation::Bf16ChopMantissa => KindSel::WmmaBf16,
            Mutation::SparseMetaSwap => KindSel::WmmaSparse,
        }
    }
}

/// f32 → f16 with round-toward-zero (truncation).
fn f16_chop(x: f32) -> F16 {
    if x.is_nan() {
        return F16::from_f32(x);
    }
    let rn = F16::from_f32(x);
    let back = rn.to_f32();
    if back.abs() > x.abs() {
        // Rounded away from zero: step one ulp back toward zero. The
        // magnitude lives in the low 15 bits, so decrementing the raw
        // encoding moves toward zero for either sign (and maps +inf to
        // the largest finite value).
        F16::from_bits(rn.to_bits().wrapping_sub(1))
    } else {
        rn
    }
}

/// `mma_reference` with the chopped per-FEDP f16 rounding.
fn mma_reference_chopped(a: &Tile, b: &Tile, c: &Tile) -> Tile {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    let mut d = Tile::new(WmmaType::F16, m, n);
    for r in 0..m {
        for col in 0..n {
            let av: Vec<F16> = (0..k).map(|i| a.get_f16(r, i)).collect();
            let bv: Vec<F16> = (0..k).map(|i| b.get_f16(i, col)).collect();
            let mut acc = c.value(r, col) as f32;
            for (qa, qb) in av.chunks_exact(4).zip(bv.chunks_exact(4)) {
                acc = tcsim_core::fedp_f32(
                    [qa[0], qa[1], qa[2], qa[3]],
                    [qb[0], qb[1], qb[2], qb[3]],
                    acc,
                );
                acc = f16_chop(acc).to_f32();
            }
            d.set_f16(r, col, F16::from_f32(acc));
        }
    }
    d
}

/// `mma_reference` for BF16 `mma.sync` with the accumulator truncated to
/// BF16 precision after every FEDP group (the [`Mutation::Bf16ChopMantissa`]
/// defect). The unmutated path keeps the f32 accumulator intact between
/// groups, so the chop's ~half-ulp-of-bf16 bias is far outside
/// `gemm_tolerance`.
fn mma_reference_chopped_bf16(a: &Tile, b: &Tile, c: &Tile) -> Tile {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    let mut d = Tile::new(WmmaType::F32, m, n);
    for r in 0..m {
        for col in 0..n {
            let av: Vec<f32> = (0..k).map(|i| a.widen_f32(r, i)).collect();
            let bv: Vec<f32> = (0..k).map(|i| b.widen_f32(i, col)).collect();
            let mut acc = c.value(r, col) as f32;
            for (qa, qb) in av.chunks_exact(4).zip(bv.chunks_exact(4)) {
                acc = fedp_f32_pre(qa, qb, acc);
                acc = chop_to_bf16(acc);
            }
            d.set_f32(r, col, acc);
        }
    }
    d
}

/// A [`WmmaHandler`] that wraps the real tensor-core model but applies a
/// [`Mutation`] to `wmma.mma` / `mma.sync` — used on the *reference* side
/// so the device result stays canonical.
pub struct MutantWmma {
    inner: TensorCoreModel,
    volta: bool,
    mutation: Mutation,
}

impl MutantWmma {
    /// Wraps the model for `arch` with `mutation`.
    pub fn new(arch: Arch, mutation: Mutation) -> MutantWmma {
        let inner = match arch {
            Arch::Volta => TensorCoreModel::volta(),
            Arch::Turing => TensorCoreModel::turing(),
            Arch::Ampere => TensorCoreModel::ampere(),
        };
        MutantWmma {
            inner,
            volta: arch == Arch::Volta,
            mutation,
        }
    }
}

impl WmmaHandler for MutantWmma {
    fn wmma_load(
        &self,
        dir: &WmmaDirective,
        dst: Reg,
        base: u64,
        stride: usize,
        mem: &dyn ByteMemory,
        regs: &mut WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        self.inner
            .wmma_load(dir, dst, base, stride, mem, regs, accesses)
    }

    fn wmma_mma(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        regs: &mut WarpRegFile,
    ) {
        let WmmaDirective::Mma {
            shape,
            a_layout,
            b_layout,
            ab_type,
            d_type,
            c_type,
        } = *dir
        else {
            panic!("wmma_mma requires an Mma directive")
        };
        let chop = self.mutation == Mutation::FedpChopF16
            && ab_type == WmmaType::F16
            && d_type == WmmaType::F16;
        if !chop {
            return self.inner.wmma_mma(dir, d, a, b, c, regs);
        }
        let volta = self.volta;
        let amap = FragmentMap::for_arch(volta, FragmentKind::A, shape, ab_type, a_layout);
        let bmap = FragmentMap::for_arch(volta, FragmentKind::B, shape, ab_type, b_layout);
        let cmap = FragmentMap::for_arch(volta, FragmentKind::C, shape, c_type, Layout::Row);
        let dmap = FragmentMap::for_arch(volta, FragmentKind::D, shape, d_type, Layout::Row);
        let at = gather_tile(&amap, a, regs);
        let bt = gather_tile(&bmap, b, regs);
        let ct = gather_tile(&cmap, c, regs);
        let dt = mma_reference_chopped(&at, &bt, &ct);
        scatter_tile(&dmap, d, &dt, regs);
    }

    fn mma_sync(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        meta: Option<Reg>,
        regs: &mut WarpRegFile,
    ) {
        let WmmaDirective::MmaSync {
            shape,
            ab_type,
            c_type,
            d_type,
            sparse,
        } = *dir
        else {
            panic!("mma_sync requires an MmaSync directive")
        };
        let chop_f16 = self.mutation == Mutation::FedpChopF16
            && ab_type == WmmaType::F16
            && d_type == WmmaType::F16;
        let chop_bf16 = self.mutation == Mutation::Bf16ChopMantissa && ab_type == WmmaType::BF16;
        let meta_swap = self.mutation == Mutation::SparseMetaSwap && sparse;
        if !chop_f16 && !chop_bf16 && !meta_swap {
            return self.inner.mma_sync(dir, d, a, b, c, meta, regs);
        }
        // Mirror the canonical model's fixed mma.sync operand layouts.
        let a_shape = mma_sync_a_shape(shape, sparse);
        let amap = FragmentMap::for_arch(false, FragmentKind::A, a_shape, ab_type, Layout::Row);
        let bmap = FragmentMap::for_arch(false, FragmentKind::B, shape, ab_type, Layout::Col);
        let cmap = FragmentMap::for_arch(false, FragmentKind::C, shape, c_type, Layout::Row);
        let dmap = FragmentMap::for_arch(false, FragmentKind::D, shape, d_type, Layout::Row);
        let at = gather_tile(&amap, a, regs);
        let bt = gather_tile(&bmap, b, regs);
        let ct = gather_tile(&cmap, c, regs);
        let at = if sparse {
            let mreg = meta.expect("sparse mma.sync requires a metadata register");
            let mut row_meta = read_sparse_meta(regs, mreg);
            if meta_swap {
                for m in &mut row_meta {
                    *m = swap_sparse_meta(*m);
                }
            }
            expand_sparse_a(&at, &row_meta)
        } else {
            at
        };
        let dt = if chop_f16 {
            mma_reference_chopped(&at, &bt, &ct)
        } else if chop_bf16 {
            mma_reference_chopped_bf16(&at, &bt, &ct)
        } else {
            mma_reference(&at, &bt, &ct, d_type)
        };
        scatter_tile(&dmap, d, &dt, regs);
    }

    fn wmma_store(
        &self,
        dir: &WmmaDirective,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        self.inner
            .wmma_store(dir, src, base, stride, mem, regs, accesses)
    }

    fn tile_accesses(
        &self,
        dir: &WmmaDirective,
        tile: &TileFootprint,
        accesses: &mut Vec<MemAccess>,
    ) {
        self.inner.tile_accesses(dir, tile, accesses)
    }
}

/// Why a differential run failed.
#[derive(Clone, Debug)]
pub enum CheckFail {
    /// The two sides disagree.
    Mismatch(Mismatch),
    /// The reference interpreter exhausted its step budget (kernel hang).
    RefBudget {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// All live warps are blocked but none is at a barrier.
    RefDeadlock,
}

impl std::fmt::Display for CheckFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckFail::Mismatch(m) => write!(f, "{m}"),
            CheckFail::RefBudget { steps } => {
                write!(f, "reference interpreter exceeded {steps} steps (hang?)")
            }
            CheckFail::RefDeadlock => write!(f, "reference interpreter deadlocked"),
        }
    }
}

/// First diverging element between the device and reference outputs.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Byte offset into the output buffer.
    pub byte_offset: usize,
    /// Device-side element bits.
    pub gpu_bits: u32,
    /// Reference-side element bits.
    pub ref_bits: u32,
    /// Decoded values (for float compares) and the tolerance applied.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "output mismatch at byte {}: gpu=0x{:08x} ref=0x{:08x} ({})",
            self.byte_offset, self.gpu_bits, self.ref_bits, self.detail
        )
    }
}

/// Artifacts of a passing differential run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Kernel name.
    pub name: String,
    /// Device-side launch statistics (including the trace summary).
    pub stats: LaunchStats,
}

/// Runs `case` on the device model, traced into a default-sized ring,
/// returning the launch stats and the output buffer.
pub fn run_gpu(case: &Case) -> (LaunchStats, Vec<u8>) {
    let mut gpu = Gpu::new(SimOptions::new(gpu_config(case.arch)).tracer(RingTracer::new()));
    launch_case(&mut gpu, case)
}

/// Launches `case` on `gpu` with whatever tracer it holds: the input and
/// output buffers are its first two allocations, and the kernel takes
/// their addresses as its two parameters.
pub fn launch_case(gpu: &mut Gpu, case: &Case) -> (LaunchStats, Vec<u8>) {
    let in_addr = gpu.alloc(u64::from(case.in_words) * 4);
    let out_addr = gpu.alloc(u64::from(case.out_words) * 4);
    gpu.memcpy_h2d(in_addr, &case.input_bytes());
    let stats = LaunchBuilder::new(case.kernel.clone())
        .grid(case.grid_x)
        .block(case.block_x)
        .param_u64(in_addr)
        .param_u64(out_addr)
        .launch(gpu);
    let out = gpu.memcpy_d2h(out_addr, case.out_words as usize * 4);
    (stats, out)
}

/// Runs `case` on the host reference interpreter (serial CTAs, round-robin
/// warps, barriers released when every live warp has arrived), with
/// `mutation` applied to the tensor-core semantics.
pub fn run_reference(case: &Case, mutation: Mutation) -> Result<Vec<u8>, CheckFail> {
    // Mirror the device address map so pointer parameters are identical.
    let in_addr = 0x1_0000u64;
    let out_addr = {
        let base = in_addr + u64::from(case.in_words) * 4;
        base.div_ceil(256) * 256
    };
    let mut global = VecMemory::new();
    for (i, byte) in case.input_bytes().iter().enumerate() {
        global.write_u8(in_addr + i as u64, *byte);
    }
    let mut params = Vec::with_capacity(16);
    params.extend_from_slice(&in_addr.to_le_bytes());
    params.extend_from_slice(&out_addr.to_le_bytes());

    let wmma = MutantWmma::new(case.arch, mutation);
    let kernel = &case.kernel;
    let warps_per_cta = (case.block_x as usize).div_ceil(32);
    let mut steps = 0u64;
    for cta in 0..case.grid_x {
        let mut shared = VecMemory::new();
        let mut warps: Vec<WarpExec> = (0..warps_per_cta)
            .map(|w| WarpExec::new(kernel.num_regs(), w as u32, u32::MAX))
            .collect();
        let mut done = vec![false; warps_per_cta];
        let mut waiting = vec![false; warps_per_cta];
        let mut env = ExecEnv {
            global: &mut global,
            shared: &mut shared,
            params: &params,
            block: Dim3::x(case.block_x),
            grid: Dim3::x(case.grid_x),
            cta: Dim3::new(cta, 0, 0),
            clock: 0,
        };
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for w in 0..warps_per_cta {
                if done[w] {
                    continue;
                }
                all_done = false;
                if waiting[w] {
                    continue;
                }
                let out = step(&mut warps[w], kernel, &mut env, &wmma);
                env.clock += 1;
                steps += 1;
                if steps > REF_STEP_BUDGET {
                    return Err(CheckFail::RefBudget { steps });
                }
                match out.action {
                    StepAction::Continue => {}
                    StepAction::Barrier => waiting[w] = true,
                    StepAction::Exited => done[w] = true,
                }
                progressed = true;
            }
            if all_done {
                break;
            }
            if !progressed {
                // Every live warp is parked at the barrier: release them.
                if waiting.iter().zip(&done).any(|(wt, dn)| *wt && !*dn) {
                    for wt in waiting.iter_mut() {
                        *wt = false;
                    }
                } else {
                    return Err(CheckFail::RefDeadlock);
                }
            }
        }
    }
    let len = case.out_words as usize * 4;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        out.push(global.read_u8(out_addr + i as u64));
    }
    Ok(out)
}

/// Compares device and reference output buffers under the case's mode.
pub fn compare_outputs(case: &Case, gpu: &[u8], reference: &[u8]) -> Result<(), Mismatch> {
    assert_eq!(gpu.len(), reference.len(), "output length mismatch");
    match case.compare {
        Compare::Exact => {
            for (i, (g, r)) in gpu.chunks(4).zip(reference.chunks(4)).enumerate() {
                if g != r {
                    let gb = u32::from_le_bytes(g.try_into().unwrap_or([0; 4]));
                    let rb = u32::from_le_bytes(r.try_into().unwrap_or([0; 4]));
                    return Err(Mismatch {
                        byte_offset: i * 4,
                        gpu_bits: gb,
                        ref_bits: rb,
                        detail: "exact compare".into(),
                    });
                }
            }
            Ok(())
        }
        Compare::F16Tol { k } => {
            let tol = gemm_tolerance(k as usize);
            for (i, (g, r)) in gpu.chunks(2).zip(reference.chunks(2)).enumerate() {
                if g == r {
                    continue;
                }
                let gb = u16::from_le_bytes(g.try_into().unwrap_or([0; 2]));
                let rb = u16::from_le_bytes(r.try_into().unwrap_or([0; 2]));
                let gv = F16::from_bits(gb).to_f32();
                let rv = F16::from_bits(rb).to_f32();
                if gv.is_nan() || rv.is_nan() || (gv - rv).abs() > tol {
                    return Err(Mismatch {
                        byte_offset: i * 2,
                        gpu_bits: u32::from(gb),
                        ref_bits: u32::from(rb),
                        detail: format!("f16 {gv} vs {rv}, tol {tol} (k={k})"),
                    });
                }
            }
            Ok(())
        }
        Compare::F32Tol { k } => {
            let tol = gemm_tolerance(k as usize);
            for (i, (g, r)) in gpu.chunks(4).zip(reference.chunks(4)).enumerate() {
                if g == r {
                    continue;
                }
                let gb = u32::from_le_bytes(g.try_into().unwrap_or([0; 4]));
                let rb = u32::from_le_bytes(r.try_into().unwrap_or([0; 4]));
                let gv = f32::from_bits(gb);
                let rv = f32::from_bits(rb);
                if gv.is_nan() || rv.is_nan() || (gv - rv).abs() > tol {
                    return Err(Mismatch {
                        byte_offset: i * 4,
                        gpu_bits: gb,
                        ref_bits: rb,
                        detail: format!("f32 {gv} vs {rv}, tol {tol} (k={k})"),
                    });
                }
            }
            Ok(())
        }
    }
}

/// The full differential check: device run, reference run, compare.
///
/// `mutation` is applied to the reference side only, so a planted bug
/// shows up as a [`CheckFail::Mismatch`] exactly like a real divergence
/// would.
pub fn diff_run(case: &Case, mutation: Mutation) -> Result<DiffReport, CheckFail> {
    let (stats, gpu_out) = run_gpu(case);
    let ref_out = run_reference(case, mutation)?;
    compare_outputs(case, &gpu_out, &ref_out).map_err(CheckFail::Mismatch)?;
    Ok(DiffReport {
        name: case.kernel.name().to_string(),
        stats,
    })
}

/// `true` if the kernel contains any WMMA instruction (used by invariant
/// checks to decide whether tensor-pipe counters must be non-zero).
pub fn has_wmma(kernel: &Kernel) -> bool {
    kernel.instrs().iter().any(|i| matches!(i.op, Op::Wmma(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_chop_truncates_toward_zero() {
        for (x, expect_le) in [(1.0005f32, 1.0f32), (-1.0005, -1.0)] {
            let c = f16_chop(x).to_f32();
            assert!(c.abs() <= x.abs(), "chop({x}) = {c} grew in magnitude");
            let rn = F16::from_f32(x).to_f32();
            // For these inputs RN rounds away from zero, chop must not.
            assert_ne!(c, rn, "chop({x}) should differ from RN");
            assert_eq!(c, expect_le);
        }
        // Exactly representable values are untouched.
        assert_eq!(f16_chop(1.5).to_bits(), F16::from_f32(1.5).to_bits());
        // Overflow chops to the largest finite value, not infinity.
        assert!(f16_chop(70000.0).to_f32().is_finite());
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in Mutation::PLANTED {
            assert_eq!(Mutation::from_name(m.name()), Some(m));
        }
        // `None` is not a plantable name, nor is garbage.
        assert_eq!(Mutation::from_name("none"), None);
        assert_eq!(Mutation::from_name("no-such-bug"), None);
    }

    #[test]
    fn planted_mutations_flip_clean_cases_to_mismatches() {
        use crate::gen::{generate, GenConfig};
        for m in Mutation::PLANTED {
            let cfg = GenConfig {
                max_ops: 16,
                kind: m.kind(),
                arch: None,
            };
            let mut detected = 0;
            for seed in 0..4u64 {
                let p = generate(seed, &cfg);
                let case = Case::from_program(&p, seed ^ 0xABCD);
                diff_run(&case, Mutation::None)
                    .unwrap_or_else(|e| panic!("{m:?} seed {seed}: clean run failed: {e:?}"));
                if matches!(diff_run(&case, m), Err(CheckFail::Mismatch(_))) {
                    detected += 1;
                }
            }
            assert!(
                detected >= 3,
                "{m:?}: only {detected}/4 seeds caught the plant"
            );
        }
    }

    #[test]
    fn compare_accepts_identical_bits_even_nan() {
        let case_cmp = Compare::F16Tol { k: 16 };
        let case = Case {
            kernel: {
                let mut b = tcsim_isa::KernelBuilder::new("t");
                b.exit();
                b.build()
            },
            arch: Arch::Volta,
            grid_x: 1,
            block_x: 32,
            in_words: 4,
            out_words: 1,
            data: DataKind::Raw,
            data_seed: 0,
            compare: case_cmp,
        };
        // 0x7e00 is an f16 NaN; identical on both sides → accepted.
        let nan = 0x7e00u16.to_le_bytes();
        let buf = [nan[0], nan[1], nan[0], nan[1]];
        assert!(compare_outputs(&case, &buf, &buf).is_ok());
        // Differing NaN vs number → rejected.
        let other = [0u8, 0x3c, nan[0], nan[1]];
        assert!(compare_outputs(&case, &buf, &other).is_err());
    }
}
