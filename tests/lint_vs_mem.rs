//! The perf lint and the simulator agree on what a memory instruction
//! costs: for every shared or global load/store whose lane addresses
//! `tcsim_verify::perf` recovers exactly, the lint's bank-conflict pass
//! count or sector count equals what `tcsim-mem` computes over the lane
//! accesses `exec::step_into` produces for warp 0 of CTA 0, at every
//! execution of that instruction that accesses memory (one that warp
//! never executes, or executes with every lane masked off, has nothing
//! to compare). The kernels are the committed corpus, a slice of
//! generated ones, the GEMM family, the tcsim-nn kernels and directed
//! shared-memory strides of every width.

use std::collections::BTreeMap;
use std::path::Path;
use tcsim_check::corpus::case_from_text;
use tcsim_check::gen::{assemble, generate, Arch, GenConfig, KindSel};
use tcsim_check::oracle::{MutantWmma, Mutation};
use tcsim_cutlass::{CutlassConfig, Epilogue, GemmKernel};
use tcsim_isa::exec::{step_into, ExecEnv, MemAccess, StepAction, WarpExec};
use tcsim_isa::{Dim3, Kernel, KernelBuilder, MemSpace, MemWidth, Operand, SpecialReg, VecMemory};
use tcsim_mem::{coalesce, conflict_passes};
use tcsim_nn::kernels::{
    add_kernel, bias_grid, bias_kernel, elems_grid, gelu_kernel, layernorm_kernel, maxpool_grid,
    maxpool_kernel, relu_kernel, softmax_kernel,
};
use tcsim_verify::perf::access_costs;
use tcsim_verify::LaunchGeometry;

/// Disagreements between the lint and the simulator, as
/// `"<kernel> @<pc>: lint <n>, sim <counts>"`.
const KNOWN_DISAGREEMENTS: &[&str] = &[];

/// One launch to compare: the kernel, its geometry and parameter buffer.
struct Launch {
    name: String,
    kernel: Kernel,
    grid: Dim3,
    block: Dim3,
    params: Vec<u8>,
    arch: Arch,
}

/// Byte address of the `i`-th buffer a launch points at: 1 MiB apart,
/// 256-byte aligned like `DeviceMemory::alloc`.
fn buffer(i: usize) -> u64 {
    0x1_0000 + (i as u64) * 0x10_0000
}

impl Launch {
    /// A kernel whose parameters are all buffer pointers.
    fn pointers(
        name: &str,
        kernel: Kernel,
        grid: impl Into<Dim3>,
        block: u32,
        arch: Arch,
    ) -> Launch {
        let params = (0..kernel.params().len())
            .flat_map(|i| buffer(i).to_le_bytes())
            .collect();
        Launch {
            name: name.to_string(),
            kernel,
            grid: grid.into(),
            block: Dim3::x(block),
            params,
            arch,
        }
    }

    /// What `tcsim-mem` charges each execution of each shared or global
    /// load/store of warp 0 in CTA 0, by pc: CTA 0 runs with every warp,
    /// round-robin, barriers released when all live warps wait.
    fn simulated_costs(&self) -> BTreeMap<usize, Vec<u32>> {
        let mut global = VecMemory::new();
        let mut shared = VecMemory::new();
        let wmma = MutantWmma::new(self.arch, Mutation::None);
        let mut env = ExecEnv {
            global: &mut global,
            shared: &mut shared,
            params: &self.params,
            block: self.block,
            grid: self.grid,
            cta: Dim3::x(0),
            clock: 0,
        };
        let threads = self.block.count() as u32;
        let warps = threads.div_ceil(32) as usize;
        let mut warp: Vec<WarpExec> = (0..warps)
            .map(|w| {
                let live = (threads - 32 * w as u32).min(32);
                let mask = if live == 32 {
                    u32::MAX
                } else {
                    (1 << live) - 1
                };
                WarpExec::new(self.kernel.num_regs(), w as u32, mask)
            })
            .collect();
        let mut done = vec![false; warps];
        let mut waiting = vec![false; warps];
        let mut accesses: Vec<MemAccess> = Vec::new();
        let mut costs: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        while !done.iter().all(|&d| d) {
            let mut progressed = false;
            for w in 0..warps {
                if done[w] || waiting[w] {
                    continue;
                }
                let info = step_into(&mut warp[w], &self.kernel, &mut env, &wmma, &mut accesses);
                env.clock += 1;
                progressed = true;
                match info.action {
                    StepAction::Continue => {}
                    StepAction::Barrier => waiting[w] = true,
                    StepAction::Exited => done[w] = true,
                }
                // An execution with every lane masked off accesses nothing.
                let Some(mem) = info.mem.filter(|_| w == 0 && !accesses.is_empty()) else {
                    continue;
                };
                let count = match mem.space {
                    MemSpace::Shared => conflict_passes(&accesses),
                    MemSpace::Global => coalesce(&accesses).len() as u32,
                    _ => continue,
                };
                costs.entry(info.pc).or_default().push(count);
            }
            if !progressed {
                waiting.iter_mut().for_each(|wt| *wt = false);
            }
        }
        costs
    }
}

fn corpus() -> Vec<Launch> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let case = case_from_text(&std::fs::read_to_string(path).unwrap()).unwrap();
            Launch::pointers(
                &path.file_name().unwrap().to_string_lossy(),
                case.kernel,
                case.grid_x,
                case.block_x,
                case.arch,
            )
        })
        .collect()
}

fn generated() -> Vec<Launch> {
    let mut launches = Vec::new();
    for kind in [KindSel::Simt, KindSel::Wmma] {
        let cfg = GenConfig {
            max_ops: 24,
            kind,
            arch: None,
        };
        for seed in 0..20u64 {
            let p = generate(seed, &cfg);
            launches.push(Launch::pointers(
                &format!("gen {kind:?} seed {seed}"),
                assemble(&p),
                p.grid_x,
                p.block_x,
                p.arch,
            ));
        }
    }
    launches
}

fn gemm_family() -> Vec<Launch> {
    [
        GemmKernel::WmmaSimple,
        GemmKernel::WmmaShared,
        GemmKernel::Cutlass(CutlassConfig::default_64x64()),
        GemmKernel::Sgemm,
        GemmKernel::Hgemm,
        GemmKernel::IgemmWmma,
    ]
    .into_iter()
    .map(|family| {
        let addrs = [buffer(0), buffer(1), buffer(2), buffer(3)];
        let (kernel, cfg, params) = family
            .builder(false, Epilogue::None, (64, 64, 64), addrs)
            .into_parts();
        Launch {
            name: kernel.name().to_string(),
            kernel,
            grid: cfg.grid,
            block: cfg.block,
            params,
            arch: match family {
                GemmKernel::IgemmWmma => Arch::Turing,
                _ => Arch::Volta,
            },
        }
    })
    .collect()
}

fn nn_kernels() -> Vec<Launch> {
    let (c, h, w, k) = (2usize, 8usize, 8usize, 2usize);
    let v = Arch::Volta;
    vec![
        Launch::pointers(
            "maxpool",
            maxpool_kernel(c, h, w, k),
            maxpool_grid(c, h, w, k),
            32,
            v,
        ),
        Launch::pointers("relu", relu_kernel(256), elems_grid(256), 32, v),
        Launch::pointers("bias", bias_kernel(16, 16, true), bias_grid(16, 16), 32, v),
        Launch::pointers("softmax", softmax_kernel(64, 0.25), 8, 32, v),
        Launch::pointers("layernorm", layernorm_kernel(64, 1e-5), 8, 32, v),
        Launch::pointers("gelu", gelu_kernel(256), elems_grid(256), 32, v),
        Launch::pointers("add", add_kernel(256), elems_grid(256), 32, v),
    ]
}

/// One warp loading shared memory at `stride` bytes per lane, `width`
/// bytes each, for every width and a mix of aligned, conflicting and
/// misaligned strides.
fn strides() -> Vec<Launch> {
    let mut launches = Vec::new();
    for (width, bytes) in [(MemWidth::B32, 4), (MemWidth::B64, 8), (MemWidth::B128, 16)] {
        for stride in [bytes, 2 * bytes, 128, 132, 136, 4] {
            let mut b = KernelBuilder::new("strided_shared");
            b.shared_alloc(32 * 136 + 16);
            let t = b.reg();
            b.mov(t, Operand::Special(SpecialReg::LaneId));
            b.imul(t, t, Operand::Imm(stride));
            let d = b.reg_block(width.regs());
            b.ld_shared(width, d, t, 0);
            b.exit();
            launches.push(Launch::pointers(
                &format!("ld.shared.b{} stride {stride}", 8 * bytes),
                b.build(),
                1u32,
                32,
                Arch::Volta,
            ));
        }
    }
    launches
}

#[test]
fn lint_access_costs_match_the_memory_system() {
    let mut compared = [0usize; 2];
    let mut disagreements = Vec::new();
    for launch in [
        corpus(),
        generated(),
        gemm_family(),
        nn_kernels(),
        strides(),
    ]
    .into_iter()
    .flatten()
    {
        let mut geom = LaunchGeometry::new(launch.grid, launch.block);
        geom.gen = launch.arch.tensor_gen();
        let sim = launch.simulated_costs();
        for cost in access_costs(&launch.kernel, &geom) {
            compared[(cost.space == MemSpace::Global) as usize] += 1;
            let counts = sim.get(&cost.pc).map(Vec::as_slice).unwrap_or(&[]);
            if counts.iter().any(|&c| c != cost.count) {
                disagreements.push(format!(
                    "{} @{}: lint {}, sim {counts:?}",
                    launch.name, cost.pc, cost.count
                ));
            }
        }
    }
    assert!(
        compared.iter().all(|&n| n > 0),
        "shared and global accesses must both be compared: {compared:?}"
    );
    assert_eq!(
        disagreements, KNOWN_DISAGREEMENTS,
        "the lint and the memory system disagree"
    );
}
