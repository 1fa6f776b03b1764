//! The four simulation workloads: what one pass launches, and the output
//! checks made while setting it up.
//!
//! A pass is a list of [`Unit`]s; a unit is what gets one calibration
//! sample on either side — a single launch for the GEMM and chase
//! workloads, one model's `run_chained` inference for `nn_zoo`. Every unit starts from a
//! fresh `Gpu`, as a user's job does, so GPU construction, operand
//! upload and the launch itself are all inside the timed region.

use crate::case::{chase_case, gemm_case, ChaseCase, LaunchCase, GEMM_SEEDS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use tcsim_check::rng::XorShift64Star;
use tcsim_cutlass::{
    reference_gemm, run_gemm, verify, CutlassConfig, GemmKernel, GemmPrecision, GemmProblem,
};
use tcsim_hw::{HwModel, KernelClass};
use tcsim_isa::ByteMemory;
use tcsim_mem::DeviceMemory;
use tcsim_nn::{models, run_chained, Graph, Tensor};
use tcsim_sim::{Gpu, GpuConfig, LaunchStats, SimOptions};
use tcsim_trace::RingTracer;

/// What one unit produced.
pub struct Outcome {
    /// Simulated warp instructions.
    pub instr: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Kernel launches made.
    pub launches: u64,
    /// Deterministic rendering of every simulated statistic
    /// (`LaunchStats::to_json` / `InferenceReport::to_json`): must be
    /// identical on every pass.
    pub identity: String,
    /// Full statistics, where the API returns them (not `nn_zoo`).
    pub stats: Vec<LaunchStats>,
    /// HMMA pipe occupancy of each traced tensor launch.
    pub hmma_occupancy: Vec<f64>,
}

/// Judges a memory image after a replay, given the buffer addresses.
pub type OutputCheck = Box<dyn Fn(&DeviceMemory, &[u64]) -> bool>;

/// A launch the functional replay can drive, with its output check.
pub struct ReplaySpec {
    /// The launch.
    pub case: Rc<LaunchCase>,
    /// Whether the memory image after the replay holds the right output.
    pub output_ok: OutputCheck,
}

/// One timed unit of a pass.
pub struct Unit {
    /// Display label, also the span name.
    pub label: String,
    /// Runs the unit, traced or not, from a fresh GPU.
    pub run: Box<dyn Fn(bool) -> Outcome>,
    /// Runs the unit untraced with its output check; `None` is a failed
    /// operation.
    pub check: Box<dyn Fn() -> Option<Outcome>>,
    /// The same launch for the functional replay, where there is one.
    pub replay: Option<ReplaySpec>,
    /// Cycles the hardware surrogate predicts, for GEMM points.
    pub hw_cycles: Option<f64>,
}

/// A simulation workload ready to run.
pub struct SimWorkload {
    /// GPU configuration every unit runs on.
    pub cfg: GpuConfig,
    /// Units of one pass, in canonical order.
    pub units: Vec<Unit>,
}

/// Runs `f`, turning a panic (the library's way of reporting a failed
/// verification) into `None`.
pub fn holds<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Seeded Fisher–Yates order of `0..n`: the launch order within a pass.
pub fn shuffled(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = XorShift64Star::new(seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn outcome_of(stats: LaunchStats) -> Outcome {
    Outcome {
        instr: stats.instructions,
        cycles: stats.cycles,
        launches: 1,
        identity: stats.to_json(),
        hmma_occupancy: stats
            .trace
            .as_ref()
            .filter(|t| t.hmma_steps > 0)
            .map(|t| t.hmma_occupancy())
            .into_iter()
            .collect(),
        stats: vec![stats],
    }
}

fn fresh_gpu(cfg: &GpuConfig, traced: bool) -> Gpu {
    let opts = SimOptions::new(cfg.clone());
    Gpu::new(if traced {
        opts.tracer(RingTracer::new())
    } else {
        opts
    })
}

fn hw_class(kernel: GemmKernel) -> KernelClass {
    match kernel {
        GemmKernel::Sgemm => KernelClass::CublasFp32,
        GemmKernel::Hgemm => KernelClass::CublasFp16,
        GemmKernel::WmmaShared => KernelClass::WmmaOptimized,
        GemmKernel::WmmaSimple => KernelClass::WmmaSimple,
        GemmKernel::Cutlass(_) | GemmKernel::IgemmWmma => KernelClass::CutlassTc,
    }
}

fn f32s(bytes: &[u8], fp16: bool) -> Vec<f32> {
    if fp16 {
        bytes
            .chunks_exact(2)
            .map(|b| tcsim_f16::F16::from_bits(u16::from_le_bytes([b[0], b[1]])).to_f32())
            .collect()
    } else {
        bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect()
    }
}

fn gemm_unit(
    cfg: &GpuConfig,
    label: &str,
    kernel: GemmKernel,
    precision: GemmPrecision,
    size: usize,
) -> Unit {
    let problem = GemmProblem {
        precision,
        ..GemmProblem::square(size)
    };
    let run_cfg = cfg.clone();
    let check_cfg = cfg.clone();
    let case = Rc::new(gemm_case(label, problem, kernel));
    let fp16_out = precision == GemmPrecision::Fp16;
    Unit {
        label: label.to_string(),
        run: Box::new(move |traced| {
            let mut gpu = fresh_gpu(&run_cfg, traced);
            outcome_of(run_gemm(&mut gpu, problem, kernel, false).stats)
        }),
        // `run_gemm(check = true)` compares against `reference_gemm` and
        // panics beyond the tolerance.
        check: Box::new(move || {
            holds(|| {
                let mut gpu = fresh_gpu(&check_cfg, false);
                outcome_of(run_gemm(&mut gpu, problem, kernel, true).stats)
            })
        }),
        replay: Some(ReplaySpec {
            case,
            output_ok: Box::new(move |mem, addrs| {
                holds(|| {
                    let (sa, sb, sc) = GEMM_SEEDS;
                    let reference = reference_gemm(&problem, sa, sb, sc);
                    let len = problem.m * problem.n * if fp16_out { 2 } else { 4 };
                    let got = f32s(&mem.copy_to_host(addrs[3], len), fp16_out);
                    verify(&problem, &got, &reference);
                })
                .is_some()
            }),
        }),
        hw_cycles: Some(HwModel::titan_v().gemm_cycles(size, size, size, hw_class(kernel))),
    }
}

/// `simt_gemm`: FFMA SGEMM and HFMA2 HGEMM, three sizes each. SIMT-issue
/// bound: host time is `exec::step` lane loops plus the SM issue scan.
pub fn simt_gemm(smoke: bool) -> SimWorkload {
    let cfg = GpuConfig::titan_v();
    let sizes: &[usize] = if smoke { &[32] } else { &[64, 96, 128] };
    let mut units = Vec::new();
    for &s in sizes {
        units.push(gemm_unit(
            &cfg,
            &format!("SGEMM {s}"),
            GemmKernel::Sgemm,
            GemmPrecision::Fp32,
            s,
        ));
        units.push(gemm_unit(
            &cfg,
            &format!("HGEMM {s}"),
            GemmKernel::Hgemm,
            GemmPrecision::Fp16,
            s,
        ));
    }
    SimWorkload { cfg, units }
}

/// `wmma_gemm`: shared-memory WMMA, CUTLASS 64×64 and the global-operand
/// WMMA kernel. Tensor bound: fragment maps, FEDP and the HMMA pipe
/// dominate, and the global-operand leg drives the memory system with
/// wide coalesced loads and stores.
pub fn wmma_gemm(smoke: bool) -> SimWorkload {
    let cfg = GpuConfig::titan_v();
    let cutlass = GemmKernel::Cutlass(CutlassConfig::default_64x64());
    let mixed = GemmPrecision::MixedF32;
    let points: Vec<(&str, GemmKernel, usize)> = if smoke {
        vec![
            ("WMMA shared", GemmKernel::WmmaShared, 64),
            ("CUTLASS", cutlass, 64),
        ]
    } else {
        vec![
            ("WMMA shared", GemmKernel::WmmaShared, 128),
            ("WMMA shared", GemmKernel::WmmaShared, 192),
            ("CUTLASS", cutlass, 128),
            ("CUTLASS", cutlass, 192),
            ("WMMA global", GemmKernel::WmmaSimple, 128),
            ("WMMA global", GemmKernel::WmmaSimple, 192),
        ]
    };
    let units = points
        .into_iter()
        .map(|(name, kernel, size)| gemm_unit(&cfg, &format!("{name} {size}"), kernel, mixed, size))
        .collect();
    SimWorkload { cfg, units }
}

fn chase_launch(chase: &ChaseCase, cfg: &GpuConfig, traced: bool) -> (LaunchStats, Vec<u64>) {
    let mut gpu = Gpu::new(cfg.clone());
    let addrs = chase.case.upload(gpu.device_mut());
    let mut builder = chase.case.builder(&addrs);
    if traced {
        builder = builder.tracer(RingTracer::new());
    }
    let stats = builder.launch(&mut gpu);
    let ends = (0..chase.warps())
        .map(|w| gpu.device_mut().read_u64(addrs[1] + 8 * w))
        .collect();
    (stats, ends)
}

fn chase_unit(cfg: &GpuConfig, label: &str, elems: usize, iters: u32) -> Unit {
    let chase = Rc::new(chase_case(label, elems, iters));
    let (run_chase, check_chase, replay_chase) = (chase.clone(), chase.clone(), chase.clone());
    let (run_cfg, check_cfg) = (cfg.clone(), cfg.clone());
    let case = chase.case.clone();
    Unit {
        label: label.to_string(),
        run: Box::new(move |traced| outcome_of(chase_launch(&run_chase, &run_cfg, traced).0)),
        check: Box::new(move || {
            let (stats, ends) = chase_launch(&check_chase, &check_cfg, false);
            let base = DeviceMemory::new().alloc(check_chase.elems as u64 * 8);
            (ends == check_chase.expected_end_pointers(base)).then(|| outcome_of(stats))
        }),
        replay: Some(ReplaySpec {
            case,
            output_ok: Box::new(move |mem, addrs| {
                let want = replay_chase.expected_end_pointers(addrs[0]);
                (0..replay_chase.warps())
                    .all(|w| mem.read_u64(addrs[1] + 8 * w) == want[w as usize])
            }),
        }),
        hw_cycles: None,
    }
}

/// `mem_chase`: dependent single-lane load chains over rings resident in
/// L1, L2 and DRAM. The memory layer's latency path (MSHRs, DRAM queue)
/// and the event loop's wake skipping, with the tensor cores idle.
pub fn mem_chase(smoke: bool) -> SimWorkload {
    let cfg = GpuConfig::titan_v();
    let rings: &[(&str, usize, u32)] = if smoke {
        &[("chase L1 16KiB", 2 << 10, 32)]
    } else {
        &[
            ("chase L1 16KiB", 2 << 10, 160),
            ("chase L2 1MiB", 128 << 10, 160),
            ("chase DRAM 8MiB", 1 << 20, 160),
        ]
    };
    let units = rings
        .iter()
        .map(|&(label, elems, iters)| chase_unit(&cfg, label, elems, iters))
        .collect();
    SimWorkload { cfg, units }
}

fn nn_outcome(net: &Graph, input: &Tensor, cfg: &GpuConfig, traced: bool, check: bool) -> Outcome {
    let report = run_chained(net, input, cfg.clone(), traced);
    if check {
        report.assert_within_tolerance();
    }
    let launches: Vec<_> = report.layers.iter().filter(|l| l.cycles > 0).collect();
    Outcome {
        instr: launches.iter().map(|l| l.instructions).sum(),
        cycles: launches.iter().map(|l| l.cycles).sum(),
        launches: launches.len() as u64,
        identity: report.to_json(),
        stats: Vec::new(),
        hmma_occupancy: launches
            .iter()
            .filter_map(|l| l.hmma_occupancy.filter(|&o| o > 0.0))
            .collect(),
    }
}

/// The four `nn_zoo` models with weights and inputs drawn from `seed`.
pub fn nn_models(seed: u64, smoke: bool) -> Vec<(String, Graph, Tensor)> {
    let nets = if smoke {
        vec![("lenet".to_string(), models::lenet(seed))]
    } else {
        vec![
            ("lenet".to_string(), models::lenet(seed)),
            ("mlp".to_string(), models::mlp(seed)),
            ("encoder_b1".to_string(), models::encoder(seed, 1)),
            ("encoder_b4".to_string(), models::encoder(seed, 4)),
        ]
    };
    nets.into_iter()
        .map(|(name, net)| {
            let input = models::input_for(&net, seed);
            (name, net, input)
        })
        .collect()
}

/// `nn_zoo`: LeNet, an MLP and the encoder block at batch 1 and 4 through
/// `run_chained`, one unit per model. Many tiny launches: per-launch
/// fixed cost (fresh GPUs, 80-SM flush, decode, lowering, host reference
/// checks, allocation) dominates, so launch-path work moves it and
/// hot-loop work barely does.
pub fn nn_zoo(seed: u64, smoke: bool) -> SimWorkload {
    let cfg = GpuConfig::titan_v();
    let units = nn_models(seed, smoke)
        .into_iter()
        .map(|(name, net, input)| {
            let model = Rc::new((net, input));
            let (run_model, check_model) = (model.clone(), model);
            let (run_cfg, check_cfg) = (cfg.clone(), cfg.clone());
            Unit {
                label: name,
                run: Box::new(move |traced| {
                    nn_outcome(&run_model.0, &run_model.1, &run_cfg, traced, false)
                }),
                check: Box::new(move || {
                    holds(|| nn_outcome(&check_model.0, &check_model.1, &check_cfg, false, true))
                }),
                replay: None,
                hw_cycles: None,
            }
        })
        .collect();
    SimWorkload { cfg, units }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_different_seed_different_order() {
        assert_eq!(shuffled(8, 7, 3), shuffled(8, 7, 3));
        let mut sorted = shuffled(8, 7, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        let a: Vec<Vec<usize>> = (0..6).map(|p| shuffled(5, 1, p)).collect();
        let b: Vec<Vec<usize>> = (0..6).map(|p| shuffled(5, 2, p)).collect();
        assert_ne!(a, b, "another seed gives another launch order");
        assert!(a.windows(2).any(|w| w[0] != w[1]), "order varies by pass");
    }

    #[test]
    fn chase_end_pointers_match_a_device_run() {
        let w = mem_chase(true);
        assert!((w.units[0].check)().is_some());
    }

    #[test]
    fn panicking_checks_count_as_failures() {
        assert!(holds(|| panic!("verification failed")).is_none());
        assert_eq!(holds(|| 3), Some(3));
    }
}
