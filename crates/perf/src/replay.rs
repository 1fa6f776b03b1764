//! Functional-only replay: the benchmark's own driver over the public
//! execution layer (`exec::step` + `TensorCoreModel` + `DeviceMemory` /
//! `SharedMemory`) with every step timed, and the memory layer's public
//! entry points (`coalesce`, `L1Path::access`, `MemSystem::access`) fed
//! the global accesses those steps produce.
//!
//! CTAs run serially and warps round-robin with barriers released when
//! every live warp has arrived (the schedule of
//! `tcsim_check::oracle::run_reference`). That is not the launch's
//! schedule, so the cache probes here price the *calls*, not the
//! launch's hit rates: the replay is a cost probe. What it must share
//! with the launch is the instruction stream, which the caller checks by
//! comparing [`Replay::steps`] with the launch's instruction count and
//! the output buffer with the reference.

use crate::case::LaunchCase;
use std::time::Instant;
use tcsim_core::TensorCoreModel;
use tcsim_isa::exec::{step, ExecEnv, StepAction, WarpExec, FULL_MASK};
use tcsim_isa::{Dim3, MemSpace, Op, WmmaDirective};
use tcsim_mem::{coalesce, DeviceMemory, L1Path, MemSystem, SharedMemory};
use tcsim_sim::GpuConfig;
use tcsim_trace::NullTracer;

/// Time and count of one class of timed calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Calls made.
    pub count: u64,
    /// Wall time inside them, timer overhead removed.
    pub seconds: f64,
}

impl Cost {
    /// Nanoseconds per call (0 when there were none).
    pub fn ns_per(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.count as f64
        }
    }
}

/// What one replay measured.
#[derive(Default)]
pub struct Replay {
    /// Warp instructions executed (must equal the launch's count).
    pub steps: u64,
    /// Steps that were not `wmma.*` / `mma.sync`.
    pub simt: Cost,
    /// `wmma.load` steps.
    pub wmma_load: Cost,
    /// `wmma.mma` / `mma.sync` steps.
    pub wmma_mma: Cost,
    /// `wmma.store` steps.
    pub wmma_store: Cost,
    /// `coalesce` calls, one per global-memory instruction.
    pub coalesce: Cost,
    /// `L1Path::access` calls (each includes the `MemSystem::access` its
    /// miss or write-through makes), one per transaction.
    pub l1: Cost,
    /// `MemSystem::access` calls on a second, L1-less memory system fed
    /// the same transactions.
    pub sys: Cost,
}

impl Replay {
    /// Total time in `exec::step`.
    pub fn exec_s(&self) -> f64 {
        self.simt.seconds + self.wmma_load.seconds + self.wmma_mma.seconds + self.wmma_store.seconds
    }

    /// Total time in the memory-timing calls a launch makes (`coalesce`
    /// plus `L1Path::access` with its nested system accesses).
    pub fn mem_s(&self) -> f64 {
        self.coalesce.seconds + self.l1.seconds
    }

    /// Multiplies every time by `factor` (calibration scaling).
    pub fn scale(&mut self, factor: f64) {
        for c in [
            &mut self.simt,
            &mut self.wmma_load,
            &mut self.wmma_mma,
            &mut self.wmma_store,
            &mut self.coalesce,
            &mut self.l1,
            &mut self.sys,
        ] {
            c.seconds *= factor;
        }
    }

    /// Adds another replay's figures to this one.
    pub fn merge(&mut self, o: &Replay) {
        self.steps += o.steps;
        for (a, b) in [
            (&mut self.simt, &o.simt),
            (&mut self.wmma_load, &o.wmma_load),
            (&mut self.wmma_mma, &o.wmma_mma),
            (&mut self.wmma_store, &o.wmma_store),
            (&mut self.coalesce, &o.coalesce),
            (&mut self.l1, &o.l1),
            (&mut self.sys, &o.sys),
        ] {
            a.count += b.count;
            a.seconds += b.seconds;
        }
    }
}

/// Cost of one `Instant::now()` pair, measured once per process so it can
/// be taken out of per-step timings a few tens of nanoseconds long.
pub fn timer_overhead_s() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        acc += a.elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() / f64::from(N)
}

fn live_mask(threads: u64, warp: u64) -> u32 {
    let lanes = threads.saturating_sub(32 * warp).min(32);
    if lanes == 32 {
        FULL_MASK
    } else {
        (1u32 << lanes) - 1
    }
}

/// Replays `case` on `cfg`'s execution and memory layers. Returns the
/// measurements, the device memory after the run and the buffer
/// addresses, so the caller can check the output.
pub fn replay(
    case: &LaunchCase,
    cfg: &GpuConfig,
    overhead_s: f64,
) -> (Replay, DeviceMemory, Vec<u64>) {
    let mut global = DeviceMemory::new();
    let addrs = case.upload(&mut global);
    let (kernel, launch, params) = case.builder(&addrs).into_parts();
    let tensor = if cfg.sm.volta_tensor {
        TensorCoreModel::volta()
    } else {
        TensorCoreModel::turing()
    };
    let mut l1s: Vec<L1Path> = (0..cfg.num_sms)
        .map(|_| L1Path::new(cfg.sm.l1_kib))
        .collect();
    let mut sys = MemSystem::new(cfg.mem);
    let mut bare_sys = MemSystem::new(cfg.mem);
    let mut tracer = NullTracer;

    let threads = launch.block.count();
    let warps_per_cta = threads.div_ceil(32) as usize;
    let shared_bytes = kernel.shared_bytes() + launch.shared_bytes;
    let mut r = Replay::default();
    let mut clock = 0u64;

    for cta_flat in 0..launch.grid.count() {
        let cta: Dim3 = launch.grid.delinearize(cta_flat);
        let sm = (cta_flat % cfg.num_sms as u64) as usize;
        let mut shared = SharedMemory::new(shared_bytes);
        let mut warps: Vec<WarpExec> = (0..warps_per_cta)
            .map(|w| WarpExec::new(kernel.num_regs(), w as u32, live_mask(threads, w as u64)))
            .collect();
        let mut done = vec![false; warps_per_cta];
        let mut waiting = vec![false; warps_per_cta];
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
                let class = match &kernel.instrs()[warps[w].pc].op {
                    Op::Wmma(WmmaDirective::Load { .. }) => &mut r.wmma_load,
                    Op::Wmma(WmmaDirective::Store { .. }) => &mut r.wmma_store,
                    Op::Wmma(_) => &mut r.wmma_mma,
                    _ => &mut r.simt,
                };
                let mut env = ExecEnv {
                    global: &mut global,
                    shared: &mut shared,
                    params: &params,
                    block: launch.block,
                    grid: launch.grid,
                    cta,
                    clock,
                };
                let t0 = Instant::now();
                let out = step(&mut warps[w], &kernel, &mut env, &tensor);
                class.seconds += t0.elapsed().as_secs_f64() - overhead_s;
                class.count += 1;
                r.steps += 1;
                clock += 1;
                progressed = true;
                match out.action {
                    StepAction::Continue => {}
                    StepAction::Barrier => waiting[w] = true,
                    StepAction::Exited => done[w] = true,
                }
                let Some(trace) = out.mem else { continue };
                if !matches!(trace.space, MemSpace::Global | MemSpace::Local) {
                    continue;
                }
                let t0 = Instant::now();
                let txns = coalesce(&trace.accesses);
                r.coalesce.seconds += t0.elapsed().as_secs_f64() - overhead_s;
                r.coalesce.count += 1;

                let t0 = Instant::now();
                for t in &txns {
                    l1s[sm].access(t, trace.is_store, clock, &mut sys, sm as u16, &mut tracer);
                }
                r.l1.seconds += t0.elapsed().as_secs_f64() - overhead_s;
                r.l1.count += txns.len() as u64;

                let t0 = Instant::now();
                for t in &txns {
                    bare_sys.access(t.addr, trace.is_store, clock, sm as u16, &mut tracer);
                }
                r.sys.seconds += t0.elapsed().as_secs_f64() - overhead_s;
                r.sys.count += txns.len() as u64;
            }
            if all_done {
                break;
            }
            if !progressed {
                assert!(
                    waiting.iter().zip(&done).any(|(wt, dn)| *wt && !*dn),
                    "{}: replay deadlocked outside a barrier",
                    case.label
                );
                waiting.iter_mut().for_each(|wt| *wt = false);
            }
        }
    }
    (r, global, addrs)
}
