//! The full-GPU simulator: CTA scheduling across SMs, the cycle loop with
//! event skipping, and launch statistics.

use crate::config::GpuConfig;
use crate::options::SimOptions;
use crate::stats::LaunchStats;
use std::sync::Arc;
use tcsim_isa::{ByteMemory, CtaRequirements, Kernel, LaunchConfig};
use tcsim_mem::{DeviceMemory, MemSystem};
use tcsim_sm::{DecodedKernel, LaunchSpec, Sm};
use tcsim_trace::{NullTracer, TraceEvent, TraceSummary, Tracer};

/// A simulated GPU: SMs, the shared memory system, and device memory.
///
/// Kernels are launched through the typed [`crate::LaunchBuilder`] API; for
/// running many independent launches concurrently see [`crate::Sweep`].
///
/// # Example
///
/// ```
/// use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder};
/// use tcsim_isa::{KernelBuilder, Operand, SpecialReg, MemWidth};
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
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    mem_sys: MemSystem,
    device: DeviceMemory,
    profile_wmma: bool,
    tracer: Box<dyn Tracer>,
}

impl Gpu {
    /// Builds an idle GPU from a [`GpuConfig`] (all-default options) or an
    /// explicit [`SimOptions`] carrying the tracer and profiling switches.
    pub fn new(options: impl Into<SimOptions>) -> Gpu {
        let opts = options.into();
        let cfg = opts.cfg;
        let mut gpu = Gpu {
            sms: (0..cfg.num_sms)
                .map(|i| Sm::with_id(cfg.sm, i as u16))
                .collect(),
            mem_sys: MemSystem::new(cfg.mem),
            device: DeviceMemory::new(),
            profile_wmma: false,
            tracer: opts.tracer.unwrap_or_else(|| Box::new(NullTracer)),
            cfg,
        };
        if opts.profile_wmma {
            gpu.set_profile(true);
        }
        gpu
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    pub(crate) fn install_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// The currently installed tracer.
    pub fn tracer(&self) -> &dyn Tracer {
        self.tracer.as_ref()
    }

    /// Removes and returns the installed tracer, disabling tracing.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        std::mem::replace(&mut self.tracer, Box::new(NullTracer))
    }

    /// Snapshot of the recorded trace events, oldest first (empty when
    /// tracing is disabled).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.tracer.snapshot()
    }

    fn set_profile(&mut self, on: bool) {
        self.profile_wmma = on;
        for sm in &mut self.sms {
            sm.set_profile_wmma(on);
        }
    }

    /// Allocates device memory (`cudaMalloc` stand-in).
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        self.device.alloc(bytes)
    }

    /// Copies host data to device memory.
    pub fn memcpy_h2d(&mut self, addr: u64, data: &[u8]) {
        self.device.copy_from_host(addr, data);
    }

    /// Copies device memory back to the host.
    pub fn memcpy_d2h(&self, addr: u64, len: usize) -> Vec<u8> {
        self.device.copy_to_host(addr, len)
    }

    /// Reads one 32-bit device word (convenience for tests/examples).
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.device.read_u32(addr)
    }

    /// Writes one 32-bit device word.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.device.write_u32(addr, value);
    }

    /// Reads one 16-bit device word.
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.device.read_u16(addr)
    }

    /// Writes one 16-bit device word.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.device.write_u16(addr, value);
    }

    /// Direct access to device memory (workload setup).
    pub fn device_mut(&mut self) -> &mut DeviceMemory {
        &mut self.device
    }

    /// Runs one kernel to completion and returns its statistics — the
    /// engine behind [`LaunchBuilder::launch`].
    ///
    /// The launch boundary is fully cold: caches are flushed and all
    /// cycle-stamped scheduling state (SM functional-unit/MIO ready
    /// times, DRAM bus clocks) is reset, as a fresh simulation in
    /// GPGPU-Sim would be. Device memory persists. All counters in the
    /// returned [`LaunchStats`] are per-launch deltas, so repeating an
    /// identical launch on a reused GPU yields identical statistics, and
    /// a chain of dependent launches on one GPU costs what each launch
    /// costs alone.
    ///
    /// # Panics
    ///
    /// Panics if a CTA cannot ever fit on an SM (resource over-
    /// subscription) or the simulation exceeds an internal watchdog.
    pub(crate) fn run_kernel(
        &mut self,
        kernel: Kernel,
        launch: LaunchConfig,
        params: Vec<u8>,
    ) -> LaunchStats {
        let kernel = Arc::new(kernel);
        // Decode once per launch; every CTA on every SM shares the tables.
        let uops = Some(Arc::new(DecodedKernel::decode(&kernel, &self.cfg.sm)));
        let spec = LaunchSpec {
            kernel,
            params: Arc::new(params),
            launch,
            uops,
        };
        let req = spec.cta_requirements();
        assert!(
            spec.kernel.num_regs() <= 256,
            "kernel {} needs {} registers per thread (architectural limit: 256)",
            spec.kernel.name(),
            spec.kernel.num_regs()
        );
        if let Err(limiter) = self
            .cfg
            .sm
            .resources
            .admit(&CtaRequirements::default(), 0, &req)
        {
            panic!(
                "kernel {} CTA ({} warps, {} regs, {} B shared) exceeds SM resources ({limiter})",
                spec.kernel.name(),
                req.warps,
                req.registers,
                req.shared_bytes
            );
        }

        for sm in &mut self.sms {
            sm.flush_l1();
            sm.reset_clock();
        }
        self.mem_sys.flush();
        // Launch boundary for the trace too: the events (and the summary
        // in this launch's stats) cover exactly this kernel.
        self.tracer.clear_events();

        // Counter snapshots so the returned stats are per-launch deltas.
        let sm_before: Vec<tcsim_sm::SmStats> =
            self.sms.iter().map(|s| s.stats().clone()).collect();
        let l1_before = self.l1_aggregate();
        let l2_before = self.mem_sys.l2_stats();
        let dram_before = self.mem_sys.dram_sectors();
        let cycle = self.run_loop(&spec, &req);

        let mut merged = tcsim_sm::SmStats::default();
        for (sm, before) in self.sms.iter().zip(&sm_before) {
            merged.merge(&sm.stats().delta_since(before));
        }
        let l1 = self.l1_aggregate().delta_since(&l1_before);
        let l2 = self.mem_sys.l2_stats().delta_since(&l2_before);
        let instructions = merged.issued;
        // Summarize the trace while it still holds exactly this launch's
        // window (the caller may reuse or replace the tracer afterwards).
        let trace = if self.tracer.enabled() {
            Some(TraceSummary::from_events(
                &self.tracer.snapshot(),
                self.tracer.dropped(),
            ))
        } else {
            None
        };
        LaunchStats {
            cycles: cycle.max(1),
            instructions,
            sm: merged,
            l1,
            l2,
            dram_sectors: self.mem_sys.dram_sectors() - dram_before,
            clock_mhz: self.cfg.clock_mhz,
            trace,
        }
    }

    /// The event/wakeup-driven launch loop. Each SM's next interesting
    /// cycle is cached in `wake`; an SM is stepped only when the clock
    /// reaches it, and the clock advances straight to the minimum wake
    /// time.
    ///
    /// Stepping every resident SM at every visited cycle would give the
    /// same result: the loop skips only SM steps that are provably no-ops.
    /// `Sm::step` returns the earliest `block_until` of the SM's
    /// schedulable warps (never before the next cycle), and a step before
    /// it finds every warp still blocked, so it emits no events, mutates
    /// nothing and returns the same cycle.
    fn run_loop(&mut self, spec: &LaunchSpec, req: &CtaRequirements) -> u64 {
        let total_ctas = spec.launch.total_ctas();
        let mut next_cta: u64 = 0;
        let mut cycle: u64 = 0;
        let mut wake: Vec<u64> = vec![0; self.sms.len()];
        // Indices of the SMs with resident CTAs, ascending: SMs are stepped
        // in index order, and an idle SM is never visited.
        let mut resident: Vec<usize> = Vec::with_capacity(self.sms.len());

        loop {
            if next_cta < total_ctas {
                for (i, sm) in self.sms.iter_mut().enumerate() {
                    if next_cta >= total_ctas {
                        break;
                    }
                    if sm.can_accept(req) {
                        let id = spec.launch.grid.delinearize(next_cta);
                        sm.launch_cta(spec, id, cycle);
                        next_cta += 1;
                        // New warps are issuable immediately.
                        wake[i] = cycle;
                        if let Err(at) = resident.binary_search(&i) {
                            resident.insert(at, i);
                        }
                    }
                }
            }

            let mut next = u64::MAX;
            let mut live = 0;
            for k in 0..resident.len() {
                let i = resident[k];
                let sm = &mut self.sms[i];
                if sm.idle() {
                    continue;
                }
                resident[live] = i;
                live += 1;
                if wake[i] <= cycle {
                    wake[i] = sm.step(
                        cycle,
                        &mut self.device,
                        &mut self.mem_sys,
                        self.tracer.as_mut(),
                    );
                }
                next = next.min(wake[i]);
            }
            resident.truncate(live);

            if resident.is_empty() && next_cta >= total_ctas {
                break;
            }

            cycle = if next == u64::MAX {
                cycle + 1
            } else {
                next.max(cycle + 1)
            };
            assert!(cycle < WATCHDOG, "simulation watchdog tripped");
        }
        cycle
    }

    /// L1 counters summed over all SMs (cumulative).
    fn l1_aggregate(&self) -> tcsim_mem::CacheStats {
        let mut l1 = tcsim_mem::CacheStats::default();
        for sm in &self.sms {
            let s = sm.l1_stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.mshr_merges += s.mshr_merges;
            l1.writebacks += s.writebacks;
        }
        l1
    }
}

/// Cycle-count ceiling on a single launch; tripping it indicates a
/// scheduling deadlock, not a long workload.
const WATCHDOG: u64 = 50_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchBuilder;
    use tcsim_isa::{KernelBuilder, MemWidth, Operand, SpecialReg};
    use tcsim_trace::RingTracer;

    fn ids_kernel() -> Kernel {
        let mut b = KernelBuilder::new("ids");
        let p = b.param_u64("out");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, p);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let ctaid = b.reg();
        b.mov(ctaid, Operand::Special(SpecialReg::CtaIdX));
        let ntid = b.reg();
        b.mov(ntid, Operand::Special(SpecialReg::NTidX));
        let gid = b.reg();
        b.imad(gid, ctaid, Operand::Reg(ntid), Operand::Reg(tid));
        let addr = b.reg_pair();
        b.imad_wide(addr, gid, Operand::Imm(4), base);
        b.st_global(MemWidth::B32, addr, 0, gid);
        b.exit();
        b.build()
    }

    /// out[gid] = out[gid] + 1 — accumulates across launches, proving
    /// device memory persists while caches are flushed.
    fn increment_kernel() -> Kernel {
        let mut b = KernelBuilder::new("incr");
        let p = b.param_u64("out");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, p);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), base);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.iadd(v, v, Operand::Imm(1));
        b.st_global(MemWidth::B32, addr, 0, v);
        b.exit();
        b.build()
    }

    fn increment(out: u64) -> LaunchBuilder {
        LaunchBuilder::new(increment_kernel())
            .grid(1u32)
            .block(32u32)
            .param_u64(out)
    }

    #[test]
    fn device_memory_persists_across_launches() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(32 * 4);
        for _ in 0..3 {
            increment(out).launch(&mut gpu);
        }
        assert_eq!(gpu.read_u32(out), 3, "three increments must accumulate");
    }

    #[test]
    fn launches_are_cold_cache_and_order_independent() {
        // The same kernel launched twice on one GPU must cost the same
        // cycles both times: the L1/L2 flush at the launch boundary means
        // the second run sees no warm cache from the first.
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(32 * 4);
        let a = increment(out).launch(&mut gpu);
        let b = increment(out).launch(&mut gpu);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1, b.l1);
    }

    #[test]
    fn tracing_gives_each_launch_its_own_window() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(32 * 4);
        let traced = |gpu: &mut Gpu| {
            let stats = increment(out).tracer(RingTracer::new()).launch(gpu);
            stats.trace.expect("traced")
        };
        let (a, b) = (traced(&mut gpu), traced(&mut gpu));
        // Identical launches, separate windows: summaries match instead
        // of the second accumulating the first's events.
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn gpu_is_send() {
        // The sweep engine moves whole GPUs into worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<Gpu>();
    }

    #[test]
    fn multi_cta_grid_covers_all_elements() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let n = 1024u32;
        let out = gpu.alloc(n as u64 * 4);
        let stats = LaunchBuilder::new(ids_kernel())
            .grid(n / 128)
            .block(128u32)
            .param_u64(out)
            .launch(&mut gpu);
        for i in 0..n {
            assert_eq!(gpu.read_u32(out + 4 * i as u64), i, "element {i}");
        }
        assert_eq!(stats.sm.ctas_completed, 8);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn more_ctas_than_capacity_drain_in_waves() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let n = 64 * 256u32; // 64 CTAs of 256 threads on 2 SMs
        let out = gpu.alloc(n as u64 * 4);
        let stats = LaunchBuilder::new(ids_kernel())
            .grid(64u32)
            .block(256u32)
            .param_u64(out)
            .launch(&mut gpu);
        assert_eq!(stats.sm.ctas_completed, 64);
        assert_eq!(gpu.read_u32(out + 4 * (n as u64 - 1)), n - 1);
    }

    #[test]
    fn larger_grids_take_more_cycles() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(1 << 20);
        let small = LaunchBuilder::new(ids_kernel())
            .grid(4u32)
            .block(128u32)
            .param_u64(out)
            .launch(&mut gpu);
        let big = LaunchBuilder::new(ids_kernel())
            .grid(256u32)
            .block(128u32)
            .param_u64(out)
            .launch(&mut gpu);
        assert!(big.cycles > small.cycles);
        assert!(big.instructions > small.instructions);
    }

    #[test]
    #[should_panic(expected = "exceeds SM resources")]
    fn oversized_cta_is_rejected() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let mut b = KernelBuilder::new("big");
        b.shared_alloc(200 * 1024);
        b.exit();
        let _ = LaunchBuilder::new(b.build())
            .grid(1u32)
            .block(32u32)
            .launch(&mut gpu);
    }

    #[test]
    fn stats_track_memory_traffic() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let out = gpu.alloc(4096);
        let stats = LaunchBuilder::new(ids_kernel())
            .grid(8u32)
            .block(128u32)
            .param_u64(out)
            .launch(&mut gpu);
        assert!(stats.sm.global_txns > 0);
        assert!(stats.l2.accesses() > 0);
    }
}
