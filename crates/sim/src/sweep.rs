//! Parallel sweep engine: run many independent simulations concurrently.
//!
//! The figure/table experiments are embarrassingly parallel — each point
//! is one `(GpuConfig, kernel, launch, params)` simulation that shares
//! nothing with its neighbours. [`Sweep`] collects such jobs and executes
//! them either serially or on a work-stealing pool of OS threads
//! (`std::thread::scope` over a shared deque — no external crates).
//!
//! # Determinism contract
//!
//! `run_parallel` produces **byte-identical** results to `run_serial`,
//! regardless of thread count or scheduling order:
//!
//! * every job gets a **fresh [`Gpu`]** built from its own config, so no
//!   allocator state, cache contents or statistics leak between jobs
//!   (device-memory addresses would otherwise depend on which worker ran
//!   the job last);
//! * results are written into an index-addressed slot vector, so output
//!   order is submission order, never completion order;
//! * the simulator itself is single-threaded per job and uses no global
//!   mutable state (the fragment plans in `tcsim-core` are a process-wide
//!   table of write-once `OnceLock`s, each a pure function of its index).
//!
//! # Example
//!
//! ```
//! use tcsim_sim::{GpuConfig, LaunchBuilder, Sweep};
//! use tcsim_isa::KernelBuilder;
//!
//! let mut sweep = Sweep::new();
//! for n in [64u32, 128, 256] {
//!     sweep.add(GpuConfig::mini(), move |gpu| {
//!         let mut b = KernelBuilder::new("noop");
//!         b.exit();
//!         LaunchBuilder::new(b.build())
//!             .grid(n / 64)
//!             .block(64u32)
//!             .launch(gpu)
//!             .cycles
//!     });
//! }
//! let out = sweep.run_parallel(2);
//! assert_eq!(out.results.len(), 3);
//! assert_eq!(out.stats.jobs, 3);
//! ```

use crate::config::GpuConfig;
use crate::gpu::Gpu;
use crate::stats::LaunchStats;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

type JobFn<T> = Box<dyn FnOnce(&mut Gpu) -> T + Send>;

struct Job<T> {
    cfg: GpuConfig,
    weight: u64,
    run: JobFn<T>,
}

/// Execution summary of one sweep run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used (1 for a serial run).
    pub threads: usize,
    /// Wall-clock time of the whole sweep, in seconds.
    pub wall_seconds: f64,
}

/// Results of a sweep: per-job outputs in submission order, plus the
/// run's execution summary.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// One result per job, in the order the jobs were [`Sweep::add`]ed.
    pub results: Vec<T>,
    /// Wall-clock and sizing summary.
    pub stats: SweepStats,
}

/// Access to the [`LaunchStats`] inside a sweep-job result, enabling
/// [`SweepOutcome::total_cycles`]-style aggregation over wrapper types
/// (e.g. the CUTLASS host's `GemmRun`).
pub trait HasLaunchStats {
    /// The launch statistics of this result.
    fn launch_stats(&self) -> &LaunchStats;
}

impl HasLaunchStats for LaunchStats {
    fn launch_stats(&self) -> &LaunchStats {
        self
    }
}

impl<T: HasLaunchStats> SweepOutcome<T> {
    /// Sum of simulated cycles across all jobs.
    pub fn total_cycles(&self) -> u64 {
        self.results.iter().map(|r| r.launch_stats().cycles).sum()
    }

    /// Sum of issued warp instructions across all jobs.
    pub fn total_instructions(&self) -> u64 {
        self.results
            .iter()
            .map(|r| r.launch_stats().instructions)
            .sum()
    }
}

/// A batch of independent simulation jobs.
///
/// Each job owns a [`GpuConfig`] and a closure that receives a freshly
/// built [`Gpu`] and returns any `Send` result — typically a
/// [`LaunchStats`] from a [`crate::LaunchBuilder`] launch.
#[derive(Default)]
pub struct Sweep<T> {
    jobs: Vec<Job<T>>,
}

impl<T: Send> Sweep<T> {
    /// Creates an empty sweep.
    pub fn new() -> Sweep<T> {
        Sweep { jobs: Vec::new() }
    }

    /// Adds a job with default scheduling weight.
    pub fn add(
        &mut self,
        cfg: GpuConfig,
        f: impl FnOnce(&mut Gpu) -> T + Send + 'static,
    ) -> &mut Sweep<T> {
        self.add_weighted(cfg, 0, f)
    }

    /// Adds a job with an estimated cost `weight` (any monotone proxy,
    /// e.g. `n³` for an n×n×n GEMM). When weights are given, the parallel
    /// scheduler starts heavier jobs first (longest-processing-time
    /// order), which tightens the makespan when job sizes are skewed.
    /// Result order is unaffected — it is always submission order.
    pub fn add_weighted(
        &mut self,
        cfg: GpuConfig,
        weight: u64,
        f: impl FnOnce(&mut Gpu) -> T + Send + 'static,
    ) -> &mut Sweep<T> {
        self.jobs.push(Job {
            cfg,
            weight,
            run: Box::new(f),
        });
        self
    }

    /// Number of jobs queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the sweep has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job on the calling thread, in submission order.
    pub fn run_serial(self) -> SweepOutcome<T> {
        let start = Instant::now();
        let n_jobs = self.jobs.len();
        let results = self
            .jobs
            .into_iter()
            .map(|job| {
                let mut gpu = Gpu::new(job.cfg);
                (job.run)(&mut gpu)
            })
            .collect();
        SweepOutcome {
            results,
            stats: SweepStats {
                jobs: n_jobs,
                threads: 1,
                wall_seconds: start.elapsed().as_secs_f64(),
            },
        }
    }

    /// Runs the jobs on `threads` worker threads, returning results in
    /// submission order with statistics identical to [`Sweep::run_serial`]
    /// (see the module-level determinism contract).
    ///
    /// `threads` is clamped to `[1, jobs]`; `run_parallel(1)` degenerates
    /// to a serial run on one worker thread.
    pub fn run_parallel(self, threads: usize) -> SweepOutcome<T> {
        let start = Instant::now();
        let n_jobs = self.jobs.len();
        let workers = threads.max(1).min(n_jobs.max(1));

        // Index jobs by submission order, then schedule heaviest-first
        // (stable, so unweighted sweeps keep submission order).
        let mut indexed: Vec<(usize, Job<T>)> = self.jobs.into_iter().enumerate().collect();
        indexed.sort_by_key(|(_, job)| std::cmp::Reverse(job.weight));

        let queue: Mutex<VecDeque<(usize, Job<T>)>> = Mutex::new(indexed.into());
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n_jobs).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = queue.lock().unwrap().pop_front();
                    let Some((idx, job)) = next else { break };
                    let mut gpu = Gpu::new(job.cfg);
                    let result = (job.run)(&mut gpu);
                    slots.lock().unwrap()[idx] = Some(result);
                });
            }
        });

        let results = slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("worker panicked before storing a result"))
            .collect();
        SweepOutcome {
            results,
            stats: SweepStats {
                jobs: n_jobs,
                threads: workers,
                wall_seconds: start.elapsed().as_secs_f64(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchBuilder;
    use tcsim_isa::{KernelBuilder, MemWidth, Operand, SpecialReg};

    fn ids_kernel() -> tcsim_isa::Kernel {
        let mut b = KernelBuilder::new("ids");
        let p = b.param_u64("out");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, p);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), base);
        b.st_global(MemWidth::B32, addr, 0, tid);
        b.exit();
        b.build()
    }

    fn launch_ids(gpu: &mut Gpu, ctas: u32) -> LaunchStats {
        let out = gpu.alloc(u64::from(ctas) * 32 * 4);
        LaunchBuilder::new(ids_kernel())
            .grid(ctas)
            .block(32u32)
            .param_u64(out)
            .launch(gpu)
    }

    fn sweep_of(sizes: &[u32]) -> Sweep<LaunchStats> {
        let mut s = Sweep::new();
        for &ctas in sizes {
            s.add_weighted(GpuConfig::mini(), u64::from(ctas), move |gpu| {
                launch_ids(gpu, ctas)
            });
        }
        s
    }

    const SIZES: [u32; 5] = [1, 8, 2, 16, 4];

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial = sweep_of(&SIZES).run_serial();
        let parallel = sweep_of(&SIZES).run_parallel(4);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(parallel.stats.jobs, SIZES.len());
        assert_eq!(parallel.stats.threads, 4);
    }

    #[test]
    fn results_are_in_submission_order() {
        // Weights force heaviest-first execution; results must still come
        // back in submission order.
        let out = sweep_of(&SIZES).run_parallel(2);
        for (stats, &ctas) in out.results.iter().zip(&SIZES) {
            assert_eq!(stats.sm.ctas_completed, u64::from(ctas));
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        let out = sweep_of(&SIZES[..2]).run_parallel(64);
        assert_eq!(out.stats.threads, 2, "never more workers than jobs");
        let out = sweep_of(&SIZES[..2]).run_parallel(0);
        assert_eq!(out.stats.threads, 1, "at least one worker");
    }

    #[test]
    fn empty_sweep_runs() {
        let out = Sweep::<LaunchStats>::new().run_parallel(8);
        assert!(out.results.is_empty());
        assert_eq!(out.stats.jobs, 0);
    }

    #[test]
    fn aggregation_via_has_launch_stats() {
        let serial = sweep_of(&SIZES).run_serial();
        let total: u64 = serial.results.iter().map(|r| r.cycles).sum();
        assert_eq!(serial.total_cycles(), total);
        assert!(serial.total_instructions() > 0);
        assert_eq!(serial.stats.jobs, SIZES.len());
        assert_eq!(serial.stats.threads, 1);
    }
}
