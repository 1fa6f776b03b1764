//! Executor golden: digests of what the architectural executor
//! (`tcsim_isa::exec`) computes, frozen in `tests/exec_golden.txt`.
//!
//! `tcsim-check`'s differential oracle runs the *same* `exec::step` on
//! both sides ("both sides share the architectural executor"), so its
//! fuzz campaigns cannot see a wrong SIMT opcode: device and reference
//! would agree on the wrong answer. This file is the independent
//! witness. For the committed corpus and for generator seeds `1..=256`
//! on each of Volta, Turing and Ampere it records the FNV-1a/128 of the
//! device output buffer and of `LaunchStats::to_json`, so any change to
//! a computed bit — or to a simulated count — fails here.
//!
//! The `traced` rows that follow pin the SM core's schedule: each also
//! records the FNV-1a/128 of the launch's Chrome trace, in which every
//! issue, stall, retire and cache access appears with its cycle. They
//! cover the corpus, the Fig 14a / Fig 17 GEMM families, pointer chases
//! over L1-, L2- and DRAM-resident rings, the corpus plus a WMMA and an
//! SGEMM GEMM under the round-robin scheduler, and the Fig 14 CUTLASS
//! tilings and FP16-output WMMA kernels.
//!
//! The same runs also write `tests/schedule_golden.txt`: one row per
//! run with the stats and Chrome-trace digests taken after every `Stall`
//! event is left out (the trace summary inside the stats rebuilt from
//! the events that remain). It pins the schedule itself — every issue,
//! retire, HMMA step and cache access with its cycle — apart from how
//! the stall episodes between issues are reported.
//!
//! The run is cheap (a few seconds in debug) and always compares.
//! After an *intended* behaviour change, rewrite both files with
//!
//! ```text
//! TCSIM_GOLDEN=1 cargo test --test exec_golden
//! ```
//!
//! and review the diff.

use std::path::{Path, PathBuf};
use tcsim::cutlass::microbench::{chase_chain, pointer_chase};
use tcsim::cutlass::{run_gemm, CutlassConfig, GemmKernel, GemmPrecision, GemmProblem};
use tcsim::sim::{Gpu, GpuConfig, LaunchBuilder, LaunchStats, SimOptions};
use tcsim::sm::SchedPolicy;
use tcsim::trace::hash::fnv128_hex;
use tcsim::trace::{chrome_trace, EventKind, RingTracer, TraceEvent, TraceSummary};
use tcsim_check::corpus::case_from_text;
use tcsim_check::gen::{generate, Arch, GenConfig};
use tcsim_check::oracle::{gpu_config, launch_case, Case};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=256;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Golden rows, of one run or of all: `exec` for `exec_golden.txt`,
/// `schedule` for `schedule_golden.txt`.
struct Rows {
    exec: String,
    schedule: String,
}

impl Rows {
    fn push(&mut self, rows: Rows) {
        self.exec.push_str(&rows.exec);
        self.schedule.push_str(&rows.schedule);
    }
}

/// The schedule row of a run: its stats and Chrome-trace digests with
/// every `Stall` event left out.
fn schedule_line(label: &str, gpu: &Gpu, stats: &LaunchStats) -> String {
    let dropped = gpu.tracer().dropped();
    assert_eq!(dropped, 0, "{label}: the tracer dropped events");
    let events: Vec<TraceEvent> = gpu
        .trace_events()
        .into_iter()
        .filter(|e| !matches!(e.kind, EventKind::Stall { .. }))
        .collect();
    let mut stats = stats.clone();
    stats.trace = Some(TraceSummary::from_events(&events, dropped));
    format!(
        "{label} stats={} trace={}\n",
        fnv128_hex(stats.to_json().as_bytes()),
        fnv128_hex(chrome_trace(&events).as_bytes())
    )
}

/// A case launched as the oracle's `run_gpu` launches it.
fn digest_line(label: &str, case: &Case) -> Rows {
    let mut gpu = Gpu::new(SimOptions::new(gpu_config(case.arch)).tracer(RingTracer::new()));
    let (stats, out) = launch_case(&mut gpu, case);
    Rows {
        exec: format!(
            "{label} out={} stats={}\n",
            fnv128_hex(&out),
            fnv128_hex(stats.to_json().as_bytes())
        ),
        schedule: schedule_line(label, &gpu, &stats),
    }
}

/// A fresh GPU whose ring tracer holds every event of the largest traced
/// row.
fn traced_gpu(cfg: GpuConfig) -> Gpu {
    Gpu::new(SimOptions::new(cfg).tracer(RingTracer::with_capacity(1 << 20)))
}

fn traced_line(label: &str, gpu: &Gpu, stats: &LaunchStats, out: &[u8]) -> Rows {
    let label = format!("traced {label}");
    Rows {
        exec: format!(
            "{label} out={} stats={} trace={}\n",
            fnv128_hex(out),
            fnv128_hex(stats.to_json().as_bytes()),
            fnv128_hex(chrome_trace(&gpu.trace_events()).as_bytes())
        ),
        schedule: schedule_line(&label, gpu, stats),
    }
}

/// A corpus case on `cfg`, launched as the oracle's `run_gpu` does.
fn traced_case(label: &str, case: &Case, cfg: GpuConfig) -> Rows {
    let mut gpu = traced_gpu(cfg);
    let (stats, out) = launch_case(&mut gpu, case);
    traced_line(label, &gpu, &stats, &out)
}

/// The precision a family's traced rows run at: the FP32-accumulate
/// mixed mode for the tensor-core families, the baselines' own types.
fn native_precision(kernel: GemmKernel) -> GemmPrecision {
    match kernel {
        GemmKernel::Sgemm => GemmPrecision::Fp32,
        GemmKernel::Hgemm => GemmPrecision::Fp16,
        GemmKernel::IgemmWmma => GemmPrecision::Int8,
        _ => GemmPrecision::MixedF32,
    }
}

fn traced_gemm(label: &str, cfg: GpuConfig, kernel: GemmKernel, size: usize) -> Rows {
    traced_gemm_at(label, cfg, kernel, native_precision(kernel), size)
}

fn traced_gemm_at(
    label: &str,
    cfg: GpuConfig,
    kernel: GemmKernel,
    precision: GemmPrecision,
    size: usize,
) -> Rows {
    let problem = GemmProblem {
        precision,
        ..GemmProblem::square(size)
    };
    let mut gpu = traced_gpu(cfg);
    let run = run_gemm(&mut gpu, problem, kernel, false);
    // D is `run_gemm`'s last allocation, and its size is a multiple of
    // the 256-byte alignment, so it ends where the next one starts.
    let d_bytes = match precision {
        GemmPrecision::Fp16 => size * size * 2,
        _ => size * size * 4,
    };
    let d_end = gpu.alloc(1);
    let out = gpu.memcpy_d2h(d_end - d_bytes as u64, d_bytes);
    let label = format!("gemm {label} {kernel:?} {size}");
    traced_line(&label, &gpu, &run.stats, &out)
}

/// Warps of a traced pointer chase: 20 Titan V SMs, one CTA of eight
/// warps each.
const CHASE_WARPS: u64 = 20 * 256 / 32;

/// A pointer chase of 96 dependent hops per warp over a ring of `elems`
/// 8-byte links at stride 33; warp `w` enters at element `w * spread`.
fn traced_chase(label: &str, elems: usize, spread: u32) -> Rows {
    let mut gpu = traced_gpu(GpuConfig::titan_v());
    let buf = gpu.alloc(elems as u64 * 8);
    let out = gpu.alloc(CHASE_WARPS * 8);
    let ring: Vec<u8> = chase_chain(elems, 33, buf)
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .collect();
    gpu.memcpy_h2d(buf, &ring);
    let stats = LaunchBuilder::new(pointer_chase(96, elems, spread))
        .grid(20u32)
        .block(256u32)
        .param_u64(buf)
        .param_u64(out)
        .launch(&mut gpu);
    let out = gpu.memcpy_d2h(out, CHASE_WARPS as usize * 8);
    traced_line(&format!("chase {label}"), &gpu, &stats, &out)
}

/// Entry spacing that spreads the warps evenly along the chase cycle.
fn even_spread(elems: usize) -> u32 {
    ((33 * (elems as u64 / CHASE_WARPS)).max(33) & (elems as u64 - 1)) as u32
}

/// Both golden files' contents, `(exec, schedule)`.
fn regenerate() -> (String, String) {
    let mut text = Rows {
        exec: String::from(
            "# tcsim executor golden v1: FNV-1a/128 of the output buffer and of LaunchStats::to_json\n",
        ),
        schedule: String::from(
            "# tcsim schedule golden v1: FNV-1a/128 of LaunchStats::to_json and of chrome_trace, Stall events left out\n",
        ),
    };
    let mut corpus: Vec<PathBuf> = std::fs::read_dir(repo().join("tests/corpus"))
        .expect("tests/corpus is committed")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    corpus.sort();
    let corpus: Vec<(String, Case)> = corpus
        .iter()
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let src = std::fs::read_to_string(path).expect("readable corpus case");
            let case = case_from_text(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.into_owned(), case)
        })
        .collect();
    for (name, case) in &corpus {
        text.push(digest_line(&format!("corpus {name}"), case));
    }
    for arch in [Arch::Volta, Arch::Turing, Arch::Ampere] {
        let cfg = GenConfig {
            arch: Some(arch),
            ..GenConfig::default()
        };
        for seed in SEEDS {
            let case = Case::from_program(&generate(seed, &cfg), seed.wrapping_mul(97));
            let label = format!("gen {} {seed}", arch.qualifier());
            text.push(digest_line(&label, &case));
        }
    }

    text.exec
        .push_str("# traced rows add trace=: FNV-1a/128 of chrome_trace of every event\n");
    for (name, case) in &corpus {
        let label = format!("corpus {name}");
        text.push(traced_case(&label, case, gpu_config(case.arch)));
    }
    let mini = GpuConfig::mini();
    for kernel in [
        GemmKernel::WmmaSimple,
        GemmKernel::WmmaShared,
        GemmKernel::Sgemm,
        GemmKernel::Hgemm,
    ] {
        for size in [32, 64] {
            text.push(traced_gemm("mini", mini.clone(), kernel, size));
        }
    }
    // INT8 WMMA needs Turing tensor cores.
    let turing = gpu_config(Arch::Turing);
    text.push(traced_gemm(
        "mini-turing",
        turing,
        GemmKernel::IgemmWmma,
        32,
    ));
    for kernel in [GemmKernel::WmmaShared, GemmKernel::Sgemm] {
        text.push(traced_gemm("titan-v", GpuConfig::titan_v(), kernel, 64));
    }
    // The warps of one SM overlap on the 16 KiB ring, so hops hit in L1.
    // With a spread of an eighth of the 256 KiB ring every SM chases the
    // same eight segments: L1 misses, and each sector comes from DRAM
    // once and from L2 after that. On the 8 MiB ring every hop misses.
    let l2 = 32 << 10;
    for (label, elems, spread) in [
        ("L1 16KiB", 2 << 10, even_spread(2 << 10)),
        ("L2 256KiB", l2, (l2 / 8) as u32),
        ("DRAM 8MiB", 1 << 20, even_spread(1 << 20)),
    ] {
        text.push(traced_chase(label, elems, spread));
    }
    let round_robin = |arch| {
        let mut cfg = gpu_config(arch);
        cfg.sm.scheduler = SchedPolicy::RoundRobin;
        cfg
    };
    // A corpus launch holds at most one warp per sub-core, so its
    // round-robin row equals its GTO row; the GEMMs put several warps on
    // each sub-core and are where the two walks differ.
    for (name, case) in &corpus {
        let label = format!("rr corpus {name}");
        text.push(traced_case(&label, case, round_robin(case.arch)));
    }
    for kernel in [GemmKernel::WmmaShared, GemmKernel::Sgemm] {
        text.push(traced_gemm("rr-mini", round_robin(Arch::Volta), kernel, 64));
    }
    // The CUTLASS tilings of Figs 14a-c and the FP16-output WMMA kernels.
    text.push(traced_gemm(
        "mini",
        GpuConfig::mini(),
        GemmKernel::Cutlass(CutlassConfig::default_64x64()),
        64,
    ));
    let fig14b_wide = CutlassConfig {
        warp_n: 64,
        ..CutlassConfig::default_64x64()
    };
    let fig14c = CutlassConfig {
        cta_m: 128,
        cta_n: 128,
        warp_m: 64,
        warp_n: 32,
        stages: 2,
    };
    for cfg in [fig14b_wide, fig14c] {
        let kernel = GemmKernel::Cutlass(cfg);
        text.push(traced_gemm("titan-v", GpuConfig::titan_v(), kernel, 128));
    }
    for kernel in [GemmKernel::WmmaSimple, GemmKernel::WmmaShared] {
        text.push(traced_gemm_at(
            "mini-fp16",
            GpuConfig::mini(),
            kernel,
            GemmPrecision::Fp16,
            32,
        ));
    }
    (text.exec, text.schedule)
}

/// Compares `got` with the committed file `name`, or rewrites it under
/// `TCSIM_GOLDEN=1`.
fn check_golden(name: &str, got: &str) {
    let path = repo().join("tests").join(name);
    if std::env::var("TCSIM_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("rewrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed golden {}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "tests/{name} diverges at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "tests/{name} changed length"
    );
}

#[test]
fn executor_digests_match_the_committed_golden() {
    let (exec, schedule) = regenerate();
    check_golden("exec_golden.txt", &exec);
    check_golden("schedule_golden.txt", &schedule);
}
