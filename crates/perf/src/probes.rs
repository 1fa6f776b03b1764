//! Layer cost probes: each times one public entry point of one layer on
//! a small fixed input, outside any launch, and reports the quiet-machine
//! time of one call. They price the fixed costs a launch or a served job
//! pays once (GPU construction, μop decode, kernel build, verification,
//! codec calls) and are the same on every workload, so five traced runs
//! also show how well each probe repeats.

use crate::calib::{quiet, Normaliser, CALIB_REF_S};
use crate::case::{gemm_case, LaunchCase};
use crate::report::Metrics;
use crate::servewl::JobSet;
use crate::span::Recorder;
use std::hint::black_box;
use std::time::Instant;
use tcsim_cutlass::{wmma_shared_gemm, GemmKernel, GemmProblem};
use tcsim_infer::{simulate, BlockCost, CostModel, KvCache, Policy, Workload};
use tcsim_isa::emit::emit_kernel;
use tcsim_isa::ptx::parse_kernel;
use tcsim_isa::{ByteMemory, KernelBuilder};
use tcsim_mem::DeviceMemory;
use tcsim_nn::{lower, reference, run_chained, Graph, Tensor};
use tcsim_serve::{CacheEntry, Event, Request, ResultCache};
use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder, LaunchGeometry, SimOptions};
use tcsim_sm::DecodedKernel;
use tcsim_trace::{chrome_trace, RingTracer, TraceSummary};

/// Where a probe records its span and takes its calibration samples.
pub struct Bench<'a> {
    /// Span recorder.
    pub rec: &'a mut Recorder,
    /// Calibration interleaver.
    pub norm: &'a mut Normaliser,
}

impl Bench<'_> {
    /// Quiet-machine seconds of one call of `f` on the reference machine,
    /// from `reps` timed calls under one span named `probe:<name>` and
    /// between two calibration samples.
    pub fn probe<T>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let id = self.rec.enter(format!("probe:{name}"));
        let (samples, timed) = self.norm.time(|| {
            (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(f());
                    t0.elapsed().as_secs_f64()
                })
                .collect::<Vec<f64>>()
        });
        self.rec.exit(id);
        quiet(&samples) * CALIB_REF_S / timed.calib_s
    }
}

/// The launch the kernel-level probes work on: a 128³ shared-memory WMMA
/// GEMM (tensor, shared-memory and barrier instructions in one kernel).
pub fn probe_case() -> LaunchCase {
    gemm_case(
        "probe WMMA shared 128",
        GemmProblem::square(128),
        GemmKernel::WmmaShared,
    )
}

/// Probes every workload runs: simulator fixed costs on `cfg`, the ISA
/// codecs, kernel build, verifier, analytical model, device memory and
/// the trace post-processing.
pub fn common(b: &mut Bench<'_>, m: &mut Metrics<'_>, cfg: &GpuConfig) {
    let case = probe_case();
    let kernel = &case.kernel;
    let us = 1e6;

    m.set(
        "sim.gpu_new_us",
        us * b.probe("sim.gpu_new", 12, || Gpu::new(cfg.clone())),
    );

    let mut kb = KernelBuilder::new("floor");
    kb.exit();
    let floor = kb.build();
    let mut gpu = Gpu::new(cfg.clone());
    let mut floor_stats = None;
    let floor_s = b.probe("sim.launch_floor", 12, || {
        floor_stats = Some(
            LaunchBuilder::new(floor.clone())
                .grid(1u32)
                .block(32u32)
                .launch(&mut gpu),
        );
    });
    m.set("sim.launch_floor_us", us * floor_s);
    let floor_stats = floor_stats.expect("the floor kernel launched");
    m.set(
        "sim.stats_json_us",
        us * b.probe("sim.stats_json", 200, || floor_stats.to_json()),
    );

    m.set(
        "isa.uop_decode_us",
        us * b.probe("isa.uop_decode", 50, || {
            DecodedKernel::decode(kernel, &cfg.sm)
        }),
    );
    let text = emit_kernel(kernel);
    let kib = text.len() as f64 / 1024.0;
    m.set(
        "isa.emit_us_per_kib",
        us * b.probe("isa.emit", 50, || emit_kernel(kernel)) / kib,
    );
    m.set(
        "isa.ptx_parse_us_per_kib",
        us * b.probe("isa.ptx_parse", 50, || {
            parse_kernel(&text).expect("emitted text parses")
        }) / kib,
    );

    m.set(
        "cutlass.kernel_build_us",
        us * b.probe("cutlass.kernel_build", 50, || wmma_shared_gemm(false)),
    );
    let geom = LaunchGeometry::new(case.grid, case.block);
    m.set(
        "verify.check_us",
        us * b.probe("verify.check", 20, || tcsim_verify::check(kernel, &geom)),
    );
    let mut mem = DeviceMemory::new();
    let addrs = case.upload(&mut mem);
    let (_, _, params) = case.builder(&addrs).into_parts();
    m.set(
        "model.estimate_us",
        us * b.probe("model.estimate", 20, || {
            tcsim_model::estimate(kernel, &geom, &params, cfg)
        }),
    );

    const WORDS: u64 = 64 << 10;
    let read_s = b.probe("mem.device_read", 20, || {
        (0..WORDS).fold(0u32, |acc, w| {
            acc.wrapping_add(mem.read_u32(addrs[0] + 4 * (w % 8192)))
        })
    });
    m.set("mem.device_read_ns_per_word", 1e9 * read_s / WORDS as f64);

    // Trace post-processing, on the event stream of the probe launch.
    let mut gpu = Gpu::new(SimOptions::new(cfg.clone()).tracer(RingTracer::new()));
    let addrs = case.upload(gpu.device_mut());
    case.builder(&addrs).launch(&mut gpu);
    let events = gpu.trace_events();
    m.set(
        "trace.summary_ms",
        1e3 * b.probe("trace.summary", 5, || TraceSummary::from_events(&events, 0)),
    );
    m.set(
        "trace.chrome_ms",
        1e3 * b.probe("trace.chrome", 3, || chrome_trace(&events)),
    );
}

/// `nn_zoo`'s probes: lowering, the host reference, each model on its
/// own, and the serving simulator's two cost regimes.
pub fn nn(
    b: &mut Bench<'_>,
    m: &mut Metrics<'_>,
    cfg: &GpuConfig,
    models: &[(String, Graph, Tensor)],
    seed: u64,
) {
    let lower_s: f64 = models
        .iter()
        .map(|(name, net, _)| b.probe(&format!("nn.lower:{name}"), 20, || lower(net)))
        .sum();
    m.set("nn.lower_us", 1e6 * lower_s);
    let reference_s: f64 = models
        .iter()
        .map(|(name, net, input)| {
            b.probe(&format!("nn.reference:{name}"), 5, || {
                reference::run_graph(net, input)
            })
        })
        .sum();
    m.set("nn.reference_ms", 1e3 * reference_s);
    for (name, net, input) in models {
        let s = b.probe(&format!("nn.run_chained:{name}"), 5, || {
            run_chained(net, input, cfg.clone(), false)
        });
        m.set(&format!("nn.{name}_ms"), 1e3 * s);
    }

    let mut cost = CostModel::new(cfg.clone(), seed);
    let miss_s = b.probe("infer.block_cost_miss", 1, || cost.block_cost(1));
    m.set("infer.block_cost_miss_ms", 1e3 * miss_s);
    let one = cost.block_cost(1);
    let policy = Policy::Continuous { max_batch: 8 };
    for batch in 2..=8u64 {
        // Primed, so the event loop below never simulates.
        cost.prime(
            batch as usize,
            BlockCost {
                cycles: one.cycles + one.cycles / 4 * (batch - 1),
                instructions: one.instructions * batch,
            },
        );
    }
    const REQUESTS: usize = 2000;
    let workload = Workload {
        seed,
        requests: REQUESTS,
        rate_per_mcycle: 4e6 / one.cycles as f64,
    };
    let loop_s = b.probe("infer.event_loop", 5, || {
        simulate(&mut cost, &workload, &policy, &KvCache::unbounded())
    });
    m.set(
        "infer.event_loop_us_per_request",
        1e6 * loop_s / REQUESTS as f64,
    );
}

/// `serve_mix`'s probes: every stage a job passes through, called
/// directly on the job set (per-job mean of the quiet pass).
pub fn serve(b: &mut Bench<'_>, m: &mut Metrics<'_>, set: &JobSet) {
    let n = set.jobs.len() as f64;
    let us_per_job = |s: f64| 1e6 * s / n;
    let requests: Vec<Request> = set
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| Request::Submit {
            id: format!("j{i}"),
            job: j.spec.clone(),
        })
        .collect();
    let lines: Vec<String> = requests.iter().map(Request::to_line).collect();
    m.set(
        "serve.request_encode_us",
        us_per_job(b.probe("serve.request_encode", 5, || {
            requests.iter().map(|r| r.to_line().len()).sum::<usize>()
        })),
    );
    m.set(
        "serve.parse_us",
        us_per_job(b.probe("serve.parse", 5, || {
            lines
                .iter()
                .filter(|l| Request::from_line(l).is_ok())
                .count()
        })),
    );
    m.set(
        "serve.key_us",
        us_per_job(b.probe("serve.key", 5, || {
            set.jobs
                .iter()
                .map(|j| j.spec.cache_key().len())
                .sum::<usize>()
        })),
    );
    m.set(
        "serve.sim_us",
        us_per_job(b.probe("serve.sim", 3, || {
            set.jobs.iter().filter(|j| j.spec.run().is_ok()).count()
        })),
    );
    let entries: Vec<CacheEntry> = set
        .jobs
        .iter()
        .map(|j| CacheEntry {
            key: j.key.clone(),
            outcome: j.golden.clone(),
        })
        .collect();
    let mut cache = ResultCache::in_memory();
    m.set(
        "serve.cache_insert_us",
        us_per_job(b.probe("serve.cache_insert", 5, || {
            cache = ResultCache::in_memory();
            for e in &entries {
                cache.insert(e.clone()).expect("in-memory insert");
            }
        })),
    );
    m.set(
        "serve.cache_get_us",
        us_per_job(b.probe("serve.cache_get", 5, || {
            set.jobs
                .iter()
                .filter(|j| cache.get(&j.key).is_some())
                .count()
        })),
    );
    let events: Vec<Event> = set
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| Event::Done {
            id: format!("j{i}"),
            key: j.key.clone(),
            cached: false,
            output_fnv: j.golden.output_fnv.clone(),
            latency_us: 1234,
            stats_json: j.golden.stats_json.clone(),
        })
        .collect();
    let event_lines: Vec<String> = events.iter().map(Event::to_line).collect();
    m.set(
        "serve.event_encode_us",
        us_per_job(b.probe("serve.event_encode", 5, || {
            events.iter().map(|e| e.to_line().len()).sum::<usize>()
        })),
    );
    m.set(
        "serve.event_parse_us",
        us_per_job(b.probe("serve.event_parse", 5, || {
            event_lines
                .iter()
                .filter(|l| Event::from_line(l).is_ok())
                .count()
        })),
    );
}
