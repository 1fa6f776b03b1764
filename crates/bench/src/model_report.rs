//! Estimator-vs-simulator correlation report behind the `tcsim-model`
//! binary.
//!
//! Closes the loop on the static performance model in `tcsim-model` (the
//! crate): every committed fuzz-corpus case and a fig17-style GEMM
//! family sweep are run through **both** the cycle-level simulator and
//! the analytical estimator, and the report carries the paired cycle
//! counts plus Pearson correlations (raw and log10 — the corpus spans
//! several orders of magnitude, so log-space is the honest metric). A
//! second section cross-checks the closed-form tile search: for each
//! problem size tcsim-nn's analytical ranking of its three WMMA tile
//! families (`tcsim_nn::rank_modeled`) is compared against the
//! simulator's cycle ranking.
//!
//! Everything here is a pure function of the committed corpus and the
//! GPU presets: the rendered JSON is byte-identical run to run and
//! across `--threads`, which is what lets CI byte-compare it against
//! the committed `results/BENCH_model_corr.json`.

use std::path::Path;

use tcsim_check::corpus;
use tcsim_check::gen::Arch;
use tcsim_check::oracle;
use tcsim_cutlass::{Epilogue, GemmKernel, GemmPrecision, GemmProblem};
use tcsim_model::estimate;
use tcsim_nn::{rank_modeled, GEMM_TILES};
use tcsim_sim::{pearson, GpuConfig, LaunchGeometry};
use tcsim_trace::json::JsonWriter;

use crate::gemm_sweep;

/// One estimator-vs-simulator data point.
#[derive(Clone, Debug)]
pub struct ModelPoint {
    /// Kernel or problem name (`seed_simt_a`, `sgemm_192`, …).
    pub name: String,
    /// Point family: `"corpus"`, `"sgemm"`, `"hgemm"` or `"wmma_shared"`.
    pub family: &'static str,
    /// Cycle-level simulator cycles.
    pub sim_cycles: u64,
    /// Analytical estimate.
    pub est_cycles: u64,
    /// The estimator's binding bound for this point.
    pub bound: &'static str,
}

/// One tile-search cross-check: the analytical ranking of the three
/// tile plans against the simulator's, for a square GEMM.
#[derive(Clone, Debug)]
pub struct SearchCheck {
    /// Square problem edge (m = n = k).
    pub size: usize,
    /// Plan names best-first under the closed-form roofline.
    pub modeled: Vec<&'static str>,
    /// Plan names best-first under the cycle-level simulator.
    pub simulated: Vec<&'static str>,
}

impl SearchCheck {
    /// Whether the analytically chosen winner matches the simulator's.
    pub fn top_agrees(&self) -> bool {
        self.modeled.first() == self.simulated.first()
    }
}

/// The full correlation report.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// All paired points, corpus first then GEMM families.
    pub points: Vec<ModelPoint>,
    /// Pearson correlation of raw cycle counts.
    pub pearson_raw: f64,
    /// Pearson correlation of log10 cycle counts (the gated metric).
    pub pearson_log: f64,
    /// Per-family log10 correlations, in report order.
    pub families: Vec<(&'static str, f64)>,
    /// Tile-search ranking cross-checks.
    pub search: Vec<SearchCheck>,
}

impl ModelReport {
    /// Fraction of search sizes where model and simulator agree on the
    /// winning tile plan.
    pub fn search_agreement(&self) -> f64 {
        if self.search.is_empty() {
            return 1.0;
        }
        let hits = self.search.iter().filter(|s| s.top_agrees()).count();
        hits as f64 / self.search.len() as f64
    }
}

/// What to sweep: square GEMM edges for the correlation families and
/// for the tile-search cross-check. Tests shrink both to stay fast.
#[derive(Clone, Debug)]
pub struct ReportSpec {
    /// Corpus directory (`tests/corpus` from the repo root).
    pub corpus_dir: String,
    /// Square sizes for the sgemm/hgemm/wmma_shared families.
    pub gemm_sizes: Vec<usize>,
    /// Square sizes for the tile-search cross-check (64-divisible so
    /// the Cutlass plan applies).
    pub search_sizes: Vec<usize>,
}

impl ReportSpec {
    /// The full CI/artifact configuration.
    pub fn full() -> ReportSpec {
        ReportSpec {
            corpus_dir: "tests/corpus".into(),
            gemm_sizes: vec![64, 128, 192, 256, 320],
            search_sizes: vec![64, 128, 256],
        }
    }
}

/// Dummy device addresses for estimator parameter buffers. The walk
/// folds them as ordinary constants; only non-pointer parameters (loop
/// trip counts) influence the estimate, so any plausible values do.
const PARAM_ADDRS: [u64; 4] = [0x1_0000, 0x10_0000, 0x20_0000, 0x30_0000];

/// Parameter bytes matching `oracle::run_gpu`'s `[in_ptr, out_ptr]`.
fn corpus_params() -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&PARAM_ADDRS[0].to_le_bytes());
    p.extend_from_slice(&PARAM_ADDRS[1].to_le_bytes());
    p
}

fn corpus_points(dir: &Path) -> Vec<ModelPoint> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("case"))
        .collect();
    files.sort();
    let params = corpus_params();
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("read corpus case");
            let case = corpus::case_from_text(&text).expect("parse corpus case");
            let (stats, _) = oracle::run_gpu(&case);
            let gpu = oracle::gpu_config(case.arch);
            let mut geom = LaunchGeometry::new(case.grid_x, case.block_x);
            geom.gen = case.arch.tensor_gen();
            let est = estimate(&case.kernel, &geom, &params, &gpu);
            ModelPoint {
                name: case.kernel.name().to_string(),
                family: "corpus",
                sim_cycles: stats.cycles,
                est_cycles: est.cycles,
                bound: est.bound,
            }
        })
        .collect()
}

/// The fig17 GEMM families the correlation sweep covers: the FP32 and
/// FP16 SIMT baselines plus the shared-memory WMMA kernel, as in the
/// simulator-side slice of the fig17 bench.
const GEMM_FAMILIES: [(GemmKernel, GemmPrecision, &str); 3] = [
    (GemmKernel::Sgemm, GemmPrecision::Fp32, "sgemm"),
    (GemmKernel::Hgemm, GemmPrecision::Fp16, "hgemm"),
    (
        GemmKernel::WmmaShared,
        GemmPrecision::MixedF32,
        "wmma_shared",
    ),
];

fn family_points(spec: &ReportSpec, gpu: &GpuConfig, threads: usize) -> Vec<ModelPoint> {
    let mut points = Vec::new();
    for &(kernel, precision, _) in &GEMM_FAMILIES {
        for &size in &spec.gemm_sizes {
            points.push((
                GemmProblem {
                    m: size,
                    n: size,
                    k: size,
                    precision,
                },
                kernel,
            ));
        }
    }
    let runs = gemm_sweep(gpu, &points, false, threads);
    runs.iter()
        .zip(&points)
        .zip(
            GEMM_FAMILIES
                .iter()
                .flat_map(|f| spec.gemm_sizes.iter().map(move |&s| (f.2, s))),
        )
        .map(|((run, &(_, kernel)), (family, size))| {
            let (k, cfg, params) = kernel
                .builder(false, Epilogue::None, (size, size, size), PARAM_ADDRS)
                .into_parts();
            let geom = LaunchGeometry::from_config(&cfg, Arch::Volta.tensor_gen());
            let est = estimate(&k, &geom, &params, gpu);
            ModelPoint {
                name: format!("{family}_{size}"),
                family,
                sim_cycles: run.stats.cycles,
                est_cycles: est.cycles,
                bound: est.bound,
            }
        })
        .collect()
}

/// A tile family's name in the search section.
fn label(tile: GemmKernel) -> &'static str {
    match tile {
        GemmKernel::WmmaSimple => "simple",
        GemmKernel::WmmaShared => "shared",
        _ => "cutlass",
    }
}

fn search_checks(spec: &ReportSpec, gpu: &GpuConfig, threads: usize) -> Vec<SearchCheck> {
    let mut points = Vec::new();
    for &size in &spec.search_sizes {
        for tile in GEMM_TILES {
            points.push((
                GemmProblem {
                    m: size,
                    n: size,
                    k: size,
                    precision: GemmPrecision::MixedF32,
                },
                tile,
            ));
        }
    }
    let runs = gemm_sweep(gpu, &points, false, threads);
    spec.search_sizes
        .iter()
        .zip(runs.chunks(GEMM_TILES.len()))
        .map(|(&size, runs)| {
            // A stable sort keeps the largest tile first on ties.
            let mut simulated: Vec<(u64, GemmKernel)> = runs
                .iter()
                .zip(GEMM_TILES)
                .map(|(run, tile)| (run.stats.cycles, tile))
                .collect();
            simulated.sort_by_key(|&(c, _)| c);
            SearchCheck {
                size,
                modeled: rank_modeled(size, size, size, gpu)
                    .into_iter()
                    .map(label)
                    .collect(),
                simulated: simulated.into_iter().map(|(_, t)| label(t)).collect(),
            }
        })
        .collect()
}

fn log_corr(points: &[&ModelPoint]) -> f64 {
    let sim: Vec<f64> = points
        .iter()
        .map(|p| (p.sim_cycles.max(1) as f64).log10())
        .collect();
    let est: Vec<f64> = points
        .iter()
        .map(|p| (p.est_cycles.max(1) as f64).log10())
        .collect();
    pearson(&sim, &est)
}

/// Runs the full sweep and assembles the report.
pub fn build_report(spec: &ReportSpec, threads: usize) -> ModelReport {
    let gpu = GpuConfig::titan_v();
    let mut points = corpus_points(Path::new(&spec.corpus_dir));
    points.extend(family_points(spec, &gpu, threads));

    let sim: Vec<f64> = points.iter().map(|p| p.sim_cycles as f64).collect();
    let est: Vec<f64> = points.iter().map(|p| p.est_cycles as f64).collect();
    let pearson_raw = pearson(&sim, &est);
    let all: Vec<&ModelPoint> = points.iter().collect();
    let pearson_log = log_corr(&all);

    let mut families: Vec<(&'static str, f64)> = Vec::new();
    for family in std::iter::once("corpus").chain(GEMM_FAMILIES.iter().map(|f| f.2)) {
        let fam: Vec<&ModelPoint> = points.iter().filter(|p| p.family == family).collect();
        if fam.len() >= 2 {
            families.push((family, log_corr(&fam)));
        }
    }

    let search = search_checks(spec, &gpu, threads);
    ModelReport {
        points,
        pearson_raw,
        pearson_log,
        families,
        search,
    }
}

/// Renders the report as deterministic JSON.
pub fn render_json(report: &ModelReport) -> String {
    let mut w = JsonWriter::object();
    w.field_u64("points_total", report.points.len() as u64);
    w.field_f64("pearson_raw", report.pearson_raw);
    w.field_f64("pearson_log", report.pearson_log);
    w.key("families").begin_array();
    for (name, corr) in &report.families {
        w.begin_object();
        w.field_str("family", name);
        w.field_f64("pearson_log", *corr);
        w.end_object();
    }
    w.end_array();
    w.field_f64("search_agreement", report.search_agreement());
    w.key("search").begin_array();
    for s in &report.search {
        w.begin_object();
        w.field_u64("size", s.size as u64);
        for (key, names) in [("modeled", &s.modeled), ("simulated", &s.simulated)] {
            w.key(key).begin_array();
            for name in names {
                w.str(name);
            }
            w.end_array();
        }
        w.field_str("top_agrees", if s.top_agrees() { "yes" } else { "no" });
        w.end_object();
    }
    w.end_array();
    w.key("points").begin_array();
    for p in &report.points {
        w.begin_object();
        w.field_str("name", &p.name);
        w.field_str("family", p.family);
        w.field_u64("sim_cycles", p.sim_cycles);
        w.field_u64("est_cycles", p.est_cycles);
        w.field_str("bound", p.bound);
        w.end_object();
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced spec that keeps the sim side of the test cheap.
    fn tiny_spec() -> ReportSpec {
        ReportSpec {
            corpus_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus").into(),
            gemm_sizes: vec![64],
            search_sizes: vec![64],
        }
    }

    #[test]
    fn report_is_byte_identical_run_to_run_and_across_threads() {
        let spec = tiny_spec();
        let serial = render_json(&build_report(&spec, 1));
        let again = render_json(&build_report(&spec, 1));
        let parallel = render_json(&build_report(&spec, 4));
        assert_eq!(serial, again, "run-to-run drift");
        assert_eq!(serial, parallel, "thread-count drift");
    }

    #[test]
    fn report_covers_every_family() {
        let report = build_report(&tiny_spec(), 4);
        for family in ["corpus", "sgemm", "hgemm", "wmma_shared"] {
            assert!(
                report.points.iter().any(|p| p.family == family),
                "missing family {family}"
            );
        }
        assert!(!report.search.is_empty());
    }
}
