//! Every kernel the repository ships must pass the static analyzer with
//! zero diagnostics: the committed fuzz corpus, the CUTLASS-like GEMM
//! family (all epilogue variants), and every kernel tcsim-nn lowers.
//! A kernel that trips even a warning here either has a real defect or
//! exposes a verifier false positive — both block the PR.
//!
//! The performance lints (`tcsim_verify::perf`, i.e. `tcsim-lint
//! --perf`) are held to a different standard: shipped kernels DO carry
//! mild perf findings (unswizzled staging, strided corpus stores), so
//! those are pinned as goldens rather than asserted to zero — the gate
//! is that they never drift silently.

use std::path::Path;
use tcsim_check::corpus::{self, case_from_text};
use tcsim_check::gen::Arch;
use tcsim_cutlass::{CutlassConfig, Epilogue, GemmKernel};
use tcsim_isa::Kernel;
use tcsim_nn::kernels::{
    add_kernel, bias_grid, bias_kernel, elems_grid, gelu_kernel, layernorm_kernel, maxpool_grid,
    maxpool_kernel, relu_kernel, softmax_kernel,
};
use tcsim_verify::{check, LaunchGeometry};

/// Lints one kernel and formats any diagnostics for the failure report.
fn lint(name: &str, kernel: &Kernel, geom: &LaunchGeometry, failures: &mut Vec<String>) {
    for d in check(kernel, geom) {
        failures.push(format!("{name}: {d}"));
    }
}

/// A GEMM family's kernel and the geometry `GemmKernel::builder` gives it
/// for a 64×64 problem.
fn gemm_64(kernel: GemmKernel, fp16: bool, ep: Epilogue) -> (Kernel, LaunchGeometry) {
    let (k, cfg, _) = kernel.builder(fp16, ep, (64, 64, 64), [0; 4]).into_parts();
    let geom = LaunchGeometry::new(cfg.grid, cfg.block);
    match kernel {
        GemmKernel::IgemmWmma => (k, geom.turing()),
        _ => (k, geom),
    }
}

const CUTLASS_64X64: GemmKernel = GemmKernel::Cutlass(CutlassConfig::default_64x64());

#[test]
fn committed_corpus_is_verifier_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut failures = Vec::new();
    let mut linted = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = case_from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut geom = LaunchGeometry::new(case.grid_x, case.block_x);
        geom.gen = case.arch.tensor_gen();
        lint(
            &path.file_name().unwrap().to_string_lossy(),
            &case.kernel,
            &geom,
            &mut failures,
        );
        linted += 1;
    }
    assert!(linted > 0, "no .case files under tests/corpus");
    assert!(
        failures.is_empty(),
        "corpus kernels flagged:\n{}",
        failures.join("\n")
    );
}

#[test]
fn generated_corpus_seeds_are_verifier_clean() {
    // The same generator the fuzzer runs, across the kinds and
    // architectures: a small always-on slice of the 2000-iteration
    // campaigns in EXPERIMENTS.md.
    use tcsim_check::gen::{assemble, generate, GenConfig, KindSel};
    let mut failures = Vec::new();
    let pools = [
        (KindSel::Simt, None),
        (KindSel::Wmma, None),
        (KindSel::Wmma, Some(Arch::Ampere)),
        (KindSel::WmmaBf16, None),
        (KindSel::WmmaSparse, None),
    ];
    for (kind, arch) in pools {
        let cfg = GenConfig {
            max_ops: 24,
            kind,
            arch,
        };
        for seed in 0..50u64 {
            let p = generate(seed, &cfg);
            let k = assemble(&p);
            let mut geom = LaunchGeometry::new(p.grid_x, p.block_x);
            geom.gen = p.arch.tensor_gen();
            lint(
                &format!("gen {kind:?}/{arch:?} seed {seed}"),
                &k,
                &geom,
                &mut failures,
            );
        }
    }
    assert!(
        failures.is_empty(),
        "generated kernels flagged:\n{}",
        failures.join("\n")
    );
}

#[test]
fn cutlass_family_is_verifier_clean() {
    let mut failures = Vec::new();
    // The three FP32-accumulate WMMA kernels (tcsim-nn's GEMM tiles) with
    // every fused epilogue, then the FP16-output and epilogue-free rest.
    for kernel in [
        GemmKernel::WmmaSimple,
        GemmKernel::WmmaShared,
        CUTLASS_64X64,
    ] {
        for ep in [
            Epilogue::None,
            Epilogue::Bias,
            Epilogue::Relu,
            Epilogue::BiasRelu,
        ] {
            let (k, geom) = gemm_64(kernel, false, ep);
            lint(k.name(), &k, &geom, &mut failures);
        }
    }
    for (kernel, fp16) in [
        (GemmKernel::WmmaSimple, true),
        (GemmKernel::WmmaShared, true),
        (GemmKernel::Sgemm, false),
        (GemmKernel::Hgemm, false),
        (GemmKernel::IgemmWmma, false),
    ] {
        let (k, geom) = gemm_64(kernel, fp16, Epilogue::None);
        lint(k.name(), &k, &geom, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "cutlass kernels flagged:\n{}",
        failures.join("\n")
    );
}

#[test]
fn nn_lowered_kernels_are_verifier_clean() {
    // The GEMM tiles tcsim-nn lowers onto are linted with every epilogue
    // in `cutlass_family_is_verifier_clean`; these are its SIMT kernels.
    let mut failures = Vec::new();
    let (c, h, w, k) = (2usize, 8usize, 8usize, 2usize);
    lint(
        "maxpool",
        &maxpool_kernel(c, h, w, k),
        &LaunchGeometry::new(maxpool_grid(c, h, w, k), 32u32),
        &mut failures,
    );
    lint(
        "relu",
        &relu_kernel(256),
        &LaunchGeometry::new(elems_grid(256), 32u32),
        &mut failures,
    );
    for per_row in [false, true] {
        lint(
            &format!("bias(per_row={per_row})"),
            &bias_kernel(16, 16, per_row),
            &LaunchGeometry::new(bias_grid(16, 16), 32u32),
            &mut failures,
        );
    }

    // The transformer-block row-reduction and elementwise kernels
    // (warp-shuffle butterfly reductions, MUFU transcendentals). The
    // row-wise kernels run one warp-wide CTA per row; `cols` both above
    // and below the warp width exercises the strided accumulation loop
    // and the out-of-range clamp lanes.
    for cols in [16usize, 64] {
        let rows = 8u32;
        lint(
            &format!("softmax(c{cols})"),
            &softmax_kernel(cols, 0.25),
            &LaunchGeometry::new(rows, 32u32),
            &mut failures,
        );
        lint(
            &format!("layernorm(c{cols})"),
            &layernorm_kernel(cols, 1e-5),
            &LaunchGeometry::new(rows, 32u32),
            &mut failures,
        );
    }
    lint(
        "gelu",
        &gelu_kernel(256),
        &LaunchGeometry::new(elems_grid(256), 32u32),
        &mut failures,
    );
    lint(
        "add",
        &add_kernel(256),
        &LaunchGeometry::new(elems_grid(256), 32u32),
        &mut failures,
    );

    assert!(
        failures.is_empty(),
        "nn kernels flagged:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_header_is_the_lint_sniff_marker() {
    // tcsim-lint sniffs files by this header when the extension is
    // unusual; keep the constant in sync with the corpus writer.
    assert!(corpus::HEADER.starts_with("// tcsim-check case"));
}

/// Runs the performance lints and formats findings for the golden list.
fn perf_lint(name: &str, kernel: &Kernel, geom: &LaunchGeometry, found: &mut Vec<String>) {
    for d in tcsim_verify::perf::check_perf(kernel, geom) {
        found.push(format!("{name}: {} @{}: {}", d.rule, d.index, d.message));
    }
}

#[test]
fn shipped_kernels_match_pinned_perf_goldens() {
    // The pinned baseline. These are real (if mild) findings, not false
    // positives: the generated SIMT corpus kernels index output stores
    // at a 32-byte lane stride (8 sectors where 4 would do), the shared
    // and CUTLASS GEMMs stage f16 tiles without a swizzle (2-way bank
    // conflicts on the column dimension), and the 64×64 CUTLASS tile's
    // register appetite caps residency on a single-CTA launch.
    let expected: Vec<&str> = vec![
        "seed_mma_sparse.case: global-uncoalesced @22: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @15: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @56: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @59: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @62: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @65: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @68: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_a.case: global-uncoalesced @71: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_b.case: global-uncoalesced @51: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_b.case: global-uncoalesced @54: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_b.case: global-uncoalesced @57: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_b.case: global-uncoalesced @60: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_b.case: global-uncoalesced @63: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_simt_b.case: global-uncoalesced @66: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "seed_wmma_b.case: global-uncoalesced @15: warp touches 32 32-byte sectors where 4 would suffice: global access is uncoalesced (8x the ideal DRAM traffic)",
        "wmma_shared_gemm: shared-bank-conflict @43: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: low-occupancy @0: only 12/64 warps resident per SM (3 CTAs, limited by registers); too few warps to hide ALU and memory latency",
        "cutlass_gemm: shared-bank-conflict @91: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @94: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @97: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @100: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @108: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @111: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @114: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
        "cutlass_gemm: shared-bank-conflict @117: a warp addresses 2 distinct words in one shared-memory bank: this access serializes into 2 conflict passes",
    ];
    let mut found = Vec::new();

    // Committed corpus cases, under their recorded launch geometry.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = case_from_text(&text).unwrap();
        let mut geom = LaunchGeometry::new(case.grid_x, case.block_x);
        geom.gen = case.arch.tensor_gen();
        perf_lint(
            &path.file_name().unwrap().to_string_lossy(),
            &case.kernel,
            &geom,
            &mut found,
        );
    }

    // The GEMM family under a 64×64 problem's launch geometry.
    for kernel in [
        GemmKernel::WmmaSimple,
        GemmKernel::WmmaShared,
        CUTLASS_64X64,
        GemmKernel::Sgemm,
        GemmKernel::Hgemm,
        GemmKernel::IgemmWmma,
    ] {
        let (k, geom) = gemm_64(kernel, false, Epilogue::None);
        perf_lint(k.name(), &k, &geom, &mut found);
    }

    // The nn helper kernels.
    let (c, h, w, k) = (2usize, 8usize, 8usize, 2usize);
    perf_lint(
        "maxpool",
        &maxpool_kernel(c, h, w, k),
        &LaunchGeometry::new(maxpool_grid(c, h, w, k), 32u32),
        &mut found,
    );
    perf_lint(
        "relu",
        &relu_kernel(256),
        &LaunchGeometry::new(elems_grid(256), 32u32),
        &mut found,
    );
    perf_lint(
        "softmax(c64)",
        &softmax_kernel(64, 0.25),
        &LaunchGeometry::new(8u32, 32u32),
        &mut found,
    );
    perf_lint(
        "layernorm(c64)",
        &layernorm_kernel(64, 1e-5),
        &LaunchGeometry::new(8u32, 32u32),
        &mut found,
    );
    perf_lint(
        "gelu",
        &gelu_kernel(256),
        &LaunchGeometry::new(elems_grid(256), 32u32),
        &mut found,
    );

    assert_eq!(
        found, expected,
        "perf findings drifted from the pinned goldens; \
         if the change is intentional, update the golden list"
    );
}
