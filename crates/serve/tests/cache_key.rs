//! Cache-key semantics: equal job content must hash equal (and produce
//! byte-identical stats); any single-field perturbation must hash
//! differently. These tests pin the soundness side (no false sharing)
//! and the dedup side (canonicalization actually merges variants) of
//! the content-addressed cache.

use tcsim_check::oracle::DataKind;
use tcsim_isa::{Dim3, Kernel, KernelBuilder, MemWidth, Operand, SpecialReg};
use tcsim_serve::{ConfigId, InputSpec, JobSpec};
use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder, LaunchStats, SimOptions};
use tcsim_trace::json::{parse, JsonValue};

/// The cache persists `LaunchStats::to_json` verbatim and the protocol
/// re-parses it at every hop, so the text must survive parse →
/// re-serialize byte-identically and agree with the struct on its
/// headline counters. Returns the parsed tree.
fn assert_stats_round_trip(stats: &LaunchStats) -> JsonValue {
    let text = stats.to_json();
    let tree = parse(&text).expect("stats JSON parses");
    assert_eq!(tree.to_json(), text, "stats JSON must round-trip");
    assert_eq!(tree.u64_field("cycles"), Some(stats.cycles));
    assert_eq!(tree.u64_field("instructions"), Some(stats.instructions));
    tree
}

/// `out[tid] = in[tid] + bias` over one warp.
fn add_kernel(bias: i64) -> Kernel {
    let mut b = KernelBuilder::new("key_add");
    let p_in = b.param_u64("in");
    let p_out = b.param_u64("out");
    let src = b.reg_pair();
    b.ld_param(MemWidth::B64, src, p_in);
    let dst = b.reg_pair();
    b.ld_param(MemWidth::B64, dst, p_out);
    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let addr = b.reg_pair();
    b.imad_wide(addr, tid, Operand::Imm(4), src);
    let v = b.reg();
    b.ld_global(MemWidth::B32, v, addr, 0);
    b.iadd(v, v, Operand::Imm(bias));
    let addr2 = b.reg_pair();
    b.imad_wide(addr2, tid, Operand::Imm(4), dst);
    b.st_global(MemWidth::B32, addr2, 0, v);
    b.exit();
    b.build()
}

fn base_spec() -> JobSpec {
    JobSpec {
        kernel: add_kernel(1),
        config: ConfigId::Mini,
        grid: Dim3::x(2),
        block: Dim3::x(32),
        input: InputSpec::Seeded {
            kind: DataKind::Raw,
            seed: 9,
            words: 64,
        },
        out_words: 64,
    }
}

#[test]
fn equal_content_hashes_equal_and_runs_byte_identical() {
    // Two independently constructed, contentwise-equal jobs.
    let a = base_spec();
    let b = base_spec();
    assert_eq!(a.cache_key(), b.cache_key());
    let ra = a.run().expect("run a");
    let rb = b.run().expect("run b");
    assert_eq!(
        ra.stats_json, rb.stats_json,
        "equal keys must imply byte-identical LaunchStats JSON"
    );
    assert_eq!(ra.output_fnv, rb.output_fnv);
}

#[test]
fn textual_kernel_variants_share_a_key() {
    // A kernel that went through emit → parse → (re)emit is the same
    // program; the key hashes the canonical emitted form, so it dedupes.
    let built = base_spec();
    let mut reparsed = base_spec();
    reparsed.kernel =
        tcsim_isa::ptx::parse_kernel(&built.kernel_text()).expect("canonical text parses");
    assert_eq!(built.cache_key(), reparsed.cache_key());
}

#[test]
fn every_single_field_perturbation_changes_the_key() {
    let base = base_spec();
    let base_key = base.cache_key();
    let perturbed: Vec<(&str, JobSpec)> = vec![
        (
            "kernel body",
            JobSpec {
                kernel: add_kernel(2),
                ..base_spec()
            },
        ),
        (
            "grid dim",
            JobSpec {
                grid: Dim3::x(3),
                ..base_spec()
            },
        ),
        (
            "grid shape",
            JobSpec {
                grid: Dim3::new(1, 2, 1),
                ..base_spec()
            },
        ),
        (
            "block dim",
            JobSpec {
                block: Dim3::x(64),
                ..base_spec()
            },
        ),
        (
            "config",
            JobSpec {
                config: ConfigId::MiniTuring,
                ..base_spec()
            },
        ),
        (
            "input seed",
            JobSpec {
                input: InputSpec::Seeded {
                    kind: DataKind::Raw,
                    seed: 10,
                    words: 64,
                },
                ..base_spec()
            },
        ),
        (
            "input size",
            JobSpec {
                input: InputSpec::Seeded {
                    kind: DataKind::Raw,
                    seed: 9,
                    words: 65,
                },
                ..base_spec()
            },
        ),
        (
            "output size",
            JobSpec {
                out_words: 65,
                ..base_spec()
            },
        ),
    ];
    for (what, spec) in perturbed {
        assert_ne!(
            spec.cache_key(),
            base_key,
            "perturbing {what} must change the cache key"
        );
    }
}

#[test]
fn one_input_byte_perturbation_changes_the_key() {
    let mut bytes = base_spec().input.bytes();
    let mut inline = base_spec();
    inline.input = InputSpec::Inline(bytes.clone());
    // Same bytes inline as seeded: same key (dedup across encodings).
    assert_eq!(inline.cache_key(), base_spec().cache_key());
    // One flipped bit in one byte: different key.
    bytes[17] ^= 0x01;
    let mut flipped = base_spec();
    flipped.input = InputSpec::Inline(bytes);
    assert_ne!(flipped.cache_key(), inline.cache_key());
}

#[test]
fn launch_stats_json_round_trips() {
    // Plain launch: no trace summary.
    let spec = base_spec();
    let mut gpu = Gpu::new(SimOptions::new(GpuConfig::mini()));
    let input = spec.input.bytes();
    let in_addr = gpu.alloc(input.len() as u64);
    let out_addr = gpu.alloc(u64::from(spec.out_words) * 4);
    gpu.memcpy_h2d(in_addr, &input);
    let stats = LaunchBuilder::new(spec.kernel.clone())
        .grid(spec.grid)
        .block(spec.block)
        .param_u64(in_addr)
        .param_u64(out_addr)
        .launch(&mut gpu);
    assert_stats_round_trip(&stats);

    // Traced launch: exercises the optional `trace` object too.
    let mut gpu =
        Gpu::new(SimOptions::new(GpuConfig::mini()).tracer(tcsim_trace::RingTracer::new()));
    let in_addr = gpu.alloc(input.len() as u64);
    let out_addr = gpu.alloc(u64::from(spec.out_words) * 4);
    gpu.memcpy_h2d(in_addr, &input);
    let stats = LaunchBuilder::new(spec.kernel.clone())
        .grid(spec.grid)
        .block(spec.block)
        .param_u64(in_addr)
        .param_u64(out_addr)
        .launch(&mut gpu);
    let tree = assert_stats_round_trip(&stats);
    assert!(
        tree.get("trace").is_some(),
        "traced launch must serialize a trace summary"
    );
}
