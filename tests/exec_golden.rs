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
//! The run is cheap (under a second in release) and always compares.
//! After an *intended* behaviour change, rewrite the file with
//!
//! ```text
//! TCSIM_GOLDEN=1 cargo test --test exec_golden
//! ```
//!
//! and review the diff.

use std::path::{Path, PathBuf};
use tcsim_check::corpus::case_from_text;
use tcsim_check::gen::{generate, Arch, GenConfig};
use tcsim_check::oracle::{run_gpu, Case};
use tcsim_serve::fnv128_hex;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=256;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn digest_line(label: &str, case: &Case) -> String {
    let (stats, out) = run_gpu(case);
    format!(
        "{label} out={} stats={}\n",
        fnv128_hex(&out),
        fnv128_hex(stats.to_json().as_bytes())
    )
}

fn regenerate() -> String {
    let mut text = String::from(
        "# tcsim executor golden v1: FNV-1a/128 of the output buffer and of LaunchStats::to_json\n",
    );
    let mut corpus: Vec<PathBuf> = std::fs::read_dir(repo().join("tests/corpus"))
        .expect("tests/corpus is committed")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    corpus.sort();
    for path in &corpus {
        let name = path.file_name().expect("file name").to_string_lossy();
        let src = std::fs::read_to_string(path).expect("readable corpus case");
        let case = case_from_text(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        text.push_str(&digest_line(&format!("corpus {name}"), &case));
    }
    for arch in [Arch::Volta, Arch::Turing, Arch::Ampere] {
        let cfg = GenConfig {
            arch: Some(arch),
            ..GenConfig::default()
        };
        for seed in SEEDS {
            let case = Case::from_program(&generate(seed, &cfg), seed.wrapping_mul(97));
            let label = format!("gen {} {seed}", arch.qualifier());
            text.push_str(&digest_line(&label, &case));
        }
    }
    text
}

#[test]
fn executor_digests_match_the_committed_golden() {
    let path = repo().join("tests/exec_golden.txt");
    let got = regenerate();
    if std::env::var("TCSIM_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write tests/exec_golden.txt");
        eprintln!("rewrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed golden {}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "tests/exec_golden.txt diverges at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "tests/exec_golden.txt changed length"
    );
}
