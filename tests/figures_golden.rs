//! Golden-artifact gate: regenerates every committed artifact that a
//! `tcsim-bench` binary writes and byte-compares it with the file in
//! `results/`. A silent drift in the model would otherwise only show up
//! the next time someone regenerates a figure by hand.
//!
//! Each row of [`ROWS`] is one run of one binary, and the row is also
//! the recipe for regenerating its artifacts by hand: the run's stdout
//! is the committed `.txt`, and the file it writes (under
//! `target/golden/`, never `results/`) is the committed `.json`. Every
//! run must also exit zero, so the binaries' own checks run here too:
//! `tcsim-model`'s ≥ 0.9 log-correlation floor, `tcsim-prof`'s HMMA-event
//! and valid-JSON asserts, `nn_inference`'s chained-vs-parallel cycle
//! equality, and each figure's paper-shape asserts.
//!
//! Three committed measurements are host timings that no binary
//! regenerates, so they are not pinned here:
//! `results/BENCH_core_speedup.json`, `results/BENCH_perf_trajectory.json`
//! and `results/BENCH_serve.json`.
//!
//! The regeneration builds release binaries and takes about two minutes
//! of simulation (Fig 16 alone over one), so the test is **opt-in**: it
//! runs only with `TCSIM_GOLDEN=1` (CI sets it; a plain `cargo test`
//! skips it instantly).
//!
//! ```text
//! TCSIM_GOLDEN=1 cargo test --test figures_golden
//! ```

use std::path::Path;
use std::process::Command;

/// One run of a `tcsim-bench` binary and the committed artifacts it
/// reproduces.
struct Row {
    bin: &'static str,
    args: &'static [&'static str],
    /// The committed file its stdout must equal.
    stdout: Option<&'static str>,
    /// `(flag, committed file)`: the run is passed `flag` and a path
    /// under `target/golden/`, and the file written there must equal the
    /// committed one.
    written: Option<(&'static str, &'static str)>,
}

const fn stdout(bin: &'static str, golden: &'static str) -> Row {
    Row {
        bin,
        args: &[],
        stdout: Some(golden),
        written: None,
    }
}

const fn written(
    bin: &'static str,
    args: &'static [&'static str],
    flag: &'static str,
    golden: &'static str,
) -> Row {
    Row {
        bin,
        args,
        stdout: None,
        written: Some((flag, golden)),
    }
}

const ROWS: &[Row] = &[
    stdout("table1_turing_latency", "results/table1.txt"),
    stdout("table2_octets", "results/table2.txt"),
    stdout("table3_steps", "results/table3.txt"),
    stdout("fig07_mapping", "results/fig07.txt"),
    stdout("fig08_mapping", "results/fig08.txt"),
    stdout("fig09_hmma_latency", "results/fig09.txt"),
    stdout("fig12c_warp_scaling", "results/fig12c.txt"),
    Row {
        bin: "fig14a_gemm_cycles",
        args: &[],
        stdout: Some("results/fig14a.txt"),
        written: Some(("--json", "results/fig14a.json")),
    },
    stdout("fig14b_ipc_correlation", "results/fig14b.txt"),
    stdout("fig14c_cutlass_scaling", "results/fig14c.txt"),
    stdout("fig15_latency_distribution", "results/fig15.txt"),
    stdout("fig16_latency_vs_size", "results/fig16.txt"),
    stdout("fig17_tflops", "results/fig17.txt"),
    stdout("ablation", "results/ablation.txt"),
    stdout("turing_inference", "results/turing_inference.txt"),
    written(
        "nn_inference",
        &["--smoke"],
        "--json",
        "results/nn_smoke_golden.json",
    ),
    written("nn_inference", &[], "--json", "results/nn_inference.json"),
    written("tcsim-infer", &[], "--json", "results/tcsim_infer.json"),
    written(
        "tcsim-infer",
        &["--smoke"],
        "--json",
        "results/BENCH_infer.json",
    ),
    written(
        "tcsim-model",
        &[],
        "--json",
        "results/BENCH_model_corr.json",
    ),
    written("tcsim-prof", &[], "--out", "results/prof_gemm64.trace.json"),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn gated() -> bool {
    std::env::var("TCSIM_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Runs a tcsim-bench binary through cargo (release, quiet) from the
/// repository root and returns its stdout.
fn bench_stdout(bin: &str, args: &[String]) -> Vec<u8> {
    let out = Command::new(env!("CARGO"))
        .current_dir(repo())
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "tcsim-bench",
            "--bin",
            bin,
            "--",
        ])
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Compares regenerated bytes with a committed golden file; on a
/// mismatch, describes the first divergence, naming the file.
fn divergence(got: &[u8], golden: &str) -> Option<String> {
    let want = std::fs::read(repo().join(golden))
        .unwrap_or_else(|e| panic!("cannot read committed golden {golden}: {e}"));
    if got == want.as_slice() {
        return None;
    }
    let at = got
        .iter()
        .zip(&want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    let line = want[..at].iter().filter(|&&b| b == b'\n').count() + 1;
    let excerpt = |b: &[u8]| {
        String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 80).min(b.len())]).into_owned()
    };
    Some(format!(
        "{golden} diverges at line {line} (byte {at}; regenerated {} bytes, committed {}):\n  \
         regenerated: {:?}\n  committed:   {:?}",
        got.len(),
        want.len(),
        excerpt(got),
        excerpt(&want)
    ))
}

#[test]
fn committed_tables_and_figures_are_current() {
    if !gated() {
        eprintln!("skipped: set TCSIM_GOLDEN=1 to regenerate and diff the committed artifacts");
        return;
    }
    std::fs::create_dir_all(repo().join("target/golden")).expect("create target/golden");

    let mut failures = Vec::new();
    for row in ROWS {
        let mut args: Vec<String> = row.args.iter().map(|a| a.to_string()).collect();
        let written = row.written.map(|(flag, golden)| {
            let path = Path::new("target/golden").join(Path::new(golden).file_name().unwrap());
            let _ = std::fs::remove_file(repo().join(&path));
            args.push(flag.to_string());
            args.push(path.to_str().expect("utf-8 path").to_string());
            (repo().join(path), golden)
        });
        let out = bench_stdout(row.bin, &args);
        if let Some(golden) = row.stdout {
            failures.extend(divergence(&out, golden));
        }
        if let Some((path, golden)) = written {
            let got = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("{} must write {}: {e}", row.bin, path.display()));
            failures.extend(divergence(&got, golden));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
