//! Inference-report golden: digests of `InferenceReport::to_json` for the
//! four `nn_zoo` networks, frozen in `tests/nn_report_golden.txt`.
//!
//! The report carries every stage's cycle and instruction count, its
//! `max_err` against the host reference and the final activation, both to
//! six decimals, so one digest pins the simulated launches, the host
//! reference arithmetic, the operand staging and the JSON writer at once.
//! `nn_zoo` compares a pass's report only against an earlier pass of the
//! same build; this file is the witness across builds.
//!
//! The run always compares. After an *intended* behaviour change, rewrite
//! the file with
//!
//! ```text
//! TCSIM_GOLDEN=1 cargo test --test nn_report_golden
//! ```
//!
//! and review the diff.

use std::path::Path;
use tcsim_nn::models::{encoder, input_for, lenet, mlp};
use tcsim_nn::{run_chained, run_parallel, Graph};
use tcsim_sim::GpuConfig;
use tcsim_trace::hash::fnv128_hex;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=3;

/// The `nn_zoo` units, as `tcsim-perf` builds them.
fn zoo(seed: u64) -> [(&'static str, Graph); 4] {
    [
        ("lenet", lenet(seed)),
        ("mlp", mlp(seed)),
        ("encoder_b1", encoder(seed, 1)),
        ("encoder_b4", encoder(seed, 4)),
    ]
}

fn regenerate() -> String {
    let mut text = String::from(
        "# tcsim inference-report golden v1: FNV-1a/128 of InferenceReport::to_json on GpuConfig::titan_v()\n",
    );
    for seed in SEEDS {
        for (name, net) in zoo(seed) {
            let input = input_for(&net, seed);
            let report = run_chained(&net, &input, GpuConfig::titan_v(), false);
            report.assert_within_tolerance();
            text.push_str(&format!(
                "chained {name} seed {seed} report={}\n",
                fnv128_hex(report.to_json().as_bytes())
            ));
        }
    }
    let net = encoder(1, 1);
    let report = run_parallel(&net, &input_for(&net, 1), GpuConfig::titan_v(), false, 2);
    report.assert_within_tolerance();
    text.push_str(&format!(
        "parallel encoder_b1 seed 1 report={}\n",
        fnv128_hex(report.to_json().as_bytes())
    ));
    // Traced runs add each launch's HMMA occupancy to the report: a
    // single-launch layer's own trace window, and a batched composite
    // stage's cycle-weighted mean over its launches.
    for (name, net) in zoo(1) {
        let report = run_chained(&net, &input_for(&net, 1), GpuConfig::titan_v(), true);
        report.assert_within_tolerance();
        text.push_str(&format!(
            "chained-traced {name} seed 1 report={}\n",
            fnv128_hex(report.to_json().as_bytes())
        ));
    }
    let report = run_parallel(&net, &input_for(&net, 1), GpuConfig::titan_v(), true, 2);
    report.assert_within_tolerance();
    text.push_str(&format!(
        "parallel-traced encoder_b1 seed 1 report={}\n",
        fnv128_hex(report.to_json().as_bytes())
    ));
    text
}

#[test]
fn inference_report_digests_match_the_committed_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/nn_report_golden.txt");
    let got = regenerate();
    if std::env::var("TCSIM_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write tests/nn_report_golden.txt");
        eprintln!("rewrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed golden {}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "tests/nn_report_golden.txt diverges at line {}",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "tests/nn_report_golden.txt changed length"
    );
}
