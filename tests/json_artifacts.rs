//! The JSON writer and the JSON parser agree on everything the workspace
//! ships: every committed artifact the writer produced, and one of each
//! kind of value the programs emit, parses and re-serializes to exactly
//! the bytes it was read from.
//!
//! The parser keeps number tokens verbatim and object keys in source
//! order, so for compact writer output `parse(text)?.to_json() == text`
//! is the contract the serve cache, the wire protocol and `tcsim-perf`
//! all rely on.

use std::path::Path;
use tcsim::cutlass::{run_gemm, GemmKernel, GemmProblem};
use tcsim::sim::{Gpu, GpuConfig, SimOptions};
use tcsim::trace::RingTracer;
use tcsim_check::corpus::case_from_text;
use tcsim_nn::{InferenceReport, LayerReport};
use tcsim_serve::{Event, InputSpec, JobSpec, Request, ServerStats};
use tcsim_trace::json::{parse, validate_json};

fn assert_round_trips(what: &str, text: &str) {
    let back = parse(text)
        .unwrap_or_else(|e| panic!("{what} does not parse: {e}"))
        .to_json();
    if back != text {
        let at = back
            .bytes()
            .zip(text.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(back.len().min(text.len()));
        panic!(
            "{what} changed at byte {at} of {}: re-serialized {} bytes",
            text.len(),
            back.len()
        );
    }
}

#[test]
fn committed_artifacts_round_trip() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for name in [
        "fig14a.json",
        "nn_smoke_golden.json",
        "nn_inference.json",
        "BENCH_infer.json",
        "BENCH_model_corr.json",
        "tcsim_infer.json",
        "prof_gemm64.trace.json",
        "BENCH_serve.json",
    ] {
        let path = results.join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        // tcsim-loadgen writes its report line with a trailing newline.
        let text = text.strip_suffix('\n').unwrap_or(&text);
        assert_round_trips(name, text);
    }
}

#[test]
fn launch_stats_round_trip_traced_and_untraced() {
    for traced in [false, true] {
        let opts = SimOptions::new(GpuConfig::mini());
        let mut gpu = Gpu::new(if traced {
            opts.tracer(RingTracer::with_capacity(1 << 16))
        } else {
            opts
        });
        let run = run_gemm(
            &mut gpu,
            GemmProblem::square(32),
            GemmKernel::WmmaShared,
            false,
        );
        assert_eq!(run.stats.trace.is_some(), traced);
        let json = run.stats.to_json();
        assert_eq!(json.contains("\"trace\":{"), traced);
        assert_round_trips("LaunchStats", &json);
    }
}

#[test]
fn inference_report_with_non_finite_output_round_trips() {
    let layer = |name: &str, occupancy: Option<f64>| LayerReport {
        name: name.into(),
        kernel: "wmma \"tc\"\\gemm".into(),
        dims: "64×64×64".into(),
        cycles: 1234,
        instructions: 567,
        hmma_occupancy: occupancy,
        max_err: 0.001,
        tolerance: 0.01,
    };
    let report = InferenceReport {
        network: "net\twith\u{1}controls".into(),
        mode: "chained".into(),
        layers: vec![layer("fc1", Some(0.25)), layer("reshape", None)],
        output: vec![1.5, f32::NAN, f32::INFINITY, -0.125, f32::NEG_INFINITY],
    };
    let json = report.to_json();
    assert!(json.contains("\"hmma_occupancy\":null"));
    assert!(json.contains("\"output\":[1.500000,null,null,-0.125000,null]"));
    assert_round_trips("InferenceReport", &json);
}

fn corpus_job() -> JobSpec {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/seed_simt_a.case"),
    )
    .expect("read corpus case");
    JobSpec::from_case(&case_from_text(&text).expect("corpus case parses"))
}

#[test]
fn every_wire_line_kind_round_trips() {
    let seeded = corpus_job();
    let mut inline = corpus_job();
    inline.input = InputSpec::Inline((0..=255).collect());
    let stats_json = seeded.run().expect("corpus job runs").stats_json;
    let requests = [
        Request::Submit {
            id: "j\"1".into(),
            job: seeded.clone(),
        },
        Request::Batch {
            jobs: vec![("a".into(), seeded), ("b\\".into(), inline)],
        },
        Request::Batch { jobs: Vec::new() },
        Request::Stats,
        Request::Shutdown,
    ];
    let events = [
        Event::Accepted {
            id: "j1".into(),
            key: "a".repeat(32),
            coalesced: true,
        },
        Event::Rejected {
            id: "j2".into(),
            reason: "queue-full".into(),
        },
        Event::Running { id: "j3".into() },
        Event::Done {
            id: "j4".into(),
            key: "b".repeat(32),
            cached: false,
            output_fnv: "c".repeat(32),
            latency_us: 12345,
            stats_json,
        },
        Event::Failed {
            id: "j5".into(),
            reason: "boom\nline 2\u{7}".into(),
        },
        Event::Stats(ServerStats {
            jobs_done: 7,
            cache_hits: 3,
            ..Default::default()
        }),
    ];
    let lines = requests
        .iter()
        .map(Request::to_line)
        .chain(events.iter().map(Event::to_line));
    for line in lines {
        assert!(!line.contains('\n'), "a wire line holds no newline: {line}");
        assert_round_trips(&line, &line);
    }
}

#[test]
fn validate_json_rejects_what_the_parser_always_rejected() {
    // `validate_json` is `parse` with the tree dropped, so it rejects a
    // duplicate key and a lone surrogate: each is well-formed syntax, but
    // neither has one meaning as a tree.
    for bad in [r#"{"k":1,"k":2}"#, r#""\ud800""#, r#""\udc00x""#] {
        assert!(parse(bad).is_err(), "parse accepted {bad}");
        assert!(validate_json(bad).is_err(), "validate_json accepted {bad}");
    }
    validate_json(r#"{"k":1,"K":2,"s":"\ud83d\ude00"}"#).expect("a valid pair and distinct keys");
}
