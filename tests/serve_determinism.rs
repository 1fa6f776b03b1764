//! The serve-layer acceptance gate: the same job mix executed three ways
//! — serially (no server), by a cold server, and by a warm restarted
//! server — must produce byte-identical `LaunchStats` JSON and output
//! digests per job. This pins the whole cache-key story end to end: if
//! keys collided, the warm pass would serve the wrong bytes; if
//! execution were nondeterministic, the serial and server passes would
//! diverge.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tcsim_check::corpus::case_from_text;
use tcsim_serve::{Client, Event, JobSpec, Request, ServeOptions, Server};

/// The job mix: every committed corpus case.
fn job_mix() -> Vec<JobSpec> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "seed corpus must be committed");
    let mut jobs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read case");
        let case = case_from_text(&text).expect("parse case");
        jobs.push(JobSpec::from_case(&case));
    }
    jobs
}

/// Submits the whole mix as one batch and collects `(id → (stats JSON,
/// output digest, cached))`, failing on any rejection or launch failure.
fn run_on_server(addr: &str, jobs: &[JobSpec]) -> BTreeMap<String, (String, String, bool)> {
    let mut client = Client::connect(addr).expect("connect");
    let pairs: Vec<(String, JobSpec)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (format!("d{i:03}"), j.clone()))
        .collect();
    client
        .send(&Request::Batch { jobs: pairs })
        .expect("batch submit");
    let mut out = BTreeMap::new();
    while out.len() < jobs.len() {
        match client.recv().expect("event") {
            Event::Done {
                id,
                stats_json,
                output_fnv,
                cached,
                ..
            } => {
                out.insert(id, (stats_json, output_fnv, cached));
            }
            Event::Failed { id, reason } => panic!("job {id} failed: {reason}"),
            Event::Rejected { id, reason } => panic!("job {id} rejected: {reason}"),
            _ => {}
        }
    }
    out
}

#[test]
fn serial_cold_and_warm_results_are_byte_identical() {
    let jobs = job_mix();

    // Pass 1: serial, no server involved.
    let serial: Vec<(String, String)> = jobs
        .iter()
        .map(|j| {
            let out = j.run().expect("serial run");
            (out.stats_json, out.output_fnv)
        })
        .collect();

    // Pass 2: cold server with a fresh persistent cache.
    let dir = std::env::temp_dir().join(format!("tcsim-serve-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        cache_dir: Some(dir.clone()),
        workers: 3,
        ..Default::default()
    };
    let server = Server::start("127.0.0.1:0", opts.clone()).expect("cold server");
    let addr = server.local_addr().to_string();
    let cold = run_on_server(&addr, &jobs);
    server.shutdown();

    // Pass 3: restarted server, warm from the on-disk cache.
    let server = Server::start("127.0.0.1:0", opts).expect("warm server");
    assert_eq!(
        server.cache_loaded_from_disk(),
        cold.len(),
        "every distinct result must survive the restart"
    );
    let addr = server.local_addr().to_string();
    let warm = run_on_server(&addr, &jobs);
    let warm_stats = server.stats();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // All three passes byte-identical, job by job.
    assert_eq!(cold.len(), serial.len());
    for (i, (serial_stats, serial_fnv)) in serial.iter().enumerate() {
        let id = format!("d{i:03}");
        let (cold_stats, cold_fnv, _) = &cold[&id];
        let (warm_stats_json, warm_fnv, warm_cached) = &warm[&id];
        assert_eq!(cold_stats, serial_stats, "{id}: cold server != serial");
        assert_eq!(warm_stats_json, serial_stats, "{id}: warm server != serial");
        assert_eq!(cold_fnv, serial_fnv, "{id}: cold output digest != serial");
        assert_eq!(warm_fnv, serial_fnv, "{id}: warm output digest != serial");
        assert!(warm_cached, "{id}: warm pass must be served from the cache");
    }
    assert_eq!(
        warm_stats.cache_misses, 0,
        "the warm pass must not simulate anything"
    );
}
