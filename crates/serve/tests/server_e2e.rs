//! End-to-end server tests over real TCP connections: submit/complete,
//! cache hits, batch dedup, admission-control rejections, launch
//! failures, and warm restart from the persistent cache.

use std::path::PathBuf;
use tcsim_check::oracle::DataKind;
use tcsim_isa::{Dim3, Kernel, KernelBuilder, MemWidth, Operand, SpecialReg};
use tcsim_serve::{Client, ConfigId, Event, InputSpec, JobSpec, Request, ServeOptions, Server};

fn add_kernel(bias: i64) -> Kernel {
    let mut b = KernelBuilder::new("e2e_add");
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

fn spec(bias: i64) -> JobSpec {
    JobSpec {
        kernel: add_kernel(bias),
        config: ConfigId::Mini,
        grid: Dim3::x(1),
        block: Dim3::x(32),
        input: InputSpec::Seeded {
            kind: DataKind::Raw,
            seed: 5,
            words: 32,
        },
        out_words: 32,
    }
}

fn start(opts: ServeOptions) -> (Server, String) {
    let server = Server::start("127.0.0.1:0", opts).expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcsim-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn submit_completes_and_repeat_hits_the_cache() {
    let (server, addr) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");

    let serial = spec(1).run().expect("serial run");
    let first = client.run("a1", spec(1)).expect("first run");
    let Event::Done {
        cached,
        stats_json,
        output_fnv,
        ..
    } = &first
    else {
        panic!("expected done, got {first:?}");
    };
    assert!(!cached, "cold submit must compute");
    assert_eq!(
        stats_json, &serial.stats_json,
        "server == serial, byte-identical"
    );
    assert_eq!(output_fnv, &serial.output_fnv);

    let second = client.run("a2", spec(1)).expect("second run");
    let Event::Done {
        cached, stats_json, ..
    } = &second
    else {
        panic!("expected done, got {second:?}");
    };
    assert!(cached, "identical resubmit must be served from the cache");
    assert_eq!(
        stats_json, &serial.stats_json,
        "cached == computed, byte-identical"
    );

    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.jobs_done, 2);
    server.shutdown();
}

#[test]
fn batch_with_duplicates_simulates_each_distinct_job_once() {
    let (server, addr) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    // Four submissions, two distinct jobs: the duplicates must coalesce
    // onto the in-flight twin or hit the cache — never re-simulate.
    let jobs = vec![
        ("b1".to_string(), spec(1)),
        ("b2".to_string(), spec(2)),
        ("b1dup".to_string(), spec(1)),
        ("b2dup".to_string(), spec(2)),
    ];
    client.send(&Request::Batch { jobs }).expect("batch");
    let mut done = std::collections::HashMap::new();
    while done.len() < 4 {
        match client.recv().expect("event") {
            Event::Done { id, stats_json, .. } => {
                done.insert(id, stats_json);
            }
            Event::Failed { id, reason } => panic!("job {id} failed: {reason}"),
            Event::Rejected { id, reason } => panic!("job {id} rejected: {reason}"),
            _ => {}
        }
    }
    assert_eq!(
        done["b1"], done["b1dup"],
        "duplicate completions byte-identical"
    );
    assert_eq!(done["b2"], done["b2dup"]);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.cache_misses, 2, "two distinct jobs, two simulations");
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        2,
        "two dedup'd submissions"
    );
    server.shutdown();
}

#[test]
fn each_job_sees_accepted_then_running_then_done() {
    let (server, addr) = start(ServeOptions {
        quota: 1024,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // Back-to-back submits, no waiting: twenty distinct jobs submitted
    // ten times each, so later copies coalesce onto a queued or running
    // twin or hit the cache once it is done.
    let mut ids = Vec::new();
    for round in 0..10 {
        for bias in 0..20 {
            let id = format!("r{round}b{bias}");
            client
                .send(&Request::Submit {
                    id: id.clone(),
                    job: spec(100 + bias),
                })
                .expect("submit");
            ids.push(id);
        }
    }
    let mut events: std::collections::HashMap<String, Vec<Event>> = Default::default();
    let mut done = 0;
    while done < ids.len() {
        let ev = client.recv().expect("event");
        let id = match &ev {
            Event::Accepted { id, .. } | Event::Running { id } => id.clone(),
            Event::Done { id, .. } => {
                done += 1;
                id.clone()
            }
            other => panic!("unexpected event {other:?}"),
        };
        events.entry(id).or_default().push(ev);
    }
    for id in &ids {
        let seq = &events[id];
        let Some(Event::Accepted { coalesced, .. }) = seq.first() else {
            panic!("{id}: first event is not accepted: {seq:?}");
        };
        let Some(Event::Done { cached, .. }) = seq.last() else {
            panic!("{id}: last event is not done: {seq:?}");
        };
        let running = seq.iter().filter(|e| matches!(e, Event::Running { .. }));
        match running.count() {
            // Only a job that ran its own simulation is sure to be told.
            0 => assert!(*coalesced || *cached, "{id}: ran without running: {seq:?}"),
            1 => assert_eq!(seq.len(), 3, "{id}: {seq:?}"),
            n => panic!("{id}: {n} running events: {seq:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_explicit_reason() {
    // max_pending = 0: no job can wait, every miss is turned away.
    let (server, addr) = start(ServeOptions {
        max_pending: 0,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let ev = client.run("q1", spec(1)).expect("submit");
    let Event::Rejected { reason, .. } = &ev else {
        panic!("expected rejection, got {ev:?}");
    };
    assert_eq!(reason, "queue-full");
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.jobs_done, 0);
    server.shutdown();
}

#[test]
fn exhausted_quota_rejects_with_explicit_reason() {
    // quota = 0: the connection may never have a job in flight.
    let (server, addr) = start(ServeOptions {
        quota: 0,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let ev = client.run("z1", spec(1)).expect("submit");
    let Event::Rejected { reason, .. } = &ev else {
        panic!("expected rejection, got {ev:?}");
    };
    assert_eq!(reason, "quota-exceeded");
    server.shutdown();
}

#[test]
fn invalid_jobs_are_rejected_not_crashed() {
    let (server, addr) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let mut bad = spec(1);
    bad.out_words = 0;
    let ev = client.run("v1", bad).expect("submit");
    assert!(
        matches!(&ev, Event::Rejected { reason, .. } if reason.starts_with("bad-job")),
        "expected bad-job rejection, got {ev:?}"
    );
    // The connection and server survive; a good job still completes.
    let ev = client.run("v2", spec(1)).expect("submit good");
    assert!(matches!(ev, Event::Done { .. }));
    server.shutdown();
}

#[test]
fn failed_launches_report_failed_events() {
    let (server, addr) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    // Structurally valid job, but the block exceeds the hardware CTA
    // limit — admission passes, the launch itself must fail.
    let mut bad = spec(1);
    bad.block = Dim3::x(4096);
    let ev = client.run("f1", bad).expect("submit");
    let Event::Failed { reason, .. } = &ev else {
        panic!("expected failure, got {ev:?}");
    };
    assert!(!reason.is_empty());
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.failed, 1);
    // Server still healthy.
    let ev = client.run("f2", spec(1)).expect("submit good");
    assert!(matches!(ev, Event::Done { .. }));
    server.shutdown();
}

#[test]
fn restart_serves_warm_hits_from_the_persistent_cache() {
    let dir = tmp_dir("warm");
    let opts = ServeOptions {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let (cold_stats_json, cold_fnv);
    {
        let (server, addr) = start(opts.clone());
        assert_eq!(server.cache_loaded_from_disk(), 0);
        let mut client = Client::connect(&addr).expect("connect");
        let ev = client.run("w1", spec(7)).expect("cold run");
        let Event::Done {
            cached,
            stats_json,
            output_fnv,
            ..
        } = ev
        else {
            panic!("expected done");
        };
        assert!(!cached);
        cold_stats_json = stats_json;
        cold_fnv = output_fnv;
        server.shutdown();
    }
    {
        let (server, addr) = start(opts);
        assert_eq!(
            server.cache_loaded_from_disk(),
            1,
            "result survived restart"
        );
        let mut client = Client::connect(&addr).expect("connect");
        let ev = client.run("w2", spec(7)).expect("warm run");
        let Event::Done {
            cached,
            stats_json,
            output_fnv,
            ..
        } = ev
        else {
            panic!("expected done");
        };
        assert!(cached, "restarted server must serve the persisted result");
        assert_eq!(stats_json, cold_stats_json, "byte-identical across restart");
        assert_eq!(output_fnv, cold_fnv);
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_shutdown_stops_the_server() {
    let (server, addr) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown_server().expect("send shutdown");
    // join() returns only once both service threads exited.
    server.join();
}
