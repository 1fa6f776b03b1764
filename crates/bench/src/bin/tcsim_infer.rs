//! Request-stream serving benchmark over the simulated encoder block.
//!
//! Drives `tcsim-infer`: a seeded open-loop Poisson request stream is
//! served under dynamic-batching policies, with every batch charged the
//! cycle cost of the transformer encoder block at that batch size as
//! simulated (and differentially checked) by `tcsim-nn`. Per run it
//! reports the latency distribution (p50/p90/p99, power-of-two
//! histogram — the Fig. 15 shape of the serving literature) and sweeps
//! the offered load for the throughput-vs-load curve (the Fig. 16
//! shape), plus KV-cache admission pressure and the per-batch block
//! costs actually simulated.
//!
//! Flags: `--json <path>` (machine-readable report), `--smoke` (small
//! fixed workload — the CI golden), `--seed <n>`, `--requests <n>`,
//! `--rates <r1,r2,...>` (requests per Mcycle), `--policy
//! static|continuous|both`, `--max-batch <n>`, `--window <cycles>`,
//! `--kv-seqs <n>` (KV capacity in sequences, 0 = unbounded).

use tcsim_bench::{fnum, print_table, write_results};
use tcsim_infer::{rate_sweep, CostModel, KvCache, Policy, ServingReport};
use tcsim_sim::GpuConfig;
use tcsim_trace::json::{validate_json, JsonWriter};

struct Args {
    json: Option<String>,
    smoke: bool,
    seed: u64,
    requests: usize,
    rates: Vec<f64>,
    policy: String,
    max_batch: usize,
    window: u64,
    kv_seqs: u64,
}

fn parse_args() -> Args {
    let mut out = Args {
        json: None,
        smoke: false,
        seed: 1,
        requests: 200,
        // The mini-GPU encoder block sustains roughly 50-65 requests per
        // Mcycle depending on achieved batch size; the sweep straddles
        // that knee so the throughput-vs-load curve shows both the
        // linear regime and saturation.
        rates: vec![10.0, 20.0, 40.0, 80.0, 160.0, 320.0],
        policy: "both".into(),
        max_batch: 4,
        window: 1500,
        kv_seqs: 12,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match a.as_str() {
            "--json" => out.json = Some(val("--json")),
            "--smoke" => out.smoke = true,
            "--seed" => out.seed = val("--seed").parse().expect("--seed: integer"),
            "--requests" => out.requests = val("--requests").parse().expect("--requests: integer"),
            "--rates" => {
                out.rates = val("--rates")
                    .split(',')
                    .map(|r| r.trim().parse().expect("--rates: comma-separated floats"))
                    .collect();
            }
            "--policy" => out.policy = val("--policy"),
            "--max-batch" => {
                out.max_batch = val("--max-batch").parse().expect("--max-batch: integer");
            }
            "--window" => out.window = val("--window").parse().expect("--window: integer"),
            "--kv-seqs" => out.kv_seqs = val("--kv-seqs").parse().expect("--kv-seqs: integer"),
            other => panic!("unknown flag {other}"),
        }
    }
    if out.smoke {
        // The CI golden: small, fixed, fast. Overrides any tuning flags
        // so the artifact is always comparable.
        out.seed = 1;
        out.requests = 48;
        out.rates = vec![20.0, 240.0]; // one under-loaded, one saturated
        out.policy = "both".into();
        out.max_batch = 4;
        out.window = 1500;
        out.kv_seqs = 6;
    }
    out
}

fn policies(args: &Args) -> Vec<Policy> {
    let stat = Policy::Static {
        max_batch: args.max_batch,
        window_cycles: args.window,
    };
    let cont = Policy::Continuous {
        max_batch: args.max_batch,
    };
    match args.policy.as_str() {
        "static" => vec![stat],
        "continuous" => vec![cont],
        "both" => vec![stat, cont],
        other => panic!("--policy must be static|continuous|both, got {other}"),
    }
}

fn run_table(runs: &[ServingReport]) {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fnum(r.rate_per_mcycle, 0),
                r.completed().to_string(),
                r.rejected.to_string(),
                r.percentile(50.0).to_string(),
                r.percentile(99.0).to_string(),
                fnum(r.mean_batch(), 2),
                fnum(r.throughput_per_mcycle(), 1),
                r.kv_peak_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "serving runs",
        &[
            "policy",
            "req/Mcyc",
            "done",
            "rej",
            "p50 cyc",
            "p99 cyc",
            "batch",
            "tput/Mcyc",
            "kv peak B",
        ],
        &rows,
    );
}

fn main() {
    let args = parse_args();
    let cfg = GpuConfig::mini();
    let kv = if args.kv_seqs == 0 {
        KvCache::unbounded()
    } else {
        KvCache::for_encoder(args.kv_seqs)
    };
    let mut cost = CostModel::new(cfg, args.seed);

    println!(
        "tcsim-infer: encoder serving on simulated mini GPU (seed {}, {} requests/run, \
         max batch {}, window {} cyc, kv {} B/seq cap {})",
        args.seed,
        args.requests,
        args.max_batch,
        args.window,
        kv.bytes_per_seq,
        if kv.capacity_bytes == u64::MAX {
            "unbounded".into()
        } else {
            kv.capacity_bytes.to_string()
        },
    );

    let mut runs: Vec<ServingReport> = Vec::new();
    for policy in policies(&args) {
        runs.extend(rate_sweep(
            &mut cost,
            args.seed,
            args.requests,
            &args.rates,
            &policy,
            &kv,
        ));
    }
    run_table(&runs);

    // The block costs the serving loop actually charged. Every distinct
    // batch size was simulated exactly once; everything else hit the
    // content-hash cache.
    let mut batches: Vec<usize> = runs
        .iter()
        .flat_map(|r| r.batch_sizes.iter().copied())
        .collect();
    batches.sort_unstable();
    batches.dedup();
    let cost_rows: Vec<Vec<String>> = batches
        .iter()
        .map(|&b| {
            let c = cost.block_cost(b);
            vec![
                b.to_string(),
                c.cycles.to_string(),
                c.instructions.to_string(),
            ]
        })
        .collect();
    print_table(
        "block costs (one simulation per batch size)",
        &["batch", "cycles", "instructions"],
        &cost_rows,
    );
    println!(
        "{} serving runs costed by {} block simulations ({} distinct shapes)",
        runs.len(),
        cost.sim_invocations(),
        cost.distinct_shapes()
    );
    assert_eq!(
        cost.sim_invocations() as usize,
        cost.distinct_shapes(),
        "every simulation must correspond to a distinct memoized shape"
    );

    if let Some(path) = &args.json {
        let mut w = JsonWriter::object();
        w.field_str("schema", "tcsim-infer-v1");
        w.field_str("config", "mini");
        w.field_str("model", "encoder");
        w.field_u64("seed", args.seed);
        w.field_u64("requests", args.requests as u64);
        w.key("block_costs").begin_array();
        for &b in &batches {
            let c = cost.block_cost(b);
            w.begin_object();
            w.field_u64("batch", b as u64);
            w.field_u64("cycles", c.cycles);
            w.field_u64("instructions", c.instructions);
            w.field_str("key", &cost.shape_key(b));
            w.end_object();
        }
        w.end_array();
        w.field_u64("sim_invocations", cost.sim_invocations());
        w.key("runs").begin_array();
        for r in &runs {
            r.write_json(&mut w);
        }
        w.end_array();
        let json = w.finish();
        validate_json(&json).expect("report JSON must validate");
        write_results(path, &json);
    }
}
