//! End-to-end DNN inference on the simulated tensor cores: a LeNet-style
//! convnet and a 3-layer MLP lowered through `tcsim-nn` (implicit-GEMM
//! convolution, fused bias+ReLU epilogues, dedicated elementwise
//! kernels), with every layer differentially checked against the host
//! f32 reference.
//!
//! Per layer it reports simulated cycles, IPC, HMMA-pipe occupancy (from
//! the per-launch trace window) and the device-vs-reference error. The
//! chained schedule runs all launches in dependency order on one GPU;
//! the same plan is then re-run through the parallel sweep engine
//! (reference-fed layer inputs break the dependence) to confirm the
//! per-launch cycle counts are schedule-independent.
//!
//! Flags: `--json <path>` (machine-readable report), `--threads <n>`
//! (sweep workers), `--smoke` (tiny fixed-seed net only — the CI golden).

use tcsim_bench::{fnum, parse_cli, print_table, write_results};
use tcsim_nn::{models, run_chained, run_parallel, Graph, InferenceReport, Tensor};
use tcsim_sim::GpuConfig;
use tcsim_trace::json::{validate_json, JsonWriter};

const SEED: u64 = 42;

fn layer_table(report: &InferenceReport) {
    let rows: Vec<Vec<String>> = report
        .layers
        .iter()
        .map(|l| {
            vec![
                l.name.clone(),
                l.kernel.clone(),
                l.dims.clone(),
                l.cycles.to_string(),
                if l.cycles == 0 {
                    "-".into()
                } else {
                    fnum(l.ipc(), 2)
                },
                match l.hmma_occupancy {
                    Some(o) => fnum(o * 100.0, 1),
                    None => "-".into(),
                },
                format!("{:.2e}/{:.2e}", l.max_err, l.tolerance),
            ]
        })
        .collect();
    print_table(
        &format!("{} ({} mode)", report.network, report.mode),
        &[
            "layer", "kernel", "problem", "cycles", "IPC", "HMMA%", "err/tol",
        ],
        &rows,
    );
    println!(
        "{}: {} launches, {} total cycles, worst err {:.0}% of tolerance",
        report.network,
        report.layers.iter().filter(|l| l.kernel != "host").count(),
        report.total_cycles(),
        report.worst_rel_err() * 100.0
    );
}

fn run_net(graph: &Graph, input: &Tensor, cfg: &GpuConfig, threads: usize) -> InferenceReport {
    let chained = run_chained(graph, input, cfg.clone(), true);
    chained.assert_within_tolerance();
    layer_table(&chained);

    // Same plan through the sweep engine: per-layer parallelism with
    // reference-fed inputs. Launch boundaries are cold, so every layer
    // must cost exactly what it cost in the chained schedule.
    let parallel = run_parallel(graph, input, cfg.clone(), false, threads);
    parallel.assert_within_tolerance();
    for (c, p) in chained.layers.iter().zip(&parallel.layers) {
        assert_eq!(
            c.cycles, p.cycles,
            "{}: layer {} cycles diverge between schedules",
            graph.name, c.name
        );
    }
    println!("parallel sweep ({threads} threads): per-layer cycles identical to chained schedule");
    chained
}

fn main() {
    let cli = parse_cli();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = GpuConfig::titan_v();

    let nets: Vec<Graph> = if smoke {
        vec![models::tiny(SEED)]
    } else {
        vec![models::lenet(SEED), models::mlp(SEED)]
    };
    println!(
        "nn_inference: {} on simulated Titan V (seed {SEED})",
        nets.iter()
            .map(|g| g.name.as_str())
            .collect::<Vec<_>>()
            .join(" + ")
    );

    let mut reports = JsonWriter::array();
    for net in &nets {
        let input = models::input_for(net, SEED);
        run_net(net, &input, &cfg, cli.threads).write_json(&mut reports);
    }
    if let Some(path) = &cli.json {
        let json = reports.finish();
        validate_json(&json).expect("report JSON must validate");
        write_results(path, &json);
    }
    println!("\nall layers within tolerance of the f32 reference");
}
