//! Command-line entry point of the repo benchmark.

use std::path::PathBuf;
use std::process::ExitCode;
use tcsim_perf::compare::{
    baseline_json, compare_sets, exact_mismatches, passes, read_set, render, set_to_json,
    spawn_run, values, Verdict,
};
use tcsim_perf::report::{RunResult, Spec};
use tcsim_perf::runner::Options;
use tcsim_perf::stats::{median, quartile_spread};
use tcsim_perf::{runner, serverun, simwl, tracerun};

/// Timed runs `set` makes of every workload, seeds 1 to this: the ten the
/// acceptance rule takes its quartiles over.
const SET_RUNS: u64 = 10;

const USAGE: &str = "\
usage:
  tcsim-perf run <workload> [--seed N] [--seconds N] [--trace 0|1] [--smoke]
  tcsim-perf trace <workload> [--seed N] [--smoke]      (= run --trace 1)
  tcsim-perf set --out FILE
  tcsim-perf baseline SET.json DIR
  tcsim-perf compare A.json B.json
`run` also takes the workload as `--workload NAME`. The last line `run`
prints is the result object; the lines before it name every metric with
its unit.";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: Vec::new(),
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--smoke" {
            args.smoke = true;
        } else if let Some(name) = a.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            args.flags.push((name.to_string(), value.clone()));
        } else {
            args.positional.push(a.clone());
        }
    }
    Ok(args)
}

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: {v:?} is not a valid number")),
        }
    }
}

fn run(spec: &Spec, args: &Args, force_trace: bool) -> Result<ExitCode, String> {
    let workload = args
        .flag("workload")
        .or(args.positional.first().map(String::as_str))
        .ok_or("run: no workload named")?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            spec.workloads.join(", ")
        ));
    }
    let traced = force_trace
        || match args.flag("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
    let opts = Options {
        seed: args.number("seed", 1u64)?,
        seconds: args.number("seconds", spec.run_seconds as f64)?,
        smoke: args.smoke,
    };
    let seed = opts.seed;
    let smoke = opts.smoke;
    let result: RunResult = if workload == "serve_mix" {
        if traced {
            serverun::traced_run(spec, opts)
        } else {
            serverun::timed_run(spec, opts)
        }
    } else {
        let build: Box<dyn Fn() -> simwl::SimWorkload> = match workload {
            "simt_gemm" => Box::new(move || simwl::simt_gemm(smoke)),
            "wmma_gemm" => Box::new(move || simwl::wmma_gemm(smoke)),
            "mem_chase" => Box::new(move || simwl::mem_chase(smoke)),
            _ => Box::new(move || simwl::nn_zoo(seed, smoke)),
        };
        if traced {
            let models = (workload == "nn_zoo").then(|| simwl::nn_models(seed, smoke));
            tracerun::traced_run(spec, workload, &*build, models.as_deref(), opts)
        } else {
            runner::timed_run(spec, &*build, opts)
        }
    };
    print!("{}", result.table());
    // Failed operations are reported in the result (`correct`, `failed`),
    // not in the exit code: a result line always comes with exit code 0.
    println!("{}", result.json_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload of the contract: [`SET_RUNS`] timed runs (seeds 1 up)
/// and one traced run (seed 1), each `run_seconds` long, each a child
/// process — fixed, so that any two sets are comparable.
fn set(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.flag("out").ok_or("set: --out FILE is required")?);
    let mut records = Vec::new();
    for w in &spec.workloads {
        for seed in 1..=SET_RUNS {
            let r = spawn_run(w, seed, spec.run_seconds, false)?;
            eprintln!("{w} seed {seed}: {:?}", r.result.metrics);
            records.push(r);
        }
        records.push(spawn_run(w, 1, spec.run_seconds, true)?);
        for m in &spec.end_to_end {
            let v = values(&records, w, &m.name, false);
            println!(
                "{w:<10} {:<24} median {:>14.4} {:<6} quartile spread {:>5.1}%  (bound {:.0}%)",
                m.name,
                median(&v),
                m.unit,
                quartile_spread(&v) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    std::fs::write(&out, set_to_json(&records))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let all_correct = records.iter().all(|r| r.result.correct);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn baseline(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let [set, dir] = args.positional.as_slice() else {
        return Err("baseline: name a set file and a directory".into());
    };
    let records = read_set(set.as_ref())?;
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for w in &spec.workloads {
        if records.iter().any(|r| &r.workload == w) {
            let path = dir.join(format!("{w}.json"));
            std::fs::write(&path, baseline_json(spec, &records, w))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn compare(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare: name two set files".into());
    };
    let (a, b) = (read_set(a.as_ref())?, read_set(b.as_ref())?);
    let rows = compare_sets(spec, &a, &b);
    print!("{}", render(&rows));
    let mismatches = exact_mismatches(spec, &a, &b);
    for (w, seed, m) in &mismatches {
        println!("NOT IDENTICAL: {w} seed {seed}: {m}");
    }
    let count = |v: Verdict| rows.iter().filter(|r| !r.derived && r.verdict == v).count();
    println!(
        "{} gated rows: {} regressions, {} missing, {} unresolved; {} exact counts differ or went uncompared",
        rows.iter().filter(|r| !r.derived).count(),
        count(Verdict::Regression),
        count(Verdict::Missing),
        count(Verdict::Unresolved),
        mismatches.len()
    );
    Ok(if passes(&rows, &mismatches) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::embedded();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let outcome = parse_args(rest).and_then(|args| match cmd.as_str() {
        "run" => run(&spec, &args, false),
        "trace" => run(&spec, &args, true),
        "set" => set(&spec, &args),
        "compare" => compare(&spec, &args),
        "baseline" => baseline(&spec, &args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("tcsim-perf: {e}");
        ExitCode::from(64)
    })
}
