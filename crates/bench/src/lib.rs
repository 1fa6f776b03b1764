//! Shared support for the experiment binaries that regenerate every table
//! and figure of the paper (see `DESIGN.md` §2 for the index, and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results).

#![forbid(unsafe_code)]

use tcsim_cutlass::{run_gemm, GemmKernel, GemmProblem, GemmRun};
use tcsim_sim::{GpuConfig, Sweep};

pub mod model_report;

/// A minimal microbenchmark harness (replaces criterion, which cannot be
/// fetched offline): calibrates an iteration count to roughly
/// `budget_ms`, runs batches and reports best/median ns-per-iteration.
///
/// Results from `black_box`-style sinks are consumed via the return
/// value, so the measured closure must return its result.
pub fn bench_case<T>(name: &str, budget_ms: u64, mut f: impl FnMut() -> T) {
    use std::time::Instant;
    // Calibrate: double the batch size until one batch takes ≥ 1 ms.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let dt = t0.elapsed();
        if dt.as_micros() >= 1000 || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    // Measure: as many batches as fit the budget (at least 3).
    let mut samples = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_millis(budget_ms);
    while samples.len() < 3 || (Instant::now() < deadline && samples.len() < 100) {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let best = samples[0];
    let median = samples[samples.len() / 2];
    println!(
        "{name:<32} {median:>12.1} ns/iter (best {best:>12.1}, {} x{batch})",
        samples.len()
    );
}

/// Prints an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with limited precision for table cells.
pub fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Runs a batch of GEMM points through the parallel sweep engine and
/// returns the runs in submission order (identical to running each point
/// on a fresh GPU of `cfg` — see the determinism contract of
/// [`tcsim_sim::Sweep`]).
///
/// Jobs are weighted by `m·n·k` so the scheduler starts the heaviest
/// problems first; with skewed size sweeps (Fig 14/17) this is what makes
/// the wall-clock approach `total_work / max_size` instead of serializing
/// behind the largest point. `threads == 1` runs serially.
pub fn gemm_sweep(
    cfg: &GpuConfig,
    points: &[(GemmProblem, GemmKernel)],
    check: bool,
    threads: usize,
) -> Vec<GemmRun> {
    let mut sweep = Sweep::new();
    for &(problem, kernel) in points {
        let weight = (problem.m as u64) * (problem.n as u64) * (problem.k as u64);
        sweep.add_weighted(cfg.clone(), weight, move |gpu| {
            run_gemm(gpu, problem, kernel, check)
        });
    }
    let outcome = if threads <= 1 {
        sweep.run_serial()
    } else {
        sweep.run_parallel(threads)
    };
    outcome.results
}

/// Command-line options shared by the figure/table binaries.
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    /// `--json <path>`: also write machine-readable results there.
    pub json: Option<String>,
    /// `--threads <n>`: worker threads for sweep-based binaries
    /// (default: the machine's available parallelism).
    pub threads: usize,
}

/// Parses `--json <path>` and `--threads <n>` from `std::env::args`,
/// ignoring unknown arguments (binaries stay driveable from scripts that
/// pass extra flags).
///
/// # Panics
///
/// Panics if a recognized flag is missing its value or `--threads` is not
/// a number.
pub fn parse_cli() -> CliArgs {
    let mut out = CliArgs {
        json: None,
        threads: default_threads(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                out.json = Some(args.next().expect("--json requires a path"));
            }
            "--threads" => {
                out.threads = args
                    .next()
                    .expect("--threads requires a count")
                    .parse()
                    .expect("--threads must be a number");
            }
            _ => {}
        }
    }
    out
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes `content` to `path`, creating parent directories, and prints
/// the destination on stderr, so a binary's stdout is the same with or
/// without `--json`.
pub fn write_results(path: &str, content: &str) {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    std::fs::write(p, content).expect("write results file");
    eprintln!("wrote {path}");
}

/// Renders a multi-series chart as ASCII art: one column per x position,
/// one letter per series, optionally log-scaled on y. Collisions print
/// `*`.
pub fn ascii_chart(
    title: &str,
    x_labels: &[String],
    series: &[(&str, Vec<f64>)],
    log_y: bool,
    height: usize,
) {
    println!("\n-- {title} --");
    let xform = |v: f64| if log_y { v.max(1e-12).log10() } else { v };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, ys) in series {
        for &y in ys {
            let t = xform(y);
            lo = lo.min(t);
            hi = hi.max(t);
        }
    }
    if !lo.is_finite() || hi <= lo {
        hi = lo + 1.0;
    }
    let col_w = x_labels.iter().map(|l| l.len()).max().unwrap_or(4).max(4) + 1;
    let rows = height.max(4);
    let mut grid = vec![vec![' '; x_labels.len() * col_w]; rows];
    for (si, (label, ys)) in series.iter().enumerate() {
        let mark = label.chars().next().unwrap_or('?');
        let _ = si;
        for (xi, &y) in ys.iter().enumerate() {
            let t = (xform(y) - lo) / (hi - lo);
            let r = rows - 1 - ((t * (rows - 1) as f64).round() as usize).min(rows - 1);
            let c = xi * col_w + col_w / 2;
            grid[r][c] = if grid[r][c] == ' ' || grid[r][c] == mark {
                mark
            } else {
                '*'
            };
        }
    }
    let unlog = |t: f64| if log_y { 10f64.powf(t) } else { t };
    for (ri, row) in grid.iter().enumerate() {
        let frac = 1.0 - ri as f64 / (rows - 1) as f64;
        let yval = unlog(lo + frac * (hi - lo));
        let line: String = row.iter().collect();
        println!("{:>10.3e} |{}", yval, line.trim_end());
    }
    let mut xaxis = String::new();
    for l in x_labels {
        xaxis.push_str(&format!("{:<width$}", l, width = col_w));
    }
    println!("{:>10} +{}", "", "-".repeat(x_labels.len() * col_w));
    println!("{:>10}  {}", "", xaxis.trim_end());
    let legend: Vec<String> = series
        .iter()
        .map(|(l, _)| format!("{} = {}", l.chars().next().unwrap_or('?'), l))
        .collect();
    println!("{:>10}  [{}]", "", legend.join(", "));
}

/// The matrix sizes of Fig 14a.
pub const FIG14A_SIZES: [usize; 13] =
    [16, 32, 64, 128, 160, 192, 224, 256, 288, 320, 384, 480, 512];

/// The matrix sizes of Fig 14c.
pub const FIG14C_SIZES: [usize; 6] = [128, 256, 512, 768, 1024, 2048];

/// The matrix sizes of Fig 16.
pub const FIG16_SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 2048];

/// The matrix sizes of Fig 17.
pub const FIG17_SIZES: [usize; 7] = [256, 512, 1024, 2048, 4096, 8192, 16384];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(10.0, 0), "10");
    }

    #[test]
    fn size_lists_match_paper_axes() {
        assert_eq!(FIG14A_SIZES.len(), 13);
        assert_eq!(FIG14A_SIZES[0], 16);
        assert_eq!(*FIG14A_SIZES.last().unwrap(), 512);
        assert_eq!(FIG14C_SIZES, [128, 256, 512, 768, 1024, 2048]);
        assert_eq!(*FIG17_SIZES.last().unwrap(), 16384);
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn ascii_chart_renders_without_panicking() {
        let x: Vec<String> = ["10", "100", "1000"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        ascii_chart(
            "test",
            &x,
            &[
                ("alpha", vec![1.0, 10.0, 100.0]),
                ("beta", vec![2.0, 2.0, 2.0]),
            ],
            true,
            6,
        );
        // Degenerate cases: constant series, linear scale.
        ascii_chart("flat", &x, &[("c", vec![5.0, 5.0, 5.0])], false, 4);
    }
}
