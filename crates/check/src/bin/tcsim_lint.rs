//! Static kernel linter over on-disk kernels.
//!
//! Runs the `tcsim-verify` analyses (uninitialized registers, barrier
//! divergence, shared-memory races/bounds, WMMA well-formedness) over
//! fuzz-corpus `.case` files and emitted-PTX `.ptx` files without
//! executing anything — the batch front-end to the same pass
//! `LaunchBuilder::try_launch` runs per launch.
//!
//! ```text
//! tcsim-lint [--strict] [--perf] [--json] [--grid X] [--block X]
//!            [--arch volta|turing|ampere] [--shared BYTES] PATH...
//! ```
//!
//! `--perf` additionally runs the performance lints
//! (`shared-bank-conflict`, `global-uncoalesced`, `low-occupancy` from
//! `tcsim_verify::perf`) — warnings, so they only fail the run under
//! `--strict`.
//!
//! Each `PATH` is a file or a directory (scanned non-recursively for
//! `*.case` and `*.ptx`). Corpus cases carry their launch geometry and
//! architecture in the header; bare PTX files are analyzed under the
//! `--grid`/`--block`/`--arch`/`--shared` flags (default: one 32-thread
//! CTA on Volta). Exits 1 when any error-severity diagnostic is found
//! (`--strict` also fails on warnings), 2 on unreadable or unparsable
//! input.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tcsim_check::corpus;
use tcsim_check::gen::Arch;
use tcsim_trace::json::JsonWriter;
use tcsim_verify::perf::check_perf;
use tcsim_verify::{check, Diagnostic, LaunchGeometry};

struct Args {
    strict: bool,
    perf: bool,
    json: bool,
    grid: u32,
    block: u32,
    arch: Arch,
    shared: u32,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        strict: false,
        perf: false,
        json: false,
        grid: 1,
        block: 32,
        arch: Arch::Volta,
        shared: 0,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--strict" => args.strict = true,
            "--perf" => args.perf = true,
            "--json" => args.json = true,
            "--grid" => {
                args.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?
            }
            "--block" => {
                args.block = value("--block")?
                    .parse()
                    .map_err(|e| format!("--block: {e}"))?
            }
            "--arch" => {
                let v = value("--arch")?;
                args.arch = Arch::from_qualifier(&v)
                    .ok_or_else(|| format!("--arch: unknown arch {v:?}"))?;
            }
            "--shared" => {
                args.shared = value("--shared")?
                    .parse()
                    .map_err(|e| format!("--shared: {e}"))?
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if args.paths.is_empty() {
        return Err("no input paths (expected .case/.ptx files or directories)".into());
    }
    Ok(args)
}

/// Runs the correctness analyses, plus the performance lints when
/// `--perf` is set (appended so correctness findings stay first).
fn lint_kernel(kernel: &tcsim_isa::Kernel, geom: &LaunchGeometry, args: &Args) -> Vec<Diagnostic> {
    let mut diags = check(kernel, geom);
    if args.perf {
        diags.extend(check_perf(kernel, geom));
    }
    diags
}

/// One linted kernel: its origin, name and diagnostics.
struct Linted {
    path: PathBuf,
    kernel: String,
    diags: Vec<Diagnostic>,
}

fn geometry(grid: u32, block: u32, arch: Arch, shared: u32) -> LaunchGeometry {
    let mut g = LaunchGeometry::new(grid, block).with_dynamic_shared(shared);
    g.gen = arch.tensor_gen();
    g
}

fn lint_file(path: &Path, args: &Args, out: &mut Vec<Linted>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    if ext == "case" || text.trim_start().starts_with(corpus::HEADER) {
        let case = corpus::case_from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let geom = geometry(case.grid_x, case.block_x, case.arch, 0);
        out.push(Linted {
            path: path.to_path_buf(),
            kernel: case.kernel.name().to_string(),
            diags: lint_kernel(&case.kernel, &geom, args),
        });
    } else {
        let program =
            tcsim_isa::ptx::parse_program(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let geom = geometry(args.grid, args.block, args.arch, args.shared);
        let mut kernels: Vec<_> = program.kernels().collect();
        kernels.sort_by_key(|k| k.name().to_string());
        for k in kernels {
            out.push(Linted {
                path: path.to_path_buf(),
                kernel: k.name().to_string(),
                diags: lint_kernel(k, &geom, args),
            });
        }
    }
    Ok(())
}

fn lint_path(path: &Path, args: &Args, out: &mut Vec<Linted>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("case") | Some("ptx")
                )
            })
            .collect();
        entries.sort();
        for p in entries {
            lint_file(&p, args, out)?;
        }
        Ok(())
    } else {
        lint_file(path, args, out)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcsim-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut linted = Vec::new();
    for path in &args.paths {
        if let Err(e) = lint_path(path, &args, &mut linted) {
            eprintln!("tcsim-lint: {e}");
            return ExitCode::from(2);
        }
    }
    let (mut errors, mut warnings) = (0usize, 0usize);
    for l in &linted {
        for d in &l.diags {
            if d.is_error() {
                errors += 1;
            } else {
                warnings += 1;
            }
            eprintln!("{}: {}: {d}", l.path.display(), l.kernel);
        }
    }
    if args.json {
        let files: std::collections::BTreeSet<_> = linted.iter().map(|l| &l.path).collect();
        let mut w = JsonWriter::object();
        w.field_u64("files", files.len() as u64);
        w.field_u64("kernels", linted.len() as u64);
        w.field_u64("errors", errors as u64);
        w.field_u64("warnings", warnings as u64);
        println!("{}", w.finish());
    } else {
        eprintln!(
            "tcsim-lint: {} kernel(s), {errors} error(s), {warnings} warning(s)",
            linted.len()
        );
    }
    if errors > 0 || (args.strict && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
