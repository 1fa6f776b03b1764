//! Differential fuzzer for the simulator stack.
//!
//! Generates oracle-safe random kernels, runs each on the full timing
//! GPU and on the host reference interpreter, compares outputs, and
//! checks the timing invariants of every launch. Failures are shrunk to
//! a minimal program and written to the corpus directory for permanent
//! replay by `cargo test`.
//!
//! ```text
//! tcsim-fuzz [--seed S] [--iters N] [--max-insts M] [--json]
//!            [--arch ARCH] [--corpus-dir DIR] [--mutate [MODE]]
//!            [--replay DIR]
//! ```
//!
//! Every generated kernel is also run through the `tcsim-verify` static
//! analyzer; any diagnostic on an oracle-safe kernel is a false positive
//! and fails the campaign.
//!
//! `--arch volta|turing|ampere` pins the generated architecture (the
//! default draws Volta/Turing per seed; `ampere` adds the `mma.sync`
//! BF16/TF32/sparse modes to the pool).
//!
//! Bare `--mutate` plants the FEDP round-toward-zero mutation on the
//! reference side — every all-FP16 WMMA case must then *fail*; it exists
//! to prove the oracle catches single-rounding bugs. The named dynamic
//! canaries `fedp-chop-f16`, `bf16-chop-mantissa` and `sparse-meta-swap`
//! work the same way over their sensitive mode pools. `--mutate MODE`
//! with a static mode (`barrier-drop`, `uninit-reg`, `frag-shape`,
//! `shared-grow`) instead runs the *static* canary: each generated
//! kernel gets that defect planted and the verifier must flag it with an
//! error of the matching rule class. The *performance* modes
//! (`bank-stride`, `uncoalesce`) plant perf defects that the
//! `tcsim_verify::perf` lints must flag as warnings at the planted
//! instruction — ≥ 3/4 of plants must be caught (generated kernels carry
//! incidental perf findings of their own, so exactness is per-site, not
//! per-kernel). `--replay DIR` replays a corpus directory instead of
//! fuzzing (exit 1 on any reproduced failure, echoing the failing
//! kernel).

use std::path::PathBuf;
use std::process::ExitCode;
use tcsim_check::corpus;
use tcsim_check::gen::{assemble, generate, Arch, GenConfig, GenProgram, KindSel};
use tcsim_check::invariants;
use tcsim_check::mutate::{self, VerifyMutation};
use tcsim_check::oracle::{diff_run, Case, Mutation};
use tcsim_check::shrink::{shrink, shrink_mismatch, ShrinkResult, DEFAULT_SHRINK_EVALS};
use tcsim_trace::json::JsonWriter;
use tcsim_verify::LaunchGeometry;

struct Args {
    seed: u64,
    iters: u64,
    max_insts: u32,
    json: bool,
    mutate: Mutation,
    verify_mutate: Option<VerifyMutation>,
    arch: Option<Arch>,
    corpus_dir: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        iters: 100,
        max_insts: 24,
        json: false,
        mutate: Mutation::None,
        verify_mutate: None,
        arch: None,
        corpus_dir: PathBuf::from("tests/corpus"),
        replay: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    fn next_value(
        it: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>,
        name: &str,
    ) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{name} needs a value"))
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| next_value(&mut it, name);
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--max-insts" => {
                args.max_insts = value("--max-insts")?
                    .parse()
                    .map_err(|e| format!("--max-insts: {e}"))?
            }
            "--json" => args.json = true,
            "--arch" => {
                let v = value("--arch")?;
                args.arch =
                    Some(Arch::from_qualifier(&v).ok_or_else(|| format!("--arch: unknown {v:?}"))?);
            }
            "--mutate" => {
                // `--mutate NAME` selects a static-verifier or dynamic
                // oracle canary by name; a bare `--mutate` keeps the
                // legacy FEDP oracle-canary meaning.
                if let Some(m) = it.peek().and_then(|n| VerifyMutation::from_name(n)) {
                    it.next();
                    args.verify_mutate = Some(m);
                } else if let Some(m) = it.peek().and_then(|n| Mutation::from_name(n)) {
                    it.next();
                    args.mutate = m;
                } else {
                    args.mutate = Mutation::FedpChopF16;
                }
            }
            "--corpus-dir" => args.corpus_dir = PathBuf::from(value("--corpus-dir")?),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The launch geometry a generated program is analyzed under.
fn geometry(p: &GenProgram) -> LaunchGeometry {
    let mut g = LaunchGeometry::new(p.grid_x, p.block_x);
    g.gen = p.arch.tensor_gen();
    g
}

fn data_seed_for(kernel_seed: u64) -> u64 {
    kernel_seed ^ 0xDA7A_5EED
}

fn replay(dir: &std::path::Path, json: bool) -> ExitCode {
    let results = corpus::replay_dir(dir);
    let mut failed = 0usize;
    for (path, outcome) in &results {
        match outcome {
            Ok(()) => {
                if !json {
                    eprintln!("replay ok   {}", path.display());
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("replay FAIL {}: {e}", path.display());
                if let Ok(text) = std::fs::read_to_string(path) {
                    eprintln!("--- failing case ---\n{text}--------------------");
                }
            }
        }
    }
    if json {
        let mut w = JsonWriter::object();
        w.field_u64("replayed", results.len() as u64);
        w.field_u64("failed", failed as u64);
        println!("{}", w.finish());
    } else {
        eprintln!("replayed {} case(s), {failed} failure(s)", results.len());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_failure(args: &Args, kernel_seed: u64, what: &str, shrunk: &ShrinkResult, case: &Case) {
    let text = corpus::case_to_text(case);
    eprintln!(
        "FAILURE at seed {kernel_seed}: {what} (shrunk to {} ops in {} evals)",
        shrunk.ops, shrunk.evals
    );
    eprintln!("--- minimized case ---\n{text}----------------------");
    let name = format!("fail_{kernel_seed:016x}");
    match corpus::write_case(&args.corpus_dir, &name, case) {
        Ok(path) => eprintln!("written to {}", path.display()),
        Err(e) => eprintln!("could not write corpus file: {e}"),
    }
}

/// Static-verifier canary: plant `m` into generated kernels and demand
/// the analyzer flags each planted defect with an error of the matching
/// rule class (while the unmutated kernel verifies clean).
fn verifier_canary(args: &Args, m: VerifyMutation) -> ExitCode {
    let started = std::time::Instant::now();
    // Barrier/def/shared defects need SIMT kernels (barriers, shared
    // slices); the shape swap needs a WMMA kernel.
    let kind = match m {
        VerifyMutation::FragShape => KindSel::Wmma,
        _ => KindSel::Simt,
    };
    let cfg = GenConfig {
        max_ops: args.max_insts as usize,
        kind,
        arch: args.arch,
    };
    let mut applied = 0u64;
    let mut caught = 0u64;
    let mut attempts = 0u64;
    // Not every kernel has a mutation site (e.g. no barrier was
    // generated); scan seeds until `--iters` defects were planted.
    while applied < args.iters && attempts < args.iters.saturating_mul(16).max(64) {
        let kernel_seed = args.seed.wrapping_add(attempts);
        attempts += 1;
        let program = generate(kernel_seed, &cfg);
        let kernel = assemble(&program);
        let geom = geometry(&program);
        let clean = tcsim_verify::check(&kernel, &geom);
        if !clean.is_empty() {
            eprintln!("seed {kernel_seed}: unmutated kernel is not verifier-clean:");
            for d in clean {
                eprintln!("  {d}");
            }
            return ExitCode::FAILURE;
        }
        let volta = program.arch == Arch::Volta;
        let Some(mutated) = mutate::apply(&kernel, m, volta) else {
            continue;
        };
        applied += 1;
        let hit = if m.is_perf() {
            // Perf defects are warnings from the perf lints, pinned to
            // the planted instruction (the kernel may carry incidental
            // perf findings elsewhere).
            tcsim_verify::perf::check_perf(&mutated.kernel, &geom)
                .iter()
                .any(|d| d.index == mutated.pc && d.rule.starts_with(m.expected_rule_prefix()))
        } else {
            tcsim_verify::check(&mutated.kernel, &geom)
                .iter()
                .any(|d| d.is_error() && d.rule.starts_with(m.expected_rule_prefix()))
        };
        if hit {
            caught += 1;
        } else if !m.is_perf() {
            eprintln!(
                "seed {kernel_seed}: planted {} at #{} NOT flagged",
                m.name(),
                mutated.pc,
            );
            for d in tcsim_verify::check(&mutated.kernel, &geom) {
                eprintln!("  {d}");
            }
            eprintln!(
                "--- mutated kernel ---\n{}----------------------",
                tcsim_isa::emit::emit_kernel(&mutated.kernel)
            );
            return ExitCode::FAILURE;
        }
    }
    if applied == 0 {
        eprintln!(
            "tcsim-fuzz: {} never applied in {attempts} seed(s)",
            m.name()
        );
        return ExitCode::FAILURE;
    }
    // Correctness canaries fail fast above, so caught == applied here;
    // perf canaries tolerate up to a quarter of plants going unflagged.
    if caught * 4 < applied * 3 {
        eprintln!(
            "tcsim-fuzz: only {caught}/{applied} planted {} defect(s) flagged",
            m.name()
        );
        return ExitCode::FAILURE;
    }
    let failures = applied - caught;
    let secs = started.elapsed().as_secs_f64();
    if args.json {
        let mut w = JsonWriter::object();
        w.field_u64("seed", args.seed);
        w.field_str("mutate", m.name());
        w.field_u64("attempts", attempts);
        w.field_u64("applied", applied);
        w.field_u64("caught", caught);
        w.field_u64("failures", failures);
        w.raw_field("seconds", &format!("{secs:.2}"));
        println!("{}", w.finish());
    } else {
        eprintln!(
            "tcsim-fuzz: {caught}/{applied} planted {} defect(s) flagged \
             ({attempts} seeds scanned) in {secs:.2}s",
            m.name()
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcsim-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.replay {
        return replay(dir, args.json);
    }
    if let Some(m) = args.verify_mutate {
        return verifier_canary(&args, m);
    }

    let started = std::time::Instant::now();
    let mutation = args.mutate;
    let mutating = mutation != Mutation::None;
    // With a planted mutation only its sensitive mode pool can observe
    // the defect; restrict generation so every case must trip.
    let kind = mutation.kind();
    let cfg = GenConfig {
        max_ops: args.max_insts as usize,
        kind,
        arch: args.arch,
    };
    let (mut simt, mut wmma, mut caught) = (0u64, 0u64, 0u64);
    for i in 0..args.iters {
        let kernel_seed = args.seed.wrapping_add(i);
        let program = generate(kernel_seed, &cfg);
        if program.wmma.is_some() {
            wmma += 1;
        } else {
            simt += 1;
        }
        // Static-analyzer gate: every oracle-safe kernel must verify
        // clean; any diagnostic here is a verifier false positive.
        let diags = tcsim_verify::check(&assemble(&program), &geometry(&program));
        if !diags.is_empty() {
            let shrunk = shrink(
                &program,
                |cand| !tcsim_verify::check(&assemble(cand), &geometry(cand)).is_empty(),
                DEFAULT_SHRINK_EVALS,
            );
            let min_kernel = assemble(&shrunk.program);
            eprintln!(
                "FAILURE at seed {kernel_seed}: verifier false positive on an \
                 oracle-safe kernel (shrunk to {} ops in {} evals)",
                shrunk.ops, shrunk.evals
            );
            for d in tcsim_verify::check(&min_kernel, &geometry(&shrunk.program)) {
                eprintln!("  {d}");
            }
            eprintln!(
                "--- kernel ---\n{}--------------",
                tcsim_isa::emit::emit_kernel(&min_kernel)
            );
            return ExitCode::FAILURE;
        }
        let data_seed = data_seed_for(kernel_seed);
        let case = Case::from_program(&program, data_seed);
        match diff_run(&case, mutation) {
            Ok(report) => {
                if mutating && case.compare != tcsim_check::oracle::Compare::Exact {
                    eprintln!(
                        "seed {kernel_seed}: planted {} mutation NOT caught",
                        mutation.name()
                    );
                    return ExitCode::FAILURE;
                }
                if let Err(e) = invariants::check_run(&case, &report.stats) {
                    let shrunk = shrink(
                        &program,
                        |cand| {
                            let c = Case::from_program(cand, data_seed);
                            match diff_run(&c, mutation) {
                                Ok(r) => invariants::check_run(&c, &r.stats).is_err(),
                                Err(_) => false,
                            }
                        },
                        DEFAULT_SHRINK_EVALS,
                    );
                    let min_case = Case::from_program(&shrunk.program, data_seed);
                    report_failure(
                        &args,
                        kernel_seed,
                        &format!("invariant: {e}"),
                        &shrunk,
                        &min_case,
                    );
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                if mutating {
                    caught += 1;
                    continue;
                }
                let shrunk = shrink_mismatch(&program, data_seed, mutation, DEFAULT_SHRINK_EVALS);
                let min_case = Case::from_program(&shrunk.program, data_seed);
                report_failure(&args, kernel_seed, &e.to_string(), &shrunk, &min_case);
                return ExitCode::FAILURE;
            }
        }
    }

    let secs = started.elapsed().as_secs_f64();
    if args.json {
        let mut w = JsonWriter::object();
        w.field_u64("seed", args.seed);
        w.field_u64("iters", args.iters);
        w.field_u64("simt", simt);
        w.field_u64("wmma", wmma);
        w.field_str("mutate", mutation.name());
        w.field_u64("caught", caught);
        w.field_u64("failures", 0);
        w.raw_field("seconds", &format!("{secs:.2}"));
        println!("{}", w.finish());
    } else {
        eprintln!(
            "tcsim-fuzz: {} iters clean ({simt} simt, {wmma} wmma{}) in {secs:.2}s",
            args.iters,
            if mutating {
                format!(", {caught} {} mutations caught", mutation.name())
            } else {
                String::new()
            }
        );
    }
    ExitCode::SUCCESS
}
