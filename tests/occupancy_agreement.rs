//! The occupancy lint and the simulator agree on residency: for a grid of
//! CTA shapes on every SM preset, the CTA count and limiter that
//! `tcsim_verify::perf::occupancy` reports equal how many CTAs the
//! simulator's admission rule (`SmResources::admit`, behind
//! `Sm::can_accept`) places onto an empty SM one after another, and the
//! resource it names when it turns the next one away.

use std::sync::Arc;
use tcsim_isa::{CtaRequirements, Kernel, KernelBuilder, LaunchConfig, Limiter, TensorGen};
use tcsim_sm::{LaunchSpec, SmConfig};
use tcsim_verify::perf::occupancy;
use tcsim_verify::LaunchGeometry;

/// Disagreements between the lint and the simulator, as
/// `"<gen> regs <r> threads <t> shared <s>: lint <n> <limiter>, sim <n> <limiter>"`.
const KNOWN_DISAGREEMENTS: &[&str] = &[];

/// A kernel that allocates `regs` registers and `shared` bytes of static
/// shared memory.
fn kernel(regs: usize, shared: u32) -> Kernel {
    let mut b = KernelBuilder::new("occupancy");
    b.reg_block(regs);
    if shared > 0 {
        b.shared_alloc(shared);
    }
    b.exit();
    b.build()
}

/// How many CTAs needing `req` the simulator's rule admits onto an empty
/// SM, and the resource it names when it turns the next one away.
fn admitted(sm: &SmConfig, req: &CtaRequirements) -> (u32, Limiter) {
    let mut held = CtaRequirements::default();
    let mut ctas = 0;
    loop {
        if let Err(limiter) = sm.resources.admit(&held, ctas, req) {
            return (ctas as u32, limiter);
        }
        held.warps += req.warps;
        held.registers += req.registers;
        held.shared_bytes += req.shared_bytes;
        ctas += 1;
    }
}

#[test]
fn lint_occupancy_matches_the_simulator_admission_rule() {
    let presets = [
        (SmConfig::volta(), TensorGen::Volta),
        (SmConfig::turing(), TensorGen::Turing),
        (SmConfig::ampere(), TensorGen::Ampere),
    ];
    let mut compared = 0;
    let mut disagreements = Vec::new();
    for (sm, gen) in presets {
        for regs in [1, 8, 32, 64, 255] {
            for threads in [1u32, 31, 32, 33, 100, 128, 256, 480, 1000, 1024, 1056] {
                for (stat, dynamic) in [
                    (0, 0),
                    (0, 1),
                    (1024, 3072),
                    (0, 40 * 1024),
                    (0, 64 * 1024),
                    (16, 64 * 1024),
                    (0, 96 * 1024 + 4),
                ] {
                    let k = kernel(regs, stat);
                    let mut geom = LaunchGeometry::new(1u32, threads);
                    geom.gen = gen;
                    geom.dynamic_shared = dynamic;
                    let lint = occupancy(&k, &geom, &sm.resources);
                    let spec = LaunchSpec {
                        kernel: Arc::new(k),
                        params: Arc::new(Vec::new()),
                        launch: LaunchConfig::new(1u32, threads).with_shared_bytes(dynamic),
                        uops: None,
                    };
                    let (ctas, limiter) = admitted(&sm, &spec.cta_requirements());
                    compared += 1;
                    if (lint.ctas_per_sm, lint.limiter) != (ctas, limiter) {
                        disagreements.push(format!(
                            "{} regs {regs} threads {threads} shared {}: lint {} {}, sim {ctas} \
                             {limiter}",
                            gen,
                            stat + dynamic,
                            lint.ctas_per_sm,
                            lint.limiter
                        ));
                    }
                }
            }
        }
    }
    assert!(compared > 1000);
    assert_eq!(
        disagreements, KNOWN_DISAGREEMENTS,
        "the occupancy lint and the simulator disagree"
    );
}
