//! Pin: the analytically modeled tile choice never cycles-regresses the
//! largest-divisor heuristic on the shipped model zoo.
//!
//! For every GEMM shape lenet/mlp/encoder lower to (top-level conv and
//! linear GEMMs from the plan, attention/MLP block GEMMs derived from
//! the layer parameters exactly as `block.rs` pads them), both the
//! heuristic and the modeled tile are computed; wherever they disagree,
//! both kernels run the padded problem on the cycle-level simulator and
//! the modeled choice must not be slower.

use std::collections::BTreeSet;

use tcsim_cutlass::{run_gemm, GemmPrecision, GemmProblem};
use tcsim_nn::models::{encoder, lenet, mlp};
use tcsim_nn::{lower, lower_modeled, pad16, select, select_modeled, Graph, LoweredOp};
use tcsim_sim::{Gpu, GpuConfig};

/// Every padded GEMM shape the graph's launch plan contains.
fn gemm_shapes(graph: &Graph) -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for layer in lower(graph) {
        let rows = layer.output_shape[0];
        match &layer.op {
            LoweredOp::Gemm(g) => shapes.push((g.pm, g.pn, g.pk)),
            LoweredOp::Attention(a) => {
                let (d, hd) = (a.d_model, a.d_model / a.heads);
                // QKV projection, per-head score/context, output proj —
                // padded the same way block.rs does per launch_gemm.
                shapes.push((pad16(rows), pad16(3 * d), pad16(d)));
                shapes.push((pad16(a.seq), pad16(a.seq), pad16(hd)));
                shapes.push((pad16(a.seq), pad16(hd), pad16(a.seq)));
                shapes.push((pad16(rows), pad16(d), pad16(d)));
            }
            LoweredOp::Mlp(m) => {
                shapes.push((pad16(rows), pad16(m.d_ff), pad16(m.d_model)));
                shapes.push((pad16(rows), pad16(m.d_model), pad16(m.d_ff)));
            }
            _ => {}
        }
    }
    shapes
}

#[test]
fn modeled_tiles_never_regress_the_heuristic() {
    let gpu = GpuConfig::mini();
    let mut shapes: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for graph in [lenet(1), mlp(1), encoder(1, 2)] {
        shapes.extend(gemm_shapes(&graph));
    }
    assert!(!shapes.is_empty());

    let mut disagreements = 0;
    for (pm, pn, pk) in shapes {
        let heuristic = select(pm, pn);
        let modeled = select_modeled(pm, pn, pk, &gpu);
        if heuristic == modeled {
            continue;
        }
        disagreements += 1;
        let problem = GemmProblem {
            m: pm,
            n: pn,
            k: pk,
            precision: GemmPrecision::MixedF32,
        };
        let sim = |tile| {
            let mut g = Gpu::new(gpu.clone());
            run_gemm(&mut g, problem, tile, false).stats.cycles
        };
        let (hc, mc) = (sim(heuristic), sim(modeled));
        assert!(
            mc <= hc,
            "{pm}x{pn}x{pk}: modeled {} = {mc} cycles regresses heuristic {} = {hc} cycles",
            modeled.name(),
            heuristic.name(),
        );
    }
    // The model zoo is built to exercise the larger tiles; the modeled
    // chooser should actually deviate somewhere (else this test pins
    // nothing) — mlp's 64-row GEMMs are exactly where small problems
    // beat the biggest-divisor choice.
    assert!(
        disagreements > 0,
        "modeled selection never deviated; pin is vacuous"
    );
}

#[test]
fn lower_modeled_only_changes_tiles() {
    let gpu = GpuConfig::mini();
    let graph = mlp(1);
    let base = lower(&graph);
    let modeled = lower_modeled(&graph, &gpu);
    assert_eq!(base.len(), modeled.len());
    for (b, m) in base.iter().zip(&modeled) {
        assert_eq!(b.name, m.name);
        if let (LoweredOp::Gemm(bg), LoweredOp::Gemm(mg)) = (&b.op, &m.op) {
            assert_eq!((bg.pm, bg.pn, bg.pk), (mg.pm, mg.pn, mg.pk));
        }
    }
}
