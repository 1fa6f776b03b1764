//! Microbenchmarks of the tensor-core model primitives: binary16
//! conversion and fused multiply-add, FEDP evaluation, atomic vs stepwise
//! MMA, fragment mapping construction, and the full register-level
//! `wmma.mma` functional path.
//!
//! Uses the hand-rolled `tcsim_bench::bench_case` harness (criterion is
//! not available offline).

use std::hint::black_box;
use tcsim_bench::bench_case;
use tcsim_core::{
    execute_stepwise_volta, fedp_f32, mma_reference, FragmentMap, TensorCoreModel, Tile,
};
use tcsim_f16::F16;
use tcsim_isa::exec::WmmaHandler;
use tcsim_isa::{FragmentKind, Layout, Reg, WarpRegFile, WmmaDirective, WmmaShape, WmmaType};

fn tiles() -> (Tile, Tile, Tile) {
    let shape = WmmaShape::M16N16K16;
    let mut a = Tile::for_fragment(FragmentKind::A, shape, WmmaType::F16);
    let mut b = Tile::for_fragment(FragmentKind::B, shape, WmmaType::F16);
    let mut c = Tile::for_fragment(FragmentKind::C, shape, WmmaType::F32);
    for r in 0..16 {
        for cc in 0..16 {
            a.set_f16(r, cc, F16::from_f32(((r + cc) % 7) as f32 - 3.0));
            b.set_f16(r, cc, F16::from_f32(((r * 3 + cc) % 5) as f32 - 2.0));
            c.set_f32(r, cc, (r as f32) - (cc as f32));
        }
    }
    (a, b, c)
}

fn main() {
    println!("== tensorcore ==");
    const MS: u64 = 800;

    {
        let vals: Vec<f32> = (0..1024).map(|i| (i as f32) * 0.37 - 180.0).collect();
        bench_case("f16_from_f32_conversion", MS, move || {
            let mut acc = 0u16;
            for &v in &vals {
                acc = acc.wrapping_add(F16::from_f32(black_box(v)).to_bits());
            }
            acc
        });
    }

    {
        let x = F16::from_f32(1.5);
        let y = F16::from_f32(0.333);
        bench_case("f16_arithmetic", MS, move || {
            let mut acc = F16::ZERO;
            for _ in 0..256 {
                acc = acc.mul_add(black_box(x), black_box(y));
            }
            acc
        });
    }

    let qa = [
        F16::from_f32(1.5),
        F16::from_f32(-2.0),
        F16::from_f32(0.25),
        F16::from_f32(3.0),
    ];
    let qb = [
        F16::from_f32(0.5),
        F16::from_f32(1.0),
        F16::from_f32(-4.0),
        F16::from_f32(2.0),
    ];
    bench_case("fedp_f32", MS, || {
        fedp_f32(black_box(qa), black_box(qb), black_box(1.0))
    });

    let (a, b, cc) = tiles();
    bench_case("mma_reference_16x16x16", MS, || {
        mma_reference(black_box(&a), black_box(&b), black_box(&cc), WmmaType::F32)
    });
    bench_case("execute_stepwise_volta", MS, || {
        execute_stepwise_volta(black_box(&a), black_box(&b), black_box(&cc), WmmaType::F32)
    });

    bench_case("fragment_map_volta_a", MS, || {
        FragmentMap::volta(FragmentKind::A, WmmaType::F16, Layout::Row)
    });
    bench_case("fragment_map_turing_all", MS, || {
        for frag in [FragmentKind::A, FragmentKind::B, FragmentKind::C] {
            black_box(FragmentMap::turing(
                frag,
                WmmaShape::M32N8K16,
                WmmaType::F16,
                Layout::Row,
            ));
        }
    });

    // Full functional wmma.mma through a warp register file.
    let model = TensorCoreModel::volta();
    let dir = WmmaDirective::Mma {
        shape: WmmaShape::M16N16K16,
        a_layout: Layout::Row,
        b_layout: Layout::Row,
        ab_type: WmmaType::F16,
        c_type: WmmaType::F32,
        d_type: WmmaType::F32,
    };
    let mut regs = WarpRegFile::new(64);
    bench_case("functional_wmma_mma", MS, || {
        model.wmma_mma(&dir, Reg(32), Reg(0), Reg(8), Reg(16), black_box(&mut regs));
    });
}
