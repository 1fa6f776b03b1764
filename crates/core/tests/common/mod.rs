//! What the handler-level tests of this crate share: the architectures
//! and their models, every distinct fragment load and D store an
//! arch-valid mode performs, and the lane accesses the fragment mapping
//! itself gives for one.

use tcsim_check::gen::{wmma_modes, Arch};
use tcsim_core::{FragmentMap, TensorCoreModel};
use tcsim_isa::exec::MemAccess;
use tcsim_isa::{FragmentKind, Layout, WmmaShape, WmmaType, WARP_SIZE};

pub const ARCHES: [Arch; 3] = [Arch::Volta, Arch::Turing, Arch::Ampere];
pub const LAYOUTS: [Layout; 2] = [Layout::Row, Layout::Col];

pub fn model(arch: Arch) -> TensorCoreModel {
    match arch {
        Arch::Volta => TensorCoreModel::volta(),
        Arch::Turing => TensorCoreModel::turing(),
        Arch::Ampere => TensorCoreModel::ampere(),
    }
}

pub fn reference_accesses(map: &FragmentMap, base: u64, stride: usize) -> Vec<MemAccess> {
    (0..WARP_SIZE)
        .flat_map(|lane| {
            map.lane_accesses(lane, stride)
                .into_iter()
                .map(move |(off, bytes)| MemAccess {
                    lane: lane as u8,
                    addr: base + off,
                    bytes,
                })
        })
        .collect()
}

/// Every distinct fragment load an arch-valid mode performs.
pub fn load_configs(arch: Arch) -> Vec<(FragmentKind, WmmaShape, WmmaType, Layout)> {
    let mut out = Vec::new();
    for mode in wmma_modes(arch) {
        let ab_layouts: &[Layout] = if mode.ab.bits() == 4 { &[] } else { &LAYOUTS };
        let mut push = |frag, layout| {
            let cfg = (frag, mode.frag_shape(frag), mode.frag_type(frag), layout);
            if !out.contains(&cfg) {
                out.push(cfg);
            }
        };
        for &layout in ab_layouts {
            push(FragmentKind::A, layout);
            push(FragmentKind::B, layout);
        }
        if mode.ab.bits() == 4 {
            push(FragmentKind::A, Layout::Row);
            push(FragmentKind::B, Layout::Col);
        }
        for layout in LAYOUTS {
            push(FragmentKind::C, layout);
        }
    }
    out
}

/// Every distinct D store an arch-valid mode performs.
pub fn store_configs(arch: Arch) -> Vec<(WmmaShape, WmmaType, Layout)> {
    let mut out = Vec::new();
    for mode in wmma_modes(arch) {
        for layout in LAYOUTS {
            let cfg = (mode.shape, mode.d, layout);
            if !out.contains(&cfg) {
                out.push(cfg);
            }
        }
    }
    out
}
