#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Tensor core functional and timing model — the primary contribution of
//! *Modeling Deep Learning Accelerator Enabled GPUs* (Raihan, Goli,
//! Aamodt; ISPASS 2019) rebuilt in Rust.
//!
//! The paper reverse-engineers NVIDIA's Volta (Titan V) and Turing
//! (RTX 2080) tensor cores with microbenchmarks and proposes a
//! microarchitecture consistent with the observations; its GPGPU-Sim
//! implementation achieves 99.6% IPC correlation against real hardware.
//! This crate contains the corresponding model components:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`mapping`] | operand element ↔ thread mappings (Fig 7, Fig 8) |
//! | [`octet`] | threadgroups, octets and their footprints (Table II, Fig 12a) |
//! | [`hmma`] | HMMA sets/steps and outer-product schedule (Table III, Fig 10/11) |
//! | [`fedp`] | four-element dot product pipeline (Fig 13) |
//! | [`timing`] | HMMA latency schedules (Fig 9, Table I) |
//! | [`functional`] | `wmma.{load,mma,store}` execution (§V-A) |
//!
//! # Example: one warp-level MMA
//!
//! ```
//! use tcsim_core::{mma_reference, Tile};
//! use tcsim_isa::{FragmentKind, WmmaShape, WmmaType};
//! use tcsim_f16::F16;
//!
//! let shape = WmmaShape::M16N16K16;
//! let mut a = Tile::for_fragment(FragmentKind::A, shape, WmmaType::F16);
//! let mut b = Tile::for_fragment(FragmentKind::B, shape, WmmaType::F16);
//! let c = Tile::for_fragment(FragmentKind::C, shape, WmmaType::F32);
//! a.set_f16(0, 0, F16::from_f32(2.0));
//! b.set_f16(0, 0, F16::from_f32(3.0));
//! let d = mma_reference(&a, &b, &c, WmmaType::F32);
//! assert_eq!(d.get_f32(0, 0), 6.0);
//! ```

pub mod fedp;
pub mod functional;
pub mod hmma;
pub mod mapping;
pub mod octet;
pub mod pipe;
mod plan;
pub mod tile;
pub mod timing;
pub mod trace;

pub use fedp::{
    dot_f16, dot_f32, dot_i32, fedp_chain_f32, fedp_f16, fedp_f32, fedp_f32_pre, fedp_i32,
    FEDPS_PER_TENSOR_CORE, FEDP_STAGES,
};
pub use functional::{gather_tile, read_sparse_meta, scatter_tile, TensorCoreModel};
pub use hmma::{
    execute_setwise_turing, execute_stepwise_volta, expand_sparse_a, mma_reference,
    pack_sparse_row_meta, table3_rows, turing_sets, volta_schedule, MmaMode, SetCompute,
    StepCompute, SETS, SPARSE_GROUP_K, SPARSE_INDEX_BITS,
};
pub use mapping::{threadgroup_of_lane, FragmentMap, THREADGROUPS_PER_WARP, THREADGROUP_SIZE};
pub use octet::{
    octet_footprints, octet_of_lane, threadgroups_of_octet, OctetFootprint, SubTile,
    OCTETS_PER_WARP,
};
pub use pipe::{HmmaEvent, TensorCorePipe};
pub use tile::Tile;
pub use timing::{
    mma_timing, turing_set_completions, turing_step_schedule, volta_step_schedule, HmmaStepTiming,
    MmaTiming, TuringMode, VoltaTimingParams, VOLTA_FP16_CUMULATIVE, VOLTA_MIXED_CUMULATIVE,
};
pub use trace::{mma_step_schedule, trace_mma};
