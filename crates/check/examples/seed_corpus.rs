//! Regenerates the committed seed corpus in `tests/corpus/`.
//!
//! The fuzzer appends minimized *failing* cases there as it finds bugs;
//! these seeds are deterministic *passing* cases committed up front so
//! corpus replay exercises every generator mode (SIMT control flow,
//! Volta/Turing WMMA, all-FP16 accumulation, Ampere BF16 and 2:4-sparse
//! `mma.sync`) on every `cargo test` even before the first real find.
//!
//! ```text
//! cargo run -p tcsim-check --example seed_corpus
//! ```

use std::path::Path;
use tcsim_check::corpus::{replay_case, write_case};
use tcsim_check::gen::{generate, Arch, GenConfig, KindSel};
use tcsim_check::oracle::{Case, Compare, DataKind};
use tcsim_nn::kernels::{elems_grid, gelu_kernel, softmax_kernel};

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let picks: &[(&str, u64, KindSel)] = &[
        ("seed_simt_a", 11, KindSel::Simt),
        ("seed_simt_b", 20, KindSel::Simt),
        ("seed_wmma_a", 3, KindSel::Wmma),
        ("seed_wmma_b", 8, KindSel::Wmma),
        ("seed_wmma_f16acc", 5, KindSel::WmmaF16Acc),
        // Seed 2 draws the *dense* BF16 m16n8k16 mode; the sparse pick
        // below covers the metadata path.
        ("seed_mma_bf16", 2, KindSel::WmmaBf16),
        ("seed_mma_sparse", 9, KindSel::WmmaSparse),
    ];
    for &(name, seed, kind) in picks {
        let cfg = GenConfig {
            kind,
            ..Default::default()
        };
        let program = generate(seed, &cfg);
        let case = Case::from_program(&program, seed ^ 0xDA7A_5EED);
        // A committed seed must replay clean, or every `cargo test` would
        // fail out of the box.
        replay_case(&case).unwrap_or_else(|e| panic!("{name} (seed {seed}) is not clean: {e}"));
        let path = write_case(&dir, name, &case).expect("write corpus file");
        println!("wrote {}", path.display());
    }

    // Shipped transformer-block kernels with the oracle's two-parameter
    // (in, out) shape, on raw random words: the device and the reference
    // interpreter share the op semantics bit-for-bit (including the MUFU
    // ex2/lg2 paths and NaN/Inf inputs), so the comparison is exact.
    let nn_picks: &[(&str, tcsim_isa::Kernel, u32, u32, u32)] = &[
        // (name, kernel, grid_x, in_words, out_words)
        // Softmax runs one warp-wide CTA per row: 8 rows of 32.
        ("seed_nn_softmax", softmax_kernel(32, 0.25), 8, 256, 256),
        ("seed_nn_gelu", gelu_kernel(256), elems_grid(256), 256, 256),
    ];
    for (name, kernel, grid_x, in_words, out_words) in nn_picks {
        let case = Case {
            kernel: kernel.clone(),
            arch: Arch::Volta,
            grid_x: *grid_x,
            block_x: 32,
            in_words: *in_words,
            out_words: *out_words,
            data: DataKind::Raw,
            data_seed: 0xDA7A_5EED,
            compare: Compare::Exact,
        };
        replay_case(&case).unwrap_or_else(|e| panic!("{name} is not clean: {e}"));
        let path = write_case(&dir, name, &case).expect("write corpus file");
        println!("wrote {}", path.display());
    }
}
