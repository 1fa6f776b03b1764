//! Simulation job descriptors: what a client submits, how it is hashed
//! into a cache key, and how a worker executes it.
//!
//! A job is the serve-layer mirror of one [`tcsim_sim::LaunchBuilder`]
//! launch: a kernel in the workspace PTX dialect, a named GPU
//! configuration, launch geometry, and the input buffer (either
//! materialized inline or as a seeded deterministic stream shared with
//! the `tcsim-check` case format). Kernels follow the conformance-corpus
//! calling convention — exactly two `u64` pointer parameters, input then
//! output.
//!
//! # Cache key
//!
//! [`JobSpec::cache_key`] is an FNV-1a/128 digest over the *canonical*
//! job content, with every field length-prefixed (injective framing):
//!
//! 1. the format magic `tcsim-serve job v1`;
//! 2. the kernel re-emitted by [`tcsim_isa::emit::emit_kernel`] — two
//!    textually different submissions of the same program dedupe;
//! 3. the full `Debug` rendering of the resolved [`GpuConfig`] (every
//!    architectural parameter, not the registry name);
//! 4. grid and block extents;
//! 5. the **materialized input bytes** (so a seeded stream and an inline
//!    buffer with equal contents dedupe) and the output size.
//!
//! The determinism contract of the simulator (fresh [`Gpu`] per job, no
//! global state) is what makes this key sound: equal keys ⇒ equal
//! content ⇒ byte-identical [`LaunchStats`] JSON and output digest.

use tcsim_check::gen::Arch;
use tcsim_check::oracle::{self, Case, DataKind};
use tcsim_isa::{Dim3, Kernel};
use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder, LaunchStats};
use tcsim_trace::hash::{fnv128_hex, Fnv128};
use tcsim_trace::json::{JsonValue, JsonWriter};

/// Hard per-job size ceilings (words of 4 bytes): admission control for
/// memory, enforced by [`JobSpec::validate`] before anything is
/// allocated. 1 Mi words = 4 MiB per buffer.
pub const MAX_BUFFER_WORDS: u32 = 1 << 20;

/// Named GPU configurations a job may request.
///
/// The wire protocol carries the *name*; the cache key hashes the
/// *resolved parameters*, so renaming an entry never poisons the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigId {
    /// Down-scaled Volta (2 SMs) — the differential-test config.
    Mini,
    /// Down-scaled Turing (2 SMs).
    MiniTuring,
    /// Down-scaled Ampere (2 SMs, mma.sync enabled).
    MiniAmpere,
    /// NVIDIA Titan V (80 SMs, Volta).
    TitanV,
    /// NVIDIA RTX 2080 (46 SMs, Turing).
    Rtx2080,
    /// NVIDIA Tesla T4 (40 SMs, Turing).
    TeslaT4,
}

impl ConfigId {
    /// The wire-protocol spelling.
    pub fn name(self) -> &'static str {
        match self {
            ConfigId::Mini => "mini",
            ConfigId::MiniTuring => "mini-turing",
            ConfigId::MiniAmpere => "mini-ampere",
            ConfigId::TitanV => "titan-v",
            ConfigId::Rtx2080 => "rtx-2080",
            ConfigId::TeslaT4 => "tesla-t4",
        }
    }

    /// Parses the wire-protocol spelling.
    pub fn from_name(s: &str) -> Option<ConfigId> {
        match s {
            "mini" => Some(ConfigId::Mini),
            "mini-turing" => Some(ConfigId::MiniTuring),
            "mini-ampere" => Some(ConfigId::MiniAmpere),
            "titan-v" => Some(ConfigId::TitanV),
            "rtx-2080" => Some(ConfigId::Rtx2080),
            "tesla-t4" => Some(ConfigId::TeslaT4),
            _ => None,
        }
    }

    /// Resolves to the full configuration.
    pub fn to_config(self) -> GpuConfig {
        match self {
            ConfigId::Mini => oracle::gpu_config(Arch::Volta),
            ConfigId::MiniTuring => oracle::gpu_config(Arch::Turing),
            ConfigId::MiniAmpere => oracle::gpu_config(Arch::Ampere),
            ConfigId::TitanV => GpuConfig::titan_v(),
            ConfigId::Rtx2080 => GpuConfig::rtx_2080(),
            ConfigId::TeslaT4 => GpuConfig::tesla_t4(),
        }
    }

    /// The mini config matching a conformance-case architecture.
    pub fn for_arch(arch: Arch) -> ConfigId {
        match arch {
            Arch::Volta => ConfigId::Mini,
            Arch::Turing => ConfigId::MiniTuring,
            Arch::Ampere => ConfigId::MiniAmpere,
        }
    }
}

/// The job's input buffer: materialized bytes or a seeded stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputSpec {
    /// The deterministic stream of the `tcsim-check` case format
    /// ([`oracle::input_bytes`]).
    Seeded {
        /// Data pattern.
        kind: DataKind,
        /// Stream seed.
        seed: u64,
        /// Buffer size in 4-byte words.
        words: u32,
    },
    /// Client-supplied bytes (length must be a multiple of 4).
    Inline(Vec<u8>),
}

impl InputSpec {
    /// Materializes the buffer contents.
    pub fn bytes(&self) -> Vec<u8> {
        match self {
            InputSpec::Seeded { kind, seed, words } => oracle::input_bytes(*kind, *seed, *words),
            InputSpec::Inline(bytes) => bytes.clone(),
        }
    }

    /// Buffer size in 4-byte words.
    pub fn words(&self) -> u32 {
        match self {
            InputSpec::Seeded { words, .. } => *words,
            InputSpec::Inline(bytes) => (bytes.len() / 4) as u32,
        }
    }
}

/// One fully specified simulation job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Kernel to run (two `u64` pointer params: input, output).
    pub kernel: Kernel,
    /// GPU configuration to build the fresh [`Gpu`] from.
    pub config: ConfigId,
    /// Grid extent in CTAs.
    pub grid: Dim3,
    /// CTA extent in threads.
    pub block: Dim3,
    /// Input buffer.
    pub input: InputSpec,
    /// Output buffer size in 4-byte words.
    pub out_words: u32,
}

/// Artifacts of one executed job — exactly what the cache persists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The launch's [`LaunchStats::to_json`] rendering, verbatim. Byte
    /// identity of this string is the serve determinism contract.
    pub stats_json: String,
    /// FNV-1a/128 digest of the output buffer after the launch.
    pub output_fnv: String,
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(s.get(i..i + 2).ok_or("non-ASCII hex")?, 16)
                .map_err(|e| format!("bad hex byte at {i}: {e}"))
        })
        .collect()
}

impl JobSpec {
    /// Builds a job from a conformance-suite [`Case`] (mini config for
    /// the case's architecture).
    pub fn from_case(case: &Case) -> JobSpec {
        JobSpec {
            kernel: case.kernel.clone(),
            config: ConfigId::for_arch(case.arch),
            grid: Dim3::x(case.grid_x),
            block: Dim3::x(case.block_x),
            input: InputSpec::Seeded {
                kind: case.data,
                seed: case.data_seed,
                words: case.in_words,
            },
            out_words: case.out_words,
        }
    }

    /// The kernel in canonical emitted form (also the hashed form).
    pub fn kernel_text(&self) -> String {
        tcsim_isa::emit::emit_kernel(&self.kernel)
    }

    /// Structural admission checks, run before hashing or execution:
    /// the two-pointer calling convention, non-zero geometry, and the
    /// [`MAX_BUFFER_WORDS`] size ceilings. Launch-time resource checks
    /// (register/shared-memory oversubscription, verifier findings) are
    /// reported later by [`JobSpec::run_on`].
    pub fn validate(&self) -> Result<(), String> {
        let params = self.kernel.params();
        if params.len() != 2 || params.iter().any(|p| p.bytes != 8) {
            return Err(format!(
                "kernel {} must declare exactly two u64 pointer params (in, out)",
                self.kernel.name()
            ));
        }
        for (what, d) in [("grid", self.grid), ("block", self.block)] {
            if d.x == 0 || d.y == 0 || d.z == 0 {
                return Err(format!("{what} extent {d} has a zero dimension"));
            }
        }
        if let InputSpec::Inline(bytes) = &self.input {
            if bytes.len() % 4 != 0 {
                return Err("inline input length must be a multiple of 4".into());
            }
        }
        let in_words = self.input.words();
        if in_words == 0 || self.out_words == 0 {
            return Err("input and output buffers must be non-empty".into());
        }
        if in_words > MAX_BUFFER_WORDS || self.out_words > MAX_BUFFER_WORDS {
            return Err(format!(
                "buffer sizes ({in_words}, {}) exceed the {MAX_BUFFER_WORDS}-word ceiling",
                self.out_words
            ));
        }
        Ok(())
    }

    /// The content-addressed cache key (32 hex chars; see the module
    /// docs for exactly what is hashed).
    pub fn cache_key(&self) -> String {
        let mut h = Fnv128::new();
        h.field(b"tcsim-serve job v1");
        h.field(self.kernel_text().as_bytes());
        h.field(format!("{:?}", self.config.to_config()).as_bytes());
        for d in [self.grid, self.block] {
            h.u64(u64::from(d.x))
                .u64(u64::from(d.y))
                .u64(u64::from(d.z));
        }
        h.field(&self.input.bytes());
        h.u64(u64::from(self.out_words));
        h.hex()
    }

    /// Runs the job on a fresh GPU built from its own config — the
    /// serial (no-server) execution path, byte-identical to what the
    /// server's sweep workers produce.
    pub fn run(&self) -> Result<JobOutcome, String> {
        let mut gpu = Gpu::new(self.config.to_config());
        self.run_on(&mut gpu)
    }

    /// Runs the job on `gpu`, which **must** be freshly built from
    /// [`JobSpec::config`] (the sweep engine's fresh-Gpu-per-job
    /// contract; a reused GPU would shift device addresses and break
    /// cache-key soundness).
    pub fn run_on(&self, gpu: &mut Gpu) -> Result<JobOutcome, String> {
        self.validate()?;
        let input = self.input.bytes();
        let in_addr = gpu.alloc(input.len() as u64);
        let out_len = self.out_words as usize * 4;
        let out_addr = gpu.alloc(out_len as u64);
        gpu.memcpy_h2d(in_addr, &input);
        let stats: LaunchStats = LaunchBuilder::new(self.kernel.clone())
            .grid(self.grid)
            .block(self.block)
            .param_u64(in_addr)
            .param_u64(out_addr)
            .try_launch(gpu)
            .map_err(|e| e.to_string())?;
        let out = gpu.memcpy_d2h(out_addr, out_len);
        Ok(JobOutcome {
            stats_json: stats.to_json(),
            output_fnv: fnv128_hex(&out),
        })
    }

    /// Writes the job as the protocol's JSON object into `w`, in place
    /// (the `job` member of a `submit` or `batch` request).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("kernel", &self.kernel_text());
        w.field_str("config", self.config.name());
        for (key, d) in [("grid", self.grid), ("block", self.block)] {
            w.key(key).u64s(&[d.x, d.y, d.z]);
        }
        match &self.input {
            InputSpec::Seeded { kind, seed, words } => {
                w.field_str("data", kind.qualifier());
                w.field_u64("data_seed", *seed);
                w.field_u64("in_words", u64::from(*words));
            }
            InputSpec::Inline(bytes) => {
                w.field_str("data", "inline");
                w.field_str("input_hex", &hex_encode(bytes));
            }
        }
        w.field_u64("out_words", u64::from(self.out_words));
        w.end_object();
    }

    /// Parses the protocol's JSON object back into a job.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        let kernel_text = v
            .str_field("kernel")
            .ok_or("job: missing string `kernel`")?;
        let kernel = tcsim_isa::ptx::parse_kernel(kernel_text)
            .map_err(|e| format!("job: kernel does not parse: {e}"))?;
        let config = v
            .str_field("config")
            .and_then(ConfigId::from_name)
            .ok_or("job: missing or unknown `config`")?;
        let dim = |key: &str| -> Result<Dim3, String> {
            let arr = v
                .get(key)
                .and_then(|d| d.as_array())
                .ok_or_else(|| format!("job: missing array `{key}`"))?;
            if arr.len() != 3 {
                return Err(format!("job: `{key}` must have 3 elements"));
            }
            let mut out = [0u32; 3];
            for (slot, item) in out.iter_mut().zip(arr) {
                *slot = item
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| format!("job: bad `{key}` element"))?;
            }
            Ok(Dim3::new(out[0], out[1], out[2]))
        };
        let data = v.str_field("data").ok_or("job: missing string `data`")?;
        let input = if data == "inline" {
            let hex = v
                .str_field("input_hex")
                .ok_or("job: inline data needs `input_hex`")?;
            InputSpec::Inline(hex_decode(hex)?)
        } else {
            let kind = DataKind::from_qualifier(data)
                .ok_or_else(|| format!("job: unknown data kind {data:?}"))?;
            let seed = v.u64_field("data_seed").ok_or("job: missing `data_seed`")?;
            let words = v
                .u64_field("in_words")
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("job: missing `in_words`")?;
            InputSpec::Seeded { kind, seed, words }
        };
        let out_words = v
            .u64_field("out_words")
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("job: missing `out_words`")?;
        Ok(JobSpec {
            kernel,
            config,
            grid: dim("grid")?,
            block: dim("block")?,
            input,
            out_words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{KernelBuilder, MemWidth, Operand, SpecialReg};
    use tcsim_trace::json::parse;

    fn job_json(spec: &JobSpec) -> String {
        let mut w = JsonWriter::value();
        spec.write_json(&mut w);
        w.finish()
    }

    /// `out[tid] = in[tid] + bias` over one warp — a minimal two-pointer
    /// kernel in the serve calling convention.
    pub(crate) fn test_kernel(bias: i32) -> Kernel {
        let mut b = KernelBuilder::new("serve_add");
        let p_in = b.param_u64("in");
        let p_out = b.param_u64("out");
        let src = b.reg_pair();
        b.ld_param(MemWidth::B64, src, p_in);
        let dst = b.reg_pair();
        b.ld_param(MemWidth::B64, dst, p_out);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), src);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.iadd(v, v, Operand::Imm(i64::from(bias)));
        let addr2 = b.reg_pair();
        b.imad_wide(addr2, tid, Operand::Imm(4), dst);
        b.st_global(MemWidth::B32, addr2, 0, v);
        b.exit();
        b.build()
    }

    pub(crate) fn test_spec() -> JobSpec {
        JobSpec {
            kernel: test_kernel(1),
            config: ConfigId::Mini,
            grid: Dim3::x(1),
            block: Dim3::x(32),
            input: InputSpec::Seeded {
                kind: DataKind::Raw,
                seed: 7,
                words: 32,
            },
            out_words: 32,
        }
    }

    #[test]
    fn job_round_trips_through_json() {
        for spec in [test_spec(), {
            let mut s = test_spec();
            s.input = InputSpec::Inline(vec![1, 2, 3, 4, 5, 6, 7, 8]);
            s.config = ConfigId::MiniTuring;
            s.grid = Dim3::new(2, 3, 1);
            s
        }] {
            let text = job_json(&spec);
            let back = JobSpec::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.kernel_text(), spec.kernel_text());
            assert_eq!(back.config, spec.config);
            assert_eq!(back.grid, spec.grid);
            assert_eq!(back.block, spec.block);
            assert_eq!(back.input, spec.input);
            assert_eq!(back.out_words, spec.out_words);
            assert_eq!(back.cache_key(), spec.cache_key());
        }
    }

    #[test]
    fn an_old_clients_core_field_is_ignored() {
        // Jobs once named an SM core model; both cores gave byte-identical
        // results, so the field is ignored like any unknown key.
        let spec = test_spec();
        let text = job_json(&spec);
        let old = format!("{{\"core\":\"cycle\",{}", &text[1..]);
        let back = JobSpec::from_json(&parse(&old).unwrap()).unwrap();
        assert_eq!(back.cache_key(), spec.cache_key());
    }

    #[test]
    fn run_is_deterministic_and_correct() {
        let spec = test_spec();
        let a = spec.run().expect("run");
        let b = spec.run().expect("run");
        assert_eq!(a, b, "two fresh runs must be byte-identical");
        // Output digest actually reflects the computation: in[i] + 1.
        let input = spec.input.bytes();
        let expect: Vec<u8> = input
            .chunks(4)
            .flat_map(|w| (u32::from_le_bytes(w.try_into().unwrap()).wrapping_add(1)).to_le_bytes())
            .collect();
        assert_eq!(a.output_fnv, fnv128_hex(&expect));
    }

    #[test]
    fn validate_rejects_malformed_jobs() {
        let mut s = test_spec();
        s.grid = Dim3::new(0, 1, 1);
        assert!(s.validate().unwrap_err().contains("zero dimension"));
        let mut s = test_spec();
        s.out_words = 0;
        assert!(s.validate().is_err());
        let mut s = test_spec();
        s.out_words = MAX_BUFFER_WORDS + 1;
        assert!(s.validate().unwrap_err().contains("ceiling"));
        let mut s = test_spec();
        s.input = InputSpec::Inline(vec![1, 2, 3]);
        assert!(s.validate().unwrap_err().contains("multiple of 4"));
        // Wrong calling convention: a kernel with one param.
        let mut b = KernelBuilder::new("one_param");
        b.param_u64("only");
        b.exit();
        let mut s = test_spec();
        s.kernel = b.build();
        assert!(s.validate().unwrap_err().contains("two u64 pointer params"));
    }

    #[test]
    fn seeded_and_inline_inputs_with_equal_bytes_share_a_key() {
        let seeded = test_spec();
        let mut inline = test_spec();
        inline.input = InputSpec::Inline(seeded.input.bytes());
        assert_eq!(seeded.cache_key(), inline.cache_key());
    }

    #[test]
    fn hex_codec_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }
}
